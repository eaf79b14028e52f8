"""The seed-7 command chain, from make-synthetic to both evals, keeps the
sha256 of every file it writes.

The chain runs in process through cli.main, in a temporary directory with
relative paths (the eval reports record the paths of their inputs). The
expected digests depend on the BLAS kernel, so the table is keyed by the
OpenBLAS version and the core name the library reports; a kernel without a
row is skipped, naming its key. A change that alters these bits on purpose
updates the table: `python tests/test_chain_digests.py` prints the row of
the kernel it runs on.
"""

import ctypes
import hashlib
import os
from pathlib import Path

import pytest

from weakbias.cli import main

SEED = 7
CHAIN = [
    ["make-synthetic", "--out", "corpus.jsonl", "--n-samples", "300"],
    ["dedup", "--corpus", "corpus.jsonl", "--threshold", "400", "--out", "dedup.jsonl",
     "--report", "report.jsonl"],
    ["train-text", "--corpus", "dedup.jsonl", "--model-out", "text.pvdm",
     "--embeddings-out", "train.emb", "--dim", "32", "--epochs", "3", "--min-count", "2"],
    ["infer-text", "--model", "text.pvdm", "--corpus", "dedup.jsonl",
     "--embeddings-out", "inferred.emb", "--steps", "10"],
    ["train-stage1", "--corpus", "dedup.jsonl", "--embeddings", "train.emb",
     "--model-out", "stage1.ckpt"],
    ["train-stage2", "--corpus", "dedup.jsonl", "--model", "stage1.ckpt",
     "--model-out", "stage2.ckpt"],
    ["select-words", "--corpus", "dedup.jsonl", "--keep", "20", "--out", "words.txt"],
    ["train-words", "--corpus", "dedup.jsonl", "--embeddings", "train.emb",
     "--model", "stage2.ckpt", "--words", "words.txt", "--model-out", "words.ckpt"],
    ["eval", "--corpus", "dedup.jsonl", "--model", "words.ckpt", "--out", "eval.json"],
    ["eval", "--stage1", "--corpus", "dedup.jsonl", "--model", "words.ckpt",
     "--embeddings", "inferred.emb", "--out", "eval_stage1.json"],
]

# (OpenBLAS version, core name) -> file -> sha256 of the chain's outputs.
DIGESTS = {
    ('0.3.31.188.0', 'SkylakeX'): {
        'corpus.jsonl': '587d2002f65256ca58a3d8b457f7db37b5ad1479cad790f95bb0113159f61557',
        'dedup.jsonl': 'e43acbf55e7aa6e95ec2aff04e2278d1070eb546b53f4eb1e9fdb09ef4c14ff7',
        'eval.json': '89e9d4420ac0b5bb4c38c70e9a7fdc6616de98fe6f45a204c8b57e761ea1e295',
        'eval_stage1.json': 'e246d9eb991f2cbd7d8a92328db9c30de242d69c320866f949ce142db43757fa',
        'inferred.emb': '8c378ba20d7be28c5aee7408372806c45a458299a3c1bc77c88b2f500c745d04',
        'report.jsonl': '21d29e8ee7a11b6c1fdd19e2930d1af3a6ee3a5cf47552c06b010edf93aa62e5',
        'stage1.ckpt': '2b32e8d89e958a5487b16d11d3f739d18adb9ed2664c66559d8121d7b85050a6',
        'stage2.ckpt': 'e757b1e492423a22fc199922eb8e5853d4d3266413c332dc9ac510472e4bef6d',
        'text.pvdm': 'd05e7f6e0d66e8257cda1ab3a4a4e8cd7e9312c6929116a23a9460bede2f8870',
        'train.emb': '4931f72e0ef595ea9c7291baca4837118c7b45bf77eba2a03b3dba299b941967',
        'words.ckpt': 'edb45e75c4148f549931ea0b3590e00637aaafab952e690b08e07f258ca75345',
        'words.txt': '0468eb4d7d27602577de67ec7324989cbf8e5c2798338bd7e4e37624271b6da0',
    },
    ('0.3.31.188.0', 'Haswell'): {
        'corpus.jsonl': '587d2002f65256ca58a3d8b457f7db37b5ad1479cad790f95bb0113159f61557',
        'dedup.jsonl': 'e43acbf55e7aa6e95ec2aff04e2278d1070eb546b53f4eb1e9fdb09ef4c14ff7',
        'eval.json': '89e9d4420ac0b5bb4c38c70e9a7fdc6616de98fe6f45a204c8b57e761ea1e295',
        'eval_stage1.json': 'e246d9eb991f2cbd7d8a92328db9c30de242d69c320866f949ce142db43757fa',
        'inferred.emb': 'c856c9e7bf93ae7f57d62881246f69fb9a275fcab70919158aabbe6c6200f302',
        'report.jsonl': '21d29e8ee7a11b6c1fdd19e2930d1af3a6ee3a5cf47552c06b010edf93aa62e5',
        'stage1.ckpt': 'e412c5dfe1ad10415fd3ec279cdeb345cca7846e7d66813fe61cac7bb1e2438d',
        'stage2.ckpt': 'f67cde4aaa50a40d175b2ceb8a76519aecc90dd6b7d8d3c0fa1f0a8cfbce94af',
        'text.pvdm': '519c718bc8653dbfe8811e7b347210696d83d3473c3cf69429dbc921351a07f2',
        'train.emb': 'b7361003d85e2aebbf9e980f8ce7180d852a46fd0af3ab5162eb01422348d28b',
        'words.ckpt': '9b082d388203d257c08adc62007f88e88ef07d99a8a95e9004ccd982a91bd7e2',
        'words.txt': '0468eb4d7d27602577de67ec7324989cbf8e5c2798338bd7e4e37624271b6da0',
    },
    ('0.3.31.188.0', 'Katmai'): {
        'corpus.jsonl': '587d2002f65256ca58a3d8b457f7db37b5ad1479cad790f95bb0113159f61557',
        'dedup.jsonl': 'e43acbf55e7aa6e95ec2aff04e2278d1070eb546b53f4eb1e9fdb09ef4c14ff7',
        'eval.json': '89e9d4420ac0b5bb4c38c70e9a7fdc6616de98fe6f45a204c8b57e761ea1e295',
        'eval_stage1.json': 'e246d9eb991f2cbd7d8a92328db9c30de242d69c320866f949ce142db43757fa',
        'inferred.emb': 'd0ad1082632dbe824249a184757a98674089ec0667a589e12a164ebed467a71e',
        'report.jsonl': '21d29e8ee7a11b6c1fdd19e2930d1af3a6ee3a5cf47552c06b010edf93aa62e5',
        'stage1.ckpt': 'cf22bf4e1085955c71fd46776801046c8c09a5f5cc9c654f0c373323dd6f40f2',
        'stage2.ckpt': 'b131270c3aa267e47c41f891a96d065c1fc92d8a2efe5c9372bd7a03610d9875',
        'text.pvdm': 'e278008bebe0080cb0e7b784daecbedb3ebb8e693833380e2496fd7894d089c5',
        'train.emb': '6b3ad142bc75eb0efb64d4367c7c31e43805eee3e5c4e3d3f911abf20ec78c66',
        'words.ckpt': 'c6cda86d739576d35a22663f63f1f82897184ebae4e4403cdd2135db0329bf1f',
        'words.txt': '0468eb4d7d27602577de67ec7324989cbf8e5c2798338bd7e4e37624271b6da0',
    },
    ('0.3.31.188.0', 'Nehalem'): {
        'corpus.jsonl': '587d2002f65256ca58a3d8b457f7db37b5ad1479cad790f95bb0113159f61557',
        'dedup.jsonl': 'e43acbf55e7aa6e95ec2aff04e2278d1070eb546b53f4eb1e9fdb09ef4c14ff7',
        'eval.json': '89e9d4420ac0b5bb4c38c70e9a7fdc6616de98fe6f45a204c8b57e761ea1e295',
        'eval_stage1.json': 'e246d9eb991f2cbd7d8a92328db9c30de242d69c320866f949ce142db43757fa',
        'inferred.emb': '3242384142ea2ec8f75932d5251dc46de2e35887722eb83824b025f7ab1cf596',
        'report.jsonl': '21d29e8ee7a11b6c1fdd19e2930d1af3a6ee3a5cf47552c06b010edf93aa62e5',
        'stage1.ckpt': 'f5162bd54e7019e6db15d92f74bf584b7cec8b1e4aebec8f76e236fc64a8083d',
        'stage2.ckpt': 'bd8fc1f14e1bdf58de0c484a4fd8d529a995237ca2c9047627f6009d6ddb1639',
        'text.pvdm': 'bf9f862f3f60876e4b24f49fe6ed22fddaec97286aac0e893f50748cb328ccff',
        'train.emb': '0b85511802e5fe8dbf257504ca9d9bde70bfa905b7d242b10733ce6da0cdd45d',
        'words.ckpt': 'a8dd24ac64b15a6978d753fae456a134177fc64e26f1e3ec88d9f6bc5c4c17a2',
        'words.txt': '0468eb4d7d27602577de67ec7324989cbf8e5c2798338bd7e4e37624271b6da0',
    },
    ('0.3.31.188.0', 'Sandybridge'): {
        'corpus.jsonl': '587d2002f65256ca58a3d8b457f7db37b5ad1479cad790f95bb0113159f61557',
        'dedup.jsonl': 'e43acbf55e7aa6e95ec2aff04e2278d1070eb546b53f4eb1e9fdb09ef4c14ff7',
        'eval.json': '89e9d4420ac0b5bb4c38c70e9a7fdc6616de98fe6f45a204c8b57e761ea1e295',
        'eval_stage1.json': 'e246d9eb991f2cbd7d8a92328db9c30de242d69c320866f949ce142db43757fa',
        'inferred.emb': '0b7e7c78e94536a5407a5b74394f6cf889c42045dbb94155dc701e2f5fab9787',
        'report.jsonl': '21d29e8ee7a11b6c1fdd19e2930d1af3a6ee3a5cf47552c06b010edf93aa62e5',
        'stage1.ckpt': '2952731bcc85a91711ef6d62d49bac49c62a35b172b0f72e4887b09adcd84077',
        'stage2.ckpt': '93413b05d17209ad18833df93c93ce768da10be47e79666f37b7f89bd52d800b',
        'text.pvdm': 'e2c8c8aee8cd2e25e5039fa66aa72e3bbaf207beaed0abb84bf943cba06dff8c',
        'train.emb': '4459a8a28097127fc3558e7359e49867eec1cd57006ad1d38a35205d14e1c32c',
        'words.ckpt': '93373b86a4593914235f0f4dcc9c5b2048a2c3c14a2f7f612aa07b9c1e66c554',
        'words.txt': '0468eb4d7d27602577de67ec7324989cbf8e5c2798338bd7e4e37624271b6da0',
    },
}


def openblas_kernel():
    """(version, core name) of the OpenBLAS that numpy calls, read from the
    library's own config and core-name functions; None where numpy's
    extension module does not reach them under these names."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    except AttributeError:
        return None
    config.restype = core.restype = ctypes.c_char_p
    return config().decode().split()[1], core().decode()


def run_chain(directory):
    """Run CHAIN in `directory`; return each file it wrote and its sha256."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in CHAIN:
            assert main(argv + ["--seed", str(SEED)]) == 0, argv
        return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                for name in sorted(os.listdir("."))}
    finally:
        os.chdir(cwd)


def test_seed7_chain_keeps_its_digests(tmp_path):
    kernel = openblas_kernel()
    if kernel not in DIGESTS:
        pytest.skip(f"no chain digests for OpenBLAS kernel {kernel!r}")
    assert run_chain(tmp_path) == DIGESTS[kernel]


def test_a_kernel_without_a_row_is_a_skip_that_names_it(monkeypatch, tmp_path):
    monkeypatch.setitem(globals(), "openblas_kernel", lambda: ("0.0", "Unlisted"))
    with pytest.raises(pytest.skip.Exception, match=r"\('0\.0', 'Unlisted'\)"):
        test_seed7_chain_keeps_its_digests(tmp_path)
    assert not list(tmp_path.iterdir())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = run_chain(directory)
    print(f"    {openblas_kernel()!r}: {{")
    for name, digest in digests.items():
        print(f"        {name!r}: {digest!r},")
    print("    },")
