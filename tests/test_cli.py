"""Command-line dispatch, config resolution, exit codes, artifact plumbing."""

import json
import warnings

import numpy as np
import pytest

from weakbias.classifier import forward_stage1, load_checkpoint
from weakbias.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_USAGE,
    main,
    parse_config_text,
)
from weakbias.corpus import load_corpus
from weakbias.doc2vec import load_embeddings, load_model
from weakbias.errors import UsageError


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with the bundled synthetic corpus and the artifacts of a
    tiny end-to-end run: text model, embeddings, stage-1 and stage-2
    checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    assert run("make-synthetic", "--out", root / "corpus.jsonl",
               "--n-samples", 200, "--seed", 5) == 0
    assert run("train-text", "--corpus", root / "corpus.jsonl",
               "--model-out", root / "text.pv",
               "--embeddings-out", root / "emb.bin",
               "--dim", 12, "--window", 2, "--epochs", 2, "--min-count", 1,
               "--seed", 5) == 0
    assert run("train-stage1", "--corpus", root / "corpus.jsonl",
               "--embeddings", root / "emb.bin",
               "--model-out", root / "s1.ckpt",
               "--epochs", 2, "--lr", "1e-3", "--hidden", 16, "--fused", 8,
               "--seed", 5) == 0
    assert run("train-stage2", "--corpus", root / "corpus.jsonl",
               "--model", root / "s1.ckpt", "--model-out", root / "s2.ckpt",
               "--epochs", 2, "--lr", "1e-3", "--seed", 5) == 0
    return root


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        """Spec example: eval --help prints usage and succeeds."""
        with pytest.raises(SystemExit) as exc:
            run("eval", "--help")
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("vocab", "--bogus-flag")
        assert exc.value.code == EXIT_USAGE

    def test_missing_corpus_file_exits_three(self, tmp_path, capsys):
        code = run("vocab", "--corpus", tmp_path / "nope.jsonl")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input:") and "\n" not in err

    def test_missing_required_path_flag_exits_two(self, capsys):
        assert run("vocab") == EXIT_USAGE

    def test_invalid_synthetic_spec_exits_two(self, tmp_path, capsys):
        code = run("make-synthetic", "--out", tmp_path / "x.jsonl",
                   "--n-samples", 1)
        assert code == EXIT_USAGE

    def test_numeric_divergence_exits_four(self, workspace, tmp_path, capsys):
        """An absurd learning rate overflows the fused layer; the failure is
        reported as numeric, not as a crash."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                       "--embeddings", workspace / "emb.bin",
                       "--model-out", tmp_path / "junk.ckpt",
                       "--epochs", 3, "--lr", "1e12",
                       "--hidden", 16, "--fused", 8, "--seed", 5)
        assert code == EXIT_NUMERIC
        assert "diverged" in capsys.readouterr().err

    def test_error_is_one_json_line_with_json_logs(self, tmp_path, capsys):
        code = run("vocab", "--corpus", tmp_path / "nope.jsonl", "--json-logs")
        assert code == EXIT_INPUT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "error" and event["kind"] == "input"


class TestConfigResolution:
    def test_ini_sections_parsed(self):
        sections = parse_config_text("[pvdm]\ndim = 32\n[run]\nseed = 7\n")
        assert sections == {"pvdm": {"dim": "32"}, "run": {"seed": "7"}}

    def test_json_config_parsed(self):
        sections = parse_config_text('{"pvdm": {"dim": 32}}')
        assert sections == {"pvdm": {"dim": 32}}

    def test_malformed_json_rejected(self):
        with pytest.raises(UsageError, match="JSON"):
            parse_config_text('{"pvdm": [1, 2]}')

    def test_config_file_applies(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ncorpus = {workspace / 'corpus.jsonl'}\n"
            "[pvdm]\nmin_count = 2\n"
        )
        assert run("vocab", "--config", config) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_count"] == 2

    def test_flag_beats_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ncorpus = {workspace / 'corpus.jsonl'}\n"
            "[pvdm]\nmin_count = 2\n"
        )
        assert run("vocab", "--config", config, "--min-count", 1) == 0
        assert json.loads(capsys.readouterr().out)["min_count"] == 1

    def test_unknown_section_key_exits_two(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[pvdm]\nbogus = 1\n")
        code = run("vocab", "--config", config,
                   "--corpus", workspace / "corpus.jsonl")
        assert code == EXIT_USAGE

    def test_unknown_sections_rejected(self):
        with pytest.raises(UsageError, match=r"\[hnswx\], \[pvdmm\]"):
            parse_config_text("[pvdmm]\ndim = 3\n[hnswx]\nm = 4\n[run]\nseed = 1\n")
        with pytest.raises(UsageError, match=r"\[hnsw\]"):
            parse_config_text('{"hnsw": {"k": 10}}')

    def test_hnsw_section_exits_two(self, workspace, tmp_path, capsys):
        """The dedup join has no settings, so a stale [hnsw] is refused."""
        config = tmp_path / "run.ini"
        config.write_text("[hnsw]\nk = 10\n")
        code = run("dedup", "--config", config, "--corpus",
                   workspace / "corpus.jsonl", "--threshold", "0.5",
                   "--out", tmp_path / "out.jsonl")
        assert code == EXIT_USAGE
        assert "[hnsw]" in capsys.readouterr().err

    def test_dump_round_trips(self, workspace, tmp_path, capsys):
        """The dumped effective config, fed back in, dumps byte-identically."""
        first = tmp_path / "first.ini"
        second = tmp_path / "second.ini"
        assert run("vocab", "--corpus", workspace / "corpus.jsonl",
                   "--min-count", 3, "--seed", 11, "--dump-config", first) == 0
        assert run("vocab", "--config", first, "--dump-config", second) == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()

    def test_seed_precedence(self, workspace, tmp_path, capsys, monkeypatch):
        """Flag beats config; config beats WEAKBIAS_SEED; env beats the 0
        default."""
        corpus = workspace / "corpus.jsonl"
        dump = tmp_path / "eff.ini"

        def effective_seed(*argv):
            assert run("vocab", "--corpus", corpus, "--dump-config", dump,
                       *argv) == 0
            capsys.readouterr()
            return int(parse_config_text(dump.read_text())["run"]["seed"])

        monkeypatch.delenv("WEAKBIAS_SEED", raising=False)
        assert effective_seed() == 0
        monkeypatch.setenv("WEAKBIAS_SEED", "123")
        assert effective_seed() == 123
        config = tmp_path / "seeded.ini"
        config.write_text("[run]\nseed = 55\n")
        assert effective_seed("--config", config) == 55
        assert effective_seed("--config", config, "--seed", 7) == 7

    def test_bad_env_seed_exits_two(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("WEAKBIAS_SEED", "abc")
        code = run("vocab", "--corpus", workspace / "corpus.jsonl")
        assert code == EXIT_USAGE


class TestMakeSynthetic:
    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("make-synthetic", "--out", a, "--n-samples", 50,
                   "--seed", 7) == 0
        assert run("make-synthetic", "--out", b, "--n-samples", 50,
                   "--seed", 7) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_corpus(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("make-synthetic", "--out", a, "--n-samples", 50,
                   "--seed", 7) == 0
        assert run("make-synthetic", "--out", b, "--n-samples", 50,
                   "--seed", 8) == 0
        assert a.read_bytes() != b.read_bytes()


class TestArtifacts:
    def test_corpus_written(self, workspace):
        assert len(load_corpus(str(workspace / "corpus.jsonl"))) == 200

    def test_text_model_round_trips(self, workspace):
        model = load_model(str(workspace / "text.pv"))
        assert model.doc_vectors.shape == (200, 12)

    def test_training_embeddings_unit_norm(self, workspace):
        embeddings = load_embeddings(str(workspace / "emb.bin"))
        assert len(embeddings) == 200
        norms = [np.linalg.norm(v) for v in embeddings.values()]
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    def test_vocab_report(self, workspace, capsys):
        assert run("vocab", "--corpus", workspace / "corpus.jsonl",
                   "--min-count", 1) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == len(payload["counts"]) > 0

    def test_infer_text_covers_the_corpus(self, workspace, tmp_path, capsys):
        out = tmp_path / "inferred.bin"
        assert run("infer-text", "--model", workspace / "text.pv",
                   "--corpus", workspace / "corpus.jsonl",
                   "--embeddings-out", out, "--steps", 3, "--seed", 5) == 0
        inferred = load_embeddings(str(out))
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        assert set(inferred) == set(corpus.ids())

    def test_nearest_words_output(self, workspace, capsys):
        assert run("nearest-words", "--model", workspace / "text.pv",
                   "--query", "red00 red01", "--n", 3, "--seed", 5) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            word, similarity = line.split("\t")
            assert -1.0 <= float(similarity) <= 1.0

    def test_dedup_writes_corpus_and_report(self, workspace, tmp_path, capsys):
        out, report = tmp_path / "dedup.jsonl", tmp_path / "clusters.jsonl"
        assert run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--threshold", "1e-6", "--out", out, "--report", report,
                   "--seed", 5) == 0
        assert len(load_corpus(str(out))) == 200  # nothing that close
        assert report.exists()

    def test_dedup_histogram_rows(self, workspace, capsys):
        assert run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--histogram", "--bins", 5, "--sample-size", 20,
                   "--seed", 5) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        low, high, count = rows[0].split("\t")
        assert float(low) < float(high) and int(count) >= 0

    def test_dedup_without_threshold_exits_two(self, workspace, tmp_path, capsys):
        code = run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--out", tmp_path / "x.jsonl")
        assert code == EXIT_USAGE

    def test_checkpoints_load(self, workspace):
        stage2 = load_checkpoint(str(workspace / "s2.ckpt"))
        assert stage2.head2 is not None

    def test_same_seed_gives_identical_checkpoints(self, workspace, tmp_path, capsys):
        """The root seed fully determines a training run."""
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for path in (a, b):
            assert run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                       "--embeddings", workspace / "emb.bin",
                       "--model-out", path, "--epochs", 1, "--lr", "1e-3",
                       "--hidden", 16, "--fused", 8, "--seed", 21) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ablate_ignores_the_text_input(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablated.ckpt"
        assert run("ablate", "--model", workspace / "s2.ckpt",
                   "--model-out", out) == 0
        model = load_checkpoint(str(out))
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        x = corpus.features()[:8]
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(8, model.text_dim)).astype(np.float32)
        zeros = np.zeros_like(noise)
        assert np.array_equal(forward_stage1(model, x, noise),
                              forward_stage1(model, x, zeros))

    def test_json_logs_epoch_lines(self, workspace, tmp_path, capsys):
        assert run("train-stage2", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt",
                   "--model-out", tmp_path / "s2b.ckpt",
                   "--epochs", 2, "--lr", "1e-3", "--seed", 5,
                   "--json-logs") == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().err.strip().splitlines()]
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert all(np.isfinite(e["loss"]) for e in epochs)


class TestWordHeadCommands:
    def test_select_train_rank(self, workspace, tmp_path, capsys):
        words_file = tmp_path / "words.txt"
        assert run("select-words", "--corpus", workspace / "corpus.jsonl",
                   "--keep", 5, "--out", words_file) == 0
        words = words_file.read_text().splitlines()
        assert len(words) == 5
        model_out = tmp_path / "words.ckpt"
        assert run("train-words", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin",
                   "--model", workspace / "s1.ckpt",
                   "--words", words_file, "--model-out", model_out,
                   "--epochs", 1, "--lr", "1e-3", "--seed", 5) == 0
        assert run("rank-images", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin",
                   "--model", model_out, "--word", words[0], "--top", 4) == 0
        ids = capsys.readouterr().out.strip().splitlines()
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        assert len(ids) == 4 and all(i in corpus for i in ids)


class TestEval:
    def test_json_report_with_top_k(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s2.ckpt", "--group-by", "source",
                   "--top-k", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["overall_accuracy"] <= 1.0
        assert payload["metadata"]["group_by"] == "source"
        assert "2" in payload["metadata"]["top_k_accuracy"]

    def test_csv_report(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s2.ckpt", "--group-by", "topic",
                   "--csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "group,accuracy,count"
        assert len(lines) >= 2

    def test_stage1_eval_uses_embeddings(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt", "--stage1",
                   "--embeddings", workspace / "emb.bin") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["stage"] == 1

    def test_stage1_eval_without_embeddings_exits_two(self, workspace, capsys):
        code = run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt", "--stage1")
        assert code == EXIT_USAGE


@pytest.fixture(scope="module")
def split_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    assert run("make-synthetic", "--out", root / "tr.jsonl",
               "--n-samples", 80, "--seed", 9) == 0
    assert run("make-synthetic", "--out", root / "te.jsonl",
               "--n-samples", 40, "--seed", 10) == 0
    return root


class TestRetrainingProtocols:
    _tiny = ("--dim", 8, "--window", 2, "--pvdm-epochs", 1, "--min-count", 1,
             "--stage1-epochs", 1, "--stage2-epochs", 1,
             "--hidden", 8, "--fused", 4, "--seed", 3)

    def test_truncation_sweep_map(self, split_corpora, capsys):
        assert run("truncation-sweep", "--train", split_corpora / "tr.jsonl",
                   "--test", split_corpora / "te.jsonl", "--ks", "1",
                   *self._tiny) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"1", "full"}

    def test_loso_reports_both_arms(self, split_corpora, capsys):
        assert run("loso", "--train", split_corpora / "tr.jsonl",
                   "--test", split_corpora / "te.jsonl", "--source", "l0",
                   *self._tiny) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"source", "with", "without"}
