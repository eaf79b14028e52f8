"""Every saved file is written beside its target and moved into place: a write
that raises midway leaves the old file whole and no temporary file behind."""

import itertools
import json
import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest

from weakbias import cli, classifier, corpus as corpus_module, doc2vec
from weakbias.binio import atomic_write
from weakbias.classifier import build_model, save_checkpoint
from weakbias.corpus import SideLabel, save_corpus, vocabulary_from_counts
from weakbias.dedup import DuplicateCluster, save_cluster_report
from weakbias.doc2vec import PvdmConfig, PvdmModel, save_embeddings, save_model

from helpers import make_corpus


class Midway(RuntimeError):
    pass


def then_raise(items):
    """Yield the items, then fail: a write interrupted after some output."""
    yield from items
    raise Midway("interrupted")


def text_model(doc_vectors):
    vocab = vocabulary_from_counts({"a": 3, "b": 2, "c": 1}, 1)
    rng = np.random.default_rng(0)
    return PvdmModel(
        word_vectors=rng.normal(size=(3, 4)),
        node_vectors=rng.normal(size=(2, 4)),
        doc_vectors=doc_vectors,
        vocabulary=vocab,
        config=PvdmConfig(dim=4, min_count=1),
        doc_ids=[f"d{i}" for i in range(len(doc_vectors))],
    )


def dumps_then_raise(monkeypatch, module, calls):
    """The module's json.dumps works for its first calls, then fails. The
    writers check their whole input before opening the file, so a failure
    there comes only after some output."""
    count = itertools.count()

    def dumps(obj):
        if next(count) == calls:
            raise Midway("interrupted")
        return json.dumps(obj)

    monkeypatch.setattr(module, "json", SimpleNamespace(dumps=dumps))


def corpus():
    return make_corpus([("d1", "alpha beta", SideLabel.LEFT), ("d2", "beta", SideLabel.RIGHT)])


def cluster_rows():
    return [DuplicateCluster(frozenset("ab"), "a"), DuplicateCluster(frozenset("cd"), "c")]


def checkpoint_midway(monkeypatch, path, workdir):
    def failing(fh, vector):
        raise Midway("interrupted")

    monkeypatch.setattr(classifier, "write_vector", failing)
    save_checkpoint(build_model(4, hidden=3, fused=2, text_dim=2, seed=0), path)


def embeddings_midway(monkeypatch, path, workdir):
    dumps_then_raise(monkeypatch, doc2vec, 1)  # fails on the second line
    save_embeddings({"a": np.zeros(3), "b": np.ones(3)}, path)


def corpus_midway(monkeypatch, path, workdir):
    dumps_then_raise(monkeypatch, corpus_module, 2)  # fails on the second record
    save_corpus(corpus(), path)


def vocab_run(path, workdir):
    save_corpus(corpus(), str(workdir / "c.jsonl"))
    cli.main(["vocab", "--corpus", str(workdir / "c.jsonl"), "--dump-config", path])


def dump_config_midway(monkeypatch, path, workdir):
    monkeypatch.setattr(cli, "dump_config", lambda config: "[run]\nseed = \ud800\n")
    vocab_run(path, workdir)


# Per writer: a complete write, then one that raises after part of its output.
WRITERS = {
    "save_model": (
        lambda mp, path, wd: save_model(text_model(np.zeros((1, 4))), path),
        lambda mp, path, wd: save_model(text_model(np.array([["x"] * 4], object)), path),
    ),
    "save_embeddings": (
        lambda mp, path, wd: save_embeddings({"a": np.ones(3)}, path),
        embeddings_midway,
    ),
    "save_corpus": (
        lambda mp, path, wd: save_corpus(corpus(), path),
        corpus_midway,
    ),
    "save_checkpoint": (
        lambda mp, path, wd: save_checkpoint(
            build_model(4, hidden=3, fused=2, text_dim=2, seed=1), path
        ),
        checkpoint_midway,
    ),
    "save_cluster_report": (
        lambda mp, path, wd: save_cluster_report(cluster_rows(), path),
        lambda mp, path, wd: save_cluster_report(then_raise(cluster_rows()[1:]), path),
    ),
    "cli report": (
        lambda mp, path, wd: cli._write_result(path, "report"),
        lambda mp, path, wd: cli._write_result(path, "another report \ud800"),
    ),
    "cli --dump-config": (
        lambda mp, path, wd: vocab_run(path, wd),
        dump_config_midway,
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_failed_write_keeps_the_old_file(writer, tmp_path, monkeypatch):
    write, write_midway = WRITERS[writer]
    out = tmp_path / "out" / "artifact"
    out.parent.mkdir()
    write(monkeypatch, str(out), tmp_path)
    before = out.read_bytes()
    assert before
    with pytest.raises((Midway, ValueError)):  # UnicodeEncodeError is a ValueError
        write_midway(monkeypatch, str(out), tmp_path)
    assert out.read_bytes() == before
    assert os.listdir(out.parent) == ["artifact"]


def test_a_completed_write_replaces_the_file(tmp_path):
    out = tmp_path / "artifact"
    out.write_text("old")
    with atomic_write(str(out)) as fh:
        fh.write("new ")
        assert out.read_text() == "old"  # nothing is visible before the block ends
        fh.write("text")
    assert out.read_text() == "new text"
    with atomic_write(str(out), binary=True) as fh:
        fh.write(b"\x00\x01")
    assert out.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["artifact"]


def test_an_interrupted_first_write_leaves_nothing(tmp_path):
    with pytest.raises(Midway):
        with atomic_write(str(tmp_path / "artifact"), binary=True) as fh:
            fh.write(b"partial")
            raise Midway("interrupted")
    assert os.listdir(tmp_path) == []


def test_new_files_get_the_default_permissions(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    plain.write_text("x")
    with atomic_write(str(atomic)) as fh:
        fh.write("x")
    assert atomic.stat().st_mode == plain.stat().st_mode


def test_an_existing_file_keeps_its_mode(tmp_path):
    out = tmp_path / "artifact"
    out.write_text("old")
    out.chmod(0o600)
    with atomic_write(str(out)) as fh:
        fh.write("new")
    assert out.read_text() == "new"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def test_the_file_is_synced_before_it_replaces_the_target(tmp_path, monkeypatch):
    events, fsync, replace = [], os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync") or fsync(fd))
    monkeypatch.setattr(os, "replace", lambda a, b: events.append("replace") or replace(a, b))
    with atomic_write(str(tmp_path / "artifact")) as fh:
        fh.write("text")
    assert events == ["fsync", "replace"]


def test_a_symlink_keeps_its_link(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old")
    link.symlink_to(target)
    with atomic_write(str(link)) as fh:
        fh.write("new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_fifo_is_written_in_place(writer, tmp_path, monkeypatch):
    """A FIFO (as /dev/stdout or /dev/fd/N can be) gets the writer's output
    and stays a FIFO; no temporary file is made beside it."""
    write = WRITERS[writer][0]
    fifo = tmp_path / "fifo"
    write(monkeypatch, str(tmp_path / "regular"), tmp_path)
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the writer's open does not block
    try:
        write(monkeypatch, str(fifo), tmp_path)
        assert os.read(reader, 1 << 16) == (tmp_path / "regular").read_bytes()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
