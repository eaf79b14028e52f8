"""The four benchmark workloads.

Each workload generates its inputs from the workload seed in `setup`, runs
one closed-loop operation on input `k` in `run` (the timed part), and reads
the operation's outputs back in `check`, outside the timed part, against an
oracle. The program is driven only through `run_pipeline` and
`weakbias.cli.main`, and is given only the generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

import weakbias.cli
from weakbias import (
    Corpus,
    PipelineConfig,
    PvdmConfig,
    Sample,
    SyntheticSpec,
    load_checkpoint,
    make_synthetic,
    predict_batch,
    run_pipeline,
    save_checkpoint,
    save_corpus,
    save_embeddings,
    save_model,
    split,
    tokenize,
    topic_vocabulary,
)

from tracing import span


class OpFailed(Exception):
    """An operation that did not complete: a nonzero exit code."""


def _rng(seed: int, purpose: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, salt])


def _subseed(seed: int, purpose: str) -> int:
    return int(_rng(seed, purpose).integers(2**31))


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cli(argv: list[str], tracer) -> None:
    """`weakbias <argv>` in this process; progress lines are kept and shown
    only when the command fails."""
    err = io.StringIO()
    with span(tracer, f"cli.{argv[0]}"), contextlib.redirect_stderr(err):
        code = weakbias.cli.main(argv)
    if code != 0:
        raise OpFailed(f"weakbias {argv[0]} exited {code}: {err.getvalue()[-2000:]}")


def _pairs_of(groups) -> set[tuple[str, str]]:
    return {
        (a, b) for members in groups for a in members for b in members if a < b
    }


def _check_report(path: str, n: int) -> tuple[list[str], float]:
    """Errors in an `eval` report over n samples, and its overall accuracy."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    acc = report.get("overall_accuracy")
    errors = []
    if not isinstance(acc, (int, float)) or not 0.0 <= acc <= 1.0:
        errors.append(f"eval overall accuracy {acc!r} is not in [0, 1]")
        acc = math.nan
    counted = sum(g.get("count", 0) for g in report.get("per_group", {}).values())
    if counted != n:
        errors.append(f"eval report groups count {counted} samples, expected {n}")
    return errors, acc


# The README configuration, with both classifier stages given 8x the epochs
# so that on 200 training samples they take as many steps as at n=1600.
def pipeline_config(seed: int) -> PipelineConfig:
    return PipelineConfig(
        pvdm=PvdmConfig(dim=96, window=2, epochs=8),
        stage1_epochs=32,
        stage2_epochs=96,
        lr=2e-3,
        hidden=64,
        fused=12,
        seed=seed,
    )


def _labelled_split(seed: int, purpose: str, n_train: int, n_test: int):
    corpus = make_synthetic(
        SyntheticSpec(n_samples=n_train + n_test, seed=_subseed(seed, purpose))
    )
    return split(corpus, n_test / (n_train + n_test), _subseed(seed, purpose + "-split"))


class Workload:
    """Interface shared by the workloads. `n_inputs` distinct inputs are run
    in turn; quality is the mean over them, so it does not depend on how
    many operations fit into the run."""

    name = ""
    throughput_name = ""  # the end-to-end throughput under its own name
    n_inputs = 1

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Work the checks need once, done after set-up and before the loop
        process starts, so that it counts in neither."""

    def run(self, k: int, tracer):
        """The timed operation on input k; returns what `check` needs."""
        raise NotImplementedError

    def check(self, k: int, output) -> tuple[list[str], dict[str, float], str]:
        """Errors, quality values and a digest of the outputs of input k."""
        raise NotImplementedError

    def work(self) -> int:
        """Units of work (samples, rows, documents) in one operation."""
        raise NotImplementedError

    def quality(self, values: dict[str, float]) -> float:
        """The headline quality from the mean quality values."""
        (value,) = values.values()
        return value

    def layer_counts(self) -> dict[str, float]:
        """Per-layer figures the workload knows without tracing; every
        workload reports them, as 0 where they do not apply."""
        return {"dedup.oracle_pairs": 0}


class TrainPipeline(Workload):
    """`run_pipeline` on synthetic data: PV-DM training dominates."""

    name = "train-pipeline"
    throughput_name = "train_samples_per_s"

    def __init__(self, n_train=200, n_test=800, n_inputs=3):
        self.n_train, self.n_test, self.n_inputs = n_train, n_test, n_inputs

    def setup(self, seed, workdir):
        self.config = pipeline_config(seed)
        self.data = [
            _labelled_split(seed, f"pipeline-{k}", self.n_train, self.n_test)
            for k in range(self.n_inputs)
        ]

    def run(self, k, tracer):
        train, test = self.data[k]
        with span(tracer, "pipeline.run_pipeline"):
            return run_pipeline(train, test, self.config)

    def check(self, k, output):
        test = self.data[k][1]
        probs = np.asarray(output.probabilities, dtype=np.float64)
        errors = []
        if len(output.predictions) != len(test):
            errors.append(f"{len(output.predictions)} predictions for {len(test)} samples")
        if probs.shape != (len(test), 2) or not np.all(np.isfinite(probs)):
            errors.append(f"probabilities are not finite with shape ({len(test)}, 2)")
        elif not np.allclose(probs.sum(axis=1), 1.0, atol=1e-5):
            errors.append("probability rows do not sum to 1")
        hits = sum(p is s.side for p, s in zip(output.predictions, test))
        digest = hashlib.sha256(
            probs.tobytes() + "".join(p.value for p in output.predictions).encode()
        ).hexdigest()
        return errors, {"test_accuracy": hits / len(test)}, digest

    def work(self):
        return self.n_train


def make_wire_corpus(seed: int, n_base: int, n_wire: int) -> tuple[Corpus, set]:
    """A synthetic base plus planted wire-photo duplicates.

    Each of n_wire base images is re-run 1, 2 or 3 times (a third of the
    photos each) under other outlets' articles and sides, with a feature
    jitter of norm at most 0.3. Returns the corpus and the planted
    duplicate pairs."""
    base = make_synthetic(SyntheticSpec(n_samples=n_base, seed=_subseed(seed, "wire-base")))
    rng = _rng(seed, "wire-copies")
    originals = rng.choice(n_base, size=n_wire, replace=False)
    reruns = rng.permutation(np.resize([1, 2, 3], n_wire))
    samples = list(base.samples)
    groups = []
    for w, (orig, copies) in enumerate(zip(originals, reruns)):
        photo = base.samples[orig]
        group = [photo.id]
        for c in range(copies):
            article = base.samples[(orig + 1 + rng.integers(n_base - 1)) % n_base]
            direction = rng.normal(size=base.feature_dim)
            jitter = direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.3)
            copy = dataclasses.replace(
                article,
                id=f"w{w:04d}-{c}",
                feature=(photo.feature + jitter).astype(np.float32),
            )
            samples.append(copy)
            group.append(copy.id)
        groups.append(group)
    order = rng.permutation(len(samples))
    corpus = Corpus(base.feature_dim, [samples[i] for i in order])
    return corpus, _pairs_of(groups)


def oracle_clusters(features: np.ndarray, ids: list[str], threshold: float) -> list[list[str]]:
    """Connected components of the pairs within the squared-distance
    threshold, from the full pairwise distance matrix."""
    x = features.astype(np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    parent = list(range(len(ids)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(d2 <= threshold, k=1))):
        parent[find(j)] = find(i)
    groups: dict[int, list[str]] = {}
    for i, sid in enumerate(ids):
        groups.setdefault(find(i), []).append(sid)
    return [g for g in groups.values() if len(g) > 1]


class DedupWire(Workload):
    """`weakbias dedup` over a corpus with planted wire-photo duplicates."""

    name = "dedup-wire"
    throughput_name = "dedup_rows_per_s"
    threshold = 0.5

    def __init__(self, n_base=500, n_wire=48):
        self.n_base, self.n_wire = n_base, n_wire

    def setup(self, seed, workdir):
        corpus, planted = make_wire_corpus(seed, self.n_base, self.n_wire)
        self.corpus_path = os.path.join(workdir, "wire.jsonl")
        self.out_path = os.path.join(workdir, "dedup.jsonl")
        self.report_path = os.path.join(workdir, "clusters.jsonl")
        save_corpus(corpus, self.corpus_path)
        self.corpus, self.planted = corpus, planted

    def prepare_checks(self):
        self.oracle = _pairs_of(
            oracle_clusters(self.corpus.features(), self.corpus.ids(), self.threshold)
        )
        if not self.planted <= self.oracle:
            raise RuntimeError("generator bug: a planted pair is beyond the threshold")

    def run(self, k, tracer):
        _cli(["dedup", "--corpus", self.corpus_path, "--threshold", str(self.threshold),
              "--out", self.out_path, "--report", self.report_path], tracer)

    def check(self, k, output):
        ids = set(self.corpus.ids())
        kept = [row["id"] for row in _read_jsonl(self.out_path)[1:]]
        clusters = _read_jsonl(self.report_path)
        errors = []
        seen, removed = set(), set()
        for c in clusters:
            members = set(c["members"])
            if c["canonical"] not in members or not members <= ids:
                errors.append(f"cluster {c['canonical']} lists unknown members")
            if seen & members:
                errors.append(f"cluster {c['canonical']} overlaps another cluster")
            seen |= members
            removed |= members - {c["canonical"]}
        expected = [sid for sid in self.corpus.ids() if sid not in removed]
        if kept != expected:
            errors.append(
                f"output keeps {len(kept)} rows, the report implies {len(expected)}"
            )
        found = _pairs_of(c["members"] for c in clusters)
        oracle = self.oracle
        hits = len(found & oracle)
        values = {
            "dup_pair_recall": hits / len(oracle) if oracle else 1.0,
            "dup_pair_precision": hits / len(found) if found else 1.0,
        }
        return errors, values, _digest(self.out_path, self.report_path)

    def quality(self, values):
        return min(values["dup_pair_recall"], values["dup_pair_precision"])

    def work(self):
        return len(self.corpus)

    def layer_counts(self):
        return {"dedup.oracle_pairs": len(self.oracle)}


def ragged_queries(seed: int, k: int, n_docs: int) -> Corpus:
    """n_docs unseen articles, half of each topic.

    Each topic's articles run from 1 to 16 sentences of 8 words, an equal
    number of each length in seeded order, and each word is a topic word or
    a shared filler word with equal odds. Features, sides and sources are
    those of synthetic samples of the same topic."""
    spec = SyntheticSpec(n_samples=3 * n_docs, seed=_subseed(seed, f"queries-{k}"))
    full = make_synthetic(spec)
    pools = {f"topic{t}": topic_vocabulary(spec, t) for t in (0, 1)}
    topic_words = {w for pool in pools.values() for w in pool}
    filler = sorted({w for s in full for w in s.tokens} - topic_words)
    rng = _rng(seed, f"query-text-{k}")
    per_sentence = spec.words_per_sentence
    samples = []
    for topic, pool in pools.items():
        chosen = [s for s in full if _topic_of(s) == topic][: n_docs // 2]
        if len(chosen) < n_docs // 2:
            raise RuntimeError(f"generator drew too few {topic} samples")
        lengths = rng.permutation(np.resize(np.arange(1, 17), len(chosen)))
        for s, length in zip(chosen, lengths):
            n = int(length) * per_sentence
            words = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.choice(filler, n))
            text = " ".join(
                " ".join(words[i : i + per_sentence]) + "." for i in range(0, n, per_sentence)
            )
            samples.append(dataclasses.replace(
                s, id=f"q{k}-{s.id}", raw_text=text, tokens=tokenize(text)
            ))
    return Corpus(full.feature_dim, [samples[i] for i in rng.permutation(len(samples))])


def _topic_of(sample: Sample) -> str:
    return min(sample.topics)


class EmbedText(Workload):
    """`weakbias infer-text` then `weakbias eval` on unseen ragged articles,
    against a text model and stage-2 checkpoint trained in set-up.

    The trained models are a fixture: their training data and seed do not
    change with the workload seed, which only draws the queries. Topic
    accuracy after a reload swings between chance and 0.96 with the
    training seed, so a seeded model would spread the figure across runs
    far more than any change to inference could move it."""

    MODEL_SEED = 0

    name = "embed-text"
    throughput_name = "embed_docs_per_s"

    def __init__(self, n_train=200, n_docs=32, n_inputs=8):
        self.n_train, self.n_docs, self.n_inputs = n_train, n_docs, n_inputs

    def setup(self, seed, workdir):
        self.seed = seed
        train, test = _labelled_split(self.MODEL_SEED, "embed-train", self.n_train, 50)
        result = run_pipeline(train, test, pipeline_config(self.MODEL_SEED))
        self.model_path = os.path.join(workdir, "text.bin")
        self.ckpt_path = os.path.join(workdir, "stage2.ckpt")
        save_model(result.text_model, self.model_path)
        save_checkpoint(result.model, self.ckpt_path)
        # Topic centroids of the unit-length training document vectors.
        vectors = result.text_model.doc_vectors.astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        topics = [_topic_of(s) for s in train]
        self.topic_names = sorted(set(topics))
        self.centroids = np.stack([
            vectors[[t == name for t in topics]].mean(axis=0) for name in self.topic_names
        ])
        self.queries = []
        for k in range(self.n_inputs):
            queries = ragged_queries(seed, k, self.n_docs)
            paths = [os.path.join(workdir, f"{stem}-{k}.{ext}")
                     for stem, ext in (("queries", "jsonl"), ("emb", "jsonl"), ("report", "json"))]
            save_corpus(queries, paths[0])
            self.queries.append((queries, *paths))

    def run(self, k, tracer):
        _, corpus, emb, report = self.queries[k]
        _cli(["infer-text", "--model", self.model_path, "--corpus", corpus,
              "--embeddings-out", emb, "--seed", str(self.seed)], tracer)
        _cli(["eval", "--corpus", corpus, "--model", self.ckpt_path, "--out", report], tracer)

    def check(self, k, output):
        queries, _, emb, report = self.queries[k]
        rows = {row["id"]: np.asarray(row["embedding"], dtype=np.float64)
                for row in _read_jsonl(emb)}
        errors, _ = _check_report(report, len(queries))
        missing = [s.id for s in queries if s.id not in rows]
        if missing or len(rows) != len(queries):
            errors.append(f"{len(missing)} query ids lack an embedding row, "
                          f"{len(rows)} rows for {len(queries)} queries")
        dim = self.centroids.shape[1]
        bad = [sid for sid, v in rows.items() if v.shape != (dim,) or not np.all(np.isfinite(v))]
        if bad:
            errors.append(f"{len(bad)} embeddings are not finite vectors of length {dim}")
        hits = 0
        if not missing and not bad:
            vectors = np.stack([rows[s.id] for s in queries])
            nearest = np.argmax(vectors @ self.centroids.T, axis=1)
            hits = sum(self.topic_names[j] == _topic_of(s) for j, s in zip(nearest, queries))
        return errors, {"infer_topic_accuracy": hits / len(queries)}, _digest(emb, report)

    def work(self):
        return self.n_docs


def topic_embeddings(corpus: Corpus, seed: int, dim: int = 200) -> dict[str, np.ndarray]:
    """Unit-length stand-ins for trained document vectors: a per-topic
    direction plus isotropic noise of the same expected norm."""
    rng = _rng(seed, "fusion-embeddings")
    topics = sorted({_topic_of(s) for s in corpus})
    centers = dict(zip(topics, rng.normal(size=(len(topics), dim)) / math.sqrt(dim)))
    out = {}
    for s in corpus:
        v = centers[_topic_of(s)] + rng.normal(size=dim) / math.sqrt(dim)
        out[s.id] = (v / np.linalg.norm(v)).astype(np.float32)
    return out


class FusionTrain(Workload):
    """`weakbias train-stage1`, `train-stage2` and `eval` on features with
    precomputed text embeddings: paper defaults (10 epochs, hidden and fused
    width 256) at the README learning rate, at which stage 2 learns."""

    name = "fusion-train"
    throughput_name = "fusion_samples_per_s"
    lr = "2e-3"

    def __init__(self, n_train=1600, n_test=800):
        self.n_train, self.n_test = n_train, n_test

    def setup(self, seed, workdir):
        self.seed = seed
        self.train, self.test = _labelled_split(seed, "fusion", self.n_train, self.n_test)
        names = ("train.jsonl", "test.jsonl", "emb.jsonl", "stage1.ckpt",
                 "stage2.ckpt", "report.json")
        (self.train_path, self.test_path, self.emb_path, self.s1_path,
         self.s2_path, self.report_path) = (os.path.join(workdir, n) for n in names)
        save_corpus(self.train, self.train_path)
        save_corpus(self.test, self.test_path)
        save_embeddings(topic_embeddings(self.train, seed), self.emb_path)

    def run(self, k, tracer):
        seed = ["--seed", str(self.seed)]
        _cli(["train-stage1", "--corpus", self.train_path, "--embeddings", self.emb_path,
              "--model-out", self.s1_path, "--lr", self.lr, *seed], tracer)
        _cli(["train-stage2", "--corpus", self.train_path, "--model", self.s1_path,
              "--model-out", self.s2_path, "--lr", self.lr, *seed], tracer)
        _cli(["eval", "--corpus", self.test_path, "--model", self.s2_path,
              "--out", self.report_path, *seed], tracer)

    def check(self, k, output):
        errors, reported = _check_report(self.report_path, len(self.test))
        predictions, probs = predict_batch(load_checkpoint(self.s2_path), self.test.features())
        if len(predictions) != len(self.test) or not np.all(np.isfinite(probs)):
            errors.append("stage-2 predictions are incomplete or not finite")
        acc = sum(p is s.side for p, s in zip(predictions, self.test)) / len(self.test)
        if not math.isclose(acc, reported, abs_tol=1e-12):
            errors.append(f"eval reports accuracy {reported}, the checkpoint gives {acc}")
        return errors, {"fusion_test_accuracy": acc}, _digest(self.s2_path, self.report_path)

    def work(self):
        return self.n_train


WORKLOADS = {w.name: w for w in (TrainPipeline, DedupWire, EmbedText, FusionTrain)}
