"""In-memory spans and the timing shims that produce them.

A span has a name, a start and an end (perf_counter seconds), the index of
its parent span and the number of the benchmark operation it belongs to,
plus counts of the work it did. Shims replace a public function in the
modules that call it with a wrapper that opens a span around the call; they
are installed only for the traced operations of a `--trace 1` run and are
removed again afterwards, so untraced operations run the program as is.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "counts": s.counts}
            for s in self.spans
        ]


def span(tracer: Tracer | None, name: str):
    """A span when tracing, nothing otherwise."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


# --- what each shim counts ---------------------------------------------------
# A counter gets the call's bound arguments and its result and returns the
# counts to attach to the span.


def _rows_out(args, result):
    return {"rows": len(result)}


def _rows_in(args, result):
    return {"rows": len(args["corpus"])}


def _pvdm_positions(args, result):
    index = result.vocabulary.index
    tokens = sum(1 for s in args["corpus"] for t in s.tokens if t in index)
    losses = result.epoch_losses
    return {
        "positions": tokens * args["config"].epochs,
        "final_loss": losses[-1] if losses else math.nan,
    }


def _infer_updates(args, result):
    index = args["model"].vocabulary.index
    tokens = sum(1 for t in args["tokens"] if t in index)
    return {"updates": tokens * args["steps"]}


def _dedup_pairs(args, result):
    _, clusters = result
    sizes = [len(c.member_ids) for c in clusters]
    return {
        "rows": len(args["corpus"]),
        "clusters": len(sizes),
        "pairs": sum(n * (n - 1) // 2 for n in sizes),
    }


def _stage_samples(history_key):
    def count(args, result):
        history = result.history.get(history_key, [])
        return {
            "samples": len(args["corpus"]) * args["spec"].epochs,
            "final_loss": history[-1] if history else math.nan,
        }

    return count


def _predict_rows(args, result):
    return {"rows": len(result[0])}


# (defining module, function, span name, counter). A function the program
# no longer has is skipped, so the benchmark keeps running after a layer is
# removed; its metrics then read 0.
SHIMS = [
    ("corpus", "load_corpus", "corpus.load", _rows_out),
    ("corpus", "save_corpus", "corpus.save", _rows_in),
    ("doc2vec", "train_pvdm", "doc2vec.train", _pvdm_positions),
    ("doc2vec", "infer_document", "doc2vec.infer", _infer_updates),
    ("doc2vec", "load_model", "doc2vec.load_model", None),
    ("doc2vec", "save_embeddings", "doc2vec.save_embeddings", None),
    ("doc2vec", "load_embeddings", "doc2vec.load_embeddings", _rows_out),
    ("dedup", "deduplicate", "dedup.deduplicate", _dedup_pairs),
    ("dedup", "build_index", "dedup.build_index", None),
    ("dedup", "knn", "dedup.knn", None),
    ("dedup", "save_cluster_report", "dedup.report", None),
    ("classifier", "train_stage1", "classifier.stage1", _stage_samples("stage1")),
    ("classifier", "train_stage2", "classifier.stage2", _stage_samples("stage2")),
    ("classifier", "save_checkpoint", "classifier.save_checkpoint", None),
    ("classifier", "load_checkpoint", "classifier.load_checkpoint", None),
    ("classifier", "predict_batch", "classifier.predict", _predict_rows),
    ("evaluation", "group_accuracy", "evaluation.group_accuracy", None),
]

# Modules whose calls into the layers are intercepted: the orchestrators,
# and dedup, whose clustering calls its own index functions.
CALLERS = ("weakbias.cli", "weakbias.pipeline", "weakbias.dedup")


def _wrap(tracer: Tracer, fn, name: str, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            s.counts.update(counter(bound.arguments, result))
        return result

    return traced


@contextlib.contextmanager
def shims(tracer: Tracer):
    """Install a timing wrapper around every layer function each caller
    module references, and restore the originals on exit."""
    installed = []
    try:
        for module_name, attr, name, counter in SHIMS:
            home = importlib.import_module(f"weakbias.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            traced = _wrap(tracer, fn, name, counter)
            for caller_name in CALLERS:
                caller = importlib.import_module(caller_name)
                if getattr(caller, attr, None) is fn:
                    installed.append((caller, attr, fn))
                    setattr(caller, attr, traced)
        yield
    finally:
        for caller, attr, fn in reversed(installed):
            setattr(caller, attr, fn)


# --- per-layer metrics ---------------------------------------------------------


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# Per-layer metric, its unit, and how it follows from one operation's span
# totals: "<span>.s" seconds, "<span>.calls", "<span>.<count>", and
# "<layer>.self_s" for the cli and pipeline orchestrators.
LAYER_METRICS = [
    ("corpus.load_s", "s", lambda a: a["corpus.load.s"]),
    ("corpus.save_s", "s", lambda a: a["corpus.save.s"]),
    ("corpus.load_rows_per_s", "1/s", lambda a: _rate(a["corpus.load.rows"], a["corpus.load.s"])),
    ("doc2vec.train_s", "s", lambda a: a["doc2vec.train.s"]),
    ("doc2vec.train_positions", "count", lambda a: a["doc2vec.train.positions"]),
    ("doc2vec.train_positions_per_s", "1/s",
     lambda a: _rate(a["doc2vec.train.positions"], a["doc2vec.train.s"])),
    ("doc2vec.final_epoch_loss", "nats", lambda a: a["doc2vec.train.final_loss"]),
    ("doc2vec.infer_calls", "count", lambda a: a["doc2vec.infer.calls"]),
    ("doc2vec.infer_updates", "count", lambda a: a["doc2vec.infer.updates"]),
    ("doc2vec.infer_updates_per_s", "1/s",
     lambda a: _rate(a["doc2vec.infer.updates"], a["doc2vec.infer.s"])),
    ("doc2vec.load_model_s", "s", lambda a: a["doc2vec.load_model.s"]),
    ("doc2vec.save_embeddings_s", "s", lambda a: a["doc2vec.save_embeddings.s"]),
    ("doc2vec.load_embeddings_s", "s", lambda a: a["doc2vec.load_embeddings.s"]),
    ("dedup.deduplicate_s", "s", lambda a: a["dedup.deduplicate.s"]),
    ("dedup.pairs_found", "count", lambda a: a["dedup.deduplicate.pairs"]),
    ("dedup.clusters", "count", lambda a: a["dedup.deduplicate.clusters"]),
    ("dedup.report_s", "s", lambda a: a["dedup.report.s"]),
    ("dedup.build_index_s", "s", lambda a: a["dedup.build_index.s"]),
    ("dedup.knn_calls", "count", lambda a: a["dedup.knn.calls"]),
    ("dedup.knn_s", "s", lambda a: a["dedup.knn.s"]),
    ("classifier.stage1_s", "s", lambda a: a["classifier.stage1.s"]),
    ("classifier.stage1_samples_per_s", "1/s",
     lambda a: _rate(a["classifier.stage1.samples"], a["classifier.stage1.s"])),
    ("classifier.stage1_final_loss", "nats", lambda a: a["classifier.stage1.final_loss"]),
    ("classifier.stage2_s", "s", lambda a: a["classifier.stage2.s"]),
    ("classifier.stage2_samples_per_s", "1/s",
     lambda a: _rate(a["classifier.stage2.samples"], a["classifier.stage2.s"])),
    ("classifier.stage2_final_loss", "nats", lambda a: a["classifier.stage2.final_loss"]),
    ("classifier.save_checkpoint_s", "s", lambda a: a["classifier.save_checkpoint.s"]),
    ("classifier.load_checkpoint_s", "s", lambda a: a["classifier.load_checkpoint.s"]),
    ("classifier.predict_rows_per_s", "1/s",
     lambda a: _rate(a["classifier.predict.rows"], a["classifier.predict.s"])),
    ("evaluation.group_accuracy_s", "s", lambda a: a["evaluation.group_accuracy.s"]),
    ("pipeline.self_s", "s", lambda a: a["pipeline.self_s"]),
    ("cli.self_s", "s", lambda a: a["cli.self_s"]),
]


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, or the median when there are too few values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Each per-layer metric as the median over the traced operations, plus
    per-document inference percentiles over all traced inference calls."""
    totals = {op: collections.defaultdict(float) for op in ops}
    infer_ms = []
    for s, self_s in zip(tracer.spans, tracer.self_seconds()):
        acc = totals.get(s.op)
        if acc is None:  # a span of an operation that failed
            continue
        acc[f"{s.name}.s"] += s.seconds
        acc[f"{s.name}.calls"] += 1
        for key, value in s.counts.items():
            if key == "final_loss":
                acc[f"{s.name}.final_loss"] = value
            else:
                acc[f"{s.name}.{key}"] += value
        layer = s.name.split(".", 1)[0]
        if layer in ("cli", "pipeline"):
            acc[f"{layer}.self_s"] += self_s
        if s.name == "doc2vec.infer":
            infer_ms.append(s.seconds * 1000.0)
    metrics = {
        name: statistics.median([fn(totals[op]) for op in ops]) if ops else 0.0
        for name, _, fn in LAYER_METRICS
    }
    metrics["doc2vec.infer_p50_ms"] = _percentile(infer_ms, 50)
    metrics["doc2vec.infer_p95_ms"] = _percentile(infer_ms, 95)
    return metrics
