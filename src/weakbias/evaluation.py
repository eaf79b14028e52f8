"""Accuracy reports, grouped breakdowns, and held-out retraining protocols.

A report carries overall accuracy plus per-group accuracy and support,
ordered by descending group size. The retraining protocols (leave one
source out, sentence truncation) treat the model pipeline as a black-box
callable `pipeline(train_corpus, test_corpus, seed) -> predictions` so they
compose with any classifier configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import warnings

from .corpus import Corpus, SideLabel, truncate_sentences
from .errors import InputError


@dataclasses.dataclass
class EvalReport:
    overall_accuracy: float
    per_group: dict[str, tuple[float, int]]  # ordered by descending count
    metadata: dict = dataclasses.field(default_factory=dict)


def accuracy(predictions, labels) -> float:
    """Fraction of exact matches between two aligned label sequences."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise InputError(
            f"{len(predictions)} predictions for {len(labels)} labels"
        )
    if not predictions:
        raise InputError("cannot score an empty prediction set")
    hits = sum(1 for p, y in zip(predictions, labels) if p == y)
    return hits / len(predictions)


def _keys_of(entry) -> list[str]:
    if isinstance(entry, str):
        return [entry]
    return sorted(entry)


def group_accuracy(predictions, labels, group_keys, metadata=None) -> EvalReport:
    """Accuracy per group, largest group first (ties by key).

    A sample carrying several keys (a multi-topic article) counts toward
    each of its groups, so group counts may exceed the sample count; overall
    accuracy is still per-sample.
    """
    predictions = list(predictions)
    labels = list(labels)
    group_keys = list(group_keys)
    if not (len(predictions) == len(labels) == len(group_keys)):
        raise InputError(
            f"{len(predictions)} predictions, {len(labels)} labels, "
            f"{len(group_keys)} group keys"
        )
    overall = accuracy(predictions, labels)
    hits: dict[str, int] = {}
    counts: dict[str, int] = {}
    for pred, label, entry in zip(predictions, labels, group_keys):
        for key in _keys_of(entry):
            counts[key] = counts.get(key, 0) + 1
            hits[key] = hits.get(key, 0) + (pred == label)
    ordered = sorted(counts, key=lambda key: (-counts[key], key))
    per_group = {key: (hits[key] / counts[key], counts[key]) for key in ordered}
    return EvalReport(overall, per_group, metadata or {})


def top_k_source_accuracy(report: EvalReport, k: int, *, weighted: bool = False) -> float:
    """Mean accuracy over the k best-supported groups; unweighted by
    default, weighted by group count on request."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    groups = sorted(
        report.per_group.items(), key=lambda item: (-item[1][1], item[0])
    )
    if k > len(groups):
        warnings.warn(
            f"asked for top {k} groups but the report has {len(groups)}",
            stacklevel=2,
        )
        k = len(groups)
    chosen = groups[:k]
    if weighted:
        total = sum(count for _, (_, count) in chosen)
        return sum(acc * count for _, (acc, count) in chosen) / total
    return sum(acc for _, (acc, _) in chosen) / k


def _source_subset(corpus: Corpus, source: str, keep: bool) -> Corpus:
    wanted = [s.id for s in corpus if (s.source == source) == keep]
    return corpus.subset(wanted)


def leave_one_source_out(
    train: Corpus, test: Corpus, source: str, pipeline, seed: int = 0
) -> tuple[float, float]:
    """Accuracy on one source's test samples with and without that source's
    training data. The "with" arm is the unmodified pipeline, so under a
    fixed seed it reproduces the standard run exactly."""
    if not any(s.source == source for s in train):
        raise InputError(f"source {source!r} has no training samples")
    held_out = _source_subset(test, source, keep=True)
    if len(held_out) == 0:
        raise InputError(f"source {source!r} has no test samples")
    positions = [i for i, s in enumerate(test) if s.source == source]
    truth = [test[i].side for i in positions]

    def arm(train_corpus: Corpus) -> float:
        predictions = list(pipeline(train_corpus, test, seed))
        if len(predictions) != len(test):
            raise InputError(
                f"pipeline returned {len(predictions)} predictions for "
                f"{len(test)} test samples"
            )
        return accuracy([predictions[i] for i in positions], truth)

    with_source = arm(train)
    without_source = arm(_source_subset(train, source, keep=False))
    return with_source, without_source


def _truncate_corpus(corpus: Corpus, k: int) -> Corpus:
    samples = []
    for sample in corpus:
        clipped = truncate_sentences(sample.raw_text, k)
        samples.append(dataclasses.replace(sample, raw_text=clipped))
    return Corpus(corpus.feature_dim, samples)


def sentence_truncation_sweep(
    train: Corpus, test: Corpus, ks: list[int], pipeline, seed: int = 0
) -> dict:
    """Accuracy after clipping every training article to its first k
    sentences, for each k, plus a "full" entry for unclipped text. Test
    articles are never clipped; only the training text the embedding model
    sees changes."""
    if not ks:
        raise InputError("ks must be non-empty")
    if len(set(ks)) != len(ks):
        raise InputError("ks contains duplicates")
    if min(ks) < 1:
        raise InputError(f"every k must be >= 1, got {min(ks)}")
    truth = [s.side for s in test]

    def arm(train_corpus: Corpus) -> float:
        return accuracy(list(pipeline(train_corpus, test, seed)), truth)

    results: dict = {k: arm(_truncate_corpus(train, k)) for k in ks}
    results["full"] = arm(train)
    return results


def report_to_json(report: EvalReport) -> str:
    payload = {
        "overall_accuracy": report.overall_accuracy,
        "per_group": {
            key: {"accuracy": acc, "count": count}
            for key, (acc, count) in report.per_group.items()
        },
        "metadata": report.metadata,
    }
    return json.dumps(payload, indent=2)


def _report_number(value, where: str, *, count: bool = False):
    """value, if it is an accuracy (a number in [0, 1]) or, with `count`, an
    integer >= 0; a boolean is neither."""
    if count:
        ok, expected = isinstance(value, int) and value >= 0, "an integer >= 0"
    else:
        ok, expected = isinstance(value, (int, float)) and 0 <= value <= 1, "a number in [0, 1]"
    if not ok or isinstance(value, bool):
        raise InputError(f"malformed report JSON: {where} must be {expected}, got {value!r}")
    return value


def report_from_json(text: str) -> EvalReport:
    """Read report_to_json's text back: accuracies are numbers in [0, 1] and
    counts integers >= 0. Anything else, JSON nested too deeply included,
    raises InputError naming what is wrong."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int over int()'s digit limit
        raise InputError(f"malformed report JSON: {exc}") from None
    except RecursionError:
        raise InputError("malformed report JSON: nested too deeply") from None
    if not (isinstance(payload, dict) and "overall_accuracy" in payload
            and isinstance(payload.get("per_group"), dict)
            and isinstance(payload.get("metadata", {}), dict)):
        raise InputError("malformed report JSON: need an object with overall_accuracy, "
                         "a per_group object and an optional metadata object")
    per_group = {}
    for key, entry in payload["per_group"].items():
        if not isinstance(entry, dict):
            raise InputError(f"malformed report JSON: group {key!r} is not an object")
        per_group[key] = (
            _report_number(entry.get("accuracy"), f"group {key!r} accuracy"),
            _report_number(entry.get("count"), f"group {key!r} count", count=True),
        )
    overall = _report_number(payload["overall_accuracy"], "overall_accuracy")
    return EvalReport(overall, per_group, payload.get("metadata", {}))


def report_to_csv(report: EvalReport) -> str:
    """Per-group rows for spreadsheet import, in report order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", "accuracy", "count"])
    for key, (acc, count) in report.per_group.items():
        writer.writerow([key, f"{acc:.6f}", count])
    return out.getvalue()
