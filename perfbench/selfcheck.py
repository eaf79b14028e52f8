"""Toy-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at toy size through the loop of a traced benchmark run
and expects no failure and the metric names BENCHMARK.json declares. Then
hands each output check a deliberately wrong result and expects an error,
and runs the loop on a failing and on a nondeterministic operation and
expects them counted as failed. Prints one PASS or FAIL line per
expectation and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile

import run

TOY_SEED = 3


def _toy(workloads):
    return {
        "train-pipeline": lambda: workloads.TrainPipeline(n_train=60, n_test=40, n_inputs=1),
        "dedup-wire": lambda: workloads.DedupWire(n_base=60, n_wire=6),
        "embed-text": lambda: workloads.EmbedText(n_train=60, n_docs=8, n_inputs=1),
        "fusion-train": lambda: workloads.FusionTrain(n_train=100, n_test=40),
    }


def _edit_jsonl(path, edit):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    rows = edit(rows) or rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _miscount(report):
    next(iter(report["per_group"].values()))["count"] += 1


def _misreport(report):
    acc = report["overall_accuracy"]
    report["overall_accuracy"] = acc + 0.5 if acc < 0.5 else acc - 0.5


def _nan_probability(out):
    probs = out.probabilities.copy()
    probs[0, 0] = math.nan
    return dataclasses.replace(out, probabilities=probs)


def _append_member(rows):
    rows[0]["members"].append("not-a-sample")


def _share_member(rows):
    rows[1]["members"].append(rows[0]["canonical"])


def _nan_embedding(rows):
    rows[0]["embedding"][0] = math.nan


# Per workload: (what is wrong, how to make the operation's outputs so).
# A corruption edits the output files in place, or returns a wrong output.
CORRUPTIONS = {
    "train-pipeline": [
        ("a prediction is missing",
         lambda wl, out: dataclasses.replace(out, predictions=out.predictions[:-1])),
        ("a probability is NaN", lambda wl, out: _nan_probability(out)),
    ],
    "dedup-wire": [
        ("a kept row is missing from the output",
         lambda wl, out: _edit_jsonl(wl.out_path, lambda rows: rows[:-1])),
        ("a cluster lists an unknown member",
         lambda wl, out: _edit_jsonl(wl.report_path, _append_member)),
        ("two clusters share a member",
         lambda wl, out: _edit_jsonl(wl.report_path, _share_member)),
    ],
    "embed-text": [
        ("a query has no embedding row",
         lambda wl, out: _edit_jsonl(wl.queries[0][2], lambda rows: rows[:-1])),
        ("an embedding is not finite",
         lambda wl, out: _edit_jsonl(wl.queries[0][2], _nan_embedding)),
        ("the eval report miscounts the queries",
         lambda wl, out: _edit_json(wl.queries[0][3], _miscount)),
    ],
    "fusion-train": [
        ("the eval report states another accuracy",
         lambda wl, out: _edit_json(wl.report_path, _misreport)),
        ("the eval report miscounts the test set",
         lambda wl, out: _edit_json(wl.report_path, _miscount)),
    ],
}


def main() -> int:
    sys.path.insert(0, run.SRC)
    import workloads

    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    toy = _toy(workloads)
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    expect(set(toy) == {w["name"] for w in declared["workloads"]},
           "BENCHMARK.json names exactly the benchmark's workloads")
    for name, make in toy.items():
        result = run.run_workload(make(), TOY_SEED, 0.0, trace=True)
        expect(result["correct"] and result["failed"] == 0,
               f"{name}: {result['attempted']} toy operations pass their checks")
        expect(set(result["end_to_end"]) == end_to_end,
               f"{name}: reports exactly the declared end-to-end metrics")
        expect(set(result["per_layer"]) == per_layer,
               f"{name}: reports exactly the declared per-layer metrics")

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    try:
        for name, cases in CORRUPTIONS.items():
            for what, corrupt in cases:
                wl = toy[name]()
                case_dir = tempfile.mkdtemp(dir=workdir)
                wl.setup(TOY_SEED, case_dir)
                wl.prepare_checks()
                out = wl.run(0, None)
                errors, _, _ = wl.check(0, out)
                expect(not errors, f"{name}: the check accepts a correct result")
                wrong = corrupt(wl, out)
                errors, _, _ = wl.check(0, out if wrong is None else wrong)
                expect(bool(errors), f"{name}: the check fires when {what}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    class MissingInput(workloads.DedupWire):
        def setup(self, seed, workdir):
            super().setup(seed, workdir)
            self.corpus_path = os.path.join(workdir, "missing.jsonl")

    result = run.run_workload(MissingInput(n_base=60, n_wire=6), TOY_SEED, 0.0, trace=True)
    expect(result["failed"] == result["attempted"] and not result["correct"],
           "an operation that exits nonzero counts as failed")
    expect(set(result["per_layer"]) == per_layer,
           "a traced run whose operations all fail still reports every per-layer metric")

    class Nondeterministic(workloads.TrainPipeline):
        calls = 0

        def check(self, k, output):
            errors, values, _ = super().check(k, output)
            self.calls += 1
            return errors, values, str(self.calls)

    result = run.run_workload(Nondeterministic(n_train=60, n_test=40, n_inputs=1),
                              TOY_SEED, 0.0, trace=False)
    expect(result["failed"] == result["attempted"] - 1 and not result["correct"],
           "outputs that differ between runs of one input count as failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
