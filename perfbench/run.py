"""weakbias benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory. One client in one process runs the workload's operation
back to back on the inputs that set-up generated from the seed, for at least
S seconds and at least once per distinct input, and checks every
operation's outputs outside the timed part. The loop runs in a process
forked after set-up, so `peak_rss_mb` covers the operations and their
checks on top of the state set-up left, and not the set-up itself.
`--workload all` runs every workload in turn, each in a process of its own.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1`, untraced and traced operations
alternate and the JSON carries the per-layer metrics from the traced ones.
The lines before it give every metric under its own name, with units and
sample counts, and the environment. Each run also writes its record (with
all spans, when traced) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_OPS = 3
# Seconds the calibration loop takes on the reference machine (2 vCPUs of a
# shared 2.1 GHz host); calibrated times are scaled to that speed.
CALIBRATION_NOMINAL_S = 0.3


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _blas_threads(),
    }


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy operations driven from
    Python: the kind of work the program's hot paths do per position,
    distance batch or document. Timed right before every set-up and every
    operation, it tells how fast the shared machine is at that moment; the
    host's speed swings by up to a factor of two between phases of 10 to 30
    seconds, and dividing by this time takes most of those swings out of the
    end-to-end timings."""
    import numpy as np

    # OpenBLAS worker threads keep spinning for about 0.1 s after the last
    # BLAS call and slow a loop started at once; let them go idle first.
    time.sleep(0.15)
    rng = np.random.default_rng(0)
    nodes = rng.normal(scale=0.1, size=(8, 96)).astype(np.float32)
    x = rng.normal(scale=0.1, size=96).astype(np.float32)
    start = time.perf_counter()
    for _ in range(18000):
        p = 1.0 / (1.0 + np.exp(-np.clip(nodes @ x, -30.0, 30.0)))
        x -= 1e-3 * ((p - 1.0) @ nodes)
    return time.perf_counter() - start


def _calibrated_median(records: list[dict]) -> float:
    """Median of the records' seconds, each scaled to the reference speed
    by the calibration timed just before it."""
    values = [r["seconds"] * CALIBRATION_NOMINAL_S / r["calibration_s"] for r in records]
    return statistics.median(values) if values else float("nan")


def _run_op(wl, k, index, tracer):
    """One operation on input k; returns its record and check results."""
    from tracing import shims

    record = {"op": index, "input": k, "traced": tracer is not None, "errors": [],
              "calibration_s": calibrate()}
    values, digest = {}, None
    if tracer is not None:
        tracer.op = index
    try:
        with shims(tracer) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            output = wl.run(k, tracer)
            record["seconds"] = time.perf_counter() - start
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        traceback.print_exc()
        record["errors"].append(f"operation failed: {exc!r}")
        return record, values, digest
    try:
        errors, values, digest = wl.check(k, output)
        record["errors"].extend(errors)
    except Exception as exc:
        traceback.print_exc()
        record["errors"].append(f"output check failed: {exc!r}")
    return record, values, digest


def in_child(fn):
    """Run fn() in a forked child process, wait for it, and return what it
    returned. The child's peak resident set starts from this process's
    memory as it stands, not from this process's own peak."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"benchmark child process exited {code}")
    return pickle.loads(payload)


def _closed_loop(wl, seconds: float, trace: bool) -> dict:
    """The operations back to back with their checks; runs in a child."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    per_round = 2 if trace else 1
    min_ops = max(wl.n_inputs, MIN_OPS) * per_round
    ops, first = [], {}
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        i = len(ops)
        k = (i // per_round) % wl.n_inputs
        traced = trace and i % per_round == 1
        record, values, digest = _run_op(wl, k, i, tracer if traced else None)
        if digest is not None:
            if k not in first:
                first[k] = (values, digest)
            elif first[k][1] != digest:
                record["errors"].append(f"outputs differ from the first run of input {k}")
        if record["errors"]:
            print(f"{wl.name} op {i}: " + "; ".join(record["errors"]), file=sys.stderr)
        ops.append(record)
    loop = {
        "ops": ops,
        "first": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced_ops = [op["op"] for op in ops if op["traced"] and "seconds" in op]
        pairs = [
            (ops[i - 1]["seconds"], ops[i]["seconds"]) for i in traced_ops
            if "seconds" in ops[i - 1]
        ]
        layers = layer_metrics(tracer, traced_ops)
        layers.update(wl.layer_counts())
        layers["trace.overhead_pct"] = (
            100.0 * statistics.median(t / u - 1.0 for u, t in pairs) if pairs else 0.0
        )
        loop["per_layer"] = layers
        loop["spans"] = tracer.to_json()
    return loop


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop in a child process, and gather one run's
    results."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        setups = []
        for r in range(SETUP_REPEATS):
            d = os.path.join(workdir, f"setup{r}")
            os.mkdir(d)
            calibration_s = calibrate()
            start = time.perf_counter()
            wl.setup(seed, d)
            setups.append({"seconds": time.perf_counter() - start,
                           "calibration_s": calibration_s})
        wl.prepare_checks()
        gc.collect()  # so that set-up's garbage is not collected during an operation
        loop = in_child(lambda: _closed_loop(wl, seconds, trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops, first = loop["ops"], loop["first"]
    failed = sum(1 for op in ops if op["errors"])
    quality_values = {
        name: statistics.fmean(v[name] for v, _ in first.values())
        for name in (next(iter(first.values()))[0] if first else {})
    }
    quality = wl.quality(quality_values) if len(first) == wl.n_inputs else float("nan")
    timed = [op for op in ops if "seconds" in op and not op["traced"]]
    throughput = wl.work() / _calibrated_median(timed)
    result = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and not math.isnan(quality),
        "setups": setups,
        "ops": ops,
        "end_to_end": {
            "throughput_per_s": throughput,
            "quality": quality,
            "setup_s": _calibrated_median(setups),
            "peak_rss_mb": loop["peak_rss_mb"],
        },
        "named": {
            wl.throughput_name: throughput,
            **quality_values,
            "failed_ops": failed / len(ops),
        },
    }
    if trace:
        result["per_layer"] = loop["per_layer"]
        result["spans"] = loop["spans"]
    return result


def _report(result: dict, units: dict) -> None:
    """Every metric of one run by name, with units and sample counts."""
    ops = result["ops"]
    timed = [op["seconds"] for op in ops if "seconds" in op and not op["traced"]]
    setups = result["setups"]
    calibration = [r["calibration_s"] for r in setups + ops]
    n_inputs = len({op["input"] for op in ops})
    notes = {
        "_per_s": f"1/s, calibrated, median of {len(timed)} operations",
        "failed_ops": f"{result['failed']} of {result['attempted']} operations",
    }
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, value in result["named"].items():
        suffix = next((key for key in notes if name.endswith(key)), None)
        note = notes[suffix] if suffix else f"fraction, mean over {n_inputs} distinct inputs"
        print(f"  {name:<30} {value:>14.6g}  {note}")
    e2e = result["end_to_end"]
    print(f"  {'setup_s':<30} {e2e['setup_s']:>14.6g}  s, calibrated, "
          f"median of {len(setups)} set-ups")
    print(f"  {'peak_rss_mb':<30} {e2e['peak_rss_mb']:>14.6g}  MB, peak of the loop's process")
    print(f"  {'calibration_s':<30} {statistics.median(calibration):>14.6g}  "
          f"s, median of {len(calibration)}, {min(calibration):.3f}-{max(calibration):.3f} s")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<30} {value:>14.6g}  {units.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import weakbias
    except ImportError as exc:
        print(f"cannot import weakbias from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(weakbias.__file__).startswith(SRC + os.sep):
        print(f"weakbias was imported from {weakbias.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units.update({"doc2vec.infer_p50_ms": "ms", "doc2vec.infer_p95_ms": "ms",
                  "dedup.oracle_pairs": "count", "trace.overhead_pct": "%"})
    results = []
    for name in names:
        result = in_child(
            lambda: run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
        )
        result["env"] = env
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        _report(result, units)
        results.append(result)

    key = "per_layer" if args.trace else "end_to_end"
    metric_units = units if args.trace else {
        "throughput_per_s": "1/s", "quality": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, value in result[key].items():
            metrics[prefix + metric] = {"value": value, "unit": metric_units[metric]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
