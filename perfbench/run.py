"""navbound benchmark: one workload per process, seeded, with output checks.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan_day --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout. Every operation
is closed-loop and single-threaded: the next one starts when the last
has finished. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced batches and reports
per-layer metrics per traced operation, plus the tracing overhead.

The last line of stdout is the result object; the line before it holds
the run's details (throughput per second, calibration time, p50, p90 and
sample count, failures, scan CSV hashes, layer shares). Both, and the spans of a traced run, are also written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
IMPORT_REPEATS = 7
MAX_SPANS = 2_000_000
CALIBRATION_EVERY_S = 1.0
MAX_FAILURES_SHOWN = 5

# Work counted at a span boundary: span name -> count from (args, kwargs, result).
COUNTERS = {
    "orbits.parse_rinex_nav": lambda args, kwargs, result: len(result),
    "orbits.parse_position_csv": lambda args, kwargs, result: sum(
        1 for line in args[0].splitlines()[1:] if line.strip()),
}
OUTPUT_COUNTS = ["scan.epochs", "scan.gap_epochs", "scan.admissible_frac",
                 "scan.visible_per_epoch"]


def _metric_spec() -> dict:
    """The metrics BENCHMARK.json declares, by kind: {kind: {name: unit}}."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def import_seconds(root: Path) -> float:
    """Median wall time of `import navbound` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = ("import time; t = time.perf_counter(); import navbound; "
            "print(time.perf_counter() - t)")
    times = []
    for k in range(IMPORT_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if k:  # the first start warms the file cache and is not counted
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def calibration_seconds() -> float:
    """Wall time of a fixed piece of Python and numpy work.

    This is the benchmark's own code and never changes with the program. On a
    shared host the speed of the same code drifts by up to 1.5x over minutes,
    and this time drifts with it, so throughput counted in it
    (`items_per_cal`) holds still where throughput per second does not.
    """
    t0 = time.perf_counter()
    acc = 0.0
    points = [(k * 0.5, k * 0.25, k * 0.125) for k in range(2000)]
    for _ in range(30):
        for x, y, z in points:
            acc += math.sqrt(x * x + y * y + z * z)
    a = np.arange(16.0)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


def _collect(wl, inputs, raw) -> tuple[list, list]:
    """Each operation's output and its failure message (None when it passed)."""
    outputs, errors = [], []
    for inp, res in zip(inputs, raw):
        out = err = None
        if isinstance(res, Exception):
            err = f"raised {type(res).__name__}: {res}"
        else:
            try:
                out = wl.collect(inp, res)
            except (OSError, ValueError) as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        outputs.append(out)
        errors.append(err)
    good = [k for k, e in enumerate(errors) if e is None]
    verdicts = wl.check([inputs[k] for k in good], [outputs[k] for k in good])
    for k, verdict in zip(good, verdicts):
        errors[k] = verdict
    return outputs, errors


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop of batches until the time is up.

    The first batch warms up: it is checked but not timed, because the
    first call in a fresh process pays for cold caches that later calls
    do not. Between timed batches, at most once every CALIBRATION_EVERY_S,
    the calibration work runs untimed by the operations. With a tracer,
    timed batches alternate untraced and traced, so the two sides see the
    same conditions and their medians give the overhead. A traced run also
    stops at MAX_SPANS spans, which bounds its memory.
    """
    times = {False: array("d"), True: array("d")}
    calibration = array("d")
    next_calibration = 0.0
    failures, records, counts = [], [], []
    attempted = failed = items = 0
    deadline = None
    batch_no = 0
    while deadline is None or time.perf_counter() < deadline:
        warm_up = deadline is None
        if not warm_up and time.perf_counter() >= next_calibration:
            calibration.append(calibration_seconds())
            next_calibration = time.perf_counter() + CALIBRATION_EVERY_S
        traced = tracer is not None and not warm_up and batch_no % 2 == 0
        if tracer is not None and len(tracer) >= MAX_SPANS:
            break
        batch_no += 1
        inputs = wl.draw()
        raw = []
        if traced:
            tracer.install()
        try:
            for inp in inputs:
                if traced:
                    tracer.op_id = attempted + len(raw)
                t0 = time.perf_counter()
                try:
                    res = wl.op(inp)
                except Exception as exc:  # a raising operation is a failed one
                    res = exc
                if not warm_up:
                    times[traced].append(time.perf_counter() - t0)
                raw.append(res)
        finally:
            if traced:
                tracer.uninstall()
        outputs, errors = _collect(wl, inputs, raw)
        for inp, out, err in zip(inputs, outputs, errors):
            attempted += 1
            if err is not None:
                failed += 1
                failures.append(err)
                continue
            if not warm_up:
                items += wl.items(out)
            if c := wl.output_counts(out):
                counts.append(c)
            if (rec := wl.record(inp, out)) is not None:
                records.append(rec)
        if warm_up:
            gc.collect()  # set-up garbage is not collected inside timed calls
            wall0, cpu0 = time.perf_counter(), time.process_time()
            deadline = wall0 + seconds
    wall = time.perf_counter() - wall0
    return {"times": times, "attempted": attempted, "failed": failed,
            "items": items, "failures": failures, "records": records,
            "counts": counts, "calibration": calibration,
            "cpu_per_wall": (time.process_time() - cpu0) / wall}


def _p50(times) -> float:
    # numpy reads the array's buffer in place; sorting it as Python floats
    # would raise the peak RSS of long runs of short operations.
    return float(np.median(np.frombuffer(times))) if len(times) else 0.0


def _quantiles(times) -> dict:
    return {"p50": _p50(times), "p90": float(np.percentile(np.frombuffer(times), 90)),
            "samples": len(times)}


def layer_metrics(names, tracer, result) -> tuple[dict, dict]:
    """Per-layer metrics per traced operation, and each span's self-time share.

    A name `<module>.<function>.<field>` reads the span summary (fields
    `s`, `self_s`, `calls`) or the span's counter; a function that never
    ran on this workload reads 0.
    """
    traced = result["times"][True]
    n_ops = max(len(traced), 1)
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in empty:
            values[name] = summary.get(span, empty)[field] / n_ops
        elif span in tracer.counts:
            values[name] = tracer.counts[span] / n_ops
    estimates = summary.get("signal_model.ml_delay_estimate", empty)["calls"]
    values["signal_model.waveform_evals_per_estimate"] = (
        tracer.child_calls("signal_model.sample_waveform",
                           "signal_model.ml_delay_estimate") / estimates
        if estimates else 0.0)
    for key in OUTPUT_COUNTS:
        vals = [c[key] for c in result["counts"] if key in c]
        values[key] = statistics.fmean(vals) if vals else 0.0
    values["process.cpu_per_wall"] = result["cpu_per_wall"]
    values["trace.op_s.p50"] = _p50(traced)
    values["trace.untraced_op_s.p50"] = _p50(result["times"][False])
    values["trace.overhead_s"] = values["trace.op_s.p50"] - values["trace.untraced_op_s.p50"]
    total = sum(traced)
    shares = {}
    if total:
        shares = {span: v["self_s"] / total for span, v in
                  sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]) if v["calls"]}
        shares["(outside any span)"] = 1.0 - tracer.top_level_seconds() / total
    return values, shares


def machine_info() -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "navbound" / "__init__.py").is_file():
        print(f"no navbound package under {src}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import navbound
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = root / ".bench_work"
    tmp = work / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        try:
            wl = WORKLOADS[args.workload](root, tmp,
                                          np.random.default_rng(args.seed))
        except FileNotFoundError as exc:
            print(f"missing benchmark input: {exc}", file=sys.stderr)
            return 2
        spec = _metric_spec()
        tracer = Tracer(navbound, COUNTERS) if args.trace else None
        setup_s = None if args.trace else import_seconds(root)
        result = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not result["attempted"]:
        print("no operation completed", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "unit": wl.unit,
        "op_s": _quantiles(result["times"][False]),
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"][:MAX_FAILURES_SHOWN],
        "records": result["records"], "machine": machine_info(),
    }
    detail.update(wl.notes(result["records"]))
    detail["items_per_s"] = result["items"] / sum(result["times"][False])
    calibration_s = statistics.fmean(result["calibration"])
    detail["calibration_s"] = {"mean": calibration_s, "samples": len(result["calibration"])}
    if tracer is None:
        values = {"setup_s": setup_s,
                  "items_per_cal": detail["items_per_s"] * calibration_s,
                  "peak_rss_mb": peak_rss_mb}
    else:
        values, detail["layer_shares"] = layer_metrics(spec["per_layer"], tracer, result)
        detail["traced_op_s"] = _quantiles(result["times"][True])
        detail["spans"] = len(tracer)
        tracer.save(work / f"spans-{args.workload}.npz")
    units = spec["per_layer" if args.trace else "end_to_end"]
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": line},
                                                  indent=1))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
