"""Benchmark entry point.

    python3 perfbench/run.py --workload radius|oracle|sweep|all --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  Every pass
runs in a fresh interpreter (worker.py), one operation at a time, so the
package's caches start empty as they do for a CLI user.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up is timed
in SETUP_SAMPLES set-up-only interpreters, each next to a baseline interpreter
that imports numpy and the standard modules but not the package; then whole
passes run while the next one is expected to end within S seconds (at least
one).  Wall times are divided by the slowdown that reference.py measured in
the same interpreter, and set-up CPU times by the CPU time of the baseline
next to them, which removes most of the drift of a shared machine; the raw
times are printed too.  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of the traced one, and the tracing overhead as
the difference of their raw wall times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any output is wrong or
any operation fails, 2 when the package source is missing.  A record of each
run, with the environment, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
RESULTS = Path(__file__).with_name("results")
WORKLOADS = ("radius", "oracle", "sweep")
SETUP_SAMPLES = 5
# an interpreter that imports what a set-up imports apart from the package:
# numpy and the standard modules that worker.py, workloads.py and the package
# import.  It prints the CPU time it used.
BASELINE = ["-c", "import time, argparse, collections, concurrent.futures, contextlib, csv, "
            "dataclasses, hashlib, json, pathlib, random, resource, numpy; "
            "print(time.process_time())"]
# numpy's OpenBLAS threads spin for a while after start-up, for as long as the
# other core is free; set-up and baseline interpreters run without them, so
# that their CPU time does not depend on what else the machine runs
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# the baseline's median CPU time on the calibration machine of reference.py;
# it fixes the unit of setup_s, so never change it
BASELINE_NOMINAL_S = 0.16
# every run must end within 180 s; the worker in flight is killed at this age
DEADLINE_S = 170


class WorkerFailed(Exception):
    pass


def unit(name: str) -> str:
    for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"),
                      ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def run_child(args, what, deadline, extra_env=None) -> tuple[float, object]:
    """Run the interpreter with `args`; return its start time and the JSON
    value on the last line of its output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(extra_env or {}))
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise WorkerFailed(f"{what} not started: run deadline reached")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{what} killed at the run deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"{what} exited with code {proc.returncode}")
    try:
        return started, json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"{what} printed no result")


def spawn(workload, seed, mode, deadline, trace=False, spans=None) -> dict:
    args = [str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if trace:
        args.append("--trace")
    if spans:
        args += ["--spans", str(spans)]
    started, res = run_child(args, mode, deadline, SETUP_ENV if mode == "setup" else None)
    res["setup_s"] = res["setup_end"] - started
    if mode == "pass":
        res["raw_wall_s"] = res["wall_s"]
        res["wall_s"] = res["raw_wall_s"] / res["slowdown"]
    return res


def measure(workload, seed, seconds, deadline) -> tuple[dict, dict, list[dict]]:
    spawn(workload, seed, "setup", deadline)  # writes bytecode caches; not timed
    # (baseline CPU s, set-up) pairs, taken one right after the other
    setups = [(run_child(BASELINE, "baseline", deadline, SETUP_ENV)[1],
               spawn(workload, seed, "setup", deadline)) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, "pass", deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": BASELINE_NOMINAL_S
        * statistics.median(s["setup_cpu_s"] / base for base, s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "slowdown_ratio": statistics.median(p["slowdown"] for p in passes),
        "raw_setup_s": statistics.median(s["setup_s"] for _, s in setups),
        "setup_cpu_s": statistics.median(s["setup_cpu_s"] for _, s in setups),
        "baseline_cpu_s": statistics.median(base for base, _ in setups),
    }
    return metrics, raw, passes


def word_latency(passes) -> dict:
    """Per-word latency of both oracles together, pooled over passes.  Not
    gated: it exists on `oracle` only, and BENCHMARK.json's end-to-end metrics
    are reported by every workload."""
    op_s = [t for p in passes for t in p["op_s"]]
    return {
        "word_p50_ms": 1e3 * statistics.median(op_s),
        "word_p90_ms": 1e3 * statistics.quantiles(op_s, n=10)[-1],
        "words": len(op_s),
    }


def trace(workload, seed, deadline) -> tuple[dict, dict, list[dict]]:
    plain = spawn(workload, seed, "pass", deadline)
    spans_path = RESULTS / f"spans-{workload}-seed{seed}.json"
    traced = spawn(workload, seed, "pass", deadline, trace=True, spans=spans_path)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["raw_wall_s"]
    metrics["trace.untraced_wall_s"] = plain["raw_wall_s"]
    metrics["trace.overhead_s"] = traced["raw_wall_s"] - plain["raw_wall_s"]
    metrics["trace.spans"] = traced["spans"]
    return metrics, {}, [plain, traced]


def run_workload(workload, seed, seconds, traced) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    errors, passes, metrics, extra = [], [], {}, {}
    try:
        if traced:
            metrics, extra, passes = trace(workload, seed, deadline)
            errors += passes[1]["cross_check"]
        else:
            metrics, extra, passes = measure(workload, seed, seconds, deadline)
    except WorkerFailed as e:
        errors.append(str(e))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not passes:  # the worker died: count its pass as one failed operation
        attempted = failed = 1
    errors += [e for p in passes for e in p["errors"]]
    extra["fail_ratio"] = failed / attempted
    if workload == "oracle" and passes and not traced:
        extra.update(word_latency(passes))
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "extra": extra,
        "env": environment(passes),
        "passes": [
            {k: p[k] for k in ("wall_s", "raw_wall_s", "slowdown", "kernel_slowdowns",
                               "setup_s", "peak_rss_mb", "op_s")}
            for p in passes
        ],
    }


def environment(passes) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"] if passes else None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report(res: dict):
    w = res["workload"]
    print(f"# {w}: seed {res['seed']}, trace {res['trace']}, "
          f"{len(res['passes'])} pass(es), env {json.dumps(res['env'])}")
    for name, m in res["metrics"].items():
        print(f"{w:7s} {name:28s} {m['value']:14.6f} {m['unit']}")
    for name, value in res["extra"].items():
        print(f"{w:7s} {name:28s} {value:14.6f} {unit(name)}")
    if res["trace"] and res["metrics"]:
        wall = res["metrics"]["trace.wall_s"]["value"]
        share = {}
        for name, m in res["metrics"].items():
            layer = name.split(".")[0]
            if layer != "trace" and m["unit"] == "s":
                share[layer] = share.get(layer, 0.0) + m["value"] / wall
        print(f"{w:7s} self time as a share of trace.wall_s: "
              + ", ".join(f"{k} {v:.3f}" for k, v in share.items()))
    print(f"{w:7s} {res['failed']} of {res['attempted']} operations failed")
    for e in res["errors"]:
        print(f"{w:7s} FAILED {e}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "deephole" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace))
        with open(RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(res, fh, indent=1)
        report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
