"""One cold pass of a workload, in the fresh interpreter run.py starts.

    worker.py --workload NAME --seed N --mode setup|pass [--trace] [--spans PATH]

Set-up is importing the package and constructing the workload's fields; it
ends at the CLOCK_MONOTONIC time the worker reports, which run.py compares
with the time it started the interpreter.  The worker also reports the CPU
time its process had used by then.  In `pass` mode the worker then runs
every operation once, checks every output, and prints one JSON line, with
the slowdown that reference.py measured during the operations of an untraced
pass.  Operation times exclude the time the reference kernels took.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the recorded spans here")
    args = parser.parse_args()

    import deephole.cli  # noqa: F401  imports every module the workloads use

    if not Path(deephole.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"deephole imported from {deephole.__file__}, not src/", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads

    for q in workloads.FIELDS[args.workload]:
        deephole.gf.field_of_order(q)
    setup_end = time.monotonic()
    setup_cpu_s = time.process_time()

    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end, "setup_cpu_s": setup_cpu_s}))
        return 0

    import reference

    ops = workloads.make_ops(args.workload, args.seed)
    # the traced pass is not normalised, so that spans hold no kernel time
    sampler = reference.Sampler(() if tracer else workloads.REFERENCE[args.workload])
    outputs, op_s, errors = [], [], {}
    with sampler:
        for i, (label, op) in enumerate(ops):
            with tracer.op(label) if tracer else contextlib.nullcontext():
                spent = sampler.spent
                t = time.perf_counter()
                try:
                    out = op()
                except Exception as e:  # counted as a failed operation
                    out = None
                    errors[i] = f"{type(e).__name__}: {e}"
                op_s.append(time.perf_counter() - t - (sampler.spent - spent))
            outputs.append(out)
    for i, msg in workloads.check(args.workload, args.seed, outputs).items():
        errors.setdefault(i, msg)

    import numpy

    result = {
        "setup_end": setup_end,
        "wall_s": sum(op_s),
        "slowdown": sampler.slowdown(),
        "kernel_slowdowns": sampler.slowdowns(),
        "op_s": op_s,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": [f"{ops[i][0]}: {msg}" for i, msg in sorted(errors.items())],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer:
        words = len(ops) if args.workload == "oracle" else 0
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["cross_check"] = spans.cross_check(tracer.spans, result["layers"], words)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
