"""One benchmark process: set up a workload, run whole rounds, check the outputs.

Started by ``run.py``, which measures set-up from outside: this process
prints ``READY`` on standard output right before its first timed call.
With ``--setup-only`` it stops there.  Otherwise it runs rounds of the
workload until ``--seconds`` of timed work would be exceeded (at least
one round; in traced mode untraced and traced rounds alternate), checks
each round's outputs right after it, outside the timed region, and prints
one JSON object as its last line.
Progress and findings go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import sgl  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(sgl.__file__).resolve().parent != ROOT / "src" / "sgl":
        log(f"sgl was imported from {sgl.__file__}, not from this checkout")
        return 2
    scratch_root = ROOT / ".perfbench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return run(args, workload, scratch, scratch_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workload, scratch: Path, scratch_root: Path) -> int:
    untraced_s: list[float] = []
    traced_s: list[float] = []
    op_seconds: dict[str, list[float]] = {}
    failures: dict[str, BaseException] = {}
    attempted = failed = 0
    chk = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    elapsed = 0.0
    while True:
        # Traced mode alternates untraced and traced rounds, so the overhead
        # estimate sees the same machine state on both sides.
        traced = tracer is not None and len(untraced_s) > len(traced_s)
        rnd = workloads.Round(outdir=scratch / f"round{len(untraced_s) + len(traced_s)}")
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        workload.run_round(rnd)
        took = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        (traced_s if traced else untraced_s).append(took)
        if len(untraced_s) + len(traced_s) == 1:
            # Set-up plus one round, before any output check adds its own memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed += took
        log(f"round {len(untraced_s) + len(traced_s)}: {took:.4f} s{' (traced)' if traced else ''}")
        # Outside the timed region: check this round's outputs, then drop them,
        # so memory does not grow with the number of rounds.
        workload.check(rnd, chk)
        for o in rnd.outcomes:
            op_seconds.setdefault(o.label, []).append(o.seconds)
            if o.error is not None:
                failures.setdefault(o.label, o.error)
                failed += 1
        attempted += len(rnd.outcomes)
        shutil.rmtree(rnd.outdir, ignore_errors=True)
        if tracer is not None and not traced_s:
            continue
        if elapsed + took > args.seconds:
            break

    workload.check_once(chk)
    for line in workload.info():
        log(line)
    log("median seconds per operation: " + ", ".join(
        f"{label} {statistics.median(t):.4f}" for label, t in op_seconds.items()))
    for label, error in failures.items():
        log(f"failed operation {label}: {type(error).__name__}: {str(error)[:160]}")
    for message in chk.failures[:20]:
        log(f"CHECK FAILED: {message}")

    result = {
        "correct": not chk.failures,
        "attempted": attempted,
        "failed": failed,
        "wall_s": statistics.median(untraced_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        n = len(traced_s)
        per_layer = tracer.metrics(n)
        per_layer["trace.wall_s"] = statistics.median(traced_s)
        per_layer["trace.untraced_wall_s"] = statistics.median(untraced_s)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - per_layer["trace.untraced_wall_s"])
        result["per_layer"] = per_layer
        for line in tracer.breakdown(n):
            log(line)
        path = scratch_root / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        log(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
