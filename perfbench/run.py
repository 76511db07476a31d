"""Benchmark for `sgl`: one workload per run, every metric printed by name with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload {certify,selfplay,solve} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
``wall_s`` (median round time), ``setup_s`` (median time from interpreter
start to the first timed call, over several fresh processes) and
``peak_rss_mb``.  With ``--trace 1`` it carries the per-layer metrics of
a traced run instead.  See perfbench/README.md.

This script imports nothing beyond the standard library: the workload
runs in ``worker.py`` processes so that set-up is measured from a cold
interpreter every time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "selfplay", "solve")
SETUP_SAMPLES = 5  # fresh processes timed to READY, the measured run included
TIME_LIMIT_S = 170.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS/OpenMP thread: the load is one process on one thread.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, the rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code} before finishing")
    return ready, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sgl" / "__init__.py").is_file():
        print(f"no sgl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            # Untimed: compiles bytecode and loads the libraries into the page
            # cache, so every timed start sees the same warm caches.
            spawn(args, deadline, setup_only=True)
            for _ in range(SETUP_SAMPLES // 2):
                setups.append(spawn(args, deadline, setup_only=True)[0])
        ready, out = spawn(args, deadline, setup_only=False)
        setups.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
        if not args.trace:
            # The rest after the measured run, so the samples span the run.
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, deadline, setup_only=True)[0])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        values = result["per_layer"]
    else:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        values = {"wall_s": result["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
    if set(values) != {m["name"] for m in declared}:
        print("measured metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
