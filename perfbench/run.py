"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an entsense checkout; the program is imported from
its src/.  Workloads (see README.md): blocked-precision, pulse-scan,
event-log.  The run times set-up in SETUP_SAMPLES fresh interpreters
(after one untimed warm-up that fills the bytecode cache), the last of
which then measures the workload for S seconds.  It prints a summary and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  It exits non-zero, printing no result, when the
checkout has no entsense source or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("blocked-precision", "pulse-scan", "event-log")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def spawn(argv, timeout):
    """Run workload.py in a fresh interpreter: (spawn time, its JSON result)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), *argv],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entsense" / "cli.py").is_file():
        print(f"perfbench: no entsense source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        spawn([*common, "--setup-only"], SETUP_TIMEOUT_S)
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, out = spawn([*common, "--setup-only"], SETUP_TIMEOUT_S)
            setups.append(out["setup_mark"] - start)
        start, result = spawn([*common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], RUN_TIMEOUT_S)
        setups.append(result.pop("setup_mark") - start)
        walls = result.pop("round_walls")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    print(f"  round walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  set-ups (s):     {' '.join(f'{s:.3f}' for s in setups)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
