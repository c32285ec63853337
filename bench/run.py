"""Benchmark of harmbounds: one workload per call, each in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: law-analyses, data-write, data-read, verify-sweep (see
``README.md`` next to this file).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``ops_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
figures of a traced run.  A summary goes to standard error, and every
result is also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("law-analyses", "data-write", "data-read", "verify-sweep")
#: Fresh processes whose set-up is timed in an untraced run; setup_s is their median.
SETUPS = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"ops_per_s": "op/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def start_worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float]:
    """Run one worker process to its end; returns its result and its start time."""
    env = dict(os.environ)
    # One thread: numpy's BLAS pools and hash randomization left out of the figures.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
            repr(seconds), mode]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} worker ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "harmbounds", "cli.py")):
        print(f"no harmbounds package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.trace:
        result, _ = start_worker(args.workload, args.seed, args.seconds, "trace")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        setups = []
        for _ in range(SETUPS - 1):
            ready, started = start_worker(args.workload, args.seed, args.seconds, "setup")
            setups.append(ready["ready_at"] - started)
        result, started = start_worker(args.workload, args.seed, args.seconds, "run")
        setups.append(result["ready_at"] - started)
        values = {"ops_per_s": result["ops_per_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<24} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:>13} attempted {out['attempted']} failed {out['failed']} "
          f"correct {out['correct']} inputs {result['facts']}", file=sys.stderr)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
