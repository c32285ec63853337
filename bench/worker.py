"""One workload in one fresh process: set up, warm up, then run timed rounds.

Started by ``run.py``; not meant to be run by hand.  The last line of
standard output is a JSON object with the figures of this process.

    worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (stop after the warm-up), ``run`` (untraced rounds) or
``trace`` (each operation untraced, then traced).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main() -> int:
    root, workload_name, seed, seconds, mode = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    import harmbounds.cli

    from tracing import Tracer
    from workloads import WORKLOADS

    workroot = os.path.join(root, "bench", "work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=workroot)
    try:
        workload = WORKLOADS[workload_name](np.random.default_rng(seed), workdir)

        def run_op(op):
            """Returns (seconds, stdout texts, failure or None); checks are left to the caller."""
            texts = []
            start = time.perf_counter()
            for argv in op.calls:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = harmbounds.cli.main(argv)
                except Exception as exc:  # an internal fault counts as a failed operation
                    return time.perf_counter() - start, texts, f"{argv[0]} raised {exc!r}"
                texts.append(out.getvalue())
                if code != 0:
                    return (time.perf_counter() - start, texts,
                            f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return time.perf_counter() - start, texts, None

        # The warm-up's output is checked like any other; a wrong one makes the run incorrect.
        warm = workload.rounds(-1)[0]
        _, texts, failure = run_op(warm)
        problems = [] if failure else warm.check(texts)
        if failure or problems:
            print(f"warm-up operation: {failure or problems[:3]}", file=sys.stderr)
        ready_at = time.monotonic()
        if mode == "setup":
            print(json.dumps({"ready_at": ready_at}))
            return 0

        tracer = Tracer() if mode == "trace" else None
        tally = {"untraced": [0, 0.0], "traced": [0, 0.0]}  # ops, seconds
        attempted = failed = stdout_bytes = 0
        j = 0
        # A traced run runs each operation untraced and then traced, so both
        # halves see the same inputs and nearly the same machine.
        phases = ("untraced", "traced") if tracer else ("untraced",)
        while tally["untraced"][1] + tally["traced"][1] < seconds:
            for op in workload.rounds(j):
                for phase in phases:
                    if phase == "traced":
                        tracer.install()
                    try:
                        elapsed, texts, failure = run_op(op)
                    finally:
                        if phase == "traced":
                            tracer.uninstall()
                    attempted += op.weight
                    tally[phase][1] += elapsed
                    if failure:
                        failed += op.weight
                        print(f"failed: {failure}", file=sys.stderr)
                        continue
                    tally[phase][0] += op.weight
                    if phase == "traced":
                        stdout_bytes += sum(len(t) for t in texts)
                    found = op.check(texts)
                    if found:
                        print(f"wrong output: {found[:3]}", file=sys.stderr)
                        problems += found
            j += 1

        result = {"ready_at": ready_at, "correct": not problems, "attempted": attempted,
                  "failed": failed, "facts": workload.facts}
        # Operations completed per second of operation time; failed ones take time too.
        ops, busy = tally["untraced"]
        if tracer is None:
            result["ops_per_s"] = ops / busy
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            traced_ops, traced_busy = tally["traced"]
            traced_ops, ops = max(traced_ops, 1), max(ops, 1)
            layer_s = tracer.self_times()
            per_op = {f"{layer}_ms": 1e3 * s / traced_ops for layer, s in layer_s.items()}
            per_op["bounds.fused_calls"] = tracer.counts.get("bounds.fused_calls", 0) / traced_ops
            per_op["simulate.csv_bytes"] = tracer.counts.get("simulate.csv_bytes", 0) / traced_ops
            per_op["cli.stdout_bytes"] = stdout_bytes / traced_ops
            per_op["trace.overhead_s"] = traced_busy / traced_ops - busy / ops
            # Time in traced operations that no span covers: the benchmark's own
            # call harness.  Reported so the self times can be seen to add up.
            per_op["trace.uncovered_ms"] = 1e3 * (traced_busy - tracer.root_seconds()) / traced_ops
            result["layers"] = per_op
            spans_path = os.path.join(root, "bench", "results",
                                      f"{workload_name}-seed{seed}.spans.jsonl")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            tracer.write(spans_path)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
