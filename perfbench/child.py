"""One cold run of one workload, in the interpreter ``run.py`` starts for it.

Prints one JSON object: set-up seconds (from the parent's clock reading just
before it started this process to the built input objects), the timed
region's wall seconds and peak RSS, the speed probe's seconds, the
correctness check's counts, and with ``--spans`` the per-layer metrics of a
traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import time


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is one system-wide clock, so the parent's reading and
    # ours are comparable.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def speed_probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The kernel does the library's kind of work (tuples, frozensets, dict
    inserts) and imports nothing from it, so its time tracks the speed the
    machine is giving this process, not the code under test.
    """
    start = time.perf_counter()
    for _ in range(20):
        table = {}
        for w in itertools.permutations(range(7)):
            table[w] = len(frozenset(
                (i, j) for i in range(7) for j in range(i + 1, 7) if w[i] > w[j]
            ))
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started-ns", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace, and write the spans to this file")
    args = ap.parse_args()

    import hesspave
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = (monotonic_ns() - args.started_ns) / 1e9
    if not hesspave.__file__.startswith(args.src):
        raise SystemExit(f"imported hesspave from {hesspave.__file__}, not {args.src}")
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}:seed={args.seed}:pid={os.getpid()}")
        tracer.install()
    probe_before = speed_probe()
    start = time.perf_counter()
    results = workload.run(inputs, args.seed)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_s = (probe_before + speed_probe()) / 2
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics(wall_s)
        tracer.write_spans(args.spans)

    attempted, failed, problems = workload.check(inputs, results, args.seed)
    out.update(wall_s=wall_s, probe_s=probe_s, rss_mb=rss_mb,
               attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
