"""hesspave benchmark: cold-process runs of four workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pave-oracle --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each repetition is a fresh interpreter (``child.py``), never a fork of a warm
parent, so the library's caches start cold; this process imports nothing from
hesspave.  Repetitions run one at a time with ``jobs=1`` until ``--seconds``
is spent.  With ``--trace 0`` the end-to-end metrics are medians over the
repetitions, wall times rescaled by the speed probe each repetition runs
around its timed region; with ``--trace 1`` traced and untraced repetitions
alternate and the per-layer metrics are medians over the traced ones.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from child import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

WORKLOADS = ("pave-formula-weyl", "pave-formula-orbit", "pave-oracle", "verify-sweep")
# Cell decisions (cells x certification paths) per repetition, counted
# without hesspave; a repetition that crashes fails all of them.
DECISIONS = {
    "pave-formula-weyl": 2 * 5040,
    "pave-formula-orbit": 2 * 5040,
    "pave-oracle": 720 + 384 + 192,
    "verify-sweep": 20 * 48 * 2 + 14 * 24 * 3,
}
MIN_REPS = 3
# The speed probe's nominal seconds: cal_wall_s is wall_s rescaled to the
# speed at which the probe takes this long.
PROBE_REF_S = 0.5
DEADLINE_S = 170  # a run must exit within 180 s


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".inconsistent", ".cache_entries")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload, self.seed, self.started = workload, seed, started

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, *extra: str) -> dict:
        """Run one fresh interpreter; a crash or timeout is returned as
        ``{"error": ...}``."""
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": str(self.seed % 2**32),
        }
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--src", str(SRC),
               "--started-ns", str(monotonic_ns()), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(self.left(), 1))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}"}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": "no result line"}

    def repetitions(self, seconds: float, kinds: tuple[tuple[str, ...], ...]):
        """Cycle through child argument sets until another cycle would
        overrun ``seconds``, with at least MIN_REPS cycles.  Returns one list
        of results per argument set."""
        out: list[list[dict]] = [[] for _ in kinds]
        took: list[list[float]] = [[] for _ in kinds]
        begin = time.monotonic()
        while True:
            for extra, results, durations in zip(kinds, out, took):
                t = time.monotonic()
                results.append(self.child(*extra))
                durations.append(time.monotonic() - t)
            cycle = sum(median(d) for d in took)
            spent = time.monotonic() - begin
            if len(out[0]) >= MIN_REPS and spent + cycle > seconds:
                return out
            if self.left() < 2 * cycle:
                return out


def tally(reps: list[dict], workload: str) -> tuple[int, int, list[str]]:
    """Decisions attempted and failed over the repetitions, and the problems
    they report; a crashed repetition fails all of its decisions."""
    attempted = failed = 0
    problems: list[str] = []
    for r in reps:
        if "error" in r:
            attempted += DECISIONS[workload]
            failed += DECISIONS[workload]
            problems.append(r["error"])
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        problems += r["problems"]
        if r["attempted"] != DECISIONS[workload]:
            problems.append(f"attempted {r['attempted']}, expected {DECISIONS[workload]}")
    return attempted, failed, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed, time.monotonic())
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.csv"
        reps, traced = runner.repetitions(seconds, ((), ("--spans", str(spans))))
        setups = []
    else:
        runner.child("--setup-only")  # warm-up: byte-compiles the sources once
        # One set-up-only interpreter follows each repetition, so that the
        # set-up samples spread over the run like the wall samples.
        reps, setups = runner.repetitions(seconds, ((), ("--setup-only",)))
        traced = []
    attempted, failed, problems = tally(reps + traced, workload)
    problems += [f"set-up only: {r['error']}" for r in setups if "error" in r]
    ok = [r for r in reps if "error" not in r]
    if not ok:
        raise SystemExit(f"{workload}: no repetition finished: {problems[:3]}")
    if trace:
        traced = [r for r in traced if "error" not in r]
        if not traced:
            raise SystemExit(f"{workload}: no traced repetition finished")
        layers = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - median(r["wall_s"] for r in ok))
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    else:
        setup = [r["setup_s"] for r in setups + ok if "error" not in r]
        cal = [r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in ok]
        metrics = {
            "cal_wall_s": (median(cal), "s"),
            "cal_cells_per_s": (median(r["attempted"] / c for r, c in zip(ok, cal)), "1/s"),
            "peak_rss_mb": (median(r["rss_mb"] for r in ok), "MB"),
            "setup_s": (median(setup), "s"),
        }
    shown = {  # uncalibrated, for reading only
        "wall_s": (median(r["wall_s"] for r in ok), "s"),
        "cells_per_s": (median(r["attempted"] / r["wall_s"] for r in ok), "1/s"),
        "probe_s": (median(r["probe_s"] for r in ok), "s"),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "shown": shown, "walls": [r["wall_s"] for r in ok]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hesspave" / "__init__.py").is_file():
        print(f"error: no hesspave sources under {SRC}", file=sys.stderr)
        return 2

    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"commit={git_commit()} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    broken = False
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += res["attempted"]
        failed += res["failed"]
        broken |= bool(res["problems"])
        print(f"# {name} wall_s per untraced repetition: "
              + " ".join(f"{w:.4f}" for w in res["walls"]))
        for problem in list(dict.fromkeys(res["problems"]))[:20]:
            print(f"# {name}: {problem}")
        shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u)
                         in {**res["metrics"], **res["shown"]}.items())
        print(f"{name}: {shown} failed_frac={res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']} decisions, {len(res['walls'])} "
              f"untraced repetitions)")
        prefix = f"{name}." if len(names) > 1 else ""
        for k, (v, u) in res["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": u}
    print(json.dumps({"correct": failed == 0 and not broken, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
