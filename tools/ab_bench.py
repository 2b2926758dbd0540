"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seconds S] [--first-seed K]

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
once in each checkout, the parent first on even pairs and the change first
on odd ones, so a drift in host speed falls on both sides alike. Each
checkout runs its own `perfbench/run.py` and `src/`. `--workload` may be
given more than once; the workloads run one after another.

Prints the per-pair `run_s` values, then one Markdown table row per
workload: for each end-to-end metric, the parent's median [quartiles] ->
the change's median, the relative change of the medians, and the pairs the
change wins (a lower value, or a higher one for `passed_frac`); then the
failed experiments of the parent and of the change. Exits 1 when a run
fails to produce its result line.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("run_s", "emit_s", "setup_s", "peak_rss_mb", "passed_frac")
HIGHER_IS_BETTER = ("passed_frac",)


def bench(tree, workload, seed, seconds):
    """The result object that `perfbench/run.py` prints last, from `tree`."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _fmt(v):
    return f"{v:.4g}"


def summary(name, parent, change):
    """One table cell: parent median [quartiles] -> change median, the change
    of the medians and the change's wins."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else (mp, mp, mp))
    better = (lambda c, p: c > p) if name in HIGHER_IS_BETTER else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    delta = f"{(mc - mp) / mp * 100:+.1f}%".replace("-", "−") if mp else "n/a"
    return (f"{_fmt(mp)} [{_fmt(q1)}, {_fmt(q3)}] → {_fmt(mc)}, {delta}, "
            f"{wins}/{len(parent)}")


def ab(parent_dir, change_dir, workload, pairs, seconds, first_seed):
    """Per-metric value lists and failed counts, (parent, change)."""
    values = {side: {m: [] for m in METRICS} for side in ("parent", "change")}
    failed = {"parent": 0, "change": 0}
    for i in range(pairs):
        seed = first_seed + i
        sides = [("parent", parent_dir), ("change", change_dir)]
        for side, tree in (sides if i % 2 == 0 else sides[::-1]):
            result = bench(tree, workload, seed, seconds)
            failed[side] += result["failed"]
            for m in METRICS:
                values[side][m].append(result["metrics"][m]["value"])
        print(f"{workload} pair {i} seed {seed}: run_s "
              f"{_fmt(values['parent']['run_s'][-1])} → "
              f"{_fmt(values['change']['run_s'][-1])}", flush=True)
    return values, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    rows = []
    for workload in args.workload:
        try:
            values, failed = ab(args.parent_dir, args.change_dir, workload,
                                args.pairs, args.seconds, args.first_seed)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        cells = [summary(m, values["parent"][m], values["change"][m]) for m in METRICS]
        rows.append(f"| {workload} ({args.pairs}) | " + " | ".join(cells)
                    + f" | {failed['parent']} / {failed['change']} |")
    print()
    print("| workload (pairs) | " + " | ".join(METRICS) + " | failed (parent / change) |")
    print("|---" * (len(METRICS) + 2) + "|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
