"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seconds S] [--first-seed K]

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
once in each checkout, the parent first on even pairs and the change first
on odd ones, so a drift in host speed falls on both sides alike. Each
checkout runs its own `perfbench/run.py` and `src/`. `--workload` may be
given more than once; the workloads run one after another.

The end-to-end metrics, which way each is better and the bound by which
each may worsen are read from the change checkout's `BENCHMARK.json`.

Prints each pair's parent -> change value of every end-to-end metric, so a
claim on any of them can be checked pair by pair. Then one Markdown table row
per workload: for each end-to-end metric, the parent's median [quartiles] ->
the change's median, the relative change of the medians, and the pairs the
change wins (ties count for neither); then the failed experiments of the
parent and of the change. A second table gives two verdicts per workload
and metric:
- gain: whether the change shows a gain, that is, it wins at least 9/10
  of the pairs and the medians differ by more than the parent's
  interquartile range;
- bound: `worse` when the change's median is worse than the parent's by
  more than the metric's bound, relative to the parent's median;
  `unresolved` when it is not, but the parent's interquartile range is
  wider than the bound and some run of the change reads no better than
  some run of the parent; else `within`.
Exits 1 when a run fails to produce its result line.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

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


def end_to_end(tree):
    """The end-to-end metrics of `tree`'s BENCHMARK.json, by name."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(metric, parent, change):
    """One table cell (parent median [quartiles] -> change median, the change
    of the medians and the change's wins) and the (gain, bound) verdicts."""
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    delta = f"{(mc - mp) / mp * 100:+.1f}%".replace("-", "−") if mp else "n/a"
    cell = (f"{_fmt(mp)} [{_fmt(q1)}, {_fmt(q3)}] → {_fmt(mc)}, {delta}, "
            f"{wins}/{len(parent)}")
    gain = wins >= 0.9 * len(parent) and sign * (mp - mc) > q3 - q1
    worse, spread = (sign * (mc - mp) / mp, (q3 - q1) / mp) if mp else (0.0, 0.0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse > metric["bound"]:
        bound = "worse"
    elif spread > metric["bound"] and not all_better:
        bound = "unresolved"
    else:
        bound = "within"
    return cell, ("gain" if gain else "no gain"), bound


def ab(parent_dir, change_dir, workload, pairs, seconds, first_seed, metrics):
    """Per-metric value lists and failed counts, (parent, change)."""
    values = {side: {m: [] for m in metrics} for side in ("parent", "change")}
    failed = {"parent": 0, "change": 0}
    for i in range(pairs):
        seed = first_seed + i
        sides = [("parent", parent_dir), ("change", change_dir)]
        for side, tree in (sides if i % 2 == 0 else sides[::-1]):
            result = bench(tree, workload, seed, seconds)
            failed[side] += result["failed"]
            for m in metrics:
                values[side][m].append(result["metrics"][m]["value"])
        pair = ", ".join(f"{m} {_fmt(values['parent'][m][-1])} → "
                         f"{_fmt(values['change'][m][-1])}" for m in metrics)
        print(f"{workload} pair {i} seed {seed}: {pair}", flush=True)
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
    metrics = end_to_end(args.change_dir)
    rows, verdicts = [], []
    for workload in args.workload:
        try:
            values, failed = ab(args.parent_dir, args.change_dir, workload,
                                args.pairs, args.seconds, args.first_seed, metrics)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        cells = []
        for name, metric in metrics.items():
            cell, gain, bound = summary(metric, values["parent"][name],
                                        values["change"][name])
            cells.append(cell)
            verdicts.append(f"| {workload} | {name} | {gain} | "
                            f"{metric['bound']:g}: {bound} |")
        rows.append(f"| {workload} ({args.pairs}) | " + " | ".join(cells)
                    + f" | {failed['parent']} / {failed['change']} |")
    print()
    print("| workload (pairs) | " + " | ".join(metrics) + " | failed (parent / change) |")
    print("|---" * (len(metrics) + 2) + "|")
    print("\n".join(rows))
    print()
    print("| workload | metric | gain (9/10 wins, gap > parent IQR) | bound |")
    print("|---|---|---|---|")
    print("\n".join(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
