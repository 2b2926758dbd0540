"""Record the benchmark of one checkout in BENCH_<N>.json.

    python3 tools/bench_record.py --pr N [--tree DIR] [--commit SHA]

For each workload of the tree's `BENCHMARK.json` and seeds 0 .. RUNS-1, runs
the tree's own `perfbench/run.py --workload W --seed K --seconds SECONDS
--trace 0`, as `tools/ab_bench.py` does. Then it runs the tier-1 command of
ROADMAP.md in the tree and times it. `--tree` defaults to this checkout; the
file is written as `BENCH_<N>.json` beside this checkout's `BENCHMARK.json`.

The file holds:
- the commit (`git rev-parse HEAD` in the tree, or `--commit` for a tree
  made by `git archive`) and whether `src/`, `tests/`, `tools/` or
  `perfbench/` differ from it (null without git);
- the host, Python, numpy, the BLAS numpy was built with and the core its
  bundled OpenBLAS picked at run time (`scipy_openblas_get_corename64_`);
- per workload and end-to-end metric, the median and quartiles over the
  runs, in reference seconds (each run's printed value) and, for the timed
  metrics, in raw wall seconds (the run's `.perfbench_out/` file); and the
  attempted and failed experiments;
- the tier-1 passed and failed counts and wall time.
Exits 1 when a run fails to produce its result line.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

import ab_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5            # seeds per workload
SECONDS = 30.0      # length of each run, as in tools/ab_bench.py
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def spread(values):
    """Median, quartiles and the values themselves."""
    q1, med, q3 = ab_bench.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def git_state(tree):
    """(HEAD commit, whether the code differs from it), or (None, None)."""
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(tree):
            return None, None   # a tree inside some other checkout
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "tests", "tools", "perfbench")
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(dirty)


def blas_core():
    """The kernel set numpy's bundled OpenBLAS chose on this CPU, or None."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def workload_record(tree, workload, metrics):
    """Medians and quartiles of RUNS benchmark runs of one workload, and the
    environment that the runs reported."""
    values = {m: [] for m in metrics}
    raw = {}
    attempted = failed = 0
    for seed in range(RUNS):
        result = ab_bench.bench(tree, workload, seed, SECONDS)
        attempted += result["attempted"]
        failed += result["failed"]
        for m in metrics:
            values[m].append(result["metrics"][m]["value"])
        path = os.path.join(tree, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
        for m, v in out["info"]["raw_wall_median_s"].items():
            raw.setdefault(m, []).append(v)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{m} {values[m][-1]:.4g}" for m in metrics), flush=True)
    record = {"metrics": {m: dict(unit=metrics[m]["unit"], **spread(values[m]))
                          for m in metrics},
              "raw_wall_s": {m: spread(v) for m, v in raw.items()},
              "attempted": attempted, "failed": failed}
    return record, out["environment"]


def tier1(tree):
    """Passed and failed counts and wall time of the tier-1 command in `tree`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "wall_s": wall, "summary": last}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--tree", default=ROOT)
    p.add_argument("--commit")
    args = p.parse_args(argv)
    tree = os.path.abspath(args.tree)
    head, dirty = git_state(tree)
    if args.commit is None and head is None:
        p.error(f"{tree} is not a git checkout; give --commit")
    metrics = ab_bench.end_to_end(tree)
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    records = {}
    try:
        for workload in workloads:
            records[workload], env = workload_record(tree, workload, metrics)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    bench = {
        "pr": args.pr,
        "commit": args.commit or head,
        "code_differs_from_commit": None if args.commit else dirty,
        "host": {"node": platform.node(), "cpu_model": env["cpu_model"],
                 "nproc": env["nproc"], "platform": env["platform"]},
        "python": env["python"],
        "numpy": env["numpy"],
        "blas": env["blas"],
        "blas_core": blas_core(),
        "blas_threads": env["blas_threads"],
        "runs": RUNS,
        "seconds": SECONDS,
        "workloads": records,
        "tier1": tier1(tree),
    }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}: tier-1 {bench['tier1']['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
