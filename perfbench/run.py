"""ncsred benchmark: closed-loop experiments driven through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller: each experiment starts when the previous one has
ended. An experiment loads nothing; the scenarios are loaded once at set-up
through ``scenario_io.load_scenario`` (the CLI's path). It is
``harness.run`` followed by ``harness.emit`` of its record into temporary
directories, and its decisions and artifacts are checked against the stored
reference fingerprint (see fingerprint.py). Experiments repeat until `--seconds` have
passed; the last one always finishes.

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
runs pairs of one untraced and one traced experiment on the same scenario,
for `--seconds` or TRACE_PAIRS_MAX pairs, and reports the per-layer metrics
(see spans.py); the pairs give the tracing overhead. The last line of standard output is the JSON result.
Spans, the environment, the raw wall times and the pass wall times are
written to ``.perfbench_out/`` in the checkout.

Every reported time is in reference seconds: the median wall time times
the pass's HostSpeed factor. On a shared host the CPU speed drifts by up to
a factor of two within a minute, which no number of repeats in a 30 s run
averages out; a fixed kernel timed between the experiments drifts with it.
The raw wall-time medians are kept in the output file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import fingerprint
import spans
from scenarios import WORKLOADS, scenario_text, visit_order

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_REPEATS = 7
#: an emit takes 20-60 ms, so each record is emitted several times to give
#: emit_s as many samples as the short runs of the attack workloads need
EMIT_REPEATS = 3
#: a nominal experiment records about 7k spans, so the traced pass stops
#: after this many pairs even when time is left
TRACE_PAIRS_MAX = 8
PROBE_TIMEOUT_S = 60
#: iterations of the speed kernel, and its typical wall time on the host the
#: benchmark was defined on (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6)
SPEED_KERNEL_LOOPS = 1500
SPEED_REFERENCE_S = 0.05
SPEED_SHARE = 0.1

#: end-to-end metrics: name -> unit
E2E_METRICS = {
    "setup_s": "s",
    "run_s": "s",
    "emit_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def prepare():
    """Pin BLAS to one thread, then import ncsred from this checkout's src/."""
    # a single-threaded baseline; must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "ncsred", "__init__.py")):
        raise SetupError(f"no ncsred package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ncsred
    if os.path.dirname(os.path.dirname(os.path.abspath(ncsred.__file__))) != SRC:
        raise SetupError(f"imported ncsred from {ncsred.__file__}, not from {SRC}")
    from ncsred import harness, scenario_io
    return harness, scenario_io


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def write_scenarios(workload, directory, horizon):
    paths = {}
    for seed in range(workload.pool):
        path = os.path.join(directory, f"{workload.name}-{seed}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, seed, horizon))
        paths[seed] = path
    return paths


def _setup_sample(paths):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *paths.values()],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def experiment(harness, scenario, mode, out_dir, reference=None):
    """One closed-loop experiment: a run, then EMIT_REPEATS emits of its record.

    Returns (run_s, emit_s list, checked): `checked` is the experiment's
    fingerprint without a reference, and the gate's mismatches with one.
    """
    t0 = perf_counter()
    record = harness.run(scenario, mode)
    run_s = perf_counter() - t0
    emit_s, fps = [], []
    for k in range(EMIT_REPEATS):
        t0 = perf_counter()
        written = harness.emit(record, os.path.join(out_dir, str(k)))
        emit_s.append(perf_counter() - t0)
        fps.append(fingerprint.of(record, written))
    shutil.rmtree(out_dir)
    if reference is None:
        return run_s, emit_s, fps[0]
    mismatches = []
    for fp in fps:
        mismatches += [m for m in fingerprint.check(fp, reference) if m not in mismatches]
    return run_s, emit_s, mismatches


class HostSpeed:
    """Scale from this host's current speed to reference seconds.

    A fixed kernel of interpreter work and small numpy calls, like the
    program's own mix, is timed after each measurement for about
    SPEED_SHARE of that measurement's length, so long experiments get as
    dense a speed record as short ones. The scale is SPEED_REFERENCE_S
    over the median kernel time of the pass.
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self._p = rng.normal(size=(16, 2))
        self._q = rng.normal(size=(16, 2)) + 5.0
        self._x = numpy.arange(4.0)
        self.kernel_s = []
        self.sample(0.0)

    def _kernel(self):
        import numpy
        p, q, x = self._p, self._q, self._x
        t0 = perf_counter()
        acc = 0.0
        for i in range(SPEED_KERNEL_LOOPS):
            d = q - p[i % 16]
            acc += float(numpy.einsum("ij,ij->i", d, d).min())
            acc += float(numpy.linalg.norm(p[:, None, :] - q[None, :, :], axis=2).min())
            acc += float(x @ x) + i % 7
        return perf_counter() - t0

    def sample(self, measured_s):
        """Time the kernel after a measurement that took `measured_s`."""
        spent = 0.0
        while True:
            self.kernel_s.append(self._kernel())
            spent += self.kernel_s[-1]
            if spent >= SPEED_SHARE * measured_s:
                return

    def factor(self):
        return SPEED_REFERENCE_S / statistics.median(self.kernel_s)


class Tally:
    """Experiments attempted and failed; a failure raised or missed the gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn, *args):
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:  # keep measuring; the failure is counted and shown
            self.failed += 1
            print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if result[2]:
            self.failed += 1
            print(f"{label}: fingerprint gate failed: {'; '.join(result[2])}",
                  file=sys.stderr)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def untraced_pass(harness, scenario_io, workload, paths, order, seconds,
                  references, tmp):
    speed = HostSpeed()
    raw = {"setup_s": [], "run_s": [], "emit_s": []}
    for _ in range(SETUP_REPEATS):
        raw["setup_s"].append(_setup_sample(paths))
        speed.sample(raw["setup_s"][-1])
    scenarios = {seed: scenario_io.load_scenario(p) for seed, p in paths.items()}
    tally = Tally()
    t_end = perf_counter() + seconds
    i = 0
    while True:
        seed = order[i % len(order)]
        t0 = perf_counter()
        result = tally.run(f"{workload.name} scenario {seed}", experiment,
                           harness, scenarios[seed], workload.mode,
                           os.path.join(tmp, f"emit-{i}"), references[seed])
        speed.sample(perf_counter() - t0)
        if result is not None:
            raw["run_s"].append(result[0])
            raw["emit_s"].extend(result[1])
        i += 1
        if perf_counter() >= t_end:
            break
    raw_medians = {name: _median(values) for name, values in raw.items()}
    metrics = {name: value * speed.factor() for name, value in raw_medians.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["passed_frac"] = (tally.attempted - tally.failed) / tally.attempted
    info = {"runs": len(raw["run_s"]), "raw_wall_median_s": raw_medians,
            "setup_samples_s": raw["setup_s"], "speed_factor": speed.factor()}
    return tally, metrics, info


def traced_pass(harness, scenario_io, workload, paths, order, seconds,
                references, tmp):
    speed = HostSpeed()
    tracer = spans.Tracer()
    with tracer.installed():
        scenarios = {seed: scenario_io.load_scenario(p) for seed, p in paths.items()}
    tally, untraced, traced = Tally(), [], []
    wall = {"untraced_s": 0.0, "traced_s": 0.0}
    t_end = perf_counter() + seconds
    i = 0
    while True:
        seed = order[i % len(order)]
        args = (harness, scenarios[seed], workload.mode)
        t0 = perf_counter()
        result = tally.run(f"{workload.name} scenario {seed} untraced", experiment,
                           *args, os.path.join(tmp, f"emit-{i}u"), references[seed])
        t1 = perf_counter()
        if result is not None:
            untraced.append(result[0])
        tracer.experiment = i
        with tracer.installed():
            result = tally.run(f"{workload.name} scenario {seed} traced", experiment,
                               *args, os.path.join(tmp, f"emit-{i}t"), references[seed])
        t2 = perf_counter()
        if result is not None:
            traced.append(result[0])
        speed.sample(t2 - t0)
        wall["untraced_s"] += t1 - t0
        wall["traced_s"] += t2 - t1
        i += 1
        if perf_counter() >= t_end or i == TRACE_PAIRS_MAX:
            break
    spans.check_layers(tracer.spans, workload.mode)
    overhead = (_median(traced) / _median(untraced) - 1.0) if untraced and traced else 0.0
    dt = next(iter(scenarios.values())).agent_model.dt
    metrics = spans.layer_metrics(tracer.spans, dt, overhead, speed.factor())
    info = {"pairs": i, "pass_wall_s": wall, "speed_factor": speed.factor()}
    return tally, metrics, info, tracer


def bench(workload_name, seed, seconds, trace, horizon=None, references=None):
    """Run one benchmark pass and return its result object.

    `horizon` shortens every scenario and then requires `references` for the
    scenarios the seed visits; both exist for the self-check.
    """
    harness, scenario_io = prepare()
    workload = WORKLOADS[workload_name]
    if references is None:
        references = fingerprint.load_references(REFERENCE_DIR, workload.name)
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    t0 = perf_counter()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        paths = write_scenarios(workload, tmp, horizon)
        order = visit_order(workload, seed)
        if trace:
            tally, metrics, info, tracer = traced_pass(
                harness, scenario_io, workload, paths, order, seconds,
                references, tmp)
            units = spans.LAYER_METRICS
            tracer.write_csv(os.path.join(OUT, f"{tag}.spans.csv"))
        else:
            tally, metrics, info = untraced_pass(
                harness, scenario_io, workload, paths, order, seconds,
                references, tmp)
            units = E2E_METRICS
            info["pass_wall_s"] = {"untraced_s": perf_counter() - t0}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "environment": env, "info": info,
                   "result": result}, fh, indent=1)
    print(f"environment: {json.dumps(env)}")
    print(f"pass: {json.dumps(info)}")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, spans.LayerCheckError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
