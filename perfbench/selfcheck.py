"""Quick self-check of the benchmark (under two minutes on two cores):

    python3 perfbench/selfcheck.py

1. Every workload's code path, untraced and traced, on scenarios cut to
   SHORT_HORIZON steps against fingerprints taken on the spot; each pass
   must be correct and print exactly the metrics of BENCHMARK.json with
   their units.
2. run.py's command line on nominal_sweep against the stored references:
   the last line is the result object with every end-to-end or per-layer
   metric and its unit.
3. The gate: an identical run and a 7e-12 score drift pass, while a
   reference with one injection or one state changed fails, also through
   run.bench, where it must show up as a failed experiment.
4. The layer check: a layer that recorded no call, or a binding that a
   refactor removed, stops the traced pass.

Exits nonzero with the first failed check.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

import fingerprint
import run
import spans
from scenarios import WORKLOADS, visit_order

#: past the DoS step (100), so structure recovery runs too
SHORT_HORIZON = 110
SEED = 1
#: score drift of an exact-decision rewrite of the distance computation
ALLOWED_DRIFT = 7.3e-12


class SelfCheckError(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise SelfCheckError(message)


def spec_units():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def expect_result(result, units, where):
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{where}: not correct: {result['attempted']} attempted, "
            f"{result['failed']} failed")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    require(printed == units,
            f"{where}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed.items()) ^ set(units.items()))}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)), f"{where}: {name} not a number")


def short_reference(harness, scenario_io, workload, tmp):
    """(pool seed, record, emitted paths) of SEED's first scenario."""
    seed = visit_order(workload, SEED)[0]
    scenario = scenario_io.load_scenario(
        run.write_scenarios(workload, tmp, SHORT_HORIZON)[seed])
    record = harness.run(scenario, workload.mode)
    written = harness.emit(record, os.path.join(tmp, "reference"))
    return seed, record, written


def check_workloads(harness, scenario_io, e2e, layer):
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.OUT) as tmp:
            seed, record, written = short_reference(harness, scenario_io,
                                                    workload, tmp)
            refs = {seed: fingerprint.of(record, written)}
        for trace, units in ((0, e2e), (1, layer)):
            result = run.bench(name, SEED, 0, trace, horizon=SHORT_HORIZON,
                               references=refs)
            expect_result(result, units, f"{name} trace {trace}")
            if trace:
                counts = {k: result["metrics"][k]["value"] for k in (
                    "ncs.control_inputs.per_step", "reachset.polygon_distance.per_decision",
                    "attack.synthesize_fdi.calls", "dmd.fit.calls")}
                print(f"selfcheck: {name} counts at {SHORT_HORIZON} steps: {counts}")


def check_command_line(e2e, layer):
    for trace, units in ((0, e2e), (1, layer)):
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "nominal_sweep", "--seed", str(SEED), "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=120, check=True)
        last = out.stdout.strip().splitlines()[-1]
        expect_result(json.loads(last), units, f"run.py --trace {trace}")


def check_gate(harness, scenario_io):
    import numpy as np
    workload = WORKLOADS["stock_fdi_dos"]
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.OUT) as tmp:
        seed, record, written = short_reference(harness, scenario_io, workload, tmp)
        fp = fingerprint.of(record, written)
        require(not fingerprint.check(fp, fp), "identical run fails the gate")

        drift = copy.deepcopy(fp)
        drift["separation_after"] = [v + ALLOWED_DRIFT for v in fp["separation_after"]]
        require(not fingerprint.check(fp, drift), "score drift fails the gate")
        drift["separation_after"][0] += 1e-6
        require(fingerprint.check(fp, drift), "a changed score passes the gate")

        injected = copy.deepcopy(record)
        decision = next(d for d in injected.decisions if d is not None)
        decision.u_a[2 * decision.targets[0]] += 0.01
        bad_injection = fingerprint.of(injected, written)
        require(fingerprint.check(fp, bad_injection), "a changed injection passes")

        moved = copy.deepcopy(record)
        moved.states[-1, 0] = np.nextafter(moved.states[-1, 0], np.inf)
        require(fingerprint.check(fp, fingerprint.of(moved, written)),
                "a changed state passes the gate")

    result = run.bench(workload.name, SEED, 0, 0, horizon=SHORT_HORIZON,
                       references={seed: bad_injection})
    require(not result["correct"] and result["failed"] == result["attempted"]
            and result["metrics"]["passed_frac"]["value"] == 0.0,
            f"a perturbed reference did not fail the run: {result}")


def check_layer_guard(harness):
    try:
        spans.check_layers([], "fdi_dos")
    except spans.LayerCheckError:
        pass
    else:
        raise SelfCheckError("a silent layer passed the layer check")
    original = harness.synthesize_fdi
    del harness.synthesize_fdi
    try:
        with spans.Tracer().installed():
            raise SelfCheckError("a removed binding was not noticed")
    except spans.LayerCheckError:
        pass
    finally:
        harness.synthesize_fdi = original


def main():
    harness, scenario_io = run.prepare()
    os.makedirs(run.OUT, exist_ok=True)
    e2e, layer = spec_units()
    print("selfcheck: one gate failure on stderr below is expected")
    check_gate(harness, scenario_io)
    print("selfcheck: gate ok")
    check_layer_guard(harness)
    print("selfcheck: layer check ok")
    check_workloads(harness, scenario_io, e2e, layer)
    print("selfcheck: workloads ok")
    check_command_line(e2e, layer)
    print("selfcheck: command line ok")


if __name__ == "__main__":
    main()
