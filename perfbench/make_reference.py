"""Regenerate the stored reference fingerprints from this checkout's code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only for a change that is meant to alter the attacker's decisions or
the emitted artifacts; every other change must pass the stored references.
"""
import json
import os
import sys
import tempfile

import fingerprint
import run
from scenarios import WORKLOADS


def main(names):
    harness, scenario_io = run.prepare()
    os.makedirs(run.OUT, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        lines = []
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.OUT) as tmp:
            for seed, path in run.write_scenarios(workload, tmp, None).items():
                scenario = scenario_io.load_scenario(path)
                _, _, fp = run.experiment(harness, scenario, workload.mode,
                                          os.path.join(tmp, f"emit-{seed}"))
                lines.append(f"{json.dumps(str(seed))}: {json.dumps(fp)}")
                print(f"{name} scenario {seed}: {fp['attacked_steps']} attacked steps")
        with open(fingerprint.reference_path(run.REFERENCE_DIR, name), "w",
                  encoding="utf-8") as fh:
            fh.write(f'{{"workload": {json.dumps(name)}, "scenarios": {{\n'
                     + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
