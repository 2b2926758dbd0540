"""Runs benchmark scenarios through the decision-fingerprint gate.

`perfbench/reference/*.json` stores, per pool scenario, the hashes of the
states, the attacker's decisions and every emitted artifact, and the
separations within 1e-9 relative (`perfbench/fingerprint.py`). A change that
moves one byte of them fails here instead of only in the benchmark. This
covers every pool scenario of the two attack workloads and the first four of
`nominal_sweep`. It reads `perfbench/` and changes nothing there.
"""
import sys
from pathlib import Path

import pytest

from ncsred import harness, scenario_io

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import fingerprint  # noqa: E402
from scenarios import WORKLOADS, scenario_text  # noqa: E402

CASES = [(name, seed)
         for name, seeds in (("stock_fdi_dos", range(WORKLOADS["stock_fdi_dos"].pool)),
                             ("wide_h3_fdi_dos", range(WORKLOADS["wide_h3_fdi_dos"].pool)),
                             ("nominal_sweep", range(4)))
         for seed in seeds]


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_matches_reference_fingerprint(tmp_path, name, seed):
    workload = WORKLOADS[name]
    reference = fingerprint.load_references(PERFBENCH / "reference", name)[seed]
    path = tmp_path / "scenario.scn"
    path.write_text(scenario_text(workload, seed))
    record = harness.run(scenario_io.load_scenario(path), workload.mode)
    written = harness.emit(record, tmp_path / "out")
    assert fingerprint.check(fingerprint.of(record, written), reference) == []
