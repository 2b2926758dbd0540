"""The benchmark's span hooks still find every layer they wrap.

`perfbench/spans.py` wraps each (module, attribute) in its BINDINGS and
requires every layer to record calls in the modes listed there. A renamed
function or a dropped call (say, `synthesize_fdi` no longer calling
`polygon_distance`) would fail the benchmark only after the fact; this runs
the same check on short runs. It reads `perfbench/` and changes nothing there.
"""
import sys
from pathlib import Path

import pytest

from ncsred import harness, scenario_io

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("mode", ["nominal", "fdi_dos"])
def test_every_binding_records_calls(tmp_path, mode):
    # past the attack start (51) and the DoS step (100)
    path = tmp_path / "scenario.txt"
    path.write_text("horizon_steps = 110\n")
    tracer = spans.Tracer()
    with tracer.installed():
        scenario = scenario_io.load_scenario(path)
        harness.emit(harness.run(scenario, mode), tmp_path / "out")
    spans.check_layers(tracer.spans, mode)
