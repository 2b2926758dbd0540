"""Every scenario file exits 0 or 2, and exit 0 means finite states and
finite cells in every CSV file written.

Scenario texts set 1 to 3 keys of the README's key table to edge values
(zeros, -0.0, +-1e308, nan, +-inf, 1e155, 1e200, counts at and past their
caps, bad edges, slots farther apart than the float range) on a short run
whose attack starts early enough to make attacked steps and a DoS. Each
goes through `cli.main(["simulate", ...])` in-process, in every mode, and
through `reachset-dump --at` and `dmd-export --at`. An exception that `main`
does not turn into exit 2 would end the real CLI with exit 1 and a traceback,
and fails here.
"""
import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from ncsred import harness
from ncsred.attack import MAX_DIRECTIONS, MAX_FACES
from ncsred.cli import main
from ncsred.harness import MODES

#: a short run: attacked steps 21-25 on a full window, the DoS at step 23
BASE = {"horizon_steps": "26", "snapshot_width": "20", "start_step": "21",
        "dos_step": "23"}
NUMBERS = ["0", "-0.0", "1e308", "-1e308", "nan", "inf", "-inf", "1e155", "1e200"]
COUNTS = ["0", "-1", "1", "2", "1e308", "nan"]
#: slots 3 and 4 farther apart than the float range
FAR_SLOTS = "0,0; -4,-3; 4,-3; -1e308,-1e308; 1e308,1e308"
VALUES = {
    **{key: NUMBERS for key in ("dt", "init_box_low", "init_box_high", "rho",
                                "vertex_jitter", "svd_tol", "recovery_svd_tol")},
    **{key: COUNTS for key in ("n_agents", "horizon_steps", "rng_seed",
                               "start_step", "dos_step", "snapshot_width",
                               "reach_horizon")},
    "faces": COUNTS + [str(MAX_FACES), str(MAX_FACES + 1)],
    "n_directions": COUNTS + [str(MAX_DIRECTIONS), str(MAX_DIRECTIONS + 1)],
    "edges": ["", "1-2", "1-1", "0-1", "1-6", "1-2, 1-3, 2-4, 3-5, 4-5"],
    "formation_offsets": [f"0,0; -4,-3; 4,-3; -8,0; {v},{v}" for v in NUMBERS]
    + [FAR_SLOTS],
    **{key: [f"{v} {v} 0 0" for v in NUMBERS]
       for key in ("gain_row1", "gain_row2", "leader_gain_row1", "leader_gain_row2")},
}

files = st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=3,
                 unique=True).flatmap(
    lambda keys: st.tuples(*(st.sampled_from(VALUES[k]) for k in keys)).map(
        lambda values: dict(zip(keys, values))))


def _cli(text, command, *args):
    """`command`'s exit code on the scenario text, the records of the runs it
    made, and every cell of the CSV files it wrote that reads as a float. Its
    warnings (numpy's overflow warnings on such inputs) and output are kept
    out of the test log."""
    records, run = [], harness.run

    def keep(scenario, mode):
        records.append(run(scenario, mode))
        return records[-1]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(harness, "run", side_effect=keep), \
            warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        path = Path(tmp) / "edge.scn"
        path.write_text(text)
        out = Path(tmp) / "out"
        rc = main([command, "--scenario", str(path), *args, "--out", str(out)])
        cells = [cell for csv in sorted(out.glob("*.csv"))
                 for line in csv.read_text().splitlines()
                 for cell in line.split(",")]
    return rc, records, [float(c) for c in cells if _reads_as_float(c)]


def _reads_as_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _text(edits):
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE, **edits}.items())
    note(text)
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edits=files)
@example(edits={"formation_offsets": FAR_SLOTS})
def test_exit_0_or_2_and_finite_states(edits):
    text = _text(edits)
    for mode in MODES:
        rc, records, cells = _cli(text, "simulate", "--mode", mode)
        assert rc in (0, 2)
        if rc == 0:
            assert np.isfinite(records[-1].states).all()
            assert cells and np.isfinite(cells).all()


#: the first step, two windows short of full, the first full one (snapshot_width
#: 20 holds 21 states), the horizon and one step past it
AT = ["0", "1", "19", "20", "26", "27"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edits=files, at=st.sampled_from(AT))
def test_exports_exit_0_or_2_and_write_finite_cells(edits, at):
    text = _text(edits)
    for command in ("reachset-dump", "dmd-export"):
        rc, _, cells = _cli(text, command, "--at", at)
        assert rc in (0, 2)
        if rc == 0:
            assert cells and np.isfinite(cells).all()
