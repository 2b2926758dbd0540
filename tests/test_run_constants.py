"""Run constants of an attacked step, and the scenario checks that bound what
a run builds.

The reach pass keeps the last step's input term per run and runs every
agent's first forward product once; both must return the bytes of the
per-step formula in `reach_oracle`, compared with `np.array_equal`. Every
Omega drawn on the same (B, N, m) shares one read-only copy of the
directions, injection maps and lifts. The fit window is a read-only view.
Scenario values whose run could not be built (an inverted or overflowing
initial box, a `dt` whose B or reference track overflows, a face or direction
count past its cap), or whose states or formation errors leave the float
range, exit 2 with a named message, and an unseeded scenario is refused.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reach_oracle import reach_supports, stacked_reach_supports

from ncsred import attack
from ncsred.attack import (MAX_DIRECTIONS, MAX_FACES, AttackConfig,
                           agent_reach_polygon, select_targets, synthesize_fdi)
from ncsred.cli import main
from ncsred.dmd import SnapshotBuffer, fit
from ncsred.errors import InvalidInputError
from ncsred.harness import MODES, input_polytope
from ncsred.ncs import AgentModel
from ncsred.reachset import (batch_reach_supports, circumscribe_ball,
                             embed_input_map, input_image_distances, input_term,
                             planar_directions)
from ncsred.scenario_io import build_scenario, load_scenario

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_problem(rng):
    n_agents = int(rng.integers(1, 11))
    n = 4 * n_agents
    K = rng.normal(size=(n, n))
    K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
    omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                              seed=int(rng.integers(1000)))
    return n_agents, K, rng.normal(size=(4, 2)), omega, rng.normal(scale=10.0, size=n)


class TestReachSupports:
    @PROPERTY
    @given(seed=seeds, h=st.integers(min_value=1, max_value=3),
           agent_axis=st.booleans())
    def test_equal_to_per_agent_formula(self, seed, h, agent_axis):
        """Random unit rows, with and without the agent axis, with and
        without the cached last input term."""
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega, x0 = _random_problem(rng)
        m = int(rng.integers(3, 21))
        Bsel = np.array([embed_input_map(B, a, n_agents) for a in range(n_agents)])
        F = rng.normal(size=(n_agents, m, 4 * n_agents))
        F /= np.linalg.norm(F, axis=-1, keepdims=True)
        if agent_axis:
            want = stacked_reach_supports([K] * h, Bsel, x0, omega, F)
        else:
            Bsel, F = Bsel[0], F[0]
            want = reach_supports([K] * h, Bsel, x0, omega, F)
        last = input_term(F @ Bsel, omega.vertices, Bsel)
        for got in (batch_reach_supports(K, h, Bsel, x0, omega, F),
                    batch_reach_supports(K, h, Bsel, x0, omega, F, last)):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @PROPERTY
    @given(seed=seeds, h=st.integers(min_value=1, max_value=3))
    def test_pipeline_supports_equal_per_agent_formula(self, seed, h):
        """`agent_reach_polygon`, which reads the cached operands and last
        input term, gives each agent the formula's supports on its lifts."""
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega, x0 = _random_problem(rng)
        m = int(rng.integers(3, 21))
        got = agent_reach_polygon(K, B, x0, omega, m, h)
        dirs = planar_directions(m)
        assert [p.agent for p in got] == list(range(n_agents))
        for a, poly in enumerate(got):
            lifts = np.zeros((m, 4 * n_agents))
            lifts[:, 4 * a] = dirs[:, 0]
            lifts[:, 4 * a + 2] = dirs[:, 1]
            want, _ = reach_supports([K] * h, embed_input_map(B, a, n_agents), x0,
                                     omega, lifts)
            assert np.array_equal(poly.supports, want)


def test_cached_input_side_and_agent_index_are_read_only():
    """The last input term and agent order that `agent_reach_polygon` keeps
    per run are out of the caller's reach: after the caller writes over
    every array a call returned, the same call gives each agent, in agent
    order, the formula's supports on its lifts again."""
    B = AgentModel(0.2).B
    omega = circumscribe_ball(0.05, 8, seed=3)
    rng = np.random.default_rng(3)
    n_agents, m = 5, 16
    K = rng.normal(size=(4 * n_agents, 4 * n_agents))
    K /= np.linalg.norm(K, 2)
    x0 = rng.normal(size=4 * n_agents)
    dirs = planar_directions(m)
    for _ in range(2):
        got = agent_reach_polygon(K, B, x0, omega, m)
        assert [p.agent for p in got] == list(range(n_agents))
        for a, poly in enumerate(got):
            lifts = np.zeros((m, 4 * n_agents))
            lifts[:, 4 * a] = dirs[:, 0]
            lifts[:, 4 * a + 2] = dirs[:, 1]
            want, _ = reach_supports([K], embed_input_map(B, a, n_agents), x0,
                                     omega, lifts)
            assert np.array_equal(poly.supports, want)
            poly.supports[...] = np.nan
            poly.vertices[...] = np.nan


def test_omega_draws_share_the_reach_constants():
    """Two Omega draws on one (B, N, m) share the directions, Bsel and lifts
    objects, all read-only; each draw's last input term and candidate tables
    give the bytes of the formulas on its own vertices."""
    B = AgentModel(0.2).B
    n_agents, m = 5, 16
    rng = np.random.default_rng(5)
    K = rng.normal(size=(4 * n_agents, 4 * n_agents))
    K /= np.linalg.norm(K, 2)
    x0 = rng.normal(scale=10.0, size=4 * n_agents)
    seen = []
    for seed in (11, 12):
        omega = circumscribe_ball(0.05, 8, seed=seed)
        with mock.patch.object(attack, "batch_reach_supports",
                               wraps=batch_reach_supports) as reach, \
                mock.patch.object(attack, "input_image_distances",
                                  wraps=input_image_distances) as score:
            polygons = agent_reach_polygon(K, B, x0, omega, m)
            targets = select_targets(polygons)
            decision = synthesize_fdi(targets, K, omega, x0, B, polygons)
        _, _, Bsel, _, _, lifts, last = reach.call_args.args
        dirs = polygons[0].directions
        for a in (dirs, Bsel, lifts, last):
            assert not a.flags.writeable
        assert np.array_equal(last, input_term(lifts @ Bsel, omega.vertices, Bsel))
        # the candidate rows (ui, uj) for ui, uj in V, then the zero injection
        V = omega.vertices
        Ui = np.vstack([np.repeat(V, len(V), axis=0), np.zeros(2)])
        Uj = np.vstack([np.tile(V, (len(V), 1)), np.zeros(2)])
        i, j = targets
        c = K @ (K @ x0)
        delta = (Ui @ (K @ embed_input_map(B, i, n_agents)).T
                 + Uj @ (K @ embed_input_map(B, j, n_agents)).T)
        pi, pj = slice(4 * i, 4 * i + 3, 2), slice(4 * j, 4 * j + 3, 2)
        shifts = np.subtract(delta[:, pi], delta[:, pj], order="F")
        shifts += c[pi] - c[pj]
        assert np.array_equal(score.call_args.args[3], shifts)
        best = int(np.argmax(input_image_distances(omega, B[::2], m, shifts)))
        assert np.array_equal(decision.u_a[2 * i:2 * i + 2], Ui[best])
        assert np.array_equal(decision.u_a[2 * j:2 * j + 2], Uj[best])
        seen.append((dirs, Bsel, lifts, last))
    (d1, B1, l1, t1), (d2, B2, l2, t2) = seen
    assert d1 is d2 and B1 is B2 and l1 is l2
    assert not np.array_equal(t1, t2)


def test_fit_window_is_a_read_only_view():
    rng = np.random.default_rng(4)
    buf = SnapshotBuffer(6, 3)
    cols = rng.normal(size=(9, 3))
    for col in cols:
        buf.push(col)
    window = buf.window
    assert window.shape == (3, 7) and not window.flags.writeable
    assert np.shares_memory(window, buf._ring)
    assert np.array_equal(window, cols[-7:].T)
    fit(buf)  # reads the window without writing to it


#: scenario files whose run cannot be built, and the message each exits 2 with
BAD_SCENARIOS = [
    ("init_box_low = 20\n",
     "init_box_low (20.0) must not exceed init_box_high (10.0)"),
    ("init_box_low = -1e308\ninit_box_high = 1e308\n",
     "init_box_high - init_box_low overflows: the box from -1e+308 to 1e+308 is too wide"),
    ("dt = 1e200\n", "dt = 1e+200 makes B not finite: dt * dt / 2 overflows"),
    ("dt = 1e-300\n",
     "dt = 1e-300 makes the reference track not finite: its accelerations overflow"),
    ("faces = 100000\n",
     f"face count must be <= {MAX_FACES}, got 100000: each attacked step scores "
     "a table of s^2 + 1 candidate injections"),
    ("n_directions = 100000\n",
     f"n_directions must be <= {MAX_DIRECTIONS}, got 100000: each attacked step "
     "checks every agent's m points against its m faces"),
    # agents start within the 10 m box, so pair 3-4 starts about 2.8e308 m
    # from its slots' difference, above the largest float
    ("horizon_steps = 120\n"
     "formation_offsets = 0,0; -4,-3; 4,-3; -1e308,-1e308; 1e308,1e308\n",
     "step 0: the formation error of pair 3-4 exceeds the float range"),
]


class TestBadScenarios:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("text, message", BAD_SCENARIOS,
                             ids=["box_order", "box_span", "dt", "dt_small", "faces",
                                  "n_directions", "far_slots"])
    def test_exit_2_with_named_message(self, tmp_path, capsys, mode, text, message):
        path = tmp_path / "bad.scn"
        path.write_text(text)
        rc = main(["simulate", "--scenario", str(path), "--mode", mode,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"InvalidInputError: {message}" in err

    @pytest.mark.parametrize("mode", MODES)
    def test_state_leaving_the_float_range_exits_2(self, tmp_path, capsys, mode):
        """An initial box up to 1e308 passes every scenario check, and the
        plant overflows at its first step: every mode exits 2 naming the step
        whose state is not finite, with no numpy warning (RuntimeWarning is an
        error here)."""
        path = tmp_path / "big.scn"
        path.write_text("horizon_steps = 120\ninit_box_high = 1e308\n")
        rc = main(["simulate", "--scenario", str(path), "--mode", mode,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "InvalidInputError: step 1: state is not finite" in err

    def test_unseeded_build_is_refused(self):
        """default_rng(None) would draw each build's initial states from fresh
        entropy, and Omega's seed offset would fail on None."""
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got None$"):
            build_scenario(seed=None)

    def test_equal_box_bounds_run(self, tmp_path):
        path = tmp_path / "eq.scn"
        path.write_text("init_box_low = 5\ninit_box_high = 5\n")
        s = load_scenario(path)
        assert (s.initial_states[:, ::2] == 5.0).all()

    def test_caps_accept_their_bound(self):
        AttackConfig(s=MAX_FACES, n_directions=MAX_DIRECTIONS)
        for field, bound in (("s", MAX_FACES), ("n_directions", MAX_DIRECTIONS)):
            with pytest.raises(InvalidInputError, match=f"<= {bound}, got {bound + 1}"):
                AttackConfig(**{field: bound + 1})

    def test_negative_zero_jitter_runs_as_zero(self, tmp_path):
        outs = []
        for jitter in ("-0.0", "0"):
            path = tmp_path / f"j{jitter}.scn"
            path.write_text(f"horizon_steps = 60\nvertex_jitter = {jitter}\n")
            omega = input_polytope(load_scenario(path))
            out = tmp_path / f"out{jitter}"
            assert main(["simulate", "--scenario", str(path), "--mode", "fdi",
                         "--out", str(out)]) == 0
            outs.append((omega.vertices.tobytes(),
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert outs[0] == outs[1]
