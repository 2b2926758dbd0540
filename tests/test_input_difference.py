"""Injection scoring against the run-constant input difference S - S.

A 1-step reach polygon from any state z is the agent's position in K z plus
the input image S = {B_pos u : u in omega} (support functions add under
Minkowski sums), so `synthesize_fdi` scores every candidate as one point
query against S - S. `synth_oracle.synthesize_fdi` is the version that built
both targets' polygons at every step.
"""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_oracle
from segment_oracle import segment_distance

from ncsred import attack, reachset
from ncsred.attack import agent_reach_polygon, synthesize_fdi
from ncsred.dmd import DmdModel
from ncsred.errors import DegenerateGeometryError
from ncsred.harness import run
from ncsred.ncs import AgentModel
from ncsred.reachset import (agent_polygon, circumscribe_ball, embed_input_map,
                             input_image_distances, planar_directions)
from ncsred.scenario_io import load_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_problem(rng, max_agents=6):
    """K with spectral norm at most 3, a random 4x2 B and a random omega."""
    n_agents = int(rng.integers(2, max_agents + 1))
    n = 4 * n_agents
    K = rng.normal(size=(n, n))
    K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
    B = rng.normal(size=(4, 2))
    omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                              seed=int(rng.integers(1000)))
    return n_agents, K, B, omega


def _image_polygon(omega, B, m):
    dirs = planar_directions(m)
    return agent_polygon(dirs, 0, ((dirs @ B[[0, 2]]) @ omega.vertices.T).max(axis=1))


class TestTranslateIdentity:
    @PROPERTY
    @given(seed=seeds, m=st.sampled_from([8, 16]))
    def test_one_step_polygon_is_position_plus_input_image(self, seed, m):
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega = _random_problem(rng)
        z = rng.normal(scale=10.0, size=4 * n_agents)
        a = int(rng.integers(n_agents))
        got = agent_reach_polygon(K, B, z, omega, m)[a].supports
        dirs = planar_directions(m)
        want = dirs @ (K @ z)[[4 * a, 4 * a + 2]] + _image_polygon(omega, B, m).supports
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


class TestInputImageDistances:
    def test_scores_translates_of_the_image(self):
        rng = np.random.default_rng(3)
        omega = circumscribe_ball(0.3, 7, seed=5)
        B = rng.normal(size=(4, 2))
        S = _image_polygon(omega, B, 16)
        shifts = rng.normal(scale=0.5, size=(40, 2))
        got = input_image_distances(omega, B[[0, 2]], 16, shifts)
        want = [segment_distance(S.vertices + s, S.vertices) for s in shifts]
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert (got == 0).any() and (got > 0).any()

    def test_cached_difference_is_read_only(self):
        """The S - S ring kept per (omega, B, m) is out of the caller's
        reach: after the caller writes over a result, the same call gives
        the same bytes, at the segment oracle's distances."""
        omega = circumscribe_ball(0.05, 8, seed=1)
        B = np.ascontiguousarray(AgentModel(0.2).B[[0, 2]])
        S = _image_polygon(omega, AgentModel(0.2).B, 16)
        shifts = np.random.default_rng(1).normal(scale=0.1, size=(20, 2))
        first = input_image_distances(omega, B, 16, shifts.copy())
        want = first.tobytes()
        assert np.allclose(first, [segment_distance(S.vertices + s, S.vertices)
                                   for s in shifts], rtol=0, atol=1e-12)
        first[...] = np.nan
        assert input_image_distances(omega, B, 16, shifts).tobytes() == want


class TestAgainstOracle:
    @PROPERTY
    @given(seed=seeds, m=st.sampled_from([8, 16]))
    def test_same_injection_and_separations(self, seed, m):
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega = _random_problem(rng)
        if rng.random() < 0.5:
            B = AgentModel(0.2).B
        x = rng.normal(size=4 * n_agents)
        x *= rng.uniform(0.0, 10.0) / np.linalg.norm(x)
        model = DmdModel(K=K, residual=0.0, rank_used=len(K))
        targets = tuple(map(int, rng.choice(n_agents, size=2, replace=False)))
        polys = agent_reach_polygon(K, B, x, omega, m)
        got = synthesize_fdi(targets, model, omega, x, B, polys)
        want = synth_oracle.synthesize_fdi(targets, model, omega, x, B, polys)
        assert got.targets == want.targets
        assert got.u_a.tobytes() == want.u_a.tobytes()
        assert got.separation_before == want.separation_before
        assert abs(got.separation_after - want.separation_after) \
            <= 1e-9 * max(1.0, abs(want.separation_after))


class TestLargeCoordinates:
    def test_scores_the_exact_shape_where_the_polygons_collapse(self):
        # decoupled single integrators 1.1e7 m out and 3 mm apart: the input
        # image is about 2 mm across, below the polygon dedupe tolerance of
        # 1e-9 * 1.1e7 m, so the targets' own polygons collapse to points
        K = np.eye(8)
        model = DmdModel(K=K, residual=0.0, rank_used=8)
        omega = circumscribe_ball(0.05, 8, seed=7)
        B = AgentModel(0.2).B
        x = np.zeros(8)
        x[0], x[2] = 1.1e7, 2.0
        x[4], x[6] = 1.1e7 + 0.003, 2.0
        polys = agent_reach_polygon(K, B, x, omega)
        got = synthesize_fdi((0, 1), model, omega, x, B, polys)

        Pi0, Pj0 = agent_reach_polygon(K, B, K @ x, omega)
        assert len(Pi0.vertices) == len(Pj0.vertices) == 1
        S = _image_polygon(omega, B, 16)
        assert len(S.vertices) > 8
        # exact shapes: c_i + delta_i + S against c_j + delta_j + S, measured
        # in the frame of S, where no coordinate is large
        KBi, KBj = K @ embed_input_map(B, 0, 2), K @ embed_input_map(B, 1, 2)
        c = K @ K @ x
        cands = [(ui, uj) for ui in omega.vertices for uj in omega.vertices]
        cands.append((np.zeros(2), np.zeros(2)))
        exact = []
        for ui, uj in cands:
            delta = KBi @ ui + KBj @ uj
            s = delta[[0, 2]] - delta[[4, 6]] + (c[[0, 2]] - c[[4, 6]])
            exact.append(segment_distance(S.vertices + s, S.vertices))
        best = int(np.argmax(exact))
        assert got.separation_after == pytest.approx(exact[best], rel=0, abs=1e-12)
        assert np.array_equal(got.u_a[:2], cands[best][0])
        assert np.array_equal(got.u_a[2:], cands[best][1])
        # the collapsed polygons' score misses the shape by most of its size
        old = synth_oracle.synthesize_fdi((0, 1), model, omega, x, B, polys)
        assert abs(old.separation_after - exact[best]) > 1e-4

    def test_scores_past_the_square_overflow(self, tmp_path):
        """With rho = 1e155 the step-51 candidates are shifts of about 1.5e154
        against an S - S ring of about 4e153, whose offsets square past the
        float range. Their scores are finite and the segment oracle's, taken
        in units of 2**512 (an exact scale) so that its own norms stay
        finite. The run then stops at step 52 with no numpy warning."""
        path = tmp_path / "overflow.scn"
        path.write_text("horizon_steps = 120\nrho = 1e155\n")
        s = load_scenario(str(path))
        calls = []

        def keep(omega, Bpos, m, shifts):
            calls.append((omega, m, np.array(shifts),
                          input_image_distances(omega, Bpos, m, shifts)))
            return calls[-1][-1]

        with mock.patch.object(attack, "input_image_distances", keep), \
                warnings.catch_warnings(), \
                pytest.raises(DegenerateGeometryError, match="^step 52: "):
            warnings.simplefilter("error")
            run(s, "fdi")
        [(omega, m, shifts, got)] = calls
        assert np.isfinite(got).all() and got.max() > 1e154
        V = np.ldexp(_image_polygon(omega, s.agent_model.B, m).vertices, -512)
        want = np.array([np.ldexp(segment_distance(V + np.ldexp(d, -512), V), 512)
                         for d in shifts])
        assert (np.abs(got - want) <= 1e-12 * want).all()

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
    def test_scores_far_shifts(self, scale):
        """Shifts whose squared lengths leave the float range score finite
        distances, with no numpy warning. S - S is a few mm across, so each
        distance is the shift's length (`np.hypot`, which does not square)
        to rounding."""
        omega = circumscribe_ball(0.05, 8, seed=1)
        B = np.ascontiguousarray(AgentModel(0.2).B[[0, 2]])
        shifts = np.random.default_rng(2).normal(size=(20, 2)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = input_image_distances(omega, B, 16, shifts)
        want = np.hypot(shifts[:, 0], shifts[:, 1])
        assert (np.abs(got - want) <= 1e-12 * want).all()


class TestNoPerStepReachPass:
    def test_synthesis_builds_no_polygon_after_warm_up(self):
        rng = np.random.default_rng(11)
        n_agents, K, _, omega = _random_problem(rng, max_agents=5)
        B = AgentModel(0.2).B
        model = DmdModel(K=K, residual=0.0, rank_used=len(K))
        x = rng.normal(size=len(K))
        polys = agent_reach_polygon(K, B, x, omega)
        synthesize_fdi((0, 1), model, omega, x, B, polys)
        with mock.patch.object(attack, "agent_reach_polygon",
                               wraps=attack.agent_reach_polygon) as reach, \
                mock.patch.object(reachset, "agent_polygon",
                                  wraps=reachset.agent_polygon) as polygon:
            for _ in range(3):
                x = K @ x
                synthesize_fdi((0, 1), model, omega, x, B, polys)
        assert reach.call_count == 0
        assert polygon.call_count == 0
