import numpy as np
import pytest

from ncsred.errors import InvalidInputError
from ncsred.ncs import (AgentModel, control_inputs, reference,
                        stacked_closed_loop, step)
from ncsred.scenario_io import build_scenario
from scenario_helpers import offset_difference, stacked_slots


def zero_reference(k):
    return np.zeros(np.shape(k) + (4,))


def advance(s, k, x, fdi=None):
    """The plant's next state from x at step k under its own control law."""
    return step(s, x, control_inputs(s, k, x), fdi)


def small_scenario(n_agents, edges, leader_gain=None, gain=None, ref_fn=None,
                   offsets=None, horizon=10):
    return build_scenario(
        seed=0, n_agents=n_agents, dt=0.2, horizon_steps=horizon,
        gain=gain, leader_gain=np.zeros((2, 4)) if leader_gain is None else leader_gain,
        edges=edges,
        offsets=np.zeros((n_agents, 4)) if offsets is None else offsets,
        ref_fn=zero_reference if ref_fn is None else ref_fn)


class TestDoubleIntegrator:
    def test_experiment_sampling_period(self):
        m = AgentModel(0.2)
        assert np.allclose(m.A[0], [1.0, 0.2, 0.0, 0.0])
        assert np.allclose(m.B[0], [0.02, 0.0])

    def test_unit_period(self):
        m = AgentModel(1.0)
        assert np.array_equal(m.B, np.array([[0.5, 0], [1, 0], [0, 0.5], [0, 1]], float))

    def test_half_period(self):
        m = AgentModel(0.5)
        assert m.A[0, 1] == 0.5
        assert m.B[0, 0] == 0.125

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            AgentModel(0.0)
        with pytest.raises(InvalidInputError):
            AgentModel(-0.1)


class TestReference:
    def test_start(self):
        assert np.array_equal(reference(0), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_mid(self):
        want = np.array([-50 * np.sin(1.5), 1.0, -50 * np.cos(1.5), 1.0])
        assert np.allclose(reference(50), want, atol=0)

    def test_final(self):
        want = np.array([-500 * np.sin(15.0), 1.0, -500 * np.cos(15.0), 1.0])
        assert np.allclose(reference(500), want, atol=0)


class TestControlInputs:
    def test_on_formation_zero(self):
        s = build_scenario(seed=0, n_agents=5, horizon_steps=10,
                           ref_fn=zero_reference)
        x = stacked_slots(s, 0)
        u = control_inputs(s, 0, x)
        assert np.abs(u).max() < 1e-12

    def test_feedback_vanishes_on_track(self):
        s = build_scenario(seed=0, horizon_steps=10)
        x = stacked_slots(s, 3)
        u = control_inputs(s, 3, x)
        assert np.abs(u - s.track.acc[3]).max() < 1e-9

    def test_two_agent_displacement(self):
        s = small_scenario(2, {(0, 1)})
        delta = 2.5
        x = np.zeros(8)
        x[4] = delta  # agent 1 displaced along x only
        u = control_inputs(s, 0, x)
        assert u[1] == pytest.approx([-0.2263 * delta, 0.0], abs=1e-12)

    def test_matches_hand_assembled_sum(self):
        s = build_scenario(seed=3, horizon_steps=10)
        rng = np.random.default_rng(42)
        x = rng.normal(scale=5.0, size=s.dim)
        k = 4
        u = control_inputs(s, k, x)
        # independent re-evaluation of the control law, written long-hand
        X = x.reshape(5, 4)
        nbrs = {0: [1, 2], 1: [0, 3], 2: [0, 4], 3: [1], 4: [2]}
        ff = s.track.acc[k]
        for i in range(5):
            want = ff.copy()
            for j in nbrs[i]:
                diff = X[i] - X[j] - (s.formation_offsets[i] - s.formation_offsets[j])
                want = want + s.gain @ diff
            if i == 0:
                want = want + s.leader_gain @ (X[0] - s.track.states[k])
            assert np.allclose(u[i], want, atol=1e-12)

    @pytest.mark.parametrize("k", [-1, 12])
    def test_rejects_step_outside_track(self, k):
        """k = -1 would read the last track row and k = horizon + 2 would
        run off the track; both name k and the valid range."""
        s = small_scenario(2, {(0, 1)})
        assert len(s.track.acc) == 12
        with pytest.raises(InvalidInputError,
                           match=rf"step k must be in 0\.\.11, got {k}$"):
            control_inputs(s, k, np.zeros(8))


class TestStep:
    def test_zero_fixed_point(self):
        s = small_scenario(2, {(0, 1)})
        assert np.array_equal(advance(s, 0, np.zeros(8)), np.zeros(8))

    def test_zero_fdi_matches_nominal(self):
        s = build_scenario(seed=1, horizon_steps=10)
        x = np.random.default_rng(0).normal(size=s.dim)
        a = advance(s, 2, x)
        b = advance(s, 2, x, fdi=np.zeros(2 * s.n_agents))
        assert np.array_equal(a, b)

    def test_injection_through_actuator(self):
        s = small_scenario(1, set())
        nxt = advance(s, 0, np.zeros(4), fdi=np.array([1.0, 0.0]))
        assert np.allclose(nxt, [0.02, 0.2, 0.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        s = small_scenario(2, {(0, 1)})
        with pytest.raises(InvalidInputError):
            advance(s, 0, np.zeros(8), fdi=np.zeros(3))

    def test_rejects_shared_input_row(self):
        """A (2,) input would broadcast to every agent."""
        s = small_scenario(2, {(0, 1)})
        with pytest.raises(InvalidInputError, match=r"inputs shape \(2,\) != \(2, 2\)"):
            step(s, np.zeros(8), np.ones(2))

    def test_rejects_state_not_4n(self):
        s = small_scenario(2, {(0, 1)})
        with pytest.raises(InvalidInputError, match=r"state length \(7,\) != 8"):
            step(s, np.zeros(7), np.zeros((2, 2)))


class TestStackedClosedLoop:
    def test_edgeless_no_leader_gain(self):
        s = small_scenario(3, set())
        M = stacked_closed_loop(s)
        A = s.agent_model.A
        want = np.zeros((12, 12))
        for i in range(3):
            want[4 * i:4 * i + 4, 4 * i:4 * i + 4] = A
        assert np.array_equal(M, want)

    def test_two_agent_hand_built(self):
        lg = np.array([[-3.0, -1.0, 0, 0], [0, 0, -3.0, -1.0]])
        s = small_scenario(2, {(0, 1)}, leader_gain=lg)
        A, B = s.agent_model.A, s.agent_model.B
        K = s.gain
        # manual block assembly oracle
        want = np.zeros((8, 8))
        want[0:4, 0:4] = A + B @ K + B @ lg
        want[0:4, 4:8] = -B @ K
        want[4:8, 0:4] = -B @ K
        want[4:8, 4:8] = A + B @ K
        assert np.allclose(stacked_closed_loop(s), want, atol=1e-15)

    def test_experiment_is_stable(self):
        s = build_scenario(seed=0)
        M = stacked_closed_loop(s)
        assert np.abs(np.linalg.eigvals(M)).max() < 1.0


class TestErrorDynamicsConsistency:
    def test_linearity_of_deviations(self):
        s = build_scenario(seed=2, horizon_steps=10)
        M = stacked_closed_loop(s)
        rng = np.random.default_rng(5)
        for k in [0, 3, 7]:
            x1 = rng.normal(scale=10.0, size=s.dim)
            x2 = rng.normal(scale=10.0, size=s.dim)
            d1 = advance(s, k, x1)
            d2 = advance(s, k, x2)
            assert np.allclose(d1 - d2, M @ (x1 - x2), atol=1e-10)

    def test_step_equals_matrix_on_deviations(self):
        s = build_scenario(seed=2, horizon_steps=20)
        M = stacked_closed_loop(s)
        rng = np.random.default_rng(9)
        for k in [0, 5, 19]:
            x = rng.normal(scale=10.0, size=s.dim)
            slots_k = stacked_slots(s, k)
            slots_k1 = stacked_slots(s, k + 1)
            got = advance(s, k, x)
            assert np.allclose(got, M @ (x - slots_k) + slots_k1, atol=1e-10)

    def test_slot_trajectory_invariant(self):
        s = build_scenario(seed=2, horizon_steps=20)
        for k in [0, 10]:
            got = advance(s, k, stacked_slots(s, k))
            assert np.allclose(got, stacked_slots(s, k + 1), atol=1e-9)

    def test_nominal_formation_converges(self):
        s = build_scenario(seed=0)
        x = s.initial_states.reshape(-1)
        for k in range(s.horizon_steps):
            x = advance(s, k, x)
        X = x.reshape(5, 4)
        for i in range(5):
            for j in range(i + 1, 5):
                want = (s.formation_offsets[i] - s.formation_offsets[j])[[0, 2]]
                got = X[i][[0, 2]] - X[j][[0, 2]]
                assert np.linalg.norm(got - want) < 0.1


class TestScenarioValidation:
    def test_graph_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_scenario(seed=0, n_agents=4, edges={(0, 1), (0, 2), (1, 3), (2, 4)})

    def test_offset_antisymmetry_by_construction(self):
        s = build_scenario(seed=0, horizon_steps=5)
        for i in range(5):
            for j in range(5):
                assert np.array_equal(offset_difference(s, i, j),
                                      -offset_difference(s, j, i))
                for m in range(5):
                    assert np.allclose(
                        offset_difference(s, i, j),
                        offset_difference(s, i, m) + offset_difference(s, m, j),
                        atol=1e-12)
