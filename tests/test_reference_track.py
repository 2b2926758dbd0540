"""The array-valued reference and the cumulative-sum track return the bytes of
the per-step sampling and velocity loop in `track_oracle`, signed zeros
included, and reject malformed references at the track.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from track_oracle import (complete, raw_velocities, sample, scalar_reference,
                          track_loop)

from ncsred.errors import InvalidInputError
from ncsred.ncs import ReferenceTrack, reference
from ncsred.scenario_io import build_scenario, initial_states_from_box

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

DTS = (0.013, 0.2, 1.7)


def assert_track_bytes(track, want):
    """`track` holds the oracle's (pos, vel, acc) bytes, zero signs included."""
    pos, vel, acc = want
    assert track.states[:, [0, 2]].tobytes() == pos.tobytes()
    assert track.states[:, [1, 3]].tobytes() == vel.tobytes()
    assert track.acc.tobytes() == acc.tobytes()


def table_reference(samples):
    """(array-valued, scalar-valued) references reading rows of `samples`."""
    return (lambda ks: samples[ks]), (lambda k: samples[k])


class TestReference:
    def test_rows_match_scalar_calls(self):
        ks = np.arange(200_000)
        want = np.array([scalar_reference(int(k)) for k in ks])
        assert reference(ks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 77, 503])
    def test_scalar_step_is_one_row(self, k):
        got = reference(k)
        assert got.shape == (4,)
        assert got.tobytes() == scalar_reference(k).tobytes()

    def test_names_most_negative_step(self):
        with pytest.raises(InvalidInputError, match="got -7"):
            reference(np.array([3, -2, -7, 0]))
        with pytest.raises(InvalidInputError, match="got -1"):
            reference(-1)


class TestTrackBytes:
    @pytest.mark.parametrize("dt", DTS)
    def test_default_reference_horizons_1_to_600(self, dt):
        # the loop's velocities at a step depend only on earlier steps, so one
        # loop over the longest horizon gives every shorter horizon's prefix;
        # the copy keeps the loop's column-major layout, which sets how the
        # ripple correction's column sums round
        pos = sample(scalar_reference, 602)[:, [0, 2]]
        vel = raw_velocities(pos, dt)
        for h in range(1, 601):
            want = complete(pos[:h + 3], np.array(vel[:h + 3], order="F"), dt)
            assert_track_bytes(ReferenceTrack(reference, h, dt), want)

    @pytest.mark.parametrize("dt", DTS)
    def test_default_reference_horizon_2500(self, dt):
        assert_track_bytes(ReferenceTrack(reference, 2500, dt),
                           track_loop(scalar_reference, 2500, dt))

    @pytest.mark.parametrize("dt", DTS)
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, -3.5])
    @pytest.mark.parametrize("horizon", [1, 2, 7, 150])
    def test_constant_references(self, dt, value, horizon):
        samples = np.full((horizon + 3, 4), value)
        new, old = table_reference(samples)
        assert_track_bytes(ReferenceTrack(new, horizon, dt),
                           track_loop(old, horizon, dt))

    def test_signed_zero_samples(self):
        # a position column of zeros with mixed signs keeps the velocity at
        # exact zeros, and their signs reach the output through the ripple
        # correction and the accelerations; the other column moves or not
        rng = np.random.default_rng(20)
        signs_seen = set()
        for case in range(400):
            horizon = int(rng.integers(1, 30))
            samples = rng.choice([0.0, -0.0], size=(horizon + 3, 4))
            if case % 2:
                samples[:, 2] = rng.choice([0.0, -0.0, 1.0, -1.0, 0.25], size=horizon + 3)
            dt = float(rng.choice([0.013, 0.2, 0.5, 1.7]))
            new, old = table_reference(samples)
            want = track_loop(old, horizon, dt)
            assert_track_bytes(ReferenceTrack(new, horizon, dt), want)
            for out in want[1:]:
                signs_seen.update(np.signbit(out[out == 0.0]).tolist())
        assert signs_seen == {False, True}

    @PROPERTY
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           horizon=st.integers(min_value=1, max_value=40),
           dt=st.floats(min_value=1e-3, max_value=10.0),
           scale=st.sampled_from([1e-310, 1e-3, 1.0, 1e6]),
           zero_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_random_references(self, seed, horizon, dt, scale, zero_frac):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1.0, 1.0, size=(horizon + 3, 4)) * scale
        zeros = rng.random(samples.shape) < zero_frac
        samples[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        def column_major(ks):
            return np.asfortranarray(samples[ks])

        new, old = table_reference(samples)
        assert_track_bytes(ReferenceTrack(column_major if seed % 2 else new, horizon, dt),
                           track_loop(old, horizon, dt))


class TestTrackErrors:
    def test_scalar_only_reference_is_named(self):
        with pytest.raises(InvalidInputError, match=r"expected \(13, 4\)"):
            ReferenceTrack(lambda k: np.zeros(4), 10, 0.2)
        with pytest.raises(InvalidInputError, match=r"gave \(4,\)"):
            build_scenario(horizon_steps=10, ref_fn=lambda k: np.zeros(4))

    def test_wrong_row_count_is_named(self):
        with pytest.raises(InvalidInputError, match=r"gave \(12, 4\)"):
            ReferenceTrack(lambda ks: np.zeros((len(ks) - 1, 4)), 10, 0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_step_is_named(self, bad):
        samples = np.zeros((13, 4))
        samples[5, 1] = bad
        samples[9, 0] = bad
        with pytest.raises(InvalidInputError, match="step 5 is not finite"):
            ReferenceTrack(table_reference(samples)[0], 10, 0.2)


def _box_loop(n_agents, box, seed):
    rng = np.random.default_rng(seed)
    out = np.zeros((n_agents, 4))
    for i in range(n_agents):
        out[i, 0] = rng.uniform(box[0], box[1])
        out[i, 2] = rng.uniform(box[0], box[1])
    return out


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_agents=st.integers(min_value=1, max_value=40),
       lo=st.floats(min_value=-1e6, max_value=1e6),
       width=st.floats(min_value=0.0, max_value=1e6))
def test_initial_states_from_box_match_per_agent_draws(seed, n_agents, lo, width):
    box = (lo, lo + width)
    got = initial_states_from_box(n_agents, box, seed)
    assert got.tobytes() == _box_loop(n_agents, box, seed).tobytes()
