import numpy as np
import pytest

from ncsred.dmd import DmdModel, SnapshotBuffer, fit
from ncsred.errors import InsufficientDataError, InvalidInputError
from ncsred.harness import run
from ncsred.scenario_io import build_scenario


def trajectory_buffer(M, x0, n_cols, width=None):
    width = n_cols - 1 if width is None else width
    buf = SnapshotBuffer(width, M.shape[0])
    x = np.asarray(x0, float)
    for _ in range(n_cols):
        buf.push(x)
        x = M @ x
    return buf


class TestSnapshotBuffer:
    def test_one_sample_not_fittable(self):
        buf = SnapshotBuffer(5, 3)
        buf.push(np.ones(3))
        assert not buf.can_fit
        with pytest.raises(InsufficientDataError):
            fit(buf)

    def test_full_buffer_overlap(self):
        buf = SnapshotBuffer(4, 2)
        for k in range(5):
            buf.push(np.array([k, -k], float))
        assert buf.is_full
        X, Xp = buf.X, buf.X_plus
        assert X.shape == (2, 4) and Xp.shape == (2, 4)
        assert np.array_equal(X[:, 1:], Xp[:, :-1])

    def test_eviction(self):
        buf = SnapshotBuffer(4, 2)
        for k in range(6):
            buf.push(np.array([k, 0], float))
        assert buf.X[0, 0] == 1.0  # first sample evicted

    def test_dimension_check(self):
        buf = SnapshotBuffer(4, 2)
        with pytest.raises(InvalidInputError):
            buf.push(np.zeros(3))


class TestFit:
    def test_exact_recovery_of_linear_map(self):
        rng = np.random.default_rng(0)
        # orthogonal map keeps every mode alive over the window
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        M = 0.99 * Q
        buf = trajectory_buffer(M, rng.normal(size=8), 21, width=20)
        model = fit(buf)
        assert np.linalg.norm(model.K - M) <= 1e-6
        assert model.rank_used == 8

    def test_scalar_decay(self):
        buf = trajectory_buffer(np.array([[0.5]]), np.array([1.0]), 6)
        model = fit(buf)
        assert model.K == pytest.approx(np.array([[0.5]]), abs=1e-14)

    def test_constant_data_acts_as_identity_on_span(self):
        buf = SnapshotBuffer(5, 3)
        c = np.array([1.0, -2.0, 0.5])
        for _ in range(6):
            buf.push(c)
        model = fit(buf)
        assert np.allclose(model.K @ c, c, atol=1e-12)
        assert model.residual == pytest.approx(0.0, abs=1e-12)
        assert model.rank_used == 1

    def test_refit_bit_identical(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        buf = trajectory_buffer(0.9 * Q, rng.normal(size=4), 10)
        a = fit(buf, svd_tol=1e-10)
        b = fit(buf, svd_tol=1e-10)
        assert np.array_equal(a.K, b.K)
        assert a.residual == b.residual

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(4)
        buf = SnapshotBuffer(12, 4)
        for _ in range(13):
            buf.push(rng.normal(size=4))
        model = fit(buf)
        X, Xp = buf.X, buf.X_plus
        base = np.linalg.norm(Xp - model.K @ X)
        for _ in range(50):
            dK = rng.normal(size=(4, 4))
            dK *= 1e-3 / np.linalg.norm(dK)
            assert np.linalg.norm(Xp - (model.K + dK) @ X) >= base - 1e-9

    def test_cond_is_the_kept_condition_number(self):
        rng = np.random.default_rng(5)
        buf = SnapshotBuffer(12, 6)
        for _ in range(13):
            buf.push(rng.normal(size=6) * np.array([1, 1, 1, 1e-6, 1e-12, 1e-14]))
        sig = np.linalg.svd(buf.X, full_matrices=False)[1]  # fit's LAPACK path
        for svd_tol, rank in ((1e-10, 4), (1e-2, 3)):
            model = fit(buf, svd_tol=svd_tol)
            assert model.rank_used == rank
            assert model.cond == sig[0] / sig[rank - 1]

    @pytest.mark.parametrize("data, svd_tol", [(0.0, 1e-10), (1.0, 1.0)],
                             ids=["zero-window", "tolerance-cuts-all"])
    def test_cond_is_inf_at_rank_zero(self, data, svd_tol):
        buf = SnapshotBuffer(4, 3)
        for k in range(5):
            buf.push(np.full(3, data * (k + 1)))
        model = fit(buf, svd_tol=svd_tol)
        assert model.rank_used == 0 and model.cond == np.inf
        assert not model.K.any()

    def test_residual_keeps_its_bytes_on_a_normal_window(self):
        """Scaling the window by a power of two before the norms is exact:
        the residual is the unscaled ratio's float."""
        rng = np.random.default_rng(6)
        buf = SnapshotBuffer(9, 3)
        for _ in range(10):
            buf.push(rng.normal(scale=1e3, size=3))
        model = fit(buf)
        X, Xp = buf.X, buf.X_plus
        want = np.linalg.norm(Xp - model.K @ X) / np.linalg.norm(Xp)
        assert model.residual > 0.1 and model.residual == want

    def test_residual_of_a_window_past_the_norms_range(self):
        """A window whose squares overflow (entries about 2^600) gives the
        finite residual of the same window at unit scale."""
        rng = np.random.default_rng(7)
        cols = rng.normal(size=(10, 3))
        small, large = SnapshotBuffer(9, 3), SnapshotBuffer(9, 3)
        for col in cols:
            small.push(col)
            large.push(np.ldexp(col, 600))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert np.isinf(np.linalg.norm(large.X_plus))
        want = fit(small).residual
        got = fit(large).residual
        assert want > 0.1 and got == pytest.approx(want, rel=1e-12)

    def test_hand_built_model_has_no_cond(self):
        assert np.isnan(DmdModel(K=np.eye(2), residual=0.0, rank_used=2).cond)


class TestPredict:
    def test_identity(self):
        m = DmdModel(K=np.eye(3), residual=0.0, rank_used=3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(m.predict(x), x)

    def test_scalar(self):
        buf = trajectory_buffer(np.array([[0.5]]), np.array([1.0]), 6)
        model = fit(buf)
        assert model.predict(np.array([2.0])) == pytest.approx(1.0, abs=1e-14)

    def test_mismatch(self):
        m = DmdModel(K=np.eye(3), residual=0.0, rank_used=3)
        with pytest.raises(InvalidInputError):
            m.predict(np.zeros(4))


class TestOnExperimentRun:
    def test_one_step_prediction_in_steady_regime(self):
        s = build_scenario(seed=0, horizon_steps=301)
        record = run(s, "nominal")
        buf = SnapshotBuffer(50, s.dim)
        for k in range(101):
            buf.push(record.states[k])
        model = fit(buf)
        pred = model.predict(record.states[100])
        rel = np.linalg.norm(pred - record.states[101]) / np.linalg.norm(record.states[101])
        assert rel < 1e-6
        # later window, deeper into the steady regime
        buf = SnapshotBuffer(50, s.dim)
        for k in range(250, 301):
            buf.push(record.states[k])
        model = fit(buf)
        pred = model.predict(record.states[300])
        rel = np.linalg.norm(pred - record.states[301]) / np.linalg.norm(record.states[301])
        assert rel < 1e-6
