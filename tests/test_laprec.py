import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laprec_oracle
from ncsred.errors import InvalidInputError
from ncsred.graph import Graph, laplacian
from ncsred.laprec import (KroneckerModel, l_step, project_laplacian_cone,
                           recover, residual_gamma, s_step, schur_block, t_step)

FIG_L = laplacian(Graph(5, frozenset({(0, 1), (0, 2), (1, 3), (2, 4)})))


def in_cone(L, tol=1e-8):
    return (np.abs(L - L.T).max() <= tol
            and np.abs(L @ np.ones(len(L))).max() <= tol
            and np.linalg.eigvalsh((L + L.T) / 2).min() >= -tol)


def block_diag_S(rng, n_agents):
    S = np.zeros((4 * n_agents, 4 * n_agents))
    for i in range(n_agents):
        S[4 * i:4 * i + 4, 4 * i:4 * i + 4] = rng.normal(size=(4, 4))
    return S


def edge_pattern(L):
    n = len(L)
    off = L - np.diag(np.diag(L))
    mx = np.abs(off).max()
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if off[i, j] < -0.5 * mx}


class TestProjectLaplacianCone:
    def test_laplacian_is_fixed_point(self):
        L = laplacian(Graph(3, frozenset({(0, 1), (1, 2)})))
        assert np.abs(project_laplacian_cone(L) - L).max() < 1e-10

    def test_zero_is_fixed_point(self):
        assert np.abs(project_laplacian_cone(np.zeros((4, 4)))).max() == 0.0

    def test_negative_identity(self):
        # -I has no candidate-Laplacian component: for every cone member L,
        # <-I, L> = -tr(L) <= 0, so the projection is exactly 0
        P = project_laplacian_cone(-np.eye(3))
        assert np.abs(P).max() < 1e-9
        assert in_cone(P)
        # corroborate optimality against a coarse grid over the cone
        base = np.linalg.norm(P + np.eye(3))
        grid = np.linspace(-1.5, 0.0, 16)
        for a in grid:
            for b in grid:
                for c in grid:
                    cand = np.array([[-a - b, a, b],
                                     [a, -a - c, c],
                                     [b, c, -b - c]])
                    if np.linalg.eigvalsh(cand).min() < -1e-12:
                        continue
                    assert base <= np.linalg.norm(cand + np.eye(3)) + 1e-9

    def test_output_in_cone(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            M = rng.normal(size=(5, 5))
            assert in_cone(project_laplacian_cone(M))

    def test_projection_optimality_on_random_inputs(self):
        # nearest-point property: no cone member may be closer
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            P = project_laplacian_cone(M)
            base = np.linalg.norm(P - M)
            for _ in range(40):
                cand = project_laplacian_cone(M + rng.normal(scale=0.3, size=(4, 4)))
                assert base <= np.linalg.norm(cand - M) + 1e-8

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            project_laplacian_cone(np.zeros((2, 3)))


def _projection_input(kind, seed, n, log_scale):
    """An n x n matrix of magnitude 10**log_scale: a random matrix, or a
    random weighted Laplacian that is kept, negated or perturbed."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        M = rng.normal(size=(n, n))
    else:
        W = np.triu(rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        M = np.diag((W + W.T).sum(axis=1)) - W - W.T
        M = {"laplacian": M, "negated": -M,
             "perturbed": M + 0.1 * rng.normal(size=(n, n))}[kind]
    return M * 10.0 ** log_scale


def _cone_members(rng, P, scale):
    """0, P, 2P and random candidate Laplacians C C^T of about the given
    scale (the columns of C sum to 0)."""
    n = len(P)
    members = [np.zeros_like(P), P, 2.0 * P]
    for _ in range(8):
        G = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        C = (G - G.mean(axis=0)) * scale ** 0.5
        members.append(C @ C.T)
    return members


class TestProjectionProperties:
    """The closed form against the Dykstra loop it replaced (`laprec_oracle`)
    and against what makes P the nearest point of a convex cone to M: P is
    in the cone, <M - P, X - P> <= 0 for every cone member X (the
    variational inequality), and P projects to itself."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["random", "laplacian", "negated", "perturbed"]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           n=st.integers(min_value=2, max_value=11),
           log_scale=st.floats(min_value=-3.0, max_value=3.0))
    def test_nearest_point(self, kind, seed, n, log_scale):
        M = _projection_input(kind, seed, n, log_scale)
        P = project_laplacian_cone(M)
        tol = 1e-12 * max(1.0, np.linalg.norm(P))
        assert np.abs(P - laprec_oracle.project_laplacian_cone(M)).max() <= tol
        assert np.array_equal(P, P.T)
        scale = max(1.0, np.linalg.norm(M))
        assert in_cone(P, tol=1e-12 * scale)
        rng = np.random.default_rng(seed)
        for X in _cone_members(rng, P, scale):
            gap = np.linalg.norm(X - P)
            assert np.sum((M - P) * (X - P)) <= 1e-12 * scale * max(1.0, gap)
        assert np.abs(project_laplacian_cone(P) - P).max() <= tol


class TestFactorSteps:
    def test_s_step_exact_on_constructed(self):
        rng = np.random.default_rng(4)
        T0 = rng.normal(size=(4, 4))
        S0 = block_diag_S(rng, 3)
        L0 = laplacian(Graph(3, frozenset({(0, 1), (1, 2)})))
        K = S0 + np.kron(L0, T0)
        assert np.allclose(s_step(K, T0, L0), S0, atol=1e-12)

    def test_l_step_recovers_structure(self):
        rng = np.random.default_rng(5)
        T0 = rng.normal(size=(4, 4))
        L0 = laplacian(Graph(3, frozenset({(0, 1), (1, 2)})))
        K = np.kron(L0, T0)
        L = l_step(K, T0)
        assert np.allclose(L, L0, atol=1e-10)

    def test_l_step_with_zero_T_flags_regularized(self):
        rng = np.random.default_rng(6)
        K = rng.normal(size=(12, 12))
        # RIDGE keeps the division finite, so a zero T gives a zero L
        L = l_step(K, np.zeros((4, 4)))
        assert np.abs(L).max() == 0.0

    def test_t_step_least_squares(self):
        rng = np.random.default_rng(7)
        T0 = rng.normal(size=(4, 4))
        S0 = block_diag_S(rng, 3)
        L0 = laplacian(Graph(3, frozenset({(0, 1), (1, 2)})))
        K = S0 + np.kron(L0, T0)
        T = t_step(K, L0)
        assert np.allclose(T, T0, atol=1e-10)

    def test_steps_never_increase_frobenius_residual(self):
        # each update pairs with the exact S for its factors, so the full
        # objective is non-increasing step by step
        rng = np.random.default_rng(9)
        K = rng.normal(size=(12, 12))
        T = rng.normal(size=(4, 4))
        L = project_laplacian_cone(rng.normal(size=(3, 3)))

        def frob(T_, L_):
            return np.linalg.norm(K - s_step(K, T_, L_) - np.kron(L_, T_))

        base = frob(T, L)
        L2 = l_step(K, T)                # unprojected least-squares update
        assert frob(T, L2) <= base + 1e-12
        T2 = t_step(K, L2)
        assert frob(T2, L2) <= frob(T, L2) + 1e-12
        # the S-step itself is the exact minimizer given (T2, L2)
        S_opt = s_step(K, T2, L2)
        S_other = s_step(K, T, L)
        assert (np.linalg.norm(K - S_opt - np.kron(L2, T2))
                <= np.linalg.norm(K - S_other - np.kron(L2, T2)) + 1e-12)


def close(got, want, ref=None):
    """got == want within 1e-9 of the largest magnitude of ref (default want)."""
    return np.abs(got - want).max() <= 1e-9 * np.abs(want if ref is None else ref).max()


class TestScaleEquivariance:
    """Why `recover` can start from T = I and draw nothing: every sweep step
    commutes with the rescaling (c T, L / c), so a start c I would only scale
    the iterates' L by 1 / c and T by c and leave S alone. Each check holds
    within 1e-9 of the magnitude of its result (of its input, for the
    projection, whose result may be 0)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           n_agents=st.integers(min_value=2, max_value=8),
           c=st.floats(min_value=0.1, max_value=10.0))
    def test_sweep_steps(self, seed, n_agents, c):
        rng = np.random.default_rng(seed)
        K = rng.normal(scale=rng.uniform(0.1, 10.0), size=(4 * n_agents,) * 2)
        T = rng.normal(size=(4, 4))
        M = rng.normal(size=(n_agents, n_agents))
        # a complete graph's Laplacian, weights in [0.5, 2]: its off-diagonal
        # mass keeps t_step's RIDGE far below 1e-9 of it for every c
        W = np.triu(rng.uniform(0.5, 2.0, size=(n_agents, n_agents)), 1)
        L = np.diag((W + W.T).sum(axis=1)) - W - W.T
        assert close(l_step(K, c * T), l_step(K, T) / c)
        assert close(project_laplacian_cone(M / c), project_laplacian_cone(M) / c,
                     ref=M / c)
        assert close(t_step(K, L / c), c * t_step(K, L))
        assert close(s_step(K, c * T, L / c), s_step(K, T, L))


class TestRecover:
    def test_constructed_instance_exact(self):
        rng = np.random.default_rng(10)
        T0 = rng.normal(size=(4, 4))
        S0 = block_diag_S(rng, 5)
        K = S0 + np.kron(FIG_L, T0)
        result = recover(K)
        assert result.gamma < 1e-6
        assert result.iterations <= 100
        assert edge_pattern(result.model.L) == {(0, 1), (0, 2), (1, 3), (2, 4)}
        assert in_cone(result.model.L)

    def test_sign_branches(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            T0 = rng.normal(size=(4, 4))  # trace sign varies across trials
            S0 = block_diag_S(rng, 5)
            K = S0 + np.kron(FIG_L, T0)
            result = recover(K)
            assert result.gamma < 1e-6, f"trial {trial}"
            assert edge_pattern(result.model.L) == {(0, 1), (0, 2), (1, 3), (2, 4)}

    def test_scale_invariant_structure(self):
        rng = np.random.default_rng(12)
        T0 = rng.normal(size=(4, 4))
        S0 = block_diag_S(rng, 4)
        L0 = laplacian(Graph(4, frozenset({(0, 1), (1, 2), (2, 3)})))
        for alpha in (0.5, 1.0, 2.0):
            K = S0 + alpha * np.kron(L0, T0)
            result = recover(K)
            assert edge_pattern(result.model.L) == {(0, 1), (1, 2), (2, 3)}

    def test_exact_recovery_across_sizes(self):
        rng = np.random.default_rng(20)
        for n, edges in ((2, {(0, 1)}),
                         (4, {(0, 1), (1, 2), (1, 3)}),
                         (6, {(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)})):
            L0 = laplacian(Graph(n, frozenset(edges)))
            T0 = rng.normal(size=(4, 4))
            K = block_diag_S(rng, n) + np.kron(L0, T0)
            result = recover(K)
            assert result.gamma < 1e-6
            assert edge_pattern(result.model.L) == edges

    def test_zero_matrix(self):
        result = recover(np.zeros((8, 8)))
        assert result.gamma == pytest.approx(0.0, abs=1e-12)
        assert result.trace[0] == pytest.approx(0.0, abs=1e-12)

    def test_trace_best_so_far_non_increasing(self):
        rng = np.random.default_rng(13)
        K = rng.normal(size=(20, 20))  # unstructured: solver must not diverge
        result = recover(K, max_iters=40)
        assert all(b <= a + 1e-12 for a, b in zip(result.trace, result.trace[1:]))
        assert in_cone(result.model.L)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(14)
        K = rng.normal(size=(12, 12))
        # a single sweep can never witness a sub-threshold improvement
        result = recover(K, max_iters=1)
        assert not result.converged
        assert result.iterations == 1

    def test_rejects_bad_side(self):
        with pytest.raises(InvalidInputError):
            recover(np.zeros((10, 10)))

    def test_converges_on_run_identified_operator(self):
        # the operator fitted from eavesdropped experiment data is not exactly
        # factorable; the sweep count must still stay within the budget
        from ncsred.dmd import SnapshotBuffer, fit
        from ncsred.harness import run
        from ncsred.scenario_io import build_scenario

        s = build_scenario(seed=0, horizon_steps=110)
        record = run(s, "nominal")
        buf = SnapshotBuffer(50, s.dim)
        for k in range(101):
            buf.push(record.states[k])
        model = fit(buf, svd_tol=1e-2)
        result = recover(model.K, threshold=1e-6, max_iters=100)
        assert result.iterations <= 100
        assert np.isfinite(result.gamma)
        assert in_cone(result.model.L)
        assert len(result.trace) == len(result.frobenius_trace) == result.iterations


class TestSchurEquivalence:
    def test_block_psd_iff_gamma_bounds_spectral_norm(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            R = rng.normal(size=(6, 6))
            sn = np.linalg.norm(R, 2)
            above = schur_block(R, sn * 1.001)
            below = schur_block(R, sn * 0.999)
            assert np.linalg.eigvalsh(above).min() >= -1e-9
            assert np.linalg.eigvalsh(below).min() < 0

    def test_residual_gamma_is_spectral_norm(self):
        rng = np.random.default_rng(16)
        K = rng.normal(size=(8, 8))
        model = KroneckerModel(S=np.zeros((8, 8)), T=np.zeros((4, 4)),
                               L=np.zeros((2, 2)))
        gamma, frob = residual_gamma(K, model)
        assert gamma == pytest.approx(np.linalg.norm(K, 2), abs=1e-12)
        assert frob == pytest.approx(np.linalg.norm(K), abs=1e-12)
