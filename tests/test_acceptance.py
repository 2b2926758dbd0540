"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The 10-seed experiment
triplets are simulated once per session and shared across criteria.
"""
import os
import time

import numpy as np
import pytest

from ncsred import dmd, harness
from ncsred.attack import plan_dos
from ncsred.graph import Graph, algebraic_connectivity, laplacian, remove_edge
from ncsred.laprec import recover, schur_block
from ncsred.ncs import stacked_closed_loop
from ncsred.reachset import (agent_polygon, circumscribe_ball,
                             planar_directions, polygon_distance,
                             reach_support)
from ncsred.scenario_io import build_scenario

N_SEEDS = 10
FIG_EDGES = frozenset({(0, 1), (0, 2), (1, 3), (2, 4)})


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def experiment_runs():
    """Nominal / fdi / fdi_dos triplets of the 5-UAV experiment, 10 seeds."""
    out = {}
    for seed in range(N_SEEDS):
        scenario = build_scenario(seed=seed)
        entry = {"scenario": scenario}
        for mode in ("nominal", "fdi", "fdi_dos"):
            t0 = time.perf_counter()
            record = harness.run(scenario, mode)
            entry[mode] = record
            entry[f"{mode}_time"] = time.perf_counter() - t0
        out[seed] = entry
    return out


def test_criterion_1_nominal_formation(experiment_runs):
    ok = True
    worst_pair = worst_track = worst_time = 0.0
    for seed, entry in experiment_runs.items():
        m = harness.metrics(entry["nominal"])
        worst_pair = max(worst_pair, float(m.pair_final.max()))
        worst_track = max(worst_track, m.leader_tracking_final)
        worst_time = max(worst_time, entry["nominal_time"])
        ok &= m.pair_final.max() < 0.1 and m.leader_tracking_final < 0.1
        ok &= entry["nominal_time"] < 5.0
        rho_M = np.abs(np.linalg.eigvals(stacked_closed_loop(entry["scenario"]))).max()
        ok &= rho_M < 1.0
    report("criterion 1: nominal formation and tracking", ok,
           f"worst final pair {worst_pair:.2e} m, worst leader tracking "
           f"{worst_track:.2e} m, worst runtime {worst_time:.2f} s")


def test_criterion_2_dmd_exactness(experiment_runs):
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    M = 0.99 * Q
    buf = dmd.SnapshotBuffer(20, 8)
    x = rng.normal(size=8)
    for _ in range(21):
        buf.push(x)
        x = M @ x
    err_map = np.linalg.norm(dmd.fit(buf).K - M)

    record = experiment_runs[0]["nominal"]
    rels = []
    for fit_at in (150, 300, 450):
        buf = dmd.SnapshotBuffer(50, record.states.shape[1])
        for k in range(fit_at - 50, fit_at + 1):
            buf.push(record.states[k])
        model = dmd.fit(buf)
        pred = model.predict(record.states[fit_at])
        rels.append(np.linalg.norm(pred - record.states[fit_at + 1])
                    / np.linalg.norm(record.states[fit_at + 1]))
    ok = err_map <= 1e-6 and max(rels) <= 1e-4
    report("criterion 2: identification exactness", ok,
           f"|K-M|_F {err_map:.2e}, worst steady prediction {max(rels):.2e}")


def test_criterion_3_reachability_soundness():
    rng = np.random.default_rng(42)
    n_mc = 10_000
    ok = True
    worst_slack = -np.inf
    worst_attain = 0.0
    for _ in range(1000):
        dim = 8
        K = rng.normal(size=(dim, dim))
        K *= rng.uniform(0.5, 0.98) / np.abs(np.linalg.eigvals(K)).max()
        B = rng.normal(size=(dim, 2))
        h = int(rng.integers(1, 6))
        s = int(rng.integers(3, 9))
        rho = rng.uniform(0.02, 0.5)
        omega = circumscribe_ball(rho, s, seed=int(rng.integers(1 << 30)))
        x0 = rng.normal(size=dim)
        agent = int(rng.integers(2))
        dirs = planar_directions(8)
        lifts = np.zeros((8, dim))
        lifts[:, 4 * agent] = dirs[:, 0]
        lifts[:, 4 * agent + 2] = dirs[:, 1]
        gammas = np.empty(8)
        points = np.empty((8, dim))
        for i in range(8):
            gammas[i], points[i] = reach_support(K, h, B, x0, omega, lifts[i])
        attain = np.abs(np.einsum("ij,ij->i", lifts, points) - gammas).max()
        worst_attain = max(worst_attain, attain)
        ok &= attain <= 1e-9

        # admissible endpoints: vertex picks plus interior convex combinations
        idx = rng.integers(0, s, size=(8000, h))
        w = rng.exponential(size=(2000, h, s))
        w /= w.sum(axis=2, keepdims=True)
        X = np.tile(x0, (n_mc, 1))
        for step_i in range(h):
            U = np.vstack([omega.vertices[idx[:, step_i]],
                           w[:, step_i, :] @ omega.vertices])
            X = X @ K.T + U @ B.T
        slack = (X @ lifts.T - gammas[None, :]).max()
        worst_slack = max(worst_slack, slack)
        ok &= slack <= 1e-9
    report("criterion 3: reachable-set soundness", ok,
           f"worst halfspace violation {worst_slack:.2e}, "
           f"worst support attainment gap {worst_attain:.2e}")


def test_criterion_4_polygon_distance_oracle():
    from scipy.spatial import cKDTree  # exact nearest-neighbour over samples

    def hull(points):
        # Andrew monotone chain, an independent convex-hull construction
        pts = sorted(map(tuple, points))

        def turn(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        def half(seq):
            out = []
            for p in seq:
                while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                    out.pop()
                out.append(p)
            return out
        lower = half(pts)
        upper = half(reversed(pts))
        return np.array(lower[:-1] + upper[:-1])

    def boundary_samples(v, n):
        segs = np.roll(v, -1, axis=0) - v
        lens = np.linalg.norm(segs, axis=1)
        counts = np.maximum(2, np.round(n * lens / lens.sum()).astype(int))
        pts = [v]
        for i, cnt in enumerate(counts):
            t = np.linspace(0.0, 1.0, cnt, endpoint=False)[:, None]
            pts.append(v[i][None, :] + t * segs[i][None, :])
        return np.vstack(pts)

    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for _ in range(200):
        va = hull(rng.normal(scale=2.0, size=(int(rng.integers(5, 13)), 2)))
        shift = rng.normal(size=2)
        shift *= rng.uniform(8.0, 16.0) / np.linalg.norm(shift)
        vb = hull(rng.normal(scale=2.0, size=(int(rng.integers(5, 13)), 2))) + shift
        dirs_a = _outward_normals(va)
        dirs_b = _outward_normals(vb)
        P = agent_polygon(dirs_a, 0, np.einsum("ij,ij->i", dirs_a, va))
        Q = agent_polygon(dirs_b, 1, np.einsum("ij,ij->i", dirs_b, vb))
        got = polygon_distance(P, Q)
        tree = cKDTree(boundary_samples(vb, 10_000))
        oracle = tree.query(boundary_samples(va, 10_000))[0].min()
        worst = max(worst, abs(got - oracle))
        ok &= abs(got - oracle) < 1e-4
    report("criterion 4: polygon distance vs boundary oracle", ok,
           f"worst gap {worst:.2e} over 200 pairs")


def _outward_normals(v):
    segs = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([segs[:, 1], -segs[:, 0]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    centroid = v.mean(axis=0)
    flip = np.einsum("ij,ij->i", normals, v - centroid) < 0
    normals[flip] *= -1
    return normals


def test_criterion_5_attack_effect_ordering(experiment_runs):
    ok_a = ok_b = True
    c_hits = 0
    worst_time = 0.0
    for seed, entry in experiment_runs.items():
        mn = harness.metrics(entry["nominal"])
        mf = harness.metrics(entry["fdi"])
        md = harness.metrics(entry["fdi_dos"])
        worst_time = max(worst_time, entry["fdi_time"], entry["fdi_dos_time"])
        # (a) on the steady window: the shared convergence transient dominates
        # any earlier interval and would tie the two runs
        ok_a &= mf.steady_tracking_max > mn.steady_tracking_max
        ok_b &= mf.pair_final.max() < 1.0
        c_hits += (md.pair_max.max() > mf.pair_max.max()
                   and md.pair_final.max() > mf.pair_final.max())
    ok = ok_a and ok_b and c_hits >= 9 and worst_time < 60.0
    report("criterion 5: attack effect ordering", ok,
           f"(a) all={ok_a}, (b) all={ok_b}, (c) {c_hits}/10, "
           f"worst attacked runtime {worst_time:.1f} s")


def test_criterion_6_laplacian_recovery():
    L0 = laplacian(Graph(5, FIG_EDGES))
    ok = True
    worst_gamma = 0.0
    worst_iters = 0
    rng = np.random.default_rng(3)
    for seed in range(20):
        T0 = rng.normal(size=(4, 4))
        S0 = np.zeros((20, 20))
        for i in range(5):
            S0[4 * i:4 * i + 4, 4 * i:4 * i + 4] = rng.normal(size=(4, 4))
        K = S0 + np.kron(L0, T0)
        result = recover(K, threshold=1e-6, max_iters=100)
        off = result.model.L - np.diag(np.diag(result.model.L))
        mx = np.abs(off).max()
        pattern = {(i, j) for i in range(5) for j in range(i + 1, 5)
                   if off[i, j] < -0.5 * mx}
        ok &= result.gamma < 1e-6
        ok &= result.iterations <= 100
        ok &= pattern == set(FIG_EDGES)
        worst_gamma = max(worst_gamma, result.gamma)
        worst_iters = max(worst_iters, result.iterations)

    schur_ok = True
    for _ in range(50):
        R = rng.normal(size=(8, 8))
        sn = np.linalg.norm(R, 2)
        schur_ok &= np.linalg.eigvalsh(schur_block(R, sn * (1 + 1e-9))).min() >= -1e-9
        schur_ok &= np.linalg.eigvalsh(schur_block(R, sn * 0.999)).min() < 0
    ok &= schur_ok
    report("criterion 6: structure recovery on constructed instances", ok,
           f"worst gamma {worst_gamma:.2e}, worst sweeps {worst_iters}, "
           f"Schur equivalence {schur_ok}")


def test_criterion_7_dos_targeting():
    L0 = laplacian(Graph(5, FIG_EDGES))
    plan = plan_dos(L0)
    g2 = remove_edge(Graph(5, FIG_EDGES), *plan.edge)
    lam2, _ = algebraic_connectivity(g2)
    ok = plan.node == 4 and plan.edge == (2, 4) and lam2 <= 1e-12
    report("criterion 7: DoS targeting from the exact Laplacian", ok,
           f"node {plan.node}, edge {plan.edge}, post-removal lambda2 {lam2:.1e}")


def test_criterion_8_budget_invariant(experiment_runs):
    rng = np.random.default_rng(5)
    ok = True
    checked = 0
    for seed, entry in experiment_runs.items():
        scenario = entry["scenario"]
        cfg = scenario.attack
        omega = circumscribe_ball(cfg.rho, cfg.s,
                                  seed=scenario.rng_seed + harness.OMEGA_SEED_OFFSET,
                                  jitter=cfg.vertex_jitter)
        ang = rng.uniform(0, 2 * np.pi, 10_000)
        r = cfg.rho * np.sqrt(rng.uniform(0, 1, 10_000))
        disc = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        ok &= bool(np.all(disc @ omega.normals.T <= omega.offsets[None, :] + 1e-12))
        for mode in ("fdi", "fdi_dos"):
            for d in entry[mode].decisions:
                if d is None:
                    continue
                for a in d.targets:
                    ok &= omega.contains(d.u_a[2 * a:2 * a + 2], tol=1e-12)
                    checked += 1
    report("criterion 8: injection budget containment", ok,
           f"{checked} injections checked against their polytopes")


def test_criterion_9_determinism(experiment_runs, tmp_path_factory):
    ok = True
    for mode in ("nominal", "fdi", "fdi_dos"):
        d1 = tmp_path_factory.mktemp(f"det_{mode}_a")
        d2 = tmp_path_factory.mktemp(f"det_{mode}_b")
        harness.emit(experiment_runs[0][mode], d1)
        scenario = build_scenario(seed=0)
        harness.emit(harness.run(scenario, mode), d2)
        for name in sorted(os.listdir(d1)):
            same = (d1 / name).read_bytes() == (d2 / name).read_bytes()
            ok &= same
    report("criterion 9: seeded runs emit byte-identical artifacts", ok)
