"""Property tests: the batched and vectorised passes return the same bytes as
the per-agent, per-pair and per-step computations they replace.

The benchmark's decision fingerprints allow separations to drift by 1e-9
relative, so these compare with `np.array_equal`, not a tolerance.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_oracle import halfspace_polygon as oracle_polygon

from ncsred.attack import AttackConfig, agent_reach_polygon
from ncsred.errors import DegenerateGeometryError, InvalidInputError
from ncsred.harness import run
from ncsred.reachset import (agent_polygon, batch_reach_supports,
                             circumscribe_ball, embed_input_map,
                             halfspace_polygon, planar_directions)
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _outcome(fn, *args):
    """fn's result, or the DegenerateGeometryError message it raised."""
    try:
        return fn(*args)
    except DegenerateGeometryError as exc:
        return str(exc)


def _random_directions(rng):
    """A uniform fan, or random unit normals that may fail to span the plane,
    with some (nearly) parallel face pairs: a repeated normal, a negated one,
    and normals turned by less than the 1e-12 determinant cut-off."""
    if rng.random() < 0.4:
        return planar_directions(int(rng.integers(3, 25)))
    ang = rng.uniform(-np.pi, np.pi, size=int(rng.integers(3, 20)))
    if rng.random() < 0.5:
        ang = np.concatenate([ang, ang[:2], ang[:1] + np.pi,
                              ang[:2] + rng.uniform(1e-14, 5e-13, size=2)])
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _half_planes(kind, seed):
    rng = np.random.default_rng(seed)
    D = _random_directions(rng)
    if kind == "point":
        return D, D @ rng.normal(scale=5.0, size=2)
    center, spread = rng.normal(scale=5.0, size=2), 2.0
    if kind == "large":
        scale = 10.0 ** rng.uniform(6, 9)
        center, spread = center * scale, spread * rng.choice([1.0, scale])
    pts = center + rng.normal(scale=spread, size=(int(rng.integers(1, 9)), 2))
    g = (pts @ D.T).max(axis=0)
    if kind == "redundant":
        g = g + rng.exponential(3.0, size=len(g)) * (rng.random(len(g)) < 0.5)
    return D, g


class TestHalfspacePolygon:
    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(["support", "redundant", "point",
                                             "large"]))
    def test_matches_all_pairs_oracle(self, seed, kind):
        D, g = _half_planes(kind, seed)
        want = _outcome(oracle_polygon, D, g)
        got = _outcome(halfspace_polygon, D, g)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_cached_directions_are_not_shared_state(self):
        D = planar_directions(8)
        first = halfspace_polygon(D, np.ones(8))
        D[:] = -D[::-1]  # the caller's array changes after the first call
        assert np.array_equal(halfspace_polygon(D, np.ones(8)),
                              oracle_polygon(D, np.ones(8)))
        assert np.array_equal(halfspace_polygon(planar_directions(8), np.ones(8)),
                              first)


class TestBatchedReachPolygons:
    """Stacked (A, m, n) arrays keep `@` at one m-row product per agent, so
    each agent's supports are bit-identical to its own 2-D call. Stacking the
    rows flat as (A*m, n) and multiplying by K.T is not: OpenBLAS takes
    another kernel path from about 30 rows on (n = 40), and on the 10-agent
    horizon-3 benchmark scenarios that moved `separation_before` by up to
    2.9e-9 relative, past the fingerprint's 1e-9.
    """

    @PROPERTY
    @given(seed=seeds, h=st.integers(min_value=1, max_value=3),
           n_agents=st.integers(min_value=1, max_value=10))
    def test_matches_per_agent_supports(self, seed, h, n_agents):
        rng = np.random.default_rng(seed)
        n = 4 * n_agents
        K = rng.normal(size=(n, n))
        K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
        B = rng.normal(size=(4, 2))
        omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                                  seed=int(rng.integers(1000)))
        x0 = rng.normal(scale=10.0, size=n)
        m = int(rng.integers(3, 21))
        agents = rng.choice(n_agents, size=int(rng.integers(1, n_agents + 1)),
                            replace=False)
        got = agent_reach_polygon(K, B, agents, n_agents, x0, omega, m, h)

        dirs = planar_directions(m)
        assert [p.agent for p in got] == agents.tolist()
        for a, poly in zip(agents, got):
            lifts = np.zeros((m, n))
            lifts[:, 4 * a] = dirs[:, 0]
            lifts[:, 4 * a + 2] = dirs[:, 1]
            sup, _ = batch_reach_supports([K] * h, embed_input_map(B, a, n_agents),
                                          x0, omega, lifts)
            want = agent_polygon(dirs, a, sup)
            assert np.array_equal(poly.supports, want.supports)
            assert np.array_equal(poly.vertices, want.vertices)

    def test_rejects_scalar_agent(self):
        omega = circumscribe_ball(0.1, 4)
        with pytest.raises(InvalidInputError):
            agent_reach_polygon(np.eye(8), np.eye(4, 2), 0, 2, np.zeros(8), omega)


def _loop_pair_errors(s, x):
    """Per-pair formation errors of one state, one pair at a time."""
    pos = x.reshape(s.n_agents, 4)[:, [0, 2]]
    out = []
    for i in range(s.n_agents):
        for j in range(i + 1, s.n_agents):
            want = s.offset_difference(i, j)[[0, 2]]
            out.append(np.linalg.norm(pos[i] - pos[j] - want))
    return np.array(out)


def _loop_tracking(s, x, k):
    """Per-agent slot deviations of one state, one agent at a time."""
    X = x.reshape(s.n_agents, 4)
    out = []
    for i in range(s.n_agents):
        slot = s.slot(i, k)
        out.append(np.hypot(X[i, 0] - slot[0], X[i, 2] - slot[2]))
    return np.array(out)


def _tree_scenario(n, horizon):
    """n-agent binary tree (agent a under a // 2), fdi_dos-ready."""
    edges = {((a + 1) // 2 - 1, a) for a in range(1, n)}
    offsets = [(8.0 * (a % 4) - 12.0, -4.0 * (a.bit_length() - 1))
               for a in range(1, n + 1)]
    return build_scenario(seed=3, n_agents=n, horizon_steps=horizon,
                          edges=edges, offsets=offsets,
                          attack=AttackConfig(horizon=3))


@pytest.mark.parametrize("scenario, mode", [
    (build_scenario(seed=2, horizon_steps=200), "nominal"),
    (_tree_scenario(10, 120), "fdi_dos"),
], ids=["nominal-5", "fdi_dos-10"])
def test_harness_metrics_match_per_step_loops(scenario, mode):
    record = run(scenario, mode)
    if mode == "fdi_dos":
        assert sum(d is not None for d in record.decisions) > 0
        assert record.dos_events
    want_pairs = np.array([_loop_pair_errors(scenario, x) for x in record.states])
    want_tracking = np.array([_loop_tracking(scenario, x, k)
                              for k, x in enumerate(record.states)])
    assert np.array_equal(record.pair_errors, want_pairs)
    assert np.array_equal(record.tracking, want_tracking)
