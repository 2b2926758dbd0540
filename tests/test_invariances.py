"""Symmetries that the whole attack keeps, checked without stored references.

Each property takes a step of a stock `fdi` run, fits the window that the
attacker holds there, makes one decision through the public pipeline
(`agent_reach_polygon` -> `select_targets` -> `synthesize_fdi`), and makes it
again on a transformed problem:
- relabelling the followers (K -> P K P^T, x -> P x, P fixing the leader):
  the targets and injections map through P, and both separations agree
  within 1e-9 relative;
- scaling the window, the state and rho by a power of two: K keeps its
  bytes, and the injection and both separations scale exactly;
- rotating positions, velocities and Omega by a multiple of 2 pi / 16, which
  maps the 16-direction fan onto itself: the targets stay, the injections
  rotate back within 1e-12, and both separations agree within 1e-9 relative.

These hold on any BLAS core, where the fingerprint references pin one core's
bytes, so they guard the geometry and the fit across rewrites.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsred.attack import agent_reach_polygon, select_targets, synthesize_fdi
from ncsred.dmd import SnapshotBuffer, fit
from ncsred.harness import input_polytope, run
from ncsred.reachset import InputPolytope
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

SEEDS = range(4)
HORIZON = 160
#: the fan of 16 directions maps onto itself under these rotations only
FAN = 16
SEP_RTOL = 1e-9


@pytest.fixture(scope="module")
def runs():
    """One stock `fdi` run per seed, shared by every example."""
    out = {}
    for seed in SEEDS:
        s = build_scenario(seed=seed, horizon_steps=HORIZON)
        out[seed] = (s, run(s, "fdi").states)
    return out


steps = st.integers(min_value=build_scenario().attack.start_step,
                    max_value=HORIZON - 1)


def _fit(s, states, k, scale=1.0):
    """The attacker's K at step k: the fit of the window it holds there."""
    cfg = s.attack
    buf = SnapshotBuffer(cfg.snapshot_width, s.dim)
    for x in states[k - cfg.snapshot_width:k + 1]:
        buf.push(scale * x)
    return fit(buf, svd_tol=cfg.svd_tol).K


def _decide(s, K, x, omega):
    cfg = s.attack
    B = s.agent_model.B
    polygons = agent_reach_polygon(K, B, x, omega, cfg.n_directions, cfg.horizon)
    return synthesize_fdi(select_targets(polygons), K, omega, x, B, polygons)


def _assert_separations_close(got, want):
    for a, b in ((got.separation_before, want.separation_before),
                 (got.separation_after, want.separation_after)):
        assert abs(a - b) <= SEP_RTOL * abs(b)


@PROPERTY
@given(seed=st.sampled_from(SEEDS), k=steps,
       followers=st.permutations([1, 2, 3, 4]))
def test_relabelling_followers(runs, seed, k, followers):
    s, states = runs[seed]
    K, x, omega = _fit(s, states, k), states[k], input_polytope(s)
    want = _decide(s, K, x, omega)
    new = np.array([0] + list(followers))      # agent a becomes agent new[a]
    old = np.argsort(new)                      # agent b was agent old[b]
    idx = (4 * old[:, None] + np.arange(4)).reshape(-1)
    got = _decide(s, K[np.ix_(idx, idx)], x[idx], omega)
    i, j = want.targets
    assert got.targets == tuple(sorted((int(new[i]), int(new[j]))))
    assert np.array_equal(got.u_a.reshape(-1, 2), want.u_a.reshape(-1, 2)[old])
    _assert_separations_close(got, want)


@PROPERTY
@given(seed=st.sampled_from(SEEDS), k=steps, power=st.integers(-2, 8))
def test_scaling_by_a_power_of_two(runs, seed, k, power):
    s, states = runs[seed]
    scale = 2.0 ** power
    K = _fit(s, states, k)
    scaled = dataclasses.replace(
        s, attack=dataclasses.replace(s.attack, rho=scale * s.attack.rho))
    K2 = _fit(s, states, k, scale)
    assert K2.tobytes() == K.tobytes()
    want = _decide(s, K, states[k], input_polytope(s))
    got = _decide(s, K2, scale * states[k], input_polytope(scaled))
    assert got.targets == want.targets
    assert np.array_equal(got.u_a, scale * want.u_a)
    assert got.separation_before == scale * want.separation_before
    assert got.separation_after == scale * want.separation_after


@PROPERTY
@given(seed=st.sampled_from(SEEDS), k=steps, turn=st.integers(0, FAN - 1))
def test_rotating_by_a_fan_step(runs, seed, k, turn):
    s, states = runs[seed]
    K, x, omega = _fit(s, states, k), states[k], input_polytope(s)
    want = _decide(s, K, x, omega)
    c, sn = np.cos(2 * np.pi * turn / FAN), np.sin(2 * np.pi * turn / FAN)
    R = np.array([[c, -sn], [sn, c]])
    # [x, vx, y, vy]: positions and velocities turn alike
    T = np.kron(np.eye(s.n_agents), np.kron(R, np.eye(2)))
    turned = InputPolytope(vertices=omega.vertices @ R.T,
                           normals=omega.normals @ R.T, offsets=omega.offsets)
    got = _decide(s, T @ K @ T.T, T @ x, turned)
    assert got.targets == want.targets
    back = got.u_a.reshape(-1, 2) @ R
    assert np.abs(back - want.u_a.reshape(-1, 2)).max() <= 1e-12
    _assert_separations_close(got, want)
