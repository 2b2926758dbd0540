"""Property tests: polygon distances as point queries on Minkowski differences.

`segment_oracle.segment_distance` is the independent reference: it measures
vertex-to-segment distances between the two vertex rings directly.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_oracle import segment_distance

from ncsred.reachset import (agent_polygon, pair_distances, planar_directions,
                             polygon_distance)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
TOL = 1e-9

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hull(points):
    """CCW convex hull (Andrew monotone chain)."""
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
    return np.array(half(pts)[:-1] + half(reversed(pts))[:-1])


def hull_polygon(v, rng, agent=0):
    """Polygon of the hull v over its own edge normals, sometimes padded with
    a uniform direction fan, so pairs mix different direction sets."""
    segs = np.roll(v, -1, axis=0) - v
    dirs = np.column_stack([segs[:, 1], -segs[:, 0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if rng.random() < 0.5:
        dirs = np.vstack([dirs, planar_directions(int(rng.integers(3, 17)))])
    sup = (v[:, None, :] * dirs[None, :, :]).sum(axis=2).max(axis=0)
    return agent_polygon(dirs, agent, sup)


def random_hull(rng, center=(0.0, 0.0), scale=2.0):
    pts = rng.normal(scale=scale, size=(int(rng.integers(4, 13)), 2))
    return hull(pts) + np.asarray(center)


def point_polygon(p, m=8):
    dirs = planar_directions(m)
    return agent_polygon(dirs, 0, dirs @ np.asarray(p, float))


def make_pair(kind, rng):
    """Two polygons in one of the named relative placements."""
    va = random_hull(rng)
    if kind == "random":
        shift = rng.normal(size=2) * rng.uniform(0.0, 12.0)
        return hull_polygon(va, rng), hull_polygon(random_hull(rng, shift), rng)
    if kind == "overlapping":
        vb = random_hull(rng, va[int(rng.integers(len(va)))] * 0.5)
        return hull_polygon(va, rng), hull_polygon(vb, rng)
    if kind == "nested":
        c = va.mean(axis=0)
        return hull_polygon(va, rng), hull_polygon(c + rng.uniform(0.1, 0.9) * (va - c), rng)
    if kind == "touching":
        # put vb's lowest vertex along u onto va's highest one
        vb = random_hull(rng)
        u = rng.normal(size=2)
        shift = va[np.argmax(va @ u)] - vb[np.argmin(vb @ u)]
        return hull_polygon(va, rng), hull_polygon(vb + shift, rng)
    if kind == "point-hull":
        return point_polygon(rng.normal(scale=4.0, size=2)), hull_polygon(va, rng)
    assert kind == "point-point"
    return (point_polygon(rng.normal(scale=4.0, size=2)),
            point_polygon(rng.normal(scale=4.0, size=2), m=5))


KINDS = ("random", "overlapping", "nested", "touching", "point-hull", "point-point")


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(KINDS))
def test_distance_matches_segment_oracle(seed, kind):
    P, Q = make_pair(kind, np.random.default_rng(seed))
    got = polygon_distance(P, Q)
    assert got == pytest.approx(segment_distance(P.vertices, Q.vertices), abs=TOL)
    if kind in ("overlapping", "nested"):
        assert got == 0.0


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(KINDS))
def test_distance_is_symmetric(seed, kind):
    P, Q = make_pair(kind, np.random.default_rng(seed))
    assert polygon_distance(P, Q) == pytest.approx(polygon_distance(Q, P), abs=1e-12)


@PROPERTY
@given(seed=seeds, n=st.integers(min_value=2, max_value=7), shared=st.booleans())
def test_pair_scores_equal_per_pair_distance(seed, n, shared):
    rng = np.random.default_rng(seed)
    if shared:
        # the pipeline case: one direction fan for every agent
        dirs = planar_directions(16)
        clouds = rng.normal(scale=6.0, size=(n, 1, 2)) + rng.normal(size=(n, 5, 2))
        polys = [agent_polygon(dirs, a, (pts @ dirs.T).max(axis=0))
                 for a, pts in enumerate(clouds)]
    else:
        polys = [hull_polygon(random_hull(rng, rng.normal(scale=6.0, size=2)), rng)
                 for _ in range(n)]
    got = pair_distances(polys)
    want = [polygon_distance(polys[i], polys[j])
            for i in range(n) for j in range(i + 1, n)]
    if shared:
        # identical arithmetic, so ties between pairs survive batching
        assert got.tolist() == want
    else:
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(KINDS))
def test_shifted_scores_equal_translated_vertex_sets(seed, kind):
    # P + s is the polygon of P's supports shifted by <d, s> on each direction d
    rng = np.random.default_rng(seed)
    P, Q = make_pair(kind, rng)
    for s in rng.normal(scale=3.0, size=(12, 2)):
        moved = agent_polygon(P.directions, P.agent, P.supports + P.directions @ s)
        got = polygon_distance(moved, Q)
        assert got == pytest.approx(segment_distance(P.vertices + s, Q.vertices),
                                    abs=TOL)

