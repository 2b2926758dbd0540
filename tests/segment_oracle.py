"""Segment-based convex polygon distance, kept as an independent oracle.

This is the pairwise edge construction `reachset.polygon_distance` used
before it became a point query against a Minkowski difference: the minimum
over vertex-to-opposite-segment distances, zero when one polygon holds a
vertex of the other or two edges cross.
"""
import numpy as np

FEAS_TOL = 1e-9


def _segments(v):
    if v.shape[0] == 1:
        return v, v
    return v, np.roll(v, -1, axis=0)


def _point_in_convex(v, p, tol=FEAS_TOL):
    if v.shape[0] < 3:
        return False
    a, b = _segments(v)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    return bool(np.all(cross >= -tol) or np.all(cross <= tol))


def _point_seg(P, s0, s1):
    # P: (k,2) points, s0/s1: (l,2) segment ends -> (k,l) distances
    d = s1 - s0
    L2 = np.einsum("ij,ij->i", d, d)
    diff = P[:, None, :] - s0[None, :, :]
    t = np.einsum("kli,li->kl", diff, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(L2[None, :] > 0, t / L2[None, :], 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = s0[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(P[:, None, :] - proj, axis=2)


def segment_distance(va, vb):
    """Distance between the convex polygons with CCW vertex rings va and vb."""
    va = np.asarray(va, float)
    vb = np.asarray(vb, float)
    if _point_in_convex(va, vb[0]) or _point_in_convex(vb, va[0]):
        return 0.0
    a0, a1 = _segments(va)
    b0, b1 = _segments(vb)
    best = np.minimum(_point_seg(a0, b0, b1), _point_seg(b0, a0, a1).T)
    # proper crossings force distance zero
    r = a1 - a0
    s = b1 - b0
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    qp = b0[None, :, :] - a0[:, None, :]
    tnum = qp[:, :, 0] * s[None, :, 1] - qp[:, :, 1] * s[None, :, 0]
    unum = qp[:, :, 0] * r[:, None, 1] - qp[:, :, 1] * r[:, None, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom != 0, tnum / denom, np.inf)
        u = np.where(denom != 0, unum / denom, np.inf)
    crossing = (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1) & np.isfinite(t) & np.isfinite(u)
    best[crossing] = 0.0
    return float(best.min())
