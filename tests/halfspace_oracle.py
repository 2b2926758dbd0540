"""All-pairs half-plane intersection, kept as an independent reference for
`reachset.agent_polygon`, which intersects adjacent faces only.

Every call intersects all face-line pairs, keeps the points feasible within
the absolute FEAS_TOL, dedupes them within 1e-9 * scale and orders them about
their centroid. On a convex set's supports at unit scale it gives
`agent_polygon`'s vertices up to rotation, within 1e-9 * scale. At supports
of about 1e6 and more the absolute FEAS_TOL drops true vertices, down to an
"empty" intersection, where `agent_polygon`'s point-scaled tolerance keeps
them.
"""
import numpy as np

from ncsred.errors import DegenerateGeometryError

FEAS_TOL = 1e-9


def halfspace_polygon(directions, supports):
    """CCW vertices of the bounded intersection of planar half-planes.

    Intersects all face-line pairs and keeps points feasible for every
    half-plane (FEAS_TOL slack). Raises when the directions fail to positively
    span the plane (unbounded set) or when the intersection is empty.
    """
    D = np.asarray(directions, float)
    g = np.asarray(supports, float)
    m = D.shape[0]
    if m < 3:
        raise DegenerateGeometryError("need at least 3 half-planes")
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if gaps.max() >= np.pi - 1e-12:
        raise DegenerateGeometryError("directions do not positively span the plane")

    ii, jj = np.triu_indices(m, k=1)
    a, b = D[ii], D[jj]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    ok = np.abs(det) > 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        px = (g[ii] * b[:, 1] - g[jj] * a[:, 1]) / det
        py = (a[:, 0] * g[jj] - b[:, 0] * g[ii]) / det
    P = np.column_stack([px, py])[ok]
    if P.size:
        feas = np.all(P @ D.T <= g[None, :] + FEAS_TOL, axis=1)
        P = P[feas]
    if P.shape[0] == 0:
        raise DegenerateGeometryError("empty half-plane intersection")
    # dedupe with a scale-aware tolerance, then order counter-clockwise
    scale = max(1.0, np.abs(P).max())
    near = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2) <= 1e-9 * scale
    P = P[~np.tril(near, k=-1).any(axis=1)]
    centroid = P.mean(axis=0)
    order = np.argsort(np.arctan2(P[:, 1] - centroid[1], P[:, 0] - centroid[0]))
    return P[order]
