"""`attack.synthesize_fdi` as it was before it scored candidates against the
run-constant input difference, kept as an oracle.

It builds both targets' 1-step reach polygons from K x with
`agent_reach_polygon` and scores every candidate translate of the first
target's polygon against the second's, all in one `agent_polygon` call. The
pipeline's version must choose the same injection bytes and give the same
separations to within 1e-9.
"""
import numpy as np

from ncsred.attack import AttackDecision, agent_reach_polygon
from ncsred.reachset import (agent_polygon, embed_input_map, pair_distances,
                             polygon_distance)


def synthesize_fdi(targets, model, omega, state, B, polygons):
    i, j = targets
    K = model.K
    n_agents = K.shape[0] // 4
    x = np.asarray(state, float)
    next_polys = agent_reach_polygon(K, B, K @ x, omega, len(polygons[i].directions))
    Pi0, Pj0 = next_polys[i], next_polys[j]
    sep_before = polygon_distance(polygons[i], polygons[j])
    verts = omega.vertices
    s = len(verts)
    Ui = np.vstack([np.repeat(verts, s, axis=0), np.zeros(2)])
    Uj = np.vstack([np.tile(verts, (s, 1)), np.zeros(2)])
    delta = (Ui @ (K @ embed_input_map(B, i, n_agents)).T
             + Uj @ (K @ embed_input_map(B, j, n_agents)).T)
    shifts = delta[:, [4 * i, 4 * i + 2]] - delta[:, [4 * j, 4 * j + 2]]
    # Pi0 + s has Pi0's supports plus <d, s> on each direction d; the pairs
    # (0, c) of the call score dist(Pj0, Pi0 + s_c)
    D = Pi0.directions
    rows = np.vstack([Pj0.supports, Pi0.supports + shifts @ D.T])
    scores = pair_distances(agent_polygon(D, range(len(rows)), rows))[:len(shifts)]
    best = int(np.argmax(scores))
    u_a = np.zeros(2 * n_agents)
    u_a[2 * i:2 * i + 2] = Ui[best]
    u_a[2 * j:2 * j + 2] = Uj[best]
    return AttackDecision(targets=(i, j), u_a=u_a,
                          separation_before=float(sep_before),
                          separation_after=float(scores[best]))
