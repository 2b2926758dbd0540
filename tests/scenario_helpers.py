"""Formation and artifact helpers that only the tests use.

The pipeline forms offset differences and slots over the agent axis in one
product; these per-agent versions state the same quantities one at a time.
"""
import numpy as np

from ncsred.errors import InvalidInputError


def offset_difference(s, i, j):
    """Desired state difference between agents i and j."""
    return s.formation_offsets[i] - s.formation_offsets[j]


def slot(s, i, k):
    """Desired absolute state of agent i at step k (offset + moving target)."""
    return s.formation_offsets[i] + s.track.states[k]


def stacked_slots(s, k):
    """Every agent's slot at step k, stacked into one state vector."""
    return np.concatenate([slot(s, i, k) for i in range(s.n_agents)])


def read_trajectories_csv(path):
    """Parse an emitted trajectories.csv back into a (H+1, 4N) state array."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["k", "t", "agent", "x", "vx", "y", "vy"]:
            raise InvalidInputError(f"unexpected trajectories header in {path}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ks = sorted({int(r[0]) for r in rows})
    agents = sorted({int(r[2]) for r in rows})
    out = np.zeros((len(ks), 4 * len(agents)))
    for r in rows:
        k, a = int(r[0]), int(r[2])
        out[k, 4 * a:4 * a + 4] = [float(r[3]), float(r[4]), float(r[5]), float(r[6])]
    return out
