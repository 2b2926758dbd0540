"""Per-step reference sampling and velocity loop, as `ReferenceTrack` did them.

The oracle for the array-valued `ncs.reference` and the cumulative-sum track:
`scalar_reference` evaluates one step with Python scalars, `sample` calls a
scalar-valued reference once per step, `raw_velocities` runs the velocity
recursion one step at a time and `complete` applies the ripple correction.
"""
import numpy as np


def scalar_reference(k):
    """Reference sample at step k, one step at a time."""
    return np.array([-k * np.sin(3.0 * k / 100.0), 1.0,
                     -k * np.cos(3.0 * k / 100.0), 1.0])


def sample(ref_fn, n):
    """Samples of steps 0..n, one `ref_fn(k)` call per step."""
    return np.array([ref_fn(int(k)) for k in np.arange(n + 1)])


def raw_velocities(pos, dt):
    """v[0] = (p[1] - p[0]) / dt, then v[k+1] = 2 (p[k+1] - p[k]) / dt - v[k]."""
    vel = np.zeros_like(pos)
    vel[0] = (pos[1] - pos[0]) / dt
    for k in range(len(pos) - 1):
        vel[k + 1] = 2.0 * (pos[k + 1] - pos[k]) / dt - vel[k]
    return vel


def complete(pos, vel, dt):
    """(pos, vel, acc) after removing the alternating mode from `vel` in place."""
    n = len(pos) - 1
    dv = np.diff(vel, axis=0)
    signs = (-1.0) ** np.arange(len(dv))
    c = (signs[:, None] * dv).sum(axis=0) / (2.0 * len(dv))
    vel += ((-1.0) ** np.arange(n + 1))[:, None] * c
    acc = np.diff(vel, axis=0) / dt
    return pos, vel, acc


def track_loop(ref_fn, horizon, dt):
    """(pos, vel, acc) of the track, sampling `ref_fn(k)` for each step k."""
    pos = sample(ref_fn, horizon + 2)[:, [0, 2]]
    return complete(pos, raw_velocities(pos, dt), dt)
