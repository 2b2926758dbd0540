"""Scenario construction and flat key-value scenario files.

Every key has a default equal to the 5-UAV experiment; a missing file or an
empty file therefore reproduces it. Edge lists in files are 1-based (`1-2`)
and converted to 0-based indices internally.
"""
from __future__ import annotations

import numpy as np

from .attack import AttackConfig
from .errors import InvalidInputError
from .graph import Graph
from .ncs import (DEFAULT_EDGES, DEFAULT_GAIN, DEFAULT_LEADER_GAIN,
                  DEFAULT_OFFSETS, Scenario, double_integrator, reference)

DEFAULTS = {
    "n_agents": 5,
    "dt": 0.2,
    "horizon_steps": 500,
    "rng_seed": 0,
    "init_box": (-10.0, 10.0),
    "rho": 0.05,
    "faces": 8,
    "start_step": 51,
    "dos_step": 100,
    "dos_edge": None,
    "snapshot_width": 50,
    "svd_tol": 1e-10,
    "recovery_svd_tol": 1e-2,
    "refit_every": 1,
    "reach_horizon": 1,
    "n_directions": 16,
    "vertex_jitter": 0.05,
}


def initial_states_from_box(n_agents, box, seed):
    """Positions uniform in the box (velocities zero), seeded."""
    out = np.zeros((n_agents, 4))
    out[:, [0, 2]] = np.random.default_rng(seed).uniform(*box, size=(n_agents, 2))
    return out


def build_scenario(seed=0, n_agents=5, dt=0.2, horizon_steps=500,
                   gain=None, leader_gain=None, edges=None, offsets=None,
                   init_box=(-10.0, 10.0), ref_fn=None, attack=None) -> Scenario:
    """Scenario with the experiment defaults; any piece can be overridden."""
    gain = DEFAULT_GAIN if gain is None else np.asarray(gain, float)
    leader_gain = (DEFAULT_LEADER_GAIN if leader_gain is None
                   else np.asarray(leader_gain, float))
    edges = DEFAULT_EDGES if edges is None else frozenset(edges)
    offsets = DEFAULT_OFFSETS if offsets is None else np.asarray(offsets, float)
    ref_fn = reference if ref_fn is None else ref_fn
    attack = AttackConfig() if attack is None else attack
    if offsets.shape == (n_agents, 2):
        full = np.zeros((n_agents, 4))
        full[:, [0, 2]] = offsets
        offsets = full
    return Scenario(
        n_agents=n_agents,
        agent_model=double_integrator(dt),
        graph=Graph(n_agents, edges),
        gain=gain,
        leader_gain=leader_gain,
        formation_offsets=offsets,
        reference=ref_fn,
        horizon_steps=horizon_steps,
        initial_states=initial_states_from_box(n_agents, init_box, seed),
        rng_seed=seed,
        attack=attack,
    )


def _parse_edge(token):
    parts = token.strip().split("-")
    if len(parts) != 2:
        raise InvalidInputError(f"bad edge token {token!r}, expected i-j")
    i, j = int(parts[0]), int(parts[1])
    if i < 1 or j < 1:
        raise InvalidInputError(f"edges in files are 1-based, got {token!r}")
    return (i - 1, j - 1)


def _parse_pairs(value):
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        nums = [float(v) for v in chunk.replace(",", " ").split()]
        if len(nums) != 2:
            raise InvalidInputError(f"offset entry {chunk!r} must have 2 numbers")
        pairs.append(nums)
    return np.array(pairs)


def _parse_matrix_rows(rows):
    return np.array([[float(v) for v in row.replace(",", " ").split()]
                     for row in rows])


def parse_scenario_text(text):
    """Parse `key = value` lines into a raw dict; `#` starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def load_scenario(path=None, seed=None) -> Scenario:
    """Scenario from a key-value file; None loads pure defaults.

    `seed` overrides the file's rng_seed (and the default).
    """
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_scenario_text(fh.read())

    def take(key, cast, default):
        if key in raw:
            return cast(raw.pop(key))
        return default

    n_agents = take("n_agents", int, DEFAULTS["n_agents"])
    dt = take("dt", float, DEFAULTS["dt"])
    horizon = take("horizon_steps", int, DEFAULTS["horizon_steps"])
    rng_seed = take("rng_seed", int, DEFAULTS["rng_seed"])
    if seed is not None:
        rng_seed = int(seed)
    box_lo = take("init_box_low", float, DEFAULTS["init_box"][0])
    box_hi = take("init_box_high", float, DEFAULTS["init_box"][1])

    edges = None
    if "edges" in raw:
        edges = frozenset(_parse_edge(t) for t in raw.pop("edges").split(",") if t.strip())

    offsets = None
    if "formation_offsets" in raw:
        offsets = _parse_pairs(raw.pop("formation_offsets"))
        if offsets.shape[0] != n_agents:
            raise InvalidInputError(
                f"formation_offsets: expected {n_agents} entries, got {offsets.shape[0]}")

    gain = None
    if "gain_row1" in raw or "gain_row2" in raw:
        try:
            gain = _parse_matrix_rows([raw.pop("gain_row1"), raw.pop("gain_row2")])
        except KeyError as exc:
            raise InvalidInputError(f"gain rows incomplete: missing {exc}") from None
    leader_gain = None
    if "leader_gain_row1" in raw or "leader_gain_row2" in raw:
        try:
            leader_gain = _parse_matrix_rows([raw.pop("leader_gain_row1"),
                                              raw.pop("leader_gain_row2")])
        except KeyError as exc:
            raise InvalidInputError(f"leader_gain rows incomplete: missing {exc}") from None

    dos_edge = DEFAULTS["dos_edge"]
    if "dos_edge" in raw:
        tok = raw.pop("dos_edge")
        dos_edge = None if tok.lower() in ("none", "") else _parse_edge(tok)

    attack = AttackConfig(
        rho=take("rho", float, DEFAULTS["rho"]),
        s=take("faces", int, DEFAULTS["faces"]),
        start_step=take("start_step", int, DEFAULTS["start_step"]),
        dos_step=take("dos_step", int, DEFAULTS["dos_step"]),
        dos_edge=dos_edge,
        snapshot_width=take("snapshot_width", int, DEFAULTS["snapshot_width"]),
        svd_tol=take("svd_tol", float, DEFAULTS["svd_tol"]),
        recovery_svd_tol=take("recovery_svd_tol", float, DEFAULTS["recovery_svd_tol"]),
        refit_every=take("refit_every", int, DEFAULTS["refit_every"]),
        horizon=take("reach_horizon", int, DEFAULTS["reach_horizon"]),
        n_directions=take("n_directions", int, DEFAULTS["n_directions"]),
        vertex_jitter=take("vertex_jitter", float, DEFAULTS["vertex_jitter"]),
    )
    if raw:
        raise InvalidInputError(f"unknown scenario keys: {sorted(raw)}")
    return build_scenario(seed=rng_seed, n_agents=n_agents, dt=dt,
                          horizon_steps=horizon, gain=gain,
                          leader_gain=leader_gain, edges=edges,
                          offsets=offsets, init_box=(box_lo, box_hi),
                          attack=attack)
