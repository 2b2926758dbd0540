"""Scenario construction and flat key-value scenario files.

A file's keys are `build_scenario`'s plant arguments and `AttackConfig`'s
fields, under the names in `RENAMED`; a key the file leaves out keeps the
default of that signature, so a missing or empty file reproduces the 5-UAV
experiment. Edge lists in files are 1-based (`1-2`) and converted to 0-based
indices internally.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .attack import AttackConfig
from .errors import InvalidInputError
from .graph import Graph
from .ncs import (DEFAULT_EDGES, DEFAULT_GAIN, DEFAULT_LEADER_GAIN,
                  DEFAULT_OFFSETS, STATE_DIM, AgentModel, Scenario,
                  reference)


def initial_states_from_box(n_agents, box, seed):
    """Positions uniform in the box (velocities zero), seeded."""
    out = np.zeros((n_agents, 4))
    out[:, [0, 2]] = np.random.default_rng(seed).uniform(*box, size=(n_agents, 2))
    return out


def build_scenario(seed=0, n_agents=5, dt=0.2, horizon_steps=500,
                   gain=None, leader_gain=None, edges=None, offsets=None,
                   init_box_low=-10.0, init_box_high=10.0, ref_fn=None,
                   attack=None) -> Scenario:
    """Scenario with the experiment defaults; any piece can be overridden,
    and another `n_agents` needs its own edges and offsets."""
    if seed is None or seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    for name, v in (("init_box_low", init_box_low), ("init_box_high", init_box_high)):
        if not np.isfinite(v):
            raise InvalidInputError(f"{name} must be finite, got {v}")
    if init_box_low > init_box_high:
        raise InvalidInputError(f"init_box_low ({init_box_low}) must not exceed "
                                f"init_box_high ({init_box_high})")
    if not np.isfinite(float(init_box_high) - float(init_box_low)):
        raise InvalidInputError(f"init_box_high - init_box_low overflows: the box "
                                f"from {init_box_low} to {init_box_high} is too wide")
    missing = [key for key, v in (("edges", edges), ("formation_offsets", offsets))
               if v is None]
    if n_agents != len(DEFAULT_OFFSETS) and missing:
        raise InvalidInputError(
            f"n_agents = {n_agents} needs {' and '.join(missing)}: the defaults "
            f"describe {len(DEFAULT_OFFSETS)} agents")
    gain = DEFAULT_GAIN if gain is None else np.asarray(gain, float)
    leader_gain = (DEFAULT_LEADER_GAIN if leader_gain is None
                   else np.asarray(leader_gain, float))
    edges = DEFAULT_EDGES if edges is None else frozenset(edges)
    offsets = DEFAULT_OFFSETS if offsets is None else np.asarray(offsets, float)
    if offsets.shape[:1] != (n_agents,):
        raise InvalidInputError(
            f"formation_offsets: expected {n_agents} entries, got shape {offsets.shape}")
    ref_fn = reference if ref_fn is None else ref_fn
    attack = AttackConfig() if attack is None else attack
    if offsets.shape == (n_agents, 2):
        full = np.zeros((n_agents, 4))
        full[:, [0, 2]] = offsets
        offsets = full
    return Scenario(
        n_agents=n_agents,
        agent_model=AgentModel(float(dt)),
        graph=Graph(n_agents, edges),
        gain=gain,
        leader_gain=leader_gain,
        formation_offsets=offsets,
        reference=ref_fn,
        horizon_steps=horizon_steps,
        # + 0.0 draws a -0.0 bound as 0.0: rng.uniform(0.0, -0.0) refuses
        initial_states=initial_states_from_box(
            n_agents, (init_box_low + 0.0, init_box_high + 0.0), seed),
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


def _parse_edges(value):
    return frozenset(_parse_edge(t) for t in value.split(",") if t.strip())


def _numbers(text, count, what):
    nums = [float(v) for v in text.replace(",", " ").split()]
    if len(nums) != count:
        raise InvalidInputError(f"{what} {text!r} must have {count} numbers")
    return nums


def _parse_pairs(value):
    return np.array([_numbers(c.strip(), 2, "offset entry")
                     for c in value.split(";") if c.strip()])


def _parse_gain_row(value):
    return _numbers(value, STATE_DIM, "gain row")


#: scenario-file keys whose argument or AttackConfig field has another name
RENAMED = {"rng_seed": "seed", "formation_offsets": "offsets",
           "faces": "s", "reach_horizon": "horizon"}

#: parser of every scenario-file key; the attacker keys are AttackConfig's
#: fields, parsed by their annotated type
PARSERS = {"n_agents": int, "dt": float, "horizon_steps": int, "rng_seed": int,
           "init_box_low": float, "init_box_high": float, "edges": _parse_edges,
           "formation_offsets": _parse_pairs,
           "gain_row1": _parse_gain_row, "gain_row2": _parse_gain_row,
           "leader_gain_row1": _parse_gain_row, "leader_gain_row2": _parse_gain_row}
_FILE_KEY = {name: key for key, name in RENAMED.items()}
_CASTS = {"int": int, "float": float}
PARSERS.update({_FILE_KEY.get(f.name, f.name): _CASTS[f.type]
                for f in dataclasses.fields(AttackConfig)})


def parse_scenario_text(text):
    """Parse `key = value` lines into {key: parsed value}; `#` starts a comment.

    A key may appear once. A repeated key, a value its parser refuses and an
    unknown key raise InvalidInputError, the first two naming key and line.
    """
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise InvalidInputError(
                f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        if key in PARSERS:
            try:
                values[key] = PARSERS[key](value)
            except (ValueError, InvalidInputError) as exc:
                raise InvalidInputError(
                    f"line {lineno}: bad {key} value {value!r}: {exc}") from None
    unknown = sorted(lines.keys() - PARSERS.keys())
    if unknown:
        raise InvalidInputError(f"unknown scenario keys: {unknown}")
    return values


def load_scenario(path=None, seed=None) -> Scenario:
    """Scenario from a key-value file; None loads pure defaults.

    `seed` overrides the file's rng_seed (and the default).
    """
    args = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            args = {RENAMED.get(k, k): v for k, v in parse_scenario_text(fh.read()).items()}
    if seed is not None:
        args["seed"] = int(seed)
    for name in ("gain", "leader_gain"):
        rows = [args.pop(f"{name}_row{r}", None) for r in (1, 2)]
        if rows != [None, None]:
            if None in rows:
                raise InvalidInputError(
                    f"{name} rows incomplete: missing '{name}_row{rows.index(None) + 1}'")
            args[name] = np.array(rows)
    attack = AttackConfig(**{f.name: args.pop(f.name)
                             for f in dataclasses.fields(AttackConfig) if f.name in args})
    return build_scenario(**args, attack=attack)
