"""Workload definitions: the scenario files each workload feeds to ncsred.

Every workload draws its scenarios from a fixed pool of scenario seeds, so
the stored reference fingerprints (``reference/<workload>.json``) cover
every input the benchmark can generate. The benchmark seed only fixes the
order in which the pool is visited.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    pool: int          # scenario seeds 0..pool-1
    horizon: int       # plant steps per experiment
    keys: str          # scenario-file lines shared by the whole pool


def _tree_formation(n):
    """Binary-tree formation with n agents, as scenario-file lines.

    Agent a (1-based) hangs under agent a // 2; depth d sits 4 m behind the
    leader and its 2**d slots are spread over 32 m, so the layout grows
    with the tree and no two slots coincide.
    """
    edges = ", ".join(f"{a // 2}-{a}" for a in range(2, n + 1))
    slots = []
    for a in range(1, n + 1):
        depth = a.bit_length() - 1
        pos = a - (1 << depth)
        slots.append(f"{(2 * pos + 1) * 16 // (1 << depth) - 16},{-4 * depth}")
    return (f"n_agents = {n}\nedges = {edges}\n"
            f"formation_offsets = {'; '.join(slots)}\n")


#: Attacked runs stop at step 150: past the attack start (51) and the DoS
#: step (100), with 99 attacked steps. CPU speed on a shared host drifts by
#: tens of percent over seconds, so a 30 s run needs several short
#: experiments for a steady median rather than two 500-step ones.
ATTACK_HORIZON = 150

WORKLOADS = {w.name: w for w in (
    # plant, harness and emit only; every attacker layer stays idle
    Workload("nominal_sweep", "nominal", 64, 500, ""),
    # stock 5-agent experiment; polygon_distance dominates the run
    Workload("stock_fdi_dos", "fdi_dos", 8, ATTACK_HORIZON, "reach_horizon = 1\n"),
    # 45 candidate pairs and per-agent reach shapes that differ under h = 3;
    # 4N = 40 stays below snapshot_width = 50, so the window can identify the
    # plant (N >= 13 would leave the fit rank-deficient without a warning)
    Workload("wide_h3_fdi_dos", "fdi_dos", 8, ATTACK_HORIZON,
             _tree_formation(10) + "reach_horizon = 3\n"),
)}


def scenario_text(workload: Workload, scenario_seed, horizon=None):
    """Scenario-file text of one pool member; `horizon` overrides the
    workload's step count."""
    return (f"# {workload.name}\nrng_seed = {scenario_seed}\n"
            f"horizon_steps = {horizon or workload.horizon}\n" + workload.keys)


def visit_order(workload: Workload, seed):
    """Pool seeds in the order the benchmark seed visits them."""
    return random.Random(f"{workload.name}:{seed}").sample(
        range(workload.pool), workload.pool)
