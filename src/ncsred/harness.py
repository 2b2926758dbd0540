"""End-to-end experiment orchestration and artifact emission."""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import dmd, laprec, svgplot
from .attack import (agent_reach_polygon, plan_dos, select_targets,
                     synthesize_fdi)
from .errors import InvalidInputError
from .graph import Graph, remove_edge
from .ncs import Scenario, control_inputs, step
from .reachset import circumscribe_ball

MODES = ("nominal", "fdi", "fdi_dos")

#: derived sub-seeds so one scenario seed fixes every random draw in a run
OMEGA_SEED_OFFSET = 1000003
RECOVERY_SEED_OFFSET = 2000003


@dataclass
class DosEvent:
    """Executed DoS: what was planned and which true links were severed."""

    k: int
    planned_node: Optional[int]
    planned_edge: Optional[tuple]
    removed_edges: List[tuple] = field(default_factory=list)
    note: str = ""


@dataclass
class RunRecord:
    """Complete trace of one simulated run."""

    mode: str
    dt: float
    n_agents: int
    states: np.ndarray            # (H+1, 4N)
    inputs: np.ndarray            # (H, N, 2) applied control inputs
    injections: np.ndarray        # (H, 2N) applied FDI injections
    decisions: list               # per step: AttackDecision or None
    pair_errors: np.ndarray       # (H+1, n_pairs) positional formation errors
    pairs: list                   # [(i, j), ...] matching pair_errors columns
    tracking: np.ndarray          # (H+1, N) per-agent slot deviation (positions)
    graph_history: np.ndarray     # (H+1,) index into graphs
    graphs: list                  # Graph instances in activation order
    dos_events: list              # DosEvent entries

    @property
    def horizon(self):
        return self.states.shape[0] - 1

    @property
    def leader_tracking(self):
        """Leader position deviation from the reference track per step."""
        return self.tracking[:, 0]

    @property
    def system_tracking(self):
        """Worst per-agent slot deviation per step."""
        return self.tracking.max(axis=1)


def _pair_list(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _positional_errors(s: Scenario, states, out):
    """Formation error of every pair i < j (columns) at every row of states."""
    ii, jj = np.triu_indices(s.n_agents, k=1)
    pos = states.reshape(len(states), s.n_agents, 4)[..., ::2]
    d = pos.take(ii, axis=1)
    d -= pos.take(jj, axis=1)
    d -= (s.formation_offsets[ii] - s.formation_offsets[jj])[:, ::2]
    # a stacked 1x2 @ 2x1 product is the BLAS dot that np.linalg.norm takes
    # per row; norm(axis=...) and einsum round differently on some rows
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0], out=out)


def _slot_tracking(s: Scenario, states, out):
    """Position deviation of every agent (columns) from its slot at every row."""
    X = states.reshape(len(states), s.n_agents, 4)
    slots = s.formation_offsets[None, :, ::2] + s.track.pos[:len(states), None]
    return np.hypot(X[..., 0] - slots[..., 0], X[..., 2] - slots[..., 1], out=out)


def run(scenario: Scenario, mode: str) -> RunRecord:
    """Simulate one experiment.

    nominal: plant only. fdi: plant plus the eavesdrop / identify / reach /
    inject loop. fdi_dos: same, with structure recovery and a DoS at the
    configured step; the executed jamming severs the planned agent's true
    links (the attacker's believed link need not exist).
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = scenario.attack
    N = scenario.n_agents
    H = scenario.horizon_steps
    dim = scenario.dim
    B = scenario.agent_model.B

    attacking = mode in ("fdi", "fdi_dos") and cfg.rho > 0
    omega = None
    if attacking:
        omega = circumscribe_ball(cfg.rho, cfg.s,
                                  seed=scenario.rng_seed + OMEGA_SEED_OFFSET,
                                  jitter=cfg.vertex_jitter)

    buffer = dmd.SnapshotBuffer(cfg.snapshot_width, dim)
    model = None
    active_graph = scenario.graph
    graphs = [active_graph]
    graph_history = np.zeros(H + 1, dtype=int)

    states = np.zeros((H + 1, dim))
    inputs = np.zeros((H, N, 2))
    injections = np.zeros((H, 2 * N))
    decisions = [None] * H
    # filled after the loop, but allocated before it: allocating them at the
    # end raised the process's peak RSS
    pair_errors = np.zeros((H + 1, N * (N - 1) // 2))
    tracking = np.zeros((H + 1, N))
    dos_events = []

    state = scenario.initial_stacked()
    states[0] = state.x

    for k in range(H):
        if mode != "nominal":
            buffer.push(state.x)
            refit_due = (k >= cfg.start_step
                         and (k - cfg.start_step) % cfg.refit_every == 0)
            if refit_due and buffer.is_full:
                model = dmd.fit(buffer, svd_tol=cfg.svd_tol)

        if mode == "fdi_dos" and k == cfg.dos_step:
            active_graph, event = _execute_dos(scenario, buffer, active_graph, k)
            dos_events.append(event)
            if active_graph is not graphs[-1]:
                graphs.append(active_graph)

        u_a = None
        if attacking and k >= cfg.start_step and model is not None:
            polygons = agent_reach_polygon(model.K, B, range(N), N, state.x,
                                           omega, cfg.n_directions, cfg.horizon)
            targets = select_targets(polygons)
            decision = synthesize_fdi(k, targets, model, omega, state.x, B,
                                      cfg.n_directions,
                                      current_polygons=polygons)
            decisions[k] = decision
            u_a = decision.u_a
            injections[k] = u_a

        inputs[k] = control_inputs(scenario, state, graph=active_graph)
        state = step(scenario, state, fdi=u_a, graph=active_graph, u=inputs[k])
        states[k + 1] = state.x
        graph_history[k + 1] = len(graphs) - 1

    _positional_errors(scenario, states, out=pair_errors)
    _slot_tracking(scenario, states, out=tracking)
    return RunRecord(mode=mode, dt=scenario.agent_model.dt, n_agents=N,
                     states=states, inputs=inputs, injections=injections,
                     decisions=decisions, pair_errors=pair_errors,
                     pairs=_pair_list(N), tracking=tracking,
                     graph_history=graph_history, graphs=graphs,
                     dos_events=dos_events)


def _execute_dos(scenario: Scenario, buffer, active_graph: Graph, k):
    """Recover structure, plan the DoS, and sever the planned agent's links."""
    cfg = scenario.attack
    if cfg.dos_edge is not None:
        edge = tuple(sorted(cfg.dos_edge))
        if not active_graph.has_edge(*edge):
            raise InvalidInputError(f"configured dos_edge {edge} not in the graph")
        return remove_edge(active_graph, *edge), DosEvent(
            k=k, planned_node=max(edge), planned_edge=edge,
            removed_edges=[edge], note="configured edge")

    if not buffer.can_fit:
        return active_graph, DosEvent(k=k, planned_node=None, planned_edge=None,
                                      note="no identified model yet")
    model = dmd.fit(buffer, svd_tol=cfg.recovery_svd_tol)
    recovery = laprec.recover(model.K,
                              seed=scenario.rng_seed + RECOVERY_SEED_OFFSET)
    plan = plan_dos(model, recovery)
    if plan is None:
        return active_graph, DosEvent(k=k, planned_node=None, planned_edge=None,
                                      note="recovered graph already disconnected")
    g = active_graph
    removed = []
    for e in sorted(g.edges):
        if plan.node in e:
            g = remove_edge(g, *e)
            removed.append(e)
    note = "jammed planned node" if removed else "planned node had no true links"
    return g, DosEvent(k=k, planned_node=plan.node, planned_edge=plan.edge,
                       removed_edges=removed, note=note)


@dataclass
class MetricsSummary:
    """Per-pair and tracking statistics of one run."""

    pairs: list
    pair_max: np.ndarray
    pair_final: np.ndarray
    tracking_max: np.ndarray       # per agent, full run
    tracking_final: np.ndarray
    leader_tracking_final: float
    steady_start: int
    steady_tracking_max: float     # max over agents and steady steps
    steady_pair_max: float
    attacked_steps: int
    max_injection_norm: float
    target_counts: dict
    dos_events: list

    def rows(self):
        out = [("pair", "max_error", "final_error")]
        for idx, (i, j) in enumerate(self.pairs):
            out.append((f"{i}-{j}", repr(float(self.pair_max[idx])),
                        repr(float(self.pair_final[idx]))))
        return out


def steady_window_start(horizon):
    """First step of the steady-regime window (final quarter of the run)."""
    return horizon - max(1, horizon // 4)


def metrics(record: RunRecord) -> MetricsSummary:
    """Summary table of a completed run."""
    H = record.horizon
    k0 = steady_window_start(H)
    target_counts = {}
    max_inj = 0.0
    attacked = 0
    for d in record.decisions:
        if d is None:
            continue
        attacked += 1
        target_counts[d.targets] = target_counts.get(d.targets, 0) + 1
        for a in d.targets:
            max_inj = max(max_inj, float(np.linalg.norm(d.u_a[2 * a:2 * a + 2])))
    if record.pair_errors.shape[1]:
        pair_max = record.pair_errors.max(axis=0)
        pair_final = record.pair_errors[-1]
        steady_pair_max = float(record.pair_errors[k0:].max())
    else:
        pair_max = np.zeros(0)
        pair_final = np.zeros(0)
        steady_pair_max = 0.0
    return MetricsSummary(
        pairs=record.pairs,
        pair_max=pair_max,
        pair_final=pair_final,
        tracking_max=record.tracking.max(axis=0),
        tracking_final=record.tracking[-1],
        leader_tracking_final=float(record.tracking[-1, 0]),
        steady_start=k0,
        steady_tracking_max=float(record.tracking[k0:].max()),
        steady_pair_max=steady_pair_max,
        attacked_steps=attacked,
        max_injection_norm=max_inj,
        target_counts=target_counts,
        dos_events=record.dos_events,
    )


def _r(v):
    return repr(float(v))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def emit(record: RunRecord, out_dir):
    """Write trajectories.csv, errors.csv, tracking.csv, attack.csv and SVG plots.

    Floats are formatted with repr (shortest round-trip), so re-parsing
    reproduces the run to full precision and identical runs emit identical
    bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    N = record.n_agents
    written = []

    lines = ["k,t,agent,x,vx,y,vy"]
    for k in range(record.horizon + 1):
        t = k * record.dt
        for a in range(N):
            s = record.states[k, 4 * a:4 * a + 4]
            lines.append(f"{k},{_r(t)},{a},{_r(s[0])},{_r(s[1])},{_r(s[2])},{_r(s[3])}")
    path = os.path.join(out_dir, "trajectories.csv")
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    lines = ["k,pair,e"]
    for k in range(record.horizon + 1):
        for idx, (i, j) in enumerate(record.pairs):
            lines.append(f"{k},{i}-{j},{_r(record.pair_errors[k, idx])}")
    path = os.path.join(out_dir, "errors.csv")
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    lines = ["k,agent,e"]
    for k in range(record.horizon + 1):
        for a in range(N):
            lines.append(f"{k},{a},{_r(record.tracking[k, a])}")
    path = os.path.join(out_dir, "tracking.csv")
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    dos_steps = {e.k: e for e in record.dos_events}
    lines = ["step,i,j,ui_x,ui_y,uj_x,uj_y,separation_before,separation_after,dos_event"]
    for k in range(record.horizon):
        d = record.decisions[k]
        flag = 1 if k in dos_steps else 0
        if d is None and flag == 0:
            continue
        if d is None:
            lines.append(f"{k},-1,-1,0.0,0.0,0.0,0.0,0.0,0.0,{flag}")
            continue
        i, j = d.targets
        ui = d.u_a[2 * i:2 * i + 2]
        uj = d.u_a[2 * j:2 * j + 2]
        lines.append(f"{k},{i},{j},{_r(ui[0])},{_r(ui[1])},{_r(uj[0])},{_r(uj[1])},"
                     f"{_r(d.separation_before)},{_r(d.separation_after)},{flag}")
    path = os.path.join(out_dir, "attack.csv")
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    ks = list(range(record.horizon + 1))
    series = []
    for a in range(N):
        xs = record.states[:, 4 * a].tolist()
        ys = record.states[:, 4 * a + 2].tolist()
        series.append((xs, ys, svgplot.PALETTE[a % len(svgplot.PALETTE)],
                       f"agent {a}"))
    path = os.path.join(out_dir, "trajectories.svg")
    _write(path, svgplot.line_plot(series, title=f"{record.mode} trajectories",
                                   xlabel="x [m]", ylabel="y [m]"))
    written.append(path)

    series = []
    for idx, (i, j) in enumerate(record.pairs):
        series.append((ks, record.pair_errors[:, idx].tolist(),
                       svgplot.PALETTE[idx % len(svgplot.PALETTE)], f"e {i}-{j}"))
    series.append((ks, record.system_tracking.tolist(), "#000000", "tracking"))
    path = os.path.join(out_dir, "errors.svg")
    _write(path, svgplot.line_plot(series, title=f"{record.mode} errors",
                                   xlabel="step", ylabel="error [m]",
                                   dashed=("tracking",)))
    written.append(path)
    return written


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
