"""End-to-end experiment orchestration and artifact emission."""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import dmd, laprec, svgplot
from .attack import (agent_reach_polygon, plan_dos, select_targets,
                     synthesize_fdi)
from .errors import DegenerateGeometryError, InvalidInputError
from .graph import Graph, remove_edge
from .ncs import (Scenario, control_inputs, neighbor_index, stacked_closed_loop,
                  step)
from .reachset import InputPolytope, circumscribe_ball, pair_indices

MODES = ("nominal", "fdi", "fdi_dos")

#: derived sub-seeds so one scenario seed fixes every random draw in a run
OMEGA_SEED_OFFSET = 1000003


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
    decisions: list               # per step: AttackDecision or None
    pair_errors: np.ndarray       # (H+1, n_pairs) positional formation errors
    pairs: list                   # [(i, j), ...] matching pair_errors columns
    tracking: np.ndarray          # (H+1, N) per-agent slot deviation (positions)
    graphs: list                  # Graph instances in activation order
    dos_events: list              # DosEvent entries

    @property
    def horizon(self):
        return self.states.shape[0] - 1

    @property
    def system_tracking(self):
        """Worst per-agent slot deviation per step."""
        return self.tracking.max(axis=1)


def _pair_list(n):
    ii, jj = pair_indices(n)
    return list(zip(ii.tolist(), jj.tolist()))


def _positional_errors(s: Scenario, states, out):
    """Formation error of every pair i < j (columns) at every row of states."""
    ii, jj = pair_indices(s.n_agents)
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
    slots = s.formation_offsets[None, :, ::2] + s.track.states[:len(states), None, ::2]
    return np.hypot(X[..., 0] - slots[..., 0], X[..., 2] - slots[..., 1], out=out)


def input_polytope(scenario: Scenario) -> InputPolytope:
    """The attacker's injection polytope Omega, drawn from the scenario's seed."""
    cfg = scenario.attack
    return circumscribe_ball(cfg.rho, cfg.s, seed=scenario.rng_seed + OMEGA_SEED_OFFSET,
                             jitter=cfg.vertex_jitter)


def run(scenario: Scenario, mode: str) -> RunRecord:
    """Simulate one experiment.

    nominal: plant only. fdi: plant plus the eavesdrop / identify / reach /
    inject loop. fdi_dos: same, with structure recovery and a DoS at the
    configured step; the executed jamming severs the planned agent's true
    links (the attacker's believed link need not exist). A plant whose closed
    loop is unstable, and an attacked mode with fewer than 2 agents, are
    refused before the first step. An attacked mode warns
    when the snapshot window is narrower than the 4N-dimensional state, since
    such a window cannot identify the plant. A geometry error in an attacked
    step (reach supports that overflow) names the step, and so does a state
    that leaves the float range: an attacked mode checks each step's state
    before the eavesdropper records it, and every mode checks all states once
    after the loop.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    # a follower group with no path to the leader keeps the double
    # integrator's eigenvalue 1, defective, which eigvals returns up to about
    # 1.4e-8 high; an unstable gain sits far above (1.44 for the gain rows
    # 0.5 0.5 0 0 / 0 0 0.5 0.5)
    radius = np.abs(np.linalg.eigvals(stacked_closed_loop(scenario))).max()
    if not radius <= 1.0 + 1e-6:
        raise InvalidInputError(f"closed loop is unstable: spectral radius "
                                f"{radius:.6g} exceeds 1")
    cfg = scenario.attack
    N = scenario.n_agents
    H = scenario.horizon_steps
    dim = scenario.dim
    B = scenario.agent_model.B

    if mode == "fdi_dos" and cfg.dos_step >= H:
        raise InvalidInputError(f"fdi_dos needs dos_step ({cfg.dos_step}) below "
                                f"horizon_steps ({H})")
    if mode != "nominal" and N < 2:
        raise InvalidInputError(f"{mode} needs at least 2 agents, got n_agents = {N}")
    if mode != "nominal" and cfg.snapshot_width < dim:
        warnings.warn(f"snapshot_width {cfg.snapshot_width} is below 4 * n_agents = "
                      f"{dim}: the window cannot identify the plant", UserWarning,
                      stacklevel=2)
    attacking = mode in ("fdi", "fdi_dos") and cfg.rho > 0
    omega = input_polytope(scenario) if attacking else None

    buffer = dmd.SnapshotBuffer(cfg.snapshot_width, dim)
    model = None
    active_graph = scenario.graph
    graphs = [active_graph]
    index = neighbor_index(active_graph, scenario.formation_offsets)

    states = np.zeros((H + 1, dim))
    decisions = [None] * H
    # filled after the loop, but allocated before it: allocating them at the
    # end raised the process's peak RSS
    pair_errors = np.zeros((H + 1, N * (N - 1) // 2))
    tracking = np.zeros((H + 1, N))
    dos_events = []

    states[0] = scenario.initial_states.reshape(-1)

    for k in range(H):
        x = states[k]
        if mode != "nominal":
            if not np.isfinite(x).all():
                raise InvalidInputError(f"step {k}: state is not finite")
            buffer.push(x)
            refit_due = (k >= cfg.start_step
                         and (k - cfg.start_step) % cfg.refit_every == 0)
            if refit_due and buffer.is_full:
                model = dmd.fit(buffer, svd_tol=cfg.svd_tol)

        if mode == "fdi_dos" and k == cfg.dos_step:
            active_graph, event = _execute_dos(scenario, buffer, active_graph, k)
            dos_events.append(event)
            if active_graph is not graphs[-1]:
                graphs.append(active_graph)
                index = neighbor_index(active_graph, scenario.formation_offsets)

        u_a = None
        if attacking and k >= cfg.start_step and model is not None:
            try:
                polygons = agent_reach_polygon(model.K, B, x, omega,
                                               cfg.n_directions, cfg.horizon)
            except DegenerateGeometryError as exc:
                raise DegenerateGeometryError(f"step {k}: {exc}") from exc
            targets = select_targets(polygons)
            decision = synthesize_fdi(targets, model.K, omega, x, B, polygons)
            decisions[k] = decision
            u_a = decision.u_a

        states[k + 1] = step(scenario, x, control_inputs(scenario, k, x, index=index),
                             fdi=u_a)

    if not np.isfinite(states).all():
        k = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise InvalidInputError(f"step {k}: state is not finite")
    _positional_errors(scenario, states, out=pair_errors)
    _slot_tracking(scenario, states, out=tracking)
    return RunRecord(mode=mode, dt=scenario.agent_model.dt, n_agents=N,
                     states=states, decisions=decisions, pair_errors=pair_errors,
                     pairs=_pair_list(N), tracking=tracking, graphs=graphs,
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
    plan = plan_dos(laprec.recover(model.K).model.L)
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
    leader_tracking_final: float
    steady_tracking_max: float     # max over agents and steady steps
    attacked_steps: int
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
    return MetricsSummary(
        pairs=record.pairs,
        pair_max=record.pair_errors.max(axis=0),
        pair_final=record.pair_errors[-1],
        leader_tracking_final=float(record.tracking[-1, 0]),
        steady_tracking_max=float(
            record.tracking[steady_window_start(record.horizon):].max()),
        attacked_steps=sum(d is not None for d in record.decisions),
        dos_events=record.dos_events,
    )


def _r(v):
    return repr(float(v))


def _write(out_dir, name, chunks):
    """Every artifact write: creates out_dir, writes the strings of chunks in
    order to out_dir/name and returns that path; an OSError becomes
    InvalidInputError naming the path. A caller with one text passes a 1-tuple."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    return path


def _trajectory_rows(record):
    """trajectories.csv, one step's rows at a time."""
    yield "k,t,agent,x,vx,y,vy\n"
    for k, row in enumerate(record.states):
        kt = f"{k},{float(k * record.dt)!r}"
        # tolist per row, not per array, keeps peak RSS flat; same floats, same repr
        cells = iter(row.tolist())
        yield "".join([f"{kt},{a},{x!r},{vx!r},{y!r},{vy!r}\n" for a, (x, vx, y, vy)
                       in enumerate(zip(cells, cells, cells, cells))])


def _column_rows(header, cols, table):
    """A long table of (k, column, e), one step's rows at a time.

    One list holds a step's row pieces, k, ",column,", repr(e) and a newline
    per column; each step refills the k and e slots and joins the list, so
    the cost per value is about that of its repr."""
    yield header + "\n"
    n = len(cols)
    parts = [None, None, None, "\n"] * n
    parts[1::4] = [f",{col}," for col in cols]
    for k, row in enumerate(table):
        parts[0::4] = [str(k)] * n
        parts[2::4] = map(repr, row.tolist())
        yield "".join(parts)


def _attack_rows(record):
    """attack.csv: a row for each attacked or DoS step."""
    dos_steps = {e.k for e in record.dos_events}
    yield "step,i,j,ui_x,ui_y,uj_x,uj_y,separation_before,separation_after,dos_event\n"
    for k, d in enumerate(record.decisions):
        flag = 1 if k in dos_steps else 0
        if d is None:
            if flag:
                yield f"{k},-1,-1,0.0,0.0,0.0,0.0,0.0,0.0,{flag}\n"
            continue
        i, j = d.targets
        ui = d.u_a[2 * i:2 * i + 2]
        uj = d.u_a[2 * j:2 * j + 2]
        yield (f"{k},{i},{j},{_r(ui[0])},{_r(ui[1])},{_r(uj[0])},{_r(uj[1])},"
               f"{_r(d.separation_before)},{_r(d.separation_after)},{flag}\n")


def emit(record: RunRecord, out_dir):
    """Write trajectories.csv, errors.csv, tracking.csv, attack.csv and SVG plots.

    Floats are formatted with repr (shortest round-trip), so re-parsing
    reproduces the run to full precision and identical runs emit identical
    bytes. Tables are written one step at a time, and plots read the record's
    arrays, so no table or series is copied whole. The time goes mostly to
    that formatting: one repr per table value and one %.2f per plot
    coordinate, with the long tables' rows filled from prebuilt pieces.
    """
    N = record.n_agents
    labels = [f"{i}-{j}" for i, j in record.pairs]
    written = [_write(out_dir, "trajectories.csv", _trajectory_rows(record))]
    for name, header, cols, table in (
            ("errors.csv", "k,pair,e", labels, record.pair_errors),
            ("tracking.csv", "k,agent,e", range(N), record.tracking)):
        written.append(_write(out_dir, name, _column_rows(header, cols, table)))
    written.append(_write(out_dir, "attack.csv", _attack_rows(record)))

    colors = svgplot.PALETTE
    series = [(record.states[:, 4 * a], record.states[:, 4 * a + 2],
               colors[a % len(colors)], f"agent {a}") for a in range(N)]
    plot = svgplot.line_plot(series, title=f"{record.mode} trajectories",
                             xlabel="x [m]", ylabel="y [m]")
    written.append(_write(out_dir, "trajectories.svg", (plot,)))

    ks = np.arange(record.horizon + 1, dtype=float)
    series = [(ks, record.pair_errors[:, idx], colors[idx % len(colors)], f"e {label}")
              for idx, label in enumerate(labels)]
    series.append((ks, record.system_tracking, "#000000", "tracking"))
    plot = svgplot.line_plot(series, title=f"{record.mode} errors", xlabel="step",
                             ylabel="error [m]", dashed=("tracking",))
    written.append(_write(out_dir, "errors.svg", (plot,)))
    return written
