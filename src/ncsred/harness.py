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
from .graph import Graph
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
    """Complete trace of one simulated run. The graph after a DoS is the
    scenario graph less its event's `removed_edges`."""

    mode: str
    dt: float
    n_agents: int
    states: np.ndarray            # (H+1, 4N)
    decisions: list               # per step: AttackDecision or None
    pair_errors: np.ndarray       # (H+1, n_pairs) positional formation errors
    pairs: list                   # [(i, j), ...] matching pair_errors columns
    tracking: np.ndarray          # (H+1, N) per-agent slot deviation (positions)
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
    off = s.formation_offsets[:, ::2]
    # a stacked 1x2 @ 2x1 product is the BLAS dot that np.linalg.norm takes
    # per row; norm(axis=...) and einsum round differently on some rows. The
    # entries it leaves non-finite take hypot: their square overflows past
    # about 1.3e154 m, or their slots are farther apart than the float range,
    # and then each agent's slot is subtracted first
    with np.errstate(over="ignore", invalid="ignore"):
        d = pos.take(ii, axis=1)
        d -= pos.take(jj, axis=1)
        d -= off[ii] - off[jj]
        np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0], out=out)
        bad = ~np.isfinite(out)
        r, c = np.nonzero(bad)
        e = d[r, c]
        far = ~np.isfinite(e).all(axis=1)
        r, c = r[far], c[far]
        e[far] = (pos[r, ii[c]] - off[ii[c]]) - (pos[r, jj[c]] - off[jj[c]])
        out[bad] = np.hypot(*e.T)
    return out


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
    inject loop; each step from `start_step` on a full window fits the model
    that it attacks with. fdi_dos: same, with structure recovery and a DoS at
    `dos_step`; the executed jamming severs the planned agent's true links
    (the attacker's believed link need not exist). A plant whose closed
    loop is unstable, and an attacked mode with fewer than 2 agents, are
    refused before the first step. An attacked mode warns
    when the snapshot window is narrower than the 4N-dimensional state, since
    such a window cannot identify the plant. A geometry error in an attacked
    step (reach supports that overflow) names the step, and so does a state
    that leaves the float range: the first step is checked before the loop,
    an attacked mode checks each step's state before the eavesdropper records
    it, and every mode checks all states once after the loop. So does a
    formation error beyond the float range (slots farther apart than it).
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
    index = neighbor_index(scenario.graph, scenario.formation_offsets)

    states = np.zeros((H + 1, dim))
    decisions = [None] * H
    # filled after the loop, but allocated before it: allocating them at the
    # end raised the process's peak RSS
    pair_errors = np.zeros((H + 1, N * (N - 1) // 2))
    tracking = np.zeros((H + 1, N))
    dos_events = []

    states[0] = scenario.initial_states.reshape(-1)
    # states near the float range overflow in the first step's products; one
    # check here names that step, so the loop needs no errstate of its own
    with np.errstate(over="ignore", invalid="ignore"):
        first = step(scenario, states[0], control_inputs(scenario, 0, states[0], index))
    if not np.isfinite(first).all():
        raise InvalidInputError("step 1: state is not finite")

    for k in range(H):
        x = states[k]
        if mode != "nominal":
            if not np.isfinite(x).all():
                raise InvalidInputError(f"step {k}: state is not finite")
            buffer.push(x)

        if mode == "fdi_dos" and k == cfg.dos_step:
            event = _execute_dos(scenario, buffer, k)
            dos_events.append(event)
            if event.removed_edges:
                jammed = Graph(N, scenario.graph.edges - set(event.removed_edges))
                index = neighbor_index(jammed, scenario.formation_offsets)

        u_a = None
        if attacking and k >= cfg.start_step and buffer.is_full:
            K = dmd.fit(buffer, svd_tol=cfg.svd_tol).K
            try:
                polygons = agent_reach_polygon(K, B, x, omega, cfg.n_directions,
                                               cfg.horizon)
            except DegenerateGeometryError as exc:
                raise DegenerateGeometryError(f"step {k}: {exc}") from exc
            targets = select_targets(polygons)
            decision = synthesize_fdi(targets, K, omega, x, B, polygons)
            decisions[k] = decision
            u_a = decision.u_a

        states[k + 1] = step(scenario, x, control_inputs(scenario, k, x, index),
                             fdi=u_a)

    if not np.isfinite(states).all():
        k = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise InvalidInputError(f"step {k}: state is not finite")
    _positional_errors(scenario, states, out=pair_errors)
    if not np.isfinite(pair_errors).all():
        k, p = np.argwhere(~np.isfinite(pair_errors))[0]
        i, j = _pair_list(N)[p]
        raise InvalidInputError(f"step {k}: the formation error of pair {i}-{j} "
                                "exceeds the float range")
    _slot_tracking(scenario, states, out=tracking)
    return RunRecord(mode=mode, dt=scenario.agent_model.dt, n_agents=N,
                     states=states, decisions=decisions, pair_errors=pair_errors,
                     pairs=_pair_list(N), tracking=tracking, dos_events=dos_events)


def _execute_dos(scenario: Scenario, buffer, k) -> DosEvent:
    """Refit the window with `recovery_svd_tol`, recover structure, plan the
    DoS, and jam the planned agent: the event's `removed_edges` are all the
    scenario graph's links of that agent, the links that the jamming severs."""
    if not buffer.can_fit:
        return DosEvent(k=k, planned_node=None, planned_edge=None,
                        note="no identified model yet")
    model = dmd.fit(buffer, svd_tol=scenario.attack.recovery_svd_tol)
    plan = plan_dos(laprec.recover(model.K).model.L)
    if plan is None:
        return DosEvent(k=k, planned_node=None, planned_edge=None,
                        note="recovered graph already disconnected")
    removed = [e for e in sorted(scenario.graph.edges) if plan.node in e]
    note = "jammed planned node" if removed else "planned node had no true links"
    return DosEvent(k=k, planned_node=plan.node, planned_edge=plan.edge,
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
