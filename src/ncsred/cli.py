"""Command-line interface: simulate runs, export attacker artifacts."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dmd, harness, laprec
from .attack import agent_reach_polygon
from .errors import InvalidInputError, WorkbenchError
from .reachset import circumscribe_ball
from .scenario_io import load_scenario
from . import svgplot


def _add_scenario_args(p):
    p.add_argument("--scenario", default=None, help="scenario file (defaults: 5-UAV experiment)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")
    p.add_argument("--out", required=True, help="output directory")


def _nominal_prefix(scenario, upto):
    """States of a nominal run through step `upto` (inclusive)."""
    if upto > scenario.horizon_steps:
        raise InvalidInputError(
            f"--at {upto} exceeds horizon_steps {scenario.horizon_steps}")
    record = harness.run(scenario, "nominal")
    return record.states[:upto + 1]


def _write_matrix_csv(path, M):
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(M)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_matrix_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def cmd_simulate(args):
    scenario = load_scenario(args.scenario, seed=args.seed)
    record = harness.run(scenario, args.mode)
    harness.emit(record, args.out)
    summary = harness.metrics(record)
    for row in summary.rows():
        print(",".join(row))
    print(f"steady_tracking_max,{summary.steady_tracking_max!r}")
    print(f"leader_tracking_final,{summary.leader_tracking_final!r}")
    print(f"attacked_steps,{summary.attacked_steps}")
    for e in summary.dos_events:
        print(f"dos_event,step={e.k},node={e.planned_node},"
              f"edge={e.planned_edge},removed={e.removed_edges},note={e.note}")
    return 0


def cmd_dmd_export(args):
    scenario = load_scenario(args.scenario, seed=args.seed)
    cfg = scenario.attack
    states = _nominal_prefix(scenario, args.at)
    buf = dmd.SnapshotBuffer(cfg.snapshot_width, scenario.dim)
    for x in states:
        buf.push(x)
    model = dmd.fit(buf, svd_tol=cfg.svd_tol)
    os.makedirs(args.out, exist_ok=True)
    _write_matrix_csv(os.path.join(args.out, "X.csv"), buf.X)
    _write_matrix_csv(os.path.join(args.out, "X_plus.csv"), buf.X_plus)
    _write_matrix_csv(os.path.join(args.out, "K.csv"), model.K)
    print(f"residual,{model.residual!r}")
    print(f"rank_used,{model.rank_used}")
    return 0


def cmd_reachset_dump(args):
    scenario = load_scenario(args.scenario, seed=args.seed)
    cfg = scenario.attack
    states = _nominal_prefix(scenario, args.at)
    buf = dmd.SnapshotBuffer(cfg.snapshot_width, scenario.dim)
    for x in states:
        buf.push(x)
    model = dmd.fit(buf, svd_tol=cfg.svd_tol)
    omega = circumscribe_ball(cfg.rho, cfg.s,
                              seed=scenario.rng_seed + harness.OMEGA_SEED_OFFSET,
                              jitter=cfg.vertex_jitter)
    os.makedirs(args.out, exist_ok=True)
    lines = ["step,agent,vertex,x,y"]
    series = []
    polygons = agent_reach_polygon(model.K, scenario.agent_model.B,
                                   range(scenario.n_agents), scenario.n_agents,
                                   states[-1], omega, cfg.n_directions,
                                   args.horizon)
    for a, poly in enumerate(polygons):
        for vi, v in enumerate(poly.vertices):
            lines.append(f"{args.at},{a},{vi},{v[0]!r},{v[1]!r}")
        ring = np.vstack([poly.vertices, poly.vertices[:1]])
        series.append((ring[:, 0].tolist(), ring[:, 1].tolist(),
                       svgplot.PALETTE[a % len(svgplot.PALETTE)], f"agent {a}"))
    with open(os.path.join(args.out, "polygons.csv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(args.out, "polygons.svg"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(svgplot.line_plot(series,
                                   title=f"reach polygons at step {args.at}",
                                   xlabel="x [m]", ylabel="y [m]"))
    return 0


def cmd_recover_laplacian(args):
    K = _read_matrix_csv(args.input)
    result = laprec.recover(K, threshold=args.threshold,
                            max_iters=args.max_iters, seed=args.seed or 0)
    os.makedirs(args.out, exist_ok=True)
    _write_matrix_csv(os.path.join(args.out, "L_hat.csv"), result.model.L)
    _write_matrix_csv(os.path.join(args.out, "S.csv"), result.model.S)
    _write_matrix_csv(os.path.join(args.out, "T.csv"), result.model.T)
    lines = ["iteration,frobenius_residual,gamma"]
    for it, (fr, g) in enumerate(zip(result.frobenius_trace, result.trace), 1):
        lines.append(f"{it},{fr!r},{g!r}")
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"gamma,{result.gamma!r}")
    print(f"iterations,{result.iterations}")
    print(f"converged,{result.converged}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ncsred",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment and emit artifacts")
    _add_scenario_args(p)
    p.add_argument("--mode", choices=harness.MODES, required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("dmd-export", help="export snapshot matrices and fitted K")
    _add_scenario_args(p)
    p.add_argument("--at", type=int, required=True, help="fit after this nominal step")
    p.set_defaults(fn=cmd_dmd_export)

    p = sub.add_parser("reachset-dump", help="dump per-agent reach polygons")
    _add_scenario_args(p)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.set_defaults(fn=cmd_reachset_dump)

    p = sub.add_parser("recover-laplacian", help="recover structure from a K csv")
    p.add_argument("--input", required=True, help="K matrix as CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_recover_laplacian)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WorkbenchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
