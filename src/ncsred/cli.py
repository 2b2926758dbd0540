"""Command-line interface: simulate runs, export attacker artifacts."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dmd, harness, laprec
from .attack import agent_reach_polygon
from .errors import InvalidInputError, WorkbenchError
from .scenario_io import load_scenario
from . import svgplot


def _add_scenario_args(p):
    p.add_argument("--scenario", default=None, help="scenario file (defaults: 5-UAV experiment)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")
    p.add_argument("--out", required=True, help="output directory")


def _nominal_fit(scenario, upto):
    """DMD fit on the snapshot window that ends at step `upto` of a nominal
    run; returns (buffer, model, state at `upto`)."""
    if upto < 0:
        raise InvalidInputError(f"--at must be >= 0, got {upto}")
    if upto > scenario.horizon_steps:
        raise InvalidInputError(
            f"--at {upto} exceeds horizon_steps {scenario.horizon_steps}")
    states = harness.run(scenario, "nominal").states[:upto + 1]
    buf = dmd.SnapshotBuffer(scenario.attack.snapshot_width, scenario.dim)
    for x in states:
        buf.push(x)
    return buf, dmd.fit(buf, svd_tol=scenario.attack.svd_tol), states[-1]


def _write_matrix_csv(out_dir, name, M):
    harness._write(out_dir, name, ("\n".join(",".join(repr(float(v)) for v in row)
                                    for row in np.atleast_2d(M)) + "\n",))


def _read_matrix_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line:
                    rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {lineno}: {exc}") from None
            if rows and len(rows[-1]) != len(rows[0]):
                raise InvalidInputError(f"{path} line {lineno}: {len(rows[-1])} "
                                        f"cells, the first row has {len(rows[0])}")
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
    buf, model, _ = _nominal_fit(scenario, args.at)
    _write_matrix_csv(args.out, "X.csv", buf.window[:, :-1])
    _write_matrix_csv(args.out, "X_plus.csv", buf.window[:, 1:])
    _write_matrix_csv(args.out, "K.csv", model.K)
    print(f"residual,{model.residual!r}")
    print(f"rank_used,{model.rank_used}")
    print(f"cond,{model.cond!r}")
    return 0


def cmd_reachset_dump(args):
    scenario = load_scenario(args.scenario, seed=args.seed)
    cfg = scenario.attack
    _, model, x = _nominal_fit(scenario, args.at)
    polygons = agent_reach_polygon(model.K, scenario.agent_model.B, x,
                                   harness.input_polytope(scenario),
                                   cfg.n_directions, cfg.horizon)
    lines = ["step,agent,vertex,x,y"]
    series = []
    for a, poly in enumerate(polygons):
        for vi, (vx, vy) in enumerate(poly.vertices.tolist()):
            lines.append(f"{args.at},{a},{vi},{vx!r},{vy!r}")
        ring = np.vstack([poly.vertices, poly.vertices[:1]])
        series.append((ring[:, 0], ring[:, 1],
                       svgplot.PALETTE[a % len(svgplot.PALETTE)], f"agent {a}"))
    harness._write(args.out, "polygons.csv", ("\n".join(lines) + "\n",))
    harness._write(args.out, "polygons.svg",
                   (svgplot.line_plot(series, title=f"reach polygons at step {args.at}",
                                      xlabel="x [m]", ylabel="y [m]"),))
    return 0


def cmd_recover_laplacian(args):
    K = _read_matrix_csv(args.input)
    result = laprec.recover(K, **{name: getattr(args, name) for name in
                                  ("threshold", "max_iters") if name in args})
    _write_matrix_csv(args.out, "L_hat.csv", result.model.L)
    _write_matrix_csv(args.out, "S.csv", result.model.S)
    _write_matrix_csv(args.out, "T.csv", result.model.T)
    lines = ["iteration,frobenius_residual,gamma"]
    for it, (fr, g) in enumerate(zip(result.frobenius_trace, result.trace), 1):
        lines.append(f"{it},{fr!r},{g!r}")
    harness._write(args.out, "trace.csv", ("\n".join(lines) + "\n",))
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
    p.add_argument("--at", type=int, required=True,
                   help="fit after this nominal step; reach_horizon is the scenario's")
    p.set_defaults(fn=cmd_reachset_dump)

    p = sub.add_parser("recover-laplacian", help="recover structure from a K csv")
    p.add_argument("--input", required=True, help="K matrix as CSV")
    p.add_argument("--out", required=True)
    for flag, cast in (("--threshold", float), ("--max-iters", int)):
        p.add_argument(flag, type=cast, default=argparse.SUPPRESS,
                       help="default: laprec.recover's")
    p.set_defaults(fn=cmd_recover_laplacian)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (WorkbenchError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
