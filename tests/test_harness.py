import dataclasses
import os
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ncsred import laprec
from ncsred.attack import AttackConfig, agent_reach_polygon
from ncsred.cli import main
from ncsred.dmd import SnapshotBuffer, fit
from ncsred.errors import InvalidInputError, WorkbenchError
from ncsred.harness import MODES, OMEGA_SEED_OFFSET, emit, metrics, run
from ncsred.ncs import stacked_closed_loop
from ncsred.reachset import circumscribe_ball
from ncsred.scenario_io import (PARSERS, build_scenario, load_scenario,
                                parse_scenario_text)
from scenario_helpers import read_trajectories_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from scenarios import WORKLOADS, scenario_text  # noqa: E402

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: the documented scenario-file key of each AttackConfig field named otherwise
FILE_KEY = {"s": "faces", "horizon": "reach_horizon"}


def readme_keys():
    """Keys in the first column of the README's scenario-file table."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    cells = re.findall(r"^\| (`.*?) \|", section, re.M)
    return {key for cell in cells for key in re.findall(r"`([a-z0-9_]+)`", cell)}


#: gain rows under which the 5-agent formation diverges (radius 1.44)
DIVERGING_GAIN = [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
UNSTABLE = "closed loop is unstable: spectral radius 1.44026 exceeds 1"
#: a scenario file whose step-51 injection overflows the reach pass at step 52
OVERFLOW_TEXT = "horizon_steps = 120\nrho = 1e155\n"


def short_scenario(seed=0, horizon=80, **attack_overrides):
    defaults = dict(rho=0.05, s=8, start_step=51, dos_step=60,
                    snapshot_width=50)
    defaults.update(attack_overrides)
    return build_scenario(seed=seed, horizon_steps=horizon,
                          attack=AttackConfig(**defaults))


def overflow_scenario(tmp_path):
    """A 120-step scenario file whose injection budget rho = 1e155 overflows
    the attacker's reach pass."""
    path = tmp_path / "overflow.scn"
    path.write_text(OVERFLOW_TEXT)
    return load_scenario(str(path))


class TestRun:
    def test_rejects_unknown_mode(self):
        s = short_scenario()
        with pytest.raises(InvalidInputError):
            run(s, "stealth")

    def test_nominal_converges(self):
        s = build_scenario(seed=0)
        m = metrics(run(s, "nominal"))
        assert m.pair_final.max() < 0.1
        assert m.leader_tracking_final < 0.1

    def test_zero_budget_fdi_reproduces_nominal(self):
        s = short_scenario(rho=0.0)
        a = run(s, "nominal")
        b = run(s, "fdi")
        assert np.array_equal(a.states, b.states)
        assert all(d is None for d in b.decisions)

    def test_fdi_applies_injections_after_start(self):
        s = short_scenario()
        r = run(s, "fdi")
        assert all(d is None for d in r.decisions[:51])
        attacked = [d for d in r.decisions[51:] if d is not None]
        assert len(attacked) == r.horizon - 51
        assert metrics(r).attacked_steps == r.horizon - 51
        # no injection enters the plant before step 51
        assert np.array_equal(r.states[:52], run(s, "nominal").states[:52])

    def test_fdi_dos_executes_at_configured_step(self):
        s = short_scenario()
        r = run(s, "fdi_dos")
        assert len(r.dos_events) == 1
        assert r.dos_events[0].k == 60
        assert len(r.graphs) == 2
        removed = set(r.dos_events[0].removed_edges)
        assert removed and removed <= s.graph.edges

    def test_forced_dos_edge(self):
        s = short_scenario(dos_edge=(2, 4))
        r = run(s, "fdi_dos")
        assert r.dos_events[0].removed_edges == [(2, 4)]
        assert r.graphs[1].edges == s.graph.edges - {(2, 4)}

    def test_forced_dos_edge_missing_raises(self):
        s = short_scenario(dos_edge=(3, 4))
        with pytest.raises(InvalidInputError):
            run(s, "fdi_dos")


    @pytest.mark.parametrize("mode", MODES)
    def test_unstable_closed_loop_refused(self, mode):
        s = build_scenario(horizon_steps=200, gain=DIVERGING_GAIN)
        with pytest.raises(InvalidInputError, match=UNSTABLE):
            run(s, mode)

    @pytest.mark.parametrize("mode", ["fdi", "fdi_dos"])
    def test_overflowing_reach_supports_name_their_step(self, tmp_path, mode):
        """With rho = 1e155 the step-51 injection drives the state to about
        2e154. At step 52 the state and the fitted K are finite and their
        products overflow: the run names the step whose reach supports are
        not finite. The named error is the only report: numpy warns nothing."""
        s = overflow_scenario(tmp_path)
        with warnings.catch_warnings(), \
                pytest.raises(WorkbenchError,
                              match="^step 52: reach supports are not finite$"):
            warnings.simplefilter("error", RuntimeWarning)
            run(s, mode)

    def test_overflow_scenario_runs_nominal(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(overflow_scenario(tmp_path), "nominal")
        assert record.horizon == 120 and np.isfinite(record.states).all()

    @pytest.mark.parametrize("edges, exact", [
        (set(), True), ({(0, 1), (1, 2), (2, 3)}, True), ({(2, 3), (3, 4)}, False)],
        ids=["no-edges", "follower-alone", "follower-group"])
    def test_marginal_closed_loop_runs(self, edges, exact):
        """A follower with no path to the leader keeps the double
        integrator's eigenvalue 1. For a connected group of such followers
        eigvals returns it slightly above 1, and the run still goes ahead."""
        s = build_scenario(horizon_steps=60, edges=edges,
                           attack=short_scenario(start_step=40).attack)
        radius = np.abs(np.linalg.eigvals(stacked_closed_loop(s))).max()
        assert radius == 1.0 if exact else 1.0 < radius < 1.0 + 1e-7
        assert all(np.isfinite(run(s, mode).states).all() for mode in ("nominal", "fdi"))

    @pytest.mark.parametrize("mode", ["fdi", "fdi_dos"])
    def test_narrow_window_warns_once(self, mode):
        """A 5-wide window cannot identify the 20-dimensional stock plant:
        an attacked run says so once, and still runs."""
        s = short_scenario(snapshot_width=5)
        with pytest.warns(UserWarning) as caught:
            record = run(s, mode)
        assert [str(w.message) for w in caught] == [
            "snapshot_width 5 is below 4 * n_agents = 20: "
            "the window cannot identify the plant"]
        assert any(d is not None for d in record.decisions)

    def test_nominal_run_ignores_the_window(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(short_scenario(snapshot_width=5), "nominal")

    @pytest.mark.parametrize("workload", ["stock_fdi_dos", "wide_h3_fdi_dos"])
    def test_benchmark_workloads_do_not_warn(self, tmp_path, workload):
        """The attack workloads keep a window of 50 against 4N = 20 and 40."""
        path = tmp_path / "w.scn"
        path.write_text(scenario_text(WORKLOADS[workload], 0, horizon=101))
        s = load_scenario(str(path))
        assert s.attack.snapshot_width == 50 and s.dim in (20, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(s, WORKLOADS[workload].mode)


class TestMetrics:
    def test_single_agent_has_empty_pair_table(self):
        s = build_scenario(seed=0, n_agents=1, edges=set(),
                           offsets=np.zeros((1, 4)), horizon_steps=5)
        m = metrics(run(s, "nominal"))
        assert m.rows() == [("pair", "max_error", "final_error")]

    def test_identical_seeds_identical_tables(self):
        a = metrics(run(short_scenario(seed=3, horizon=60), "nominal"))
        b = metrics(run(short_scenario(seed=3, horizon=60), "nominal"))
        assert a.rows() == b.rows()
        assert a.steady_tracking_max == b.steady_tracking_max

    def test_pair_count(self):
        m = metrics(run(short_scenario(), "nominal"))
        assert len(m.pairs) == 10
        assert m.pairs == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert m.rows()[1][0] == "0-1"


class TestEmit:
    def test_files_and_row_counts(self, tmp_path):
        s = short_scenario(seed=1, horizon=70)
        r = run(s, "fdi")
        written = emit(r, tmp_path)
        assert written == [os.path.join(tmp_path, name) for name in (
            "trajectories.csv", "errors.csv", "tracking.csv", "attack.csv",
            "trajectories.svg", "errors.svg")]
        names = sorted(os.listdir(tmp_path))
        assert names == ["attack.csv", "errors.csv", "tracking.csv",
                         "trajectories.csv", "trajectories.svg", "errors.svg"] or \
               set(names) == {"attack.csv", "errors.csv", "tracking.csv",
                              "trajectories.csv", "trajectories.svg", "errors.svg"}
        traj = (tmp_path / "trajectories.csv").read_text().strip().splitlines()
        assert len(traj) == 1 + (70 + 1) * 5
        errs = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert len(errs) == 1 + (70 + 1) * 10
        attack = (tmp_path / "attack.csv").read_text().strip().splitlines()
        assert len(attack) == 1 + (70 - 51)
        svg = (tmp_path / "errors.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_round_trip_full_precision(self, tmp_path):
        s = short_scenario(seed=2, horizon=60)
        r = run(s, "fdi")
        emit(r, tmp_path)
        states = read_trajectories_csv(tmp_path / "trajectories.csv")
        assert np.array_equal(states, r.states)

    def test_reruns_byte_identical(self, tmp_path):
        for mode in ("nominal", "fdi"):
            d1 = tmp_path / f"{mode}_1"
            d2 = tmp_path / f"{mode}_2"
            emit(run(short_scenario(seed=5, horizon=60), mode), d1)
            emit(run(short_scenario(seed=5, horizon=60), mode), d2)
            for name in os.listdir(d1):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


class TestScenarioIO:
    def test_defaults_match_experiment(self):
        s = load_scenario(None)
        assert s.n_agents == 5
        assert s.agent_model.dt == 0.2
        assert s.horizon_steps == 500
        assert s.graph.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 4)})
        assert s.attack.rho == 0.05
        assert s.attack.s == 8

    def test_parse_file_with_overrides(self, tmp_path):
        text = """
        # comment line
        n_agents = 3
        dt = 0.1
        horizon_steps = 40
        rng_seed = 7
        edges = 1-2, 2-3       # one-based in files
        formation_offsets = 0,0; -1,0; 1,0
        gain_row1 = -0.3 -0.5 0 0
        gain_row2 = 0 0 -0.3 -0.5
        leader_gain_row1 = -2 -1 0 0
        leader_gain_row2 = 0 0 -2 -1
        rho = 0.1
        faces = 6
        start_step = 10
        dos_step = 20
        dos_edge = 2-3
        snapshot_width = 8
        """
        path = tmp_path / "scn.txt"
        path.write_text(text)
        s = load_scenario(path)
        assert s.n_agents == 3
        assert s.graph.edges == frozenset({(0, 1), (1, 2)})
        assert s.attack.dos_edge == (1, 2)
        assert s.attack.s == 6
        assert np.array_equal(s.gain[0], [-0.3, -0.5, 0, 0])
        assert s.formation_offsets[1, 0] == -1.0
        assert s.rng_seed == 7

    def test_seed_override(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text("rng_seed = 3\n")
        assert load_scenario(path, seed=11).rng_seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text("warp_drive = 1\n")
        with pytest.raises(InvalidInputError):
            load_scenario(path)
        # d_star was a knob no stage read; files that still set it are refused
        path.write_text("d_star = 1.0\n")
        with pytest.raises(InvalidInputError, match="unknown scenario keys"):
            load_scenario(path)

    def test_bad_line_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_scenario_text("just words\n")

    @pytest.mark.parametrize("field", dataclasses.fields(AttackConfig),
                             ids=lambda f: f.name)
    def test_attack_field_round_trips(self, tmp_path, field):
        key = FILE_KEY.get(field.name, field.name)
        assert key in readme_keys()
        if field.name == "dos_edge":
            value, text = (1, 2), "2-3"
        else:
            value = (field.default * 2 if isinstance(field.default, float)
                     else field.default + 1)
            text = repr(value)
        assert value != field.default
        path = tmp_path / "scn.txt"
        path.write_text(f"{key} = {text}\n")
        assert load_scenario(path).attack == dataclasses.replace(
            AttackConfig(), **{field.name: value})

    @pytest.mark.parametrize("text, message", [
        ("dt = inf\n", "dt must be finite, got inf"),
        ("gain_row1 = nan 0 0 0\ngain_row2 = 0 0 0 0\n", "gain[0, 0] is nan, not finite"),
        ("gain_row1 = 0 0 0 0\ngain_row2 = 0 0 nan 0\n", "gain[1, 2] is nan, not finite"),
        ("leader_gain_row1 = inf 0 0 0\nleader_gain_row2 = 0 0 -5 -2\n",
         "leader_gain[0, 0] is inf, not finite"),
        ("init_box_low = nan\n", "init_box_low must be finite, got nan"),
        ("init_box_high = -inf\n", "init_box_high must be finite, got -inf"),
        ("formation_offsets = inf,0; -4,-3; 4,-3; -8,0; 8,0\n",
         "formation_offsets[0, 0] is inf, not finite"),
        ("rho = inf\n", "rho must be finite, got inf"),
    ])
    def test_non_finite_numbers_refused(self, tmp_path, text, message):
        """A non-finite plant, formation, start or budget number is refused
        where it is owned, naming the field."""
        path = tmp_path / "scn.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_scenario(str(path))

    def test_non_finite_initial_states_refused(self):
        s = build_scenario(horizon_steps=5)
        states = s.initial_states.copy()
        states[3, 1] = np.nan
        with pytest.raises(InvalidInputError,
                           match=re.escape("initial_states[3, 1] is nan, not finite")):
            dataclasses.replace(s, initial_states=states)

    def test_readme_lists_the_parsed_keys(self):
        assert readme_keys() == set(PARSERS)

    def test_zero_based_edge_token_rejected(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text("edges = 0-1\n")
        with pytest.raises(InvalidInputError):
            load_scenario(path)


class TestCli:
    def scenario_file(self, tmp_path, extra=""):
        path = tmp_path / "scn.txt"
        path.write_text("horizon_steps = 70\ndos_step = 60\n" + extra)
        return str(path)

    def test_simulate_nominal(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", self.scenario_file(tmp_path),
                   "--mode", "nominal", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectories.csv").exists()
        assert "pair,max_error,final_error" in capsys.readouterr().out

    def test_simulate_bad_mode_argparse_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--mode", "bogus", "--out", str(tmp_path)])

    def test_error_is_named_and_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "scn.txt"
        bad.write_text("edges = 0-1\n")
        rc = main(["simulate", "--scenario", str(bad), "--mode", "nominal",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "InvalidInputError" in capsys.readouterr().err

    def test_dmd_export(self, tmp_path, capsys):
        out = tmp_path / "dmd"
        rc = main(["dmd-export", "--scenario", self.scenario_file(tmp_path),
                   "--at", "60", "--out", str(out)])
        assert rc == 0
        X = np.loadtxt(out / "X.csv", delimiter=",")
        Xp = np.loadtxt(out / "X_plus.csv", delimiter=",")
        K = np.loadtxt(out / "K.csv", delimiter=",")
        assert X.shape == (20, 50) and Xp.shape == (20, 50) and K.shape == (20, 20)
        assert np.allclose(X[:, 1:], Xp[:, :-1])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["residual", "rank_used", "cond"]
        sig = np.linalg.svd(X, compute_uv=False)
        rank = int(lines[1].split(",")[1])
        # X went through CSV text, and the kept sigma is 1e-9 of the largest
        assert float(lines[2].split(",")[1]) == pytest.approx(sig[0] / sig[rank - 1],
                                                             rel=1e-3)

    def test_reachset_dump(self, tmp_path):
        out = tmp_path / "reach"
        path = self.scenario_file(tmp_path, "reach_horizon = 2\n")
        rc = main(["reachset-dump", "--scenario", path,
                   "--at", "60", "--out", str(out)])
        assert rc == 0
        assert (out / "polygons.csv").read_text().startswith("step,agent,vertex,x,y\n")
        table = np.loadtxt(out / "polygons.csv", delimiter=",", skiprows=1)
        assert (out / "polygons.svg").exists()

        s = load_scenario(path)
        cfg = s.attack
        assert cfg.horizon == 2
        buf = SnapshotBuffer(cfg.snapshot_width, s.dim)
        states = run(s, "nominal").states
        for x in states[:61]:
            buf.push(x)
        omega = circumscribe_ball(cfg.rho, cfg.s, seed=s.rng_seed + OMEGA_SEED_OFFSET,
                                  jitter=cfg.vertex_jitter)
        polys = agent_reach_polygon(fit(buf, svd_tol=cfg.svd_tol).K,
                                    s.agent_model.B, states[60], omega,
                                    cfg.n_directions, 2)
        assert np.array_equal(table[:, 0], np.full(len(table), 60.0))
        assert np.array_equal(table[:, 1], np.concatenate(
            [np.full(len(p.vertices), p.agent) for p in polys]))
        assert np.array_equal(table[:, 2], np.concatenate(
            [np.arange(len(p.vertices)) for p in polys]))
        # repr round-trips, so the dumped coordinates are the vertices' bytes
        assert np.array_equal(table[:, 3:], np.vstack([p.vertices for p in polys]))

    @pytest.mark.parametrize("horizon", ["0", "-2"])
    def test_reachset_dump_rejects_horizon_below_one(self, tmp_path, capsys, horizon):
        out = tmp_path / "reach"
        path = self.scenario_file(tmp_path, f"reach_horizon = {horizon}\n")
        rc = main(["reachset-dump", "--scenario", path,
                   "--at", "60", "--out", str(out)])
        assert rc == 2
        assert "InvalidInputError: reach horizon must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_reachset_dump_has_no_horizon_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reachset-dump", "--at", "60", "--horizon", "2",
                  "--out", str(tmp_path / "reach")])

    @pytest.mark.parametrize("text, message", [
        ("rho = abc\n", "line 1: bad rho value 'abc'"),
        ("dt = 0.1\nfaces = 8.5\n", "line 2: bad faces value '8.5'"),
        ("edges = 1-x\n", "line 1: bad edges value '1-x'"),
        ("dos_edge = 1-\n", "line 1: bad dos_edge value '1-'"),
        ("gain_row1 = 1 2 3\ngain_row2 = 0 0 0 0\n",
         "line 1: bad gain_row1 value '1 2 3': gain row '1 2 3' must have 4 numbers"),
        ("rho = 0.1\n# again\nrho = 0.2\n", "line 3: rho is already set on line 1"),
        ("n_agents = 3\n", "n_agents = 3 needs edges and formation_offsets"),
        ("n_agents = 3\nedges = 1-2, 2-3\n", "n_agents = 3 needs formation_offsets"),
        ("n_agents = 3\nedges = 1-2, 2-3\nformation_offsets = 0,0; 1,0\n",
         "formation_offsets: expected 3 entries, got shape (2, 2)"),
        ("dos_step = -5\n", "dos_step must be >= 0, got -5"),
        ("dt = nan\n", "dt must be positive, got nan"),
        ("rho = nan\n", "rho must be >= 0, got nan"),
        ("svd_tol = nan\n", "svd_tol must be >= 0, got nan"),
        ("svd_tol = -1e-3\n", "svd_tol must be >= 0, got -0.001"),
        ("recovery_svd_tol = nan\n", "recovery_svd_tol must be >= 0, got nan"),
        ("recovery_svd_tol = -1\n", "recovery_svd_tol must be >= 0, got -1.0"),
    ])
    def test_simulate_names_bad_scenario(self, tmp_path, capsys, text, message):
        path = tmp_path / "scn.txt"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--mode", "fdi_dos",
                   "--out", str(out)])
        assert rc == 2
        assert f"InvalidInputError: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, dos_step, rc", [
        ("nominal", 90, 0), ("fdi", 90, 0), ("fdi_dos", 90, 2), ("fdi_dos", 70, 2)])
    def test_fdi_dos_needs_dos_step_below_horizon(self, tmp_path, capsys, mode,
                                                  dos_step, rc):
        path = tmp_path / "scn.txt"
        path.write_text(f"horizon_steps = 70\ndos_step = {dos_step}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--mode", mode,
                     "--out", str(out)]) == rc
        if rc:
            assert (f"InvalidInputError: fdi_dos needs dos_step ({dos_step}) below "
                    "horizon_steps (70)") in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["fdi", "fdi_dos"])
    def test_attack_needs_two_agents(self, tmp_path, capsys, mode):
        """An attacked mode on one agent is refused before the first step,
        naming the agent count; `nominal` runs it."""
        path = tmp_path / "scn.txt"
        path.write_text("n_agents = 1\nedges =\nformation_offsets = 0,0\n"
                        "horizon_steps = 120\n")
        out = tmp_path / "out"
        with mock.patch("ncsred.harness.step") as step:
            rc = main(["simulate", "--scenario", str(path), "--mode", mode,
                       "--out", str(out)])
        assert rc == 2 and step.call_count == 0
        assert (f"InvalidInputError: {mode} needs at least 2 agents, got n_agents = 1"
                in capsys.readouterr().err)
        assert not out.exists()
        assert main(["simulate", "--scenario", str(path), "--mode", "nominal",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_simulate_refuses_unstable_closed_loop(self, tmp_path, capsys, mode):
        path = tmp_path / "scn.txt"
        path.write_text("horizon_steps = 200\ngain_row1 = 0.5 0.5 0 0\n"
                        "gain_row2 = 0 0 0.5 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--mode", mode,
                     "--out", str(out)]) == 2
        assert f"InvalidInputError: {UNSTABLE}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fdi", "fdi_dos"])
    def test_simulate_names_the_overflowing_step(self, tmp_path, capsys, mode):
        path = tmp_path / "scn.txt"
        path.write_text(OVERFLOW_TEXT)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(path), "--mode", mode,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("DegenerateGeometryError: step 52: reach supports are not finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("rho", ["1e157", "1e300"])
    def test_simulate_names_the_step_past_the_square_overflow(self, tmp_path, capsys,
                                                              rho):
        """From rho = 1e157 the step-51 polygons and their input image are
        wider than about 1.3e154, where squared offsets overflow. The run still
        stops at step 52 with the named error, and numpy warns nothing."""
        path = tmp_path / "scn.txt"
        path.write_text(f"horizon_steps = 120\nrho = {rho}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["simulate", "--scenario", str(path), "--mode", "fdi",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("DegenerateGeometryError: step 52: reach supports are not finite"
                in capsys.readouterr().err)

    def test_reachset_dump_past_the_square_overflow(self, tmp_path):
        """`reachset-dump` of that rho = 1e157 file's nominal step 100 writes
        its polygons, and numpy warns nothing."""
        path = tmp_path / "scn.txt"
        path.write_text("horizon_steps = 120\nrho = 1e157\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["reachset-dump", "--scenario", str(path), "--at", "100",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "polygons.csv").read_text().count("\n") > 5

    @pytest.mark.parametrize("command, at", [("reachset-dump", "-5"),
                                             ("dmd-export", "-450")])
    def test_negative_at_rejected(self, tmp_path, capsys, command, at):
        out = tmp_path / "out"
        rc = main([command, "--scenario", self.scenario_file(tmp_path),
                   "--at", at, "--out", str(out)])
        assert rc == 2
        assert f"InvalidInputError: --at must be >= 0, got {at}" in capsys.readouterr().err
        assert not out.exists()

    def test_recover_laplacian_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from ncsred.graph import Graph, laplacian
        L0 = laplacian(Graph(3, frozenset({(0, 1), (1, 2)})))
        T0 = rng.normal(size=(4, 4))
        K = np.kron(L0, T0)
        kpath = tmp_path / "K.csv"
        np.savetxt(kpath, K, delimiter=",")
        out = tmp_path / "rec"
        rc = main(["recover-laplacian", "--input", str(kpath), "--out", str(out)])
        assert rc == 0
        L_hat = np.loadtxt(out / "L_hat.csv", delimiter=",")
        off = L_hat - np.diag(np.diag(L_hat))
        mx = np.abs(off).max()
        edges = {(i, j) for i in range(3) for j in range(i + 1, 3)
                 if off[i, j] < -0.5 * mx}
        assert edges == {(0, 1), (1, 2)}
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,frobenius_residual,gamma"
        assert len(trace) >= 2

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,x\n", "line 2: could not convert string to float: 'x'"),
        ("1,2,3,4\n\n1,2\n", "line 3: 2 cells, the first row has 4"),
    ], ids=["non-numeric cell", "ragged row"])
    def test_recover_laplacian_names_malformed_input(self, tmp_path, capsys, text,
                                                     message):
        kpath = tmp_path / "K.csv"
        kpath.write_text(text)
        out = tmp_path / "rec"
        assert main(["recover-laplacian", "--input", str(kpath), "--out", str(out)]) == 2
        assert f"InvalidInputError: {kpath} {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, args, artifact, out_is_file", [
        ("simulate", ["--mode", "nominal"], "errors.svg", False),
        ("dmd-export", ["--at", "60"], "K.csv", False),
        ("reachset-dump", ["--at", "60"], "polygons.svg", False),
        ("recover-laplacian", [], "trace.csv", False),
        # the second streamed table
        ("simulate", ["--mode", "nominal"], "errors.csv", False),
        # an --out that names a file fails at each command's first artifact
        ("simulate", ["--mode", "nominal"], "trajectories.csv", True),
        ("dmd-export", ["--at", "60"], "X.csv", True),
        ("reachset-dump", ["--at", "60"], "polygons.csv", True),
        ("recover-laplacian", [], "L_hat.csv", True),
    ], ids=["simulate", "dmd-export", "reachset-dump", "recover-laplacian",
            "simulate, streamed table", "simulate, out is a file",
            "dmd-export, out is a file", "reachset-dump, out is a file",
            "recover-laplacian, out is a file"])
    def test_write_failure_is_named(self, tmp_path, capsys, command, args, artifact,
                                    out_is_file):
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("")
        else:
            (out / artifact).mkdir(parents=True)
        if command == "recover-laplacian":
            kpath = tmp_path / "K.csv"
            np.savetxt(kpath, np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(4)),
                       delimiter=",")
            args = ["--input", str(kpath)]
        else:
            args = ["--scenario", self.scenario_file(tmp_path), *args]
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"InvalidInputError: cannot write {out / artifact}: ")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_recover_laplacian_rejects_non_finite(self, tmp_path, capsys, cell):
        K = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(4))
        K[0, 1] = float(cell)
        kpath = tmp_path / "K.csv"
        np.savetxt(kpath, K, delimiter=",")
        out = tmp_path / "rec"
        assert main(["recover-laplacian", "--input", str(kpath), "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"InvalidInputError: K[0, 1] is {cell}, not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iters", "0", "max_iters must be >= 1, got 0"),
        ("--max-iters", "-3", "max_iters must be >= 1, got -3"),
        # a NaN or negative threshold would run every sweep and exit 0
        ("--threshold", "nan", "threshold must be >= 0, got nan"),
        ("--threshold", "-1", "threshold must be >= 0, got -1.0"),
    ], ids=["0", "-3", "threshold nan", "threshold -1"])
    def test_recover_laplacian_rejects_max_iters_below_one(self, tmp_path, capsys,
                                                           flag, value, message):
        kpath = tmp_path / "K.csv"
        np.savetxt(kpath, np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(4)),
                   delimiter=",")
        out = tmp_path / "rec"
        assert main(["recover-laplacian", "--input", str(kpath), "--out", str(out),
                     flag, value]) == 2
        assert capsys.readouterr().err == f"InvalidInputError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, extra, seed", [
        (["--seed", "-5"], "", "-5"),
        ([], "rng_seed = -2\n", "-2"),
    ], ids=["flag", "file"])
    def test_simulate_rejects_negative_seed(self, tmp_path, capsys, args, extra,
                                            seed):
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", self.scenario_file(tmp_path, extra),
                     "--mode", "nominal", "--out", str(out), *args]) == 2
        assert (capsys.readouterr().err
                == f"InvalidInputError: seed must be >= 0, got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, knobs", [
        ([], {}),
        (["--threshold", "1e-3", "--max-iters", "7"],
         {"threshold": 1e-3, "max_iters": 7}),
        (["--max-iters", "5"], {"max_iters": 5}),
    ])
    def test_recover_laplacian_passes_only_given_flags(self, tmp_path, monkeypatch,
                                                       flags, knobs):
        # laprec.recover owns the defaults: an absent flag passes no keyword
        calls = []
        real = laprec.recover

        def spy(K, **kwargs):
            calls.append(kwargs)
            return real(K, **kwargs)

        monkeypatch.setattr(laprec, "recover", spy)
        kpath = tmp_path / "K.csv"
        np.savetxt(kpath, np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.eye(4)),
                   delimiter=",")
        assert main(["recover-laplacian", "--input", str(kpath),
                     "--out", str(tmp_path / "rec"), *flags]) == 0
        assert calls == [knobs]
