"""`harness.emit` and `svgplot.line_plot` write the bytes of the cell-by-cell
formatting in `emit_oracle`, raise what it raised and warn where it warned,
except where the oracle divides by a zero axis span: there they draw a finite
plot.

Records are built by hand, so the values include what no run produces:
signed zeros, subnormals, values near overflow, infinities and NaN. Every
comparison runs under `warnings.simplefilter("error")`, so a numpy warning
that the float code did not give fails as a changed exception type.
"""
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emit_oracle

from ncsred import harness, svgplot
from ncsred.harness import RunRecord, _pair_list
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan,
           1.0, -3.0, 12.0, 2.5e-3, 0.1)


def table(rng, shape, special_frac):
    """Floats over 12 decades, integral floats and SPECIAL values."""
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    integral = rng.random(shape) < 0.2
    values[integral] = rng.integers(-50, 50, size=integral.sum())
    special = rng.random(shape) < special_frac
    values[special] = rng.choice(SPECIAL, size=special.sum())
    return values


def record_of(n, horizon, dt, seed, special_frac):
    rng = np.random.default_rng(seed)
    pairs = _pair_list(n)
    return RunRecord(mode="fdi", dt=dt, n_agents=n,
                     states=table(rng, (horizon + 1, 4 * n), special_frac),
                     decisions=[None] * horizon,
                     pair_errors=table(rng, (horizon + 1, len(pairs)), special_frac),
                     pairs=pairs,
                     tracking=table(rng, (horizon + 1, n), special_frac),
                     graphs=[], dos_events=[])


def outcome(fn, *args, **kwargs):
    """(return value, exception type) of fn with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - the type is compared
            return None, type(exc)


def assert_finite_plot(text, exc):
    """A plot drawn without an exception or warning, every number finite and
    every polyline point inside the axes box."""
    assert exc is None
    assert "nan" not in text and "inf" not in text
    for points in re.findall(r'<polyline points="([^"]*)"', text):
        xy = np.array([p.split(",") for p in points.split()], float)
        assert (svgplot.MARGIN_L <= xy[:, 0]).all()
        assert (xy[:, 0] <= svgplot.WIDTH - svgplot.MARGIN_R).all()
        assert (svgplot.MARGIN_T <= xy[:, 1]).all()
        assert (xy[:, 1] <= svgplot.HEIGHT - svgplot.MARGIN_B).all()


def assert_same_files(record, tmp_path):
    """The oracle's files and exception; where the oracle divided by a zero
    span, every file, and the oracle's files written before that match."""
    want_dir, got_dir = tmp_path / "oracle", tmp_path / "emit"
    _, want_exc = outcome(emit_oracle.emit, record, want_dir)
    _, got_exc = outcome(harness.emit, record, got_dir)
    got = [f for f in emit_oracle.FILES if (got_dir / f).exists()]
    want = [f for f in emit_oracle.FILES if (want_dir / f).exists()]
    if want_exc is ZeroDivisionError:
        assert got_exc is None and got == list(emit_oracle.FILES)
    else:
        assert got_exc is want_exc and got == want
    for name in want:
        assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name
    return want_exc


class TestEmitBytes:
    @PROPERTY
    @given(n=st.integers(1, 6), horizon=st.integers(1, 40),
           dt=st.sampled_from([0.1, 0.2, 1 / 3]), seed=st.integers(0, 2**32 - 1),
           special_frac=st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    def test_hand_built_records(self, tmp_path_factory, n, horizon, dt, seed,
                                special_frac):
        record = record_of(n, horizon, dt, seed, special_frac)
        assert_same_files(record, tmp_path_factory.mktemp("emit"))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_finite_records_emit_everything(self, tmp_path, n):
        # the property's records may raise in a plot; these may not
        assert assert_same_files(record_of(n, 40, 0.2, n, 0.0), tmp_path) is None
        assert sorted(os.listdir(tmp_path / "emit")) == sorted(
            emit_oracle.FILES + ("attack.csv",))

    @pytest.mark.parametrize("special_frac", [0.02, 0.3])
    def test_wide_record(self, tmp_path, special_frac):
        # the property draws at most 6 agents; the benchmark's wide workload
        # has 10, so errors.csv and errors.svg carry 45 pair columns
        record = record_of(10, 30, 0.1, 10, special_frac)
        assert record.pair_errors.shape == (31, 45)
        assert assert_same_files(record, tmp_path) is None

    def test_emit_keeps_nothing_alive(self, tmp_path):
        """Once a first emit has warmed the caches, an emit of a 500-step run
        leaves under 16 KB allocated: no row piece or series outlives it."""
        record = harness.run(build_scenario(horizon_steps=500), "nominal")
        harness.emit(record, tmp_path / "warm-up")
        tracemalloc.start()
        try:
            harness.emit(record, tmp_path / "emit")
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 16 * 1024, kept

    def test_one_agent_has_an_empty_pair_table(self, tmp_path):
        record = record_of(1, 3, 0.1, 0, 0.0)
        assert assert_same_files(record, tmp_path) is None
        assert (tmp_path / "emit" / "errors.csv").read_text() == "k,pair,e\n"

    def test_zero_span_plot_writes_every_file(self, tmp_path):
        record = record_of(1, 2, 0.1, 0, 0.0)
        record.states[:, 0] = 1e300     # 1e300 + 1.0 == 1e300: a zero x span
        assert assert_same_files(record, tmp_path) is ZeroDivisionError
        assert sorted(os.listdir(tmp_path / "emit")) == sorted(
            emit_oracle.FILES + ("attack.csv",))
        assert_finite_plot((tmp_path / "emit" / "trajectories.svg").read_text(), None)

    def test_nominal_run(self, tmp_path):
        scenario = build_scenario(horizon_steps=60)
        assert assert_same_files(harness.run(scenario, "nominal"), tmp_path) is None

    def test_streamed_emit_holds_under_half_the_oracle_peak(self, tmp_path):
        """Tables go out one step at a time and plots read the record's
        arrays: on a 2,000-step run, emit's traced peak is below half the
        oracle's, which holds every table and series whole, with equal bytes."""
        record = harness.run(build_scenario(horizon_steps=2000), "nominal")
        peaks = {}
        for name, fn in (("oracle", emit_oracle.emit), ("emit", harness.emit)):
            tracemalloc.start()
            try:
                fn(record, tmp_path / name)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for name in emit_oracle.FILES:
            assert ((tmp_path / "emit" / name).read_bytes()
                    == (tmp_path / "oracle" / name).read_bytes()), name
        assert peaks["emit"] < 0.5 * peaks["oracle"], peaks


def near_ties():
    """Series whose plot coordinates lie within 3 ulps of a 2-decimal rounding
    tie, so any change to the order of sx's or sy's operations shows."""
    x0, x1, y0, y1 = svgplot._bounds([([0.0, 1.0], [0.0, 1.0], "", "")])
    iw = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    ih = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    ties = 200 + np.arange(1, 601, 2) * 0.005       # odd multiples of 0.005
    xs = x0 + (ties - svgplot.MARGIN_L) / iw * (x1 - x0)
    ys = y0 + (svgplot.MARGIN_T + ih - ties) / ih * (y1 - y0)

    def spread(v):
        return np.concatenate([v + k * np.spacing(v) for k in range(-3, 4)]).tolist()

    return [([0.0, 1.0], [0.0, 1.0], "#000000", "bounds"),
            (spread(xs), spread(ys), "#111111", "ties")]


SERIES = {
    "near ties": near_ties(),
    "empty": [],
    "only empty series": [([], [], "#000000", "a")],
    "one point": [([2.0], [-3.0], "#000000", "a")],
    "constant": [([2.0] * 4, [3.0] * 4, "#000000", "a"),
                 ([], [1.0], "#111111", "skipped")],
    "short ys": [([0.0, 1.0, 2.0], [5.0], "#000000", "a"),
                 ([0.0, 1.0], [], "#111111", "no points")],
    "signed zeros": [([0.0, -0.0, 1e-300], [-0.0, 0.0, -1e-300], "#000000", "")],
    "infinite span": [([-np.inf, 0.0, np.inf], [1.0, np.nan, -1.0], "#000000", "a")],
    "nan bounds": [([np.nan, 1.0, 2.0], [3.0, np.nan, 4.0], "#000000", "a")],
    "near overflow": [([-1e300, 1e300], [1e300, -1e300], "#000000", "a")],
    "integer steps": [(list(range(30)), [0.5 * k for k in range(30)], "#000000",
                       "tracking"), (list(range(30)), [0.1] * 30, "#111111", "e")],
    "zero x span": [([1e300] * 3, [0.0, 1.0, 2.0], "#000000", "a")],
    "zero y span": [([0.0, 1.0], [1e17, 1e17], "#000000", "a")],
    "negative zero spans": [([-1e300] * 2, [-2.0**53] * 2, "#000000", "a")],
}


class TestLinePlot:
    @pytest.mark.parametrize("name", SERIES)
    def test_same_text_or_exception(self, name):
        kwargs = dict(title="t", xlabel="x", ylabel="y", dashed=("tracking",))
        want = outcome(emit_oracle.line_plot, SERIES[name], **kwargs)
        got = outcome(svgplot.line_plot, SERIES[name], **kwargs)
        if want[1] is ZeroDivisionError:
            assert_finite_plot(*got)
            x0, x1, y0, y1 = svgplot._bounds(SERIES[name])
            assert x0 < x1 and y0 < y1
        else:
            assert got == want

    def test_nan_is_skipped_wherever_it_sits(self):
        # the same points with a NaN first, in the middle and last: the same
        # bounds, so the same ticks; only the polyline's point order differs
        def plot(xs, ys):
            series = [(xs, ys, "#000000", "a")]
            text = svgplot.line_plot(series)
            return svgplot._bounds(series), [line for line in text.splitlines()
                                             if not line.startswith("<polyline")]

        nan = float("nan")
        first = plot([nan, 1.0, 2.0], [nan, 3.0, 4.0])
        assert first[0][:2] == pytest.approx((0.96, 2.04))
        assert plot([1.0, nan, 2.0], [3.0, nan, 4.0]) == first
        assert plot([1.0, 2.0, nan], [3.0, 4.0, nan]) == first
        assert np.isnan(svgplot._bounds([([nan, nan], [1.0, 2.0], "", "")])[:2]).all()

    @pytest.mark.parametrize("name", ["zero x span", "zero y span"])
    def test_zero_span_raises_zero_division(self, name):
        # the oracle divides by the flat axis' zero span; line_plot does not
        with pytest.raises(ZeroDivisionError):
            emit_oracle.line_plot(SERIES[name])
        assert_finite_plot(*outcome(svgplot.line_plot, SERIES[name]))
