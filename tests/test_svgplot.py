"""The SVG plots' polyline text: the compiled `format_points` against
"%.6g" % per coordinate, and `emit_svg`'s bytes on the active backend
against the fallback's and against the per-point formulas of a scalar
loop.

The compiled formatter is checked on its own in fresh interpreters, as in
test_csvfmt.py; those tests skip while the extension is not built.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from test_kernels import _run_compiled, needs_compiled

from equilab.bench import svgplot


def g6_values():
    """Doubles where "%.6g" is easy to get wrong: decimal ties at the sixth
    digit that are exact in binary (integers ending in 5, k + 0.5,
    k + 0.25 and k + 0.125), both signed zeros, infinities, NaN, the
    smallest subnormal, the 1e-5/1e-4 and 1e6 switches of the exponent
    form and their neighbours, 1e16, powers of two and ten over the whole
    range, and 400K random bit patterns."""
    rng = np.random.default_rng(20261020)
    ties = [np.arange(1_000_005, 10_000_000, 10, dtype=np.float64)[::37],
            np.arange(100_000, 1_000_000, dtype=np.float64)[::7] + 0.5,
            np.arange(10_000, 100_000, dtype=np.float64) + 0.25,
            np.arange(1_000, 10_000, dtype=np.float64) + 0.125]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 999_999.5, 9_999_995.0,
               1e-5, 1e-4, 1e6, 0.5, 1.0 / 3.0]
    near = []
    for x in (1e-5, 1e-4, 1e6, 999_999.5, 1e16, 5e-324):
        up, down = np.float64(x), np.float64(x)
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            near += [up, down]
    powers = [np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-323, 309)]
    random = rng.integers(-(2**63), 2**63 - 1, size=400_000, endpoint=True).view(np.float64)
    values = np.concatenate([*ties, special, near, *powers, random])
    return np.concatenate([values, -values])


def check_points(format_points):
    """format_points over every g6_values() cell, as x and as y, equals
    "%.6g" % per coordinate; returns the number of points."""
    xs = g6_values()
    ys = xs[::-1].copy()
    got = format_points(xs, ys).split(" ")
    assert len(got) == len(xs)
    for x, y, point in zip(xs.tolist(), ys.tolist(), got):
        want = "%.6g,%.6g" % (x, y)
        if point != want:
            raise AssertionError(f"({x!r}, {y!r}): {point!r} != {want!r}")
    assert format_points(np.zeros(0), np.zeros(0)) == ""
    return len(xs)


# bad (xs, ys) for the compiled formatter
REJECTED = {
    "2-d xs": (np.zeros((2, 2)), np.zeros(2)),
    "float32 ys": (np.zeros(2), np.zeros(2, dtype=np.float32)),
    "non-contiguous xs": (np.zeros(6)[::2], np.zeros(3)),
    "lengths differ": (np.zeros(3), np.zeros(2)),
    "xs without a buffer": ([1.0, 2.0], np.zeros(2)),
}


def check_rejections(format_points):
    """Each bad input raises ValueError or TypeError; returns how many
    cases were checked."""
    for name, (xs, ys) in REJECTED.items():
        try:
            format_points(xs, ys)
        except (ValueError, TypeError):
            continue
        raise AssertionError(f"{name}: no ValueError or TypeError")
    return len(REJECTED)


def run_compiled(check):
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import test_svgplot\n"
              "from equilab._kernels._jacobi import format_points\n"
              f"print(test_svgplot.{check.__name__}(format_points))\n")
    return _run_compiled(script, str(Path(__file__).parent))


@needs_compiled
def test_compiled_points_equal_percent_g():
    proc = run_compiled(check_points)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 500_000, proc.stdout


@needs_compiled
def test_compiled_points_reject_bad_input():
    proc = run_compiled(check_rejections)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(len(REJECTED)), proc.stdout


def reference_points(series, log_y):
    """Per series, its "x,y" strings as a per-point scalar loop computes
    them: Python floats, the plot's ranges from min and max of the kept
    points, "%.6g" % per coordinate."""
    kept = []
    for s in series:
        pts = []
        for x, y in zip(s.xs, s.ys):
            if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0.0):
                pts.append((float(x), math.log10(float(y)) if log_y else float(y)))
        kept.append(pts)
    xs = [x for pts in kept for x, _ in pts]
    ys = [y for pts in kept for _, y in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    return [["%.6g,%.6g" % (svgplot.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w,
                            svgplot.MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h)
             for x, y in pts] for pts in kept]


def random_series(rng, n_series, log_y):
    """Series of random lengths (0, 1 and more points) over wide ranges,
    with NaN, infinities and, on a log axis, non-positive y mixed in."""
    series = []
    for i in range(n_series):
        n = int(rng.choice([0, 1, 2, 5, 300]))
        xs = np.cumsum(rng.exponential(10.0 ** rng.uniform(-3, 3), size=n)) - rng.uniform(-5, 5)
        ys = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, size=n)
        if log_y:
            ys = np.abs(ys)
        for arr in (xs, ys):
            bad = rng.random(n) < 0.05
            arr[bad] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -1.0], size=int(bad.sum()))
        series.append(svgplot.LineSeries(f"s{i}", tuple(xs.tolist()), tuple(ys.tolist())))
    return series


def assert_points_drawn(out, series, log_y):
    for i, coords in enumerate(reference_points(series, log_y)):
        color = svgplot.PALETTE[i % len(svgplot.PALETTE)]
        if len(coords) == 1:
            x0, y0 = coords[0].split(",")
            assert f'<circle cx="{x0}" cy="{y0}" r="2.5" fill="{color}"/>' in out
        elif coords:
            assert f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}"' in out
        else:
            # only the legend swatch has this colour
            assert f'fill="{color}"/>' not in out
            assert f'fill="none" stroke="{color}"' not in out


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log"])
@pytest.mark.parametrize("seed", range(12))
def test_svg_bytes_equal_fallback_and_per_point_loop(monkeypatch, log_y, seed):
    rng = np.random.default_rng(seed)
    series = random_series(rng, 1 + seed % 4, log_y)
    kwargs = dict(title="t", xlabel="x", ylabel="y", log_y=log_y)
    active = svgplot.emit_svg(series, **kwargs)
    assert_points_drawn(active, series, log_y)
    monkeypatch.setattr(svgplot, "_compiled_format_points", None)
    assert svgplot.emit_svg(series, **kwargs).encode() == active.encode()


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log"])
def test_svg_edge_cases_equal_fallback(monkeypatch, log_y):
    cases = {
        "empty plot": [],
        "empty series": [svgplot.LineSeries("a", (), ())],
        "one point": [svgplot.LineSeries("a", (3,), (0.25,))],
        "all dropped": [svgplot.LineSeries("a", (0.0, 1.0), (math.nan, -1.0 if log_y else math.inf))],
        "one point left": [svgplot.LineSeries("a", (0, 1, 2), (math.nan, 2.0, -math.inf))],
        "signed zeros": [svgplot.LineSeries("a", (-0.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
                         svgplot.LineSeries("b", (0.0, -0.0), (2.0, 3.0))],
    }
    active = {name: svgplot.emit_svg(s, log_y=log_y) for name, s in cases.items()}
    for name, series in cases.items():
        assert_points_drawn(active[name], series, log_y)
    assert '<circle cx="' in active["one point"] and "<polyline" not in active["one point"]
    assert '<circle cx="' in active["one point left"]
    assert "<polyline" not in active["all dropped"] and "<circle" not in active["all dropped"]
    monkeypatch.setattr(svgplot, "_compiled_format_points", None)
    for name, series in cases.items():
        assert svgplot.emit_svg(series, log_y=log_y) == active[name], name
