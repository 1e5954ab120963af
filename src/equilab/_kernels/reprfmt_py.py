"""Numpy fallback of `_reprfmt.cpp`'s text formatters: the same signatures,
errors and bytes, except that format_rows returns its rows as one str
where the compiled one returns two halves."""

import operator

import numpy as np


def _checked(obj, ndim, name):
    """obj's buffer as an ndarray, or the compiled formatters' TypeError
    (no buffer) or ValueError (not a C-contiguous ndim-d float64 one)."""
    view = memoryview(obj)
    if view.ndim != ndim or view.format != "d" or not view.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {ndim}-d float64 array")
    return np.asarray(view)


def format_rows(values, start, stop, /):
    """Rows [start, stop) of values as a one-str tuple, CRLF after each
    row: str(i), its index in values, then each cell's repr(float(x))
    after a comma.  Trace tables repeat values a lot, so repr runs once per
    distinct float64 bit pattern in the range; keying on bits keeps -0.0
    apart from 0.0, and every NaN prints nan whatever its payload."""
    values = _checked(values, 2, "values")
    start, stop = operator.index(start), operator.index(stop)
    if not 0 <= start <= stop <= len(values):
        raise ValueError(f"rows must satisfy 0 <= start <= stop <= {len(values)}, "
                         f"got {start}, {stop}")
    keys = values[start:stop].view(np.int64)
    # 1-D input: NumPy 2.0 gives an n-d input's inverse the input's shape
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    texts = np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)
    cells = texts[inverse].reshape(keys.shape).tolist()
    for i, row in enumerate(cells, start):
        row.insert(0, str(i))
    return ("\r\n".join([*map(",".join, cells), ""]),)


def format_points(xs, ys, /):
    """The points of an SVG polyline as one str: "x,y" per point, joined by
    single spaces, each coordinate "%.6g" % x."""
    xs, ys = _checked(xs, 1, "xs"), _checked(ys, 1, "ys")
    if len(xs) != len(ys):
        raise ValueError(f"xs has {len(xs)} items, ys has {len(ys)}")
    return " ".join(["%.6g,%.6g" % xy for xy in zip(xs.tolist(), ys.tolist())])
