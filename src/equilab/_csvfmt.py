"""CSV text: float64 matrices as rows, and the line ends of every CSV file
equilab writes.

Every float cell equilab writes to a trace CSV is `repr(float(x))`, the
shortest string that round-trips to the same double.  A trace file's
whole text comes from `format_csv`: its header lines, then one row per
matrix row, CRLF after each line.  On the compiled backend the extension
(`_kernels/_reprfmt.cpp`) writes that text straight into one str,
allocated at an upper bound and shrunk in place, so the text exists once:
no list of row strings and no join.  It formats the first half of the
rows on the calling thread and the second half on a second thread, both
with the GIL released; the second half goes into the tail of the str and
is moved down behind the first half after the join.  Every text takes
that path, whatever its size: a thread start costs tens of microseconds,
and a 2001-row GD trace formats about a third faster.  It takes each
cell's digits from `std::to_chars` and lays them out as `repr` does, byte
for byte, without reading the locale.  That str is 1-byte ASCII, so a header, separator or
lead that is not ASCII is rejected, on either backend.

On the numpy fallback, where that conversion is one `repr` call per cell,
the rows come from `format_rows` and are joined.  Trace matrices repeat
values a lot (a GD trace that has converged or cycles repeats whole
rows), so `repr` runs once per distinct float64 bit pattern within a
block of rows and the rows are built by indexing.  Keying on bits, not on
values, keeps -0.0 apart from 0.0; every NaN prints as `nan` whatever its
payload.
"""

import numpy as np

from equilab._kernels import format_text as _compiled_format_text
from equilab.errors import DimensionError

# Rows per np.unique pass of the numpy fallback.  Larger blocks find more
# repeats but keep more strings alive at once.  On the quad64 benchmark
# (3 x 2001 rows of 66 cells, seed 1) one block per trace makes 220K repr
# calls for 396K cells and raises the run's peak RSS by about 9 MB;
# 256 rows make 247K calls at +2 MB, 128 rows 266K calls at +1 MB, 64 rows
# 297K calls.
BLOCK_ROWS = 128


def format_rows(values, first=None, sep=","):
    """Rows of the 2-D float64 `values` as text: `sep`-joined cells, each
    `repr(float(x))`, led by `str(first[i])` when `first` is given.

    Returns one string per row, with no line ends: the numpy fallback's
    rows, with one `repr` call per distinct float64 bit pattern in each
    block of BLOCK_ROWS rows.  Raises DimensionError when `values` is not
    2-D or `first` does not have one item per row.
    """
    values, lead = _checked(values, first)
    n_rows, n_cols = values.shape
    keys = values.view(np.int64)
    rows = []
    for start in range(0, n_rows, BLOCK_ROWS):
        block = keys[start:start + BLOCK_ROWS]
        # 1-D input: NumPy 2.0 gives an n-d input's inverse the input's shape
        uniq, inverse = np.unique(block.ravel(), return_inverse=True)
        texts = np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)
        cells = texts[inverse].reshape(len(block), n_cols).tolist()
        if lead is not None:
            for i, row in enumerate(cells, start):
                row.insert(0, lead[i])
        rows += map(sep.join, cells)
        # free this block's cell strings before the next block makes its own
        del texts, cells
    return rows


def format_csv(header, values, first=None, sep=","):
    """The text of a CSV file: the `header` lines, then the rows of the 2-D
    float64 `values` as `format_rows` writes them, CRLF after every line.

    Equal to `csv_text([*header, *format_rows(values, first, sep)])`.  On
    the compiled backend the text is written in place into one str.
    Raises DimensionError as `format_rows` does, and ValueError when a
    header line, `sep` or a lead is not ASCII (the extension checks that
    itself).
    """
    values, lead = _checked(values, first)
    prefix = csv_text(header)
    if _compiled_format_text is not None:
        return _compiled_format_text(prefix, values, lead, sep)
    if not (prefix.isascii() and sep.isascii() and all(map(str.isascii, lead or ()))):
        raise ValueError("header, sep and first must be ASCII")
    return csv_text([*header, *format_rows(values, lead, sep)])


def _checked(values, first):
    """(values as C-contiguous float64, first as a list of str or None),
    or DimensionError."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionError(f"values must be 2-D, got shape {values.shape}")
    lead = None if first is None else [str(i) for i in first]
    if lead is not None and len(lead) != len(values):
        raise DimensionError(f"first has {len(lead)} items, values has {len(values)} rows")
    return values, lead


def csv_text(lines):
    """The file text of CSV lines: CRLF after every line, the last included."""
    # the empty last item puts a line end after the last line without
    # copying every line or the joined text once more
    return "\r\n".join([*lines, ""])
