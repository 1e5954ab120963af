"""CSV text: float64 matrices as rows, and the line ends of every CSV file
equilab writes.

Every float cell equilab writes to a trace CSV is `repr(float(x))`, the
shortest string that round-trips to the same double.  A trace file's text
comes from `csv_blocks(header, values)` as a sequence of strs: its header
lines, then the rows of the matrix, a block of BLOCK_ROWS rows at a time,
CRLF after every line.  A row is its 0-based index, then its cells, each
after a comma: the one row shape every trace file has.  The run writers
hand each str to the file as it comes
(`bench.manifest.atomic_write_chunks`), so no trace file's whole text is
ever held, whatever the trace's length; `format_csv` joins the same strs
for a caller that wants the text.

On the compiled backend the extension's `format_ranges`
(`_kernels/_reprfmt.cpp`) formats one block per call as two halves, the
second half on a second thread, both with the GIL released, and returns
each half as a str; a table of one block is formatted whole on the
calling thread and starts no thread.  It takes each cell's digits, and
each row index, from `std::to_chars` and lays the cells out as `repr`
does, byte for byte, without reading the locale.  A trace file is ASCII,
as its cells are, so a header that is not ASCII is rejected, on either
backend.

On the numpy fallback, where that conversion is one `repr` call per cell,
each block's rows come from one pass of `_block_rows` and are joined.
Trace matrices repeat values a lot (a GD trace that has converged or
cycles repeats whole rows), so `repr` runs once per distinct float64 bit
pattern within a block and the rows are built by indexing.  Keying on
bits, not on values, keeps -0.0 apart from 0.0; every NaN prints as `nan`
whatever its payload.
"""

import numpy as np

from equilab._kernels import format_ranges as _compiled_format_ranges
from equilab.errors import DimensionError

# Rows per block of text, on both backends.  On the numpy fallback a block
# is one np.unique pass: larger blocks find more repeats but keep more
# strings alive at once.  On the quad64 benchmark (3 x 2001 rows of 66
# cells, seed 1) one fallback block per trace makes 220K repr calls for
# 396K cells and raises the run's peak RSS by about 9 MB; 256 rows make
# 247K calls at +2 MB, 128 rows 266K calls at +1 MB, 64 rows 297K calls.
# Compiled, a call's scratch buffer, its strs and an encoded half are what
# a streamed write holds: quad64 peaked at 44.8 MB with two 128-row blocks
# per call and 43.8-44.0 MB with one, against 46.7 MB for one whole text
# per trace.
BLOCK_ROWS = 128


def format_rows(values):
    """Rows of the 2-D float64 `values` as text: each row's 0-based index,
    then its cells, each `repr(float(x))` after a comma.

    Returns one string per row, with no line ends: the numpy fallback's
    rows, with one `repr` call per distinct float64 bit pattern in each
    block of BLOCK_ROWS rows.  Raises DimensionError when `values` is not
    2-D.
    """
    keys = _checked(values).view(np.int64)
    rows = []
    for start in range(0, len(keys), BLOCK_ROWS):
        rows += _block_rows(keys, start)
    return rows


def _block_rows(keys, start):
    """format_rows's rows start to start + BLOCK_ROWS of the float64 bit
    patterns `keys` (2-D int64)."""
    block = keys[start:start + BLOCK_ROWS]
    # 1-D input: NumPy 2.0 gives an n-d input's inverse the input's shape
    uniq, inverse = np.unique(block.ravel(), return_inverse=True)
    texts = np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)
    cells = texts[inverse].reshape(block.shape).tolist()
    for i, row in enumerate(cells, start):
        row.insert(0, str(i))
    return list(map(",".join, cells))


def csv_blocks(header, values):
    """The text of a CSV file as an iterator of strs: the `header` lines,
    then the rows of the 2-D float64 `values` as `format_rows` writes them,
    at most BLOCK_ROWS rows per str after the header's; CRLF after every
    line.

    The rows are formatted a block at a time, as the iterator is read.
    Raises DimensionError as `format_rows` does, and ValueError when a
    header line is not ASCII, both before the first str.
    """
    values = _checked(values)
    head = csv_text(header)
    if not head.isascii():
        raise ValueError("header must be ASCII")
    return _blocks(head, values)


def _blocks(head, values):
    """csv_blocks's strs, after its checks."""
    yield head
    n_rows = len(values)
    if _compiled_format_ranges is None:
        keys = values.view(np.int64)
        for start in range(0, n_rows, BLOCK_ROWS):
            yield csv_text(_block_rows(keys, start))
        return
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        # a table of one block, such as a short training trace, starts no thread
        mid = (start + stop) // 2 if n_rows > BLOCK_ROWS else stop
        yield from _compiled_format_ranges(values, start, mid, stop)


def format_csv(header, values):
    """The text of a CSV file as one str: the join of `csv_blocks(header,
    values)`, equal to `csv_text([*header, *format_rows(values)])`.
    Raises as `csv_blocks` does."""
    return "".join(csv_blocks(header, values))


def _checked(values):
    """values as a C-contiguous float64 array, or DimensionError."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionError(f"values must be 2-D, got shape {values.shape}")
    return values


def csv_text(lines):
    """The file text of CSV lines: CRLF after every line, the last included."""
    # the empty last item puts a line end after the last line without
    # copying every line or the joined text once more
    return "\r\n".join([*lines, ""])
