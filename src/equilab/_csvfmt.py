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
ever held, whatever the trace's length.

A block is one `_kernels.format_rows` call, on whichever backend
`_kernels` picked: two halves from the compiled `_reprfmt.cpp` (the second
on a second thread, unless the table is one block), one str from the
numpy `reprfmt_py`, to the same bytes.  A trace file is ASCII, as its
cells are, so a header that is not ASCII is rejected, on either backend.
"""

import numpy as np

from equilab._kernels import format_rows
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


def csv_blocks(header, values):
    """The text of a CSV file as an iterator of strs: the `header` lines,
    then the rows of the 2-D float64 `values`, at most BLOCK_ROWS rows per
    str after the header's; CRLF after every line.  A row is its 0-based
    index, then its cells, each `repr(float(x))` after a comma.

    The rows are formatted a block at a time, as the iterator is read.
    Raises DimensionError when `values` is not 2-D, and ValueError when a
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
    n = len(values)
    for start in range(0, n, BLOCK_ROWS):
        yield from format_rows(values, start, min(start + BLOCK_ROWS, n))


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
