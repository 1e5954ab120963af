"""CSV text: float64 matrices as rows, each distinct cell value formatted
once, and the line ends of every CSV file equilab writes.

Every float cell equilab writes to a trace CSV is `repr(float(x))`, the
shortest string that round-trips to the same double.  That conversion is
the fixed cost per cell, and trace matrices repeat values a lot (a GD
trace that has converged or cycles repeats whole rows), so `format_rows`
calls `repr` once per distinct float64 bit pattern within a block of rows
and builds the rows by indexing.  Keying on bits, not on values, keeps
-0.0 apart from 0.0; every NaN prints as `nan` whatever its payload.
"""

import numpy as np

# Rows per np.unique pass.  Larger blocks find more repeats but keep more
# strings alive at once.  On the quad64 benchmark (3 x 2001 rows of 66
# cells, seed 1) one block per trace makes 220K repr calls for 396K cells
# and raises the run's peak RSS by about 9 MB; 256 rows make 247K calls at
# +2 MB, 128 rows 266K calls at +1 MB, 64 rows 297K calls.
BLOCK_ROWS = 128


def format_rows(values, first=None, sep=","):
    """Rows of the 2-D float64 `values` as text: `sep`-joined cells, each
    `repr(float(x))`, led by `str(first[i])` when `first` is given.

    Returns one string per row, with no line ends.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    keys = values.view(np.int64)
    lead = None if first is None else [str(i) for i in first]
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


def csv_text(lines):
    """The file text of CSV lines: CRLF after every line, the last included."""
    # the empty last item puts a line end after the last line without
    # copying every line or the joined text once more
    return "\r\n".join([*lines, ""])
