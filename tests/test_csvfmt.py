"""The trace-CSV formatters against one `repr(float(x))` call per cell:
`_csvfmt.format_rows` (the numpy fallback's rows), and
`_csvfmt.csv_blocks`/`format_csv` on both of their backends, the compiled
block writer (`_jacobi.format_ranges`) and the numpy fallback, against
`csv_text` of the per-cell rows, and streamed to a file block by block.

The compiled formatter is also checked on its own in fresh interpreters,
so that a fault fails one test instead of ending the session; those tests
skip while the extension is not built (`python3 setup.py build_ext
--inplace` builds it).
"""

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernels import _run_compiled, needs_compiled

from equilab import _csvfmt, quadlab
from equilab.bench.config import default_config
from equilab.bench.experiments import run_experiment
from equilab.errors import DimensionError

# `equilab.net.train` the attribute is the function; this is the module
train_module = importlib.import_module("equilab.net.train")

B = _csvfmt.BLOCK_ROWS
ROW_COUNTS = (0, 1, B - 1, B, B + 1, 2 * B + 3)
INT64 = st.integers(-(2**63), 2**63 - 1)


def bits(x):
    return int(np.float64(x).view(np.int64))


def signed(u):
    """A 64-bit pattern given as an unsigned int, as a signed int64."""
    return u - 2**64 if u >= 2**63 else u


NAN_BITS = (
    signed(0x7FF8000000000000),   # quiet NaN
    signed(0xFFF8000000000000),   # quiet NaN, sign bit set
    signed(0x7FF8000000000001),   # quiet NaN with a payload
    signed(0x7FF0000000000001),   # signalling NaN
    signed(0xFFFFFFFFFFFFFFFF),   # all ones: NaN
)
SPECIAL_BITS = (
    bits(0.0), bits(-0.0), bits(np.inf), bits(-np.inf), *NAN_BITS,
    1, signed(0x8000000000000001),               # smallest subnormals, both signs
    signed(0x000FFFFFFFFFFFFF),                  # largest subnormal
    bits(np.finfo(np.float64).tiny), bits(np.finfo(np.float64).max),
    bits(1.0), bits(-1.0), bits(0.1), bits(1e-300),
)


# both signs of the cells where repr's layout switches or that arithmetic
# rarely makes: NaNs with payloads, infinities, zeros, subnormals, the
# 1e16/1e17 and 1e-4/1e-5 switches of the exponent form, the largest double
ADVERSARIAL = np.concatenate([
    np.array(SPECIAL_BITS, dtype=np.int64).view(np.float64),
    [1e16, 1e17, np.nextafter(1e16, 0.0), 9999999999999998.0, 1e-4, 1e-5,
     np.nextafter(1e-4, 0.0), 0.00012345678901234567],
])
ADVERSARIAL = np.concatenate([ADVERSARIAL, -ADVERSARIAL])


def reference_rows(values):
    """The per-cell formatting `format_rows` must reproduce byte for byte:
    str(i), then each cell's repr after a comma."""
    return [",".join([str(i), *(repr(float(x)) for x in row)])
            for i, row in enumerate(np.asarray(values, dtype=np.float64))]


def matrix(palette, n_rows, n_cols, seed):
    """(n_rows, n_cols) float64 cells drawn from the palette's bit patterns;
    a short palette gives heavy repeats."""
    rng = np.random.default_rng(seed)
    keys = np.array(palette, dtype=np.int64)[rng.integers(len(palette), size=(n_rows, n_cols))]
    return keys.view(np.float64)


# The checks below take a formatter fmt(values) that returns the rows, or
# the compiled format_ranges itself, and raise AssertionError on a wrong
# result.
# They are module-level functions so that a fresh interpreter can import
# this module and run them on the compiled formatter (run_compiled, which
# puts format_ranges behind _csvfmt and hands them `csv_rows` or it).

def csv_rows(values):
    """fmt(values) over format_csv on the active formatter: its text with
    no header, split at the line ends."""
    return _csvfmt.format_csv([], values).split("\r\n")[:-1]


def check_property(fmt):
    """Hypothesis: matrices of special, random and repeated bit patterns,
    across the block boundaries."""
    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.sampled_from(ROW_COUNTS), n_cols=st.integers(0, 5),
           palette=st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), INT64,
                                      st.floats().map(bits)),
                            min_size=1, max_size=48),
           seed=st.integers(0, 2**32 - 1))
    @example(n_rows=B + 1, n_cols=3, palette=[bits(0.0), bits(-0.0)], seed=0)
    def equals_per_cell_repr(n_rows, n_cols, palette, seed):
        values = matrix(palette, n_rows, n_cols, seed)
        assert fmt(values) == reference_rows(values)

    equals_per_cell_repr()


def sweep_bits():
    """The bulk sweep's int64 bit patterns: 1M random ones; every +-2**k
    and its +-1-ulp neighbours over the whole exponent range; 10**k +- 1
    ulp for k in [-323, 308]; the 1e-4 and 1e16 switch points of repr's
    exponent form with 8 ulps either side; subnormals; integers near 2**53
    and integral values up to 1e17; NaNs with every single payload bit,
    quiet and signalling, of both signs, and random payloads."""
    rng = np.random.default_rng(20240611)
    doubles = []

    def around(x, ulps):
        x = np.float64(x)
        out, up, down = [x], x, x
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
        return out

    for k in range(-1074, 1024):
        doubles += around(np.ldexp(1.0, k), 1)
    for k in range(-323, 309):
        doubles += around(float(f"1e{k}"), 1)
    doubles += around(1e-4, 8) + around(1e16, 8)
    doubles += [float(2**53 + i) for i in range(-1000, 1001)]
    doubles += [float(v) for v in 10.0 ** np.arange(18)]
    doubles += list(rng.integers(1, 10**17, size=20_000).astype(np.float64))
    values = np.array(doubles, dtype=np.float64)
    values = np.concatenate([values, -values])

    subnormals = rng.integers(1, 2**52, size=50_000, dtype=np.int64)
    payloads = np.concatenate([1 << np.arange(52, dtype=np.int64),
                               rng.integers(1, 2**52, size=1000, dtype=np.int64),
                               [2**52 - 1]])
    nans = (np.int64(0x7FF) << np.int64(52)) | payloads
    return np.concatenate([
        rng.integers(-(2**63), 2**63 - 1, size=1_000_000, dtype=np.int64, endpoint=True),
        values.view(np.int64),
        subnormals, subnormals | np.int64(-(2**63)),
        nans, nans | np.int64(-(2**63)),
    ])


def check_sweep(fmt, n_cols=64):
    """Every sweep_bits() cell, formatted in rows of n_cols, equals repr."""
    keys = sweep_bits()
    keys = np.concatenate([keys, np.zeros(-len(keys) % n_cols, dtype=np.int64)])
    values = keys.view(np.float64).reshape(-1, n_cols)
    got = fmt(values)
    assert len(got) == len(values)
    for r, (row, cells) in enumerate(zip(got, values.tolist())):
        index, *got_cells = row.split(",")
        assert index == str(r), (r, index)
        want = list(map(repr, cells))
        if got_cells != want:
            bad = next(j for j, (a, b) in enumerate(zip(got_cells, want)) if a != b)
            raise AssertionError(f"bits {int(keys[r * n_cols + bad]):#x}: "
                                 f"{got_cells[bad]!r} != {want[bad]!r}")


def check_text(fmt):
    """fmt(header, values) equals csv_text of the header lines and the
    per-cell rows, for the ADVERSARIAL cells in several shapes, under
    several headers."""
    n = len(ADVERSARIAL)
    shapes = [ADVERSARIAL.reshape(1, n), ADVERSARIAL.reshape(n // 4, 4),
              ADVERSARIAL.reshape(n, 1), np.zeros((3, 0)), np.zeros((0, 5))]
    for values in shapes:
        for header in ([], ["iter,a,b"], ["# meta x=[1.0 -0.0]", "iter,a,b"]):
            want = _csvfmt.csv_text([*header, *reference_rows(values)])
            assert fmt(header, values) == want, (values.shape, header)


# row counts whose last index has one more digit than the one before, and
# their neighbours: the upper bound counts the digits of the last index
INDEX_ROW_COUNTS = (0, 1, 9, 10, 11, 99, 100, 1001, 10001)


def check_index_widths(fmt):
    """fmt(values) writes each row's index at every digit width of the
    upper bound, with no cells, with one and with three; returns how many
    matrices were checked."""
    rng = np.random.default_rng(27)
    checked = 0
    for n_rows in INDEX_ROW_COUNTS:
        for n_cols in (0, 1, 3):
            values = rng.choice(ADVERSARIAL, size=(n_rows, n_cols))
            assert fmt(values) == reference_rows(values), (n_rows, n_cols)
            checked += 1
    return checked


def check_ranges(format_ranges):
    """format_ranges, which formats its second range of rows on a second
    thread, equals repr and the numpy fallback's rows with absolute row
    indices: ranges that split evenly, unevenly, leave one empty or start
    inside the matrix, and edges at the 99/100 and 999/1000 index widths;
    returns how many calls were checked."""
    rng = np.random.default_rng(26)
    checked = 0
    for n_rows in (0, 1, 2, 3, 4, 5, 33, 1001):
        ranges = {(0, n_rows // 2, n_rows), (0, n_rows, n_rows), (0, 0, n_rows),
                  (n_rows // 3, n_rows // 2, n_rows), (n_rows // 2, n_rows // 2, n_rows // 2)}
        if n_rows == 1001:
            ranges |= {(0, 100, 228), (100, 100, 1001), (872, 1000, 1001), (900, 999, 1000),
                       (99, 228, 356), (999, 1000, 1000)}
        for n_cols in (0, 1, 7):
            cells = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
                -30, 30, size=(n_rows, n_cols))
            keys = rng.integers(-(2**63), 2**63 - 1, size=(n_rows, n_cols), endpoint=True)
            for values in (cells, keys.view(np.float64)):
                want = reference_rows(values)
                assert want == _csvfmt.format_rows(values)
                for start, mid, stop in sorted(ranges):
                    got = format_ranges(values, start, mid, stop)
                    assert got == (_csvfmt.csv_text(want[start:mid]),
                                   _csvfmt.csv_text(want[mid:stop])), (start, mid, stop)
                    checked += 1
    return checked


# row counts of the streamed-file check: a block's edges and the index's
# digit widths, where a 99/100 or 999/1000 change falls inside a block or
# at the table's end
STREAM_ROW_COUNTS = (0, 1, 99, 100, 101, B - 1, B, B + 1, 2 * B, 2 * B + 1, 999, 1000, 1001,
                     2001)


def check_streamed_files():
    """A file written block by block (`atomic_write_chunks` of
    `csv_blocks`) equals `format_csv`, its per-cell reference and, for a GD
    trace's table, `GDTrace.to_csv`, on the active formatter; returns how
    many files were checked."""
    import tempfile

    from equilab.bench.manifest import atomic_write_chunks

    rng = np.random.default_rng(28)
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        for n_rows in STREAM_ROW_COUNTS:
            for n_cols in (0, 1, 66):
                values = rng.choice(ADVERSARIAL, size=(n_rows, n_cols))
                header = ["# eta=0.5", "iter" + ",x" * n_cols]
                atomic_write_chunks(path, _csvfmt.csv_blocks(header, values))
                got = path.read_bytes()
                assert got == _csvfmt.format_csv(header, values).encode(), (n_rows, n_cols)
                assert got == _csvfmt.csv_text([*header, *reference_rows(values)]).encode()
                checked += 1
            trace = quadlab.GDTrace(values, 0.5, np.geomspace(1e3, 1.0, 64), False)
            atomic_write_chunks(path, trace.csv_blocks())
            assert path.read_bytes() == trace.to_csv().encode(), n_rows
            checked += 1
    return checked


def check_concurrent_calls(format_ranges):
    """Six Python threads (more than the host's cores) call format_ranges
    at once, with a short switch interval: the calls run with the GIL
    released, each on two threads of its own.  Every text must equal its
    reference; returns the number of calls."""
    import sys
    import threading

    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((257 + i, 5)) for i in range(6)]
    want = [_csvfmt.csv_text(reference_rows(m)) for m in mats]
    wrong = []

    def work(i):
        n = len(mats[i])
        for _ in range(40):
            if "".join(format_ranges(mats[i], 0, n // 2, n)) != want[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [], wrong
    return 6 * 40


# bad values for the compiled formatter
REJECTED = {
    "1-d values": np.zeros(3),
    "3-d values": np.zeros((2, 2, 2)),
    "float32 values": np.zeros((2, 2), dtype=np.float32),
    "int64 values": np.zeros((2, 2), dtype=np.int64),
    "big-endian values": np.zeros((2, 2), dtype=">f8"),
    "non-contiguous values": np.zeros((4, 4))[:, ::2],
    "values without a buffer": [[1.0, 2.0]],
}


def check_rejections(format_ranges):
    """Each bad input raises ValueError or TypeError, and the interpreter
    survives; returns how many cases were checked."""
    for name, values in REJECTED.items():
        try:
            format_ranges(values, 0, 0, 0)
        except (ValueError, TypeError):
            continue
        raise AssertionError(f"{name}: no ValueError or TypeError")
    return len(REJECTED)


def check_range_rejections(format_ranges):
    """format_ranges rejects (ValueError) a row range outside 0 <= start <=
    mid <= stop <= len(values), and (TypeError) a missing or non-integer
    bound or a keyword it does not take; returns how many cases were
    checked."""
    values = np.zeros((3, 2))
    bad_ranges = [(-1, 0, 0), (2, 1, 3), (0, 2, 1), (0, 1, 4), (4, 4, 4)]
    for start, mid, stop in bad_ranges:
        try:
            format_ranges(values, start, mid, stop)
        except ValueError:
            continue
        raise AssertionError(f"rows {start}, {mid}, {stop}: no ValueError")
    bad_calls = {"no stop": lambda: format_ranges(values, 0, 1),
                 "a float bound": lambda: format_ranges(values, 0, 1.0, 2),
                 "a keyword beyond stop": lambda: format_ranges(values, 0, 1, 2, sep=",")}
    for name, call in bad_calls.items():
        try:
            call()
        except TypeError:
            continue
        raise AssertionError(f"{name}: no TypeError")
    return len(bad_ranges) + len(bad_calls)


def run_compiled(check, arg="test_csvfmt.csv_rows"):
    """Run check(arg) in a fresh interpreter that imports this module and
    the compiled extension found here and puts its format_ranges behind
    _csvfmt: arg is csv_rows (format_csv's rows) by default, an
    expression such as "format_ranges", or "" for a check with no
    argument."""
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import test_csvfmt\n"
              "from equilab import _csvfmt\n"
              "from equilab._kernels._jacobi import format_ranges\n"
              "_csvfmt._compiled_format_ranges = format_ranges\n"
              f"print(test_csvfmt.{check.__name__}({arg}))\n")
    return _run_compiled(script, str(Path(__file__).parent))


def test_numpy_fallback_equals_per_cell_repr(monkeypatch):
    monkeypatch.setattr(_csvfmt, "_compiled_format_ranges", None)
    check_property(csv_rows)


@needs_compiled
def test_compiled_equals_per_cell_repr():
    proc = run_compiled(check_property)
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_compiled_sweep_equals_repr():
    proc = run_compiled(check_sweep)
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_compiled_rejects_bad_input():
    proc = run_compiled(check_rejections, "format_ranges")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(len(REJECTED)), proc.stdout


@needs_compiled
def test_compiled_text_equals_csv_text_of_rows():
    proc = run_compiled(check_text, "_csvfmt.format_csv")
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_compiled_ranges_equal_repr_and_fallback():
    proc = run_compiled(check_ranges, "format_ranges")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "234", proc.stdout


@needs_compiled
def test_compiled_text_concurrent_calls():
    proc = run_compiled(check_concurrent_calls, "format_ranges")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "240", proc.stdout


@needs_compiled
def test_compiled_text_rejects_bad_input():
    proc = run_compiled(check_range_rejections, "format_ranges")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "8", proc.stdout


@needs_compiled
def test_compiled_index_column_at_every_digit_width():
    proc = run_compiled(check_index_widths)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(3 * len(INDEX_ROW_COUNTS)), proc.stdout


N_STREAMED = 4 * len(STREAM_ROW_COUNTS)


@needs_compiled
def test_compiled_streamed_file_equals_text_at_block_edges():
    proc = run_compiled(check_streamed_files, "")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(N_STREAMED), proc.stdout


def test_fallback_streamed_file_equals_text_at_block_edges(monkeypatch):
    monkeypatch.setattr(_csvfmt, "_compiled_format_ranges", None)
    assert check_streamed_files() == N_STREAMED


class TestFormatRows:
    """The row formatter, numpy on both backends."""

    def test_equals_per_cell_repr(self):
        check_property(_csvfmt.format_rows)

    def test_signed_zeros_keep_their_sign(self):
        values = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert _csvfmt.format_rows(values) == ["0,0.0,-0.0", "1,-0.0,0.0"]

    def test_nan_payloads_all_print_nan(self):
        keys = np.array([NAN_BITS], dtype=np.int64)
        assert _csvfmt.format_rows(keys.view(np.float64)) == [
            ",".join(["0"] + ["nan"] * len(NAN_BITS))]

    def test_no_rows(self):
        assert _csvfmt.format_rows(np.zeros((0, 4))) == []

    def test_converts_to_float64(self):
        assert _csvfmt.format_rows(np.arange(4).reshape(2, 2)[:, ::-1]) == ["0,1.0,0.0",
                                                                              "1,3.0,2.0"]

    def test_index_column_at_every_digit_width(self):
        assert check_index_widths(_csvfmt.format_rows) == 3 * len(INDEX_ROW_COUNTS)

    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros((1, 1, 1))], ids=["1-d", "3-d"])
    def test_rejects_bad_shapes(self, values):
        with pytest.raises(DimensionError):
            _csvfmt.format_rows(values)


@pytest.fixture(params=["active", "fallback"])
def backend(request, monkeypatch):
    """The active backend's formatter, or the numpy fallback's."""
    if request.param == "fallback":
        monkeypatch.setattr(_csvfmt, "_compiled_format_ranges", None)
    return request.param


# 2-D values that the compiled extension rejects (see REJECTED) and that
# format_csv converts to C-contiguous float64 before it hands them over
CONVERTED = {
    "float32 values": np.arange(6, dtype=np.float32).reshape(3, 2) / 3,
    "int64 values": np.arange(6).reshape(3, 2) - 3,
    "big-endian values": (np.arange(6.0).reshape(3, 2) / 7).astype(">f8"),
    "non-contiguous values": (np.arange(12.0).reshape(3, 4) / 7)[:, ::-2],
    "values without a buffer": [[0.1, -0.0], [1e300, 2.5]],
}


class TestFormatCsv:
    """The joined text, on the active backend and on the fallback."""

    def test_equals_csv_text_of_format_rows(self, backend):
        check_text(_csvfmt.format_csv)
        values = np.arange(6.0).reshape(3, 2)
        assert _csvfmt.format_csv(["a,b"], values) == _csvfmt.csv_text(
            ["a,b", *_csvfmt.format_rows(values)])

    @pytest.mark.parametrize("header", [["it\u00e9r,a"], ["iter,a", "\U0001f600"]],
                             ids=["header", "header 4-byte"])
    def test_rejects_non_ascii(self, backend, header):
        with pytest.raises(ValueError, match="ASCII"):
            _csvfmt.format_csv(header, np.zeros((2, 2)))

    @pytest.mark.parametrize("name", list(CONVERTED))
    def test_converts_what_the_extension_rejects(self, backend, name):
        values = CONVERTED[name]
        assert _csvfmt.format_csv(["a,b"], values) == _csvfmt.csv_text(
            ["a,b", *reference_rows(values)])

    def test_rejects_bad_shapes(self, backend):
        with pytest.raises(DimensionError):
            _csvfmt.format_csv([], np.zeros(3))
        with pytest.raises(DimensionError):
            _csvfmt.format_csv([], np.zeros((1, 1, 1)))


def reference_csv(header, values):
    """The file text `format_csv` must reproduce byte for byte."""
    return _csvfmt.csv_text([*header, *reference_rows(values)])


def reference_blocks(header, values):
    """`csv_blocks` as one per-cell reference text."""
    return [reference_csv(header, values)]


def per_cell_outputs(tmp_path, monkeypatch, cfg, name):
    """Run cfg twice, with the formatters and with the per-cell references
    patched in; return both runs' non-manifest files as {name: bytes}."""
    out = {}
    for label in ("formatted", "per_cell"):
        if label == "per_cell":
            monkeypatch.setattr(quadlab, "csv_blocks", reference_blocks)
            monkeypatch.setattr(train_module, "csv_blocks", reference_blocks)
        run_dir = tmp_path / f"{name}_{label}"
        run_experiment(cfg, run_dir)
        out[label] = {p.name: p.read_bytes() for p in run_dir.iterdir()
                      if p.name != "manifest.json"}
    return out["formatted"], out["per_cell"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_quad_outputs_match_per_cell_repr(tmp_path, monkeypatch):
    # the jacobi arm (unit diagonal) steps 1e300 past its stability limit,
    # so its trace holds inf cells; the other two arms converge over
    # 2B + 3 rows
    stable_lr = quadlab.max_stable_lr

    def lr(prob):
        blowup = np.allclose(np.diag(prob.a), 1.0)
        return stable_lr(prob) * (1e300 if blowup else 1.0)

    monkeypatch.setattr(quadlab, "max_stable_lr", lr)
    cfg = default_config("quad", dim=8, kappa=1e4, iters=2 * B + 2, seed=3)
    formatted, per_cell = per_cell_outputs(tmp_path, monkeypatch, cfg, "quad")
    assert {"quad_none.csv", "quad_row_equilibration.csv", "quad_jacobi.csv",
            "summary.csv"} <= set(formatted)
    assert formatted == per_cell
    assert b",inf," in formatted["quad_jacobi.csv"]
    diverged = {row.split(b",")[0]: row.split(b",")[3]
                for row in formatted["summary.csv"].split(b"\r\n")[1:-1]}
    assert diverged == {b"none": b"false", b"row_equilibration": b"false", b"jacobi": b"true"}


def test_train_compare_outputs_match_per_cell_repr(tmp_path, monkeypatch):
    cfg = default_config("train_compare", task="two_moons", arms=["none", "e-reparam"],
                         activation="relu", n_samples=64, epochs=4, lr=0.1,
                         init_row_spread=10.0, noise=0.15, seed=1)
    formatted, per_cell = per_cell_outputs(tmp_path, monkeypatch, cfg, "train")
    assert {"train_none.csv", "train_e_reparam.csv"} <= set(formatted)
    assert formatted == per_cell
