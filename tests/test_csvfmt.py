"""The trace-CSV formatters against one `repr(float(x))` call per cell:
`_csvfmt.format_rows` (the numpy fallback's rows), and `_csvfmt.format_csv`
on both of its backends, the compiled one-text writer
(`_jacobi.format_text`) and the numpy fallback, against `csv_text` of the
per-cell rows.

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


def reference_rows(values, first=None, sep=","):
    """The per-cell formatting `format_rows` must reproduce byte for byte."""
    rows = []
    for r, row in enumerate(np.asarray(values, dtype=np.float64)):
        cells = [repr(float(x)) for x in row]
        if first is not None:
            cells.insert(0, str(first[r]))
        rows.append(sep.join(cells))
    return rows


def matrix(palette, n_rows, n_cols, seed):
    """(n_rows, n_cols) float64 cells drawn from the palette's bit patterns;
    a short palette gives heavy repeats."""
    rng = np.random.default_rng(seed)
    keys = np.array(palette, dtype=np.int64)[rng.integers(len(palette), size=(n_rows, n_cols))]
    return keys.view(np.float64)


# The checks below take a formatter fmt(values, lead, sep), where lead is
# None or one str per row, and raise AssertionError on a wrong result.
# They are module-level functions so that a fresh interpreter can import
# this module and run them on the compiled formatter (run_compiled, which
# hands them `text_rows(format_text)`).

def text_rows(format_text):
    """fmt(values, lead, sep) over the compiled one-text writer: its text
    with no prefix, split at the line ends."""
    return lambda values, lead, sep: format_text("", values, lead, sep).split("\r\n")[:-1]


def check_property(fmt):
    """Hypothesis: matrices of special, random and repeated bit patterns,
    across the fallback's block boundaries, with and without lead."""
    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.sampled_from(ROW_COUNTS), n_cols=st.integers(0, 5),
           palette=st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), INT64,
                                      st.floats().map(bits)),
                            min_size=1, max_size=48),
           seed=st.integers(0, 2**32 - 1))
    @example(n_rows=B + 1, n_cols=3, palette=[bits(0.0), bits(-0.0)], seed=0)
    def equals_per_cell_repr(n_rows, n_cols, palette, seed):
        values = matrix(palette, n_rows, n_cols, seed)
        lead = [str(i) for i in range(7, 7 + n_rows)]
        assert fmt(values, lead, ",") == reference_rows(values, first=lead)
        assert fmt(values, None, " ") == reference_rows(values, sep=" ")

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
    got = fmt(values, None, ",")
    assert len(got) == len(values)
    for r, (row, cells) in enumerate(zip(got, values.tolist())):
        want = ",".join(map(repr, cells))
        if row != want:
            bad = next(j for j, (a, b) in enumerate(zip(row.split(","), want.split(",")))
                       if a != b)
            raise AssertionError(f"bits {int(keys[r * n_cols + bad]):#x}: "
                                 f"{row.split(',')[bad]!r} != {want.split(',')[bad]!r}")


def check_text(fmt):
    """fmt(header, values, lead, sep) equals csv_text of the header lines
    and the per-cell rows, for the ADVERSARIAL cells in several shapes,
    with and without lead, under several headers and separators."""
    n = len(ADVERSARIAL)
    shapes = [ADVERSARIAL.reshape(1, n), ADVERSARIAL.reshape(n // 4, 4),
              ADVERSARIAL.reshape(n, 1), np.zeros((3, 0)), np.zeros((0, 5))]
    for values in shapes:
        for header in ([], ["iter,a,b"], ["# meta x=[1.0 -0.0]", "iter,a,b"]):
            for lead in (None, [str(i) for i in range(7, 7 + len(values))]):
                for sep in (",", " ", ", "):
                    want = _csvfmt.csv_text([*header, *reference_rows(values, lead, sep)])
                    got = fmt(header, values, lead, sep)
                    assert got == want, (values.shape, header, lead is None, sep)


def check_compiled_text(format_text):
    """check_text on the compiled one-text writer, given csv_text's prefix."""
    check_text(lambda header, values, lead, sep:
               format_text(_csvfmt.csv_text(header), values, lead, sep))


def check_halves(format_text):
    """format_text, which formats the second half of the rows on a second
    thread, equals repr and the numpy fallback's rows on random matrices:
    row counts that split evenly, unevenly or leave a half empty, leads of
    uneven lengths, a prefix; returns how many matrices were checked."""
    rng = np.random.default_rng(26)
    checked = 0
    for n_rows in (0, 1, 2, 3, 4, 5, 33, 1001):
        for n_cols in (0, 1, 7):
            cells = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
                -30, 30, size=(n_rows, n_cols))
            keys = rng.integers(-(2**63), 2**63 - 1, size=(n_rows, n_cols), endpoint=True)
            for values in (cells, keys.view(np.float64)):
                for lead in (None, [str(7**(i % 23)) for i in range(n_rows)]):
                    header = ["# eta=0.5", "iter,a"]
                    got = format_text(_csvfmt.csv_text(header), values, lead, ",")
                    assert got == _csvfmt.csv_text([*header, *reference_rows(values, lead)])
                    assert got == _csvfmt.csv_text(
                        [*header, *_csvfmt.format_rows(values, lead)])
                    checked += 1
    return checked


def check_concurrent_calls(format_text):
    """Six Python threads (more than the host's cores) call format_text at
    once, with a short switch interval, while a seventh keeps replacing
    the items of one thread's lead list by equal new strings: the calls
    run with the GIL released, and each must hold its lead items, not
    borrow them.  Every text must equal its reference; returns the number
    of calls."""
    import sys
    import threading

    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((257 + i, 5)) for i in range(6)]
    leads = [[str(j) for j in range(len(m))] for m in mats]
    want = [_csvfmt.csv_text(reference_rows(m, lead)) for m, lead in zip(mats, leads)]
    shared = leads[0]
    stop = threading.Event()
    wrong = []

    def replace_leads():
        while not stop.is_set():
            for j in range(len(shared)):
                shared[j] = str(j)

    def work(i):
        for _ in range(40):
            if format_text("", mats[i], leads[i], ",") != want[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    mutator = threading.Thread(target=replace_leads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mutator.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        stop.set()
        mutator.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*threads, mutator])
    assert wrong == [], wrong
    return 6 * 40


# bad (values, lead, sep) for the compiled formatter
REJECTED = {
    "1-d values": (np.zeros(3), None, ","),
    "3-d values": (np.zeros((2, 2, 2)), None, ","),
    "float32 values": (np.zeros((2, 2), dtype=np.float32), None, ","),
    "int64 values": (np.zeros((2, 2), dtype=np.int64), None, ","),
    "big-endian values": (np.zeros((2, 2), dtype=">f8"), None, ","),
    "non-contiguous values": (np.zeros((4, 4))[:, ::2], None, ","),
    "values without a buffer": ([[1.0, 2.0]], None, ","),
    "lead too short": (np.zeros((3, 2)), ["0", "1"], ","),
    "lead too long": (np.zeros((3, 2)), ["0", "1", "2", "3"], ","),
    "lead not a list": (np.zeros((3, 2)), ("0", "1", "2"), ","),
    "lead item not str": (np.zeros((3, 2)), ["0", 1, "2"], ","),
    "sep not str": (np.zeros((3, 2)), None, b","),
}


def check_rejections(fmt):
    """Each bad input raises ValueError or TypeError, and the interpreter
    survives; returns how many cases were checked."""
    for name, (values, lead, sep) in REJECTED.items():
        try:
            fmt(values, lead, sep)
        except (ValueError, TypeError):
            continue
        raise AssertionError(f"{name}: no ValueError or TypeError")
    return len(REJECTED)


def check_text_rejections(format_text):
    """format_text rejects a prefix that is not a str, and (ValueError) a
    prefix, sep or lead item that is not ASCII, which its 1-byte str
    cannot hold; returns how many cases were checked."""
    values = np.zeros((3, 2))
    non_ascii = {
        "prefix": ("iter,\u00e9\r\n", values, None, ","),
        "prefix (4-byte)": ("\U0001f600\r\n", values, None, ","),
        "sep": ("", values, None, "\u00e9"),
        "lead item": ("", values, ["0", "\u00e9", "2"], ","),
    }
    for name, args in non_ascii.items():
        try:
            format_text(*args)
        except ValueError:
            continue
        raise AssertionError(f"non-ASCII {name}: no ValueError")
    try:
        format_text(b"x", values, None, ",")
    except TypeError:
        return len(non_ascii) + 1
    raise AssertionError("prefix not str: no TypeError")


def run_compiled(check, rows=True):
    """Run check in a fresh interpreter that imports the compiled extension
    found here and this module: on text_rows(_jacobi.format_text), or on
    format_text itself when rows is False."""
    arg = "test_csvfmt.text_rows(format_text)" if rows else "format_text"
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import test_csvfmt\n"
              "from equilab._kernels._jacobi import format_text\n"
              f"print(test_csvfmt.{check.__name__}({arg}))\n")
    return _run_compiled(script, str(Path(__file__).parent))


def test_numpy_fallback_equals_per_cell_repr(monkeypatch):
    monkeypatch.setattr(_csvfmt, "_compiled_format_text", None)
    check_property(lambda values, lead, sep: _csvfmt.format_csv(
        [], values, first=lead, sep=sep).split("\r\n")[:-1])


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
    proc = run_compiled(check_rejections)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "12", proc.stdout


@needs_compiled
def test_compiled_text_equals_csv_text_of_rows():
    proc = run_compiled(check_compiled_text, rows=False)
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_compiled_text_halves_equal_repr_and_fallback():
    proc = run_compiled(check_halves, rows=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "96", proc.stdout


@needs_compiled
def test_compiled_text_concurrent_calls():
    proc = run_compiled(check_concurrent_calls, rows=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "240", proc.stdout


@needs_compiled
def test_compiled_text_rejects_bad_input():
    proc = run_compiled(check_text_rejections, rows=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "5", proc.stdout


class TestFormatRows:
    """The row formatter, numpy on both backends."""

    def test_equals_per_cell_repr(self):
        check_property(_csvfmt.format_rows)

    def test_signed_zeros_keep_their_sign(self):
        values = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert _csvfmt.format_rows(values, first=range(2)) == ["0,0.0,-0.0", "1,-0.0,0.0"]

    def test_nan_payloads_all_print_nan(self):
        keys = np.array([NAN_BITS], dtype=np.int64)
        assert _csvfmt.format_rows(keys.view(np.float64)) == [",".join(["nan"] * len(NAN_BITS))]

    def test_no_rows(self):
        assert _csvfmt.format_rows(np.zeros((0, 4)), first=range(0)) == []

    def test_converts_to_float64(self):
        assert _csvfmt.format_rows(np.arange(4).reshape(2, 2)[:, ::-1]) == ["1.0,0.0", "3.0,2.0"]

    @pytest.mark.parametrize("values, first", [(np.zeros(3), None),
                                               (np.zeros((1, 1, 1)), None),
                                               (np.zeros((3, 2)), range(2)),
                                               (np.zeros((3, 2)), range(4))],
                             ids=["1-d", "3-d", "first short", "first long"])
    def test_rejects_bad_shapes(self, values, first):
        with pytest.raises(DimensionError):
            _csvfmt.format_rows(values, first=first)


@pytest.fixture(params=["active", "fallback"])
def backend(request, monkeypatch):
    """The active backend's formatter, or the numpy fallback's."""
    if request.param == "fallback":
        monkeypatch.setattr(_csvfmt, "_compiled_format_text", None)
    return request.param


class TestFormatCsv:
    """The one-text function, on the active backend and on the fallback."""

    def test_equals_csv_text_of_format_rows(self, backend):
        check_text(lambda header, values, lead, sep: _csvfmt.format_csv(
            header, values, first=lead, sep=sep))
        values = np.arange(6.0).reshape(3, 2)
        assert _csvfmt.format_csv(["a,b"], values, first=range(3)) == _csvfmt.csv_text(
            ["a,b", *_csvfmt.format_rows(values, first=range(3))])

    @pytest.mark.parametrize("header, sep, first", [
        (["it\u00e9r,a"], ",", None),
        (["iter,a", "\U0001f600"], ",", None),
        (["iter,a"], "\u00e9", None),
        (["iter,a"], ",", ["0", "\u00e9"]),
    ], ids=["header", "header 4-byte", "sep", "first"])
    def test_rejects_non_ascii(self, backend, header, sep, first):
        with pytest.raises(ValueError, match="ASCII"):
            _csvfmt.format_csv(header, np.zeros((2, 2)), first=first, sep=sep)

    def test_rejects_bad_shapes(self, backend):
        with pytest.raises(DimensionError):
            _csvfmt.format_csv([], np.zeros(3))
        with pytest.raises(DimensionError):
            _csvfmt.format_csv([], np.zeros((3, 2)), first=range(2))


def reference_csv(header, values, first=None, sep=","):
    """The file text `format_csv` must reproduce byte for byte."""
    return _csvfmt.csv_text([*header, *reference_rows(values, first, sep)])


def per_cell_outputs(tmp_path, monkeypatch, cfg, name):
    """Run cfg twice, with the formatters and with the per-cell references
    patched in; return both runs' non-manifest files as {name: bytes}."""
    out = {}
    for label in ("formatted", "per_cell"):
        if label == "per_cell":
            monkeypatch.setattr(quadlab, "format_csv", reference_csv)
            monkeypatch.setattr(train_module, "format_csv", reference_csv)
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
