"""`_csvfmt.format_rows` against one `repr(float(x))` call per cell."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilab import _csvfmt, quadlab
from equilab.bench.config import default_config
from equilab.bench.experiments import run_experiment

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


class TestFormatRows:
    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.sampled_from(ROW_COUNTS), n_cols=st.integers(0, 5),
           palette=st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), INT64,
                                      st.floats().map(bits)),
                            min_size=1, max_size=48),
           seed=st.integers(0, 2**32 - 1))
    @example(n_rows=B + 1, n_cols=3, palette=[bits(0.0), bits(-0.0)], seed=0)
    def test_equals_per_cell_repr(self, n_rows, n_cols, palette, seed):
        values = matrix(palette, n_rows, n_cols, seed)
        first = range(7, 7 + n_rows)
        assert _csvfmt.format_rows(values, first=first) == reference_rows(values, first=first)
        assert _csvfmt.format_rows(values, sep=" ") == reference_rows(values, sep=" ")

    def test_signed_zeros_keep_their_sign(self):
        values = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert _csvfmt.format_rows(values, first=range(2)) == ["0,0.0,-0.0", "1,-0.0,0.0"]

    def test_nan_payloads_all_print_nan(self):
        keys = np.array([NAN_BITS], dtype=np.int64)
        assert _csvfmt.format_rows(keys.view(np.float64)) == [",".join(["nan"] * len(NAN_BITS))]

    def test_no_rows(self):
        assert _csvfmt.format_rows(np.zeros((0, 4)), first=range(0)) == []


def per_cell_outputs(tmp_path, monkeypatch, cfg, name):
    """Run cfg twice, with format_rows and with reference_rows patched in;
    return both runs' non-manifest files as {name: bytes}."""
    out = {}
    for label in ("blocked", "per_cell"):
        if label == "per_cell":
            monkeypatch.setattr(quadlab, "format_rows", reference_rows)
            monkeypatch.setattr(train_module, "format_rows", reference_rows)
        run_dir = tmp_path / f"{name}_{label}"
        run_experiment(cfg, run_dir)
        out[label] = {p.name: p.read_bytes() for p in run_dir.iterdir()
                      if p.name != "manifest.json"}
    return out["blocked"], out["per_cell"]


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
    blocked, per_cell = per_cell_outputs(tmp_path, monkeypatch, cfg, "quad")
    assert {"quad_none.csv", "quad_row_equilibration.csv", "quad_jacobi.csv",
            "summary.csv"} <= set(blocked)
    assert blocked == per_cell
    assert b",inf," in blocked["quad_jacobi.csv"]
    diverged = {row.split(b",")[0]: row.split(b",")[3]
                for row in blocked["summary.csv"].split(b"\r\n")[1:-1]}
    assert diverged == {b"none": b"false", b"row_equilibration": b"false", b"jacobi": b"true"}


def test_train_compare_outputs_match_per_cell_repr(tmp_path, monkeypatch):
    cfg = default_config("train_compare", task="two_moons", arms=["none", "e-reparam"],
                         activation="relu", n_samples=64, epochs=4, lr=0.1,
                         init_row_spread=10.0, noise=0.15, seed=1)
    blocked, per_cell = per_cell_outputs(tmp_path, monkeypatch, cfg, "train")
    assert {"train_none.csv", "train_e_reparam.csv"} <= set(blocked)
    assert blocked == per_cell
