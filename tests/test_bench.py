import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equilab
from equilab import _kernels, densela, quadlab
from equilab.bench import cli, experiments, manifest, svgplot
from equilab.bench.config import default_config, load_config, resolve_config
from equilab.bench.experiments import (ARMS, max_nondiverging_lr, run_experiment,
                                       scale_first_layer_rows)
from equilab.bench.manifest import atomic_write_text, load_manifest
from equilab.errors import ConfigError, DimensionError
from equilab.net import DenseSpec, Network
from equilab.net.train import train
from test_kernels import needs_compiled


def read_all(out_dir):
    return {f: (out_dir / f).read_bytes() for f in os.listdir(out_dir)}


def rows_of(path):
    return path.read_bytes().decode("ascii").strip().split("\r\n")


# a small config of every experiment kind (cond_report also needs a matrix file)
SMALL_RUNS = {
    "vds": dict(trials=3, size=4),
    "quad": dict(dim=8, kappa=100.0, iters=20),
    "train_compare": dict(arms=["none"], epochs=1, n_samples=16),
    "hessian_compare": dict(widths=[2, 3, 1], n_samples=16, n_points=2),
    "cond_report": {},
}


class TestConfig:
    def test_default_and_hash_stability(self):
        a = default_config("vds", seed=3)
        b = default_config("vds", seed=3)
        assert a.config_hash == b.config_hash
        assert a["trials"] == 1000
        assert default_config("vds", seed=4).config_hash != a.config_hash
        assert default_config("vds", seed=3, size=8).config_hash != a.config_hash

    def test_unknown_kind_and_key(self):
        with pytest.raises(ConfigError):
            default_config("volume")
        with pytest.raises(ConfigError):
            default_config("vds", trails=10)

    def test_type_coercion_rejects_bool_and_strings(self):
        with pytest.raises(ConfigError):
            default_config("vds", trials=True)
        with pytest.raises(ConfigError):
            default_config("vds", trials="many")
        # int where float is wanted is fine
        assert default_config("quad", kappa=10)["kappa"] == 10.0

    @pytest.mark.parametrize("entry", ["0.1", True, None, 0.0, -0.5, float("inf"),
                                       float("nan"), 10 ** 400],
                             ids=["str", "bool", "null", "zero", "negative", "inf",
                                  "nan", "int_beyond_float"])
    def test_lr_grid_entries_rejected(self, entry):
        with pytest.raises(ConfigError):
            default_config("train_compare", lr_grid=[0.1, entry])

    @pytest.mark.parametrize("conditioned", ["0", "", "foo", "hidden,all"])
    def test_conditioned_must_name_a_layer_set(self, conditioned):
        # a str is not read as a list of layer indices
        with pytest.raises(ConfigError):
            default_config("hessian_compare", conditioned=conditioned)

    @pytest.mark.parametrize("rank_tol", [0.0, 1.0, 1.5, -1e-8, float("nan"),
                                          float("inf")])
    def test_rank_tol_rejected(self, rank_tol):
        # caught when the config resolves, not after a sweep's first Hessian
        with pytest.raises(ConfigError):
            default_config("hessian_compare", rank_tol=rank_tol)

    @pytest.mark.parametrize("kind", ["train_compare", "hessian_compare"])
    @pytest.mark.parametrize("widths", [[2, True, 1], [2, "4", 1], [2, 4.0, 1],
                                        [2, 0, 1], [2], []],
                             ids=["bool", "str", "float", "zero", "one", "empty"])
    def test_widths_rejected(self, kind, widths):
        with pytest.raises(ConfigError):
            default_config(kind, widths=widths)

    def test_valid_widths_keep_their_hash(self):
        # entries are checked, not coerced: the canonical JSON is unchanged
        cfg = default_config("hessian_compare", widths=[2, 16, 4, 1], conditioned="hidden")
        assert cfg["widths"] == [2, 16, 4, 1]
        assert cfg.config_hash == "89dff693c214fc7f"

    def test_task_validation(self):
        with pytest.raises(ConfigError):
            default_config("train_compare", task="spirals")

    def test_unknown_arm_rejected_at_run_time(self, tmp_path):
        cfg = default_config("train_compare", arms=["none", "ablated"],
                             epochs=1, n_samples=16)
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "r")

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "vds", "seed": 2, "trials": 5, "size": 4}))
        cfg = load_config(p)
        assert cfg.kind == "vds" and cfg.seed == 2 and cfg["trials"] == 5
        assert load_config(p, seed=9).seed == 9
        with pytest.raises(ConfigError):
            load_config(p, kind="quad")

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_resolve_requires_kind(self):
        with pytest.raises(ConfigError):
            resolve_config({"seed": 0})


class TestSvgPlot:
    def test_nice_ticks_125_ladder(self):
        ticks = svgplot.nice_ticks(0.0, 10.0)
        assert ticks[0] <= 0.0 and ticks[-1] >= 10.0
        steps = np.diff(ticks)
        np.testing.assert_allclose(steps, steps[0])
        mant = steps[0] / 10.0 ** np.floor(np.log10(steps[0]))
        assert round(mant, 6) in (1.0, 2.0, 5.0)

    def test_emit_deterministic_and_escaped(self):
        s = [svgplot.LineSeries("a<b&c", [0, 1, 2], [1.0, 2.0, 3.0])]
        one = svgplot.emit_svg(s, title="t", xlabel="x", ylabel="y")
        two = svgplot.emit_svg(s, title="t", xlabel="x", ylabel="y")
        assert one == two
        assert one.startswith("<?xml") and one.rstrip().endswith("</svg>")
        assert "a&lt;b&amp;c" in one and "a<b" not in one

    def test_escape_matches_saxutils(self):
        from xml.sax.saxutils import escape

        for text in ("", "plain", "a<b&c>d", "&lt;&amp;&gt;", "<<&&>>", "κ > 1e3 & σ < 1"):
            assert svgplot._escape(text) == escape(text)

    def test_nonfinite_and_nonpositive_dropped(self):
        s = [svgplot.LineSeries("x", [0, 1, 2, 3],
                                [1.0, float("nan"), -5.0, 10.0])]
        out = svgplot.emit_svg(s, log_y=True)
        assert "<polyline" in out or "<circle" in out

    def test_empty_series_gives_frame(self):
        out = svgplot.emit_svg([])
        assert out.startswith("<?xml") and "</svg>" in out

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            svgplot.LineSeries("x", [0, 1], [1.0])

    def test_series_holds_float64_arrays(self):
        ys = np.array([1.0, 2.0, 3.0])
        s = svgplot.LineSeries("x", range(3), ys)
        assert s.xs.dtype == s.ys.dtype == np.float64
        assert s.xs.tolist() == [0.0, 1.0, 2.0] and s.ys is ys


# 64K characters: the cases keep the slice boundaries of an earlier writer
# that encoded a text in slices of this many characters
S = 1 << 16


class TestManifest:
    def test_atomic_write(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"
        assert os.listdir(tmp_path) == ["f.txt"]  # no temp residue

    @pytest.mark.parametrize("text", [
        "", "a,b\r\n", "x" * (S - 1), "y" * S, "z\r\n" * S + "tail",
        # multi-byte characters whose bytes straddle a slice's byte offset
        "a" * (S - 1) + "\u00e9" + "b" * S,
        "a" * (S - 2) + "\U0001f600\u20ac" + "c\n" * S,
    ], ids=["empty", "short", "one slice less one", "one slice", "several slices",
            "2-byte char at a boundary", "4- and 3-byte chars at a boundary"])
    def test_sliced_write_equals_utf8_encoding(self, tmp_path, text):
        p = tmp_path / "f.txt"
        atomic_write_text(p, text)
        assert p.read_bytes() == text.encode("utf-8")
        assert os.listdir(tmp_path) == ["f.txt"]

    @pytest.mark.parametrize("text", ["", "a,b\r\n", "x" * (3 * S), "\u00e9\U0001f600"],
                             ids=["empty", "short", "long", "multi-byte"])
    def test_chunked_write_equals_joined_encoding(self, tmp_path, text):
        p = tmp_path / "f.txt"
        chunks = [text[i:i + 7] for i in range(0, len(text), 7)]
        manifest.atomic_write_chunks(p, chunks)
        assert p.read_bytes() == "".join(chunks).encode("utf-8")
        assert os.listdir(tmp_path) == ["f.txt"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replacing"])
    def test_failing_chunk_source_leaves_no_file(self, tmp_path, existing):
        """A chunk source that raises after its first block: the error
        propagates, and neither the target nor a temp file is left; a file
        already at the target keeps its bytes."""
        p = tmp_path / "quad.csv"
        if existing:
            p.write_bytes(b"earlier\r\n")

        def blocks():
            yield "iter,loss\r\n"
            yield "0,1.0\r\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            manifest.atomic_write_chunks(p, blocks())
        assert os.listdir(tmp_path) == (["quad.csv"] if existing else [])
        if existing:
            assert p.read_bytes() == b"earlier\r\n"

    def test_trace_file_write_holds_blocks_not_the_text(self, tmp_path):
        """Writing a GD trace's CSV block by block holds a block's text,
        not the file's.

        tracemalloc peak over the file's length, 2000 steps x 64 dims
        (2.75M chars), when the whole text was made first and written in
        slices: 2.44 on both backends for rows, their join and the whole
        encoding; 1.26 compiled and 2.09 fallback for one text.  Streamed
        in 128-row blocks: 0.18 compiled (a block's scratch buffer, its two
        half-block strs and one encoded half) and 0.42 fallback (one
        block's cell strings).
        """
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        a = (q * np.geomspace(1e6, 1.0, 64)) @ q.T
        prob = quadlab.QuadraticProblem(0.5 * (a + a.T), rng.standard_normal(64))
        trace = quadlab.run_gd(prob, rng.standard_normal(64),
                               0.5 * quadlab.max_stable_lr(prob), 2000)
        n_chars = len(trace.to_csv())
        tracemalloc.start()
        try:
            manifest.atomic_write_chunks(tmp_path / "quad.csv", trace.csv_blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 0.25 if _kernels.BACKEND == "compiled" else 0.5
        assert peak < bound * n_chars, (peak, n_chars)

    def test_env_names_the_backend_and_versions(self, tmp_path, monkeypatch):
        run_experiment(default_config("vds", **SMALL_RUNS["vds"]), tmp_path / "r")
        env = load_manifest(tmp_path / "r")["env"]
        assert env["kernel_backend"] == _kernels.BACKEND
        assert (env["python"], env["numpy"]) == (sys.version.split()[0], np.__version__)
        assert env["equilab"] == equilab.__version__ and env["platform"] == sys.platform
        assert env["cpu_count"] == os.cpu_count()
        assert set(env["threads"]) == set(manifest.THREAD_VARS)
        assert load_manifest(tmp_path / "r")["inputs"] == {}

    def test_env_is_computed_once_without_platform_platform(self, monkeypatch):
        import platform

        def slow():
            raise AssertionError("platform.platform() called")

        monkeypatch.setattr(platform, "platform", slow)
        manifest.environment.cache_clear()
        first = manifest.environment()
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        assert manifest.environment() is first
        # each manifest holds its own copy
        one = manifest.RunManifest("vds", "h", {}, 0, "v", "t")
        one.env["threads"]["OMP_NUM_THREADS"] = "x"
        assert manifest.environment() == first != one.env

    @pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
    def test_roundtrip_via_run(self, tmp_path, kind):
        params = dict(SMALL_RUNS[kind])
        if kind == "cond_report":
            matrix = tmp_path / "m.txt"
            matrix.write_text("2 2\n3 4\n0 5\n")
            params["matrix_file"] = str(matrix)
        cfg = default_config(kind, **params)
        out = tmp_path / "r"
        man = run_experiment(cfg, out)
        back = load_manifest(out)
        assert back["kind"] == kind
        assert back["config_hash"] == cfg.config_hash
        assert sorted(back["files"]) == back["files"]
        assert set(back["files"]) == set(os.listdir(out))
        assert set(man.files) == set(back["files"])
        assert man.wall_time_total > 0.0
        assert back["finished"] >= back["started"]


class TestVds:
    def test_small_run_outputs(self, tmp_path):
        cfg = default_config("vds", trials=25, size=8, seed=1)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        rows = rows_of(out / "vds_trials.csv")
        assert rows[0].startswith("trial,")
        summary = rows_of(out / "summary.csv")
        header = summary[0].split(",")
        vals = dict(zip(header, summary[1].split(",")))
        assert float(vals["fraction_relaxed"]) >= 0.99
        assert int(vals["trials"]) == 25

    def test_deterministic_bytes(self, tmp_path):
        cfg = default_config("vds", trials=10, size=6, seed=2)
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, a)
        run_experiment(cfg, b)
        got_a, got_b = read_all(a), read_all(b)
        for name in got_a:
            if name == "manifest.json":
                continue  # timings differ by design
            assert got_a[name] == got_b[name], name


class TestQuad:
    def test_preconditioned_arms_beat_plain(self, tmp_path):
        cfg = default_config("quad", dim=16, kappa=1e4, iters=300, seed=0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        rows = rows_of(out / "summary.csv")
        header = rows[0].split(",")
        by_arm = {r.split(",")[0]: dict(zip(header, r.split(",")))
                  for r in rows[1:]}
        assert set(by_arm) == {"none", "row_equilibration", "jacobi"}
        for arm in ("row_equilibration", "jacobi"):
            assert float(by_arm[arm]["kappa"]) < float(by_arm["none"]["kappa"])
            assert float(by_arm[arm]["final_excess"]) < \
                float(by_arm["none"]["final_excess"])
        assert (out / "quad_excess.svg").exists()

    def test_run_holds_three_tables_and_one_text(self, tmp_path):
        """tracemalloc peak of a whole quad run: the arms' three trace
        tables (1.6 MB here), one arm's CSV text at a time, and the run's
        other arrays.

        Measured in a fresh interpreter (dim 32, 2000 steps): 4.6 MB on
        the compiled backend, 6.1 MB on the numpy fallback, whose rows and
        their join hold more text at once.  A run that kept each arm's
        iterates array beside its table holds 1.5 MB more.
        """
        cfg = default_config("quad", dim=32, kappa=1e6, iters=2000, seed=1)
        tracemalloc.start()
        try:
            run_experiment(cfg, tmp_path / "r")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 5.5e6 if _kernels.BACKEND == "compiled" else 7.0e6
        assert peak < bound, peak


class TestTrainCompare:
    def test_two_arm_smoke(self, tmp_path):
        cfg = default_config("train_compare", task="two_moons",
                             arms=["none", "e-reparam"], activation="relu",
                             n_samples=64, epochs=3, lr=0.1,
                             init_row_spread=10.0, noise=0.15, seed=0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        files = set(os.listdir(out))
        assert {"summary.csv", "train_loss.svg", "manifest.json",
                "train_none.csv", "train_e_reparam.csv"} <= files
        rows = rows_of(out / "summary.csv")
        assert rows[0].split(",")[0] == "arm"
        assert len(rows) == 3
        man = load_manifest(out)
        assert set(man["wall_time_per_step"]) == {"none", "e-reparam"}
        steps = man["notes"]["step_time_s"]
        assert "stacked_lrs" not in man["notes"]  # no lr_grid, no stack
        assert "stacked_steps" not in man["notes"]
        assert set(steps) == {"none", "e-reparam"}
        for q in steps.values():
            assert 0.0 < q["median"] <= q["p90"]

    def test_arm_diverging_in_first_epoch(self, tmp_path):
        cfg = default_config("train_compare", arms=["none"], epochs=2,
                             n_samples=32, lr=1e15)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        assert rows_of(out / "summary.csv")[1] == "none,true,0,,,,,,"
        assert rows_of(out / "train_none.csv") == [
            "epoch,train_loss,eval_loss,kappa_w0,kappa_w1,kappa_eff0,kappa_eff1"]
        man = load_manifest(out)
        assert man["diverged"] == {"none": True}
        assert man["wall_time_per_step"] == {"none": None}

    @pytest.mark.parametrize("seed", [1, 3])
    def test_conditioning_keeps_an_arm_stable_where_plain_diverges(self, tmp_path, seed):
        # the plain arm diverges at the base lr while e-reparam trains to the
        # end; a diverged trace's data digest covers only the epochs it ran,
        # so the two arms' digests differ without any unfairness
        cfg = default_config("train_compare", seed=seed, arms=["none", "e-reparam"],
                             widths=[2, 16, 4, 1], activation="relu", epochs=3,
                             momentum=0.9, init_row_spread=100.0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        rows = rows_of(out / "summary.csv")
        assert rows[1].startswith("none,true,")
        assert rows[2].startswith("e-reparam,false,3,")
        assert load_manifest(out)["diverged"] == {"none": True, "e-reparam": False}

    def test_step_time_quantiles_match_percentile(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 160):
            steps = rng.exponential(1e-4, n)
            q = experiments._step_time_quantiles(steps)
            want = np.percentile(steps, [50, 90])
            assert [q["median"], q["p90"]] == pytest.approx(want, rel=1e-12)
        assert experiments._step_time_quantiles(np.zeros(0)) == {"median": None, "p90": None}

    def test_lr_grid_emits_sweep(self, tmp_path):
        cfg = default_config("train_compare", arms=["none"], epochs=2,
                             n_samples=32, lr_grid=[0.01, 0.1], seed=0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        rows = rows_of(out / "lr_sweep.csv")
        assert rows[0] == "arm,max_nondiverging_lr"
        assert rows[1].split(",")[0] == "none"
        # the base lr and the distinct grid lrs trained as one stack
        assert load_manifest(out)["notes"]["stacked_lrs"] == {"none": [0.05, 0.01, 0.1]}

    def test_lr_grid_records_each_members_stacked_steps(self, tmp_path):
        # a member that leaves the stack early shrinks the later steps, so
        # the manifest says how many stacked steps updated each rate
        cfg = default_config("train_compare", arms=["none"], epochs=3,
                             n_samples=32, lr_grid=[0.01, 1e15], seed=0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        notes = load_manifest(out)["notes"]
        assert notes["stacked_lrs"] == {"none": [0.05, 0.01, 1e15]}
        assert notes["stacked_steps"] == {"none": [3, 3, 1]}
        assert rows_of(out / "lr_sweep.csv")[1] == "none,0.01"

    def test_max_nondiverging_lr_orders(self, monkeypatch):
        cfg = default_config("train_compare", arms=["none"], epochs=2,
                             n_samples=32, seed=0)
        assert max_nondiverging_lr(cfg, "none", [0.001, 1e9]) == 0.001
        # the largest finite lr, whatever the grid order
        assert max_nondiverging_lr(cfg, "none", [0.002, 0.001]) == 0.002
        assert max_nondiverging_lr(cfg, "none", []) is None

        trained = []
        real_train = experiments.train

        def counting_train(*args, **kwargs):
            trained.append(kwargs["lr"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", counting_train)
        # one train call per sweep, on the distinct grid lrs
        assert max_nondiverging_lr(cfg, "none", [0.001, 0.002, 1e9]) == 0.002
        assert trained == [[0.001, 0.002, 1e9]]
        trained.clear()
        assert max_nondiverging_lr(cfg, "none", [1e9, 1e10]) is None
        assert trained == [[1e9, 1e10]]
        trained.clear()
        assert max_nondiverging_lr(cfg, "none", [1e9, 0.001, 1e9]) == 0.001
        assert trained == [[0.001, 1e9]]

    @pytest.mark.parametrize("task", ["teacher_regression", "two_moons"])
    def test_max_nondiverging_lr_equals_largest_first_loop(self, task):
        # acceptance 10's fixtures: the stacked sweep against the loop it
        # replaced, which trained the distinct grid lrs from the largest
        # down and stopped at the first finite run
        grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]

        def largest_first(cfg, arm):
            x, y, loss, out_act = experiments._task_data(cfg)
            p = cfg.params
            for lr in sorted(set(grid), reverse=True):
                net, _ = experiments._arm_network(cfg, arm, out_act)
                trace = train(net, x, y, loss=loss, lr=lr, momentum=p["momentum"],
                              epochs=p["epochs"], batch_size=p["batch_size"],
                              seed=cfg.seed, record=False)
                if not trace.diverged and np.isfinite(trace.train_loss[-1]):
                    return lr
            return None

        extra = (dict(activation="tanh", teacher_kappa=1e3, noise=0.01, lr=0.05)
                 if task == "teacher_regression" else dict(activation="relu", noise=0.15,
                                                           lr=0.1))
        for seed in range(5):
            cfg = default_config("train_compare", task=task, seed=seed,
                                 arms=["none", "e-reparam"], widths=[2, 16, 1],
                                 n_samples=256, batch_size=32, epochs=50,
                                 init_row_spread=100.0, **extra)
            for arm in ("none", "e-reparam"):
                assert max_nondiverging_lr(cfg, arm, grid) == largest_first(cfg, arm)

    def test_scale_first_layer_rows(self):
        net = Network([DenseSpec(2, 6, activation="tanh"), DenseSpec(6, 1)],
                      seed=0)
        w0 = net.layers[0].w.copy()
        scale_first_layer_rows(net, seed=0, spread=1.0)
        np.testing.assert_array_equal(net.layers[0].w, w0)
        scale_first_layer_rows(net, seed=0, spread=50.0)
        ratio = np.linalg.norm(net.layers[0].w, axis=1) / \
            np.linalg.norm(w0, axis=1)
        assert ratio.max() / ratio.min() == pytest.approx(50.0, rel=1e-12)
        with pytest.raises(ConfigError):
            scale_first_layer_rows(net, seed=0, spread=0.5)

    def test_arm_registry(self):
        assert "e-reparam" in ARMS and "bn+ws" in ARMS


class TestHessianCompareRun:
    def test_tiny_run(self, tmp_path):
        cfg = default_config("hessian_compare", widths=[2, 3, 1],
                             n_samples=32, n_points=2, seed=0)
        out = tmp_path / "r"
        run_experiment(cfg, out)
        rows = rows_of(out / "kappa_comparisons.csv")
        assert rows[0] == "seed,phase,kappa_plain,kappa_eq,rank_ok_plain,rank_ok_eq"
        summary = rows_of(out / "summary.csv")
        vals = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert int(vals["n_points"]) == 2
        notes = load_manifest(out)["notes"]
        assert (notes["n_skipped_self_check"] + notes["n_skipped_empty_spectrum"]
                == int(vals["n_skipped"]))


class TestCondReport:
    def test_matrix_file(self, tmp_path):
        mpath = tmp_path / "m.txt"
        mpath.write_text("2 2\n3 4\n0 5\n")
        cfg = default_config("cond_report", matrix_file=str(mpath))
        out = tmp_path / "r"
        run_experiment(cfg, out)
        text = (out / "cond_report.csv").read_text()
        assert "row_equilibration" in text

    def test_one_svd_per_matrix(self, tmp_path, monkeypatch):
        # kappa(A) once, plus kappa of each of the three default transforms:
        # one Jacobi sweep each, and none of them builds singular vectors
        mpath = tmp_path / "m.txt"
        mpath.write_text("3 3\n4 1 0\n1 3 1\n0 1 2\n")
        calls = {"sweep": 0, "svd": 0}
        real_jacobi, real_svd = densela._jacobi, densela.svd

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(densela, "_jacobi", counting("sweep", real_jacobi))
        monkeypatch.setattr(densela, "svd", counting("svd", real_svd))
        run_experiment(default_config("cond_report", matrix_file=str(mpath)),
                       tmp_path / "r")
        assert calls == {"sweep": 4, "svd": 0}

    def test_matrix_contents_enter_the_hash_and_the_manifest(self, tmp_path):
        # two different matrices written to one path once shared a hash
        mpath = tmp_path / "m.txt"
        runs = []
        for body in ("2 2\n1 0\n0 2\n", "2 2\n3 4\n0 5\n"):
            mpath.write_text(body)
            cfg = default_config("cond_report", matrix_file=str(mpath))
            out = tmp_path / f"r{len(runs)}"
            run_experiment(cfg, out)
            digest = hashlib.sha256(body.encode()).hexdigest()
            assert cfg.inputs == {"matrix_file": digest}
            assert load_manifest(out)["inputs"] == {"matrix_file": digest}
            runs.append((cfg.config_hash, (out / "cond_report.csv").read_bytes()))
        (hash_a, csv_a), (hash_b, csv_b) = runs
        assert csv_a != csv_b
        assert hash_a != hash_b

    def test_matrix_changed_after_resolving_is_rejected(self, tmp_path):
        mpath = tmp_path / "m.txt"
        mpath.write_text("2 2\n1 0\n0 2\n")
        cfg = default_config("cond_report", matrix_file=str(mpath))
        mpath.write_text("2 2\n3 4\n0 5\n")
        with pytest.raises(ConfigError, match="changed"):
            run_experiment(cfg, tmp_path / "r")

    def test_unreadable_matrix_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            default_config("cond_report", matrix_file=str(tmp_path / "missing.txt"))


SCIPY_FREE_RUNS = """
import json, sys, tempfile
from pathlib import Path
from equilab.bench.config import default_config
from equilab.bench.experiments import RUNNERS, run_experiment
small = json.loads(sys.argv[1])
assert set(small) == set(RUNNERS), sorted(RUNNERS)
with tempfile.TemporaryDirectory() as tmp:
    matrix = Path(tmp) / "m.txt"
    matrix.write_text("2 2\\n3 4\\n0 5\\n")
    for kind, params in small.items():
        if kind == "cond_report":
            params["matrix_file"] = str(matrix)
        run_experiment(default_config(kind, **params), Path(tmp) / kind)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_experiments_leave_scipy_unloaded():
    # NumPy is the package's only runtime dependency: no experiment kind
    # may load any part of SciPy
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUNS, json.dumps(SMALL_RUNS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The interpreter's site setup may load urllib.parse before any equilab
# import, so the check is on what the import adds.
NETWORK_STACK_FREE_IMPORT = """
import sys
stack = ("urllib", "http", "email", "ssl")
def loaded():
    return {m for m in sys.modules if m.split(".")[0] in stack}
before = loaded()
import equilab.bench.experiments
print(sorted(loaded() - before))
"""


def test_experiments_import_leaves_network_stack_unloaded():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NETWORK_STACK_FREE_IMPORT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCli:
    def test_list_arms(self, capsys):
        assert cli.main(["--list-arms"]) == 0
        out = capsys.readouterr().out
        for arm in ARMS:
            assert arm in out

    def test_no_command_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_vds_run_with_config(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "vds", "trials": 4, "size": 4}))
        out = tmp_path / "out"
        rc = cli.main(["vds", "--config", str(p), "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert (out / "summary.csv").exists()

    def test_default_out_dir_uses_config_hash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "vds", "trials": 3, "size": 4}))
        rc = cli.main(["vds", "--config", str(p), "--seed", "7"])
        assert rc == 0
        want = default_config("vds", seed=7, trials=3, size=4).config_hash
        assert (tmp_path / "runs" / f"vds_{want}" / "summary.csv").exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "vds", "trails": 4}))
        rc = cli.main(["vds", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.strip() != ""

    def test_cond_positional_matrix(self, tmp_path):
        mpath = tmp_path / "m.txt"
        mpath.write_text("2 2\n1 0\n0 2\n")
        out = tmp_path / "o"
        rc = cli.main(["cond", str(mpath), "--out", str(out)])
        assert rc == 0
        assert (out / "cond_report.csv").exists()

    def test_cond_positional_matrix_is_part_of_the_config_hash(self, tmp_path, monkeypatch):
        # two matrices without --out must not share (and overwrite) a run
        # directory: the path enters the config, so it moves the hash
        monkeypatch.chdir(tmp_path)
        paths = []
        for name, body in (("a.txt", "2 2\n1 0\n0 2\n"), ("b.txt", "2 2\n3 4\n0 5\n")):
            (tmp_path / name).write_text(body)
            assert cli.main(["cond", name]) == 0
            want = default_config("cond_report", matrix_file=name).config_hash
            paths.append(tmp_path / "runs" / f"cond_report_{want}")
        a, b = paths
        assert a != b
        assert load_manifest(a)["config_hash"] != load_manifest(b)["config_hash"]
        # each manifest records its resolved config, matrix file included
        assert [load_manifest(d)["config"]["matrix_file"] for d in paths] == ["a.txt", "b.txt"]
        assert (a / "cond_report.csv").read_bytes() != (b / "cond_report.csv").read_bytes()

    def test_cond_positional_matrix_overrides_the_config_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("2 2\n1 0\n0 2\n")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "cond_report", "matrix_file": "missing.txt"}))
        assert cli.main(["cond", "m.txt", "--config", str(p), "--out", "o"]) == 0
        assert (tmp_path / "o" / "cond_report.csv").exists()

    def test_batch_norm_with_singleton_batches_exits_1(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "train_compare", "arms": ["bn"], "batch_size": 1,
                                 "epochs": 1, "n_samples": 8}))
        rc = cli.main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: batch norm")


# Writes a 20,001-row, 66-column GD trace (about 26 MB of text) the way a
# run writes its trace files, and prints the backend, how much the
# process's peak RSS grew meanwhile and the file's size, in bytes.
STREAMED_TRACE_SCRIPT = """
import os, resource, sys
import numpy as np
from equilab import _kernels, quadlab
from equilab.bench.manifest import atomic_write_chunks

table = np.random.default_rng(5).standard_normal((20001, 66))
trace = quadlab.GDTrace(table, 0.5, np.geomspace(1e3, 1.0, 64), False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
atomic_write_chunks(sys.argv[1], trace.csv_blocks())
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(_kernels.BACKEND, grown * 1024, os.path.getsize(sys.argv[1]))
"""


@pytest.mark.parametrize("backend", [
    pytest.param("compiled", marks=needs_compiled), "python"])
def test_streamed_trace_write_peak_rss_stays_far_below_its_text(tmp_path, backend):
    """In a fresh interpreter, writing a trace whose text is about 26 MB
    raises the peak RSS by less than a quarter of the file's size; a whole
    text of the file, made before the write, alone exceeds it."""
    env = dict(os.environ, EQUILAB_PURE_PYTHON="1" if backend == "python" else "")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(equilab.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", STREAMED_TRACE_SCRIPT,
                           str(tmp_path / "trace.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ran_on, grown, size = proc.stdout.split()
    assert ran_on == backend
    assert int(size) > 25_000_000
    assert int(grown) < int(size) / 4, (grown, size)
