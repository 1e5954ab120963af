import importlib.util
import json
import py_compile
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_non_git_checkout_exits_before_any_run(bench_record, tmp_path, monkeypatch):
    checkout = tmp_path / "export"
    checkout.mkdir()
    (checkout / "BENCHMARK.json").write_text(
        '{"command": [], "run_seconds": 1, "workloads": [{"name": "w"}], '
        '"end_to_end": [{"name": "run_s", "unit": "s"}]}', encoding="utf-8")
    # keep git from finding a repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    calls = []
    monkeypatch.setattr(bench_record, "run_once", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--checkout", str(checkout), "--label", "x"])
    assert exc.value.code not in (0, None)
    assert "git" in str(exc.value.code)
    assert calls == []


def test_git_state_reads_commit_and_dirty_flag(bench_record, tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n", encoding="utf-8")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "init")
    commit, dirty = bench_record.git_state(tmp_path)
    assert len(commit) == 40 and not dirty
    (tmp_path / "src" / "m.py").write_text("x = 2\n", encoding="utf-8")
    assert bench_record.git_state(tmp_path) == (commit, True)


def make_checkout(path, monkeypatch):
    """A git checkout at path whose BENCHMARK.json names two workloads."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(path.parent))
    path.mkdir()
    (path / "BENCHMARK.json").write_text(
        '{"command": ["run"], "run_seconds": 1, "workloads": [{"name": "w1"}, '
        '{"name": "w2"}], "end_to_end": [{"name": "run_s", "unit": "s"}]}',
        encoding="utf-8")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", path.name]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=path, check=True, capture_output=True)
    return path


@pytest.fixture
def paired(bench_record, tmp_path, monkeypatch):
    """(base, checkout, records directory, list of run_once calls); run_once
    is replaced by a fake that records (checkout name, workload, seed) and
    reports the compiled backend and its checkout's name."""
    base = make_checkout(tmp_path / "base", monkeypatch)
    head = make_checkout(tmp_path / "head", monkeypatch)
    root = tmp_path / "out"
    out = root / bench_record.RECORDS
    out.mkdir(parents=True)
    monkeypatch.setattr(bench_record, "ROOT", root)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        summary = {"metrics": {"run_s": {"value": float(len(calls))}},
                   "correct": True, "failed": 0, "attempted": 3}
        return {"env": {"kernel_backend": "compiled", "checkout": checkout.name}}, summary

    monkeypatch.setattr(bench_record, "run_once", run_once)
    return base, head, out, calls


def test_base_and_checkout_alternate_abba(bench_record, paired, monkeypatch):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    old_label = bench_record.git(base, "rev-parse", "HEAD")[:7]
    runs = bench_record.RUNS
    assert len(calls) == 2 * 2 * runs
    for workload in ("w1", "w2"):
        order = "".join("A" if c == "base" else "B" for c, w, _ in calls if w == workload)
        assert order == "ABBA" * (runs // 2) + "AB" * (runs % 2)
    assert {seed for _, _, seed in calls} == {bench_record.SEED}
    old = json.loads((out / f"BENCH_{old_label}.json").read_text(encoding="utf-8"))
    new = json.loads((out / "BENCH_new.json").read_text(encoding="utf-8"))
    assert (old["partner"], new["partner"]) == ("new", old_label)
    assert old["session"] == new["session"]
    assert (old["session"]["base"], old["session"]["checkout"]) == (old_label, "new")
    assert (old["env"]["checkout"], new["env"]["checkout"]) == ("base", "head")
    # each side's samples are its own runs, in order
    samples = new["workloads"]["w1"]["metrics"]["run_s"]["samples"]
    assert samples == [float(i + 1) for i, c in enumerate(calls) if c[:2] == ("head", "w1")]
    assert (new["runs"], new["seed"]) == (old["runs"], old["seed"]) == (5, 1)


def test_runs_and_seed_set_the_rounds_and_are_recorded(bench_record, paired, monkeypatch):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base),
                       "--runs", "10", "--seed", "3"])
    assert len(calls) == 2 * 2 * 10
    assert {seed for _, _, seed in calls} == {3}
    for workload in ("w1", "w2"):
        order = "".join("A" if c == "base" else "B" for c, w, _ in calls if w == workload)
        assert order == "ABBA" * 5
    old_label = bench_record.git(base, "rev-parse", "HEAD")[:7] + "-seed3"
    for label in ("new", old_label):
        rec = json.loads((out / f"BENCH_{label}.json").read_text(encoding="utf-8"))
        assert (rec["runs"], rec["seed"]) == (10, 3)
        assert len(rec["workloads"]["w2"]["metrics"]["run_s"]["samples"]) == 10


def test_fewer_than_two_runs_exit_before_any_run(bench_record, paired):
    base, head, out, calls = paired
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--checkout", str(head), "--label", "new", "--runs", "1"])
    assert exc.value.code == 2
    assert calls == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("failing", ["base", "head"])
def test_a_failed_run_on_either_side_writes_nothing(bench_record, paired, monkeypatch,
                                                    failing):
    base, head, out, calls = paired
    fake = bench_record.run_once

    def run_once(checkout, workload, seed, seconds):
        # fail in the last round, after every other run succeeded
        if checkout.name == failing and len(calls) >= 4 * (bench_record.RUNS - 1):
            raise SystemExit(f"perfbench/run.py --workload {workload} failed")
        return fake(checkout, workload, seed, seconds)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    with pytest.raises(SystemExit):
        bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("stale, from_call", [("head", 6), ("base", 0)],
                         ids=["within a side", "across sides"])
def test_mixed_kernel_backends_write_nothing(bench_record, paired, monkeypatch, stale,
                                             from_call):
    # a stale in-place build puts one side's runs on the fallback: the
    # checkout's from its fourth run on, or every run of the base
    base, head, out, calls = paired
    fake = bench_record.run_once

    def run_once(checkout, workload, seed, seconds):
        report, summary = fake(checkout, workload, seed, seconds)
        if checkout.name == stale and len(calls) > from_call:
            report["env"]["kernel_backend"] = "python"
        return report, summary

    monkeypatch.setattr(bench_record, "run_once", run_once)
    with pytest.raises(SystemExit, match="kernel backend") as exc:
        bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    assert "python" in exc.value.code and "compiled" in exc.value.code
    assert list(out.iterdir()) == []
    # the session stops at the first run on another backend
    assert len(calls) == (from_call + 1 if stale == "head" else 2)


def test_same_label_on_both_sides_exits_before_any_run(bench_record, paired,
                                                      monkeypatch):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    base_label = bench_record.git(base, "rev-parse", "HEAD")[:7]
    with pytest.raises(SystemExit, match="pass --label"):
        bench_record.main(["--checkout", str(head), "--label", base_label,
                           "--base", str(base)])
    assert calls == []


@pytest.mark.parametrize("taken", ["base", "checkout"])
def test_existing_record_exits_before_any_run(bench_record, paired, monkeypatch, taken):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    label = bench_record.git(base, "rev-parse", "HEAD")[:7] if taken == "base" else "new"
    earlier = out / f"BENCH_{label}.json"
    earlier.write_text('{"label": "earlier"}\n', encoding="utf-8")
    with pytest.raises(SystemExit, match="already recorded") as exc:
        bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    assert str(earlier) in str(exc.value.code)
    assert calls == []
    assert list(out.iterdir()) == [earlier]
    assert earlier.read_text(encoding="utf-8") == '{"label": "earlier"}\n'


@pytest.mark.parametrize("pure, suffix", [("", ""), ("0", ""), ("1", "-python")])
def test_default_label_names_the_forced_fallback(bench_record, paired, monkeypatch,
                                                  pure, suffix):
    base, head, out, calls = paired
    monkeypatch.setenv("EQUILAB_PURE_PYTHON", pure)
    commit = bench_record.git(base, "rev-parse", "HEAD")
    assert bench_record.side(base).label == commit[:7] + suffix
    assert bench_record.side(base, "x").label == "x"
    assert bench_record.side(base, seed=3).label == commit[:7] + suffix + "-seed3"
    assert bench_record.side(base, seed=bench_record.SEED).label == commit[:7] + suffix


CHECKED = py_compile.PycInvalidationMode.CHECKED_HASH
TIMESTAMP = py_compile.PycInvalidationMode.TIMESTAMP


def build_on_first_run(bench_record, monkeypatch, checkout, modules, edited=()):
    """Give checkout a src/equilab package of the named modules; its first
    run writes each module's .pyc, in the module's invalidation mode (None
    writes none), then edits the sources of the `edited` modules.  Returns
    the package directory."""
    package = checkout / "src" / "equilab"
    package.mkdir(parents=True)
    for name in modules:
        (package / f"{name}.py").write_text(f"{name} = 1\n", encoding="utf-8")
    fake = bench_record.run_once
    built = []

    def run_once(checkout_, workload, seed, seconds):
        if checkout_ == checkout and not built:
            for name, mode in modules.items():
                if mode is not None:
                    py_compile.compile(package / f"{name}.py", doraise=True,
                                       invalidation_mode=mode)
            for name in edited:
                (package / f"{name}.py").write_text(f"{name} = 2\n", encoding="utf-8")
            built.append(checkout)
        return fake(checkout_, workload, seed, seconds)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    return package


@pytest.mark.parametrize("flag, barred", [("1", True), ("", False)])
def test_record_counts_current_bytecode_after_the_runs(bench_record, paired, monkeypatch,
                                                       flag, barred):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    # checked-hash and timestamp .pyc files both count when they match
    build_on_first_run(bench_record, monkeypatch, head, {"a": CHECKED, "b": TIMESTAMP,
                                                         "c": CHECKED})
    bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    old_label = bench_record.git(base, "rev-parse", "HEAD")[:7]
    new = json.loads((out / "BENCH_new.json").read_text(encoding="utf-8"))
    old = json.loads((out / f"BENCH_{old_label}.json").read_text(encoding="utf-8"))
    assert new["bytecode"] == {"PYTHONDONTWRITEBYTECODE": barred,
                               "package_modules": 3, "current_pyc": 3}
    assert old["bytecode"] == {"PYTHONDONTWRITEBYTECODE": barred,
                               "package_modules": 0, "current_pyc": 0}


@pytest.mark.parametrize("fault", ["stale", "missing"])
@pytest.mark.parametrize("faulty", ["base", "head"])
def test_module_without_current_bytecode_writes_nothing(bench_record, paired, monkeypatch,
                                                        fault, faulty):
    # a checked-hash .pyc whose source was edited after the build, or a
    # module the build never compiled, on either side
    base, head, out, calls = paired
    modules = {"a": CHECKED, "b": TIMESTAMP, "c": CHECKED if fault == "stale" else None}
    package = build_on_first_run(bench_record, monkeypatch, base if faulty == "base" else head,
                                 modules, edited="c" if fault == "stale" else ())
    with pytest.raises(SystemExit, match="current bytecode") as exc:
        bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    assert f"2 of 3 modules under {package}" in exc.value.code
    assert list(out.iterdir()) == []
    assert len(calls) == 2 * 2 * bench_record.RUNS


def test_record_names_the_tree_a_squash_keeps(bench_record, paired, monkeypatch):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    new = json.loads((out / "BENCH_new.json").read_text(encoding="utf-8"))
    commit = bench_record.git(head, "rev-parse", "HEAD")
    tree = bench_record.git(head, "rev-parse", "HEAD^{tree}")
    assert (new["checkout_commit"], new["checkout_tree"]) == (commit, tree)
    # a squash onto another parent makes a new commit with the same tree
    squashed = bench_record.git(head, "-c", "user.name=t", "-c", "user.email=t@t",
                                "commit-tree", tree, "-p", commit, "-m", "squash")
    assert squashed != commit
    assert bench_record.git(head, "rev-parse", squashed + "^{tree}") == new["checkout_tree"]
    old_label = bench_record.git(base, "rev-parse", "HEAD")[:7]
    old = json.loads((out / f"BENCH_{old_label}.json").read_text(encoding="utf-8"))
    assert old["checkout_tree"] == bench_record.git(base, "rev-parse", "HEAD^{tree}")


def synthetic_record(label, backend, medians, **extra):
    """A BENCH record whose workloads map to (run_s, peak_rss_mb, setup_s)
    medians."""
    return {"label": label, "seed": 1, "env": {"kernel_backend": backend}, **extra,
            "workloads": {w: {"metrics": {m: {"median": v, "samples": [v]} for m, v in
                                          zip(("run_s", "peak_rss_mb", "setup_s"), values)}}
                          for w, values in medians.items()}}


def test_table_prints_each_record_in_the_order_history_added_it(bench_record, tmp_path,
                                                                 monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    calls = []
    monkeypatch.setattr(bench_record, "run_once", lambda *args: calls.append(args))
    records = tmp_path / bench_record.RECORDS
    records.mkdir()
    contents = {"BENCH_zz.json": synthetic_record("zz", "compiled",
                                                  {"w1": (0.25, 40.5, 0.16),
                                                   "w2": (0.0031, 39.125, 0.2)},
                                                  partner="aa-python"),
                "BENCH_aa-python.json": synthetic_record("aa-python", "python",
                                                         {"w1": (0.5, 41.0, 0.1875)}),
                "BENCH_a0.json": synthetic_record("a0", "compiled", {"w2": (2.0, 3.0, 4.0)})}
    rows = {"zz": "| zz | aa-python | 1 | compiled | 0.25 / 40.50 / 0.160 | "
                  "0.0031 / 39.12 / 0.200 |",
            "aa-python": "| aa-python | - | 1 | python | 0.5 / 41.00 / 0.188 | - |",
            "a0": "| a0 | - | 1 | compiled | - | 2 / 3.00 / 4.000 |",
            "new": "| new | - | 1 | compiled | - | 1 / 2.00 / 3.000 |"}
    header = ["| label | partner | seed | backend | w1: run_s / peak_rss_mb / setup_s | "
              "w2: run_s / peak_rss_mb / setup_s |", "|---|---|---|---|---|---|"]

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    def table():
        bench_record.main(["--table"])
        return capsys.readouterr().out.splitlines()[2:]

    for name in ("BENCH_zz.json", "BENCH_aa-python.json"):
        (records / name).write_text(json.dumps(contents[name]), encoding="utf-8")
    # not a git checkout: by name
    assert table() == [rows["aa-python"], rows["zz"]]
    # the records start at the root, as they did before the layout change:
    # zz committed first, aa-python then; the table reads only the directory
    for name in ("BENCH_zz.json", "BENCH_aa-python.json"):
        (records / name).rename(tmp_path / name)
    git("init", "-q")
    git("add", "BENCH_zz.json")
    git("commit", "-q", "-m", "zz")
    git("add", "BENCH_aa-python.json")
    git("commit", "-q", "-m", "aa")
    assert table() == []
    # one commit moves both into the directory, and a0 is committed after
    # the move: the order stays the one history first added each name in
    git("mv", "BENCH_zz.json", "BENCH_aa-python.json", bench_record.RECORDS)
    git("commit", "-q", "-m", "move")
    assert table() == [rows["zz"], rows["aa-python"]]
    (records / "BENCH_a0.json").write_text(json.dumps(contents["BENCH_a0.json"]),
                                           encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "a0")
    # an uncommitted record comes last
    (records / "BENCH_new.json").write_text(json.dumps(synthetic_record(
        "new", "compiled", {"w2": (1.0, 2.0, 3.0)})), encoding="utf-8")
    bench_record.main(["--table"])
    assert capsys.readouterr().out.splitlines() == header + [
        rows["zz"], rows["aa-python"], rows["a0"], rows["new"]]
    assert calls == []
