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
    """(base, checkout, output directory, list of run_once calls); run_once
    is replaced by a fake that records (checkout name, workload, seed)."""
    base = make_checkout(tmp_path / "base", monkeypatch)
    head = make_checkout(tmp_path / "head", monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(bench_record, "ROOT", out)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        summary = {"metrics": {"run_s": {"value": float(len(calls))}},
                   "correct": True, "failed": 0, "attempted": 3}
        return {"env": {"kernel_backend": checkout.name}}, summary

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
    assert (old["env"]["kernel_backend"], new["env"]["kernel_backend"]) == ("base", "head")
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


@pytest.mark.parametrize("flag, barred", [("1", True), ("", False)])
def test_record_counts_current_bytecode_after_the_runs(bench_record, paired, monkeypatch,
                                                       flag, barred):
    base, head, out, calls = paired
    monkeypatch.delenv("EQUILAB_PURE_PYTHON", raising=False)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    package = head / "src" / "equilab"
    package.mkdir(parents=True)
    for name in "abcd":
        (package / f"{name}.py").write_text(f"{name} = 1\n", encoding="utf-8")
    fake = bench_record.run_once

    def run_once(checkout, workload, seed, seconds):
        if checkout.name == "head" and not any(c == "head" for c, _, _ in calls):
            # the first run builds: a checked-hash and a timestamp .pyc that
            # match their sources, a stale one, and none for d
            checked = py_compile.PycInvalidationMode.CHECKED_HASH
            py_compile.compile(package / "a.py", doraise=True, invalidation_mode=checked)
            py_compile.compile(package / "b.py", doraise=True,
                               invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
            py_compile.compile(package / "c.py", doraise=True, invalidation_mode=checked)
            (package / "c.py").write_text("c = 2\n", encoding="utf-8")
        return fake(checkout, workload, seed, seconds)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    bench_record.main(["--checkout", str(head), "--label", "new", "--base", str(base)])
    old_label = bench_record.git(base, "rev-parse", "HEAD")[:7]
    new = json.loads((out / "BENCH_new.json").read_text(encoding="utf-8"))
    old = json.loads((out / f"BENCH_{old_label}.json").read_text(encoding="utf-8"))
    assert new["bytecode"] == {"PYTHONDONTWRITEBYTECODE": barred,
                               "package_modules": 4, "current_pyc": 2}
    assert old["bytecode"] == {"PYTHONDONTWRITEBYTECODE": barred,
                               "package_modules": 0, "current_pyc": 0}


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
