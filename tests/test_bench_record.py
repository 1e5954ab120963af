import importlib.util
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
