"""The in-place build's bytecode: `setup.py build_ext --inplace` writes a
checked-hash .pyc for every module under src/equilab, also when the
extension cannot be compiled, so a fresh interpreter that may not write
its own bytecode cache compiles no package source, and an edited module
is never shadowed by its old .pyc.

Each test works on a copy of setup.py, pyproject.toml and src/equilab,
built with a failing compiler (no C compile, about 0.5 s).
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# run in a fresh interpreter: import the package, counting the sources that
# the import system compiles because it found no usable .pyc
COUNT_COMPILES = """
import importlib.machinery, json
compiled = []
loader = importlib.machinery.SourceFileLoader
original = loader.source_to_code
def counting(self, data, path, *, _optimize=-1):
    compiled.append(path)
    return original(self, data, path, _optimize=_optimize)
loader.source_to_code = counting
import equilab, equilab.bench.experiments, equilab.errors
print(json.dumps({"package": equilab.__file__, "compiled": compiled,
                  "edited": getattr(equilab.errors, "EDITED", False)}))
"""


def modules(tree):
    return sorted((tree / "src" / "equilab").rglob("*.py"))


def fresh_import(tree):
    """What a fresh interpreter, barred from writing bytecode, reports after
    importing the package from tree; "compiled" lists the sources under
    tree that it compiled."""
    env = {k: v for k, v in os.environ.items() if k != "EQUILAB_PURE_PYTHON"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", COUNT_COMPILES], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert Path(out["package"]).is_relative_to(tree / "src")
    out["compiled"] = [Path(p) for p in out["compiled"] if Path(p).is_relative_to(tree)]
    return out


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A copy of the build inputs after `build_ext --inplace` with no
    working compiler, and the build's completed process."""
    tree = tmp_path_factory.mktemp("build") / "tree"
    shutil.copytree(ROOT / "src" / "equilab", tree / "src" / "equilab",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tree / name)
    env = dict(os.environ, CC="false", CXX="false")
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=300)
    return tree, proc


def test_build_without_compiler_writes_checked_hash_bytecode(built):
    tree, proc = built
    assert proc.returncode == 0, proc.stderr
    assert "skipping" in proc.stderr
    assert not list(tree.rglob("*.so"))
    assert len(modules(tree)) > 10
    for source in modules(tree):
        pyc = Path(importlib.util.cache_from_source(source, optimization=""))
        head = pyc.read_bytes()[:16]
        assert head[:4] == importlib.util.MAGIC_NUMBER, source
        # flags: hash-based (1) and checked against the source (2)
        assert int.from_bytes(head[4:8], "little") == 0b11, source
        assert head[8:] == importlib.util.source_hash(source.read_bytes()), source
    # only the package is compiled, and only its bytecode is written
    assert not list(tree.glob("*.pyc")) and not (tree / "__pycache__").exists()


def test_fresh_interpreter_compiles_no_package_source(built):
    tree, _ = built
    out = fresh_import(tree)
    assert out["compiled"] == []
    assert not out["edited"]


def test_edited_module_is_not_shadowed_by_its_bytecode(built, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(built[0], tree)
    errors = tree / "src" / "equilab" / "errors.py"
    errors.write_text(errors.read_text(encoding="utf-8") + "\nEDITED = True\n",
                      encoding="utf-8")
    out = fresh_import(tree)
    assert out["edited"] is True
    assert out["compiled"] == [errors]
