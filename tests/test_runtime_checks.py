"""Runtime checks must survive `python -O`, which strips assert statements.

Each case runs in a fresh `python -O` interpreter, triggers one check and
must end in the named EquilabError subclass.  A static guard parses every
module of the package and rejects any assert statement.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

TRAIN_COMPARE = """
import tempfile
from equilab.bench import experiments
from equilab.bench.config import default_config
cfg = default_config("train_compare", arms=["none", "e-reparam"], epochs=1,
                     n_samples=16, seed=0)
with tempfile.TemporaryDirectory() as out:
    experiments.run_experiment(cfg, out)
"""

CASES = {
    # SPD with kappa 1e9 passes the 1e-12 rank check, but its minimizer's
    # residual is ~eps * sigma_max * ||x||, far above 1e-9 * ||b||
    "theta_star_residual": ("InaccurateSolveError", """
import numpy as np
from equilab import quadlab
rng = np.random.default_rng(0)
q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
a = (q * np.geomspace(1e9, 1.0, 12)) @ q.T
quadlab.QuadraticProblem(a, rng.standard_normal(12)).theta_star
"""),
    "arms_different_weights": ("ArmMismatchError", """
import itertools
from equilab.bench import experiments
counter = itertools.count()
experiments._shared_init_digest = lambda net: str(next(counter))
""" + TRAIN_COMPARE),
    "arms_different_data": ("ArmMismatchError", """
import dataclasses, itertools
from equilab.bench import experiments
counter = itertools.count()
_train = experiments.train
experiments.train = lambda *a, **k: [
    dataclasses.replace(t, data_digest=str(next(counter))) for t in _train(*a, **k)]
""" + TRAIN_COMPARE),
}

RUNNER = """
from equilab.errors import EquilabError
print("debug", __debug__)
try:
{body}
except EquilabError as exc:
    print("raised", type(exc).__name__)
else:
    print("raised nothing")
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_survives_python_O(case):
    expected, body = CASES[case]
    script = RUNNER.format(body=textwrap.indent(body.strip(), "    "))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["debug False", f"raised {expected}"]


def test_package_has_no_assert_statement():
    paths = sorted((SRC / "equilab").rglob("*.py"))
    assert len(paths) > 10  # the walk reached the whole package
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
