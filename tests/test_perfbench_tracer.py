"""perfbench's tracer wraps equilab functions by name: every TARGETS entry
must still resolve, and traced() must put every original back on exit."""

import importlib
import importlib.util
import operator
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for module_name, *_ in module.TARGETS:
        importlib.import_module(module_name)
    return module


def _resolve(module_name, path):
    return operator.attrgetter(path)(sys.modules[module_name])


def _equilab_bindings():
    return {(name, key): value
            for name, mod in list(sys.modules.items()) if name.split(".")[0] == "equilab"
            for key, value in list(vars(mod).items())}


def test_traced_wraps_every_target_and_restores_it(tracer):
    originals, missing = [], []
    for module_name, path, name, _ in tracer.TARGETS:
        try:
            originals.append(_resolve(module_name, path))
        except AttributeError:
            missing.append(f"{module_name}.{path} ({name})")
    assert not missing, f"traced names that no longer resolve: {missing}"
    before = _equilab_bindings()
    with tracer.traced(tracer.Tracer()):
        for (module_name, path, name, _), original in zip(tracer.TARGETS, originals):
            wrapped = _resolve(module_name, path)
            assert wrapped is not original, name
            assert wrapped.__wrapped__ is original, name
    for (module_name, path, name, _), original in zip(tracer.TARGETS, originals):
        assert _resolve(module_name, path) is original, name
    after = _equilab_bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
