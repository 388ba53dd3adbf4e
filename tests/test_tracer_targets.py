"""perfbench's tracer wraps blfix functions by module and attribute name, and a
target that no longer resolves silently drops its per-layer metrics. Every
target must still resolve; this reads perfbench/tracer.py and changes nothing
there.
"""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [target[:2] for target in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_tracer_target_resolves(module, path):
    importlib.import_module(module)  # _resolve looks only at loaded modules
    assert tracer._resolve(module, path) is not None
