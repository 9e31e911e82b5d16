"""Every name the per-layer tracer wraps must still exist in the package.

``bench/tracer.py`` binds functions and methods by name.  A refactor that
deletes or renames one would otherwise only surface when the traced
benchmark runs; this test reads the tracer's target list and nothing else
from ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [target[:3] for target in TARGETS],
    ids=[target[3] + ("." + target[2] if target[1] else "") for target in TARGETS],
)
def test_traced_name_resolves(module_name, class_name, attr):
    module = importlib.import_module(f"vertalign.{module_name}")
    if class_name is None:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    else:
        assert attr in vars(getattr(module, class_name)), f"{class_name}.{attr}"
