"""Every name the per-layer tracer wraps must still exist in the package,
and every count it reads off a return value must still be readable.

``bench/tracer.py`` binds functions and methods by name, and reads counters
off some of their results.  A refactor that deletes or renames one, or
changes such a result's type, would otherwise only surface when the traced
benchmark runs; these tests read the tracer's target list and its result
counters and nothing else from ``bench/``.
"""

import importlib

import pytest

from output_digest import load_bench

_TRACER = load_bench("tracer")
TARGETS = _TRACER.TARGETS
RESULT_COUNTERS = _TRACER.RESULT_COUNTERS


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


# Per counted target: calls with real arguments, and the count each must read.
COUNTED_CALLS = {"alignment.identity_sweep": [((2,), 1), ((12,), 66)]}


def test_result_counters_read_real_return_values():
    # The tracer reads a count off a wrapped function's return value; a change
    # to that return type must fail here, not only in a traced benchmark run.
    assert set(RESULT_COUNTERS) == set(COUNTED_CALLS)
    targets = {target[3]: target for target in TARGETS}
    for key, (counter, read) in RESULT_COUNTERS.items():
        module_name, class_name, attr = targets[key][:3]
        assert class_name is None, key
        function = getattr(importlib.import_module(f"vertalign.{module_name}"), attr)
        for args, count in COUNTED_CALLS[key]:
            assert read(function(*args)) == count, (counter, args)
