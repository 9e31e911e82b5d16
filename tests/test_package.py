"""Package hygiene: what ``import vertalign.cli`` loads, and what ``__all__`` names.

Every process start pays for the CLI's imports, so they stay within the
standard library and avoid its heavier modules; and a stale ``__all__``
entry would only surface as an error from ``from ... import *``.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vertalign

# Run in a fresh interpreter: the modules that importing the CLI adds to
# what the interpreter had already loaded at start-up.
_ADDED_BY_CLI = (
    "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
    "import vertalign.cli; print(*sorted(set(sys.modules) - before))"
)

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(vertalign.__path__, "vertalign.")
    if info.name != "vertalign.__main__"
)


def test_cli_import_loads_only_stdlib_and_own_modules():
    src = str(Path(vertalign.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _ADDED_BY_CLI, src], capture_output=True, text=True, check=True
    )
    added = result.stdout.split()
    assert "vertalign.cli" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names | {"vertalign"}
    ]
    assert foreign == []
    # dataclasses pulls in inspect, and with it ast, dis and tokenize.
    assert "dataclasses" not in added
    assert "inspect" not in added


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
