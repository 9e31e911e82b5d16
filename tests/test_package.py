"""Package hygiene: what ``import vertalign.cli`` and a request load, and
what ``__all__`` names.

Every process start pays for the CLI's imports, so they stay within the
standard library and avoid its heavier modules.  ``cli`` imports only the
Pascal-triangle layers (``combinatorics``, ``alignment``) up front; each
handler imports the layers it runs, so a request never loads the ring, the
oracle, ``fractions`` or ``json`` unless it runs them.  ``tests/at_scale.py``'s
``route-modules`` checks every command and format that way; here the
import itself and the benchmark's start-up request are checked.  A stale
``__all__`` entry would only surface as an error from ``from ... import *``.
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

# The same, for the benchmark's start-up request, with its answer discarded.
_ADDED_BY_IDENTITY = (
    "import contextlib, io, sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
    "from vertalign.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()): code = main(['identity', '11', '3'])\n"
    "print(code, *sorted(set(sys.modules) - before))"
)

# Layers a Pascal-triangle request never runs, and the stdlib modules only
# they load: the ring and the curves, the oracle, and JSON output.
_NOT_AT_IMPORT = {
    "decimal",
    "fractions",
    "json",
    "numbers",
    "vertalign.curves",
    "vertalign.cyclotomic",
    "vertalign.lockwood",
    "vertalign.quotient_ring",
}

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(vertalign.__path__, "vertalign.")
    if info.name != "vertalign.__main__"
)


def _added(script: str) -> list[str]:
    """What ``script`` prints in a fresh interpreter that imports this tree."""
    src = str(Path(vertalign.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, src], capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_cli_import_loads_only_stdlib_and_own_modules():
    added = _added(_ADDED_BY_CLI)
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


def test_cli_import_loads_no_layer_a_request_may_not_run():
    assert sorted(_NOT_AT_IMPORT.intersection(_added(_ADDED_BY_CLI))) == []


def test_identity_request_loads_only_the_pascal_layers():
    code, *added = _added(_ADDED_BY_IDENTITY)
    assert code == "0"
    assert sorted(name for name in added if name.partition(".")[0] == "vertalign") == [
        "vertalign",
        "vertalign.alignment",
        "vertalign.cli",
        "vertalign.combinatorics",
    ]
    assert sorted(_NOT_AT_IMPORT.intersection(added)) == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
