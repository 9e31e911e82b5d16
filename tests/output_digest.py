"""One SHA-256 per CLI request, and one over the set, for the tree at ROOT.

    python tests/output_digest.py ROOT

Imports ``ROOT/src/vertalign`` and runs, in this one process with
``COLUMNS=80``, the nine golden requests, the ``morphism`` and ``pointwise``
passes of seeds 1-5 (read from ``bench/workloads.py`` beside this file, so
every tree answers the same requests), every command
in all three formats, the usage errors, ``-h`` and each ``<command> -h``,
then three faulted morphisms and four faulted targets in all three
formats, so the bytes written from a faulted row are pinned as well, and
last, after the line over the set, faulted sweeps and oracle runs in all
three formats.  Each request's stdout, stderr and exit code are hashed
together.  Two trees whose outputs agree byte for byte print the same
lines, so a change meant to leave the output alone can be checked with

    python tests/output_digest.py . > change.txt
    python tests/output_digest.py ../parent > parent.txt
    diff parent.txt change.txt

It needs only the standard library, so it runs on every interpreter a
machine has, with or without pytest.  One tree must answer byte for byte
alike on every Python the package admits (3.10 on); to check that, run it
once per interpreter and diff each digest against the first:

    for python in python3.10 python3.11 python3.12 python3.13; do
        "$python" tests/output_digest.py . > "digest-$python.txt"
        diff digest-python3.10.txt "digest-$python.txt" && echo "$python: same"
    done

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import sys
from pathlib import Path

COMMANDS = ["triangle", "aligned", "identity", "sweep", "lucas-row", "lockwood",
            "curve", "verify-morphism", "table"]

# Every command, with the sizes and kinds of c that switch its rendering.
EVERY_COMMAND = [
    ["triangle", "6"], ["triangle", "25"],
    ["aligned", "12", "6"], ["aligned", "9", "0"],
    ["identity", "11", "3"], ["identity", "40", "13"],
    ["sweep", "30"],
    ["lucas-row", "11"], ["lucas-row", "60"],
    ["lockwood", "20"],
    ["curve", "--", "7", "3", "1"], ["curve", "--", "6", "1", "0"],
    ["curve", "--", "5", "-7/11", "1"], ["curve", "--", "4", "3.5e2", "0"],
    ["verify-morphism", "--", "6", "1", "0"], ["verify-morphism", "--", "7", "3/5", "1"],
    ["verify-morphism", "--", "12", "-1", "1"], ["verify-morphism", "--", "1", "9999/10", "0"],
    ["table", "5", "11"], ["table", "1", "3"],
    ["verify-morphism", "4", "-7/11", "1"],
]

USAGE_ERRORS = [
    [], ["bogus"], ["identity"], ["identity", "x", "1"], ["identity", "11", "11"],
    ["identity", "1", "0"], ["aligned", "5", "6"], ["triangle", "-1"], ["sweep", "1"],
    ["lockwood", "0"], ["table", "3", "2"], ["table", "0", "2"], ["lucas-row", "-1"],
    ["--format", "xml", "triangle", "3"], ["--workers", "0", "sweep", "5"],
    ["sweep", "5", "--workers", "x"], ["curve", "--", "0", "1", "0"],
    ["curve", "--", "3", "0", "0"], ["curve", "--", "3", "1", "2"],
    ["curve", "--", "3", "1/0", "0"], ["curve", "--", "3", "abc", "0"],
    ["curve", "--", "1", "--", "0"], ["verify-morphism", "--", "3", "2", "-1"],
    ["lucas-row", "9" * 5000],
]


# Morphisms answered with delta added to T(n, k), for (n, k, delta), where
# ``curves`` reads T: by ``curves.lucas_row``, a name every tree binds.
# Their weights fall below, at and past ceil(g/2), and some are negative.
FAULTED_MORPHISMS = [
    ((n, k, delta), ["--format", fmt, "verify-morphism", "--", str(n), "-7/11", "1"])
    for n, k, delta in ((9, 2, 1), (9, 1, 1), (13, 6, -2))
    for fmt in ("text", "json", "csv")
]

# Targets written from T(9, 2) + 1 and from T(9, 2) - 27, which zeroes the
# entry, so its term is skipped; at c = 1 the equation reads u as 1.
# ``curve`` reads T by ``cli.lucas_row``, so the fault is patched there.
FAULTED_CURVES = [
    ((9, 2, delta), ["--format", fmt, "curve", "--", "9", c, "1"])
    for delta in (1, -27)
    for c in ("-7/11", "1")
    for fmt in ("text", "json", "csv")
]

# Sweeps and oracle runs answered with delta added to T(n, k), at both
# parities of n: ``fault_sweep`` patches ``alignment``, where the sweep reads
# T, and ``fault_lucas_row`` patches ``lockwood``.  They follow the line over
# the set, so the lines up to it read as they did before these were added.
FAULTED_SWEEPS = [
    (fault, ["--format", fmt, "sweep", "12"])
    for fault in ((9, 2, 1), (12, 6, -2))
    for fmt in ("text", "json", "csv")
]
FAULTED_ORACLES = [
    (fault, ["--format", fmt, "lockwood", "20"])
    for fault in ((17, 3, 5), (20, 10, -1))
    for fmt in ("text", "json", "csv")
]


class _Patcher:
    """The ``setattr`` that ``tests/_faults.py`` patches through, undone by
    ``undo`` or on leaving a ``with`` block, last patch first."""

    def __init__(self):
        self.saved = []

    def setattr(self, owner, name, value):
        self.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self.saved:
            setattr(*self.saved.pop())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def load_bench(name: str):
    """``bench/<name>.py`` of this tree, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def requests() -> list[list[str]]:
    workloads = load_bench("workloads")
    out = [list(argv) for argv, _ in workloads.GOLDEN]
    for seed in range(1, 6):
        out += workloads.generate("morphism", seed) + workloads.generate("pointwise", seed)
    out += [["--format", fmt, *argv] for argv in EVERY_COMMAND for fmt in ("text", "json", "csv")]
    out += USAGE_ERRORS + [["-h"]] + [[command, "-h"] for command in COMMANDS]
    return out


def run(main, argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded without a traceback, whose paths name ROOT
            code = f"exception {type(exc).__name__}: {exc}"
    return json.dumps([code, out.getvalue(), err.getvalue()]).encode()


def help_and_usage(main) -> str:
    """The text of ``tests/golden/help.txt``: argv, exit code, stdout and
    stderr of ``-h``, each ``<command> -h`` and every usage error.  Run it
    with ``COLUMNS=80``; to write the file from the tree at ROOT,

        COLUMNS=80 python -c 'import sys; sys.path[:0] = ["ROOT/src", "ROOT/tests"]; from output_digest import help_and_usage; from vertalign.cli import main; sys.stdout.write(help_and_usage(main))' > ROOT/tests/golden/help.txt
    """
    parts = []
    for argv in [["-h"], *([command, "-h"] for command in COMMANDS), *USAGE_ERRORS]:
        code, out, err = json.loads(run(main, argv))
        parts.append(f"$ vertalign {shlex.join(argv)}\nexit {code}\n")
        parts += [f"--- {name}\n{text}" for name, text in (("stdout", out), ("stderr", err)) if text]
    return "".join(parts)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/output_digest.py ROOT", file=sys.stderr)
        return 2
    root = Path(sys.argv[1]).resolve()
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(root / "src"))
    from vertalign.cli import main as cli_main

    from _faults import fault_lucas_row, fault_sweep
    from vertalign import cli, curves, lockwood

    whole = hashlib.sha256()

    def record(label, output):
        digest = hashlib.sha256(output).hexdigest()
        whole.update(f"{digest} {json.dumps(label)}\n".encode())
        print(digest, json.dumps(label)[:100])

    def record_faulted(fault, argv, patch, *modules):
        n, k, delta = fault
        with _Patcher() as patcher:
            patch(patcher, *modules, fault)
            record([f"T({n},{k}){delta:+}", *argv], run(cli_main, argv))

    for argv in requests():
        record(argv, run(cli_main, argv))
    for module, faulted in ((curves, FAULTED_MORPHISMS), (cli, FAULTED_CURVES)):
        for fault, argv in faulted:
            record_faulted(fault, argv, fault_lucas_row, module)
    print(whole.hexdigest(), "all")
    for fault, argv in FAULTED_SWEEPS:
        record_faulted(fault, argv, fault_sweep)
    for fault, argv in FAULTED_ORACLES:
        record_faulted(fault, argv, fault_lucas_row, lockwood)
    return 0


if __name__ == "__main__":
    sys.exit(main())
