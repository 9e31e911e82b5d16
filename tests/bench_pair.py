"""A before/after record of the benchmark: this checkout against a parent.

    python tests/bench_pair.py --parent REV --label NAME

unpacks revision REV with ``git archive REV | tar -x`` into a temporary
directory and runs, for each workload that this checkout's
``BENCHMARK.json`` lists, each tree's own ``bench/run.py --trace 0`` at
seed 7 and the run length ``BENCHMARK.json`` sets, in 10 pairs that
alternate which tree runs first: enough pairs to back a claimed gain.
A run that exits non-zero or overruns its time is recorded as failed.
Then it runs each tree's ``tests/at_scale.py`` and
``tests/output_digest.py .`` once.  It writes ``BENCH_<NAME>.json`` at the
root of this checkout with:

* both revisions (this checkout's HEAD, and whether its tracked files
  differ from HEAD), the Python version and the CPU count;
* under ``settings``, besides the run's own, whether the interpreter
  writes no bytecode (``sys.flags.dont_write_bytecode``);
* per tree, what start-up loads: the ``-X importtime`` cumulative
  microseconds of each ``vertalign`` module and of ``argparse``,
  ``fractions`` and ``json`` that ``from vertalign.cli import main`` loads,
  the median of 5 fresh interpreters, before any benchmark run;
* per workload and tree, each end-to-end metric's median, minimum and
  interquartile range and its values in run order, and whether
  ``correct`` held on every run;
* both trees' at-scale verdicts and seconds per check;
* both trees' ``all`` line of the output digest.

It refuses to run, with exit 2 and the paths named, while this checkout
holds a ``__pycache__`` under ``src/`` that the freshly unpacked parent
lacks: cached bytecode spares its tree the compile that the parent pays at
every start, which once read as a fall in ``setup_s`` of a fifth.

It starts no process pool and sends no request of its own: it runs only
what the two trees' harnesses run, and the bare import above.  It needs only the standard library and
git.  pytest does not collect this script: its name does not match
``test_*.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
PAIRS = 10
IMPORT_RUNS = 5
# Stdlib modules whose import time is recorded beside the package's own.
IMPORT_NAMES = ("argparse", "fractions", "json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """The files of ``rev`` under ``into``, by ``git archive | tar -x``."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run(tree: Path, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """``python ARGS`` in ``tree``, importing that tree's ``src``.  A run
    that overruns ``timeout`` is killed and reads as exit -9 with empty
    stdout and stderr ``timeout``, so it is recorded, not raised."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, *args]
    try:
        return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(command, -9, "", "timeout")


def stray_caches(change: Path, parent: Path) -> list[str]:
    """Each ``__pycache__`` under ``change/src`` that ``parent`` lacks, as a
    path relative to ``change``."""
    return sorted(
        str(path.relative_to(change)) for path in (change / "src").rglob("__pycache__")
        if not (parent / path.relative_to(change)).exists()
    )


def import_times(tree: Path) -> dict:
    """The median over ``IMPORT_RUNS`` fresh interpreters of the cumulative
    ``-X importtime`` microseconds of each ``vertalign`` module, and of each
    of ``IMPORT_NAMES``, that ``from vertalign.cli import main`` loads."""
    runs = {}
    for _ in range(IMPORT_RUNS):
        proc = run(tree, "-X", "importtime", "-c", "from vertalign.cli import main", timeout=60)
        # Each line reads "import time: SELF | CUMULATIVE | NAME", NAME
        # indented by its depth; the header's fields are words.
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].strip()
            if name.partition(".")[0] == "vertalign" or name in IMPORT_NAMES:
                runs.setdefault(name, []).append(int(fields[1]))
    return {name: statistics.median(values) for name, values in sorted(runs.items())}


def bench(tree: Path, workload: str, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run, or its failure."""
    proc = run(tree, "bench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0", timeout=seconds + 300)
    if proc.returncode:
        return {"correct": False, "error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def summary(runs: list[dict], metrics: list[str]) -> dict:
    """Median, minimum, IQR and values of each metric over ``runs``."""
    out = {"runs": len(runs), "correct": all(r.get("correct") is True for r in runs),
           "metrics": {}}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        if len(values) < 2:  # no quartiles from fewer than two runs
            continue
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["metrics"][name] = {"median": statistics.median(values), "min": min(values),
                                "iqr": q3 - q1, "values": values}
    errors = [r["error"] for r in runs if "error" in r]
    if errors:
        out["errors"] = errors
    return out


def at_scale(tree: Path) -> dict:
    """The exit code and ``{check: [verdict, seconds]}`` of one run of the
    tree's at-scale checks."""
    proc = run(tree, "tests/at_scale.py", timeout=1200)
    checks = {}
    for line in proc.stdout.splitlines():
        name, verdict, seconds = line.split()
        checks[name] = [verdict, float(seconds)]
    return {"exit": proc.returncode, "checks": checks}


def digest(tree: Path) -> str:
    """The ``all`` line of the tree's output digest."""
    lines = run(tree, "tests/output_digest.py", ".", timeout=600).stdout.splitlines()
    return next((line for line in lines if line.endswith(" all")), "missing")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]
    record = {
        "revisions": {
            "parent": git("rev-parse", args.parent),
            "change": git("rev-parse", "HEAD"),
            "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
        },
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "settings": {"seed": SEED, "seconds": seconds, "pairs": PAIRS, "trace": 0,
                     "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        unpack(args.parent, trees["parent"])
        stray = stray_caches(ROOT, trees["parent"])
        if stray:
            print("bench_pair: remove the bytecode caches that the parent's fresh tree lacks: "
                  + " ".join(str(ROOT / path) for path in stray), file=sys.stderr)
            return 2
        record["import_us"] = {side: import_times(tree) for side, tree in trees.items()}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(bench(trees[side], workload, seconds))
                    print(workload, pair, side, runs[side][-1].get("correct"), flush=True)
            record["workloads"][workload] = {
                "first_in_pair": ["parent" if pair % 2 == 0 else "change" for pair in range(PAIRS)],
                **{side: summary(side_runs, metrics) for side, side_runs in runs.items()},
            }
        record["at_scale"] = {side: at_scale(tree) for side, tree in trees.items()}
        record["output_digest"] = {side: digest(tree) for side, tree in trees.items()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
