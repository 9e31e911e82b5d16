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
* per workload and tree, each end-to-end metric's median, minimum and
  interquartile range and its values in run order, and whether
  ``correct`` held on every run;
* both trees' at-scale verdicts and seconds per check;
* both trees' ``all`` line of the output digest.

It starts no process pool and sends no request of its own: it runs only
what the two trees' harnesses run.  It needs only the standard library and
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
        "settings": {"seed": SEED, "seconds": seconds, "pairs": PAIRS, "trace": 0},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        unpack(args.parent, trees["parent"])
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
