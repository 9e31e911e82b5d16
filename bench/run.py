"""The vertalign benchmark: time to a correct verdict on seeded CLI traffic.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {morphism,sweep,pointwise} --seed N \
        --seconds S --trace {0,1}

Every request goes in-process through ``vertalign.cli.main(argv)`` with
stdout captured, from one client in a closed loop, inside a fresh child
interpreter per job (see client.py).  Every verdict is checked against an
independent reference (checker.py); a request fails on a nonzero exit, an
exception, or an output the checker rejects.

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` prints the per-layer metrics of a separate traced
run: one untraced pass, then two traced passes in two fresh children whose
counts must agree exactly, then the parallel re-issue.  The last line of
stdout is the JSON result; the lines before it are a readable report.
Spans of a traced run are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibration import REFERENCE_S, reference  # noqa: E402
from checker import Checker  # noqa: E402
from tracer import LAYERS  # noqa: E402

RUN_LIMIT_S = 170
DEADLINE = perf_counter() + RUN_LIMIT_S
SETUP_PROBES = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from vertalign.cli import main; sys.exit(main(['identity', '11', '3']))"
)
# Counts that must repeat exactly across the two traced runs.
EXACT_COUNTS = [
    "quotient_ring.mul_calls", "quotient_ring.add_calls", "combinatorics.binomial_calls",
    "combinatorics.lucas_coeff_calls", "lockwood.poly_mul_calls", "cli.stdout_bytes",
    "alignment.pairs_checked",
]
UNITS = {"_calls": "count", "_bytes": "bytes", "_checked": "count", "_s": "s", "_per_s": "1/s",
         "_ratio": "share", "_speedup": "ratio", "_per_verdict": "count", "_mb": "MB",
         "_ms": "ms", "_share": "share"}


def unit_of(name: str) -> str:
    suffix = max((s for s in UNITS if name.endswith(s)), key=len)
    return UNITS[suffix]


class BenchError(Exception):
    """The benchmark could not run to a result."""


def run_child(job: dict) -> dict:
    """Run client.py in a fresh interpreter and return its JSON result.

    The child gets its own process group, so that on timeout its process
    pool goes down with it.
    """
    timeout = DEADLINE - perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "client.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(job), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{job['mode']} child ran past the {RUN_LIMIT_S} s limit of a run")
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} child exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout)


def measure_setup(golden: bytes) -> tuple[float, float, int]:
    """Fresh interpreters: median calibrated wall of import + `identity 11 3`,
    median wall of a bare start, and the number of wrong answers."""
    answered, bare, failed = [], [], 0
    for _ in range(SETUP_PROBES):
        before = reference()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                              capture_output=True, timeout=60, cwd=ROOT)
        elapsed = perf_counter() - t0
        answered.append(elapsed * REFERENCE_S / statistics.mean([before, reference()]))
        failed += proc.returncode != 0 or proc.stdout != golden
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, cwd=ROOT)
        bare.append(perf_counter() - t0)
    return statistics.median(answered), statistics.median(bare), failed


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least ten samples above it."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(args, stream: list[list[str]], report: dict) -> dict:
    golden = (ROOT / "tests" / "golden" / "identity_11_3.txt").read_bytes()
    setup_s, bare_s, setup_failed = measure_setup(golden)
    child = run_child({"mode": "e2e", "stream": stream, "seconds": args.seconds})
    if child["wrappers_during_run"]:
        raise BenchError(f"wrappers installed during the untraced run: {child['wrappers_during_run']}")
    times = child["times"]
    tail_value, tail_pct = tail(times)
    attempted = child["attempted"] + SETUP_PROBES
    failed = len(child["failures"]) + setup_failed
    report.update({
        "passes": child["passes"], "samples": len(times), "tail_percentile": tail_pct,
        "bare_interpreter_s": bare_s, "failures": child["failures"][:5],
        "raw_wall_s": sum(child["raw_times"]),
    })
    metrics = {
        "wall_s": sum(times),
        "verdict_p50_ms": 1000 * statistics.median(times),
        "verdict_tail_ms": 1000 * tail_value,
        "verdict_ok_share": 1 - failed / attempted,
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(traced: dict, stream: list[list[str]]) -> dict:
    t = traced["totals"]
    calls, selfs, outer, counters = t["calls"], t["self"], t["outer"], t["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ring_requests = sum(1 for argv in stream if {"curve", "verify-morphism"} & set(argv))
    hits, misses = traced["cache"]
    out = {
        "quotient_ring.mul_calls": calls.get("quotient_ring.mul", 0),
        "quotient_ring.mul_s": outer.get("quotient_ring.mul", 0.0),
        "quotient_ring.add_calls": calls.get("quotient_ring.add", 0),
        "quotient_ring.add_s": outer.get("quotient_ring.add", 0.0),
        "quotient_ring.entries_s": outer.get("quotient_ring.entries", 0.0),
        "quotient_ring.make_ring_s": outer.get("quotient_ring.make_ring", 0.0),
        "curves.pullback_s": outer.get("curves.pullback_rhs", 0.0),
        "curves.pullback_self_s": selfs.get("curves.pullback_rhs", 0.0),
        "curves.ring_mul_per_verdict": ratio(calls.get("quotient_ring.mul", 0), ring_requests),
        "curves.render_s": outer.get("curves.render", 0.0),
        "curves.build_target_s": outer.get("curves.build_target", 0.0),
        "combinatorics.busy_s": outer.get("combinatorics", 0.0),
        "combinatorics.binomial_calls": calls.get("combinatorics.binomial", 0),
        "combinatorics.lucas_coeff_calls": calls.get("combinatorics.lucas_coeff", 0),
        "alignment.identity_sum_s": outer.get("alignment.identity_sum", 0.0),
        "alignment.sweep_self_s": selfs.get("alignment.identity_sweep", 0.0),
        "alignment.pairs_checked": counters.get("alignment.pairs_checked", 0),
        "alignment.pairs_per_s": ratio(counters.get("alignment.pairs_checked", 0),
                                       outer.get("alignment.identity_sweep", 0.0)),
        "lockwood.busy_s": outer.get("lockwood", 0.0),
        "lockwood.poly_mul_calls": calls.get("lockwood.poly_mul", 0),
        "lockwood.n_per_s": ratio(calls.get("lockwood.verify_lockwood", 0), outer.get("lockwood", 0.0)),
        "cyclotomic.busy_s": outer.get("cyclotomic", 0.0),
        "cyclotomic.cache_hit_ratio": ratio(hits, hits + misses),
        "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    return out


def integrity(traced: dict) -> list[str]:
    """Self times are non-negative and add up to the traced request time."""
    problems = []
    if traced["min_self"] < -1e-9:
        problems.append(f"negative self time {traced['min_self']}")
    total_self = sum(traced["totals"]["self"].values())
    duration = traced["totals"]["duration"]
    if abs(total_self - duration) > 1e-6 * max(duration, 1.0):
        problems.append(f"self times sum to {total_self}, requests took {duration}")
    if traced["wrappers_after_uninstall"]:
        problems.append(f"wrappers left after uninstall: {traced['wrappers_after_uninstall']}")
    return problems


def per_layer(args, stream: list[list[str]], report: dict) -> dict:
    untraced = run_child({"mode": "e2e", "stream": stream, "seconds": 0})
    if untraced["wrappers_during_run"]:
        raise BenchError(f"wrappers installed during the untraced run: {untraced['wrappers_during_run']}")
    sweep_stream = workloads.generate("sweep", args.seed)
    largest = [max((argv for argv in sweep_stream if command in argv), key=lambda a: int(a[-3]))
               for command in ("sweep", "lockwood")]
    runs = [run_child({"mode": "traced", "stream": stream}),
            run_child({"mode": "traced", "stream": stream, "parallel": largest})]
    layers = [layer_metrics(r["traced"], stream) for r in runs]
    problems = [p for r in runs for p in integrity(r["traced"])]
    for name in EXACT_COUNTS:
        if layers[0][name] != layers[1][name]:
            problems.append(f"{name} differs between traced runs: {layers[0][name]} vs {layers[1][name]}")
    parallel = runs[1]["parallel"]
    if parallel["wrappers_during_run"]:
        problems.append(f"wrappers installed during the parallel run: {parallel['wrappers_during_run']}")

    metrics = {name: a if a == b else (a + b) / 2
               for (name, a), b in zip(layers[0].items(), layers[1].values())}
    untraced_wall = sum(untraced["raw_times"])
    traced_wall = statistics.mean(sum(r["traced"]["times"]) for r in runs)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    for layer, pair in zip(("alignment", "lockwood"), parallel["pairs"]):
        metrics[f"{layer}.parallel_speedup"] = pair["serial_s"] / pair["parallel_s"]

    failures = untraced["failures"] + [f for r in runs for f in r["failures"]]
    attempted = untraced["attempted"] + sum(r["attempted"] for r in runs)
    report.update({"problems": problems, "parallel": parallel, "failures": failures[:5]})
    write_spans(args, runs[0]["traced"]["spans"])
    return {"attempted": attempted, "failed": len(failures), "problems": problems, "metrics": metrics}


def write_spans(args, spans: list[list]) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    fields = ["request", "span", "parent", "name", "start", "end", "self_s"]
    path = out_dir / f"spans_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({"fields": fields, "spans": spans}))


def print_report(args, stream: list[list[str]], report: dict, result: dict) -> None:
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, {len(stream)} requests per pass, stream digest {workloads.digest(stream)}")
    if args.trace:
        print(f"parallel re-issue at --workers {report['parallel']['workers']}: "
              + "; ".join(f"{' '.join(p['argv'])}: {p['serial_s']:.3f} s -> {p['parallel_s']:.3f} s"
                          for p in report["parallel"]["pairs"]))
        m = {name: entry["value"] for name, entry in result["metrics"].items()}
        print(f"quotient_ring.mul_s + curves.pullback_self_s = "
              f"{m['quotient_ring.mul_s'] + m['curves.pullback_self_s']:.4f} s "
              f"(pullback_rhs in all {m['curves.pullback_s']:.4f} s) "
              f"beside untraced wall_s {m['trace.untraced_wall_s']:.4f} s")
        for problem in report["problems"]:
            print(f"TRACE PROBLEM: {problem}")
    else:
        print(f"{report['passes']} passes; per-request time = median over passes of calibrated "
              f"seconds; tail = p{report['tail_percentile']:.1f} of {report['samples']} requests")
        print(f"uncalibrated wall {report['raw_wall_s']:.4f} s; "
              f"bare interpreter start {report['bare_interpreter_s']:.4f} s beside setup_s")
    for failure in report["failures"]:
        print(f"FAILED: {' '.join(failure['argv'])}: {failure['reason']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vertalign").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no vertalign sources or golden files under {ROOT}", file=sys.stderr)
        return 2
    wrong = Checker(ROOT / "tests" / "golden").self_test()
    if wrong:
        print(f"error: checker self-test accepted bad verdicts: {wrong}", file=sys.stderr)
        return 2

    stream = workloads.generate(args.workload, args.seed)
    report: dict = {}
    try:
        result = (per_layer if args.trace else end_to_end)(args, stream, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                         for name, value in result["metrics"].items()}
    print_report(args, stream, report, result)
    correct = result["failed"] == 0 and not result.get("problems")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
