"""One benchmark child process: replays a request stream through cli.main.

Run by ``run.py`` in a fresh interpreter per job, so that the cyclotomic
cache and the resident-memory high-water mark of one job never leak into
another.  The job arrives as JSON on stdin; the result leaves as one JSON
object on stdout.  Modes:

``e2e``       replay the pass untraced, again and again while another pass
              still fits in ``seconds`` (at least once), and keep each
              request's median time over the passes.
``traced``    replay the pass once with the tracer installed, then remove it.
``parallel``  after ``traced``: re-issue the given requests at --workers 1
              and at --workers W, W = min(2, os.cpu_count()).

A single client runs a closed loop: it sends the next request only after
the previous verdict, and checks each verdict outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from calibration import CALIBRATION_WINDOW, REFERENCE_S, reference  # noqa: E402
from checker import Checker  # noqa: E402
import tracer  # noqa: E402
from vertalign import cli  # noqa: E402
from vertalign.cyclotomic import cyclotomic  # noqa: E402


def issue(argv: list[str]) -> tuple[float, object, str, str]:
    """Send one request in-process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed request, not a benchmark crash
            code = "exception"
            traceback.print_exc()
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


class Client:
    def __init__(self):
        self.checker = Checker(ROOT / "tests" / "golden")
        self.attempted = 0
        self.failures: list[dict] = []

    def judge(self, argv: list[str], code, out: str, err: str) -> None:
        self.attempted += 1
        reason = self.checker.check(argv, code, out)
        if reason is not None:
            self.failures.append({"argv": argv, "reason": reason, "stderr": err[-400:]})

    def one_pass(self, stream: list[list[str]], trace: tracer.Tracer | None = None) -> list[tuple[float, float]]:
        """Send every request once; (seconds, calibrated seconds) per request.

        A request's speed reference is the median of the reference runs
        within CALIBRATION_WINDOW positions of it, which ignores a single
        reference run hit by an interrupt.
        """
        elapsed_s, refs = [], [reference()]
        for request_id, argv in enumerate(stream):
            if trace is not None:
                trace.begin(request_id, argv)
            elapsed, code, out, err = issue(argv)
            if trace is not None:
                trace.end(len(out.encode()))
            refs.append(reference())
            elapsed_s.append(elapsed)
            self.judge(argv, code, out, err)
        w = CALIBRATION_WINDOW
        return [
            (t, t * REFERENCE_S / statistics.median(refs[max(0, j + 1 - w):j + 1 + w]))
            for j, t in enumerate(elapsed_s)
        ]

    def e2e(self, stream: list[list[str]], seconds: float) -> dict:
        wrapped = tracer.installed()
        per_request: list[list[tuple[float, float]]] = [[] for _ in stream]
        walls = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            for samples, timed in zip(per_request, self.one_pass(stream)):
                samples.append(timed)
            walls.append(perf_counter() - t0)
            if perf_counter() - start + statistics.mean(walls) > seconds:
                break
        return {
            "raw_times": [statistics.median(t for t, _ in s) for s in per_request],
            "times": [statistics.median(c for _, c in s) for s in per_request],
            "passes": len(walls),
            "wrappers_during_run": wrapped + tracer.installed(),
        }

    def traced(self, stream: list[list[str]]) -> dict:
        before = cyclotomic.cache_info()
        trace = tracer.Tracer()
        trace.install()
        try:
            times = [elapsed for elapsed, _ in self.one_pass(stream, trace)]
        finally:
            trace.uninstall()
        after = cyclotomic.cache_info()
        return {
            "times": times,
            "totals": trace.totals(),
            "min_self": trace.min_self,
            "cache": [after.hits - before.hits, after.misses - before.misses],
            "spans": trace.spans,
            "wrappers_after_uninstall": tracer.installed(),
        }

    def parallel(self, requests: list[list[str]]) -> dict:
        workers = min(2, os.cpu_count() or 1)
        out = {"workers": workers, "wrappers_during_run": tracer.installed(), "pairs": []}
        for argv in requests:
            at = argv.index("--workers") + 1
            timed = []
            for count in (1, workers):
                request = argv[:at] + [str(count)] + argv[at + 1:]
                elapsed, code, text, err = issue(request)
                self.judge(request, code, text, err)
                timed.append(elapsed)
            out["pairs"].append({"argv": argv, "serial_s": timed[0], "parallel_s": timed[1]})
        return out


def main() -> None:
    job = json.load(sys.stdin)
    client = Client()
    result = {}
    if job["mode"] == "e2e":
        result.update(client.e2e(job["stream"], job["seconds"]))
    else:
        result["traced"] = client.traced(job["stream"])
        if job.get("parallel"):
            result["parallel"] = client.parallel(job["parallel"])
    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
