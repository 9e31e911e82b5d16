"""Per-layer tracing from outside the package: wrappers at every import site.

Modules import their helpers by name (``from .combinatorics import
binomial``), so replacing ``combinatorics.binomial`` alone would miss the
copies bound in ``alignment``, ``curves`` and ``lockwood``.  ``install``
therefore replaces the function in every ``vertalign`` module that binds
it, and patches methods on their class; ``uninstall`` puts every original
back.  Process pools pickle functions by name, so uninstall before any
``--workers`` request.

Every wrapped call updates, for its request, a count and a self time per
function (its duration minus the time of the wrapped calls directly inside
it) and an outermost-call time per group (the function itself, its layer
and, for rendering, ``curves.render``), so that a call nested in another
call of the same group is not counted twice.  Calls at layer boundaries
also record a span (name, start, end, parent, request id); hot inner calls
(ring operations, binomials, Lucas coefficients) are only aggregated, which
keeps memory bounded.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = ["combinatorics", "alignment", "lockwood", "cyclotomic", "quotient_ring", "curves", "cli"]

# (module, class or None, attribute, key, hot, extra groups)
TARGETS = [
    ("combinatorics", None, "binomial", "combinatorics.binomial", True, ()),
    ("combinatorics", None, "lucas_coeff", "combinatorics.lucas_coeff", True, ()),
    ("combinatorics", None, "pascal_row", "combinatorics.pascal_row", True, ()),
    ("combinatorics", None, "lucas_row", "combinatorics.lucas_row", False, ()),
    ("alignment", None, "aligned_entries", "alignment.aligned_entries", False, ()),
    ("alignment", None, "identity_sum", "alignment.identity_sum", False, ()),
    ("alignment", None, "identity_sweep", "alignment.identity_sweep", False, ()),
    ("lockwood", None, "verify_lockwood", "lockwood.verify_lockwood", False, ()),
    ("lockwood", None, "lockwood_rhs", "lockwood.lockwood_rhs", False, ()),
    ("lockwood", "BivariatePolynomial", "__mul__", "lockwood.poly_mul", True, ()),
    ("lockwood", "BivariatePolynomial", "__rmul__", "lockwood.poly_mul", True, ()),
    ("cyclotomic", None, "cyclotomic", "cyclotomic.cyclotomic", False, ()),
    ("quotient_ring", None, "make_ring", "quotient_ring.make_ring", False, ()),
    ("quotient_ring", "QuotientRingElement", "__mul__", "quotient_ring.mul", True, ()),
    ("quotient_ring", "QuotientRingElement", "__rmul__", "quotient_ring.mul", True, ()),
    ("quotient_ring", "QuotientRingElement", "__add__", "quotient_ring.add", True, ()),
    ("quotient_ring", "QuotientRingElement", "entries", "quotient_ring.entries", True, ()),
    ("quotient_ring", "QuotientRingElement", "to_text", "quotient_ring.to_text", True, ()),
    ("curves", None, "build_source", "curves.build_source", False, ()),
    ("curves", None, "build_target", "curves.build_target", False, ()),
    ("curves", None, "pullback_rhs", "curves.pullback_rhs", False, ()),
    ("curves", None, "verify_morphism", "curves.verify_morphism", False, ()),
    ("curves", None, "table_rows", "curves.table_rows", False, ()),
    ("curves", None, "table_text", "curves.table_text", False, ("curves.render",)),
    ("curves", "CurveEquation", "equation_text", "curves.equation_text", False, ("curves.render",)),
    ("curves", "RingPolynomial", "to_text", "curves.poly_to_text", False, ("curves.render",)),
]

# Return-value counters: key -> (counter name, how to read the count).
RESULT_COUNTERS = {"alignment.identity_sweep": ("alignment.pairs_checked", lambda r: r.pairs_checked)}

_MARK = "_bench_trace_wrapper"
MODULES = ["vertalign"] + [f"vertalign.{name}" for name in LAYERS]


def installed() -> list[str]:
    """Names of benchmark wrappers currently bound anywhere in the package."""
    found = []
    for mod in map(importlib.import_module, MODULES):
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                if getattr(value, _MARK, False):
                    found.append(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """Wrappers, their bookkeeping, and the per-request records they fill."""

    def __init__(self):
        self.requests: list[dict] = []
        self.spans: list[list] = []
        self.min_self = 0.0
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._current: dict | None = None
        self._t0 = 0.0
        self._restore: list[tuple] = []
        self._next_span = 0

    # -- requests ---------------------------------------------------------

    def begin(self, request_id: int, argv: list[str]) -> None:
        self._current = {"id": request_id, "argv": argv, "calls": {}, "self": {}, "outer": {},
                         "counters": {}}
        self._stack.append([0.0, self._new_span()])
        self._t0 = perf_counter()

    def end(self, stdout_bytes: int) -> None:
        t1 = perf_counter()
        child, span_id = self._stack.pop()
        request = self._current
        duration = t1 - self._t0
        request["duration"] = duration
        request["self"]["cli.request"] = duration - child
        request["counters"]["cli.stdout_bytes"] = stdout_bytes
        self.spans.append([request["id"], span_id, None, "cli.request", self._t0, t1, duration - child])
        self.requests.append(request)
        self._current = None

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, key: str, hot: bool, groups: tuple):
        stack, depth, spans = self._stack, self._depth, self.spans
        groups = (key, key.split(".")[0]) + groups
        counter = RESULT_COUNTERS.get(key)
        for group in groups:
            depth.setdefault(group, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1] if hot else self._new_span()]
            for group in groups:
                depth[group] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                parent[0] += duration
                own = duration - frame[0]
                request = self._current
                calls, selfs, outer = request["calls"], request["self"], request["outer"]
                calls[key] = calls.get(key, 0) + 1
                selfs[key] = selfs.get(key, 0.0) + own
                for group in groups:
                    depth[group] -= 1
                    if not depth[group]:
                        outer[group] = outer.get(group, 0.0) + duration
                if own < self.min_self:
                    self.min_self = own
                if not hot:
                    spans.append([request["id"], frame[1], parent[1], key, t0, t1, own])
            if counter is not None:
                name, read = counter
                request["counters"][name] = request["counters"].get(name, 0) + read(result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, class_name, attr, key, hot, groups in TARGETS:
            home = importlib.import_module(f"vertalign.{module_name}")
            if class_name is not None:
                owner = getattr(home, class_name)
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, key, hot, groups))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, key, hot, groups)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Counts, self times, outermost group times and counters, summed over requests."""
        out = {"calls": {}, "self": {}, "outer": {}, "counters": {}, "duration": 0.0}
        for request in self.requests:
            out["duration"] += request["duration"]
            for part in ("calls", "self", "outer", "counters"):
                for name, value in request[part].items():
                    out[part][name] = out[part].get(name, 0) + value
        return out
