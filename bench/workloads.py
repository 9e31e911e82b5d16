"""Seeded request streams for the three benchmark workloads.

Each workload is one list of CLI argv lists (a "pass").  The benchmark
replays the pass in a closed loop, one client, and never shows the seed to
the program: the program only receives the generated argv.

How the seed is used.  The cost of a request is set by its size arguments
(g, n, N, i), by its output format and, for the ring commands, by the
arithmetic of g (the ring has phi(g) * g basis slots, so g = 79 costs twice
g = 80), by whether c = 1 (rendering then substitutes u = 1) and by the
root index i.  If the seed drew these freely, the time of a pass would
measure the draw rather than the code: with g drawn uniformly from 1..80,
the time of a 40-request pass spreads by about 24% between seeds.  So
sizes follow fixed, evenly spaced spines, and the format, the kind of c
(1, small integer, or fraction) and i follow fixed patterns along them.
The seed draws what does not move the cost: the value and sign of each c
of its kind, a downward offset of at most 0.5% on sizes of 200 and more
(none on g, where one step can double the cost), and the order of the
pass.

Every ring request (curve, verify-morphism) passes ``--`` before its
positionals, because argparse reads a negative c such as ``-7/11`` as an
unknown flag otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WHY = {
    "morphism": "verify-morphism for g up to 80 with mixed rational c: "
    "quotient-ring multiplication inside pullback_rhs does nearly all the work",
    "sweep": "sweep N in 100..300 interleaved with lockwood N in 40..150: "
    "Pascal rows, signed sums and the bivariate expansion oracle; no ring is built",
    "pointwise": "one-shot identity/aligned/lucas-row/curve/table/triangle queries "
    "plus the golden requests: cold binomials, ring building and rendering",
}

# The nine requests whose exact output is committed under tests/golden/.
GOLDEN = [
    (["identity", "11", "3"], "identity_11_3.txt"),
    (["triangle", "12"], "triangle_12.txt"),
    (["aligned", "12", "6"], "aligned_12_6.txt"),
    (["table", "5", "11"], "table_5_11.txt"),
    (["verify-morphism", "--", "6", "1", "0"], "verify_morphism_6_1_0.txt"),
    (["lucas-row", "11"], "lucas_row_11.txt"),
    (["sweep", "12"], "sweep_12.txt"),
    (["curve", "--", "7", "3", "1"], "curve_7_3_1.txt"),
    (["--format", "csv", "identity", "12", "6"], "identity_12_6.csv"),
]

_ALL_FORMATS = ["text", "json", "csv"]
_MOSTLY_TEXT = ["text", "json", "text", "csv", "text"]
_C_KINDS = ["frac", "one", "frac", "int"]


def _sizes(rng: random.Random, lo: int, hi: int, count: int, power: float = 1.0) -> list[int]:
    """``count`` sizes on the spine lo + (hi - lo) * ((j + 1) / count) ** power.

    The top of the spine is ``hi``; ``power`` > 1 puts more requests at the
    small end.  Each size is lowered by a seeded offset of at most 0.5%.
    """
    out = []
    for j in range(count):
        value = round(lo + (hi - lo) * ((j + 1) / count) ** power)
        value -= rng.randrange(value // 200 + 1)
        out.append(max(lo, value))
    return out


def _ring_sizes(hi: int, count: int) -> list[int]:
    """``count`` values of g evenly spaced up to ``hi``, no offset."""
    return [math.ceil(hi * (j + 1) / count) for j in range(count)]


def _rational(rng: random.Random, kind: str) -> str:
    if kind == "one":
        return "1"
    sign = rng.choice(["", "-"])
    if kind == "int":
        return f"{sign}{rng.randint(2, 9)}"
    while True:
        p, q = rng.randint(10, 9999), rng.randint(10, 9999)
        if math.gcd(p, q) == 1:
            return f"{sign}{p}/{q}"


def _argv(fmt: str, *words) -> list[str]:
    head = [] if fmt == "text" else ["--format", fmt]
    return head + [str(w) for w in words]


def _ring_requests(rng: random.Random, command: str, gs: list[int], formats: list[str]) -> list[list[str]]:
    """Ring requests along ``gs``; format, c kind and i follow fixed patterns."""
    return [
        _argv(formats[j % len(formats)], command, "--", g,
              _rational(rng, _C_KINDS[j % len(_C_KINDS)]), j % 2)
        for j, g in enumerate(gs)
    ]


def morphism(rng: random.Random) -> list[list[str]]:
    """verify-morphism on a g spine of 24 values up to 80 and 16 values up to 20."""
    gs = _ring_sizes(80, 24) + _ring_sizes(20, 16)
    stream = _ring_requests(rng, "verify-morphism", gs, _MOSTLY_TEXT)
    rng.shuffle(stream)
    return stream


def sweep(rng: random.Random) -> list[list[str]]:
    """16 sweep and 16 lockwood requests, alternating, all at --workers 1.

    Sizes crowd the small end of each range (power 4), and the ranges stop
    at ``sweep 300`` and ``lockwood 150`` (about 1 s each on a 2-vCPU VM)
    so that three passes fit in a 30 s run even when the machine is slow;
    ``sweep 400`` alone takes 2.7 s.  The outputs are a few lines, so the
    format barely moves the cost.
    """
    sweeps = _sizes(rng, 100, 300, 16, power=4)
    lockwoods = _sizes(rng, 40, 150, 16, power=4)
    rng.shuffle(sweeps)
    rng.shuffle(lockwoods)
    stream = []
    for j, (n_sweep, n_lock) in enumerate(zip(sweeps, lockwoods)):
        stream.append(_argv(_ALL_FORMATS[j % 3], "sweep", n_sweep, "--workers", 1))
        stream.append(_argv(_ALL_FORMATS[(j + 1) % 3], "lockwood", n_lock, "--workers", 1))
    return stream


def pointwise(rng: random.Random) -> list[list[str]]:
    """One-shot queries of every kind, each size in all three formats, plus the golden nine."""
    fractions = [1 / 8, 5 / 8, 3 / 8, 7 / 8]
    queries = []
    for j, n in enumerate(_sizes(rng, 2, 1000, 8)):
        queries.append(["identity", n, min(n - 1, max(1, round(n * fractions[j % 4])))])
    for j, n in enumerate(_sizes(rng, 1, 1000, 6)):
        queries.append(["aligned", n, round(n * fractions[j % 4])])
    queries += [["lucas-row", n] for n in _sizes(rng, 1, 2000, 6)]
    spans = [None, 10, 40, None]
    for j, g_max in enumerate(_sizes(rng, 1, 120, 4)):
        queries.append(["table", 1 if spans[j] is None else g_max - spans[j], g_max])
    queries += [["triangle", n] for n in _sizes(rng, 0, 300, 4)]
    stream = [_argv(f, *words) for words in queries for f in _ALL_FORMATS]
    curve_gs = [g for g in _ring_sizes(120, 7) for _ in _ALL_FORMATS]
    stream += _ring_requests(rng, "curve", curve_gs, _ALL_FORMATS)
    stream += [list(argv) for argv, _ in GOLDEN]
    rng.shuffle(stream)
    return stream


GENERATORS = {"morphism": morphism, "sweep": sweep, "pointwise": pointwise}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The pass of ``workload`` for ``seed``; the same seed gives the same pass."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(stream: list[list[str]]) -> str:
    """Short SHA-256 of the request list, recorded beside every result."""
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()[:16]
