"""Calibrated seconds: request times corrected for the drift of machine speed.

Calibrated seconds = measured seconds * REFERENCE_S / (time of reference()
around the measurement).  A shared VM can change speed by up to half for
seconds at a time (neighbouring load); the same fixed pure-Python work,
timed between measurements, tracks that drift.  Different kinds of work
slow down by different amounts, so the reference mixes the kinds the
requests do: small-int loops, Fraction sums, dict and tuple churn, big-int
products.  The reference never calls the package, so a slower program
still reads slower.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003
CALIBRATION_WINDOW = 3  # reference runs on each side of a request


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter work (about 3 ms)."""
    t0 = perf_counter()
    acc, q, big = 0, Fraction(0), 3 ** 400
    for k in range(1, 6000):
        acc += (k * 2654435761) % 1000003
    for k in range(1, 250):
        q += Fraction(1, k % 17 + 1)
    table = {}
    for k in range(3000):
        table[(k, k & 7)] = [k, k + 1]
    tuple(sorted(table))
    for k in range(2000):
        acc += big * k // (k + 1)
    return perf_counter() - t0
