"""Vertically aligned Pascal entries and the signed sum that annihilates them.

In the classic centered rendering of Pascal's triangle, entry i of row n sits
directly below entry i-k of row n-2k.  The column of entries above C(n, i) is
therefore C(n-2k, i-k) for k = 0, 1, 2, ...  For every 0 < i < n these
entries satisfy one exact linear dependence: the alternating sum weighted by
the Lucas coefficients T(n, k) vanishes,

    sum_{k=0}^{i} (-1)^k * T(n, k) * C(n-2k, i-k) = 0.

The sum deliberately runs all the way to k = i.  Terms past min(i, n//2)
vanish, but for two different reasons that are worth keeping observable:
while 0 <= n-2k < i-k the binomial factor is 0, and once n-2k < 0 the
binomial is nonzero again but T(n, k) = 0 takes over.  Reports list every
term so both regimes can be checked.

Pure functions over immutable values; the sweep may fan out across worker
processes and always merges results in canonical (n ascending) order.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .combinatorics import binomial, lucas_coeff, lucas_row

if TYPE_CHECKING:
    import multiprocessing.pool

__all__ = [
    "AlignedEntry",
    "AlignedColumn",
    "IdentityTerm",
    "IdentityReport",
    "SweepSummary",
    "aligned_entries",
    "identity_sum",
    "identity_sweep",
    "pool_size",
    "worker_pool",
]


@dataclass(frozen=True)
class AlignedEntry:
    """One aligned entry: C(n-2k, i-k), i.e. entry i-k of row n-2k."""

    k: int
    value: int


@dataclass(frozen=True)
class AlignedColumn:
    """The entries of Pascal's triangle vertically aligned with C(n, i).

    ``entries[0]`` is the anchor C(n, i) itself; increasing k walks upward
    through the triangle two rows at a time.
    """

    n: int
    i: int
    entries: tuple[AlignedEntry, ...]


def aligned_entries(n: int, i: int) -> AlignedColumn:
    """Anchor C(n, i) plus everything vertically aligned above it.

    Covers k = 0..min(i, n//2); beyond that the would-be entries fall
    outside the triangle.  Requires 0 <= i <= n.
    """
    if n < 0:
        raise ValueError(f"aligned_entries requires n >= 0, got n={n}")
    if not 0 <= i <= n:
        raise ValueError(f"aligned_entries requires 0 <= i <= n, got i={i}, n={n}")
    entries = tuple(
        AlignedEntry(k, binomial(n - 2 * k, i - k))
        for k in range(min(i, n // 2) + 1)
    )
    return AlignedColumn(n, i, entries)


@dataclass(frozen=True)
class IdentityTerm:
    """Term k of the dependence: signed_coefficient * binomial_value."""

    k: int
    signed_coefficient: int
    binomial_value: int
    product: int


@dataclass(frozen=True)
class IdentityReport:
    """Full term-by-term evaluation of the alignment dependence at (n, i)."""

    n: int
    i: int
    terms: tuple[IdentityTerm, ...]
    total: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "i": self.i,
            "terms": [
                {
                    "k": t.k,
                    "signed_coefficient": t.signed_coefficient,
                    "binomial_value": t.binomial_value,
                    "product": t.product,
                }
                for t in self.terms
            ],
            "total": self.total,
            "holds": self.holds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IdentityReport":
        terms = tuple(
            IdentityTerm(
                t["k"], t["signed_coefficient"], t["binomial_value"], t["product"]
            )
            for t in data["terms"]
        )
        return cls(data["n"], data["i"], terms, data["total"], data["holds"])


def identity_sum(n: int, i: int) -> IdentityReport:
    """Evaluate sum_{k=0}^{i} (-1)^k T(n,k) C(n-2k, i-k) term by term.

    Only defined on the hypothesis 0 < i < n (at i = 0 or i = n the sum is
    1, not 0, and returning it would invite misuse).  The report lists all
    i+1 terms, including the vanishing tail, and ``holds`` records whether
    the total is exactly zero.
    """
    if not 0 < i < n:
        raise ValueError(
            f"identity_sum requires 0 < i < n, got n={n}, i={i}"
        )
    terms = []
    total = 0
    for k in range(i + 1):
        coeff = (-1) ** k * lucas_coeff(n, k)
        bval = binomial(n - 2 * k, i - k)
        product = coeff * bval
        total += product
        terms.append(IdentityTerm(k, coeff, bval, product))
    return IdentityReport(n, i, tuple(terms), total, total == 0)


@dataclass(frozen=True)
class SweepSummary:
    """Outcome of checking the dependence for every (n, i) up to n_max."""

    n_max: int
    pairs_checked: int
    failures: tuple[tuple[int, int, int], ...]  # (n, i, nonzero total)


def _sweep_range(n_start: int, n_end: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Check all pairs with n in [n_start, n_end], one row of totals per n.

    totals[k + j] += (-1)^k T(n, k) C(n-2k, j) over k = 0..n//2 leaves in
    totals[i] the sum :func:`identity_sum` checks, for every i at once.  T
    comes from :func:`lucas_row` and the rows from the additive Pascal
    recurrence (built once for the range), so this path calls neither
    ``binomial()`` nor ``lucas_coeff()``.
    """
    rows: list[list[int]] = [[1]]
    for m in range(1, n_end + 1):
        prev = rows[m - 1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, m)] + [1])

    checked = 0
    failures: list[tuple[int, int, int]] = []
    for n in range(n_start, n_end + 1):
        totals = [0] * (n + 1)
        for k, lucas in enumerate(lucas_row(n)):
            row = rows[n - 2 * k]
            weight = -lucas if k & 1 else lucas
            totals[k:k + len(row)] = [t + weight * v for t, v in zip(totals[k:], row)]
        checked += n - 1
        failures.extend((n, i, totals[i]) for i in range(1, n) if totals[i])
    return checked, failures


def pool_size(requested: int, tasks: int) -> int:
    """Worker processes to start: no more than the tasks or the CPUs.

    Starts nothing itself; every process pool in the package is sized here.
    """
    return min(requested, tasks, os.cpu_count() or 1)


def worker_pool(workers: int) -> multiprocessing.pool.Pool:
    """A pool of ``workers`` processes that leave Ctrl-C to the parent.

    Every process pool in the package is started here.  The workers ignore
    SIGINT, so an interrupt reaches only the parent, where it breaks the
    wait for results; leaving the pool's ``with`` block then terminates the
    workers instead of letting them finish the chunks already queued.
    """
    # Imported on first use: it loads sockets and threading, about 0.8 MB of
    # resident memory, that a serial run never needs.
    import multiprocessing

    return multiprocessing.Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )


def identity_sweep(n_max: int, workers: int = 1) -> SweepSummary:
    """Verify the dependence for every 0 < i < n with 2 <= n <= n_max.

    ``workers`` > 1 fans row ranges out to worker processes, at most one per
    row and per CPU (:func:`pool_size`); the summary is identical regardless
    (failures are merged in n-ascending order).
    """
    if n_max < 2:
        raise ValueError(f"identity_sweep requires n_max >= 2, got {n_max}")
    if workers < 1:
        raise ValueError(f"identity_sweep requires workers >= 1, got {workers}")

    workers = pool_size(workers, n_max - 1)
    if workers == 1:
        checked, failures = _sweep_range(2, n_max)
        return SweepSummary(n_max, checked, tuple(failures))

    # Chunk by rows; later rows cost more, so use many small chunks to
    # balance the pool.  starmap returns results in submission order, which
    # keeps the merged report canonical.
    chunk = max(1, (n_max - 1) // (4 * workers))
    ranges = [(start, min(start + chunk - 1, n_max)) for start in range(2, n_max + 1, chunk)]
    with worker_pool(workers) as pool:
        parts = pool.starmap(_sweep_range, ranges, chunksize=1)
    checked = sum(part_checked for part_checked, _ in parts)
    failures = [failure for _, part_failures in parts for failure in part_failures]
    return SweepSummary(n_max, checked, tuple(failures))
