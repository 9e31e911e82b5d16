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
binomial is nonzero again but T(n, k) = 0 takes over.  ``identity_sum``
lists every term so both regimes can be checked.

``identity_sum`` takes both factors from checked walks in ``combinatorics``:
T(n, 0..i) down the shallow diagonal C(n-k, k), the column up from C(n, i).
The sweep instead builds T by the additive chain and checks each row against
T's defining ratio, multiplied out, so the two routes share no arithmetic.
It reads ``lucas_row`` only for a row that fails that check.

Pure functions over immutable values; the sweep may fan out across worker
processes and always merges results in canonical (n ascending) order.
"""

from __future__ import annotations

import os
import signal
import sys
from collections import namedtuple
from collections.abc import Callable

from .combinatorics import (
    _is_lucas_row,
    _lucas_coeffs,
    _lucas_rows_by_addition,
    aligned_column,
    lucas_row,
)

__all__ = [
    "SweepSummary",
    "aligned_entries",
    "identity_sum",
    "identity_sweep",
    "map_row_ranges",
]


def aligned_entries(n: int, i: int) -> tuple[int, ...]:
    """Anchor C(n, i) plus everything vertically aligned above it.

    Entry k is C(n-2k, i-k), entry i-k of row n-2k, so entry 0 is the anchor
    and increasing k walks upward through the triangle two rows at a time.
    Covers k = 0..min(i, n//2); beyond that the would-be entries fall
    outside the triangle.  Requires 0 <= i <= n.  The column is one
    checked ratio walk, :func:`~vertalign.combinatorics.aligned_column`.
    """
    if not 0 <= i <= n:
        raise ValueError(f"aligned_entries requires 0 <= i <= n, got i={i}, n={n}")
    return aligned_column(n, i, min(i, n // 2) + 1)


def identity_sum(n: int, i: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Evaluate sum_{k=0}^{i} (-1)^k T(n,k) C(n-2k, i-k) term by term.

    Returns (terms, total).  Term k is the pair ((-1)^k T(n, k),
    C(n-2k, i-k)), all i+1 of them including the vanishing tail, and
    ``total`` is the sum of their products; the dependence holds exactly when
    it is 0.  Only defined on the hypothesis 0 < i < n (at i = 0 or i = n
    the sum is 1, not 0, and returning it would invite misuse).

    Two checked walks supply the terms: T(n, 0..i) is the closed form
    n * C(n-k, k) / (n-k) with C(n-k, k) walked down the shallow diagonal
    from C(n, 0) = 1 (``combinatorics._lucas_coeffs``), and the column is
    walked up from C(n, i), seeded and reseeded by ``binomial()``.  So this
    path reads neither :func:`lucas_row`, the additive chain, nor the
    expansion oracle, and calls ``binomial()`` only inside
    :func:`aligned_column`.
    """
    if not 0 < i < n:
        raise ValueError(
            f"identity_sum requires 0 < i < n, got n={n}, i={i}"
        )
    terms = tuple(
        (-t if k & 1 else t, value)
        for k, (t, value) in enumerate(zip(_lucas_coeffs(n, i + 1), aligned_column(n, i, i + 1)))
    )
    return terms, sum(coeff * value for coeff, value in terms)


# Outcome of a sweep: the pairs checked and each failure as (n, i, nonzero
# total).  A named tuple, as the benchmark's tracer reads ``pairs_checked``.
SweepSummary = namedtuple("SweepSummary", ["pairs_checked", "failures"])


def _sweep_range(n_start: int, n_end: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Check all pairs with n in [n_start, n_end], by induction on n.

    Row n is checked on its own, so a range's result is the concatenation
    of its rows' results.  The polynomial

        P_n(S) = sum_k (-1)^k T(n, k) S^k (1 + S)^{n-2k} = sum_i total_i S^i

    holds as coefficient of S^i the sum :func:`identity_sum` checks at
    (n, i), every i at once, since C(n-2k, i-k) is the coefficient of S^{i-k}
    in (1 + S)^{n-2k}.  The dependence says P_n = 1 + S^n.

    The proof.  Let R(0) = (2,), R(1) = (1,) and R(n, k) = R(n-1, k) +
    R(n-2, k-1), zero outside a row: the additive chain of
    ``combinatorics._lucas_rows_by_addition``.  Write Q_n for P_n built
    from R(n) in place of T(n).  Then Q_0 = 2 = 1 + S^0 and Q_1 = 1 + S, and
    collecting the terms S^k (1 + S)^{n-2k} gives
    Q_n = (1 + S) Q_{n-1} - S Q_{n-2}, so Q_n = 1 + S^n for every n by
    induction.  Hence a row with T(n) == R(n) has P_n = Q_n = 1 + S^n: all
    its interior totals are 0, and it needs no evaluation.  The chain is
    built from n = 0 by additions alone, fast-forwarding to ``n_start``.

    T(n) == R(n) is checked without computing T(n).  T(n, 0) = 1 and
    T(n, k) k(n-k) = T(n, k-1) (n-2k+2)(n-2k+1) for 1 <= k <= n//2, and as
    k(n-k) != 0 there, the first entry and this ratio fix the whole row:
    T(n) is the only row of n//2 + 1 entries that satisfies both.
    ``combinatorics._is_lucas_row`` tests exactly that, by multiplication
    alone, so an honest row reads neither :func:`lucas_row` nor any
    division.

    Only a row whose R(n) fails that check is evaluated, by
    :func:`_row_totals` with T from :func:`lucas_row`, so failures are
    reported for T whatever R(n) holds; a wrong chain row over an honest T
    reports nothing.  Each nonzero interior total (0 < i < n) is reported
    as (n, i, total); the ends are not, as the dependence is only claimed
    for 0 < i < n.

    This path calls neither ``binomial()`` nor ``lucas_coeff()``.
    """
    checked = 0
    failures: list[tuple[int, int, int]] = []
    for n, proved in zip(range(n_start, n_end + 1), _lucas_rows_by_addition(n_start)):
        checked += n - 1
        if _is_lucas_row(n, proved):
            continue
        totals = _row_totals(n, lucas_row(n))
        failures.extend((n, i, totals[i]) for i in range(1, n) if totals[i])
    return checked, failures


def _row_totals(n: int, row: tuple[int, ...]) -> list[int]:
    """The coefficients of S^0..S^n of P_n(S), with ``row`` in place of T(n).

    Horner in S and Q = (1 + S)^2 on a plain list: with n = 2m + r,

        h_0 = row[0],  h_k = h_{k-1} Q + (-1)^k row[k] S^k,  P_n = h_m (1 + S)^r,

    and h_k, of degree 2k <= n, fits the n + 1 slots: no Pascal row is stored.
    """
    acc = [0] * (n + 1)  # h_k, by Horner in S and Q
    for k, t in enumerate(row):
        acc = [a + 2 * b + c for a, b, c in zip(acc, [0] + acc, [0, 0] + acc)]
        acc[k] += -t if k & 1 else t
    if n & 1:
        acc = [a + b for a, b in zip(acc, [0] + acc)]
    return acc


def map_row_ranges(
    check: Callable[[int, int], object], first: int, last: int, workers: int
) -> list:
    """``check(start, end)`` over consecutive ranges of rows first..last.

    Every process pool in the package is sized and started here, so fewer
    than one worker is refused here, before any row is checked.  Workers
    are capped by the rows and the CPUs; with one left, this is the single
    call ``check(first, last)``.  Otherwise the rows are cut into about four
    ranges per worker, because later rows cost more and many small ranges
    balance the pool.  Results come back in range order, so merged results
    stay canonical.  A worker that dies, as under an out-of-memory kill,
    breaks the pool and raises ChildProcessError: its range is neither
    waited for nor read as a pass.  The workers ignore SIGINT, so an
    interrupt breaks only the parent's wait; the workers are then
    terminated instead of left to finish the ranges already queued.
    """
    if workers < 1:
        raise ValueError(f"map_row_ranges requires workers >= 1, got {workers}")
    workers = min(workers, last - first + 1, os.cpu_count() or 1)
    if workers == 1:
        return [check(first, last)]
    chunk = max(1, (last - first + 1) // (4 * workers))
    ranges = [(start, min(start + chunk - 1, last)) for start in range(first, last + 1, chunk)]
    # Imported on first use: it loads multiprocessing, sockets and threading,
    # about 1.8 MB of resident memory, that a serial run never needs.
    import multiprocessing
    from concurrent.futures import process

    # Workers fork on Linux, where Python 3.14 defaults to forkserver, so
    # they start from the parent's modules as they stand.  Elsewhere the
    # default holds: Windows has no fork, and it is unsafe on macOS.
    mp_context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    with process.ProcessPoolExecutor(
        workers, mp_context, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    ) as pool:
        try:
            return list(pool.map(check, *zip(*ranges)))
        except process.BrokenProcessPool:
            # The pool has already terminated the other workers.
            raise ChildProcessError("a worker process died before its rows were checked") from None
        except BaseException:
            # No public call stops an executor's workers before Python 3.14.
            for worker in pool._processes.values():
                worker.terminate()
            raise


def identity_sweep(n_max: int, workers: int = 1) -> SweepSummary:
    """Verify the dependence for every 0 < i < n with 2 <= n <= n_max.

    ``workers`` > 1 fans row ranges out to worker processes
    (:func:`map_row_ranges`); the summary is identical regardless.
    """
    if n_max < 2:
        raise ValueError(f"identity_sweep requires n_max >= 2, got {n_max}")
    parts = map_row_ranges(_sweep_range, 2, n_max, workers)
    checked = sum(part_checked for part_checked, _ in parts)
    failures = [failure for _, part_failures in parts for failure in part_failures]
    return SweepSummary(checked, tuple(failures))
