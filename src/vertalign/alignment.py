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

Pure functions over immutable values; the sweep may fan out across worker
processes and always merges results in canonical (n ascending) order.
"""

from __future__ import annotations

import os
import signal
from collections import namedtuple
from collections.abc import Callable

from .combinatorics import _lucas_rows_by_addition, binomial, lucas_coeff, lucas_row

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
    outside the triangle.  Requires 0 <= i <= n.
    """
    if n < 0:
        raise ValueError(f"aligned_entries requires n >= 0, got n={n}")
    if not 0 <= i <= n:
        raise ValueError(f"aligned_entries requires 0 <= i <= n, got i={i}, n={n}")
    return tuple(binomial(n - 2 * k, i - k) for k in range(min(i, n // 2) + 1))


def identity_sum(n: int, i: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Evaluate sum_{k=0}^{i} (-1)^k T(n,k) C(n-2k, i-k) term by term.

    Returns (terms, total).  Term k is the pair ((-1)^k T(n, k),
    C(n-2k, i-k)), all i+1 of them including the vanishing tail, and
    ``total`` is the sum of their products; the dependence holds exactly when
    it is 0.  Only defined on the hypothesis 0 < i < n (at i = 0 or i = n
    the sum is 1, not 0, and returning it would invite misuse).
    """
    if not 0 < i < n:
        raise ValueError(
            f"identity_sum requires 0 < i < n, got n={n}, i={i}"
        )
    terms = tuple(
        ((-1) ** k * lucas_coeff(n, k), binomial(n - 2 * k, i - k)) for k in range(i + 1)
    )
    return terms, sum(coeff * value for coeff, value in terms)


# Outcome of a sweep: the pairs checked and each failure as (n, i, nonzero
# total).  A named tuple, as the benchmark's tracer reads ``pairs_checked``.
SweepSummary = namedtuple("SweepSummary", ["pairs_checked", "failures"])


def _sweep_range(n_start: int, n_end: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Check all pairs with n in [n_start, n_end], by induction on n.

    Row n is checked on its own, so a range's result is the concatenation
    of its rows' results.  With T from one call of :func:`lucas_row`, the
    polynomial

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
    built from n = 0 by additions alone, fast-forwarding to ``n_start``,
    and never reads :func:`lucas_row`.

    Only a row of T that differs from R(n) is evaluated, at S = 2^{W_n},
    by homogeneous Horner in S and Q = (1 + S)^2: with n = 2m + r,

        h_0 = T(n, 0),  h_k = h_{k-1} Q + (-1)^k T(n, k) S^k,  P_n = h_m (1 + S)^r,

    and multiplying by Q or 1 + S is shifts and adds, so no Pascal row is
    stored and no multi-digit T meets a big operand in a product.

    Each |total_i| is at most B_n = sum_k |T(n, k)| 2^{n-2k}, because
    C(n-2k, j) <= 2^{n-2k}.  W_n is the least width with 2^{W_n - 1} > B_n,
    computed from the row of T in use (so a wrong T widens the slots instead
    of overflowing them).  Then every total is a digit in
    (-2^{W_n - 1}, 2^{W_n - 1}), the balanced base-2^{W_n} digits of P_n are
    unique, and P_n equals 1 + 2^{nW_n} exactly when the interior totals
    (0 < i < n) are all 0 and the ends are T(n, 0) = 1.  On any other value
    every slot is unpacked and each nonzero interior (n, i, total) is
    reported; the ends are not, as the dependence is only claimed for
    0 < i < n.

    This path calls neither ``binomial()`` nor ``lucas_coeff()``.
    """
    checked = 0
    failures: list[tuple[int, int, int]] = []
    for n, proved in zip(range(n_start, n_end + 1), _lucas_rows_by_addition(n_start)):
        lucas = lucas_row(n)
        checked += n - 1
        if lucas == proved:
            continue
        bound = 0  # B_n, by Horner in 4 over k and one more doubling for odd n
        for t in lucas:
            bound = (bound << 2) + abs(t)
        width = 1 + (bound << (n & 1)).bit_length()
        acc = 0  # h_k, by Horner in S and Q
        for k, t in enumerate(lucas):
            acc += (acc << (width + 1)) + (acc << (2 * width))
            acc += (-t if k & 1 else t) << (k * width)
        if n & 1:
            acc += acc << width
        if acc == 1 + (1 << (n * width)):
            continue
        mask = (1 << width) - 1
        for i in range(n + 1):
            total = acc & mask
            if total >> (width - 1):
                total -= 1 << width
            acc = (acc - total) >> width
            if total and 0 < i < n:
                failures.append((n, i, total))
    return checked, failures


def map_row_ranges(
    check: Callable[[int, int], object], first: int, last: int, workers: int
) -> list:
    """``check(start, end)`` over consecutive ranges of rows first..last.

    Every process pool in the package is sized and started here.  Workers
    are capped by the rows and the CPUs; with one left, this is the single
    call ``check(first, last)``.  Otherwise the rows are cut into about four
    ranges per worker, because later rows cost more and many small ranges
    balance the pool.  The workers ignore SIGINT, so an interrupt reaches
    only the parent, where it breaks the wait for results; leaving the
    pool's ``with`` block then terminates the workers instead of letting
    them finish the ranges already queued.  Results come back in range
    order either way, so merged results stay canonical.
    """
    workers = min(workers, last - first + 1, os.cpu_count() or 1)
    if workers == 1:
        return [check(first, last)]
    chunk = max(1, (last - first + 1) // (4 * workers))
    ranges = [(start, min(start + chunk - 1, last)) for start in range(first, last + 1, chunk)]
    # Imported on first use: it loads sockets and threading, about 0.8 MB of
    # resident memory, that a serial run never needs.
    import multiprocessing

    with multiprocessing.Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    ) as pool:
        return pool.starmap(check, ranges, chunksize=1)


def identity_sweep(n_max: int, workers: int = 1) -> SweepSummary:
    """Verify the dependence for every 0 < i < n with 2 <= n <= n_max.

    ``workers`` > 1 fans row ranges out to worker processes
    (:func:`map_row_ranges`); the summary is identical regardless.
    """
    if n_max < 2:
        raise ValueError(f"identity_sweep requires n_max >= 2, got {n_max}")
    if workers < 1:
        raise ValueError(f"identity_sweep requires workers >= 1, got {workers}")
    parts = map_row_ranges(_sweep_range, 2, n_max, workers)
    checked = sum(part_checked for part_checked, _ in parts)
    failures = [failure for _, part_failures in parts for failure in part_failures]
    return SweepSummary(checked, tuple(failures))
