"""Exact integer combinatorics: generalized binomials and the Lucas coefficient triangle.

Every value is a Python ``int`` (arbitrary precision); each division is
checked to be exact.  No floating point or rational arithmetic is used
anywhere here.  This module is the only place that computes C(m, r) and
T(n, k).

Everything here is a pure function over immutable values and is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator

__all__ = [
    "aligned_column",
    "binomial",
    "lucas_coeff",
    "lucas_row",
    "pascal_halves",
    "pascal_row",
]


def binomial(m: int, r: int) -> int:
    """Generalized binomial coefficient C(m, r) for any integer ``m``.

    ``m >= 0`` is ``math.comb`` (0 when m < r).  ``m < 0`` gives the nonzero
    alternating values, e.g. C(-1, 2) = 1, by reflection (upper negation):
    C(m, r) = (-1)^r C(r - m - 1, r), whose upper index is then >= r, so
    ``math.comb`` computes it exactly.

    ``r < 0`` returns 0 by convention (empty lower index).
    """
    if r < 0:
        return 0
    if m >= 0:
        return math.comb(m, r)
    value = math.comb(r - m - 1, r)
    return -value if r & 1 else value


def aligned_column(n: int, i: int, count: int) -> tuple[int, ...]:
    """C(n-2k, i-k) for k = 0..count-1: C(n, i) and the entries aligned above it.

    Walks up the column by the exact ratio

        C(m-2, r-1) = C(m, r) * r(m-r) / (m(m-1)),

    which holds for every integer m outside {0, 1}, and checks each division
    to leave no remainder.  Where the ratio is 0/0 (m is 0 or 1) or the entry
    just reached is 0 (0 <= m < r, or r < 0), the next entry is read from
    :func:`binomial` instead; that reseeds the walk when it leaves the zero
    band for the band of negative m, where the entries are nonzero again.
    """
    column = [binomial(n, i)] if count > 0 else []
    for k in range(count - 1):
        m, r, value = n - 2 * k, i - k, column[-1]
        scale = m * (m - 1)
        if value and scale:
            value, rest = divmod(value * (r * (m - r)), scale)
            if rest:
                raise AssertionError(f"C({m - 2}, {r - 1}) ratio left remainder {rest}")
        else:
            value = binomial(m - 2, r - 1)
        column.append(value)
    return tuple(column)


def lucas_coeff(n: int, k: int) -> int:
    """Entry T(n, k) = n/(n-k) * C(n-k, k) of the Lucas coefficient triangle.

    n * C(n-k, k) is divided by n - k in integers, and the division is
    asserted to be exact rather than assumed.  Vanishes for k > n//2
    because C(n-k, k) = 0 there.

    Requires ``n >= 1`` and ``0 <= k < n``; anything else raises ValueError
    (in particular n = k would divide by zero and n = 0 is indeterminate).
    """
    if n < 1:
        raise ValueError(f"lucas_coeff requires n >= 1, got n={n}")
    if not 0 <= k < n:
        raise ValueError(f"lucas_coeff requires 0 <= k < n, got k={k}, n={n}")
    value, rest = divmod(n * binomial(n - k, k), n - k)
    if rest:
        raise AssertionError(
            f"n/(n-k)*C(n-k,k) failed to reduce to an integer for n={n}, k={k}"
        )
    return value


def _lucas_coeffs(n: int, count: int) -> list[int]:
    """T(n, k) for k = 0..count-1, each the closed form n * C(n-k, k) / (n-k).

    C(n-k, k) walks down the shallow diagonal from C(n, 0) = 1 by the exact
    ratio

        C(n-k, k) = C(n-k+1, k-1) * (n-2k+2)(n-2k+1) / (k(n-k+1)),

    and both divisions of every step, the ratio's and the closed form's, are
    checked to leave no remainder.  Past k = n//2 the ratio reaches 0 and the
    walk stays there.  It calls neither :func:`binomial` nor
    :func:`lucas_coeff`, and shares no arithmetic with :func:`lucas_row`.

    Requires ``0 <= count <= n``, as the closed form divides by n - k.
    """
    if not 0 <= count <= n:
        raise ValueError(f"_lucas_coeffs requires 0 <= count <= n, got count={count}, n={n}")
    coeffs = []
    diagonal = 1  # C(n-k, k)
    for k in range(count):
        if k:
            step = (n - 2 * k + 2) * (n - 2 * k + 1)
            diagonal, rest = divmod(diagonal * step, k * (n - k + 1))
            if rest:
                raise AssertionError(f"C({n - k}, {k}) ratio left remainder {rest}")
        value, rest = divmod(n * diagonal, n - k)
        if rest:
            raise AssertionError(f"T({n}, {k}) = n*C(n-k,k)/(n-k) left remainder {rest}")
        coeffs.append(value)
    return coeffs


def lucas_row(n: int) -> tuple[int, ...]:
    """All nonvanishing Lucas coefficients of row ``n``: T(n, 0..n//2), unsigned.

    Uses the ratio T(n,k) / T(n,k-1) = (n-2k+2)(n-2k+1) / (k(n-k)), checking
    each division to be exact, so it calls neither :func:`binomial` nor
    :func:`lucas_coeff`.  Callers apply the sign (-1)^k.
    """
    if n < 1:
        raise ValueError(f"lucas_row requires n >= 1, got n={n}")
    row = [1]
    for k in range(1, n // 2 + 1):
        # The two small factors first: one big-int multiplication per step.
        value, rest = divmod(row[-1] * ((n - 2 * k + 2) * (n - 2 * k + 1)), k * (n - k))
        if rest:
            raise AssertionError(f"T({n}, {k}) ratio recurrence left remainder {rest}")
        row.append(value)
    return tuple(row)


def _is_lucas_row(n: int, row: tuple[int, ...]) -> bool:
    """Whether ``row`` is T(n, 0..n//2), by :func:`lucas_row`'s ratio multiplied out.

    True exactly when the row has n//2 + 1 entries, row[0] = 1 and
    row[k] * k(n-k) = row[k-1] * (n-2k+2)(n-2k+1) for 1 <= k <= n//2.  As
    k(n-k) != 0 there, row[0] and the ratio fix every entry, so T(n) is the
    only row that passes; row[0] = 1 rejects its integer multiples, and the
    length rejects a truncated row or one with a trailing 0.  It makes no
    division and calls neither :func:`binomial`, :func:`lucas_coeff` nor
    :func:`lucas_row`.
    """
    half = n // 2
    if len(row) != half + 1 or row[0] != 1:
        return False
    k_factors = map(operator.mul, range(1, half + 1), range(n - 1, n - half - 1, -1))
    m_factors = map(operator.mul, range(n, n - 2 * half, -2), range(n - 1, n - 2 * half, -2))
    lower = map(operator.mul, row[1:], k_factors)  # row[k] * k(n-k)
    upper = map(operator.mul, row, m_factors)  # row[k-1] * (n-2k+2)(n-2k+1)
    return all(map(operator.eq, lower, upper))


def _lucas_rows_by_addition(first: int) -> Iterator[tuple[int, ...]]:
    """Rows T(n, 0..n//2) for n = first, first + 1, ..., by additions alone.

    Starts from T(0) = (2,) and T(1) = (1,), whatever ``first`` is, and
    applies T(n, k) = T(n-1, k) + T(n-2, k-1) (zero outside a row), the
    Lucas recurrence L_n = (x + y) L_{n-1} - xy L_{n-2}.  It shares no
    arithmetic with :func:`lucas_row`'s ratio recurrence and never calls it.
    """
    older, old = (2,), (1,)  # rows n and n + 1
    for n in itertools.count():
        if n >= first:
            yield older
        older, old = old, (old[0], *map(operator.add, old[1:] + (0,), older))


def pascal_halves(n_max: int) -> Iterator[tuple[int, ...]]:
    """Left halves of Pascal's rows, C(n, 0..n//2) for n = 0..n_max.

    Each half-row comes from the one before by additions alone:
    C(n+1, i) = C(n, i-1) + C(n, i), where for odd n the entry C(n, n//2 + 1)
    past the half is its mirror image C(n, n//2).  Yields nothing when
    n_max < 0.
    """
    half = (1,)
    for n in range(n_max + 1):
        yield half
        upper = half[1:] + half[-1:] if n & 1 else half[1:]
        half = (1, *map(operator.add, half, upper))


def pascal_row(n: int) -> list[int]:
    """Row ``n`` of Pascal's triangle: [C(n, 0), ..., C(n, n)]."""
    if n < 0:
        raise ValueError(f"pascal_row requires n >= 0, got n={n}")
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * (n - i + 1) // i)
    return row
