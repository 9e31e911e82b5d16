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
    "binomial",
    "lucas_coeff",
    "lucas_row",
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
        value, rest = divmod(row[-1] * (n - 2 * k + 2) * (n - 2 * k + 1), k * (n - k))
        if rest:
            raise AssertionError(f"T({n}, {k}) ratio recurrence left remainder {rest}")
        row.append(value)
    return tuple(row)


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


def pascal_row(n: int) -> list[int]:
    """Row ``n`` of Pascal's triangle: [C(n, 0), ..., C(n, n)]."""
    if n < 0:
        raise ValueError(f"pascal_row requires n >= 0, got n={n}")
    row = [1]
    for i in range(1, n + 1):
        row.append(row[-1] * (n - i + 1) // i)
    return row
