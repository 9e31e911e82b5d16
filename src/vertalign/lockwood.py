"""Brute-force expansion oracle for the alignment dependence.

Expands both sides of the two-variable identity

    x^n + y^n = sum_{k=0}^{n//2} (-1)^k * T(n, k) * (xy)^k * (x+y)^{n-2k}

in exact integer arithmetic and matches coefficients.  Extracting the
coefficient of x^{n-i} y^i from the right-hand side reproduces, term for
term, the signed sum checked by :mod:`vertalign.alignment` - so this module
is the independent verification path for that one.

Every term of the identity is homogeneous of degree n, so each polynomial
here is stored as one row of n + 1 integers indexed by the power of y.

To keep the routes independent, powers of (x + y) are built by iterated
polynomial multiplication and T(n, k) comes from the ratio recurrence of
:func:`vertalign.combinatorics.lucas_row`; this module does not import
:func:`vertalign.combinatorics.binomial` at all.  A range of n (the
``lockwood`` command) shares one chain of powers of (x + y) and expands
every sum in full.
"""

from __future__ import annotations

from typing import Iterable

from .combinatorics import lucas_row
from .quotient_ring import _power_text, _terms_text

__all__ = [
    "BivariatePolynomial",
    "lockwood_rhs",
    "verify_lockwood",
]


class BivariatePolynomial:
    """Homogeneous form of degree n in x, y with exact integer coefficients.

    ``coeffs[b]`` is the coefficient of x^{n-b} y^b, so a form of degree n is
    one tuple of n + 1 ints and equality is tuple equality.  Forms of
    different degree never compare equal and cannot be added.  Instances
    are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a form of degree n needs n + 1 coefficients, got none")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("cannot add forms of different degree")
        # Lists, not generators: tuple() grows a generator's output by
        # realloc, which fragments the heap of a long run of large forms.
        return BivariatePolynomial([p + q for p, q in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + other * -1

    def __mul__(self, other: "BivariatePolynomial | int") -> "BivariatePolynomial":
        if isinstance(other, int):
            return BivariatePolynomial([c * other for c in self.coeffs])
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        result = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for b1, c1 in enumerate(self.coeffs):
            if c1:
                for b2, c2 in enumerate(other.coeffs):
                    result[b1 + b2] += c1 * c2
        return BivariatePolynomial(result)

    __rmul__ = __mul__

    def to_text(self) -> str:
        """Canonical text form: graded-lex order with x > y, leading term first."""
        n = len(self.coeffs) - 1
        return _terms_text(
            (coeff, (_power_text("x", n - b), _power_text("y", b)))
            for b, coeff in enumerate(self.coeffs)
            if coeff
        )

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()})"


_ONE = BivariatePolynomial((1,))
_X_PLUS_Y = BivariatePolynomial((1, 1))


def _powers(top: int) -> list[BivariatePolynomial]:
    """(x + y)^0..(x + y)^top, each the one before times x + y."""
    powers = [_ONE]
    for _ in range(top):
        powers.append(powers[-1] * _X_PLUS_Y)
    return powers


def _expand(n: int, powers: list[BivariatePolynomial]) -> BivariatePolynomial:
    """sum_k (-1)^k T(n,k) (xy)^k (x+y)^{n-2k}, reading (x+y)^m from ``powers``.

    Multiplying by (xy)^k moves a row k places along, so term k adds the
    n - 2k + 1 entries of (x+y)^{n-2k} into slots k..n-k of one list.
    """
    total = [0] * (n + 1)
    for k, lucas in enumerate(lucas_row(n)):
        weight = -lucas if k & 1 else lucas
        row = powers[n - 2 * k].coeffs
        end = k + len(row)
        total[k:end] = [t + weight * c for t, c in zip(total[k:end], row)]
    return BivariatePolynomial(total)


def _x_n_plus_y_n(n: int) -> BivariatePolynomial:
    return BivariatePolynomial((1,) + (0,) * (n - 1) + (1,))


def lockwood_rhs(n: int) -> BivariatePolynomial:
    """Expand sum_{k=0}^{n//2} (-1)^k T(n,k) (xy)^k (x+y)^{n-2k} exactly.

    The interior terms cancel completely, leaving x^n + y^n; callers check
    that rather than trust it.  Powers of (x + y) come from one
    iterated-multiplication chain shared across the k terms, and T(n, k)
    from :func:`~vertalign.combinatorics.lucas_row`.
    """
    if n < 1:
        raise ValueError(f"lockwood_rhs requires n >= 1, got n={n}")
    return _expand(n, _powers(n))


def verify_lockwood(n: int) -> bool:
    """True iff the expanded sum collapses to exactly x^n + y^n."""
    return lockwood_rhs(n) == _x_n_plus_y_n(n)


def _verify_range(n_start: int, n_end: int) -> list[int]:
    """The n in n_start..n_end for which the expansion is not x^n + y^n.

    One chain (x + y)^0..(x + y)^{n_end} serves every n of the range, where
    :func:`verify_lockwood` builds one per n; each sum is still expanded in
    full and compared with x^n + y^n.
    """
    powers = _powers(n_end)
    return [n for n in range(n_start, n_end + 1) if _expand(n, powers) != _x_n_plus_y_n(n)]
