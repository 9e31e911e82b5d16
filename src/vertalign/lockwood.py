"""Brute-force expansion oracle for the alignment dependence.

Expands the right-hand side of the two-variable identity

    x^n + y^n = sum_{k=0}^{n//2} (-1)^k * T(n, k) * (xy)^k * (x+y)^{n-2k}

in exact integer arithmetic and compares it with x^n + y^n in full.  Its
coefficient of x^{n-i} y^i is the signed sum checked by
:mod:`vertalign.alignment`, so this module is the independent check of that
one.  A form of degree n is one row of n + 1 integers indexed by the power
of y.  The sum is expanded by Horner in (x + y)^2 (see :func:`lockwood_rhs`);
each factor x + y is one pass of additions, so no power of (x + y) is stored
and no two big rows are multiplied.

Every term (xy)^k (x+y)^{n-2k} is symmetric in x and y, so the sum is too,
for any coefficients in place of T(n, k), and so is each partial Horner
form.  The pass therefore computes slots 0..d//2 of each degree-d form and
mirrors the half once at the end; only the final comparison with x^n + y^n
sees all n + 1 slots.  The symmetry is a fact about the terms, not about T,
and the terms are linearly independent, so a wrong T(n, k) still gives a
symmetric form that is not x^n + y^n.

What stays independent of what: T(n, k) comes from the ratio recurrence
of :func:`vertalign.combinatorics.lucas_row`, and this module does not
import :func:`vertalign.combinatorics.binomial` at all.  The ``sweep``
route evaluates the same polynomial by Horner in (1 + S)^2 on one packed
int, but only for rows that differ from its additive chain of T; the
``verify-morphism`` route expands its own sum over Z[x, w] by the Pascal
recurrence of (x^2 + w)^m.  The half-form pass here shares no code with
either, and neither :mod:`vertalign.alignment` nor :mod:`vertalign.curves`
binds anything from here.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import add

from .combinatorics import lucas_row
from .quotient_ring import _power_text, _terms_text

__all__ = ["BivariatePolynomial", "lockwood_rhs", "verify_lockwood"]


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
        return BivariatePolynomial([p + q for p, q in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + other * -1

    # Form-by-form products remain only for the benchmark tracer's
    # ``lockwood.poly_mul`` and the tests' reference chain of (x + y)^m;
    # the oracle itself multiplies by x + y with one pass of additions.
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


def _half_times_x_plus_y(h: list[int], d: int) -> list[int]:
    """Half of (x + y) times the symmetric form of degree ``d`` whose slots
    0..d//2 are ``h``: slots 0..(d+1)//2, one pass of additions.

    From odd ``d`` the new centre slot is h[-1] plus its mirror, h[-1] again.
    """
    if d & 1:
        return [*map(add, h + h[-1:], [0] + h)]
    return [*map(add, h, [0] + h[:-1])]


def _x_n_plus_y_n(n: int) -> BivariatePolynomial:
    return BivariatePolynomial((1,) + (0,) * (n - 1) + (1,))


def lockwood_rhs(n: int) -> BivariatePolynomial:
    """Expand sum_{k=0}^{n//2} (-1)^k T(n,k) (xy)^k (x+y)^{n-2k} exactly.

    The interior terms cancel, leaving x^n + y^n; callers check that rather
    than trust it.  Horner in (x + y)^2: h_0 = T(n, 0) and h_k =
    (x+y)^2 h_{k-1} + (-1)^k T(n,k) (xy)^k, with one more factor x + y when
    n is odd.  Each term (xy)^k (x+y)^{n-2k} is symmetric in x and y, so
    every h_k is, whatever the coefficients: only slots 0..d//2 of each
    degree-d form are computed, (xy)^k lands in the last slot of the
    degree-2k half, and the result is that half followed by its mirror.
    """
    if n < 1:
        raise ValueError(f"lockwood_rhs requires n >= 1, got n={n}")
    row = lucas_row(n)
    h = [row[0]]
    for k in range(1, len(row)):
        h = _half_times_x_plus_y(_half_times_x_plus_y(h, 2 * k - 2), 2 * k - 1)
        h[k] += -row[k] if k & 1 else row[k]
    if n & 1:
        h = _half_times_x_plus_y(h, n - 1)
    return BivariatePolynomial(h + h[(n & 1) - 2::-1])


def verify_lockwood(n: int) -> bool:
    """True iff the expanded sum collapses to exactly x^n + y^n."""
    return lockwood_rhs(n) == _x_n_plus_y_n(n)


def _verify_range(n_start: int, n_end: int) -> list[int]:
    """The n in n_start..n_end for which the expansion is not x^n + y^n."""
    return [n for n in range(n_start, n_end + 1) if not verify_lockwood(n)]
