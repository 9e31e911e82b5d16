"""Integer polynomials and cyclotomic polynomial generation.

Supplies the modulus Phi_g used by :mod:`vertalign.quotient_ring`: the g-th
cyclotomic polynomial, obtained by exact division of z^g - 1 by the product
of Phi_d over the proper divisors d of g.  All coefficient arithmetic is
exact integer arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

__all__ = [
    "IntPolynomial",
    "euler_phi",
    "divisors",
    "cyclotomic",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial over the integers, lowest degree first.

    The trailing (highest-degree) coefficient is nonzero unless the
    polynomial is zero, represented by an empty coefficient tuple.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coefficients and self.coefficients[-1] == 0:
            trimmed = list(self.coefficients)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            object.__setattr__(self, "coefficients", tuple(trimmed))

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def divmod_monic(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder by a monic divisor (stays over the integers)."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coefficients)
        dlen = len(divisor.coefficients)
        quot = [0] * max(len(rem) - dlen + 1, 0)
        for top in range(len(rem) - 1, dlen - 2, -1):
            factor = rem[top]
            if factor:
                quot[top - dlen + 1] = factor
                for j, b in enumerate(divisor.coefficients):
                    rem[top - dlen + 1 + j] -= factor * b
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))


def _x_power_minus_one(n: int) -> IntPolynomial:
    return IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got n={n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Euler's totient via trial-division factorization."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got n={n}")
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            result -= result // p
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


@functools.cache
def cyclotomic(g: int) -> IntPolynomial:
    """The g-th cyclotomic polynomial Phi_g.

    Computed by dividing z^g - 1 exactly by the product of Phi_d over the
    proper divisors d of g; monic of degree euler_phi(g) with integer
    coefficients.  Cached (the cache is read-only after each entry is
    built, so concurrent use is safe under the GIL).
    """
    if g < 1:
        raise ValueError(f"cyclotomic requires g >= 1, got g={g}")
    if g == 1:
        return IntPolynomial((-1, 1))
    product = IntPolynomial((1,))
    for d in divisors(g)[:-1]:
        product = product * cyclotomic(d)
    quotient, remainder = _x_power_minus_one(g).divmod_monic(product)
    if not remainder.is_zero():
        raise AssertionError(f"cyclotomic division left a remainder for g={g}")
    return quotient
