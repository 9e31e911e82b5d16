"""Cyclotomic polynomials, the modulus Phi_g of :mod:`vertalign.quotient_ring`.

Phi_g is a plain tuple of integer coefficients, lowest degree first, found
by dividing z^g - 1 exactly by Phi_d for each proper divisor d of g in turn.
It is monic of degree phi(g) (Euler's totient), so phi(g) is
``len(cyclotomic(g)) - 1``.  All coefficient arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import functools

__all__ = ["cyclotomic"]


def _divide_exact(dividend: tuple[int, ...], divisor: tuple[int, ...]) -> tuple[int, ...]:
    """The quotient of dividend by a monic divisor that divides it exactly.

    Both are dense, lowest degree first.  A nonzero remainder raises
    ``AssertionError``: it would mean the divisors of g were not all
    factors of z^g - 1.
    """
    rem = list(dividend)
    width = len(divisor) - 1
    quot = [0] * (len(rem) - width)
    for top in range(len(rem) - 1, width - 1, -1):
        factor = rem[top]
        if factor:
            base = top - width
            quot[base] = factor
            for j, p in enumerate(divisor):
                rem[base + j] -= factor * p
    if any(rem):
        raise AssertionError(f"{divisor} does not divide {dividend} exactly")
    return tuple(quot)


@functools.cache
def cyclotomic(g: int) -> tuple[int, ...]:
    """The g-th cyclotomic polynomial Phi_g, lowest degree first.

    z^g - 1 divided exactly by Phi_d for every proper divisor d of g; monic
    of degree phi(g) with integer coefficients.  Cached, and the cached
    tuple is the one returned (the cache is read-only after each entry is
    built, so concurrent use is safe under the GIL).
    """
    if g < 1:
        raise ValueError(f"cyclotomic requires g >= 1, got g={g}")
    phi = (-1,) + (0,) * (g - 1) + (1,)
    for d in range(1, g):
        if g % d == 0:
            phi = _divide_exact(phi, cyclotomic(d))
    return phi
