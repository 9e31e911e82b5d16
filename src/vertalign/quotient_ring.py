"""Exact arithmetic in the quotient ring R(g, c) = Q[z, u] / (Phi_g(z), u^g - c).

The class of z models a primitive g-th root of unity zeta (fixed, once and
for all, as z mod Phi_g); the class of u models a formal g-th root of the
nonzero rational c.  Elements are kept fully reduced in the monomial basis
z^a u^b with 0 <= a < phi(g) and 0 <= b < g, as a dense phi(g) x g array of
rationals, so equality is plain coefficient comparison.

R(g, c) is treated as a commutative ring, not a field: for special c (for
instance c = 1, where u^g - c factors) it is not a field, but every identity
verified by :mod:`vertalign.curves` is a polynomial identity that holds in
the quotient ring regardless, so no inversion is ever needed.

Specs and elements are immutable; all operations are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cyclotomic import IntPolynomial, cyclotomic, euler_phi

__all__ = [
    "RingSpec",
    "QuotientRingElement",
    "make_ring",
    "ring_zero",
    "ring_one",
    "from_rational",
    "zeta_power",
    "root_power",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RingSpec:
    """Parameters of R(g, c), including the precomputed modulus Phi_g."""

    g: int
    c: Fraction
    phi_g: IntPolynomial
    deg_z: int  # euler_phi(g), the z-basis width
    deg_u: int  # g, the u-basis width


def make_ring(g: int, c: Fraction | int) -> RingSpec:
    """Validated spec for R(g, c).  Requires g >= 1 and c != 0."""
    if g < 1:
        raise ValueError(f"make_ring requires g >= 1, got g={g}")
    c = Fraction(c)
    if c == 0:
        raise ValueError("make_ring requires c != 0")
    phi_g = cyclotomic(g)
    return RingSpec(g=g, c=c, phi_g=phi_g, deg_z=euler_phi(g), deg_u=g)


@functools.cache
def _zero_column(width: int) -> tuple[Fraction, ...]:
    # One shared all-zero column per width; arithmetic uses identity checks
    # against it to skip work on empty u-slots.
    return (_ZERO,) * width


def _reduce_z(coeffs: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    """Remainder of a z-polynomial (dense, lowest first) modulo monic phi."""
    width = len(phi) - 1
    for top in range(len(coeffs) - 1, width - 1, -1):
        factor = coeffs[top]
        if factor:
            base = top - width
            for j in range(width):
                if phi[j]:
                    coeffs[base + j] -= factor * phi[j]
            coeffs[top] = _ZERO
    del coeffs[width:]
    return coeffs


class QuotientRingElement:
    """A fully reduced element sum_{a,b} q_{a,b} z^a u^b of R(g, c).

    Internally one coefficient column per u-power: ``_cols[b][a]`` is
    q_{a,b}.  All-zero columns alias a shared tuple, which lets arithmetic
    skip them by identity without changing the dense equality semantics.
    Immutable; build new elements with the operators and the module's
    constructors.
    """

    __slots__ = ("spec", "_cols")

    def __init__(self, spec: RingSpec, entries: Mapping[tuple[int, int], Fraction | int]):
        cols: list[list[Fraction] | None] = [None] * spec.deg_u
        for (a, b), value in entries.items():
            if not 0 <= a < spec.deg_z or not 0 <= b < spec.deg_u:
                raise ValueError(
                    f"basis index ({a}, {b}) outside 0<={a}<{spec.deg_z}, 0<={b}<{spec.deg_u}"
                )
            if cols[b] is None:
                cols[b] = [_ZERO] * spec.deg_z
            cols[b][a] += Fraction(value)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_cols", _freeze_columns(spec, cols))

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """Nonzero coefficients keyed by (a, b)."""
        zcol = _zero_column(self.spec.deg_z)
        out = {}
        for b, col in enumerate(self._cols):
            if col is zcol:
                continue
            for a, q in enumerate(col):
                if q:
                    out[(a, b)] = q
        return out

    def is_zero(self) -> bool:
        zcol = _zero_column(self.spec.deg_z)
        return all(col is zcol for col in self._cols)

    def substitute_u(self, value: Fraction | int) -> "QuotientRingElement":
        """Collapse u to a concrete rational g-th root of c.

        Only legal when value^g = c (then u -> value extends to a ring map
        into Q[z]/(Phi_g), embedded back as the b = 0 column).  Used to
        render curves over c = 1 the way they are usually written, with
        c^{k/g} read as 1 rather than as a formal root.
        """
        value = Fraction(value)
        if value ** self.spec.g != self.spec.c:
            raise ValueError(
                f"substitute_u requires value^g == c, got value={value}, c={self.spec.c}"
            )
        zcol = _zero_column(self.spec.deg_z)
        acc = [_ZERO] * self.spec.deg_z
        for b, col in enumerate(self._cols):
            if col is zcol:
                continue
            scale = value ** b
            for a, q in enumerate(col):
                if q:
                    acc[a] += q * scale
        return _from_columns(self.spec, {0: acc})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        return self.spec == other.spec and self._cols == other._cols

    def __add__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        spec = _common_spec(self, other)
        zcol = _zero_column(spec.deg_z)
        cols = []
        for mine, theirs in zip(self._cols, other._cols):
            if mine is zcol:
                cols.append(theirs)
            elif theirs is zcol:
                cols.append(mine)
            else:
                merged = tuple(p + q for p, q in zip(mine, theirs))
                cols.append(merged if any(merged) else zcol)
        return _raw(spec, tuple(cols))

    def __neg__(self) -> "QuotientRingElement":
        zcol = _zero_column(self.spec.deg_z)
        cols = tuple(
            col if col is zcol else tuple(-q for q in col) for col in self._cols
        )
        return _raw(self.spec, cols)

    def __sub__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        return self + (-other)

    def __mul__(self, other: "QuotientRingElement | Fraction | int") -> "QuotientRingElement":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        spec = _common_spec(self, other)
        zcol = _zero_column(spec.deg_z)
        width = spec.deg_z
        # Accumulate u-columns of the product before a single z-reduction
        # per column; u^g folds back to the constant c.
        acc: list[list[Fraction] | None] = [None] * spec.deg_u
        for b1, col1 in enumerate(self._cols):
            if col1 is zcol:
                continue
            for b2, col2 in enumerate(other._cols):
                if col2 is zcol:
                    continue
                b = b1 + b2
                wrap = None
                if b >= spec.deg_u:
                    b -= spec.deg_u
                    wrap = spec.c
                target = acc[b]
                if target is None:
                    target = acc[b] = [_ZERO] * (2 * width - 1)
                for a1, q1 in enumerate(col1):
                    if q1:
                        lead = q1 if wrap is None else q1 * wrap
                        for a2, q2 in enumerate(col2):
                            if q2:
                                target[a1 + a2] += lead * q2
        phi = spec.phi_g.coefficients
        cols: dict[int, list[Fraction]] = {}
        for b, vec in enumerate(acc):
            if vec is not None:
                cols[b] = _reduce_z(vec, phi)
        return _from_columns(spec, cols)

    __rmul__ = __mul__

    def scale(self, q: Fraction | int) -> "QuotientRingElement":
        q = Fraction(q)
        if not q:
            return ring_zero(self.spec)
        zcol = _zero_column(self.spec.deg_z)
        cols = tuple(
            col if col is zcol else tuple(q * v if v else v for v in col) for col in self._cols
        )
        return _raw(self.spec, cols)

    def to_text(self) -> str:
        """Canonical text: q*z^a*u^b terms in ascending lexicographic (a, b)."""
        entries = sorted(self.entries().items())
        if not entries:
            return "0"
        parts = []
        for (a, b), q in entries:
            factors = []
            if a:
                factors.append("z" if a == 1 else f"z^{a}")
            if b:
                factors.append("u" if b == 1 else f"u^{b}")
            mag = abs(q)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if q > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if q > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QuotientRingElement(g={self.spec.g}, c={self.spec.c}, {self.to_text()})"


def _raw(spec: RingSpec, cols: tuple[tuple[Fraction, ...], ...]) -> QuotientRingElement:
    element = object.__new__(QuotientRingElement)
    object.__setattr__(element, "spec", spec)
    object.__setattr__(element, "_cols", cols)
    return element


def _freeze_columns(
    spec: RingSpec, cols: list[list[Fraction] | None]
) -> tuple[tuple[Fraction, ...], ...]:
    zcol = _zero_column(spec.deg_z)
    frozen = []
    for col in cols:
        if col is None or not any(col):
            frozen.append(zcol)
        else:
            frozen.append(tuple(col))
    return tuple(frozen)


def _from_columns(spec: RingSpec, cols: Mapping[int, list[Fraction]]) -> QuotientRingElement:
    layout: list[list[Fraction] | None] = [None] * spec.deg_u
    for b, col in cols.items():
        layout[b] = col
    return _raw(spec, _freeze_columns(spec, layout))


def _common_spec(x: QuotientRingElement, y: QuotientRingElement) -> RingSpec:
    if x.spec != y.spec:
        raise ValueError(
            f"ring mismatch: R({x.spec.g}, {x.spec.c}) vs R({y.spec.g}, {y.spec.c})"
        )
    return x.spec


def ring_zero(spec: RingSpec) -> QuotientRingElement:
    return _raw(spec, (_zero_column(spec.deg_z),) * spec.deg_u)


def ring_one(spec: RingSpec) -> QuotientRingElement:
    return from_rational(spec, _ONE)


def from_rational(spec: RingSpec, q: Fraction | int) -> QuotientRingElement:
    """Embed a rational as a ring element (the (a, b) = (0, 0) slot)."""
    q = Fraction(q)
    if not q:
        return ring_zero(spec)
    col = (q,) + _zero_column(spec.deg_z)[1:]
    return _raw(spec, (col,) + (_zero_column(spec.deg_z),) * (spec.deg_u - 1))


def zeta_power(spec: RingSpec, m: int) -> QuotientRingElement:
    """zeta^m as a ring element: z^{m mod g} reduced modulo Phi_g."""
    m %= spec.g
    if m < spec.deg_z:
        return QuotientRingElement(spec, {(m, 0): _ONE})
    vec = [_ZERO] * m + [_ONE]
    col = _reduce_z(vec, spec.phi_g.coefficients)
    return _from_columns(spec, {0: col})


def root_power(spec: RingSpec, k: int) -> QuotientRingElement:
    """c^{k/g} as a ring element: u^k reduced via u^g = c.

    Equals c^{k // g} * u^{k mod g}; requires k >= 0.
    """
    if k < 0:
        raise ValueError(f"root_power requires k >= 0, got k={k}")
    value = spec.c ** (k // spec.g)
    return QuotientRingElement(spec, {(0, k % spec.g): value})
