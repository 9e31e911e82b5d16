"""Exact arithmetic in the quotient ring R(g, c) = Q[z, u] / (Phi_g(z), u^g - c).

The class of z models a primitive g-th root of unity zeta (fixed, once and
for all, as z mod Phi_g); the class of u models a formal g-th root of the
nonzero rational c.  Elements are kept fully reduced in the monomial basis
z^a u^b with 0 <= a < phi(g) and 0 <= b < g.  An element is stored as its
nonzero u-columns, each a tuple of phi(g) integers, over one positive
denominator in lowest terms (its gcd with every numerator is 1), so equal
elements have equal fields and equality is plain field comparison.

R(g, c) is treated as a commutative ring, not a field: for special c (for
instance c = 1, where u^g - c factors) it is not a field, but every identity
verified by :mod:`vertalign.curves` is a polynomial identity that holds in
the quotient ring regardless, so no inversion is ever needed.

Arithmetic runs on integers alone.  ``Fraction`` appears only where c and
rational inputs are read and where coefficients are handed out or rendered.

Specs and elements are immutable; all operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add

from .cyclotomic import cyclotomic

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


class RingSpec:
    """R(g, c), set by g and c alone; the u-basis width is g.

    ``phi_g`` (the cached ``cyclotomic(g)``) and ``deg_z`` = phi(g), the
    z-basis width, are derived from g, take no part in equality or hashing,
    and are stored because every ring product reads them.  Specs compare as
    the tuple (g, c), which returns early when both hold the same c object.
    """

    __slots__ = ("g", "c", "phi_g", "deg_z")

    def __init__(self, g: int, c: Fraction):
        self.g, self.c = g, c
        self.phi_g = cyclotomic(g)
        self.deg_z = len(self.phi_g) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingSpec):
            return NotImplemented
        return (self.g, self.c) == (other.g, other.c)

    def __hash__(self) -> int:
        return hash((self.g, self.c))

    def __repr__(self) -> str:
        return f"RingSpec(g={self.g}, c={self.c})"


def make_ring(g: int, c: Fraction | int) -> RingSpec:
    """Validated spec for R(g, c).  Requires g >= 1 and c != 0."""
    if g < 1:
        raise ValueError(f"make_ring requires g >= 1, got g={g}")
    c = Fraction(c)
    if c == 0:
        raise ValueError("make_ring requires c != 0")
    return RingSpec(g, c)


def _reduce_z(coeffs: list[int], phi: tuple[int, ...]) -> list[int]:
    """Remainder of a z-polynomial (dense, lowest first) modulo monic phi."""
    width = len(phi) - 1
    low = [(j, p) for j, p in enumerate(phi[:width]) if p]
    for top in range(len(coeffs) - 1, width - 1, -1):
        factor = coeffs[top]
        if factor:
            base = top - width
            for j, p in low:
                coeffs[base + j] -= factor * p
    del coeffs[width:]
    return coeffs


class QuotientRingElement:
    """A fully reduced element sum_{a,b} q_{a,b} z^a u^b of R(g, c).

    ``_cols[b][a] / _den`` is q_{a,b}.  ``_cols`` holds only the nonzero
    u-columns, so the zero element has none, and ``_den`` is positive and in
    lowest terms.  Immutable; build new elements with the operators and the
    module's constructors.
    """

    __slots__ = ("spec", "_cols", "_den")

    def __init__(self, spec: RingSpec, entries: Mapping[tuple[int, int], Fraction | int]):
        cols: dict[int, list[Fraction]] = {}
        for (a, b), value in entries.items():
            if not 0 <= a < spec.deg_z or not 0 <= b < spec.g:
                raise ValueError(
                    f"basis index ({a}, {b}) outside 0<={a}<{spec.deg_z}, 0<={b}<{spec.g}"
                )
            cols.setdefault(b, [Fraction(0)] * spec.deg_z)[a] += Fraction(value)
        den = math.lcm(*(q.denominator for col in cols.values() for q in col))
        element = _element(spec, {
            b: [q.numerator * (den // q.denominator) for q in col] for b, col in cols.items()
        }, den)
        self.spec, self._cols, self._den = element.spec, element._cols, element._den

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """Nonzero coefficients keyed by (a, b)."""
        return {
            (a, b): Fraction(v, self._den)
            for b, col in sorted(self._cols.items())
            for a, v in enumerate(col)
            if v
        }

    def is_zero(self) -> bool:
        return not self._cols

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
        p, q = value.numerator, value.denominator
        top = max(self._cols, default=0)
        acc = [0] * self.spec.deg_z
        for b, col in self._cols.items():
            weight = p**b * q ** (top - b)
            acc = [s + v * weight for s, v in zip(acc, col)]
        return _element(self.spec, {0: acc}, self._den * q**top)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        return (
            self.spec == other.spec and self._den == other._den and self._cols == other._cols
        )

    def __add__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        spec = _common_spec(self, other)
        den = math.lcm(self._den, other._den)
        cols = dict(_scaled(self._cols, den // self._den))
        for b, col in _scaled(other._cols, den // other._den).items():
            cols[b] = tuple(map(add, cols[b], col)) if b in cols else col
        return _element(spec, cols, den)

    def __neg__(self) -> "QuotientRingElement":
        return _element(self.spec, _scaled(self._cols, -1), self._den)

    def __sub__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        return self + (-other)

    def __mul__(self, other: "QuotientRingElement | Fraction | int") -> "QuotientRingElement":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        spec = _common_spec(self, other)
        g, width = spec.g, spec.deg_z
        # u^g folds back to c = p/q.  Over the common denominator q, a
        # wrapped product is scaled by p and the rest by q; q is needed only
        # when some product wraps.
        p, q = spec.c.numerator, spec.c.denominator
        if max(self._cols, default=0) + max(other._cols, default=0) < g:
            q = 1
        terms = [
            (b2, [(a2, v2) for a2, v2 in enumerate(col2) if v2])
            for b2, col2 in other._cols.items()
        ]
        # Accumulate u-columns of the product before a single z-reduction
        # per column.
        acc: dict[int, list[int]] = {}
        for b1, col1 in self._cols.items():
            for b2, col2 in terms:
                b, factor = b1 + b2, q
                if b >= g:
                    b, factor = b - g, p
                target = acc.get(b)
                if target is None:
                    target = acc[b] = [0] * (2 * width - 1)
                for a1, v1 in enumerate(col1):
                    if v1:
                        lead = v1 * factor
                        for a2, v2 in col2:
                            target[a1 + a2] += lead * v2
        cols = {b: _reduce_z(vec, spec.phi_g) for b, vec in acc.items()}
        return _element(spec, cols, self._den * other._den * q)

    __rmul__ = __mul__

    def scale(self, q: Fraction | int) -> "QuotientRingElement":
        return _element(self.spec, _scaled(self._cols, q.numerator), self._den * q.denominator)

    def to_text(self) -> str:
        """Canonical text: q*z^a*u^b terms in ascending lexicographic (a, b)."""
        return _terms_text(
            (q, (_power_text("z", a), _power_text("u", b)))
            for (a, b), q in sorted(self.entries().items())
        )

    def __repr__(self) -> str:
        return f"QuotientRingElement(g={self.spec.g}, c={self.spec.c}, {self.to_text()})"


def _element(spec: RingSpec, cols: Mapping[int, Sequence[int]], den: int) -> QuotientRingElement:
    """The element cols/den: zero columns dropped, den > 0 in lowest terms."""
    cols = {b: tuple(col) for b, col in cols.items() if any(col)}
    if den != 1:
        common = den
        for col in cols.values():
            common = math.gcd(common, *col)
            if common == 1:
                break
        if common != 1:
            cols = {b: tuple(v // common for v in col) for b, col in cols.items()}
            den //= common
    element = object.__new__(QuotientRingElement)
    element.spec, element._cols, element._den = spec, cols, den
    return element


def _scaled(cols: Mapping[int, Sequence[int]], factor: int) -> Mapping[int, Sequence[int]]:
    if factor == 1:
        return cols
    return {b: tuple(factor * v for v in col) for b, col in cols.items()}


def _common_spec(x: QuotientRingElement, y: QuotientRingElement) -> RingSpec:
    # Elements of one ring share its spec object, so ``is`` settles nearly
    # every call without the tuple comparison.
    if x.spec is not y.spec and x.spec != y.spec:
        raise ValueError(
            f"ring mismatch: R({x.spec.g}, {x.spec.c}) vs R({y.spec.g}, {y.spec.c})"
        )
    return x.spec


def _power_text(name: str, exponent: int) -> str:
    """``name^exponent``: empty for 0, bare ``name`` for 1."""
    return "" if exponent == 0 else name if exponent == 1 else f"{name}^{exponent}"


def _terms_text(terms: Iterable[tuple[Fraction | int, Iterable[str]]]) -> str:
    """A sum of nonzero terms q*f1*f2*..., each given as (q, factors).

    Empty factors are dropped, and |q| is written only when it is not 1 or
    no factor is left.  The first term is bare or ``-``, later ones start
    with ``+ `` or ``- ``; an empty sum is ``0``.
    """
    parts = []
    for q, factors in terms:
        body = [f for f in factors if f]
        if abs(q) != 1 or not body:
            body.insert(0, str(abs(q)))
        sign = ("- " if q < 0 else "+ ") if parts else ("-" if q < 0 else "")
        parts.append(sign + "*".join(body))
    return " ".join(parts) or "0"


def ring_zero(spec: RingSpec) -> QuotientRingElement:
    return _element(spec, {}, 1)


def ring_one(spec: RingSpec) -> QuotientRingElement:
    return from_rational(spec, 1)


def from_rational(spec: RingSpec, q: Fraction | int) -> QuotientRingElement:
    """Embed a rational as a ring element (the (a, b) = (0, 0) slot)."""
    column = (q.numerator,) + (0,) * (spec.deg_z - 1)
    return _element(spec, {0: column}, q.denominator)


def zeta_power(spec: RingSpec, m: int) -> QuotientRingElement:
    """zeta^m as a ring element: z^{m mod g} reduced modulo Phi_g."""
    m %= spec.g
    vec = [0] * max(m + 1, spec.deg_z)
    vec[m] = 1
    return _element(spec, {0: _reduce_z(vec, spec.phi_g)}, 1)


def root_power(spec: RingSpec, k: int) -> QuotientRingElement:
    """c^{k/g} as a ring element: u^k reduced via u^g = c.

    Equals c^{k // g} * u^{k mod g}; requires k >= 0.
    """
    if k < 0:
        raise ValueError(f"root_power requires k >= 0, got k={k}")
    return QuotientRingElement(spec, {(0, k % spec.g): spec.c ** (k // spec.g)})
