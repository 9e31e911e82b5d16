"""Hyperelliptic source/target curves and symbolic morphism verification.

The source curve is y^2 = x^{2g+1} + c x.  Substituting the coordinate map

    x -> (x^2 + w) / x,    y -> y / x^{(g+1)/2},    w = zeta^i c^{1/g}

into a degree-g target equation and clearing x^{g+1} turns the target's
right-hand side into a polynomial over R(g, c); the map is a morphism of the
stated shape exactly when that pullback reproduces x^{2g+1} + c x.  The
target whose coefficients are the sign-alternating Lucas coefficients
(-1)^k T(g, k) zeta^{ik} c^{k/g} makes the residual vanish identically, and
this module verifies that by full expansion, not by trusting it.

Everything is verified at the level of defining equations: a curve
y^2 = f(x) is held as its right-hand side f, a :class:`RingPolynomial`.  For
even g the exponent (g+1)/2 in the y-coordinate is a half-integer, so the
map itself is not polynomial there; y^2 / x^{g+1} still is, and that is the
object being checked.  The x-coordinate map (x^2 + w)/x is never constant,
and no further geometric properties (genus, smoothness, behavior at
infinity) are claimed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .combinatorics import lucas_row
from .quotient_ring import (
    QuotientRingElement,
    RingSpec,
    _power_text,
    _terms_text,
    from_rational,
    ring_one,
    ring_zero,
    root_power,
    zeta_power,
)

__all__ = [
    "RingPolynomial",
    "build_source",
    "build_target",
    "pullback_rhs",
    "verify_morphism",
    "table_rows",
    "table_text",
]


class RingPolynomial:
    """Univariate polynomial in x with R(g, c) coefficients, lowest first.

    A curve y^2 = f(x) is its right-hand side f.  Trailing zero
    coefficients are dropped, so polynomials compare as the tuple
    (spec, coeffs).
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs: tuple[QuotientRingElement, ...]):
        trimmed = list(coeffs)
        while trimmed and trimmed[-1].is_zero():
            trimmed.pop()
        self.spec, self.coeffs = spec, tuple(trimmed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingPolynomial):
            return NotImplemented
        return (self.spec, self.coeffs) == (other.spec, other.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> QuotientRingElement:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return ring_zero(self.spec)

    def __sub__(self, other: "RingPolynomial") -> "RingPolynomial":
        """Coefficient by coefficient; a pair with a zero side needs no addition."""
        if self.spec != other.spec:
            raise ValueError("ring mismatch between polynomials")
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=ring_zero(self.spec))
        return RingPolynomial(self.spec, tuple(
            p if q.is_zero() else -q if p.is_zero() else p - q for p, q in pairs
        ))

    def substitute_u(self, value: Fraction | int) -> "RingPolynomial":
        return RingPolynomial(
            self.spec, tuple(p.substitute_u(value) for p in self.coeffs)
        )

    def to_text(self) -> str:
        """Terms in descending x-degree with canonically rendered coefficients."""
        return _terms_text(
            _coefficient_term(self.coeffs[exponent], exponent)
            for exponent in range(len(self.coeffs) - 1, -1, -1)
            if not self.coeffs[exponent].is_zero()
        )

    def equation_text(self) -> str:
        """The curve y^2 = self as text.

        When c = 1 the formal root u is specialized to the rational root 1,
        which is how these curves are conventionally written; other c keep
        the canonical u-form.
        """
        f = self.substitute_u(1) if self.spec.c == 1 else self
        return f"y^2 = {f.to_text()}"

    def __repr__(self) -> str:
        return f"RingPolynomial(g={self.spec.g}, c={self.spec.c}, {self.to_text()})"


# Only an alias: the benchmark's tracer (bench/tracer.py) wraps
# ``CurveEquation.equation_text`` by that name.
CurveEquation = RingPolynomial


def _coefficient_term(
    element: QuotientRingElement, exponent: int
) -> tuple[Fraction | int, tuple[str, ...]]:
    """One coefficient*x^exponent term, pulling the sign out when single."""
    xpart = _power_text("x", exponent)
    entries = element.entries()
    if len(entries) == 1:
        (((a, b), q),) = entries.items()
        return q, (_power_text("z", a), _power_text("u", b), xpart)
    return 1, (f"({element.to_text()})", xpart)


def build_source(spec: RingSpec) -> RingPolynomial:
    """The curve y^2 = x^{2g+1} + c x over R(g, c)."""
    coeffs = [ring_zero(spec)] * (2 * spec.g + 2)
    coeffs[2 * spec.g + 1] = ring_one(spec)
    coeffs[1] = from_rational(spec, spec.c)
    return RingPolynomial(spec, tuple(coeffs))


def _w_powers(spec: RingSpec, i: int, top: int) -> list[QuotientRingElement]:
    """w^0..w^top for w = zeta^i c^{1/g}, by repeated multiplication by w.

    Each product reduces through Phi_g and u^g = c, so the list costs top + 1
    ring products; the target and the pullback both read it.  ``i`` selects
    which g-th root of unity twists w and must be 0 or 1; it is checked here,
    before any ring product, for every caller.
    """
    if i not in (0, 1):
        # Named for the target curve, which every command that reads i builds.
        raise ValueError(f"build_target requires i in {{0, 1}}, got i={i}")
    w = zeta_power(spec, i) * root_power(spec, 1)
    powers = [ring_one(spec)]
    for _ in range(top):
        powers.append(powers[-1] * w)
    return powers


def build_target(
    spec: RingSpec, i: int, w_powers: list[QuotientRingElement] | None = None
) -> RingPolynomial:
    """The degree-g curve with coefficients (-1)^k T(g,k) zeta^{ik} c^{k/g}.

    Only the exponents g-2k occur, so consecutive coefficients alternate
    between nonzero and zero.  zeta^{ik} c^{k/g} is w^k from ``_w_powers``
    and T(g, k) comes from ``lucas_row``, the same values the pullback
    reads, so a fault in either leaves a nonzero residual.  ``i`` must be
    0 or 1 (see ``_w_powers``).  ``w_powers``, if given, is
    ``_w_powers(spec, i, top)`` for some top >= g//2, already computed by
    the caller.
    """
    g = spec.g
    if w_powers is None:
        w_powers = _w_powers(spec, i, g // 2)
    coeffs = [ring_zero(spec)] * (g + 1)
    for k, lucas in enumerate(lucas_row(g)):
        coeffs[g - 2 * k] = w_powers[k].scale((-1) ** k * lucas)
    return RingPolynomial(spec, tuple(coeffs))


def pullback_rhs(
    spec: RingSpec, i: int, w_powers: list[QuotientRingElement] | None = None
) -> RingPolynomial:
    """The target right-hand side after substitution and clearing x^{g+1}.

    Substituting x -> (x^2 + w)/x into the target and multiplying through by
    x^{g+1} leaves

        sum_k (-1)^k T(g,k) w^k x^{2k+1} (x^2 + w)^{g-2k},   w = zeta^i c^{1/g},

    which this function expands fully, in two steps.  First the sum is
    expanded over Z[x, w]: the rows of (x^2 + w)^m come from the additive
    Pascal recurrence and the T(g, k) from ``lucas_row``, as for the
    target, so this path calls neither ``binomial()``, ``lucas_coeff()`` nor
    the ``lockwood`` oracle.  The polynomial is homogeneous, so one integer weight
    per w-exponent b, at x^{2g+1-2b}, holds it.  Then each w^b is mapped into
    R(g, c) through ``_w_powers``: g + 1 ring products in all, none if the
    caller passes ``w_powers`` = ``_w_powers(spec, i, g)``.
    """
    g = spec.g
    if w_powers is None:
        w_powers = _w_powers(spec, i, g)
    lucas = lucas_row(g)
    weights = [0] * (g + 1)
    row = [1]  # (x^2 + w)^m by w-exponent
    for m in range(g + 1):
        if m:
            row = [p + q for p, q in zip(row + [0], [0] + row)]
        if (g - m) % 2 == 0:
            k = (g - m) // 2
            signed = (-1) ** k * lucas[k]
            for j, entry in enumerate(row):
                weights[k + j] += signed * entry
    coeffs = [ring_zero(spec)] * (2 * g + 2)
    for b, (weight, w_to_b) in enumerate(zip(weights, w_powers)):
        coeffs[2 * g + 1 - 2 * b] = w_to_b.scale(weight)
    return RingPolynomial(spec, tuple(coeffs))


def verify_morphism(
    spec: RingSpec, i: int
) -> tuple[RingPolynomial, RingPolynomial, RingPolynomial, RingPolynomial]:
    """Expand the pullback of the target and compare with x^{2g+1} + c x.

    Returns (source, target, pullback, residual), where residual is
    pullback - source; the morphism holds exactly when it is zero.  w^0..w^g
    are computed once, for the target and the pullback both, and a bad
    ``i`` is refused before any of them.
    """
    w_powers = _w_powers(spec, i, spec.g)
    source = build_source(spec)
    target = build_target(spec, i, w_powers)
    pullback = pullback_rhs(spec, i, w_powers)
    return source, target, pullback, pullback - source


def _zeta_text(exponent: int) -> str:
    """zeta^(exponent*i), with i kept symbolic."""
    return "" if exponent == 0 else "zeta^i" if exponent == 1 else f"zeta^({exponent}i)"


def table_rows(g_min: int, g_max: int) -> list[tuple[int, tuple[int, ...]]]:
    """(g, T(g, .)) for g_min..g_max: the target curves with c = 1.

    Term k of the curve for g is (-1)^k T(g, k) zeta^{ik} x^{g-2k}.
    """
    if not 1 <= g_min <= g_max:
        raise ValueError(
            f"table_rows requires 1 <= g_min <= g_max, got {g_min}..{g_max}"
        )
    return [(g, lucas_row(g)) for g in range(g_min, g_max + 1)]


def table_text(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    """The rows of ``table_rows`` as equations, the zeta twist kept symbolic in i."""
    lines = ["g    curve C_i (c = 1)"]
    for g, row in rows:
        terms = _terms_text(
            ((-1) ** k * t, (_zeta_text(k), _power_text("x", g - 2 * k)))
            for k, t in enumerate(row)
        )
        lines.append(f"{g:<4} y^2 = {terms}")
    return "\n".join(lines)
