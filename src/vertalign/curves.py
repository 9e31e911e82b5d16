"""Hyperelliptic source/target curves and symbolic morphism verification.

The source curve is y^2 = x^{2g+1} + c x.  Substituting the coordinate map

    x -> (x^2 + w) / x,    y -> y / x^{(g+1)/2},    w = zeta^i c^{1/g}

into a degree-g target equation and clearing x^{g+1} turns the target's
right-hand side into a polynomial over R(g, c); the map is a morphism of the
stated shape exactly when that pullback reproduces x^{2g+1} + c x.  The
target whose coefficients are the sign-alternating Lucas coefficients
(-1)^k T(g, k) zeta^{ik} c^{k/g} makes the residual vanish identically, and
this module verifies that by full expansion, not by trusting it.

Everything is verified at the level of defining equations.  For even g the
exponent (g+1)/2 in the y-coordinate is a half-integer, so the map itself is
not polynomial there; y^2 / x^{g+1} still is, and that is the object being
checked.  Nonconstancy of the x-coordinate map is reported informationally,
and no further geometric properties (genus, smoothness, behavior at
infinity) are claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .combinatorics import lucas_row
from .quotient_ring import (
    QuotientRingElement,
    RingSpec,
    from_rational,
    ring_one,
    ring_zero,
    root_power,
    zeta_power,
)

__all__ = [
    "RingPolynomial",
    "CurveEquation",
    "MorphismReport",
    "CoefficientFacts",
    "TableEntry",
    "TableRow",
    "build_source",
    "build_target",
    "pullback_rhs",
    "verify_morphism",
    "coefficient_facts",
    "table_rows",
    "table_text",
]


@dataclass(frozen=True)
class RingPolynomial:
    """Univariate polynomial in x with R(g, c) coefficients, lowest first."""

    spec: RingSpec
    coeffs: tuple[QuotientRingElement, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1].is_zero():
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> QuotientRingElement:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return ring_zero(self.spec)

    def __add__(self, other: "RingPolynomial") -> "RingPolynomial":
        if self.spec != other.spec:
            raise ValueError("ring mismatch between polynomials")
        zero = ring_zero(self.spec)
        size = max(len(self.coeffs), len(other.coeffs))
        mine = list(self.coeffs) + [zero] * (size - len(self.coeffs))
        theirs = list(other.coeffs) + [zero] * (size - len(other.coeffs))
        return RingPolynomial(self.spec, tuple(p + q for p, q in zip(mine, theirs)))

    def __neg__(self) -> "RingPolynomial":
        return RingPolynomial(self.spec, tuple(-p for p in self.coeffs))

    def __sub__(self, other: "RingPolynomial") -> "RingPolynomial":
        return self + (-other)

    def __mul__(self, other: "RingPolynomial") -> "RingPolynomial":
        if self.spec != other.spec:
            raise ValueError("ring mismatch between polynomials")
        if self.is_zero() or other.is_zero():
            return RingPolynomial(self.spec, ())
        acc = [ring_zero(self.spec)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, p in enumerate(self.coeffs):
            if p.is_zero():
                continue
            for j, q in enumerate(other.coeffs):
                if not q.is_zero():
                    acc[i + j] = acc[i + j] + p * q
        return RingPolynomial(self.spec, tuple(acc))

    def scale(self, factor: QuotientRingElement | Fraction | int) -> "RingPolynomial":
        return RingPolynomial(self.spec, tuple(p * factor for p in self.coeffs))

    def shift(self, exponent: int) -> "RingPolynomial":
        """Multiply by x^exponent."""
        if exponent < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero():
            return self
        zero = ring_zero(self.spec)
        return RingPolynomial(self.spec, (zero,) * exponent + self.coeffs)

    def substitute_u(self, value: Fraction | int) -> "RingPolynomial":
        return RingPolynomial(
            self.spec, tuple(p.substitute_u(value) for p in self.coeffs)
        )

    def to_text(self) -> str:
        """Terms in descending x-degree with canonically rendered coefficients."""
        if self.is_zero():
            return "0"
        parts = []
        for exponent in range(len(self.coeffs) - 1, -1, -1):
            element = self.coeffs[exponent]
            if element.is_zero():
                continue
            sign, body = _coefficient_text(element, exponent)
            if not parts:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if sign > 0 else f"- {body}")
        return " ".join(parts)


def _coefficient_text(element: QuotientRingElement, exponent: int) -> tuple[int, str]:
    """Render one coefficient*x^exponent term, pulling the sign out when single."""
    xpart = "" if exponent == 0 else ("x" if exponent == 1 else f"x^{exponent}")
    entries = element.entries()
    if len(entries) == 1:
        ((a, b), q) = next(iter(entries.items()))
        factors = []
        if a:
            factors.append("z" if a == 1 else f"z^{a}")
        if b:
            factors.append("u" if b == 1 else f"u^{b}")
        if xpart:
            factors.append(xpart)
        mag = abs(q)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        return (1 if q > 0 else -1), "*".join(factors)
    body = f"({element.to_text()})"
    return 1, f"{body}*{xpart}" if xpart else body


@dataclass(frozen=True)
class CurveEquation:
    """A hyperelliptic defining equation y^2 = f(x) over R(g, c)."""

    spec: RingSpec
    f: RingPolynomial
    g: int
    c: Fraction
    i: int | None
    role: Literal["source", "target"]

    def equation_text(self, collapse_unit_root: bool = True) -> str:
        """The equation as text.

        When c = 1 (and collapsing is requested) the formal root u is
        specialized to the rational root 1, which is how these curves are
        conventionally written; other c keep the canonical u-form.
        """
        f = self.f
        if collapse_unit_root and self.c == 1:
            f = f.substitute_u(1)
        return f"y^2 = {f.to_text()}"


def build_source(spec: RingSpec) -> CurveEquation:
    """The curve y^2 = x^{2g+1} + c x over R(g, c)."""
    one = ring_one(spec)
    zero = ring_zero(spec)
    coeffs = [zero] * (2 * spec.g + 2)
    coeffs[2 * spec.g + 1] = one
    coeffs[1] = from_rational(spec, spec.c)
    f = RingPolynomial(spec, tuple(coeffs))
    return CurveEquation(spec, f, spec.g, spec.c, None, "source")


def _signed_lucas(g: int) -> list[int]:
    """(-1)^k T(g, k) for k = 0..g//2, without ``binomial()``.

    Uses the ratio T(g,k) / T(g,k-1) = (g-2k+2)(g-2k+1) / (k(g-k)); each
    division is checked to be exact.  The target and the pullback both read
    these values, so a fault here leaves a nonzero residual, and the tests
    compare them with ``lucas_coeff``.
    """
    values = [1]
    for k in range(1, g // 2 + 1):
        value, rest = divmod(values[-1] * (g - 2 * k + 2) * (g - 2 * k + 1), k * (g - k))
        if rest:
            raise AssertionError(f"T({g}, {k}) ratio recurrence left remainder {rest}")
        values.append(value)
    return [(-1) ** k * value for k, value in enumerate(values)]


def build_target(spec: RingSpec, i: int) -> CurveEquation:
    """The degree-g curve with coefficients (-1)^k T(g,k) zeta^{ik} c^{k/g}.

    Only the exponents g-2k occur, so consecutive coefficients alternate
    between nonzero and zero.  ``i`` selects which g-th root of unity twists
    the coefficients and must be 0 or 1.
    """
    if i not in (0, 1):
        raise ValueError(f"build_target requires i in {{0, 1}}, got i={i}")
    g = spec.g
    zero = ring_zero(spec)
    coeffs = [zero] * (g + 1)
    for k, signed in enumerate(_signed_lucas(g)):
        value = zeta_power(spec, i * k) * root_power(spec, k)
        coeffs[g - 2 * k] = value.scale(signed)
    f = RingPolynomial(spec, tuple(coeffs))
    return CurveEquation(spec, f, g, spec.c, i, "target")


def pullback_rhs(spec: RingSpec, i: int) -> RingPolynomial:
    """The target right-hand side after substitution and clearing x^{g+1}.

    Substituting x -> (x^2 + w)/x into the target and multiplying through by
    x^{g+1} leaves

        sum_k (-1)^k T(g,k) w^k x^{2k+1} (x^2 + w)^{g-2k},   w = zeta^i c^{1/g},

    which this function expands fully, in two steps.  First the sum is
    expanded over Z[x, w]: the rows of (x^2 + w)^m come from the additive
    Pascal recurrence and the T(g, k) from ``_signed_lucas``, as for the
    target, so this path calls neither ``binomial()``, ``lucas_coeff()`` nor
    the ``lockwood`` oracle.  The polynomial is homogeneous, so one integer weight
    per w-exponent b, at x^{2g+1-2b}, holds it.  Then each w^b is mapped into
    R(g, c) through w -> zeta^i c^{1/g} by repeated multiplication by w, which
    reduces w^g through Phi_g and u^g = c: g + 1 ring products in all.
    """
    if i not in (0, 1):
        raise ValueError(f"pullback_rhs requires i in {{0, 1}}, got i={i}")
    g = spec.g
    signed_lucas = _signed_lucas(g)
    weights = [0] * (g + 1)
    row = [1]  # (x^2 + w)^m by w-exponent
    for m in range(g + 1):
        if m:
            row = [p + q for p, q in zip(row + [0], [0] + row)]
        if (g - m) % 2 == 0:
            k = (g - m) // 2
            for j, entry in enumerate(row):
                weights[k + j] += signed_lucas[k] * entry
    w = zeta_power(spec, i) * root_power(spec, 1)
    coeffs = [ring_zero(spec)] * (2 * g + 2)
    w_to_b = ring_one(spec)
    for b, weight in enumerate(weights):
        if b:
            w_to_b = w_to_b * w
        coeffs[2 * g + 1 - 2 * b] = w_to_b.scale(weight)
    return RingPolynomial(spec, tuple(coeffs))


@dataclass(frozen=True)
class MorphismReport:
    """Result of checking pullback(target) == source at equation level.

    ``x_map_nonconstant`` records the one morphism property that is visible
    without geometry: the x-coordinate map (x^2 + w)/x is never constant.
    """

    g: int
    c: Fraction
    i: int
    holds: bool
    residual: RingPolynomial
    source: CurveEquation
    target: CurveEquation
    pullback: RingPolynomial
    x_map_nonconstant: bool = True


def verify_morphism(spec: RingSpec, i: int) -> MorphismReport:
    """Expand the pullback of the target and compare with x^{2g+1} + c x."""
    source = build_source(spec)
    target = build_target(spec, i)
    pullback = pullback_rhs(spec, i)
    residual = pullback - source.f
    return MorphismReport(
        g=spec.g,
        c=spec.c,
        i=i,
        holds=residual.is_zero(),
        residual=residual,
        source=source,
        target=target,
        pullback=pullback,
    )


@dataclass(frozen=True)
class CoefficientFacts:
    """Closed forms for two distinguished target coefficients.

    ``second`` is the coefficient of x^{g-2} (always -g).  ``last`` is the
    trailing coefficient: (-1)^{g/2} * 2 at x^0 for even g, and
    (-1)^{(g-1)/2} * g at x^1 for odd g.  Both are stated up to the
    zeta^{ik} c^{k/g} twist carried by the corresponding k.
    """

    g: int
    second: int
    last: int
    last_exponent: int


def coefficient_facts(g: int) -> CoefficientFacts:
    if g < 2:
        raise ValueError(f"coefficient_facts requires g >= 2, got g={g}")
    if g % 2 == 0:
        last = 2 * (-1) ** (g // 2)
        last_exponent = 0
    else:
        last = g * (-1) ** ((g - 1) // 2)
        last_exponent = 1
    return CoefficientFacts(g=g, second=-g, last=last, last_exponent=last_exponent)


@dataclass(frozen=True)
class TableEntry:
    """One term of a tabulated target curve: sign*magnitude*zeta^(zeta_exp*i)*x^x_exp."""

    k: int
    sign: int
    magnitude: int
    zeta_exp: int
    x_exp: int


@dataclass(frozen=True)
class TableRow:
    g: int
    entries: tuple[TableEntry, ...]

    def equation_text(self) -> str:
        """Row rendered with c = 1 and the zeta twist kept symbolic in i."""
        parts = []
        for entry in self.entries:
            factors = []
            if entry.magnitude != 1 or (entry.zeta_exp == 0 and entry.x_exp == 0):
                factors.append(str(entry.magnitude))
            if entry.zeta_exp == 1:
                factors.append("zeta^i")
            elif entry.zeta_exp > 1:
                factors.append(f"zeta^({entry.zeta_exp}i)")
            if entry.x_exp == 1:
                factors.append("x")
            elif entry.x_exp > 1:
                factors.append(f"x^{entry.x_exp}")
            body = "*".join(factors) if factors else "1"
            if not parts:
                parts.append(body if entry.sign > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if entry.sign > 0 else f"- {body}")
        return "y^2 = " + " ".join(parts)


def table_rows(g_min: int, g_max: int) -> list[TableRow]:
    """Target curves for g_min..g_max with c = 1 and symbolic zeta^{ik}."""
    if not 1 <= g_min <= g_max:
        raise ValueError(
            f"table_rows requires 1 <= g_min <= g_max, got {g_min}..{g_max}"
        )
    rows = []
    for g in range(g_min, g_max + 1):
        coeffs = lucas_row(g).coefficients
        entries = tuple(
            TableEntry(
                k=k,
                sign=(-1) ** k,
                magnitude=coeffs[k],
                zeta_exp=k,
                x_exp=g - 2 * k,
            )
            for k in range(g // 2 + 1)
        )
        rows.append(TableRow(g, entries))
    return rows


def table_text(rows: list[TableRow]) -> str:
    lines = ["g    curve C_i (c = 1)"]
    for row in rows:
        lines.append(f"{row.g:<4} {row.equation_text()}")
    return "\n".join(lines)
