"""Hyperelliptic source/target curves and symbolic morphism verification.

The source curve is y^2 = x^{2g+1} + c x.  Substituting the coordinate map

    x -> (x^2 + w) / x,    y -> y / x^{(g+1)/2},    w = zeta^i c^{1/g}

into a degree-g target equation and clearing x^{g+1} turns the target's
right-hand side into a polynomial over R(g, c); the map is a morphism of the
stated shape exactly when that pullback reproduces x^{2g+1} + c x.  The
target whose coefficients are the sign-alternating Lucas coefficients
(-1)^k T(g, k) zeta^{ik} c^{k/g} makes the residual vanish identically, and
this module verifies that by full expansion, not by trusting it.

That target's right-hand side is the Dickson polynomial

    D_g(x, w) = sum_k (-1)^k T(g, k) w^k x^{g-2k}

(R. Lidl, G. L. Mullen and G. Turnwald, *Dickson Polynomials*, 1993), and
the pullback is its functional equation D_g(s + w/s, w) = s^g + (w/s)^g at
s = x, times x^{g+1}: x^{2g+1} + w^g x, where w^g = c.

Everything is verified at the level of defining equations: a curve
y^2 = f(x) is held as its right-hand side f, a :class:`RingPolynomial`.  For
even g the exponent (g+1)/2 in the y-coordinate is a half-integer, so the
map itself is not polynomial there; y^2 / x^{g+1} still is, and that is the
object being checked.  The x-coordinate map (x^2 + w)/x is never constant,
and no further geometric properties (genus, smoothness, behavior at
infinity) are claimed.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .combinatorics import lucas_row
from .quotient_ring import (
    QuotientRingElement,
    RingSpec,
    _element,
    _entries_text,
    _power_text,
    _terms_text,
    _u_to_one,
    from_rational,
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
    """Univariate polynomial in x with R(g, c) coefficients.

    A curve y^2 = f(x) is its right-hand side f.  ``coeffs`` maps each
    exponent to its coefficient and holds only the nonzero ones, so the zero
    polynomial holds none and polynomials compare as the pair
    (spec, coeffs).  Operations cost the nonzero coefficients they read.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs: Mapping[int, QuotientRingElement]):
        self.spec = spec
        self.coeffs = {e: p for e, p in coeffs.items() if not p.is_zero()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingPolynomial):
            return NotImplemented
        return (self.spec, self.coeffs) == (other.spec, other.coeffs)

    @property
    def degree(self) -> int:
        """The largest exponent held, or -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __sub__(self, other: "RingPolynomial") -> "RingPolynomial":
        """Coefficient by coefficient; an exponent held by one side needs no addition."""
        if self.spec != other.spec:
            raise ValueError("ring mismatch between polynomials")
        coeffs = dict(self.coeffs)
        for e, q in other.coeffs.items():
            p = coeffs.get(e)
            coeffs[e] = -q if p is None else p - q
        return RingPolynomial(self.spec, coeffs)

    def to_text(self) -> str:
        """Terms in descending x-degree with canonically rendered coefficients."""
        return _terms_text(
            _coefficient_term(self.coeffs[e], e) for e in sorted(self.coeffs, reverse=True)
        )

    def equation_text(self) -> str:
        """The curve y^2 = self as text.

        When c = 1 the formal root u is read as 1, which is how these curves
        are conventionally written: each coefficient is folded by
        ``_u_to_one``, and one that folds to zero is dropped.  Other c keep
        the canonical u-form.
        """
        f = self
        if self.spec.c == 1:
            f = RingPolynomial(self.spec, {e: _u_to_one(p) for e, p in self.coeffs.items()})
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
    return 1, (f"({_entries_text(entries)})", xpart)


def build_source(spec: RingSpec) -> RingPolynomial:
    """The curve y^2 = x^{2g+1} + c x over R(g, c): two nonzero coefficients."""
    one, c = from_rational(spec, 1), from_rational(spec, spec.c)
    return RingPolynomial(spec, {2 * spec.g + 1: one, 1: c})


def _zeta_table(spec: RingSpec, i: int) -> list[dict[int, int]]:
    """zeta^{ik} for k = 0..ceil(g/2), each as {a: v} reduced modulo Phi_g.

    For i = 0 every entry is 1.  For i = 1 each entry is the last one times
    z: every key moves up by one, and only the level z^phi(g) that this
    reaches is folded back, through Phi_g's nonzero lower terms, as
    z^phi(g) = -sum_j Phi_g[j] z^j.  So the table costs no ring product.
    With u^k it gives w^k for w = zeta^i c^{1/g} (see ``_w_power``).  The
    target reads w^0..w^{g//2}; the pullback reads the whole table.
    ``i`` selects which g-th root of unity twists w and must be 0 or 1; it
    is checked here, before any ring work, for every caller.
    """
    if i not in (0, 1):
        # Named for the target curve, which every command that reads i builds.
        raise ValueError(f"build_target requires i in {{0, 1}}, got i={i}")
    top = (spec.g + 1) // 2
    if i == 0:
        return [{0: 1} for _ in range(top + 1)]
    width, low = spec.deg_z, spec.phi_low
    table = [{0: 1}]
    for _ in range(top):
        entry = {a + 1: v for a, v in table[-1].items()}
        v = entry.pop(width, 0)
        if v:
            for j, p in low:
                entry[j] = entry.get(j, 0) - v * p
            entry = {a: v for a, v in entry.items() if v}
        table.append(entry)
    return table


def _w_power(
    spec: RingSpec, zeta_table: list[dict[int, int]], k: int, scale: int
) -> QuotientRingElement:
    """scale * w^k = scale * zeta^{ik} c^{k/g} for k <= ceil(g/2), as one element.

    ``zeta_table[k]`` (from ``_zeta_table``) gives zeta^{ik}, and each of its
    terms is re-keyed to u^k.  Only at g = 1 does k reach g, and there u = c
    is folded in directly.
    """
    q, r = divmod(k, spec.g)
    c = spec.c
    n = scale * c.numerator**q
    return _element(spec, {(a, r): n * v for a, v in zeta_table[k].items()}, c.denominator**q)


def build_target(
    spec: RingSpec,
    i: int,
    zeta_table: list[dict[int, int]] | None = None,
    lucas: tuple[int, ...] | None = None,
) -> RingPolynomial:
    """The degree-g curve with coefficients (-1)^k T(g,k) zeta^{ik} c^{k/g}.

    Only the exponents g-2k occur, one coefficient each, built straight
    into the polynomial's map.  Each is (-1)^k T(g, k) w^k from
    ``_w_power``, one element and no ring product, and T(g, k) comes from
    ``lucas_row``: the same values the pullback reads, so a fault in either
    leaves a nonzero residual.  ``i`` must be 0 or 1 (see ``_zeta_table``).
    ``zeta_table``, if given, is ``_zeta_table(spec, i)`` and ``lucas``, if
    given, is ``lucas_row(g)``, both already computed by the caller
    (``verify_morphism``).
    """
    g = spec.g
    if zeta_table is None:
        zeta_table = _zeta_table(spec, i)
    if lucas is None:
        lucas = lucas_row(g)
    return RingPolynomial(spec, {
        g - 2 * k: _w_power(spec, zeta_table, k, -t if k & 1 else t) for k, t in enumerate(lucas)
    })


def _pullback_weights(g: int, lucas: tuple[int, ...]) -> list[int]:
    """The pullback over Z[x, w]: the integer weight of w^b, at x^{2g+1-2b}, per b.

    sum_k (-1)^k lucas[k] w^k x^{2k+1} (x^2 + w)^{g-2k} is homogeneous, so
    one weight per w-exponent b = 0..g holds it.  The sum is taken term by
    term at x^2 = 1, w = 2^V, where a polynomial in w is one int: the rows
    (x^2 + w)^m come from the additive Pascal recurrence, one step
    ``row += row << V`` each, and term k adds (-1)^k lucas[k] row << kV.
    No slot is masked and no ring is built.  With
    S = sum_k |lucas[k]| 2^{g-2k}, from the row in use, and
    V = 1 + bit_length(S), every weight is at most S < 2^{V-1} in size
    (C(m, j) <= 2^m), so the g + 1 balanced base-2^V digits of the total
    are the weights, even for a faulted row.

    Put y = w/x in the ``lockwood`` oracle's sum for x^g + y^g and multiply
    by x^{g+1}: it becomes this sum, with the coefficient of x^{g-b} y^b at
    w^b.  So the weights equal ``lockwood_rhs(g).coeffs`` for the same T,
    which the tests check.  The two share no code: here an explicit sum of
    unmasked Pascal rows, there masked Horner in (x + y)^2.
    """
    width = 1 + sum(abs(t) << (g - 2 * k) for k, t in enumerate(lucas)).bit_length()
    total = 0
    row = 1  # (x^2 + w)^m at x^2 = 1, w = 2^width
    for m in range(g + 1):
        if m:
            row += row << width
        if (g - m) % 2 == 0:
            k = (g - m) // 2
            total += ((-lucas[k] if k & 1 else lucas[k]) * row) << (k * width)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    weights = []
    for _ in range(g + 1):
        digit = total & mask
        total >>= width
        if digit >= half:
            digit -= mask + 1
            total += 1
        weights.append(digit)
    return weights


def pullback_rhs(
    spec: RingSpec, zeta_table: list[dict[int, int]], lucas: tuple[int, ...]
) -> RingPolynomial:
    """The target right-hand side after substitution and clearing x^{g+1}.

    Substituting x -> (x^2 + w)/x into the target and multiplying through by
    x^{g+1} leaves

        sum_k (-1)^k T(g,k) w^k x^{2k+1} (x^2 + w)^{g-2k},   w = zeta^i c^{1/g},

    which this function expands fully, in two steps.  ``zeta_table`` is
    ``_zeta_table(spec, i)`` and ``lucas`` is ``lucas_row(g)``, the two that
    ``verify_morphism`` also hands the target.  First the sum is expanded
    over Z[x, w] by ``_pullback_weights``, with the T(g, k) from ``lucas``,
    so this path calls neither ``binomial()``, ``lucas_coeff()`` nor the
    ``lockwood`` oracle: one integer weight per w-exponent b, at
    x^{2g+1-2b}.  Then each nonzero weight becomes the coefficient
    weight * w^b of x^{2g+1-2b} in R(g, c).  Up to top = ceil(g/2), that is
    one element from ``zeta_table``, via ``_w_power``; above it, the one
    product weight * w^top * w^(b-top).  Only those coefficients are
    stored: an honest run has nonzero weights at b = 0 and b = g only, so
    the pullback holds x^{2g+1} and x^1, and for g >= 2, w^g = c is still
    checked by that ring product, reduced through Phi_g and u^g = c.  At
    g = 1, w^g = u is read as c directly.
    """
    g = spec.g
    top = (g + 1) // 2
    coeffs = {}
    for b, weight in enumerate(_pullback_weights(g, lucas)):
        if not weight:
            continue
        if b <= top:
            coeff = _w_power(spec, zeta_table, b, weight)
        else:
            coeff = _w_power(spec, zeta_table, top, weight) * _w_power(spec, zeta_table, b - top, 1)
        coeffs[2 * g + 1 - 2 * b] = coeff
    return RingPolynomial(spec, coeffs)


def verify_morphism(
    spec: RingSpec, i: int
) -> tuple[RingPolynomial, RingPolynomial, RingPolynomial, RingPolynomial]:
    """Expand the pullback of the target and compare with x^{2g+1} + c x.

    Returns (source, target, pullback, residual), where residual is
    pullback - source; the morphism holds exactly when it is zero.  The
    table of zeta^{ik} and the row T(g, .) are computed here once and
    handed to the target and the pullback both, which reads i only through
    the table; a bad ``i`` is refused before any of them.  An honest run
    makes one ring product, w^g = w^ceil(g/2) * w^(g//2), for g >= 2, and
    none for g = 1.
    """
    zeta_table = _zeta_table(spec, i)
    lucas = lucas_row(spec.g)
    source = build_source(spec)
    target = build_target(spec, i, zeta_table, lucas)
    pullback = pullback_rhs(spec, zeta_table, lucas)
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
    """The rows of ``table_rows`` as equations, the zeta twist kept symbolic in i.

    Term k is (-1)^k T(g, k) zeta^(ki) x^(g-2k), written as ``_terms_text``
    would write it.  Each term's text is built directly: T(g, 0) = 1 makes
    the first term x^g, and every later term is its sign, T(g, k) >= 2, its
    zeta factor and its x factor unless g = 2k.
    """
    lines = ["g    curve C_i (c = 1)"]
    for g, row in rows:
        terms = [_power_text("x", g)]
        for k in range(1, len(row)):
            x = _power_text("x", g - 2 * k)
            terms.append(f"{'- ' if k & 1 else '+ '}{row[k]}*{_zeta_text(k)}{'*' if x else ''}{x}")
        lines.append(f"{g:<4} y^2 = " + " ".join(terms))
    return "\n".join(lines)
