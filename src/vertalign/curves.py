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

A curve y^2 = f(x) is its right-hand side f.  At each power of x, every
curve a morphism check reads has an integer times a power of
w = zeta^i c^{1/g}: the source 1 at x^{2g+1} and w^g = c at x, the
pullback W_b w^b at x^{2g+1-2b}.  So ``verify_morphism`` holds the
source, the pullback and the residual as integer weights of w^b,
b = 0..g, and decides on them; R(g, c) is needed only to check w^g = c,
by one ring product, and to write each r w^b, for b < g, from the table
of zeta^{ik} at u^b.  The check never builds the target's ring elements:
``target_text`` writes its equation straight from the row of T and the
same table, and ``build_target`` builds them, as a
:class:`RingPolynomial`, only for the coefficient cells of ``curve``.
The pullback's integer stage sums its terms by a product tree at
w = 2^V, and an honest total is read without unpacking it.  For
even g the exponent (g+1)/2 in the y-coordinate is a half-integer, so the
map itself is not polynomial there; y^2 / x^{g+1} still is, and that is the
object being checked.  The x-coordinate map (x^2 + w)/x is never constant,
and no further geometric properties (genus, smoothness, behavior at
infinity) are claimed.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress

from .combinatorics import lucas_row
from .quotient_ring import (
    QuotientRingElement,
    RingSpec,
    _element,
    _entry_terms,
    _power_text,
    _terms_text,
    from_rational,
)

__all__ = [
    "RingPolynomial",
    "build_source",
    "build_target",
    "pullback_rhs",
    "target_text",
    "MorphismCheck",
    "verify_morphism",
    "table_rows",
    "table_text",
]


class RingPolynomial:
    """Univariate polynomial in x with R(g, c) coefficients.

    A curve y^2 = f(x) is its right-hand side f; ``build_target`` builds
    the target as one, for the cells of ``curve``.  ``coeffs`` maps each
    exponent to its coefficient and holds only the nonzero ones, so the zero
    polynomial holds none and polynomials compare as the pair
    (spec, coeffs).
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

    def to_text(self) -> str:
        """Terms in descending x-degree with canonically rendered coefficients."""
        return _terms_text(
            _coefficient_term(_entry_terms(self.coeffs[e].entries()), e)
            for e in sorted(self.coeffs, reverse=True)
        )

    def equation_text(self) -> str:
        """The curve y^2 = self as text, in the canonical u-form for every c."""
        return f"y^2 = {self.to_text()}"

    def __repr__(self) -> str:
        return f"RingPolynomial(g={self.spec.g}, c={self.spec.c}, {self.to_text()})"


# Only an alias: the benchmark's tracer (bench/tracer.py) wraps
# ``CurveEquation.equation_text`` by that name.
CurveEquation = RingPolynomial


def _coefficient_term(
    terms: list[tuple[Fraction | int, tuple[str, str]]], exponent: int
) -> tuple[Fraction | int, tuple[str, ...]]:
    """One coefficient*x^exponent term for ``_terms_text``.

    The coefficient is given by its nonzero terms q*z^a*u^b in ascending
    (a, b), each as (q, (z^a text, u^b text)).  A single term has its sign
    pulled out; several are written in parentheses.
    """
    xpart = _power_text("x", exponent)
    if len(terms) == 1:
        ((q, factors),) = terms
        return q, (*factors, xpart)
    return 1, (f"({_terms_text(terms)})", xpart)


def build_source(spec: RingSpec) -> RingPolynomial:
    """The curve y^2 = x^{2g+1} + c x over R(g, c): two nonzero coefficients.

    No command builds it: ``verify_morphism`` holds the source as the
    weights [1, 0, ..., 0, 1].  It stays because the benchmark's tracer
    (bench/tracer.py) wraps it by name.
    """
    one, c = from_rational(spec, 1), from_rational(spec, spec.c)
    return RingPolynomial(spec, {2 * spec.g + 1: one, 1: c})


def _zeta_table(spec: RingSpec, i: int, last: int) -> list[dict[int, int]]:
    """zeta^{ik} for k = 0..last, each as {a: v} reduced modulo Phi_g.

    For i = 0 every entry is 1.  For i = 1 each entry is the last one times
    z: every key moves up by one, and only the level z^phi(g) that this
    reaches is folded back, through Phi_g's nonzero lower terms, as
    z^phi(g) = -sum_j Phi_g[j] z^j.  So the table costs no ring product.
    With u^k it gives w^k for w = zeta^i c^{1/g} (see ``_w_power``).  The
    target reads w^0..w^{g//2}, and a morphism check w^0..w^{ceil(g/2)}, or
    on to w^{g-1} when a faulted pullback has a weight there.
    ``i`` selects which g-th root of unity twists w and must be 0 or 1; it
    is checked here, before any ring work, for every caller.
    """
    if i not in (0, 1):
        # Named for the target curve, which every command that reads i writes.
        raise ValueError(f"build_target requires i in {{0, 1}}, got i={i}")
    if i == 0:
        return [{0: 1} for _ in range(last + 1)]
    width, low = spec.deg_z, spec.phi_low
    table = [{0: 1}]
    for _ in range(last):
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
    spec: RingSpec, zeta_table: list[dict[int, int]], lucas: tuple[int, ...]
) -> RingPolynomial:
    """The degree-g curve with coefficients (-1)^k T(g,k) zeta^{ik} c^{k/g}.

    Only the exponents g-2k occur, one coefficient each, built straight
    into the polynomial's map.  Each is (-1)^k T(g, k) w^k from
    ``_w_power``, one element and no ring product.  ``zeta_table`` is
    ``_zeta_table(spec, i)``, through which alone i is read, and ``lucas``
    is ``lucas_row(g)``.  The commands write every target equation by
    ``target_text``, and build this polynomial only for the cells of
    ``curve``'s JSON and CSV.
    """
    g = spec.g
    return RingPolynomial(spec, {
        g - 2 * k: _w_power(spec, zeta_table, k, -t if k & 1 else t) for k, t in enumerate(lucas)
    })


def _w_terms(r: int, zeta: dict[int, int], u: str) -> list[tuple[int, tuple[str, str]]]:
    """The terms of r * zeta^{ik} u^k: ``zeta`` is the table's entry k and
    ``u`` the text of u^k, and each term is (q, (z^a text, u^k text)), in
    ascending a, as ``_coefficient_term`` reads them.

    For k < g this is r * w^k, written exactly as the element
    ``_w_power(spec, table, k, r)`` is, with no element built.
    """
    return [(r * v, (_power_text("z", a), u)) for a, v in sorted(zeta.items())]


def target_text(
    spec: RingSpec, zeta_table: list[dict[int, int]], lucas: tuple[int, ...]
) -> str:
    """The target curve y^2 = sum_k (-1)^k T(g, k) w^k x^{g-2k} as text.

    Written straight from the row of T and the table of zeta^{ik}, with no
    ring element: term k is (-1)^k T(g, k) zeta^{ik} u^k, and for
    k <= g//2 < g that is zeta^{ik}'s table entry times (-1)^k T(g, k) at
    u^k, by ``_w_terms``.  When c = 1, u is read as 1, which is how these
    curves are conventionally written; other c keep the canonical u-form.
    The text is ``build_target``'s ``equation_text``, with u folded to 1
    when c = 1, for any row, honest or faulted.  ``zeta_table`` and
    ``lucas`` are as for ``build_target``.
    """
    g = spec.g
    fold = spec.c == 1
    terms = []
    for k, t in enumerate(lucas):
        if not t:
            continue
        t, u, zeta = -t if k & 1 else t, "" if fold else _power_text("u", k), zeta_table[k]
        if len(zeta) == 1:
            # Most powers of zeta are one z^a.  Their term, as _coefficient_term
            # would give it, is written without its list: about 4% of a
            # morphism request (10 of 10 benchmark pairs on two seeds).
            ((a, v),) = zeta.items()
            terms.append((t * v, (_power_text("z", a), u, _power_text("x", g - 2 * k))))
        else:
            terms.append(_coefficient_term(_w_terms(t, zeta, u), g - 2 * k))
    return "y^2 = " + _terms_text(terms)


def _pullback_weights(g: int, lucas: tuple[int, ...]) -> list[int]:
    """The pullback over Z[x, w]: the integer weight of w^b, at x^{2g+1-2b}, per b.

    sum_k (-1)^k lucas[k] w^k x^{2k+1} (x^2 + w)^{g-2k} is homogeneous, so
    one weight per w-exponent b = 0..g holds it.  The sum is taken at
    x^2 = 1, w = 2^V, where a polynomial in w is one int, by a product tree
    over the terms.  With s_k = (-1)^k lucas[k] and

        F(lo, hi) = sum_{lo <= k < hi} s_k w^{k-lo} (1 + w)^{2(hi-1-k)},

    a leaf is F(k, k+1) = s_k, and a range splits at its middle as

        F(lo, hi) = F(lo, mid) (1 + w)^{2(hi-mid)} + w^{mid-lo} F(mid, hi),

    with each (1 + w)^{2m} made once, by squaring.  The sum is
    F(0, g//2 + 1), times one more 1 + w for odd g.  No slot is masked and
    no ring is built.  With S = sum_k |lucas[k]| 2^{g-2k}, from the row in
    use, and V = 1 + bit_length(S), every weight is at most S < 2^{V-1} in
    size (C(m, j) <= 2^m), so the g + 1 balanced base-2^V digits of the
    total are the weights, even for a faulted row.  Those digits are
    unique, so a total of exactly 1 + 2^{gV} is the honest row
    [1, 0, ..., 0, 1] and is returned without unpacking; any other total is
    unpacked digit by digit.

    Put y = w/x in the ``lockwood`` oracle's sum for x^g + y^g and multiply
    by x^{g+1}: it becomes this sum, with the coefficient of x^{g-b} y^b at
    w^b.  So the weights equal ``lockwood_rhs(g).coeffs`` for the same T,
    which the tests check.  The two share no code: here a product tree of
    unmasked powers of 1 + w, there masked Horner in (x + y)^2.
    """
    width = 1 + sum(abs(t) << (g - 2 * k) for k, t in enumerate(lucas)).bit_length()
    one_plus_w = (1 << width) + 1
    squares = {1: one_plus_w * one_plus_w}  # m -> (1 + w)^{2m}

    def square_power(m: int) -> int:
        p = squares.get(m)
        if p is None:
            p = square_power(m >> 1) ** 2
            if m & 1:
                p *= squares[1]
            squares[m] = p
        return p

    def tree(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return -lucas[lo] if lo & 1 else lucas[lo]
        mid = (lo + hi) // 2
        return tree(lo, mid) * square_power(hi - mid) + (tree(mid, hi) << (mid - lo) * width)

    total = tree(0, len(lucas))
    if g & 1:
        total *= one_plus_w
    if total == 1 + (1 << g * width):
        return [1] + [0] * (g - 1) + [1]
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
) -> tuple[list[int], QuotientRingElement]:
    """The target right-hand side after substitution and clearing x^{g+1}.

    Substituting x -> (x^2 + w)/x into the target and multiplying through by
    x^{g+1} leaves

        sum_k (-1)^k T(g,k) w^k x^{2k+1} (x^2 + w)^{g-2k},   w = zeta^i c^{1/g},

    which is held on integers, as the pair (weights, w^g).  ``weights[b]``,
    for b = 0..g, is the integer weight of w^b at x^{2g+1-2b}, from
    ``_pullback_weights``: a product tree at w = 2^V with the T(g, k) from
    ``lucas``, so this path calls neither ``binomial()``,
    ``lucas_coeff()`` nor the ``lockwood`` oracle.  w^g is the one ring
    product w^ceil(g/2) * w^(g//2) of two elements from ``zeta_table``,
    reduced through Phi_g and u^g = c; at g = 1 it is w itself, read as c
    by ``_w_power``.  ``zeta_table`` is ``_zeta_table(spec, i, last)`` with
    last >= ceil(g/2), and ``lucas`` is ``lucas_row(g)``, the two that
    ``verify_morphism`` also writes the target from.
    """
    g = spec.g
    w_g = _w_power(spec, zeta_table, (g + 1) // 2, 1)
    if g > 1:
        w_g = w_g * _w_power(spec, zeta_table, g // 2, 1)
    return _pullback_weights(g, lucas), w_g


# A morphism check held on integers.  ``source``, ``pullback`` and
# ``residual`` are each g + 1 weights: entry b is the integer r_b of the
# term r_b w^b at x^{2g+1-2b}.  ``w_g`` is w^g from ``pullback_rhs``'s one
# ring product, ``zeta_table`` the table of zeta^{ik} that the terms are
# written from, and ``lucas`` the row of T that the target is written from.
MorphismCheck = namedtuple(
    "MorphismCheck", ["holds", "source", "pullback", "residual", "w_g", "zeta_table", "lucas"]
)


def verify_morphism(spec: RingSpec, i: int) -> MorphismCheck:
    """Expand the pullback of the target and compare with x^{2g+1} + c x.

    The source is the weights [1, 0, ..., 0, 1], the pullback the weights
    of ``pullback_rhs`` and the residual their difference, as plain ints.
    The table of zeta^{ik} (to ceil(g/2)) and the row T(g, .) are computed
    here once; the pullback reads i only through the table, and a bad
    ``i`` is refused before either is read.  The target is not built: the
    check never reads its coefficients, and a fault in T still reaches the
    residual through the pullback.  ``target_text`` writes it from the
    table and row that the result carries.  An honest run makes one ring
    product, w^g = w^ceil(g/2) * w^(g//2), for g >= 2, and none for g = 1,
    and builds no other element than its factors and the c it is compared
    with.
    """
    g = spec.g
    top = (g + 1) // 2
    zeta_table = _zeta_table(spec, i, top)
    lucas = lucas_row(g)
    pullback, w_g = pullback_rhs(spec, zeta_table, lucas)
    source = [1] + [0] * (g - 1) + [1]
    residual = list(map(operator.sub, pullback, source))
    # The residual's coefficient of x^{2g+1-2b} is r_b w^b.  The map
    # Q[w]/(w^g - c) -> R(g, c), w -> zeta^i u, is an injective ring map:
    # it sends w^b, for b < g, to zeta^{ib} u^b, a unit times a power of u
    # that no other b shares.  So r_b w^b, with w^g read as c != 0,
    # vanishes in R(g, c) exactly when r_b = 0, once the ring's own w^g,
    # the one product, is checked to be c.
    holds = not any(residual) and w_g == from_rational(spec, spec.c)
    if any(pullback[top + 1:g]):
        # Only a faulted row reaches w^b past ceil(g/2): run the table on.
        zeta_table = _zeta_table(spec, i, g - 1)
    return MorphismCheck(holds, source, pullback, residual, w_g, zeta_table, lucas)


def _morphism_curves(spec: RingSpec, check: MorphismCheck) -> tuple[dict, dict, dict]:
    """The source, pullback and residual of ``check`` as written coefficients.

    Each curve is {x exponent: its coefficient's terms}, in descending
    exponent, with only the nonzero coefficients: r_b w^b, for b < g, is
    written by ``_w_terms`` from the table's entry at u^b.  The source's
    x^1 term is the rational c.  A failing check writes the pullback's and
    the residual's x^1 coefficients from the ring's w^g, as the elements
    r_g w^g and r_g w^g - c; those are r_g c and (r_g - 1) c unless a
    fault in w made w^g miss c.
    """
    g, c, table = spec.g, spec.c, check.zeta_table

    def written(weights: list[int], linear: list) -> dict:
        curve = {
            2 * g + 1 - 2 * b: _w_terms(weights[b], table[b], _power_text("u", b))
            for b in compress(range(g), weights)
        }
        if linear:
            curve[1] = linear
        return curve

    source = written(check.source, [(c, ("", ""))])
    if check.holds:
        # The pullback's weights are the source's and w^g = c: the same terms.
        return source, source, {}
    x = check.w_g * from_rational(spec, check.pullback[g])
    linear = [_entry_terms(y.entries()) for y in (x, x + from_rational(spec, -c))]
    return source, written(check.pullback, linear[0]), written(check.residual, linear[1])


def _curve_text(curve: dict) -> str:
    """A curve of ``_morphism_curves`` as its polynomial's text."""
    return _terms_text(_coefficient_term(terms, e) for e, terms in curve.items())


def _curve_cells(curve: dict) -> dict[int, str]:
    """A curve of ``_morphism_curves`` as {x exponent: its coefficient's text}."""
    return {e: _terms_text(terms) for e, terms in curve.items()}


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
