"""Reference routes that the tests compare the library against.

The command line never runs these, so they live here rather than in
``vertalign``.  Each route computes a value the library also computes,
without the library's code for the step under test:

* ``lucas_coeff_alt``: T(n, k) by the sum form C(n-k, k) + C(n-k-1, k-1),
  against ``lucas_coeff``'s quotient, the diagonal walk ``_lucas_coeffs``
  and ``lucas_row``'s ratio recurrence; ``lucas_row_alt`` is the row of it;
  ``sum_form_rows`` holds the same sum form for every n <= n_max, built once
  per session from Pascal's triangle.
* ``binomial_falling`` / ``falling_row``: C(m, r) by the falling-factorial
  product, against ``binomial()``'s reflection for m < 0.
* ``binomial_expand``: (x + y)^n filled in from ``binomial()``, against a
  chain of list convolutions with x + y (``xy_symmetric_power``).  A form
  here is what ``lockwood_rhs`` returns: the tuple of its n + 1
  coefficients, of x^n down to y^n.
* ``aligned_term`` / ``term_coefficient``: the terms (xy)^k (x + y)^{n-2k}
  of the oracle's sum and their coefficients, against C(n-2k, i-k); with
  ``binomial_expand`` and ``shift_xy`` they also give the sum term by term,
  against the oracle's Horner expansion: ``lockwood_rhs``, the half
  ``_packed_half`` leaves in one int modulo 2^{(n//2+1)W}, unpacked and
  mirrored.  Unlike the sweep, which evaluates full forms on a plain list
  and only for rows whose chain row fails its ratio check, the oracle
  packs every form at y = 2^W and keeps only its residue.
* ``reference_sweep``: the Pascal-row sweep, against the chain and the
  Horner pass of ``alignment._sweep_range``.
* ``RingPolynomial``: a polynomial in x over R(g, c) whose coefficients
  are ring elements, against ``curves.RingPolynomial``, which holds a
  curve's coefficients as written terms; the routes below build their
  curves as these, and ``cells`` writes one's coefficients for
  comparison with a written curve's cells.
* ``reference_pullback``: the morphism pullback expanded entirely over
  R(g, c) with ``RingPolynomial`` products and T from ``lucas_coeff``,
  against ``curves.pullback_rhs``'s weights and w^g lifted into R(g, c)
  by ``lift``.
* ``lift`` / ``lifted``: integer weights of w^b made ring polynomials,
  each w^b a repeated product by w = zeta^i u, against the text that
  ``curves`` writes for them from the table of zeta^(ik); ``lifted`` does
  it for the source, pullback and residual of ``curves.verify_morphism``,
  the residual by ``ring_poly_sub``.
* ``pullback_weights_by_rows``: the pullback's integer weights summed over
  Pascal rows held as lists, for any row of T, against the packed rows of
  ``curves._pullback_weights``.
* ``reference_target``: the target built in R(g, c), each coefficient a
  product of ``zeta_power`` and ``root_power`` scaled by T from
  ``lucas_coeff_alt`` or a given row, against the target that
  ``curves.build_target`` writes from the table of zeta^(ik) and
  ``lucas_row``, and the cells of the ``curve`` command.
* ``coefficient_facts``: closed forms of two target coefficients, against
  the coefficients ``curves.build_target`` writes.
* ``reference_csv``: CSV text written by ``csv.writer``, against the plain
  join of ``cli._emit_csv``.
* ``reference_columns``: text columns padded cell by cell, against the
  column-by-column ``cli._columns``.
* ``TABLE_ROWS_EXPECTED``: the target curves for g = 5..11 written out by
  hand, term by term, against ``curves.table_rows`` and the ``table``
  command's JSON.
* ``zeta_power`` / ``root_power``: zeta^m and c^{k/g} as ring elements,
  one at a time, against the table of ``curves._zeta_table`` and the
  powers that ``curves._w_power`` builds from it.
* ``_u_to_one`` / ``folded_equation``: a ring element with u -> 1 over
  c = 1, and a curve's equation with its coefficients so folded, against
  the equation of ``curves.build_target``, which drops the text of u^k
  at c = 1.

The rest are the small helpers these routes and the tests build with:
``xy_symmetric_power`` (iterated list convolutions with (1, 1), for
comparison with ``binomial_expand``), ``shift_xy``, ``element`` (a ring
element from its rational coefficients), ``scaled`` (the product with a
rational), ``ring_one``, ``ring_power``, ``ring_neg`` and ``ring_sub``
(the negation and difference no command needs, which
``QuotientRingElement`` no longer carries) and the ``ring_poly_*``
arithmetic on ``RingPolynomial``; and ``built_target`` and ``pullback``,
which hand ``curves``' target and pullback the table of zeta^(ik) and the
row of T, as ``verify-morphism`` does.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, zip_longest

from vertalign import alignment, curves
from vertalign.combinatorics import binomial, lucas_coeff
from vertalign.quotient_ring import (
    QuotientRingElement,
    RingSpec,
    _element,
    _entry_terms,
    _power_text,
    _reduce_z,
    _terms_text,
    from_rational,
)


# -- combinatorics -----------------------------------------------------------


def lucas_coeff_alt(n: int, k: int) -> int:
    """T(n, k) via the sum form C(n-k, k) + C(n-k-1, k-1)."""
    if n < 1:
        raise ValueError(f"lucas_coeff_alt requires n >= 1, got n={n}")
    if not 0 <= k < n:
        raise ValueError(f"lucas_coeff_alt requires 0 <= k < n, got k={k}, n={n}")
    return binomial(n - k, k) + binomial(n - k - 1, k - 1)


def lucas_row_alt(n: int) -> tuple[int, ...]:
    """T(n, 0..n//2) by the sum form of ``lucas_coeff_alt``."""
    return tuple(lucas_coeff_alt(n, k) for k in range(n // 2 + 1))


@functools.cache
def sum_form_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Row n, for 1 <= n <= n_max, is T(n, 0..n-1) by the sum form of
    ``lucas_coeff_alt``, C(n-k, k) + C(n-k-1, k-1), zero past n//2.  Row 0
    is empty.

    Each binomial is read off Pascal's triangle built by additions, so the
    rows share their work and call neither ``binomial()`` nor ``math.comb``.
    """
    rows = [[0] * (n // 2 + 1) for n in range(n_max + 1)]
    pascal = [1]  # row m of Pascal's triangle
    for m in range(n_max + 1):
        for j in range(min(m, n_max - m) + 1):
            rows[m + j][j] += pascal[j]  # C(n-k, k) at n = m + j, k = j
            if m + j + 2 <= n_max:
                rows[m + j + 2][j + 1] += pascal[j]  # C(n-k-1, k-1) at k = j + 1
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1]
    return ((),) + tuple(
        tuple(rows[n]) + (0,) * (n - 1 - n // 2) for n in range(1, n_max + 1)
    )


def falling_row(m: int, r_max: int) -> list[int]:
    """[C(m, 0), ..., C(m, r_max)] by the falling-factorial product
    m(m-1)...(m-r+1)/r!, dividing by j at step j so that every value is an
    exact integer."""
    row = [1]
    for j in range(1, r_max + 1):
        row.append(row[-1] * (m - j + 1) // j)
    return row


def binomial_falling(m: int, r: int) -> int:
    """C(m, r) for any integer m by the falling-factorial product; 0 for r < 0."""
    return falling_row(m, r)[-1] if r >= 0 else 0


# -- the expansion oracle ----------------------------------------------------


def binomial_expand(n: int) -> tuple[int, ...]:
    """(x + y)^n filled in directly from binomial coefficients."""
    if n < 0:
        raise ValueError(f"binomial_expand requires n >= 0, got n={n}")
    return tuple(binomial(n, i) for i in range(n + 1))


def xy_symmetric_power(m: int) -> tuple[int, ...]:
    """(x + y)^m as a chain of m products by x + y, each the convolution of
    a coefficient list with (1, 1)."""
    if m < 0:
        raise ValueError(f"xy_symmetric_power requires m >= 0, got m={m}")
    power = [1]
    for _ in range(m):
        power = [a + b for a, b in zip(power + [0], [0] + power)]
    return tuple(power)


def shift_xy(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply a form by (xy)^k."""
    if k < 0:
        raise ValueError(f"shift requires k >= 0, got k={k}")
    pad = (0,) * k
    return pad + p + pad


def aligned_term(n: int, k: int) -> tuple[int, ...]:
    """The unsigned building block (xy)^k (x + y)^{n-2k}, fully expanded."""
    if n < 1:
        raise ValueError(f"aligned_term requires n >= 1, got n={n}")
    if not 0 <= k <= n // 2:
        raise ValueError(f"aligned_term requires 0 <= k <= n//2, got k={k}, n={n}")
    return shift_xy(xy_symmetric_power(n - 2 * k), k)


def term_coefficient(n: int, k: int, i: int) -> int:
    """Coefficient of x^{n-i} y^i in (xy)^k (x+y)^{n-2k}; equals C(n-2k, i-k)."""
    if not 0 <= i <= n:
        raise ValueError(f"term_coefficient requires 0 <= i <= n, got i={i}, n={n}")
    return aligned_term(n, k)[i]


# -- the alignment sweep -----------------------------------------------------


def reference_sweep(n_max: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The sweep summed over stored Pascal rows, with no chain and no Horner.

    Rows are lists built by the Pascal recurrence, and row n of totals is
    accumulated slice by slice.  T comes from the ``lucas_row`` that
    ``alignment`` reads for a row that fails its ratio check, so a fault
    injected there and in that check reaches both routes.
    """
    rows = [[1]]
    for m in range(1, n_max + 1):
        prev = rows[m - 1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, m)] + [1])
    checked = 0
    failures = []
    for n in range(2, n_max + 1):
        totals = [0] * (n + 1)
        for k, lucas in enumerate(alignment.lucas_row(n)):
            row = rows[n - 2 * k]
            weight = -lucas if k & 1 else lucas
            totals[k:k + len(row)] = [t + weight * v for t, v in zip(totals[k:], row)]
        checked += n - 1
        failures.extend((n, i, totals[i]) for i in range(1, n) if totals[i])
    return checked, tuple(failures)


def reference_csv(header: list[str], rows: list[list]) -> str:
    """The CSV text of ``header`` and ``rows`` as ``csv.writer`` writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def reference_columns(headers: list[str], rows: list[list]) -> str:
    """``headers`` over ``rows``, each column right-aligned to its widest
    cell and two spaces apart, widened and padded one cell at a time."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# -- elements of R(g, c) -----------------------------------------------------


def element(
    spec: RingSpec, entries: Mapping[tuple[int, int], Fraction | int]
) -> QuotientRingElement:
    """The element sum q z^a u^b over ``entries`` {(a, b): q}.

    Every key must be a basis index, 0 <= a < phi(g) and 0 <= b < g.  The
    rationals are put over the lcm of their denominators for ``_element``.
    """
    values = {}
    for (a, b), value in entries.items():
        if not 0 <= a < spec.deg_z or not 0 <= b < spec.g:
            raise ValueError(
                f"basis index ({a}, {b}) outside 0<={a}<{spec.deg_z}, 0<={b}<{spec.g}"
            )
        values[a, b] = Fraction(value)
    den = math.lcm(*(q.denominator for q in values.values()))
    return _element(spec, {
        key: q.numerator * (den // q.denominator) for key, q in values.items()
    }, den)


def scaled(x: QuotientRingElement, q: Fraction | int) -> QuotientRingElement:
    """The product of x with the rational q."""
    n = q.numerator
    return _element(x.spec, {key: n * v for key, v in x._terms.items()}, x._den * q.denominator)


def ring_one(spec: RingSpec) -> QuotientRingElement:
    return from_rational(spec, 1)


def ring_neg(x: QuotientRingElement) -> QuotientRingElement:
    return _element(x.spec, {key: -v for key, v in x._terms.items()}, x._den)


def ring_sub(x: QuotientRingElement, y: QuotientRingElement) -> QuotientRingElement:
    return x + ring_neg(y)


def zeta_power(spec: RingSpec, m: int) -> QuotientRingElement:
    """zeta^m as a ring element: z^{m mod g} reduced modulo Phi_g."""
    return _element(spec, _reduce_z({(m % spec.g, 0): 1}, spec), 1)


def root_power(spec: RingSpec, k: int) -> QuotientRingElement:
    """c^{k/g} as a ring element: u^k reduced via u^g = c.

    Equals c^{k // g} * u^{k mod g}; requires k >= 0.
    """
    if k < 0:
        raise ValueError(f"root_power requires k >= 0, got k={k}")
    return element(spec, {(0, k % spec.g): spec.c ** (k // spec.g)})


def _u_to_one(x: QuotientRingElement) -> QuotientRingElement:
    """x with u -> 1, for x in R(g, 1): each z^a u^b becomes z^a.

    u^g - 1 vanishes at u = 1, so this is a ring map into Q[z]/(Phi_g),
    embedded back as the b = 0 terms.  Numerators that land on the same a
    are summed, and what cancels is dropped by ``_element``.
    """
    acc: dict[tuple[int, int], int] = {}
    for (a, _), v in x._terms.items():
        acc[a, 0] = acc.get((a, 0), 0) + v
    return _element(x.spec, acc, x._den)


# -- polynomials over R(g, c) ------------------------------------------------


class RingPolynomial:
    """Univariate polynomial in x with R(g, c) coefficients.

    A curve y^2 = f(x) is its f, with ring elements as coefficients, where
    the library writes its curves as text terms.  ``coeffs`` maps each
    exponent to its coefficient and holds only the nonzero ones, so the
    zero polynomial holds none and polynomials compare as the pair
    (spec, coeffs).
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs: Mapping[int, QuotientRingElement]):
        self.spec = spec
        self.coeffs = {e: p for e, p in coeffs.items() if p._terms}

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


def _coefficient_term(terms: list, exponent: int) -> tuple:
    """One coefficient*x^exponent term for ``_terms_text``, from the
    coefficient's (q, factors) terms: a single term with its sign pulled
    out, several in parentheses."""
    xpart = _power_text("x", exponent)
    if len(terms) == 1:
        ((q, factors),) = terms
        return q, (*factors, xpart)
    return 1, (f"({_terms_text(terms)})", xpart)


def cells(f: RingPolynomial) -> dict[int, str]:
    """{x exponent: its coefficient's text} for each coefficient f holds,
    as a written curve's ``cells`` must read."""
    return {e: p.to_text() for e, p in f.coeffs.items()}


def ring_power(x: QuotientRingElement, exponent: int) -> QuotientRingElement:
    """x^exponent by repeated multiplication."""
    result = ring_one(x.spec)
    for _ in range(exponent):
        result = result * x
    return result


def ring_poly_dense(p: RingPolynomial) -> list[QuotientRingElement]:
    """The coefficients of x^0..x^degree, zeros included.

    The ``ring_poly_*`` helpers compute on these dense lists and map the
    result back by exponent, sharing no code with ``RingPolynomial``'s
    sparse arithmetic.
    """
    zero = from_rational(p.spec, 0)
    return [p.coeffs.get(e, zero) for e in range(p.degree + 1)]


def ring_poly_sub(p: RingPolynomial, q: RingPolynomial) -> RingPolynomial:
    """p - q coefficient by coefficient, on the sparse maps: an exponent held
    by one side needs no addition."""
    if p.spec != q.spec:
        raise ValueError("ring mismatch between polynomials")
    coeffs = dict(p.coeffs)
    for e, y in q.coeffs.items():
        x = coeffs.get(e)
        coeffs[e] = ring_neg(y) if x is None else ring_sub(x, y)
    return RingPolynomial(p.spec, coeffs)


def ring_poly_add(p: RingPolynomial, q: RingPolynomial) -> RingPolynomial:
    if p.spec != q.spec:
        raise ValueError("ring mismatch between polynomials")
    pairs = zip_longest(ring_poly_dense(p), ring_poly_dense(q), fillvalue=from_rational(p.spec, 0))
    return RingPolynomial(p.spec, dict(enumerate(a + b for a, b in pairs)))


def ring_poly_mul(p: RingPolynomial, q: RingPolynomial) -> RingPolynomial:
    if p.spec != q.spec:
        raise ValueError("ring mismatch between polynomials")
    if not p.coeffs or not q.coeffs:
        return RingPolynomial(p.spec, {})
    p_dense, q_dense = ring_poly_dense(p), ring_poly_dense(q)
    acc = [from_rational(p.spec, 0)] * (len(p_dense) + len(q_dense) - 1)
    for i, a in enumerate(p_dense):
        if not a._terms:
            continue
        for j, b in enumerate(q_dense):
            if b._terms:
                acc[i + j] = acc[i + j] + a * b
    return RingPolynomial(p.spec, dict(enumerate(acc)))


def ring_poly_scale(p: RingPolynomial, factor: QuotientRingElement) -> RingPolynomial:
    return RingPolynomial(p.spec, dict(enumerate(a * factor for a in ring_poly_dense(p))))


def ring_poly_shift(p: RingPolynomial, exponent: int) -> RingPolynomial:
    """Multiply by x^exponent."""
    if exponent < 0:
        raise ValueError("shift exponent must be nonnegative")
    if not p.coeffs:
        return p
    dense = [from_rational(p.spec, 0)] * exponent + ring_poly_dense(p)
    return RingPolynomial(p.spec, dict(enumerate(dense)))


def folded_equation(f: RingPolynomial) -> str:
    """``f.equation_text()`` with u read as 1 when c = 1: each coefficient
    folded by ``_u_to_one``, and one that folds to zero dropped."""
    if f.spec.c == 1:
        f = RingPolynomial(f.spec, {e: _u_to_one(p) for e, p in f.coeffs.items()})
    return f.equation_text()


def _table_and_row(spec: RingSpec, i: int) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    # Read through ``curves`` at each call, so a row faulted there reaches them.
    return curves._zeta_table(spec, i, (spec.g + 1) // 2), curves.lucas_row(spec.g)


def built_target(spec: RingSpec, i: int) -> curves.RingPolynomial:
    """``curves.build_target`` for the twist index i: the written target."""
    return curves.build_target(spec, *_table_and_row(spec, i))


def reference_target(spec: RingSpec, i: int, row=None) -> RingPolynomial:
    """The target sum_k (-1)^k T(g, k) zeta^(ik) c^(k/g) x^(g-2k) over R(g, c).

    Each coefficient is the product ``zeta_power(spec, i*k) *
    root_power(spec, k)``, scaled by (-1)^k T(g, k), with T from ``row``,
    or from ``lucas_row_alt`` if no row is given.  It shares no code with
    ``curves._zeta_table``, ``_weight_terms`` or ``build_target``: no table
    of zeta powers and no written terms.
    """
    g = spec.g
    return RingPolynomial(spec, {
        g - 2 * k: scaled(zeta_power(spec, i * k) * root_power(spec, k), (-1) ** k * t)
        for k, t in enumerate(lucas_row_alt(g) if row is None else row)
    })


def lift(spec: RingSpec, i: int, weights: list[int], w_g: QuotientRingElement) -> RingPolynomial:
    """sum_b weights[b] w^b x^(2g+1-2b) over R(g, c), for w = zeta^i u.

    w^b, for b < g, is b repeated products by w, made as far as the last
    nonzero weight below g; w^g is read as ``w_g``.
    """
    g = spec.g
    w = zeta_power(spec, i) * root_power(spec, 1)
    coeffs = {1: scaled(w_g, weights[g])}
    w_to_b = ring_one(spec)
    live = [b for b in range(g) if weights[b]]
    for b in range(live[-1] + 1 if live else 0):
        if weights[b]:
            coeffs[2 * g + 1 - 2 * b] = scaled(w_to_b, weights[b])
        w_to_b = w_to_b * w
    return RingPolynomial(spec, coeffs)


def pullback(spec: RingSpec, i: int) -> RingPolynomial:
    """``curves.pullback_rhs`` for the twist index i, lifted into R(g, c)."""
    weights, w_g = curves.pullback_rhs(spec, *_table_and_row(spec, i))
    return lift(spec, i, weights, w_g)


def lifted(spec: RingSpec, i: int, check) -> tuple[RingPolynomial, RingPolynomial, RingPolynomial]:
    """The source, pullback and residual of ``curves.verify_morphism(spec, i)``
    as ring polynomials: the source's weights [1, 0, ..., 0, 1] with w^g
    read as c, the pullback's with the product ``check.w_g``, and their
    difference."""
    g = spec.g
    source = lift(spec, i, [1] + [0] * (g - 1) + [1], from_rational(spec, spec.c))
    pulled = lift(spec, i, check.pullback, check.w_g)
    return source, pulled, ring_poly_sub(pulled, source)


def reference_pullback(spec, i: int) -> RingPolynomial:
    """The pullback expanded entirely over R(g, c).

    Powers of (x^2 + w) come from iterated RingPolynomial multiplication and
    T(g, k) from lucas_coeff, so it shares neither step with pullback_rhs.
    """
    g = spec.g
    w = zeta_power(spec, i) * root_power(spec, 1)
    base = RingPolynomial(spec, {0: w, 2: ring_one(spec)})  # x^2 + w
    powers = [RingPolynomial(spec, {0: ring_one(spec)})]
    for _ in range(g):
        powers.append(ring_poly_mul(powers[-1], base))
    total = RingPolynomial(spec, {})
    w_to_k = ring_one(spec)
    for k in range(g // 2 + 1):
        if k:
            w_to_k = w_to_k * w
        factor = scaled(w_to_k, (-1) ** k * lucas_coeff(g, k))
        term = ring_poly_shift(ring_poly_scale(powers[g - 2 * k], factor), 2 * k + 1)
        total = ring_poly_add(total, term)
    return total


def pullback_weights_by_rows(g: int, lucas: tuple[int, ...]) -> list[int]:
    """The weights of ``curves._pullback_weights``, one list entry per w^b.

    sum_k (-1)^k lucas[k] w^k x^{2k+1} (x^2 + w)^{g-2k}, with the rows of
    (x^2 + w)^m built by the additive Pascal recurrence on lists, each added
    into the slice of weights it reaches.
    """
    weights = [0] * (g + 1)
    row = [1]  # (x^2 + w)^m by w-exponent
    for m in range(g + 1):
        if m:
            row = list(map(operator.add, row + [0], [0] + row))
        if (g - m) % 2 == 0:
            k = (g - m) // 2
            signed = (-1) ** k * lucas[k]
            span = slice(k, k + m + 1)
            weights[span] = map(operator.add, weights[span], map(operator.mul, row, repeat(signed)))
    return weights


# -- target coefficients -----------------------------------------------------


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


# -- fixed data --------------------------------------------------------------

# (sign, magnitude, zeta exponent multiplier, x exponent) per row, g = 5..11.
TABLE_ROWS_EXPECTED = {
    5: [(1, 1, 0, 5), (-1, 5, 1, 3), (1, 5, 2, 1)],
    6: [(1, 1, 0, 6), (-1, 6, 1, 4), (1, 9, 2, 2), (-1, 2, 3, 0)],
    7: [(1, 1, 0, 7), (-1, 7, 1, 5), (1, 14, 2, 3), (-1, 7, 3, 1)],
    8: [(1, 1, 0, 8), (-1, 8, 1, 6), (1, 20, 2, 4), (-1, 16, 3, 2), (1, 2, 4, 0)],
    9: [(1, 1, 0, 9), (-1, 9, 1, 7), (1, 27, 2, 5), (-1, 30, 3, 3), (1, 9, 4, 1)],
    10: [
        (1, 1, 0, 10),
        (-1, 10, 1, 8),
        (1, 35, 2, 6),
        (-1, 50, 3, 4),
        (1, 25, 4, 2),
        (-1, 2, 5, 0),
    ],
    11: [
        (1, 1, 0, 11),
        (-1, 11, 1, 9),
        (1, 44, 2, 7),
        (-1, 77, 3, 5),
        (1, 55, 4, 3),
        (-1, 11, 5, 1),
    ],
}
