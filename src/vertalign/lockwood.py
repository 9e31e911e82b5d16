"""Brute-force expansion oracle for the alignment dependence.

Expands the right-hand side of the two-variable identity

    x^n + y^n = sum_{k=0}^{n//2} (-1)^k * T(n, k) * (xy)^k * (x+y)^{n-2k}

in exact integer arithmetic and compares it with x^n + y^n.  Its
coefficient of x^{n-i} y^i is the signed sum checked by
:mod:`vertalign.alignment`, so this module is the independent check of that
one.  A form of degree n is one row of n + 1 integers indexed by the power
of y.  The sum is expanded by Horner in (x + y)^2 (see
:func:`_packed_half`), so no power of (x + y) is stored and no two big
rows are multiplied.

Every term (xy)^k (x+y)^{n-2k} is symmetric in x and y, so the sum is too,
for any coefficients in place of T(n, k).  Each Horner form is packed in
one int at x = 1, y = 2^W and reduced modulo 2^{(n//2+1)W}, which keeps
slots 0..n//2; W bounds every slot of the final form, from the row of T in
use, so the residue fixes their balanced digits.  The half of x^n + y^n
packs to 1, which is all :func:`verify_lockwood` compares;
:func:`lockwood_rhs` unpacks the half and mirrors it into the full form.
The symmetry is a fact about the terms, not about T, and the terms are
linearly independent, so a wrong T(n, k) still gives a symmetric form that
is not x^n + y^n.

What stays independent of what: :func:`_packed_half` takes its row as an
argument, and both callers pass T from the ratio recurrence of
:func:`vertalign.combinatorics.lucas_row`; this module does not import
:func:`vertalign.combinatorics.binomial` at all.  The ``sweep`` route
builds T by an additive chain, checks each chain row against T's ratio
multiplied out, and passes ``lucas_row`` only for a row that fails to its
own evaluator, ``alignment._row_totals(n, row)``: Horner in (1 + S)^2 on
full forms held as plain lists.  The ``verify-morphism`` route sums over
Z[x, w] by a product tree of unmasked powers of 1 + w,
``curves._pullback_weights(g, row)``.  The masked Horner pass here shares
no code with either, and neither :mod:`vertalign.alignment` nor
:mod:`vertalign.curves` binds anything from here.
"""

from __future__ import annotations

from collections.abc import Iterable

from .combinatorics import lucas_row
from .quotient_ring import _power_text, _terms_text

__all__ = ["BivariatePolynomial", "lockwood_rhs", "verify_lockwood"]


class BivariatePolynomial:
    """A homogeneous form of degree n in x, y, written: ``coeffs[b]`` is
    the coefficient of x^{n-b} y^b, one tuple of n + 1 ints.

    The oracle hands out its forms as those tuples; this class only writes
    one, as ``curves.RingPolynomial`` writes a curve.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a form of degree n needs n + 1 coefficients, got none")

    # The benchmark tracer wraps the product by an int by name, as
    # ``lockwood.poly_mul``; no command runs it.
    def __mul__(self, other: int) -> "BivariatePolynomial":
        if not isinstance(other, int):
            return NotImplemented
        return BivariatePolynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def to_text(self) -> str:
        """Canonical text form: graded-lex order with x > y, leading term first."""
        n = len(self.coeffs) - 1
        return _terms_text(
            (coeff, (_power_text("x", n - b), _power_text("y", b)))
            for b, coeff in enumerate(self.coeffs)
            if coeff
        )


def _packed_half(n: int, row: tuple[int, ...]) -> tuple[int, int]:
    """Half of sum_{k=0}^{n//2} (-1)^k row[k] (xy)^k (x+y)^{n-2k}, packed.

    Returns ``(h, W)``: slot j of the half, the coefficient of
    x^{n-j} y^j for 0 <= j <= n//2, is balanced base-2^W digit j of h, so
    h = sum_j c_j 2^{jW} with every |c_j| < 2^{W-1}.

    Horner in (x + y)^2 over ``row``, which the callers pass as T(n): h_0 =
    row[0] and h_k = (x+y)^2 h_{k-1} + (-1)^k row[k] (xy)^k, with one more
    factor x + y when n is odd.  At x = 1, y = 2^W a form is one int, and
    (x+y)^2 h is h + (h << (W+1)) + (h << 2W).  Three facts make it exact:

    * Slots above n//2 vanish modulo 2^{(n//2+1)W}, and Horner only adds
      and multiplies, so Horner on residues gives the residue of the final
      form's low half, sum_{j<=n//2} c_j 2^{jW}.
    * Let B = sum_k |row[k]| 2^{n-2k} and W = 1 + bit_length(B), so
      2^{W-1} > B.  Slot i of the final form is
      sum_k (-1)^k row[k] C(n-2k, i-k), and C(n-2k, .) <= 2^{n-2k}, so
      |c_i| <= B < 2^{W-1}.  Only the final slots need this bound; a
      wrong T widens the slots instead of overflowing them.
    * So |sum_{j<=n//2} c_j 2^{jW}| < 2^{(n//2+1)W-1}: recentred into
      that range once, the residue is the half, with digits c_j.
    """
    bound = 0  # B, by Horner in 4 over k and one more doubling for odd n
    for t in row:
        bound = (bound << 2) + abs(t)
    width = 1 + (bound << (n & 1)).bit_length()
    mask = (1 << ((n // 2 + 1) * width)) - 1
    h = row[0]
    for k in range(1, len(row)):
        term = -row[k] if k & 1 else row[k]
        h = (h + (h << (width + 1)) + (h << (2 * width)) + (term << (k * width))) & mask
    if n & 1:
        h = (h + (h << width)) & mask
    if h > mask >> 1:
        h -= mask + 1
    return h, width


def lockwood_rhs(n: int) -> tuple[int, ...]:
    """Expand sum_{k=0}^{n//2} (-1)^k T(n,k) (xy)^k (x+y)^{n-2k} exactly.

    Returns its n + 1 coefficients, of x^n down to y^n.  The interior terms
    cancel, leaving x^n + y^n; callers check that rather than trust it.
    The n//2 + 1 digits of :func:`_packed_half` are unpacked from the
    bottom and followed by their mirror.
    """
    h, width = _packed_half(n, lucas_row(n))
    mask = (1 << width) - 1
    half = []
    for _ in range(n // 2 + 1):
        digit = h & mask
        if digit >> (width - 1):
            digit -= 1 << width
        half.append(digit)
        h = (h - digit) >> width
    return (*half, *half[(n & 1) - 2::-1])


def _residual(n: int) -> tuple[int, ...]:
    """:func:`lockwood_rhs` minus x^n + y^n: zero exactly when n holds."""
    first, *middle, last = lockwood_rhs(n)
    return (first - 1, *middle, last - 1)


def verify_lockwood(n: int) -> bool:
    """True iff the expanded sum collapses to exactly x^n + y^n.

    The half of x^n + y^n is slots 1, 0, ..., 0 for every n >= 1, so its
    packed value is 1; the digits being unique, the sum is x^n + y^n
    exactly when :func:`_packed_half` returns h == 1.  No form is built.
    """
    return _packed_half(n, lucas_row(n))[0] == 1


def _verify_range(n_start: int, n_end: int) -> tuple[range, list[int]]:
    """The n checked, n_start..n_end, and those for which the expansion is
    not x^n + y^n."""
    ns = range(n_start, n_end + 1)
    return ns, [n for n in ns if not verify_lockwood(n)]
