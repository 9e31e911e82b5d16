import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    aligned_term,
    binomial_expand,
    lucas_coeff_alt,
    reference_sweep,
)
from vertalign import alignment
from vertalign.alignment import aligned_entries, identity_sum, identity_sweep
from vertalign.combinatorics import binomial, lucas_coeff, lucas_row, pascal_row
from vertalign.lockwood import BivariatePolynomial, verify_lockwood


class TestAlignedEntries:
    def test_11_3(self):
        assert aligned_entries(11, 3) == (165, 36, 7, 1)

    def test_12_6(self):
        assert aligned_entries(12, 6) == (924, 252, 70, 20, 6, 2, 1)

    def test_i_zero_is_anchor_only(self):
        for n in (0, 1, 5, 17):
            assert aligned_entries(n, 0) == (1,)

    def test_anchor_and_entry_formula(self):
        for n in range(0, 25):
            for i in range(n + 1):
                column = aligned_entries(n, i)
                assert column[0] == binomial(n, i)
                assert len(column) == min(i, n // 2) + 1
                for k, value in enumerate(column):
                    assert value == binomial(n - 2 * k, i - k)

    def test_values_sit_in_higher_rows(self):
        # Every aligned value is literally an entry of the row it points at.
        for n, i in [(11, 3), (12, 6), (9, 4), (20, 13)]:
            for k, value in enumerate(aligned_entries(n, i)):
                row = pascal_row(n - 2 * k)
                if 0 <= i - k <= n - 2 * k:
                    assert row[i - k] == value

    @pytest.mark.parametrize("n, i", [(5, -1), (5, 6), (-1, 0)])
    def test_domain_errors(self, n, i):
        with pytest.raises(ValueError):
            aligned_entries(n, i)


class TestIdentitySum:
    def test_11_3_term_table(self):
        terms, total = identity_sum(11, 3)
        assert terms == ((1, 165), (-11, 36), (44, 7), (-77, 1))
        assert total == 0

    def test_12_6_term_table(self):
        terms, total = identity_sum(12, 6)
        assert terms == (
            (1, 924),
            (-12, 252),
            (54, 70),
            (-112, 20),
            (105, 6),
            (-36, 2),
            (2, 1),
        )
        assert total == 0

    def test_5_2(self):
        terms, total = identity_sum(5, 2)
        assert [coeff * value for coeff, value in terms] == [10, -15, 5]
        assert total == 0

    def test_2_1_smallest(self):
        terms, total = identity_sum(2, 1)
        assert [coeff * value for coeff, value in terms] == [2, -2]
        assert total == 0

    @pytest.mark.parametrize("n, i", [(11, 0), (11, 11), (11, 12), (1, 0), (3, -2)])
    def test_domain_errors(self, n, i):
        with pytest.raises(ValueError):
            identity_sum(n, i)

    def test_report_internal_consistency(self):
        for n in range(2, 30):
            for i in range(1, n):
                terms, total = identity_sum(n, i)
                assert len(terms) == i + 1
                assert total == sum(coeff * value for coeff, value in terms)
                assert total == 0
                for k, (coeff, value) in enumerate(terms):
                    assert coeff == (-1) ** k * lucas_coeff(n, k)
                    assert value == binomial(n - 2 * k, i - k)

    def test_vanishing_term_regimes(self):
        # Past the halfway point each term dies, but for two different
        # reasons depending on whether its upper row index went negative.
        for n, i in [(11, 8), (12, 10), (7, 5), (20, 19)]:
            terms, _ = identity_sum(n, i)
            for k, (coeff, value) in enumerate(terms):
                m = n - 2 * k
                if 0 <= m < i - k:
                    assert value == 0
                    assert coeff * value == 0
                elif m < 0:
                    assert coeff == 0
                    assert value != 0
                    assert coeff * value == 0

    def test_k_tail_matches_binomial_expansion_coefficient(self):
        # Coefficient-level restatement: for 0 < i < n the k >= 1 portion
        # cancels the x^{n-i} y^i coefficient of the binomial expansion,
        # and the polynomial route computes the same portion term-free.
        for n in range(2, 61):
            tail_poly = None
            for k in range(1, n // 2 + 1):
                piece = aligned_term(n, k) * ((-1) ** k * lucas_coeff(n, k))
                tail_poly = piece if tail_poly is None else tail_poly + piece
            expansion = binomial_expand(n)
            for i in range(1, n):
                terms, _ = identity_sum(n, i)
                tail = sum(coeff * value for coeff, value in terms[1:])
                assert tail == -expansion.coeffs[i]
                if tail_poly is not None:
                    assert tail == tail_poly.coeffs[i]


class TestIdentitySweep:
    def test_counts(self):
        assert identity_sweep(2).pairs_checked == 1
        assert identity_sweep(12).pairs_checked == 66

    def test_no_failures_small(self):
        summary = identity_sweep(60)
        assert summary.pairs_checked == 59 * 60 // 2
        assert summary.failures == ()

    def test_matches_identity_sum(self):
        summary = identity_sweep(25)
        assert summary.failures == ()
        for n in range(2, 26):
            for i in range(1, n):
                assert identity_sum(n, i)[1] == 0

    def test_workers_do_not_change_result(self):
        serial = identity_sweep(40, workers=1)
        parallel = identity_sweep(40, workers=2)
        assert serial == parallel

    def test_random_pairs_agree_with_sweep_semantics(self):
        rng = random.Random(20260810)
        for _ in range(60):
            n = rng.randrange(2, 120)
            i = rng.randrange(1, n)
            assert identity_sum(n, i)[1] == 0

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            identity_sweep(bad)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            identity_sweep(10, workers=0)

    def test_reports_every_failing_pair_of_a_faulty_row(self, monkeypatch):
        # Perturb T(17, 3) as the sweep sees it; every pair of row 17 whose
        # sum reaches k = 3 must then be reported with the exact total the
        # definition gives for the perturbed value, and nothing else.
        n_bad, k_bad, delta = 17, 3, 5

        def faulty_row(n):
            row = lucas_row(n)
            if n == n_bad:
                row = row[:k_bad] + (row[k_bad] + delta,) + row[k_bad + 1:]
            return row

        def faulty_t(n, k):
            return lucas_coeff_alt(n, k) + (delta if (n, k) == (n_bad, k_bad) else 0)

        monkeypatch.setattr(alignment, "lucas_row", faulty_row)
        summary = identity_sweep(25)
        expected = []
        for n in range(2, 26):
            for i in range(1, n):
                total = sum(
                    (-1) ** k * faulty_t(n, k) * binomial(n - 2 * k, i - k)
                    for k in range(i + 1)
                )
                if total:
                    expected.append((n, i, total))
        assert len(expected) == n_bad - 2 * k_bad + 1
        assert summary.failures == tuple(expected)
        assert summary.pairs_checked == 24 * 25 // 2


# (n, k, delta) added to T(n, k).  2**4000 is far past the honest slot
# width.  T(20, 10) weighs row 0 of Pascal's triangle, C(0, 0) = 2^0, so
# its total 2**4000 meets the width bound with no slack: one bit less and
# that digit would read as -2**4000 with a carry.  T(25, 0) weighs the
# whole of row 25, so every total of that row moves by C(25, i).
SWEEP_FAULTS = {
    "honest": (2, 0, 0),
    "T(17,3)+5": (17, 3, 5),
    "T(40,7)-1": (40, 7, -1),
    "T(33,5)+2**4000": (33, 5, 2**4000),
    "T(20,10)+2**4000": (20, 10, 2**4000),
    "T(25,0)+1": (25, 0, 1),
}


def _inject_faults(monkeypatch, *faults):
    """Add delta to T(n, k), for each (n, k, delta), in the rows of T that
    ``alignment`` reads."""

    def faulty_row(n):
        row = list(lucas_row(n))
        for n_bad, k_bad, delta in faults:
            if n == n_bad:
                row[k_bad] += delta
        return tuple(row)

    monkeypatch.setattr(alignment, "lucas_row", faulty_row)


def _pairs(first, last):
    return sum(n - 1 for n in range(first, last + 1))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_packed_sweep_matches_list_reference(monkeypatch, fault, workers):
    n_bad, k_bad, delta = fault
    _inject_faults(monkeypatch, fault)
    if workers > 1:
        # Make sure a pool really starts, also on a one-CPU machine.
        monkeypatch.setattr(alignment.os, "cpu_count", lambda: workers)
    summary = identity_sweep(120, workers=workers)
    checked, failures = reference_sweep(120)
    assert (summary.pairs_checked, summary.failures) == (checked, failures)
    # The fault moves total_i by +-delta * C(n - 2k, i - k): every k <= i <= n - k.
    assert [(n, i) for n, i, _ in failures] == [
        (n_bad, i) for i in range(1, n_bad) if delta and k_bad <= i <= n_bad - k_bad
    ]


# Each faulty row of SWEEP_FAULTS lies in at least one of these ranges.
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_sweep_range_matches_list_reference_on_sub_ranges(monkeypatch, fault):
    _inject_faults(monkeypatch, fault)
    _, failures = reference_sweep(120)
    for first, last in [(2, 40), (17, 17), (30, 120)]:
        expected = [f for f in failures if first <= f[0] <= last]
        assert alignment._sweep_range(first, last) == (_pairs(first, last), expected)


# A row's slot width depends on that row alone, so splitting a range
# anywhere, down to one row per range, changes nothing.
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_split_sweep_range_concatenates_to_whole(monkeypatch, fault):
    _inject_faults(monkeypatch, fault)
    whole = alignment._sweep_range(2, 120)
    for ranges in ([(2, 24), (25, 25), (26, 33), (34, 120)], [(n, n) for n in range(2, 121)]):
        parts = [alignment._sweep_range(first, last) for first, last in ranges]
        assert (sum(c for c, _ in parts), [f for _, fs in parts for f in fs]) == whole


@st.composite
def _faults(draw):
    """One to three (n, k, delta) in rows 2..60, deltas past any slot width included."""
    deltas = st.one_of(
        st.integers(-3, 3).filter(bool),
        st.sampled_from([2**300, -(2**300), 2**300 - 1, -(2**4000)]),
    )
    faults = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 60))
        faults.append((n, draw(st.integers(0, n // 2)), draw(deltas)))
    return faults


# A faulty row differs from the additive chain, so it is evaluated by
# Horner, while the rows around it are still proved by the chain.
@settings(max_examples=60, deadline=None)
@given(faults=_faults(), first=st.integers(2, 60), last=st.integers(2, 60))
def test_sweep_with_random_faults_matches_list_reference(faults, first, last):
    first, last = sorted((first, last))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _inject_faults(monkeypatch, *faults)
        checked, failures = reference_sweep(60)
        summary = identity_sweep(60)
        assert (summary.pairs_checked, summary.failures) == (checked, failures)
        expected = [f for f in failures if first <= f[0] <= last]
        assert alignment._sweep_range(first, last) == (_pairs(first, last), expected)


class _WatchedRow(tuple):
    """A row of T that records its n when something iterates over it.

    Comparing it with the chain's row does not iterate; Horner does."""

    def __iter__(self):
        self.evaluated.append(self.n)
        return super().__iter__()


# Only a row that differs from the additive chain is evaluated, also in a
# range that starts past row 2, so the honest sweep is all induction.
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_sweep_range_evaluates_only_rows_that_differ(monkeypatch, fault):
    _inject_faults(monkeypatch, fault)
    faulty_row = alignment.lucas_row
    evaluated = []

    def watched_row(n):
        row = _WatchedRow(faulty_row(n))
        row.n, row.evaluated = n, evaluated
        return row

    monkeypatch.setattr(alignment, "lucas_row", watched_row)
    n_bad, _, delta = fault
    for first, last in [(2, 120), (17, 17), (30, 120)]:
        evaluated.clear()
        alignment._sweep_range(first, last)
        assert set(evaluated) == ({n_bad} if delta and first <= n_bad <= last else set())


def test_sweep_range_reads_each_row_of_t_once(monkeypatch):
    calls = []

    def counted_row(n):
        calls.append(n)
        return lucas_row(n)

    def forbidden(*args, **kwargs):
        raise AssertionError("the packed sweep called binomial() or lucas_coeff()")

    monkeypatch.setattr(alignment, "lucas_row", counted_row)
    monkeypatch.setattr(alignment, "binomial", forbidden)
    monkeypatch.setattr(alignment, "lucas_coeff", forbidden)
    assert alignment._sweep_range(2, 150) == (_pairs(2, 150), [])
    assert calls == list(range(2, 151))


def test_sweep_range_stores_no_rows():
    # Storing every Pascal row 0..400 at one shared width takes about 5.6 MB;
    # one row's Horner value at its own width is n * W_n bits, under 0.1 MB.
    tracemalloc.start()
    try:
        assert alignment._sweep_range(2, 400) == (_pairs(2, 400), [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_identity_path_never_calls_the_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the identity path used the expansion oracle")

    monkeypatch.setattr(BivariatePolynomial, "__init__", forbidden)
    with pytest.raises(AssertionError):
        verify_lockwood(3)
    for n in range(2, 40):
        aligned_entries(n, n // 2)
        assert all(identity_sum(n, i)[1] == 0 for i in range(1, n))
    assert identity_sweep(60).failures == ()
