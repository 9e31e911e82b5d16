import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _faults import fault_chain, fault_identity, fault_sweep, forbid
from _reference import (
    aligned_term,
    binomial_expand,
    lucas_coeff_alt,
    reference_sweep,
)
from vertalign import alignment, cli, combinatorics, lockwood
from vertalign.alignment import aligned_entries, identity_sum, identity_sweep
from vertalign.combinatorics import binomial, lucas_coeff, lucas_row, pascal_row
from vertalign.lockwood import verify_lockwood


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
            tail_poly = [0] * (n + 1)
            for k in range(1, n // 2 + 1):
                signed = (-1) ** k * lucas_coeff(n, k)
                tail_poly = [t + signed * c for t, c in zip(tail_poly, aligned_term(n, k))]
            expansion = binomial_expand(n)
            for i in range(1, n):
                terms, _ = identity_sum(n, i)
                tail = sum(coeff * value for coeff, value in terms[1:])
                assert tail == -expansion[i]
                assert tail == tail_poly[i]

    @pytest.mark.parametrize(
        "n, i, k_bad, delta",
        [
            (17, 8, 3, 5),  # nonzero band
            (40, 30, 7, -1),
            (12, 11, 8, 2),  # past n//2, where C(-4, 3) = -20 meets T(12, 8) = 0
            (25, 12, 0, 1),  # T(25, 0) weighs the anchor C(25, 12)
        ],
    )
    def test_faulty_t_reports_its_exact_total(self, monkeypatch, capsys, n, i, k_bad, delta):
        # Perturb T(n, k_bad) as identity_sum reads it: the total must be
        # exactly the perturbation times its signed column entry, and the
        # CLI must report the dependence as failing.
        fault_identity(monkeypatch, n, k_bad, delta)
        expected = (-1) ** k_bad * delta * binomial(n - 2 * k_bad, i - k_bad)
        assert expected
        terms, total = identity_sum(n, i)
        assert total == expected
        assert terms[k_bad][0] == (-1) ** k_bad * (lucas_coeff(n, k_bad) + delta)
        assert cli.main(["identity", str(n), str(i)]) == 1
        out = capsys.readouterr().out
        assert out.endswith(f"total = {expected}\nholds: no\n")

    def test_calls_binomial_only_to_seed_the_column(self, monkeypatch):
        # identity_sum takes T from its own walk: no lucas_coeff() call, and
        # binomial() only inside aligned_column, once for the seed C(n, i)
        # and once per reseed, where m = n - 2k is 0 or 1 or the entry
        # C(m, r) is in the zero band 0 <= m < r.
        inside, binomial_calls = [], []
        honest_binomial, honest_column = combinatorics.binomial, alignment.aligned_column

        def counted_binomial(m, r):
            assert inside, "binomial() called outside aligned_column"
            binomial_calls.append((m, r))
            return honest_binomial(m, r)

        def column(*args):
            inside.append(True)
            try:
                return honest_column(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(combinatorics, "binomial", counted_binomial)
        forbid(monkeypatch, "identity_sum called lucas_coeff()", (combinatorics, "lucas_coeff"))
        monkeypatch.setattr(alignment, "aligned_column", column)
        for n, i in [*((n, i) for n in range(2, 61) for i in range(1, n)), (1000, 875), (999, 500)]:
            binomial_calls.clear()
            assert identity_sum(n, i)[1] == 0
            reseeds = sum(n - 2 * k in (0, 1) or 0 <= n - 2 * k < i - k for k in range(i))
            assert len(binomial_calls) == 1 + reseeds, (n, i)


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

        def faulty_t(n, k):
            return lucas_coeff_alt(n, k) + (delta if (n, k) == (n_bad, k_bad) else 0)

        fault_sweep(monkeypatch, (n_bad, k_bad, delta))
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


# (n, k, delta) added to T(n, k).  2**4000 dwarfs every honest total.
# T(20, 10) weighs row 0 of Pascal's triangle, C(0, 0), so its total is the
# delta alone, at the centre slot i = 10.  T(25, 0) weighs the whole of row
# 25, so every total of that row moves by C(25, i).  Rows 2 and 3 are the
# shortest even and odd rows: row 2's last Horner state fills every slot of
# its list, and row 3 takes the extra factor 1 + S.
SWEEP_FAULTS = {
    "honest": (2, 0, 0),
    "T(17,3)+5": (17, 3, 5),
    "T(40,7)-1": (40, 7, -1),
    "T(33,5)+2**4000": (33, 5, 2**4000),
    "T(20,10)+2**4000": (20, 10, 2**4000),
    "T(25,0)+1": (25, 0, 1),
    "T(2,1)+1": (2, 1, 1),
    "T(3,1)-1": (3, 1, -1),
    "T(3,0)+2**4000": (3, 0, 2**4000),
}


def _pairs(first, last):
    return sum(n - 1 for n in range(first, last + 1))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_packed_sweep_matches_list_reference(monkeypatch, fault, workers):
    n_bad, k_bad, delta = fault
    fault_sweep(monkeypatch, fault)
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
    fault_sweep(monkeypatch, fault)
    _, failures = reference_sweep(120)
    for first, last in [(2, 40), (17, 17), (30, 120)]:
        expected = [f for f in failures if first <= f[0] <= last]
        assert alignment._sweep_range(first, last) == (_pairs(first, last), expected)


# A row is checked on its own, so splitting a range anywhere, down to one
# row per range, changes nothing.
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_split_sweep_range_concatenates_to_whole(monkeypatch, fault):
    fault_sweep(monkeypatch, fault)
    whole = alignment._sweep_range(2, 120)
    for ranges in ([(2, 24), (25, 25), (26, 33), (34, 120)], [(n, n) for n in range(2, 121)]):
        parts = [alignment._sweep_range(first, last) for first, last in ranges]
        assert (sum(c for c, _ in parts), [f for _, fs in parts for f in fs]) == whole


@st.composite
def _fault_lists(draw):
    """One to three (n, k, delta) in rows 2..60, deltas far past any honest total included."""
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
@given(faults=_fault_lists(), first=st.integers(2, 60), last=st.integers(2, 60))
def test_sweep_with_random_faults_matches_list_reference(faults, first, last):
    first, last = sorted((first, last))
    with pytest.MonkeyPatch.context() as monkeypatch:
        fault_sweep(monkeypatch, *faults)
        checked, failures = reference_sweep(60)
        summary = identity_sweep(60)
        assert (summary.pairs_checked, summary.failures) == (checked, failures)
        expected = [f for f in failures if first <= f[0] <= last]
        assert alignment._sweep_range(first, last) == (_pairs(first, last), expected)


# Only a faulted row fails the ratio check, reads lucas_row and is
# evaluated, also in a range that starts past row 2, so the honest sweep is
# all induction.
@pytest.mark.parametrize("fault", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
def test_sweep_range_evaluates_only_rows_that_differ(monkeypatch, fault):
    fault_sweep(monkeypatch, fault)
    faulty_row = alignment.lucas_row
    evaluated = []

    def counted_row(n):
        evaluated.append(n)
        return faulty_row(n)

    monkeypatch.setattr(alignment, "lucas_row", counted_row)
    n_bad, _, delta = fault
    for first, last in [(2, 120), (17, 17), (30, 120)]:
        evaluated.clear()
        alignment._sweep_range(first, last)
        assert evaluated == ([n_bad] if delta and first <= n_bad <= last else [])


def test_sweep_range_reads_no_row_of_t_when_honest(monkeypatch):
    forbid(
        monkeypatch,
        "the honest sweep used lucas_row or the identity's binomials or T",
        (alignment, "lucas_row"),
        (combinatorics, "lucas_row"),
        (combinatorics, "binomial"),
        (combinatorics, "lucas_coeff"),
        (alignment, "aligned_column"),
        (alignment, "_lucas_coeffs"),
    )
    assert alignment._sweep_range(2, 150) == (_pairs(2, 150), [])


def test_sweep_range_checks_the_chain_rather_than_trusting_it(monkeypatch):
    # A wrong entry R(17, 3) + 5 in the chain's output, with its internal
    # state left alone, fails the check, so row 17 is evaluated from
    # lucas_row's honest T and reports nothing.
    calls = []

    def counted_row(n):
        calls.append(n)
        return lucas_row(n)

    fault_chain(monkeypatch, 17, 3, 5)
    monkeypatch.setattr(alignment, "lucas_row", counted_row)
    assert alignment._sweep_range(2, 40) == (_pairs(2, 40), [])
    assert calls == [17]


def test_sweep_range_stores_no_rows():
    # Storing every Pascal row 0..400 as lists takes about 4.8 MB; an
    # honest row is proved against the chain, which keeps two rows of T.
    tracemalloc.start()
    try:
        assert alignment._sweep_range(2, 400) == (_pairs(2, 400), [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_identity_path_never_calls_the_oracle(monkeypatch):
    # Every route of the oracle, to a verdict or to a form, runs its packed pass.
    forbid(monkeypatch, "the identity path used the expansion oracle", (lockwood, "_packed_half"))
    with pytest.raises(AssertionError):
        verify_lockwood(3)
    for n in range(2, 40):
        aligned_entries(n, n // 2)
        assert all(identity_sum(n, i)[1] == 0 for i in range(1, n))
    assert identity_sweep(60).failures == ()


def test_identity_path_reads_neither_lucas_row_nor_the_chain(monkeypatch):
    # The identity's T is the closed form and its column a ratio walk seeded
    # by binomial(); neither may come from the routes the sweep and the
    # oracle check it against.
    forbid(
        monkeypatch,
        "the identity path left its own routes",
        (alignment, "lucas_row"),
        (combinatorics, "lucas_row"),
        (alignment, "_lucas_rows_by_addition"),
        (combinatorics, "_lucas_rows_by_addition"),
        (lockwood, "_packed_half"),
    )
    for n in range(2, 40):
        for i in range(1, n):
            column = [binomial(n - 2 * k, i - k) for k in range(i + 1)]
            assert aligned_entries(n, i) == tuple(column[: n // 2 + 1])
            terms, total = identity_sum(n, i)
            assert [value for _, value in terms] == column
            assert total == 0
