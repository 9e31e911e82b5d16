"""Every way the tests and ``tests/at_scale.py`` fault T(n, k) or forbid a call.

Each function takes a patcher ``mp`` with ``setattr(owner, name, value)``:
pytest's ``monkeypatch``, or ``pytest.MonkeyPatch.context()`` in a script.
A fault (n, k, delta) adds delta to T(n, k) where the patched name hands T
out, and leaves every other row honest.  pytest does not collect this
module: its name does not match ``test_*.py``.
"""

from vertalign import alignment, cli, curves


def perturbed(row: tuple[int, ...], k: int, delta: int) -> tuple[int, ...]:
    """``row`` with delta added to entry k."""
    return row[:k] + (row[k] + delta,) + row[k + 1:]


def fault_lucas_row(mp, module, *faults) -> None:
    """Add delta to T(n, k), for each (n, k, delta), in ``module.lucas_row``.

    ``lockwood`` (the oracle) and ``curves`` (the target and the pullback)
    read T by that name alone."""
    honest = module.lucas_row

    def faulty_row(n):
        row = honest(n)
        for n_bad, k, delta in faults:
            if n == n_bad:
                row = perturbed(row, k, delta)
        return row

    mp.setattr(module, "lucas_row", faulty_row)


def fault_sweep(mp, *faults) -> None:
    """Add delta to T(n, k), for each (n, k, delta), as ``alignment`` sees T.

    The sweep reads T twice: ``_is_lucas_row`` pins it for the chain's row,
    and ``lucas_row`` gives the row that a failed check evaluates.  For a
    faulted n the check then passes the faulty row alone."""
    fault_lucas_row(mp, alignment, *faults)
    faulty_row, honest_check = alignment.lucas_row, alignment._is_lucas_row
    faulted = {n_bad for n_bad, _, _ in faults}

    def faulty_check(n, row):
        return row == faulty_row(n) if n in faulted else honest_check(n, row)

    mp.setattr(alignment, "_is_lucas_row", faulty_check)


def fault_chain(mp, n: int, k: int, delta: int) -> None:
    """Add delta to entry k of row n as ``_lucas_rows_by_addition`` yields it.

    The chain's own state stays honest, so only row n is wrong."""
    honest = alignment._lucas_rows_by_addition

    def faulty_chain(first):
        for m, row in enumerate(honest(first), first):
            yield perturbed(row, k, delta) if m == n else row

    mp.setattr(alignment, "_lucas_rows_by_addition", faulty_chain)


def fault_identity(mp, n: int, k: int, delta: int) -> None:
    """Add delta to T(n, k) as ``identity_sum`` reads it, from ``_lucas_coeffs``."""
    honest = alignment._lucas_coeffs

    def faulty_coeffs(n_walk, count):
        coeffs = honest(n_walk, count)
        if n_walk == n:
            coeffs[k] += delta
        return coeffs

    mp.setattr(alignment, "_lucas_coeffs", faulty_coeffs)


def lose_last_range(mp) -> None:
    """Drop the last range's result where ranges are fanned out, as a pool
    that lost a worker's answer would; with one range, nothing comes back.

    ``cli`` fans out ``lockwood``'s ranges and ``alignment`` the sweep's,
    each by its own import of ``map_row_ranges``."""
    honest = alignment.map_row_ranges

    def lossy(check, first, last, workers):
        return honest(check, first, last, workers)[:-1]

    for module in (cli, alignment):
        mp.setattr(module, "map_row_ranges", lossy)


def fail_morphism(mp) -> None:
    """Add 1 to T(9, 2) in the rows of T that ``curves`` reads."""
    fault_lucas_row(mp, curves, (9, 2, 1))


def double_w(mp) -> None:
    """Make w = 2 zeta^i c^(1/g) where ``curves`` hands out w^k as an
    element, by ``_w_power``: each such w^k is scaled by 2^k.

    In ``verify_morphism`` this reaches only the two factors of w^g, so the
    one product gives 2^g c, which misses c.  The weights and the terms
    r w^b, b < g, written from the table of zeta^(ik), and the target's
    text keep the honest w."""
    honest = curves._w_power

    def doubled(spec, zeta_table, k, scale):
        return honest(spec, zeta_table, k, scale << k)

    mp.setattr(curves, "_w_power", doubled)


def forbid(mp, message: str, *targets) -> None:
    """Make each (owner, name) of ``targets`` raise AssertionError(message) when called."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for owner, name in targets:
        mp.setattr(owner, name, refuse)
