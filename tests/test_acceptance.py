"""Acceptance suite: every structural identity at its pinned tolerance.

Each test runs one criterion of the verification suite and prints a
pass/fail line with the worst observed deviation against its bound; run
with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import pytest

from rbffock.verify import CRITERIA, VerifyConfig, run_criterion

CONFIG = VerifyConfig()


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name):
    description = CRITERIA[name][0]
    results = run_criterion(name, CONFIG)
    ok = all(r.passed for r in results)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {description}")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"    [{status}] {r.check} {r.params} "
              f"value={r.value:.3e} bound={r.bound:.3e}")
    assert ok, f"criterion {name} failed: " + "; ".join(
        f"{r.check}{r.params} value={r.value:.3e} > bound={r.bound:.3e}"
        for r in results if not r.passed)


def test_rows_of_each_check_report_different_values():
    """No two rows of one check report one computation: at the default
    config, the rows of each check name hold pairwise different values."""
    values = {}
    for name in CRITERIA:
        for r in run_criterion(name, CONFIG):
            values.setdefault(r.check, []).append(r.value)
    for check, seen in values.items():
        assert len(set(seen)) == len(seen), (check, seen)


def test_doubling_quadrature_order_is_self_consistent():
    """Doubling the rule order moves no reported value past its bound.

    ``reproduce`` integrates a kernel section, not a polynomial, so its
    slice checks run on the ``quad_order`` rule itself: the two orders
    must give different bits, or the test compares one computation twice.
    """
    lo = run_criterion("reproduce", VerifyConfig(quad_order=80))
    hi = run_criterion("reproduce", VerifyConfig(quad_order=160))
    for a, b in zip(lo, hi):
        assert b.passed
        assert abs(a.value - b.value) <= a.bound
        if a.params["space"].endswith("-slice"):
            assert a.value != b.value
    print("[PASS] doubling-order self-consistency")


def test_literal_normalization_reports_offset():
    """Under the literal convention the suite verifies the constant
    sqrt(nu/pi) norm offset instead of unitarity, in the default run."""
    import math

    results = run_criterion("sb-unitarity", CONFIG)
    ok = all(r.passed for r in results)
    print(f"[{'PASS' if ok else 'FAIL'}] sb-unitarity (literal normalization)")
    quat = next(r for r in results
                if r.params.get("domain") == "quaternionic"
                and r.params["normalization"] == "literal")
    assert quat.params["norm_offset"] == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12)
    assert ok


# a relative perturbation above the bound of every check it may move
DELTA = 1e-5

# the checks that read the closed-form Fock norms (the diagonal moment
# table n!/alpha^n) on one of their two routes, and those that read a
# slice grid, each with the results it must fail
TABLE_ROUTE = {
    "fock-orthogonality": lambda r: True,
    "rbf-orthonormality": lambda r: r.params["domain"].startswith("slice"),
    "isometry": lambda r: True,
    "sequential": lambda r: r.check == "sequential-norm-vs-quadrature",
    "sb-unitarity": lambda r: (r.check == "sb-unitarity"
                               and r.params["domain"] == "quaternionic"),
    "slice-independence": lambda r: True,
}
GRID_ROUTE = {
    "fock-orthogonality": lambda r: True,
    "isometry": lambda r: True,
    "reproduce": lambda r: r.params["space"].endswith("-slice"),
    "slice-independence": lambda r: True,
}


def _assert_fails(name, selects):
    chosen = [r for r in run_criterion(name, CONFIG) if selects(r)]
    assert chosen and not any(r.passed for r in chosen), chosen


@pytest.mark.parametrize("name", TABLE_ROUTE)
def test_check_fails_when_the_moment_table_is_perturbed(name, monkeypatch):
    from rbffock import spaces

    weights = spaces._weights

    def perturbed(*args):
        mantissas, exponents = weights(*args)
        return mantissas * (1.0 + DELTA), exponents

    monkeypatch.setattr(spaces, "_weights", perturbed)
    _assert_fails(name, TABLE_ROUTE[name])


@pytest.mark.parametrize("name", GRID_ROUTE)
def test_check_fails_when_the_grid_route_is_perturbed(name, monkeypatch):
    from rbffock.spaces import FockSliceSpace

    grid_pair = FockSliceSpace._grid_pair
    monkeypatch.setattr(FockSliceSpace, "_grid_pair",
                        lambda *args: grid_pair(*args) * (1.0 + DELTA))
    _assert_fails(name, GRID_ROUTE[name])
