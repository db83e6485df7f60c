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
    sqrt(nu/pi) norm offset instead of unitarity."""
    import math

    cfg = VerifyConfig(normalization="literal")
    results = run_criterion("sb-unitarity", cfg)
    ok = all(r.passed for r in results)
    print(f"[{'PASS' if ok else 'FAIL'}] sb-unitarity (literal normalization)")
    quat = next(r for r in results
                if r.params.get("domain") == "quaternionic")
    assert quat.params["norm_offset"] == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12)
    assert ok
