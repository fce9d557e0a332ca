"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every numeric claim is exact (rationals / integers); runtime limits are the
stated ones. Criteria run through the campaign suites so the CLI `campaign`
command exercises the same code paths.
"""

import time
from fractions import Fraction

from sdncg import clique, pos_exact, theorem_campaign

SEED = 0


def _run(number, title, suite, time_limit=None):
    t0 = time.monotonic()
    report = theorem_campaign(suite, seed=SEED)
    elapsed = time.monotonic() - t0
    failures = [c for c in report["claims"] if not c["pass"]]
    status = "PASS" if report["passed"] and (time_limit is None or elapsed <= time_limit) else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {status} ({elapsed:.1f}s)")
    assert report["passed"], failures
    if time_limit is not None:
        assert elapsed <= time_limit, f"runtime {elapsed:.1f}s over the {time_limit}s limit"
    return report


def test_criterion_01_closed_form_welfare():
    _run(1, "closed-form welfare, n <= 50", "closed-forms", time_limit=10)


def test_criterion_02_complete_host_optimum():
    _run(2, "complete-host optimum classification", "complete-optimum", time_limit=20)


def test_criterion_03_complete_host_stability_regimes():
    _run(3, "complete-host stability regimes", "complete-stability")


def test_criterion_04_smrcst_stability():
    _run(4, "swap-maximal tree stability at n/3", "smrcst-stability", time_limit=10)


def test_criterion_05_mrcst_optimality():
    _run(5, "max routing-cost tree is socially optimal", "mrcst-optimality")


def test_criterion_06_host_uniqueness():
    _run(6, "host is the unique equilibrium above (n^2-5n+8)/2", "host-uniqueness")


def test_criterion_07_improving_cycle():
    _run(7, "improving cycle at n=5, alpha=5/2", "improving-cycle", time_limit=2)


def test_criterion_08_construction_stability():
    report = _run(8, "named constructions are stable", "construction-stability")
    gap = next(c for c in report["claims"] if c["id"] == "wheel-welfare-gap")
    print(f"[acceptance]   recorded welfare gap: {gap['detail']}")


def test_criterion_09_poa_pos_spot_values():
    _run(9, "PoA/PoS spot values", "poa-pos")
    # the suite's complete hosts start at K_4; PoS(K_3) = 1 on the same grid
    n = 3
    grid = (Fraction(1, 2), 1, Fraction(n, 3), Fraction(n - 1, 2), Fraction(n, 2) + Fraction(1, 4))
    for a in grid:
        assert pos_exact(clique(n), a) == 1, a


def test_criterion_10_algorithm_certificates():
    _run(10, "swap-maximization certificates", "smrcst-certificates", time_limit=10)
