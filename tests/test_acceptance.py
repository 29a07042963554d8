"""Acceptance suite: ten criteria, one test and one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
as they happen; under plain ``pytest`` the per-test outcome carries the
same information.  Tolerances are pinned as constants below; everything
not floating-point is compared with exact rational arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

from sumsetlab import (
    CampaignConfig,
    SplitMix64,
    check_cor2_group,
    check_prop22,
    check_thm1,
    equidist_defect,
    finite,
    finite_set,
    floor_three_halves,
    full_set,
    group_dft,
    group_dft_naive,
    is_ergodic_basis,
    make_group,
    measure_of,
    orbit_closure,
    quotient_system,
    recovery_window_ok,
    regular_system,
    run_campaign,
    state_subset,
    verify_correspondence,
    weyl_defect_window,
    zdesc,
)
from sumsetlab.cli import main

TRANSFORM_TOL = 1e-9
EXACT_FLOAT_TOL = 1e-12
ORACLE_TIME_BUDGET = 60.0
PROP12_TIME_BUDGET = 600.0


def _verdict(n: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {desc}{tail}"
    print(line)
    assert ok, line


def test_acceptance_01_oracle_equivalence():
    start = time.perf_counter()
    report = run_campaign(CampaignConfig(
        seed=2024, instances=1000, checks=("oracle",), max_order=12, max_set=12))
    elapsed = time.perf_counter() - start
    mismatches = [r for r in report.rows if not r.holds]
    ok = len(report.rows) == 1000 and not mismatches and elapsed < ORACLE_TIME_BUDGET
    _verdict(1, "flow ratio equals enumeration oracle on 1000 instances, order <= 12",
             ok, f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_acceptance_02_power_monotonicity_of_ratios():
    start = time.perf_counter()
    report = run_campaign(CampaignConfig(
        seed=2024, instances=10_000, checks=("prop12",), max_order=64))
    elapsed = time.perf_counter() - start
    ok = (len(report.rows) == 10_000 and report.all_hold
          and elapsed < PROP12_TIME_BUDGET)
    _verdict(2, "c(A,B)^k >= c(A^k,B) on 10000 instances, order <= 64, k <= 4",
             ok, f"{len(report.violations)} violations, {elapsed:.1f}s")


def test_acceptance_03_expansion_bound_with_basis_hypothesis():
    rng = SplitMix64(3033)
    transitive = [(n, m) for n in range(2, 33) for m in range(1, n + 1) if n % m == 0]
    systems = [(n, m, quotient_system(make_group([n]), [m])) for n, m in transitive]
    checked = 0
    violations = 0
    equality = None
    i = 0
    while checked < 5000:
        n, m, sysm = systems[i % len(systems)]
        i += 1
        group = sysm.group
        k = 1 + rng.below(4)
        A = finite_set(group, rng.nonempty_subset(n, min(n, 6)))
        if not is_ergodic_basis(sysm, A, k):
            # One preimage per residue class always moves any point onto
            # every state, so this fallback satisfies the hypothesis at
            # every order.
            members = {r + m * rng.below(n // m) for r in range(m)}
            A = finite_set(group, members)
            assert is_ergodic_basis(sysm, A, k)
        B = state_subset(sysm, rng.nonempty_subset(sysm.states, sysm.states))
        res = check_thm1(sysm, A, B, k, f"thm1-sweep-{checked}")
        assert not res.vacuous
        checked += 1
        if not res.holds:
            violations += 1
        if equality is None and res.lhs == res.rhs:
            equality = (n, m, sorted(A.indices()), sorted(B.indices()), k)
    ok = checked == 5000 and violations == 0 and equality is not None
    _verdict(3, "mu(AB)^k >= mu(B)^(k-1) across all transitive Z/n actions, n <= 32",
             ok, f"{violations} violations, equality at {equality}")


def test_acceptance_04_cardinality_bound_in_cyclic_groups():
    report = run_campaign(CampaignConfig(
        seed=2024, instances=10_000, checks=("cor2",), max_order=128))
    g = make_group([128])
    eq = check_cor2_group(full_set(g), full_set(g), 3)
    ok = (len(report.rows) == 10_000 and report.all_hold
          and eq.holds and eq.lhs == eq.rhs)
    _verdict(4, "|A+B|^k >= |kA| |B|^(k-1) on 10000 instances, order <= 128",
             ok, f"{len(report.violations)} violations, equality at A=B=G: "
                 f"{eq.lhs} = {eq.rhs}")


def test_acceptance_05_saturation_of_constrained_ratios():
    report = run_campaign(CampaignConfig(
        seed=2024, instances=500, checks=("prop2",)))
    live = [r for r in report.rows if not r.vacuous]
    exact = all(r.lhs == r.rhs for r in live)
    ok = len(report.rows) == 500 and len(live) >= 500 and report.all_hold and exact
    _verdict(5, "c_delta(A,B) = 1/mu(B) exactly for certified ergodic sets",
             ok, f"{len(live)} non-vacuous instances, all exact: {exact}")


def test_acceptance_06_co_magnification_bounds():
    r21 = run_campaign(CampaignConfig(seed=2024, instances=1000, checks=("prop21",)))
    r22 = run_campaign(CampaignConfig(seed=2024, instances=1000, checks=("prop22",)))
    sysm = regular_system(make_group([8]))
    eq = check_prop22(sysm, finite_set(make_group([8]), [0, 3]),
                      state_subset(sysm, [0]))
    ok = (r21.all_hold and r22.all_hold and len(r21.rows) == len(r22.rows) == 1000
          and eq.holds and eq.lhs == eq.rhs)
    _verdict(6, "c(A^k,B) mu(B)^k <= mu(AB)^k and d(A) <= mu(AB), 1000 instances each",
             ok, f"prop22 equality instance: d(A) = mu(AB) = {eq.lhs}")


def test_acceptance_07_layer_cake_and_level_set_inclusion():
    report = run_campaign(CampaignConfig(
        seed=2024, instances=1000, checks=("levelset",), max_order=64))
    live = [r for r in report.rows if not r.vacuous]
    parts_ok = all(r.witness["identity"] and r.witness["inclusion"]
                   and all(r.witness["cheb"].values()) for r in live)
    ok = len(report.rows) == 1000 and report.all_hold and parts_ok and len(live) >= 990
    _verdict(7, "layer-cake identity, level-set inclusion and Chebyshev mass "
                "on 1000 profiles", ok, f"{len(live)} non-vacuous")


def test_acceptance_08_spectral_cross_checks():
    rng = np.random.default_rng(2024)
    worst = 0.0
    vectors = 0
    order_pool = [int(rng.integers(2, 1025)) for _ in range(44)]
    factor_pool = [[1024], [2, 512], [8, 8, 16], [31, 33], [997], [60, 17]]
    for orders in ([*map(lambda n: [n], order_pool)] + factor_pool):
        g = make_group(orders)
        w = rng.standard_normal(g.cardinality)
        diff = float(np.abs(group_dft(g, w) - group_dft_naive(g, w)).max())
        worst = max(worst, diff)
        vectors += 1
    z12 = make_group([12])
    full_defect = equidist_defect(full_set(z12)).defect
    z8 = make_group([8])
    sub_defect = equidist_defect(finite_set(z8, [0, 4])).defect
    grid = [k / 1024 for k in range(1, 1024)]
    small = weyl_defect_window(floor_three_halves(10**3), 10**3, grid)
    large = weyl_defect_window(floor_three_halves(10**5), 10**5, grid)
    ok = (vectors >= 50 and worst < TRANSFORM_TOL
          and full_defect <= EXACT_FLOAT_TOL
          and abs(sub_defect - 1.0) <= EXACT_FLOAT_TOL
          and large < small)
    _verdict(8, "transform oracle, defect certificates, Weyl-sum decay",
             ok, f"{vectors} vectors, worst diff {worst:.2e}, "
              f"weyl {small:.4f} -> {large:.4f}")


def test_acceptance_09_correspondence_relations():
    rng = SplitMix64(909)

    def tail():
        p = 1 + rng.below(24)
        size = rng.below(p + 1)
        return (p, rng.sample(p, size)) if size else None

    checked = 0
    all_ok = True
    while checked < 100:
        left, right = tail(), tail()
        if left is None and right is None:
            continue
        head = [rng.below(17) - 8 for _ in range(rng.below(5))]
        lo = min(head) if head else 0
        hi = max(head) + 1 if head else 0
        S = zdesc(head, lo, hi, left, right)
        A = sorted({rng.below(13) - 6 for _ in range(1 + rng.below(5))})
        report = verify_correspondence(S, A)
        recovered = recovery_window_ok(orbit_closure(S), -200, 200)
        if not (report.all_hold and recovered):
            all_ok = False
            break
        checked += 1
    _verdict(9, "all four correspondence relations plus window recovery "
                "on 100 descriptors, tail periods <= 24",
             all_ok and checked == 100, f"{checked} descriptors")


def test_acceptance_10_deterministic_reports(tmp_path, capsys):
    paths = []
    for fmt in ("json", "csv"):
        pair = []
        for run_idx in (0, 1):
            out = tmp_path / f"report-{fmt}-{run_idx}.{fmt}"
            code = main(["verify", "--seed", "31", "--instances", "4",
                         "--format", fmt, "--out", str(out)])
            assert code == 0
            pair.append(out.read_bytes())
        paths.append(pair)
    capsys.readouterr()
    ok = paths[0][0] == paths[0][1] and paths[1][0] == paths[1][1]
    _verdict(10, "fixed-seed campaign reports are byte-identical across runs",
             ok, "json and csv")
