"""Tests for the inequality checks and the seeded campaign runner."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    CHECK_NAMES,
    CampaignConfig,
    LevelProfile,
    check_cor1_cor3_zline,
    check_cor2_group,
    check_levelset,
    check_oracle_equivalence,
    check_petridis_growth,
    check_petridis_lemma,
    check_prop2_minmax,
    check_prop12,
    check_prop13_increment,
    check_prop21,
    check_prop22,
    check_thm1,
    check_thm2,
    check_transitive_point,
    disjoint_union,
    finite,
    finite_set,
    full_set,
    full_states,
    integers,
    make_group,
    periodic,
    petridis_constants,
    quotient_system,
    regular_system,
    run_campaign,
    state_subset,
)

from sumsetlab import verify
from sumsetlab.groups import frac_str, negate
from sumsetlab.systems import (
    MAX_STATES,
    StateSubset,
    apply_set,
    clear_system_memo,
    make_system,
    measure_of,
)
from sumsetlab.verify import CheckResult

from conftest import alarm, groups, system_instances

Z4 = make_group([4])
Z8 = make_group([8])


def held(result):
    return result.holds and not result.vacuous


# ---------------------------------------------------------------------------
# expansion lower bound (thm1) and its density counterpart (thm2)


def test_thm1_frozen_example():
    sysm = regular_system(Z4)
    res = check_thm1(sysm, finite_set(Z4, [0, 1, 2]), state_subset(sysm, [0]), 2)
    assert held(res)
    assert (res.lhs, res.rhs) == (Fraction(9, 16), Fraction(1, 4))


def test_thm1_equality_for_order_one_basis():
    sysm = regular_system(Z4)
    res = check_thm1(sysm, full_set(Z4), state_subset(sysm, [0]), 1)
    assert held(res)
    assert res.lhs == res.rhs == 1


def test_thm1_full_b_is_tight_at_one():
    sysm = regular_system(Z4)
    res = check_thm1(sysm, full_set(Z4), full_states(sysm), 3)
    assert held(res)
    assert res.lhs == 1


def test_thm1_vacuous_cases():
    sysm = regular_system(Z8)
    res = check_thm1(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0]), 2)
    assert res.vacuous and res.holds
    assert "basis" in res.note
    split = disjoint_union(regular_system(Z8), regular_system(Z8))
    res2 = check_thm1(split, full_set(Z8), state_subset(split, [0]), 1)
    assert res2.vacuous and "ergodic" in res2.note
    with pytest.raises(ValueError, match="k must be"):
        check_thm1(sysm, full_set(Z8), state_subset(sysm, [0]), 0)


def test_thm2_frozen_example():
    sysm = regular_system(Z8)
    res = check_thm2(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0]), 2)
    assert held(res)
    assert (res.lhs, res.rhs) == (Fraction(3, 64), Fraction(1, 16))


def test_thm2_identity_acting_set_gives_equality():
    sysm = regular_system(Z8)
    for k in (1, 2, 3):
        res = check_thm2(sysm, finite_set(Z8, [0]), state_subset(sysm, [0]), k)
        assert held(res)
        assert res.lhs == res.rhs == Fraction(1, 8) ** k


def test_thm2_full_b():
    sysm = regular_system(Z8)
    res = check_thm2(sysm, finite_set(Z8, [0, 3]), full_states(sysm), 2)
    assert held(res)


# ---------------------------------------------------------------------------
# cardinality form (cor2) and integer-line form (cor13)


def test_cor2_frozen_example():
    res = check_cor2_group(finite_set(Z8, [0, 2]), finite_set(Z8, [0, 1]), 2)
    assert held(res)
    assert (res.lhs, res.rhs) == (16, 6)


def test_cor2_identity_and_full():
    res = check_cor2_group(finite_set(Z8, [0]), finite_set(Z8, [0, 1, 5]), 3)
    assert held(res)
    full = check_cor2_group(full_set(Z8), full_set(Z8), 2)
    assert held(full)
    assert full.lhs == full.rhs == 64


def test_cor2_rejects_mixed_groups():
    with pytest.raises(ValueError, match="different groups"):
        check_cor2_group(finite_set(Z8, [0]), finite_set(Z4, [0]), 1)


def test_cor13_periodic_equality():
    evens = periodic(2, [0])
    for k in (1, 2, 3):
        res = check_cor1_cor3_zline(evens, evens, k)
        assert held(res)
        assert res.lhs == res.rhs == Fraction(1, 2) ** k


def test_cor13_finite_acting_set_is_vacuous():
    res = check_cor1_cor3_zline(finite([0, 1]), periodic(2, [0]), 2)
    assert res.vacuous and res.holds
    assert "trivial" in res.note


def test_cor13_full_line():
    res = check_cor1_cor3_zline(integers(), periodic(3, [0]), 2)
    assert held(res)
    assert res.lhs == 1


# ---------------------------------------------------------------------------
# magnification-ratio inequalities (prop12, petridis, petridis2, prop13)


def test_prop12_frozen_example():
    sysm = regular_system(Z8)
    res = check_prop12(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0, 4]), 2)
    assert held(res)
    assert (res.lhs, res.rhs) == (4, 3)


def test_prop12_k_one_is_equality():
    sysm = regular_system(Z8)
    res = check_prop12(sysm, finite_set(Z8, [0, 1, 3]), state_subset(sysm, [0, 4]), 1)
    assert held(res)
    assert res.lhs == res.rhs


def test_prop12_identity_acting_set():
    sysm = regular_system(Z8)
    res = check_prop12(sysm, finite_set(Z8, [0]), state_subset(sysm, [0, 4]), 3)
    assert held(res)
    assert res.lhs == res.rhs == 1


def test_petridis_singleton_f_reduces_to_premise():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    res = check_petridis_lemma(sysm, finite_set(Z8, [0, 1]), B,
                               state_subset(sysm, [0]), finite_set(Z8, [0]),
                               Fraction(0))
    assert held(res)


def test_petridis_frozen_example():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    res = check_petridis_lemma(sysm, finite_set(Z8, [0, 1]), B,
                               state_subset(sysm, [0]), finite_set(Z8, [0, 1]),
                               Fraction(0))
    assert held(res)
    assert (res.lhs, res.rhs) == (Fraction(3, 8), Fraction(1, 2))


def test_petridis_large_epsilon_is_trivial():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    res = check_petridis_lemma(sysm, finite_set(Z8, [0, 1]), B,
                               state_subset(sysm, [0, 4]), finite_set(Z8, [0, 2]),
                               Fraction(8))
    assert held(res)
    assert res.rhs > 1


def test_petridis_premise_violation_is_vacuous():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    # B' = {4} alone is also a minimizer; {0,4} has ratio 2 as well, so pick
    # a B' whose ratio strictly exceeds c: impossible here, so force it by
    # taking B = {0,1,4} where {1} has ratio 2 but c = 3/2 via B' = {0,1}.
    B = state_subset(sysm, [0, 1, 4])
    res = check_petridis_lemma(sysm, finite_set(Z8, [0, 1]), B,
                               state_subset(sysm, [4]), finite_set(Z8, [0, 1]),
                               Fraction(0))
    assert res.vacuous and "premise" in res.note


def test_petridis_validation():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    with pytest.raises(ValueError, match="contained"):
        check_petridis_lemma(sysm, finite_set(Z8, [0]), B,
                             state_subset(sysm, [1]), finite_set(Z8, [0]),
                             Fraction(0))
    with pytest.raises(ValueError, match="epsilon"):
        check_petridis_lemma(sysm, finite_set(Z8, [0]), B, B,
                             finite_set(Z8, [0]), Fraction(-1))


def test_petridis_constants_frozen():
    assert petridis_constants(2, 4) == [0, 2, 8, 24, 64]
    assert petridis_constants(3, 2) == [0, 3, 15]
    with pytest.raises(ValueError):
        petridis_constants(0, 1)
    with pytest.raises(ValueError):
        petridis_constants(2, -1)


def test_petridis_growth_on_a_tight_premise():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    for k in (0, 1, 2):
        res = check_petridis_growth(sysm, finite_set(Z8, [0, 1]), B,
                                    state_subset(sysm, [0]), Fraction(1, 10), k)
        assert held(res)


def test_petridis_growth_validation():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    with pytest.raises(ValueError, match="epsilon"):
        check_petridis_growth(sysm, finite_set(Z8, [0]), B, B, Fraction(1), 1)
    with pytest.raises(ValueError, match="k must be"):
        check_petridis_growth(sysm, finite_set(Z8, [0]), B, B, Fraction(1, 2), -1)


def test_prop13_first_branch():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    res = check_prop13_increment(sysm, finite_set(Z8, [0, 1]), B, B,
                                 Fraction(1, 2), 1)
    assert held(res)
    assert res.witness["branch"] == "mass"


def test_prop13_superset_branch_frozen_example():
    sysm = regular_system(Z8)
    res = check_prop13_increment(sysm, finite_set(Z8, [0, 1]), full_states(sysm),
                                 state_subset(sysm, [0]), Fraction(1, 2), 1)
    assert held(res)
    assert res.witness["branch"] == "superset"


def test_prop13_guard():
    g = make_group([21])
    sysm = regular_system(g)
    with pytest.raises(ValueError, match="guard"):
        check_prop13_increment(sysm, finite_set(g, [0]), full_states(sysm),
                               state_subset(sysm, [0]), Fraction(1, 2), 1)


def test_prop13_premise_violation_is_vacuous():
    sysm = regular_system(Z8)
    # B' = {0,4} has ratio 2 for A = {0,1,2,3}; the bound with B = full
    # space and delta = 1/2 is 2 * mu(AB)/mu(B) = 2, so tighten delta.
    res = check_prop13_increment(sysm, finite_set(Z8, [0, 1, 2, 3]),
                                 full_states(sysm), state_subset(sysm, [0, 4]),
                                 Fraction(1, 10), 1)
    assert res.vacuous and "premise" in res.note


# ---------------------------------------------------------------------------
# ergodic-set saturation (prop2) and co-magnification bounds (prop21, prop22)


def test_prop2_frozen_quotient_example():
    sysm = quotient_system(Z8, [4])
    res = check_prop2_minmax(sysm, finite_set(Z8, [0, 1, 2, 3]),
                             state_subset(sysm, [0, 1]), Fraction(1, 2))
    assert held(res)
    assert res.lhs == res.rhs == 2


def test_prop2_full_support_b():
    sysm = regular_system(Z8)
    res = check_prop2_minmax(sysm, full_set(Z8), full_states(sysm), Fraction(1, 2))
    assert held(res)
    assert res.lhs == res.rhs == 1


def test_prop2_singleton_b():
    sysm = regular_system(Z8)
    res = check_prop2_minmax(sysm, full_set(Z8), state_subset(sysm, [3]),
                             Fraction(1, 2))
    assert held(res)
    assert res.lhs == res.rhs == 8


def test_prop2_non_ergodic_set_is_vacuous():
    sysm = regular_system(Z8)
    res = check_prop2_minmax(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0]),
                             Fraction(1, 2))
    assert res.vacuous and "ergodic set" in res.note


def test_prop21_frozen_example():
    sysm = regular_system(Z8)
    res = check_prop21(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0, 4]), 2)
    assert held(res)
    assert (res.lhs, res.rhs) == (Fraction(3, 16), Fraction(1, 4))


def test_prop21_trivial_cases():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 4])
    assert held(check_prop21(sysm, finite_set(Z8, [0, 1, 5]), B, 1))
    res = check_prop21(sysm, finite_set(Z8, [0]), B, 3)
    assert held(res)
    assert res.lhs == res.rhs


def test_prop22_frozen_equality():
    sysm = regular_system(Z8)
    res = check_prop22(sysm, finite_set(Z8, [0, 3]), state_subset(sysm, [0]))
    assert held(res)
    assert res.lhs == res.rhs == Fraction(1, 4)
    assert res.witness["c_mu_B"] == "1/4"


def test_prop22_full_cases():
    sysm = regular_system(Z8)
    assert held(check_prop22(sysm, finite_set(Z8, [0, 2, 3]), full_states(sysm)))
    res = check_prop22(sysm, full_set(Z8), state_subset(sysm, [1, 2]))
    assert held(res)
    assert res.lhs == res.rhs == 1


# ---------------------------------------------------------------------------
# level sets and transitive points


def test_levelset_frozen_two_set_profile():
    sysm = regular_system(Z4)
    profile = LevelProfile.equal_weights(
        sysm, [state_subset(sysm, [0, 1]), state_subset(sysm, [1, 2])]
    )
    res = check_levelset(profile, finite_set(Z4, [0, 1]))
    assert held(res)
    assert res.lhs == res.rhs == Fraction(1, 2)
    assert res.witness["identity"] and res.witness["inclusion"]
    assert all(res.witness["cheb"].values())


def test_levelset_single_indicator():
    sysm = regular_system(Z4)
    B = state_subset(sysm, [0, 2])
    profile = LevelProfile.equal_weights(sysm, [B])
    res = check_levelset(profile, finite_set(Z4, [0]))
    assert held(res)
    assert res.lhs == Fraction(1, 2)


def test_levelset_identity_acting_set_makes_inclusion_equality():
    sysm = regular_system(Z8)
    profile = LevelProfile(
        sysm,
        (state_subset(sysm, [0, 1, 2]), state_subset(sysm, [2, 5])),
        (Fraction(1, 3), Fraction(1, 4)),
    )
    res = check_levelset(profile, finite_set(Z8, [0]))
    assert held(res)
    assert res.witness["inclusion"]


def test_levelset_profile_validation():
    sysm = regular_system(Z4)
    B = state_subset(sysm, [0])
    with pytest.raises(ValueError, match="at least one"):
        LevelProfile(sysm, (), ())
    with pytest.raises(ValueError, match="positive"):
        LevelProfile(sysm, (B,), (Fraction(0),))
    with pytest.raises(ValueError, match="at most 1"):
        LevelProfile(sysm, (B, B), (Fraction(3, 4), Fraction(3, 4)))
    with pytest.raises(ValueError, match="per indicator"):
        LevelProfile(sysm, (B,), (Fraction(1, 2), Fraction(1, 4)))


def test_levelset_zero_mass_profile_is_vacuous():
    sysm = disjoint_union(regular_system(Z4), regular_system(Z4), Fraction(1, 2))
    hidden = type(sysm)(sysm.group, sysm.states, sysm.generators,
                        tuple([Fraction(1, 4)] * 4 + [Fraction(0)] * 4))
    profile = LevelProfile.equal_weights(hidden, [state_subset(hidden, [5])])
    res = check_levelset(profile, finite_set(Z4, [0]))
    assert res.vacuous


def reference_levelset(profile, A, epsilons=(Fraction(1, 10), Fraction(1, 100)),
                       instance="adhoc"):
    """``check_levelset`` as it was in Fractions, one apply_set per level set."""
    def level_mask(values, t):
        return sum(1 << x for x, v in enumerate(values) if v >= t)

    sys = profile.system
    f = profile.values()
    lhs = sum((fx * w for fx, w in zip(f, sys.int_weights)), Fraction(0)) / sys.denominator
    thresholds = sorted({v for v in f if v > 0})
    levels = []
    integral_e = integral_ae = prev = Fraction(0)
    for t in thresholds:
        e_mask = level_mask(f, t)
        e, ae = sys.mass(e_mask), sys.mass(apply_set(sys, A, StateSubset(sys, e_mask)).mask)
        levels.append((e, ae))
        integral_e += (t - prev) * e
        integral_ae += (t - prev) * ae
        prev = t
    rhs = integral_e / sys.denominator
    identity = lhs == rhs
    g = [Fraction(0)] * sys.states
    for coeff, subset in zip(profile.coefficients, profile.sets):
        for x in apply_set(sys, A, subset).indices():
            g[x] += coeff
    inclusion = True
    for t in sorted({v for v in list(f) + g if v > 0}):
        e_mask = level_mask(f, t)
        if e_mask and apply_set(sys, A, StateSubset(sys, e_mask)).mask & ~level_mask(g, t):
            inclusion = False
            break
    if integral_e == 0:
        return CheckResult("levelset", instance, Fraction(0), Fraction(0), True, True,
                           "profile mass is zero on the support")
    mean = integral_ae / integral_e
    cheb = {frac_str(eps): any(0 < e and ae < (mean + eps) * e for e, ae in levels)
            for eps in map(Fraction, epsilons)}
    holds = identity and inclusion and all(cheb.values())
    return CheckResult("levelset", instance, lhs, rhs, holds,
                       witness={"identity": identity, "inclusion": inclusion,
                                "cheb": cheb, "thresholds": len(thresholds)})


def _random_levelset_case(rng):
    n = rng.randint(2, 24)
    group = make_group([n])
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    style = rng.randrange(3)
    if style == 0:
        sysm = regular_system(group)
    elif style == 1:
        sysm = quotient_system(group, [rng.choice(divisors)])
    else:  # non-uniform weights
        sysm = disjoint_union(quotient_system(group, [rng.choice(divisors)]),
                              quotient_system(group, [rng.choice(divisors)]),
                              Fraction(rng.randint(1, 6), 7))
    m = rng.randint(1, 6)
    sets = tuple(state_subset(sysm, rng.sample(range(sysm.states),
                                               rng.randint(0, sysm.states)))
                 for _ in range(m))
    # Distinct denominators, so the common unit L is their lcm, not any one of them.
    coeffs = tuple(Fraction(rng.randint(1, 2), rng.choice([3, 5, 7, 9, 11, 12])) / m
                   for _ in range(m))
    A = finite_set(group, rng.sample(range(n), rng.randint(1, min(n, 5))))
    epsilons = [Fraction(rng.randint(-3, 9), rng.randint(1, 40)) for _ in range(3)]
    return LevelProfile(sysm, sets, coeffs), A, epsilons


def _same_result(got, want):
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


def test_levelset_matches_the_fraction_reference():
    rng = random.Random(1717)
    outcomes = set()
    for _ in range(400):
        profile, A, epsilons = _random_levelset_case(rng)
        got = check_levelset(profile, A, epsilons)
        _same_result(got, reference_levelset(profile, A, epsilons))
        outcomes.add((got.vacuous, got.holds, tuple(got.witness.get("cheb", {}).values())))
    # Both Chebyshev outcomes occur, not only the all-true one.
    assert any(False in cheb for _, _, cheb in outcomes)
    assert any(cheb and all(cheb) for _, _, cheb in outcomes)


def test_levelset_matches_the_reference_on_zero_mass_states():
    # Z/4 acting on two copies of itself with all the mass on the first copy.
    rng = random.Random(5)
    tables = [list(range(1, 4)) + [0] + list(range(5, 8)) + [4]]
    hidden = make_system(Z4, 8, tables, ["1/4"] * 4 + ["0"] * 4)
    for _ in range(100):
        sets = tuple(state_subset(hidden, rng.sample(range(8), rng.randint(0, 8)))
                     for _ in range(rng.randint(1, 4)))
        profile = LevelProfile.equal_weights(hidden, sets)
        A = finite_set(Z4, rng.sample(range(4), rng.randint(1, 4)))
        _same_result(check_levelset(profile, A), reference_levelset(profile, A))
    vacuous = LevelProfile.equal_weights(hidden, [state_subset(hidden, [4, 6])])
    res = check_levelset(vacuous, finite_set(Z4, [1]))
    assert res.vacuous
    _same_result(res, reference_levelset(vacuous, finite_set(Z4, [1])))


def test_levelset_refuses_sets_of_another_system():
    other = state_subset(regular_system(Z8), [0])
    with pytest.raises(ValueError, match="profile's system"):
        LevelProfile.equal_weights(regular_system(Z4), [other])


def test_transitive_regular_and_quotient_hold():
    sys_y = regular_system(Z8)
    sys_x = regular_system(Z8)
    res = check_transitive_point(sys_y, state_subset(sys_y, [0, 3]),
                                 sys_x, state_subset(sys_x, [1]))
    assert held(res)
    assert res.lhs == res.rhs

    sys_q = quotient_system(Z8, [4])
    res2 = check_transitive_point(sys_q, state_subset(sys_q, [0, 1]),
                                  sys_x, state_subset(sys_x, [0, 2]))
    assert held(res2)


def test_transitive_split_system_is_vacuous():
    split = disjoint_union(regular_system(Z8), regular_system(Z8))
    other = regular_system(Z8)
    res = check_transitive_point(split, state_subset(split, [0]),
                                 other, state_subset(other, [0]))
    assert res.vacuous and "transitive" in res.note


def test_transitive_validation():
    sys_y = regular_system(Z8)
    sys_x = regular_system(Z4)
    with pytest.raises(ValueError, match="share"):
        check_transitive_point(sys_y, state_subset(sys_y, [0]),
                               sys_x, state_subset(sys_x, [0]))
    with pytest.raises(ValueError, match="non-empty"):
        check_transitive_point(sys_y, state_subset(sys_y, []),
                               sys_y, state_subset(sys_y, [0]))


def reference_transitive_values(sys_y, A_clopen, sys_x, B):
    """mu((A_y)^{-1} B) for each point y, point by point: A_y = {g : g.y in A}
    from one ``apply`` per group element, then its inverse by ``negate``."""
    group = sys_y.group
    values = []
    for y in range(sys_y.states):
        ay = finite_set(group, (g for g in range(group.cardinality)
                                if sys_y.apply(g, y) in A_clopen))
        values.append(measure_of(sys_x, apply_set(sys_x, negate(ay), B)))
    return values


@st.composite
def transitive_cases(draw):
    """A regular or quotient sys_y (one or two factors, so transitive), and a
    regular, quotient or two-quotient union sys_x of the same group."""
    group = draw(groups(max_order=16))

    def quotient():
        target = [draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
                  for n in group.orders]
        return quotient_system(group, target)

    sys_y = regular_system(group) if draw(st.booleans()) else quotient()
    kind = draw(st.sampled_from(["regular", "quotient", "union"]))
    if kind == "regular":
        sys_x = regular_system(group)
    elif kind == "quotient":
        sys_x = quotient()
    else:
        weight = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]))
        sys_x = disjoint_union(quotient(), quotient(), weight)

    def subset(sysm):
        return state_subset(sysm, draw(st.sets(st.integers(0, sysm.states - 1),
                                               min_size=1)))

    return sys_y, subset(sys_y), sys_x, subset(sys_x)


@settings(max_examples=150, deadline=None)
@given(transitive_cases())
def test_transitive_matches_the_point_by_point_formula(case):
    sys_y, A_clopen, sys_x, B = case
    values = reference_transitive_values(sys_y, A_clopen, sys_x, B)
    res = check_transitive_point(sys_y, A_clopen, sys_x, B)
    assert not res.vacuous
    assert (res.lhs, res.rhs) == (max(values), min(values))
    assert res.holds == (max(values) == min(values))
    assert res.witness == {"values": sorted({frac_str(v) for v in values}),
                           "points": sys_y.states}


def test_oracle_equivalence_check():
    sysm = regular_system(Z8)
    res = check_oracle_equivalence(sysm, finite_set(Z8, [0, 1]),
                                   state_subset(sysm, [0, 4]))
    assert held(res)
    assert res.lhs == res.rhs == 2
    assert res.witness["oracle_witness"] == [0]


# ---------------------------------------------------------------------------
# result serialization


def test_check_result_json_field_names():
    res = check_cor2_group(finite_set(Z8, [0, 2]), finite_set(Z8, [0, 1]), 2)
    data = res.to_json()
    assert set(data) == {"instance_id", "check", "lhs", "rhs", "holds",
                         "vacuous", "note", "witness"}
    assert data["check"] == "cor2"
    assert data["lhs"] == "16/1"
    assert data["holds"] is True and data["vacuous"] is False


# ---------------------------------------------------------------------------
# campaign runner


def test_campaign_prop12_hundred_instances_all_hold():
    cfg = CampaignConfig(seed=1, instances=100, checks=("prop12",), max_order=16)
    report = run_campaign(cfg)
    assert len(report.rows) == 100
    assert report.all_hold
    assert all(r.holds and not r.vacuous for r in report.rows)
    assert report.summary()["checks"]["prop12"]["held"] == 100


def test_system_memo_does_not_change_any_row(monkeypatch):
    """Each check's rows are the same with the memo cleared before every
    instance as with the memo left warm."""
    cfg = CampaignConfig(seed=31, instances=25)

    def cold(draw):
        def run(*args):
            clear_system_memo()
            return draw(*args)
        return run

    run_campaign(cfg)  # warm
    warm = run_campaign(cfg).rows
    monkeypatch.setattr(verify, "CHECKS", tuple(
        verify.Check(c.name, c.statement, cold(c.driver)) for c in verify.CHECKS))
    cleared = run_campaign(cfg).rows
    assert {row.check for row in warm} == set(CHECK_NAMES)
    assert ([json.dumps(r.to_json(), sort_keys=True) for r in cleared]
            == [json.dumps(r.to_json(), sort_keys=True) for r in warm])


def test_campaign_zero_instances_empty_report():
    report = run_campaign(CampaignConfig(seed=1, instances=0))
    assert report.rows == ()
    assert report.all_hold
    assert report.summary()["checks"] == {}


def test_campaign_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown checks"):
        CampaignConfig(checks=("prop12", "nosuch"))
    with pytest.raises(ValueError, match="unknown checks: 5"):
        CampaignConfig(checks=[5])
    with pytest.raises(ValueError, match="no checks selected"):
        CampaignConfig(checks=())
    with pytest.raises(ValueError, match="more than once: cor2"):
        CampaignConfig(checks=("cor2", "prop12", "cor2"))
    with pytest.raises(ValueError, match="instance count"):
        CampaignConfig(instances=-1)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_set must be >= 1"):
            CampaignConfig(max_set=bad)
    assert CampaignConfig(max_set=1).max_set == 1
    # A campaign's union of two quotients has up to 2 * max_order states.
    assert CampaignConfig(max_order=MAX_STATES // 2).max_order == 32768
    with pytest.raises(ValueError, match="max_order must be <= 32768, got 32769"):
        CampaignConfig(max_order=32769)


@pytest.mark.parametrize("field, echoed", [
    ("k_values", [1, 2, 3, 4]),
    ("deltas", ["1/4", "1/2", "3/4"]),
    ("epsilons", ["1/100", "1/10"]),
])
def test_campaign_k_delta_eps_are_fixed_and_echoed(field, echoed):
    # k, delta and epsilon come from fixed lists: the config takes no such
    # keyword, and its JSON names the shared lists.  Some drivers draw from
    # their own (see the comment above verify.K_VALUES).
    assert CampaignConfig(seed=7, instances=3).to_json()[field] == echoed
    with pytest.raises(TypeError):
        CampaignConfig(**{field: echoed})


def test_campaign_is_deterministic():
    cfg = CampaignConfig(seed=99, instances=4)
    a, b = run_campaign(cfg), run_campaign(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


class _ReferenceSplitMix64:
    """SplitMix64 and its rejection draw as first written, limit worked out per call."""

    def __init__(self, seed: int):
        self.state = seed & (1 << 64) - 1

    def next_u64(self) -> int:
        mask = (1 << 64) - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def sample(self, n: int, k: int) -> list[int]:
        idx = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return sorted(idx[:k])


def test_splitmix64_draws_equal_the_reference_stream():
    for n in range(1, 41):
        rng, ref = verify.SplitMix64(1000 + n), _ReferenceSplitMix64(1000 + n)
        assert [rng.below(n) for _ in range(10_000)] == [ref.below(n) for _ in range(10_000)], n
        assert rng.state == ref.state
    # Every bound from 1 to 4195 in turn, on one stream.
    rng, ref = verify.SplitMix64(3), _ReferenceSplitMix64(3)
    assert [rng.below(n) for n in range(1, 4196)] == [ref.below(n) for n in range(1, 4196)]
    # A bound near 2^64 rejects often: the limit must still be the right one.
    rng, ref = verify.SplitMix64(7), _ReferenceSplitMix64(7)
    big = (1 << 63) + 3
    assert [rng.below(big) for _ in range(2000)] == [ref.below(big) for _ in range(2000)]


def test_splitmix64_sample_equals_the_dense_fisher_yates():
    for n in range(0, 40):
        rng, ref = verify.SplitMix64(n), _ReferenceSplitMix64(n)
        for k in list(range(n + 1)) * 3:
            assert rng.sample(n, k) == ref.sample(n, k), (n, k)
        assert rng.state == ref.state


def test_splitmix64_sample_allocates_for_k_not_n():
    with alarm(1, "SplitMix64(1).sample(10**12, 1)"):
        picked = verify.SplitMix64(1).sample(10**12, 1)
    assert len(picked) == 1 and 0 <= picked[0] < 10**12


@pytest.mark.parametrize("n", [0, -1, -(1 << 70)])
def test_splitmix64_below_refuses_a_bound_below_one(n):
    rng = verify.SplitMix64(1)
    rng.below(5)
    with pytest.raises(ValueError, match="positive bound"):
        rng.below(n)
    with pytest.raises(ValueError, match="positive bound"):
        rng.below(n)


@pytest.mark.parametrize("n, max_size", [(0, 3), (-1, 3), (5, 0), (5, -2), (0, 0)])
def test_splitmix64_nonempty_subset_refuses_before_drawing(n, max_size):
    rng = verify.SplitMix64(1)
    with pytest.raises(ValueError, match="non-empty subset"):
        rng.nonempty_subset(n, max_size)
    assert rng.state == verify.SplitMix64(1).state


def test_splitmix64_nonempty_subset_keeps_its_stream():
    for n in range(1, 13):
        for max_size in (1, 2, 3, 5, 8, 13, 40):
            rng, ref = verify.SplitMix64(100 * n + max_size), _ReferenceSplitMix64(100 * n + max_size)
            for _ in range(20):
                size = 1 + ref.below(min(max_size, n))
                picked = rng.nonempty_subset(n, max_size)
                assert picked == ref.sample(n, size) and 1 <= len(picked) <= min(n, max_size)
            assert rng.state == ref.state


def test_frac_str_keeps_a_fraction_and_reads_an_int():
    assert frac_str(Fraction(6, -4)) == "-3/2"
    assert frac_str(7) == "7/1" and frac_str(Fraction(0)) == "0/1"


def test_campaign_check_selection_does_not_shift_streams():
    wide = run_campaign(CampaignConfig(seed=5, instances=6))
    narrow = run_campaign(CampaignConfig(seed=5, instances=6, checks=("prop21",)))
    wide_rows = [r.to_json() for r in wide.rows if r.check == "prop21"]
    narrow_rows = [r.to_json() for r in narrow.rows]
    assert wide_rows == narrow_rows


def test_campaign_covers_every_check_name():
    report = run_campaign(CampaignConfig(seed=3, instances=3))
    assert {r.check for r in report.rows} == set(CHECK_NAMES)
    assert report.all_hold, [r.to_json() for r in report.violations]


def test_campaign_csv_header_is_frozen():
    report = run_campaign(CampaignConfig(seed=1, instances=1, checks=("cor2",)))
    lines = report.to_csv().splitlines()
    assert lines[0] == "instance_id,check,lhs,rhs,holds,vacuous,witness"
    assert len(lines) == 2
    assert lines[1].startswith("cor2-000000,cor2,")


def test_campaign_json_is_one_line_with_sorted_keys():
    text = run_campaign(CampaignConfig(seed=1, instances=1, checks=("cor2",))).to_json()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text.index('"config"') < text.index('"rows"') < text.index('"summary"')


def test_campaign_thm1_tightness_probe():
    report = run_campaign(CampaignConfig(seed=1, instances=40, checks=("thm1",)))
    tight = report.summary().get("thm1_tightness")
    assert tight is not None
    assert Fraction(tight["min_ratio"]) >= 1


def test_render_dispatch():
    report = run_campaign(CampaignConfig(seed=1, instances=1, checks=("cor2",)))
    assert report.render("json") == report.to_json()
    assert report.render("csv") == report.to_csv()
    with pytest.raises(ValueError, match="format"):
        report.render("yaml")


# ---------------------------------------------------------------------------
# property: checks hold on arbitrary valid instances


@settings(max_examples=40, deadline=None)
@given(system_instances())
def test_prop21_holds_on_random_instances(inst):
    sysm, A, B = inst
    res = check_prop21(sysm, A, B, 2)
    assert res.holds


@settings(max_examples=40, deadline=None)
@given(system_instances())
def test_prop12_holds_on_random_instances(inst):
    sysm, A, B = inst
    res = check_prop12(sysm, A, B, 3)
    assert res.holds
