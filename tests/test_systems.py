"""Tests for measure-preserving actions and ergodic-set certificates."""

from __future__ import annotations

import gc
import itertools
import math
import random
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    FiniteSet,
    apply_set,
    disjoint_union,
    finite_set,
    full_set,
    full_states,
    is_ergodic,
    is_ergodic_basis,
    is_ergodic_set,
    make_group,
    make_system,
    measure_of,
    orbits,
    quotient_system,
    regular_system,
    state_subset,
    system_from_json,
    system_to_json,
)

from sumsetlab import systems as systems_module
from sumsetlab.systems import (
    MAX_STATES,
    ActionSystem,
    clear_system_memo,
    cover_masks,
    system_memo_info,
)

from conftest import group_add, sets_in, system_instances, systems

Z8 = make_group([8])
Z4 = make_group([4])


def rotation_table(n: int) -> list[int]:
    return [(x + 1) % n for x in range(n)]


# ---------------------------------------------------------------------------
# construction and validation


def test_make_system_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        make_system(Z4, 4, [[0, 0, 1, 2]])


def test_make_system_rejects_wrong_order():
    # A 3-cycle on 4 states has order 3, which does not divide 4, so the
    # action table cannot extend to a homomorphism from Z/4.
    with pytest.raises(ValueError, match="order dividing"):
        make_system(Z4, 4, [[1, 2, 0, 3]])


def test_make_system_rejects_non_commuting_tables():
    g = make_group([2, 2])
    swap01 = [1, 0, 2]
    swap12 = [0, 2, 1]
    with pytest.raises(ValueError, match="do not commute"):
        make_system(g, 3, [swap01, swap12])


def test_make_system_rejects_wrong_table_count():
    with pytest.raises(ValueError, match="generator tables"):
        make_system(make_group([2, 2]), 2, [[1, 0]])


def test_make_system_rejects_bad_measures():
    table = [rotation_table(4)]
    with pytest.raises(ValueError, match="non-negative"):
        make_system(Z4, 4, table, [Fraction(2), Fraction(-1), 0, 0])
    with pytest.raises(ValueError, match="^measure weights sum to 5/4, expected 1$"):
        make_system(Z4, 4, table, [Fraction(1, 4)] * 3 + [Fraction(1, 2)])
    with pytest.raises(ValueError, match="entries"):
        make_system(Z4, 4, table, [Fraction(1, 2), Fraction(1, 2)])


Z2 = make_group([2])


@pytest.mark.parametrize("action, measure, message", [
    ([[1.2, 0.3]], None, "^generator table 0 must be a list of integers$"),
    ([[None, 0]], None, "^generator table 0 must be a list of integers$"),
    ([[1, 0]], [None, None], "bad measure entry"),
    ([[1, 0]], [0.5, 0.5], "bad measure entry"),
    # Parsed strings are remembered, but a bool, float or list equal to one
    # is still refused, before or after a valid entry.
    ([[1, 0]], ["1/2", True], "bad measure entry"),
    ([[1, 0]], [True, "1/2"], "bad measure entry"),
    ([[1, 0]], ["1/2", 1.0], "bad measure entry"),
    ([[1, 0]], [1.0, "1/2"], "bad measure entry"),
    ([[1, 0]], ["1/2", [1, 2]], "bad measure entry"),
    ([[1, 0]], [[1, 2], "1/2"], "bad measure entry"),
])
def test_make_system_rejects_inexact_input(action, measure, message):
    with pytest.raises(ValueError, match=message):
        make_system(Z2, 2, action, measure)


@pytest.mark.parametrize("states", [2.0, "2", True])
def test_make_system_rejects_a_non_integer_state_count(states):
    with pytest.raises(ValueError, match="state count must be an integer"):
        make_system(Z2, states, [[1, 0]])


def test_make_system_takes_numpy_integers_and_repeated_measure_strings():
    sysm = make_system(Z2, np.int64(2), [[1, 0]], ["1/2", "1/2"])
    assert type(sysm.states) is int and sysm.weights == (Fraction(1, 2),) * 2


def test_each_generator_is_walked_into_cycles_once(monkeypatch):
    calls = []
    original = systems_module._cycle_table

    def counting(row):
        calls.append(len(row))
        return original(row)

    monkeypatch.setattr(systems_module, "_cycle_table", counting)
    clear_system_memo()  # a memoised Z/6 x Z/4 from an earlier test walks nothing
    group = make_group([6, 4])
    sysm = regular_system(group)
    apply_set(sysm, finite_set(group, [1, 7]), state_subset(sysm, [0, 5]))
    assert calls == [24, 24]


def test_quotient_tables_match_elementwise_addition():
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    groups = [[n] for n in range(1, 49)]
    groups += [[a, b] for a in range(1, 49) for b in range(1, 49 // a + 1)]
    for orders in groups:
        group = make_group(orders)
        for targets in itertools.product(*map(divisors, orders)):
            target = make_group(targets)
            units = [target.index(int(i == j) for i in range(len(targets)))
                     for j in range(len(targets))]
            expected = tuple(tuple(group_add(target, x, unit) for x in range(target.cardinality))
                             for unit in units)
            assert quotient_system(group, targets).generators == expected, (orders, targets)


def test_make_system_rejects_non_invariant_measure():
    # Rotation moves the mass at state 0 to state 1, so a point mass at 0
    # is not invariant.
    with pytest.raises(ValueError, match="not invariant"):
        make_system(Z4, 4, [rotation_table(4)], [1, 0, 0, 0])


def test_make_system_rejects_empty_state_set():
    with pytest.raises(ValueError, match="at least one state"):
        make_system(Z4, 0, [[]])


def test_fixed_points_carry_any_invariant_measure():
    # The trivial action fixes every state, so any distribution is fine.
    sysm = make_system(Z4, 3, [[0, 1, 2]], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert measure_of(sysm, state_subset(sysm, [1])) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# acting on subsets


def test_apply_set_translation_examples():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 1])
    B = state_subset(sysm, [0])
    assert apply_set(sysm, A, B).indices() == (0, 1)
    B2 = state_subset(sysm, [0, 4])
    assert apply_set(sysm, A, B2).indices() == (0, 1, 4, 5)


def test_apply_identity_fixes_subset():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [2, 3, 7])
    assert apply_set(sysm, finite_set(Z8, [0]), B) == B


def test_apply_set_rejects_mismatches():
    sysm = regular_system(Z8)
    other = regular_system(Z4)
    B = state_subset(sysm, [0])
    with pytest.raises(ValueError, match="different group"):
        apply_set(sysm, finite_set(Z4, [0]), B)
    with pytest.raises(ValueError, match="non-empty"):
        apply_set(sysm, finite_set(Z8, []), B)
    with pytest.raises(ValueError, match="different system"):
        apply_set(other, finite_set(Z4, [0]), B)


def test_cover_masks_are_single_point_images():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 3])
    covers = cover_masks(sysm, A, state_subset(sysm, [6, 1]))
    assert list(covers) == [1, 6]
    assert covers == {1: 1 << 1 | 1 << 4, 6: 1 << 6 | 1 << 1}


def naive_apply(sysm, g: int, x: int) -> int:
    """g.x by applying generator j to x, one step at a time, d_j times."""
    for row, d in zip(sysm.generators, sysm.group.digits(g)):
        for _ in range(d):
            x = row[x]
    return x


@st.composite
def uneven_systems(draw):
    """A quotient of a two-factor group, or the union of two quotients of a cyclic
    or two-factor group, so that one generator's cycles can differ in length."""
    orders = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)
                  .filter(lambda os: 2 <= math.prod(os) <= 36))
    group = make_group(orders)
    targets = [[draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
                for n in orders] for _ in range(2)]
    if len(orders) == 2 and draw(st.booleans()):
        return quotient_system(group, targets[0])
    return disjoint_union(quotient_system(group, targets[0]),
                          quotient_system(group, targets[1]), Fraction(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_stepwise_generator_application(data):
    sysm = data.draw(uneven_systems())
    n = sysm.group.cardinality
    A = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=8))
    B = data.draw(st.sets(st.integers(0, sysm.states - 1), min_size=1))
    for g in A:
        for x in B:
            assert sysm.apply(g, x) == naive_apply(sysm, g, x)
    covers = cover_masks(sysm, finite_set(sysm.group, A), state_subset(sysm, B))
    assert covers == {x: sum({1 << naive_apply(sysm, g, x) for g in A}) for x in sorted(B)}


def test_directly_built_non_permutation_table_does_not_loop():
    weights = (Fraction(1, 4),) * 4
    sysm = ActionSystem(Z4, 4, ((1, 1, 3, 2),), weights)
    assert sysm.apply(1, 0) == 1
    assert sysm.apply(1, 2) == 3


def test_large_factor_order_action():
    # One power per recursion level once overflowed the stack at orders near 1000.
    g = make_group([5000])
    sysm = regular_system(g)
    assert sysm.apply(4999, 0) == 4999
    assert sysm.apply(2500, 2600) == 100
    assert cover_masks(sysm, finite_set(g, [1, 4999]), state_subset(sysm, [0])) == {
        0: 1 << 1 | 1 << 4999}
    with pytest.raises(ValueError, match="order dividing 2500"):
        make_system(make_group([2500]), 5000, [rotation_table(5000)])


def test_integer_measure_of_a_directly_built_system():
    base = quotient_system(Z8, [8])
    weights = (Fraction(1, 6),) * 3 + (Fraction(1, 4),) * 2 + (Fraction(0),) * 3
    sysm = ActionSystem(base.group, 8, base.generators, weights)
    assert sysm.denominator == 12
    assert sysm.int_weights == (2, 2, 2, 3, 3, 0, 0, 0)
    assert sysm.support_mask == 0b11111
    assert measure_of(sysm, state_subset(sysm, [0, 3, 7])) == Fraction(5, 12)


def test_measure_of_uniform_regular_system():
    sysm = regular_system(Z8)
    assert measure_of(sysm, state_subset(sysm, [0, 1])) == Fraction(1, 4)
    assert measure_of(sysm, full_states(sysm)) == 1
    assert measure_of(sysm, state_subset(sysm, [])) == 0


# ---------------------------------------------------------------------------
# orbit structure and ergodicity


def test_regular_system_is_ergodic():
    sysm = regular_system(Z8)
    assert orbits(sysm) == [list(range(8))]
    assert is_ergodic(sysm)


def test_quotient_system_is_ergodic():
    assert is_ergodic(quotient_system(Z8, [4]))


def test_disjoint_union_is_not_ergodic():
    sysm = disjoint_union(regular_system(Z4), regular_system(Z4))
    assert orbits(sysm) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert not is_ergodic(sysm)


def test_full_group_is_an_ergodic_set():
    sysm = regular_system(Z8)
    assert is_ergodic_set(sysm, full_set(Z8))


def test_small_interval_is_not_an_ergodic_set_for_translation():
    sysm = regular_system(Z8)
    assert not is_ergodic_set(sysm, finite_set(Z8, [0, 1]))


def test_quotient_shrinks_the_covering_requirement():
    # Acting on Z/4 through the reduction from Z/8, a set covering all
    # residues mod 4 moves any point onto the whole state space.
    sysm = quotient_system(Z8, [4])
    assert is_ergodic_set(sysm, finite_set(Z8, [0, 1, 2, 3]))
    assert not is_ergodic_set(sysm, finite_set(Z8, [0, 4]))


def test_ergodic_set_requires_ergodic_system():
    sysm = disjoint_union(regular_system(Z4), regular_system(Z4))
    with pytest.raises(ValueError, match="ergodic"):
        is_ergodic_set(sysm, full_set(Z4))


def test_ergodic_basis_examples():
    sysm = regular_system(Z4)
    A = finite_set(Z4, [0, 1, 2])
    # {0,1,2} + {0,1,2} covers all of Z/4 even though the set itself does not.
    assert not is_ergodic_set(sysm, A)
    assert is_ergodic_basis(sysm, A, 2)
    assert is_ergodic_basis(sysm, full_set(Z4), 1)

    sys8 = regular_system(Z8)
    assert not is_ergodic_basis(sys8, finite_set(Z8, [0, 1]), 2)
    with pytest.raises(ValueError, match="order"):
        is_ergodic_basis(sysm, A, 0)


# ---------------------------------------------------------------------------
# constructors


def test_quotient_system_validation():
    with pytest.raises(ValueError, match="does not divide"):
        quotient_system(Z8, [3])
    with pytest.raises(ValueError, match="per factor"):
        quotient_system(make_group([4, 2]), [2])


def test_disjoint_union_validation():
    a = regular_system(Z4)
    with pytest.raises(ValueError, match="strictly between"):
        disjoint_union(a, a, Fraction(1))
    with pytest.raises(ValueError, match="int or a Fraction"):
        disjoint_union(a, a, 0.3)
    with pytest.raises(ValueError, match="share the acting group"):
        disjoint_union(a, regular_system(Z8))


def test_disjoint_union_weights():
    sysm = disjoint_union(regular_system(Z4), quotient_system(Z4, [2]), Fraction(1, 3))
    assert sum(sysm.weights) == 1
    assert measure_of(sysm, state_subset(sysm, [0, 1, 2, 3])) == Fraction(1, 3)
    assert measure_of(sysm, state_subset(sysm, [4, 5])) == Fraction(2, 3)


def test_system_json_round_trip():
    sysm = disjoint_union(regular_system(Z4), quotient_system(Z4, [2]), Fraction(1, 3))
    data = system_to_json(sysm)
    back = system_from_json(data)
    assert back == sysm


def test_system_from_json_validation():
    with pytest.raises(ValueError, match="object"):
        system_from_json([1, 2])
    with pytest.raises(ValueError, match="missing"):
        system_from_json({"group": {"orders": [4]}, "states": 4})
    with pytest.raises(ValueError, match="bad measure"):
        system_from_json(
            {
                "group": {"orders": [2]},
                "states": 2,
                "action": [[1, 0]],
                "measure": ["1/0", "1"],
            }
        )


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(system_instances())
def test_group_elements_preserve_measure(inst):
    sysm, A, B = inst
    for a in A:
        moved = apply_set(sysm, finite_set(sysm.group, [a]), B)
        assert measure_of(sysm, moved) == measure_of(sysm, B)


@settings(max_examples=60, deadline=None)
@given(system_instances())
def test_apply_set_dominates_single_translates(inst):
    sysm, A, B = inst
    AB = apply_set(sysm, A, B)
    for a in A:
        single = apply_set(sysm, finite_set(sysm.group, [a]), B)
        assert AB.mask | single.mask == AB.mask
    assert measure_of(sysm, AB) >= measure_of(sysm, B)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ergodic_sets_are_closed_under_supersets(data):
    sysm = data.draw(systems(max_order=12, allow_union=False))
    A = data.draw(sets_in(sysm.group))
    if not is_ergodic_set(sysm, A):
        return
    extra = data.draw(sets_in(sysm.group))
    bigger = finite_set(sysm.group, set(A) | set(extra))
    assert is_ergodic_set(sysm, bigger)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homomorphism_property_of_the_action(data):
    sysm = data.draw(systems(max_order=12))
    n = sysm.group.cardinality
    g = data.draw(st.integers(0, n - 1))
    h = data.draw(st.integers(0, n - 1))
    gh = group_add(sysm.group, g, h)
    for x in range(sysm.states):
        assert sysm.apply(gh, x) == sysm.apply(g, sysm.apply(h, x))


@settings(max_examples=40, deadline=None)
@given(systems())
def test_system_json_round_trip_property(sysm):
    assert system_from_json(system_to_json(sysm)) == sysm


def test_state_count_is_bounded_before_tables_are_built():
    big = make_group([2 * MAX_STATES])
    message = f"state count {2 * MAX_STATES} exceeds the limit {MAX_STATES}"
    with pytest.raises(ValueError, match=message):
        regular_system(big)
    with pytest.raises(ValueError, match=message):
        quotient_system(big, [2 * MAX_STATES])
    assert quotient_system(big, [MAX_STATES]).states == MAX_STATES
    n = MAX_STATES + 1
    with pytest.raises(ValueError, match=f"state count {n} exceeds"):
        make_system(make_group([n]), n, [list(range(1, n)) + [0]])


# ---------------------------------------------------------------------------
# the system memo


def test_memo_hit_returns_the_same_system():
    clear_system_memo()
    q = quotient_system(make_group([12]), [4])
    assert quotient_system(make_group([12]), (4,)) is q
    assert regular_system(make_group([6, 4])) is quotient_system(make_group([6, 4]), [6, 4])
    u = disjoint_union(q, regular_system(make_group([12])), Fraction(1, 3))
    assert disjoint_union(q, regular_system(make_group([12])), "1/3") is u
    assert disjoint_union(q, regular_system(make_group([12]))) is not u
    info = system_memo_info()
    assert (info["hits"], info["misses"], info["systems"]) == (5, 5, 5)
    # Z/4, Z/12, Z/6 x Z/4, then each union's 16 states and the 4 + 12 it pins.
    assert info["states"] == 4 + 12 + 24 + (16 + 4 + 12) + (16 + 4 + 12)


def test_built_systems_are_never_memoised():
    sysm = regular_system(Z8)
    data = system_to_json(sysm)
    first, second = system_from_json(data), system_from_json(data)
    assert first == sysm and first is not sysm and second is not first
    assert make_system(Z8, 8, sysm.generators) is not make_system(Z8, 8, sysm.generators)


def test_memo_keeps_at_most_its_state_budget():
    clear_system_memo()
    budget = system_memo_info()["budget"]
    built = 0
    for n in range(2, 400):
        group = make_group([n])
        half = quotient_system(group, [n if n % 2 else n // 2])
        built += regular_system(group).states + disjoint_union(half, half).states
        info = system_memo_info()
        assert info["states"] <= budget
        assert info["states"] == sum(cost for _, cost, _ in systems_module._memo.entries.values())
    assert built > 2 * budget
    # The most recent systems are the ones kept.
    assert regular_system(make_group([399])) is regular_system(make_group([399]))


def test_a_system_over_the_budget_is_not_kept():
    clear_system_memo()
    big = regular_system(make_group([65536]))
    kept = weakref.ref(big)
    assert system_memo_info()["states"] == 0
    del big
    gc.collect()
    assert kept() is None


def test_memo_counts_stay_consistent_across_threads():
    clear_system_memo()

    def work(seed):
        rng = random.Random(seed)
        for _ in range(200):
            regular_system(make_group([rng.randint(2, 300)]))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    info = system_memo_info()
    assert info["hits"] + info["misses"] == 800
    kept = sum(cost for _, cost, _ in systems_module._memo.entries.values())
    assert info["states"] == kept <= info["budget"]


def test_racing_misses_share_one_system():
    clear_system_memo()
    group = make_group([6, 4])
    barrier = threading.Barrier(4)
    got = []

    def work():
        barrier.wait()
        got.append(regular_system(group))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 4
    assert all(s is got[0] for s in got)
    assert system_memo_info()["systems"] == 1


def test_a_build_may_use_the_memo():
    # The lock is not held while building, so a build that reaches the memo
    # again (a union of fresh quotients) does not deadlock.
    clear_system_memo()
    group = make_group([8])
    done = []

    def work():
        outer = systems_module._memo.get(
            ("outer",), lambda: disjoint_union(regular_system(group), quotient_system(group, [4])))
        done.append(outer)

    t = threading.Thread(target=work, daemon=True)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert done[0].states == 12
    assert system_memo_info()["systems"] == 4


# ---------------------------------------------------------------------------
# is_ergodic_set reads one support state; the reference reads all of them


def _covers_every_support_state(sysm, A):
    """The all-states definition, through ``ActionSystem.apply`` element by element:
    for every state y of the support, A.{y} contains the support."""
    support = sysm.support_mask
    ys = [y for y in range(sysm.states) if support >> y & 1]
    return all(sum({1 << sysm.apply(a, y) for a in A}) & support == support for y in ys)


def _small_groups():
    """Every cyclic group of order 2..12, and every two-factor one with factors >= 2."""
    out = [make_group([n]) for n in range(2, 13)]
    out += [make_group([a, b]) for a in range(2, 7) for b in range(2, 7) if a * b <= 12]
    return out


def _quotient_targets(group):
    targets = itertools.product(*([d for d in range(1, n + 1) if n % d == 0]
                                  for n in group.orders))
    return [list(t) for t in targets if any(d > 1 for d in t)]


def test_one_support_state_decides_every_acting_set_on_small_systems():
    # Every quotient (the regular system among them) of every group of order
    # <= 12, and every non-empty A: covers[A][y] is A.{y}, grown one element
    # of A at a time from the per-element action table.
    for group in _small_groups():
        n = group.cardinality
        for target in _quotient_targets(group):
            sysm = quotient_system(group, target)
            support = sysm.support_mask
            image = [[1 << sysm.apply(a, y) for y in range(sysm.states)] for a in range(n)]
            covers = [[0] * sysm.states]
            for A in range(1, 1 << n):
                top = A.bit_length() - 1
                rest = covers[A ^ (1 << top)]
                covers.append([c | i for c, i in zip(rest, image[top])])
                want = all(c & support == support for c in covers[A])
                assert is_ergodic_set(sysm, FiniteSet(group, A)) == want, (group, target, A)


def test_the_one_state_test_matches_the_all_states_reference_on_seeded_draws():
    rng = random.Random(20260)
    for _ in range(300):
        orders = rng.choice([[rng.randint(2, 24)], [rng.randint(2, 6), rng.randint(2, 6)]])
        group = make_group(orders)
        target = rng.choice(_quotient_targets(group))
        sysm = quotient_system(group, target)
        A = finite_set(group, rng.sample(range(group.cardinality),
                                         rng.randint(1, min(8, group.cardinality))))
        assert is_ergodic_set(sysm, A) == _covers_every_support_state(sysm, A)


def test_the_one_state_test_still_refuses_non_ergodic_systems():
    for group in _small_groups():
        targets = _quotient_targets(group)
        union = disjoint_union(quotient_system(group, targets[0]),
                               quotient_system(group, targets[-1]))
        for A in (FiniteSet(group, 1), full_set(group)):
            with pytest.raises(ValueError, match="ergodic systems"):
                is_ergodic_set(union, A)


def test_ergodicity_is_worked_out_once_per_system():
    sysm = make_system(Z4, 4, [rotation_table(4)])
    assert is_ergodic(sysm) and "_ergodic" in vars(sysm)
    split = disjoint_union(regular_system(Z4), regular_system(Z4))
    assert not is_ergodic(split) and vars(split)["_ergodic"] is False
