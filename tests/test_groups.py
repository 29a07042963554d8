"""Group arithmetic: frozen values plus algebraic properties."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import (
    bit_indices,
    finite_set,
    full_set,
    group_density,
    iterated_sumset,
    make_group,
    negate,
    sumset,
    translate,
)
from sumsetlab.groups import MAX_GROUP_ORDER, GroupSpec

from conftest import group_add, group_with_sets, groups, sets_in


def members(fs):
    return list(fs.indices())


def test_make_group_orders():
    assert make_group([8]).cardinality == 8
    assert make_group([2, 3]).cardinality == 6
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([])
    assert make_group([MAX_GROUP_ORDER]).cardinality == MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="exceeds the limit"):
        make_group([MAX_GROUP_ORDER // 2, 3])
    # Orders are integers, never cast: no truncation, no parsing, no bools.
    for orders in ([2.5], ["3"], [True], [4, 2.0]):
        with pytest.raises(ValueError, match="factor order must be an integer"):
            make_group(orders)
    group = make_group([np.int64(4), np.uint8(3)])
    assert group.orders == (4, 3) and all(type(n) is int for n in group.orders)


def test_make_group_shares_one_group_per_orders_tuple():
    z8 = make_group([8])
    assert make_group((8,)) is z8 and make_group([np.int64(8)]) is z8
    assert make_group(iter([8])) is z8 and make_group(range(8, 9)) is z8
    assert make_group([2, 3]) is make_group((2, 3)) is not make_group([3, 2])
    assert z8 == GroupSpec((8,)) and z8 is not GroupSpec((8,))
    # (True,) and (1.0,) equal the key (1,) of an interned Z/1, yet stay refused.
    make_group([1])
    for orders in ([True], [1.0], ["1"], (True,), [8, True], [np.float64(8)]):
        with pytest.raises(ValueError, match="factor order must be an integer"):
            make_group(orders)


def test_the_group_table_stays_bounded(monkeypatch):
    from sumsetlab import groups as groups_module

    monkeypatch.setattr(groups_module, "_groups", {})
    table = groups_module._groups
    # A group of larger order than the limit is built each time, not kept.
    large = groups_module._MAX_INTERNED_ORDER + 1
    assert make_group([large]) is not make_group([large]) and not table
    bound = groups_module._MAX_INTERNED_GROUPS
    made = [make_group([n, 2]) for n in range(1, bound + 101)]
    assert len(table) == bound
    assert make_group([bound, 2]) is made[bound - 1]
    # Past the bound a group is still built and gated, but not kept.
    late = make_group([bound + 50, 2])
    assert late.orders == (bound + 50, 2) and late is not made[bound + 49]
    assert len(table) == bound
    with pytest.raises(ValueError):
        make_group([bound + 200, 0])


def test_mixed_radix_encoding_least_significant_first():
    g = make_group([2, 3])
    # index = d0 + 2*d1 with d0 in Z/2, d1 in Z/3
    assert g.digits(5) == (1, 2)
    assert g.index((1, 2)) == 5
    assert group_add(g, 1, 2) == g.index((1, 1))  # (1,0)+(0,1) componentwise


def test_sumset_frozen_example():
    g = make_group([8])
    a = finite_set(g, [0, 1])
    b = finite_set(g, [0, 4])
    assert members(sumset(a, b)) == [0, 1, 4, 5]


def test_sumset_identity_and_full():
    g = make_group([8])
    b = finite_set(g, [2, 5, 7])
    assert sumset(finite_set(g, [0]), b) == b
    assert sumset(finite_set(g, [0, 1]), full_set(g)) == full_set(g)


def test_sumset_rejects_mismatch_and_empty():
    g, h = make_group([8]), make_group([6])
    with pytest.raises(ValueError):
        sumset(finite_set(g, [0]), finite_set(h, [0]))
    with pytest.raises(ValueError):
        finite_set(g, [9])
    with pytest.raises(ValueError):
        sumset(finite_set(g, [0]), finite_set(g, []))


def test_iterated_sumset_frozen_examples():
    g = make_group([8])
    assert members(iterated_sumset(finite_set(g, [0, 1]), 3)) == [0, 1, 2, 3]
    a = finite_set(g, [3, 5])
    assert iterated_sumset(a, 1) == a
    g4 = make_group([4])
    assert members(iterated_sumset(finite_set(g4, [0, 1, 2]), 2)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        iterated_sumset(a, 0)


def test_negate_frozen_examples():
    g = make_group([8])
    assert members(negate(finite_set(g, [0, 1]))) == [0, 7]
    assert members(negate(finite_set(g, [0]))) == [0]
    sym = finite_set(g, [1, 7])
    assert negate(sym) == sym


def test_group_density_frozen_examples():
    g = make_group([8])
    assert group_density(finite_set(g, [0, 4])) == Fraction(1, 4)
    assert group_density(full_set(g)) == 1
    assert group_density(finite_set(g, [0, 2])) == group_density(finite_set(g, [1, 3]))


def test_translate_wraps_componentwise():
    g = make_group([2, 3])
    a = finite_set(g, [0, 5])
    t = translate(a, 1)  # add (1,0)
    assert members(t) == sorted(group_add(g, x, 1) for x in [0, 5])


def test_bit_indices_roundtrip():
    mask = (1 << 0) | (1 << 5) | (1 << 63)
    assert list(bit_indices(mask)) == [0, 5, 63]


def mask_of(positions) -> int:
    """The mask with exactly these bits set, built in one pass."""
    bits = bytearray(max(positions, default=-1) // 8 + 1)
    for p in positions:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


def shift_reference(mask: int, width: int) -> list[int]:
    return [i for i in range(width) if mask >> i & 1]


@st.composite
def wide_masks(draw):
    """(width, mask) with the top bit set: sparse, dense, any count, or with
    set bits on either side of the cut-over between bit_indices' two reads."""
    width = draw(st.sampled_from([0, 1, 63, 64, 65, 128, 1024, 65536]))
    if width == 0:
        return 0, 0
    shape = draw(st.sampled_from(["sparse", "dense", "any", "cut"]))
    if shape == "sparse":
        count = draw(st.integers(1, min(width, 12)))
    elif shape == "dense":
        count = draw(st.integers(max(width // 2, 1), width))
    elif shape == "any":
        count = draw(st.integers(1, width))
    else:
        count = min(min(width >> 3, 256) + draw(st.integers(0, 1)), width) or 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    return width, mask_of(rng.sample(range(width - 1), count - 1) + [width - 1])


@settings(max_examples=80, deadline=None)
@given(wide_masks())
def test_bit_indices_matches_the_shift_reference(case):
    width, mask = case
    assert list(bit_indices(mask)) == shift_reference(mask, width)


def test_bit_indices_reads_a_wide_dense_mask_under_the_int_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int digits")
    width = 1 << 17
    mask = random.Random(17).getrandbits(width) | 1 << (width - 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = list(bit_indices(mask))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == shift_reference(mask, width)


@pytest.mark.parametrize("mask", [-1, -(1 << 70)])
def test_bit_indices_refuses_a_negative_mask_before_reading(mask):
    # The low-bit loop never ends on a negative mask; floats, bools, strings
    # and numpy integers are the contract test's "bit_indices mask" row.
    with pytest.raises(ValueError, match="mask must be non-negative"):
        bit_indices(mask)


def test_group_json_roundtrip():
    g = make_group([4, 3])
    assert GroupSpec.from_json(g.to_json()) == g


@given(group_with_sets(count=2))
def test_sumset_commutative(data):
    _, a, b = data
    assert sumset(a, b) == sumset(b, a)


@given(group_with_sets(count=3, max_order=12))
def test_sumset_associative(data):
    _, a, b, c = data
    assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


@given(group_with_sets(count=2))
def test_sumset_at_least_max_size(data):
    _, a, b = data
    assert sumset(a, b).size >= max(a.size, b.size)


@given(group_with_sets(count=2))
def test_sumset_monotone(data):
    g, a, b = data
    bigger = finite_set(g, set(a.indices()) | {0})
    small = sumset(a, b)
    large = sumset(bigger, b)
    assert small.mask & ~large.mask == 0


@given(group_with_sets(count=1), st.integers(0, 200))
def test_density_translation_invariant(data, shift):
    g, a = data
    assert group_density(translate(a, shift % g.cardinality)) == group_density(a)


@given(group_with_sets(count=1))
def test_density_negation_invariant(data):
    _, a = data
    assert group_density(negate(a)) == group_density(a)


@given(group_with_sets(count=1, max_order=10), st.integers(1, 3), st.integers(1, 3))
def test_iterated_sumset_additive_law(data, j, k):
    _, a = data
    assert iterated_sumset(a, j + k) == sumset(iterated_sumset(a, j), iterated_sumset(a, k))


@given(groups(max_order=24))
def test_full_set_density_one(g):
    assert group_density(full_set(g)) == 1


@given(group_with_sets(count=2, max_order=12))
def test_sumset_matches_pairwise_enumeration(data):
    """Independent oracle: elementwise definition, no bitmask tricks."""
    g, a, b = data
    expected = sorted({group_add(g, x, y) for x in a.indices() for y in b.indices()})
    assert members(sumset(a, b)) == expected


def test_trivial_factor_generator_is_identity():
    g = make_group([1, 8])
    assert g.index((1, 0)) == 0
    assert g.index((0, 1)) == 1
    assert group_add(g, g.index((1, 0)), 3) == 3
