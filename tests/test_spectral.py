"""Tests for characters, the group transform, and equidistribution defects.

Tolerances: 1e-9 absolute for transform cross-checks, 1e-12 for quantities
that are exact in theory.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    char_value,
    equidist_defect,
    finite_set,
    floor_three_halves,
    full_set,
    group_dft,
    group_dft_naive,
    is_ergodic_set,
    make_group,
    regular_system,
    translate,
    weyl_defect_window,
)

from sumsetlab.spectral import MAX_THREE_HALVES_LIMIT

from conftest import group_add, groups, sets_in

TRANSFORM_TOL = 1e-9
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# characters


def test_trivial_character_is_constant_one():
    g = make_group([6, 4])
    for x in range(g.cardinality):
        assert char_value(g, 0, x) == pytest.approx(1.0, abs=EXACT_TOL)


def test_character_frozen_values():
    z8 = make_group([8])
    # chi=2 at g=4: exp(2 pi i * 8/8) closes the full circle.
    assert char_value(z8, 2, 4) == pytest.approx(1.0, abs=EXACT_TOL)
    z2 = make_group([2])
    assert char_value(z2, 1, 1) == pytest.approx(-1.0, abs=EXACT_TOL)
    assert abs(char_value(z8, 3, 5)) == pytest.approx(1.0, abs=EXACT_TOL)


def test_characters_are_multiplicative():
    g = make_group([4, 3])
    for chi in range(g.cardinality):
        for x in (1, 5, 7):
            for y in (2, 3, 11):
                lhs = char_value(g, chi, group_add(g, x, y))
                rhs = char_value(g, chi, x) * char_value(g, chi, y)
                assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# transforms


def test_dft_of_full_group_indicator():
    g = make_group([8])
    spectrum = group_dft(g, [1.0] * 8)
    assert spectrum[0] == pytest.approx(8.0, abs=TRANSFORM_TOL)
    assert np.abs(spectrum[1:]).max() < TRANSFORM_TOL


def test_dft_of_identity_indicator_is_flat():
    g = make_group([2, 6])
    w = [0.0] * g.cardinality
    w[0] = 1.0
    spectrum = group_dft(g, w)
    assert np.allclose(spectrum, 1.0, atol=TRANSFORM_TOL)


def test_dft_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        group_dft(make_group([8]), [1.0] * 7)


def test_fast_and_naive_transforms_agree_on_a_frozen_vector():
    g = make_group([8])
    w = [1.0, 0, 0, 0, 1.0, 0, 0, 0]
    assert np.abs(group_dft(g, w) - group_dft_naive(g, w)).max() < TRANSFORM_TOL


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fast_transform_matches_naive_oracle(data):
    g = data.draw(groups(max_order=64, max_factors=3))
    w = data.draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, allow_infinity=False),
            min_size=g.cardinality,
            max_size=g.cardinality,
        )
    )
    fast = group_dft(g, w)
    slow = group_dft_naive(g, w)
    assert np.abs(fast - slow).max() < TRANSFORM_TOL


def test_transforms_agree_on_larger_groups():
    rng = np.random.default_rng(7)
    for orders in ([240], [16, 15], [5, 7, 8]):
        g = make_group(orders)
        w = rng.standard_normal(g.cardinality)
        assert np.abs(group_dft(g, w) - group_dft_naive(g, w)).max() < TRANSFORM_TOL


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parseval_identity(data):
    g = data.draw(groups(max_order=32))
    w = np.array(
        data.draw(
            st.lists(
                st.floats(-4, 4, allow_nan=False, allow_infinity=False),
                min_size=g.cardinality,
                max_size=g.cardinality,
            )
        )
    )
    spectrum = group_dft(g, w)
    energy = float((np.abs(spectrum) ** 2).sum())
    expected = g.cardinality * float((w**2).sum())
    assert abs(energy - expected) <= 1e-9 * max(1.0, expected)


# ---------------------------------------------------------------------------
# equidistribution defect


def test_defect_of_full_group_is_zero():
    g = make_group([12])
    assert equidist_defect(full_set(g)).defect < EXACT_TOL


def test_defect_of_subgroup_is_one():
    g = make_group([8])
    report = equidist_defect(finite_set(g, [0, 4]), include_magnitudes=True)
    assert report.defect == pytest.approx(1.0, abs=EXACT_TOL)
    # chi = 2 has period 4, hence is constant on {0, 4}.
    assert report.magnitudes[2] == pytest.approx(1.0, abs=EXACT_TOL)
    assert report.set_size == 2


def test_defect_of_almost_full_set():
    g = make_group([8])
    report = equidist_defect(finite_set(g, range(7)))
    assert report.defect == pytest.approx(1 / 7, abs=EXACT_TOL)


def test_defect_rejects_empty_set():
    g = make_group([8])
    with pytest.raises(ValueError, match="empty"):
        equidist_defect(finite_set(g, []))


def test_defect_json_shape():
    g = make_group([8])
    data = equidist_defect(finite_set(g, [0, 4])).to_json()
    assert data["dtype"] == "float64"
    assert set(data) == {"defect", "worst_character", "set_size", "dtype"}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_defect_bounds_and_translation_invariance(data):
    g = data.draw(groups(max_order=24))
    A = data.draw(sets_in(g))
    shift = data.draw(st.integers(0, g.cardinality - 1))
    d = equidist_defect(A).defect
    assert -EXACT_TOL <= d <= 1 + EXACT_TOL
    moved = equidist_defect(translate(A, shift)).defect
    assert moved == pytest.approx(d, abs=TRANSFORM_TOL)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_zero_defect_only_for_the_full_group(data):
    g = data.draw(groups(max_order=16))
    A = data.draw(sets_in(g))
    if A.size == g.cardinality:
        assert equidist_defect(A).defect < EXACT_TOL
    else:
        assert equidist_defect(A).defect > EXACT_TOL


def test_zero_defect_sets_are_ergodic_sets():
    g = make_group([9])
    A = full_set(g)
    assert equidist_defect(A).defect < EXACT_TOL
    assert is_ergodic_set(regular_system(g), A)


# ---------------------------------------------------------------------------
# Weyl defect on integer windows


def test_weyl_full_window_is_flat():
    N = 64
    grid = [k / N for k in range(1, N)]
    assert weyl_defect_window(range(N), N, grid) < TRANSFORM_TOL


def test_weyl_even_numbers_peak_at_one_half():
    N = 64
    assert weyl_defect_window(range(0, N, 2), N, [0.5]) == pytest.approx(1.0, abs=EXACT_TOL)


def test_weyl_validation():
    with pytest.raises(ValueError, match="empty"):
        weyl_defect_window([], 8, [0.5])
    with pytest.raises(ValueError, match="lie in"):
        weyl_defect_window([9], 8, [0.5])
    with pytest.raises(ValueError, match="between"):
        weyl_defect_window([0, 1], 8, [0.0])
    with pytest.raises(ValueError, match="non-empty"):
        weyl_defect_window([0, 1], 8, [])


def test_power_sequence_defect_decays_with_window():
    grid = [k / 1024 for k in range(1, 1024)]
    small = weyl_defect_window(floor_three_halves(10**3), 10**3, grid)
    large = weyl_defect_window(floor_three_halves(10**5), 10**5, grid)
    assert large < small


def test_floor_three_halves_prefix():
    assert floor_three_halves(30) == [1, 2, 5, 8, 11, 14, 18, 22, 27]
    assert floor_three_halves(1) == []
    values = floor_three_halves(10**4)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values == sorted(math.isqrt(n**3) for n in range(1, len(values) + 1))


def test_floor_three_halves_limit_is_bounded():
    assert len(floor_three_halves(4_000_000)) == 25198
    with pytest.raises(ValueError, match="exceeds"):
        floor_three_halves(MAX_THREE_HALVES_LIMIT + 1)
