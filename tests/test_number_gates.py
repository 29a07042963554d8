"""The two gates every number passes: ``exact_int`` and ``parse_fraction``.

Numpy integers are read as the Python integers they equal (a shift by a
numpy int64 of 64 or more would overflow to 0); bools, floats, strings and
inexact rationals are refused with a ValueError instead of being cast,
truncated or crashing on later arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import (
    check_petridis_lemma,
    finite_set,
    make_group,
    make_system,
    periodic,
    regular_system,
    state_subset,
    translate,
    zdesc,
)
from sumsetlab import groups
from sumsetlab.groups import exact_int, parse_fraction
from sumsetlab.verify import CampaignConfig

G128 = make_group([128])
R8 = regular_system(make_group([8]))


@pytest.mark.parametrize("build, expected", [
    (lambda: finite_set(G128, [np.int64(70)]), (70,)),
    (lambda: state_subset(regular_system(G128), [np.int64(70)]), (70,)),
    (lambda: translate(finite_set(G128, [0]), np.int64(100)), (100,)),
], ids=["finite_set", "state_subset", "translate"])
def test_numpy_integers_are_read_as_the_integers_they_equal(build, expected):
    assert build().indices() == expected


@pytest.mark.parametrize("call", [
    lambda: zdesc([1.7]),
    lambda: periodic(4.9, [1]),
    lambda: make_system(make_group([2]), 2, [[True, False]]),
    lambda: finite_set(G128, [1.0]),
    lambda: finite_set(G128, [True]),
    lambda: check_petridis_lemma(R8, finite_set(R8.group, [0, 1]), state_subset(R8, [0]),
                                 state_subset(R8, [0]), finite_set(R8.group, [0]), eps=0.1),
    lambda: CampaignConfig(instances=2.5),
    lambda: parse_fraction("1/0"),
], ids=["zdesc-float", "periodic-float", "table-bools", "member-float", "member-bool",
        "eps-float", "instances-float", "zero-denominator"])
def test_inexact_numbers_are_refused_not_cast(call):
    with pytest.raises(ValueError):
        call()


def test_exact_int_returns_a_python_int():
    for value in (7, np.int64(7), np.uint8(7), np.int32(-7)):
        out = exact_int(value, "x")
        assert type(out) is int and out == int(value)
    for value in (True, 7.0, "7", None, Fraction(7), [7]):
        with pytest.raises(ValueError, match=r"^x must be an integer, got "):
            exact_int(value, "x")


def test_parse_fraction_reads_rationals_and_refuses_the_rest_with_one_message():
    assert parse_fraction(Fraction(2, 6)) == Fraction(1, 3)
    assert parse_fraction(np.int64(-3)) == Fraction(-3)
    assert parse_fraction(" 2/6") == Fraction(1, 3)
    assert parse_fraction("0.25") == Fraction(1, 4)
    for value in ("1/0", "1e3", "1E3", "x", "", "nan", 0.5, True, None, [1]):
        with pytest.raises(ValueError, match=r"^not a rational p/q: "):
            parse_fraction(value)


def test_groups_keeps_two_numeric_gates():
    assert not hasattr(groups, "json_int") and not hasattr(groups, "json_ints")
    assert {"exact_int", "parse_fraction"} <= set(groups.__all__)
