"""Tests for shift-orbit closures of eventually-periodic integer sets."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    OrbitSystem,
    banach_lower,
    banach_upper,
    finite,
    integers,
    is_ergodic,
    measure_of,
    orbit_closure,
    periodic,
    recovery_window_ok,
    verify_correspondence,
    zcontains,
    zdesc,
)

from conftest import alarm, zdescs

EVENS = periodic(2, [0])
NONNEG = zdesc((), 0, 0, None, (1, [0]))


# ---------------------------------------------------------------------------
# orbit closures


def test_even_numbers_have_a_two_state_closure():
    closure = orbit_closure(EVENS)
    assert len(closure.orbits) == 1
    orb = closure.orbits[0]
    assert orb.side == "both"
    assert orb.period == 2
    assert orb.b_measure == Fraction(1, 2)
    assert not closure.degenerate


def test_full_line_closure_is_a_fixed_point():
    closure = orbit_closure(integers())
    assert len(closure.orbits) == 1
    orb = closure.orbits[0]
    assert orb.period == 1
    assert orb.b_measure == 1


def test_half_line_has_two_limit_orbits():
    closure = orbit_closure(NONNEG)
    assert len(closure.orbits) == 2
    by_side = {o.side: o for o in closure.orbits}
    assert by_side["right"].b_measure == 1
    assert by_side["left"].b_measure == 0
    assert not closure.degenerate


def test_finite_set_closure_is_degenerate():
    closure = orbit_closure(finite([3, 5]))
    assert closure.degenerate
    assert all(o.b_measure == 0 for o in closure.orbits)


def test_limit_orbit_systems_are_ergodic():
    for S in (EVENS, NONNEG, periodic(6, [0, 1])):
        for orb in orbit_closure(S).orbits:
            assert is_ergodic(orb.system)
            assert measure_of(orb.system, orb.b_set) == orb.b_measure


def test_recovery_window():
    for S in (EVENS, NONNEG, integers(), periodic(6, [0, 1]), finite([2])):
        assert recovery_window_ok(orbit_closure(S), -200, 200)


# ---------------------------------------------------------------------------
# correspondence report


def test_even_numbers_report():
    report = verify_correspondence(EVENS, [0, 1])
    assert report.all_hold
    rel = report.relations
    assert (rel[0].lhs, rel[0].rhs) == (Fraction(1, 2), Fraction(1, 2))
    # A + 2Z = Z, and the two translates cover both states.
    assert (rel[2].lhs, rel[2].rhs) == (1, 1)
    assert not report.degenerate


def test_full_line_report_is_all_equalities_at_one():
    report = verify_correspondence(integers(), [0, 5, 9])
    assert report.all_hold
    for rel in report.relations:
        assert rel.lhs == 1 and rel.rhs == 1


def test_period_six_pattern_report():
    S = periodic(6, [0, 1])
    report = verify_correspondence(S, [0, 3])
    assert report.all_hold
    rel = report.relations
    assert rel[0].lhs == Fraction(1, 3)
    assert rel[0].rhs == Fraction(1, 3)
    # {0,3} + S covers {0,1,3,4} mod 6 on both sides of the comparison.
    assert rel[2].lhs == Fraction(2, 3)
    assert rel[2].rhs == Fraction(2, 3)


def test_half_line_report():
    report = verify_correspondence(NONNEG, [0, 2])
    assert report.all_hold
    rel = report.relations
    assert rel[0].lhs == 1  # upper density
    assert rel[1].lhs == 0  # lower density
    assert report.mu_side == "right"


@pytest.mark.parametrize("S, A", [
    (EVENS, [0, 1]),
    (NONNEG, [0, 2]),
    (finite([0, 3]), [1]),
    (zdesc([0, 2, 3], 0, 4, (6, {1, 4}), (4, {0, 3})), [0, 3, 7]),
    (zdesc([5], 0, 9, (3, {0}), (5, {1, 2})), [-4, 0, 11]),
])
def test_correspondence_measures_each_limit_orbit_once(monkeypatch, S, A):
    # The package attribute ``orbits`` is ``systems.orbits``, so reach the module by name.
    module = sys.modules["sumsetlab.orbits"]
    calls = []
    real = module.apply_set
    monkeypatch.setattr(module, "apply_set", lambda *args: calls.append(args) or real(*args))
    verify_correspondence(S, A)
    assert len(calls) <= len(orbit_closure(S).orbits)

def test_report_rejects_empty_acting_set():
    with pytest.raises(ValueError, match="non-empty"):
        verify_correspondence(EVENS, [])


def test_report_json_shape():
    data = verify_correspondence(EVENS, [0, 1]).to_json()
    assert set(data) == {"relations", "mu_side", "nu_side", "degenerate"}
    assert data["degenerate"] is False
    assert data["mu_side"] == "both"
    assert len(data["relations"]) == 4
    row = data["relations"][0]
    assert set(row) == {"name", "op", "lhs", "rhs", "holds"}
    assert row["lhs"] == "1/2"
    assert all(r["holds"] for r in data["relations"])


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(zdescs(), st.sets(st.integers(-6, 6), min_size=1, max_size=4))
def test_correspondence_relations_hold_in_general(S, A):
    report = verify_correspondence(S, A)
    assert report.all_hold, [
        (r.name, r.lhs, r.rhs) for r in report.relations if not r.holds
    ]


@settings(max_examples=60, deadline=None)
@given(zdescs())
def test_recovery_property(S):
    assert recovery_window_ok(orbit_closure(S), -150, 150)


@dataclass(frozen=True)
class _FlippedOrbit(OrbitSystem):
    """An orbit system whose shift route answers wrongly at one point."""

    flip: int = 0

    def b_xo_contains(self, g: int) -> bool:
        return super().b_xo_contains(g) != (g == self.flip)


@settings(max_examples=60, deadline=None)
@given(zdescs(), st.integers(-40, 40), st.integers(0, 80), st.data())
def test_recovery_reads_every_point_it_needs(S, lo, width, data):
    # The head window's points and one period of each tail's part are read,
    # so a wrong answer at any of them fails the window.  Deeper tail points
    # repeat one of those, since both routes are periodic there.
    orb = orbit_closure(S)
    hi = lo + width
    pointwise = all(orb.b_xo_contains(g) == zcontains(S, g) for g in range(lo, hi))
    assert recovery_window_ok(orb, lo, hi) == pointwise
    left_p = S.left.period if S.left else 1
    right_p = S.right.period if S.right else 1
    left_stop, right_start = min(hi, S.lo), max(lo, S.hi)
    read = [*range(max(lo, left_stop - left_p), left_stop),
            *range(max(lo, S.lo), min(hi, S.hi)),
            *range(right_start, min(hi, right_start + right_p))]
    assert all(lo <= g < hi for g in read)
    if read:
        flip = data.draw(st.sampled_from(read))
        broken = _FlippedOrbit(orb.source, orb.orbits, orb.degenerate, flip)
        assert not recovery_window_ok(broken, lo, hi)


def test_recovery_of_a_window_of_any_length_is_bounded():
    S = zdesc([0, 2, 3], 0, 4, (6, [1, 4]), (4, [0, 3]))
    for orb in (orbit_closure(S), orbit_closure(periodic(4096, [0, 5]))):
        with alarm(5, "a recovery window of 2 * 10**12 points"):
            assert recovery_window_ok(orb, -10**12, 10**12)
    # A wide head window is read point by point, and past the work limit refused.
    wide = orbit_closure(finite([0, 10**9]))
    assert recovery_window_ok(wide, 10**9 - 50, 10**9 + 50)
    with pytest.raises(ValueError, match="work"):
        recovery_window_ok(wide, 0, 10**9)
    assert recovery_window_ok(wide, 5, 5) and recovery_window_ok(wide, 9, 3)


@settings(max_examples=60, deadline=None)
@given(zdescs())
def test_orbit_measures_are_exactly_the_tail_densities(S):
    closure = orbit_closure(S)
    measures = [o.b_measure for o in closure.orbits]
    assert max(measures) == banach_upper(S)
    assert min(measures) == banach_lower(S)
