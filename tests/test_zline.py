"""Eventually periodic integer sets: densities, sumsets, membership oracle."""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsetlab import (
    banach_lower,
    banach_upper,
    finite,
    integers,
    is_empty,
    periodic,
    shift,
    verify_correspondence,
    window_density,
    zcontains,
    zdesc,
    zset_from_json,
    zset_to_json,
    zsumset,
    zsumset_iterated,
)

import sumsetlab
from sumsetlab import zline
from sumsetlab.zline import MAX_SUMSET_SPAN, MAX_SUMSET_WORK, MAX_TAIL_PERIOD, Tail

from conftest import zdescs

EVENS = periodic(2, [0])
NONNEG = zdesc((), 0, 0, None, (1, [0]))


def brute_sumset_member(A, B, x, span=220):
    """Definitional oracle: scan for a witness pair a + b = x.

    Any witness can be slid by tail periods toward the head windows or
    toward x, so a scan radius beyond every head extent plus a few lcms of
    the (<= 6) tail periods is exhaustive for the strategy families here.
    """
    for a in range(x - span, x + span + 1):
        if zcontains(A, a) and zcontains(B, x - a):
            return True
    return any(zcontains(A, a) and zcontains(B, x - a)
               for a in range(-span, span + 1))


def test_banach_frozen_examples():
    assert banach_upper(EVENS) == Fraction(1, 2)
    assert banach_lower(EVENS) == Fraction(1, 2)
    assert banach_upper(NONNEG) == 1
    assert banach_lower(NONNEG) == 0
    two_points = finite([3, 17])
    assert banach_upper(two_points) == 0
    assert banach_lower(two_points) == 0
    assert banach_upper(integers()) == 1
    assert banach_lower(integers()) == 1


def test_window_density_frozen_examples():
    assert window_density(EVENS, 0, 10) == Fraction(1, 2)
    assert window_density(NONNEG, -5, 5) == Fraction(1, 2)
    assert window_density(EVENS, 4, 5) in (0, 1)
    with pytest.raises(ValueError):
        window_density(EVENS, 3, 3)


def test_window_density_counts_a_long_window_by_whole_periods():
    start = time.perf_counter()
    assert window_density(EVENS, 0, 10**12) == Fraction(1, 2)
    assert window_density(NONNEG, -10**15, 10**15) == Fraction(1, 2)
    assert window_density(zdesc([0], 0, 1, (4, [1]), (3, [2])), -4 * 10**15, 3 * 10**15) == \
        Fraction(10**15 + 10**15 + 1, 7 * 10**15)
    assert time.perf_counter() - start < 0.5


@given(zdescs(), st.integers(-60, 60), st.integers(1, 200))
def test_window_density_matches_the_pointwise_count(s, lo, length):
    count = sum(1 for n in range(lo, lo + length) if zcontains(s, n))
    assert window_density(s, lo, lo + length) == Fraction(count, length)


def test_membership_all_three_regions():
    s = zdesc([0, 2], 0, 3, (3, [1]), (4, [0, 1]))
    assert zcontains(s, 0) and not zcontains(s, 1) and zcontains(s, 2)
    # left region: n < 0 iff n % 3 == 1
    assert zcontains(s, -2) and not zcontains(s, -3) and zcontains(s, -5)
    # right region: n >= 3 iff n % 4 in {0,1}
    assert zcontains(s, 4) and zcontains(s, 8) and not zcontains(s, 6)


def test_zsumset_frozen_examples():
    assert zsumset(EVENS, EVENS) == EVENS
    b = zdesc([1, 4], 1, 5, None, (3, [0]))
    assert zsumset(finite([0]), b) == b
    assert zsumset(EVENS, finite([0, 1])) == integers()


def test_zsumset_rejects_empty():
    with pytest.raises(ValueError):
        zsumset(EVENS, finite([]))


def test_empty_and_shift():
    assert is_empty(finite([]))
    assert not is_empty(EVENS)
    odds = shift(EVENS, 1)
    assert zcontains(odds, 1) and not zcontains(odds, 0)
    assert banach_upper(odds) == Fraction(1, 2)


def test_normal_form_canonicalizes():
    # Same set, three descriptions: evens via doubled period, via redundant
    # head cells, and directly.
    doubled = periodic(4, [0, 2])
    padded = zdesc([0, 2, 4], 0, 5, (2, [0]), (2, [0]))
    assert doubled == EVENS
    assert padded == EVENS


def test_json_roundtrip_frozen_shape():
    s = zdesc([0, 2], 0, 3, (3, [1]), None)
    blob = zset_to_json(s)
    assert blob == {
        "head": {"lo": 0, "hi": 3, "members": [0, 2]},
        "left": {"period": 3, "pattern": [1]},
        "right": None,
    }
    assert zset_from_json(blob) == s


@given(zdescs())
def test_json_roundtrip_random(s):
    assert zset_from_json(zset_to_json(s)) == s


@given(zdescs(), st.integers(-40, 40))
def test_shift_membership(s, t):
    moved = shift(s, t)
    for n in range(-30, 31):
        assert zcontains(moved, n + t) == zcontains(s, n)
    assert banach_upper(moved) == banach_upper(s)
    assert banach_lower(moved) == banach_lower(s)


@given(zdescs())
def test_density_order(s):
    assert 0 <= banach_lower(s) <= banach_upper(s) <= 1


@given(zdescs())
def test_deep_window_density_between_banach_bounds(s):
    # over a full-period window deep inside a tail, density equals that
    # tail's density, which lies between the Banach bounds
    for tail, base in ((s.right, 10_000), (s.left, -10_000)):
        if tail is None:
            continue
        d = window_density(s, base, base + tail.period)
        assert banach_lower(s) <= d <= banach_upper(s)


@settings(max_examples=60, deadline=None)
@given(zdescs(), zdescs())
def test_zsumset_membership_against_brute_force(a, b):
    if is_empty(a) or is_empty(b):
        return
    result = zsumset(a, b)
    probes = list(range(-25, 26)) + [-301, -150, 150, 301]
    for x in probes:
        assert zcontains(result, x) == brute_sumset_member(a, b, x), (
            f"membership mismatch at {x}"
        )


@settings(max_examples=40, deadline=None)
@given(zdescs(max_period=4), zdescs(max_period=4), st.integers(-6, 6), st.integers(-6, 6))
def test_zsumset_shift_equivariance(a, b, s, t):
    if is_empty(a) or is_empty(b):
        return
    assert zsumset(shift(a, s), shift(b, t)) == shift(zsumset(a, b), s + t)


@settings(max_examples=30, deadline=None)
@given(zdescs(max_period=4), zdescs(max_period=4))
def test_zsumset_commutative(a, b):
    if is_empty(a) or is_empty(b):
        return
    assert zsumset(a, b) == zsumset(b, a)


@settings(max_examples=25, deadline=None)
@given(zdescs(max_period=3))
def test_iterated_zsumset_matches_repeated(a):
    if is_empty(a):
        return
    assert zsumset_iterated(a, 1) == a
    assert zsumset_iterated(a, 3) == zsumset(zsumset(a, a), a)


def test_zdesc_validation():
    with pytest.raises(ValueError):
        zdesc([5], 0, 3)  # member outside window
    with pytest.raises(ValueError):
        zdesc([], 2, 1)  # inverted window
    with pytest.raises(ValueError):
        periodic(0, [0])
    with pytest.raises(ValueError):
        periodic(3, [4])  # residue outside period


def test_values_one_past_the_range_are_refused():
    with pytest.raises(ValueError, match="residues in"):
        Tail(4, 1 << 4)  # residue equal to the period
    with pytest.raises(ValueError, match=r"tail residue 4 outside \[0, 4\)"):
        periodic(4, [4])
    with pytest.raises(ValueError, match="non-negative"):
        Tail(4, -1)
    with pytest.raises(ValueError, match="inside the head window"):
        zdesc([3], lo=0, hi=3)  # member at hi


def test_zdesc_is_the_only_public_descriptor_constructor():
    assert "ZSetDesc" not in sumsetlab.__all__
    assert "ZSetDesc" not in zline.__all__


def test_every_package_export_is_listed_by_its_home_module():
    # The home module of a name is the one the package imports it from.
    tree = ast.parse(inspect.getsource(sumsetlab))
    homes = {alias.name: node.module for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    assert set(sumsetlab.__all__) <= set(homes)
    unlisted = [name for name in sumsetlab.__all__
                if name not in importlib.import_module(f"sumsetlab.{homes[name]}").__all__]
    assert not unlisted


def test_guards_accept_the_largest_workload_draws_and_reject_beyond():
    with pytest.raises(ValueError, match="exceeds the limit"):
        Tail(MAX_TAIL_PERIOD + 1, 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        periodic(MAX_TAIL_PERIOD + 1, [0])
    assert Tail(MAX_TAIL_PERIOD, 1).period == MAX_TAIL_PERIOD
    assert periodic(MAX_TAIL_PERIOD, [0]).right == Tail(MAX_TAIL_PERIOD, 1)
    # Widest heads (40) and largest lcm P = 2000 of the benchmark's integer-line
    # draws: each operand is cut to 40 + 6P + 80 points, and the bound holds even
    # if every point of the sparser cut were set.
    span = 40 + 6 * 2000 + 80
    assert span <= MAX_SUMSET_SPAN and span * span <= MAX_SUMSET_WORK
    wide = zdesc(range(0, 40), 0, 40, (2000, [1]), (2000, [3]))
    assert zsumset(wide, shift(wide, 1)).right.period == 2000
    with pytest.raises(ValueError, match="lcm of the tail periods"):
        zsumset(periodic(4095, [0]), periodic(4096, [0]))
    with pytest.raises(ValueError, match="sumset window"):
        zsumset(finite([0, 10**12]), EVENS)
    # finite([0, n]) + {0} cuts {0} to 2n + 9 points; the span bound sits at n = 65531.
    assert zsumset(finite([0, 65531]), finite([0])) == finite([0, 65531])
    with pytest.raises(ValueError, match=f"131073 points exceeds the limit {MAX_SUMSET_SPAN}"):
        zsumset(finite([0, 65532]), finite([0]))
    # range(K) + range(K) cuts both to 3K + 6 points with K set: K = 9458 is the last within.
    assert zsumset(finite(range(9458)), finite(range(9458))) == finite(range(2 * 9457 + 1))
    with pytest.raises(ValueError, match="shifted 9459 times"):
        zsumset(finite(range(9459)), finite(range(9459)))


def test_absent_tail_shrinks_a_huge_head_window_at_once():
    S = zdesc([5], 0, 10**15)
    assert (S.lo, S.hi) == (5, 6)
    S = zdesc([5], -10**15, 10**15, left=(3, [0]))
    assert S.hi == 6 and S.lo > -10**15


def _line_draw(rng, left: int, right: int):
    """A descriptor shaped like the benchmark's integer-line inputs."""
    width = rng.randint(8, 40)
    lo = rng.randint(-60, 60)
    head = rng.sample(range(lo, lo + width), rng.randint(1, width))

    def tail(p: int):
        return (p, rng.sample(range(p), rng.randint(1, max(1, p // 6))))

    return zdesc(head, lo, lo + width, tail(left), tail(right))


def test_integer_line_outputs_are_pinned():
    # 200 seeded draws like the benchmark's: zsumset with tail lcm P from 600 to
    # 2000, a shift, and a correspondence report with tail periods 300 to 600.
    # One sha256 over every JSON output, so a change of tail format cannot drift.
    rng = random.Random(2013)
    digest = hashlib.sha256()
    for i in range(200):
        P = (600, 840, 1200, 1680, 2000)[i % 5]
        choices = [d for d in range(P // 12, P + 1) if P % d == 0]
        periods = [rng.choice(choices) for _ in range(4)]
        periods[rng.randrange(4)] = P
        A, B = _line_draw(rng, *periods[:2]), _line_draw(rng, *periods[2:])
        t = rng.randint(-10**6, 10**6)
        p = (300, 360, 420, 480, 600)[i % 5]
        S = _line_draw(rng, p, p)
        acting = sorted(rng.sample(range(-40, 41), rng.randint(3, 6)))
        for out in (zset_to_json(zsumset(A, B)), zset_to_json(shift(A, t)),
                    verify_correspondence(S, acting).to_json()):
            digest.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == \
        "1e17f7a27edaf29797f5571c74a3b9d1411c57ab5e6b45f77e384e48e6f05182"
