"""The bitmask sumset and rotations against the per-point witness scan they replaced.

The reference functions below are the earlier implementations, kept verbatim
apart from their names and from reading each tail's residues as
``set(tail.pattern)``, since a tail is a residue bitmask: a per-point witness
scan over the head window with residue sums for the tails, a set-rotation
search for the minimal period, and a sort of every rotation for the canonical
orbit pattern, whose agreement on the two tails decides when they share one
limit orbit.  Masks are compared through ``_mask``.  Each test requires
equal results, so the descriptors, reports and digests built on them cannot
drift.
"""

from __future__ import annotations

import math
import random

import pytest

from sumsetlab import finite, is_empty, orbit_closure, periodic, shift, zcontains, zdesc, zsumset
from sumsetlab.zline import MAX_TAIL_PERIOD, Tail, _reduce_tail

# The scan's own bound on window points times witnesses tried per point.
MAX_SUMSET_WORK = 1 << 26


def _mask(residues) -> int:
    return sum(1 << r for r in set(residues))


def _ref_reduce_tail(tail: Tail) -> Tail:
    """Rewrite a tail over its minimal period."""
    p, pat = tail.period, set(tail.pattern)
    for d in range(1, p + 1):
        if p % d:
            continue
        if {(r + d) % p for r in pat} == pat:
            return Tail(d, _mask(r % d for r in pat))
    return tail


def _ref_canonical_rotation(period: int, pattern: frozenset[int]) -> frozenset[int]:
    if not pattern:
        return pattern
    best = None
    for s in range(period):
        rotated = tuple(sorted((r + s) % period for r in pattern))
        if best is None or rotated < best:
            best = rotated
    return frozenset(best)


def _lift(tail: Tail | None, P: int) -> frozenset[int]:
    """Residues mod P whose reduction lies in the tail pattern."""
    if tail is None:
        return frozenset()
    pattern = set(tail.pattern)
    return frozenset(r for r in range(P) if (r % tail.period) in pattern)


def _residue_sum(U: frozenset[int], V: frozenset[int], P: int) -> frozenset[int]:
    return frozenset((u + v) % P for u in U for v in V)


def _ref_zsumset(A, B):
    """The exact sumset A + B of two eventually periodic sets.

    Tail periods of the result divide the lcm P of the input tail periods.
    The head window is [A.lo + B.lo - 2P, A.hi + B.hi + 2P): beyond it any
    witness pair (a, b) has both coordinates in tail regions, and sliding a
    witness by P preserves both memberships, so membership there is given by
    the residue patterns alone.  Inside the window, membership is decided by
    scanning the finitely many candidate witnesses after the same P-sliding
    normalization.
    """
    if is_empty(A) or is_empty(B):
        raise ValueError("zsumset operands must be non-empty")
    periods = [t.period for t in (A.left, A.right, B.left, B.right) if t is not None]
    P = math.lcm(*periods) if periods else 1
    if P > MAX_TAIL_PERIOD:
        raise ValueError(f"lcm of the tail periods {P} exceeds the limit {MAX_TAIL_PERIOD}")
    lo = A.lo + B.lo - 2 * P
    hi = A.hi + B.hi + 2 * P
    # Per window point, ``member`` tries every head member and up to P tail
    # witnesses on each side where both operands have a tail.
    tries = len(A.head) + len(B.head) + P * (
        (A.right is not None and B.right is not None) + (A.left is not None and B.left is not None))
    if (hi - lo) * max(tries, 1) > MAX_SUMSET_WORK:
        raise ValueError(f"sumset window of {hi - lo} points with {tries} witnesses each "
                         f"exceeds the limit {MAX_SUMSET_WORK}")

    ra, la = _lift(A.right, P), _lift(A.left, P)
    rb, lb = _lift(B.right, P), _lift(B.left, P)
    head_res_a = frozenset(h % P for h in A.head)
    head_res_b = frozenset(h % P for h in B.head)
    all_a = ra | la | head_res_a
    all_b = rb | lb | head_res_b

    right_pat = _residue_sum(ra, all_b, P) | _residue_sum(all_a, rb, P)
    left_pat = _residue_sum(la, all_b, P) | _residue_sum(all_a, lb, P)
    # Right tail of one operand against left tail of the other covers all of Z.
    two_sided = _residue_sum(ra, lb, P) | _residue_sum(la, rb, P)

    def member(x: int) -> bool:
        if x % P in two_sided:
            return True
        for a in A.head:
            if zcontains(B, x - a):
                return True
        for b in B.head:
            if zcontains(A, x - b):
                return True
        if A.right is not None and B.right is not None:
            pa, qa = A.right.period, set(A.right.pattern)
            pb, qb = B.right.period, set(B.right.pattern)
            top = min(A.hi + P, x - B.hi + 1)
            for a in range(A.hi, top):
                if a % pa in qa and (x - a) % pb in qb:
                    return True
        if A.left is not None and B.left is not None:
            pa, qa = A.left.period, set(A.left.pattern)
            pb, qb = B.left.period, set(B.left.pattern)
            bottom = max(A.lo - P, x - B.lo + 1)
            for a in range(bottom, A.lo):
                if a % pa in qa and (x - a) % pb in qb:
                    return True
        return False

    members = [x for x in range(lo, hi) if member(x)]
    return zdesc(members, lo, hi, (P, left_pat) if left_pat else None,
                 (P, right_pat) if right_pat else None)


def _assert_matches_the_scan(A, B):
    """zsumset(A, B) equals the scan's result, and a non-empty head window of
    it lies inside [A.lo + B.lo - P, A.hi + B.hi + P), the core that
    zsumset hands to zdesc."""
    C = zsumset(A, B)
    assert C == _ref_zsumset(A, B)
    P = math.lcm(*(t.period for t in (A.left, A.right, B.left, B.right) if t is not None))
    assert C.lo == C.hi or A.lo + B.lo - P <= C.lo and C.hi <= A.hi + B.hi + P


def _line_desc(rng: random.Random, left: int | None, right: int | None, dense: bool):
    """A head 8-40 wide with tails of a sixth (sparse) or half (dense) of their residues."""
    width = rng.randint(8, 40)
    lo = rng.randint(-60, 60)
    head = rng.sample(range(lo, lo + width), rng.randint(1, width))

    def tail(p):
        if p is None:
            return None
        return (p, rng.sample(range(p), rng.randint(1, max(1, p // (2 if dense else 6)))))

    return zdesc(head, lo, lo + width, tail(left), tail(right))


def _line_pairs(count: int):
    rng = random.Random(20261018)
    for i in range(count):
        P = (600, 840, 1200, 1680, 2000)[i % 5]
        choices = [d for d in range(P // 12, P + 1) if P % d == 0]
        periods = [rng.choice(choices) for _ in range(4)]
        periods[rng.randrange(4)] = P
        dense = i % 2 == 1
        yield (_line_desc(rng, periods[0], periods[1], dense),
               _line_desc(rng, periods[2], periods[3], dense))


@pytest.mark.parametrize("A, B", list(_line_pairs(20)))
def test_zsumset_matches_the_scan_on_line_shaped_inputs(A, B):
    _assert_matches_the_scan(A, B)


def test_zsumset_matches_the_scan_on_one_sided_and_tailless_operands():
    rng = random.Random(7)
    sides = [(None, None), (None, 6), (10, None), (4, 6)]
    for left_a, right_a in sides:
        for left_b, right_b in sides:
            for _ in range(6):
                A = _line_desc(rng, left_a, right_a, dense=True)
                B = _line_desc(rng, left_b, right_b, dense=False)
                _assert_matches_the_scan(A, B)
                _assert_matches_the_scan(shift(B, 1000), A)
    nonneg = zdesc((), 0, 0, None, (1, [0]))
    evens_below = zdesc((), 0, 0, (2, [0]), None)
    # {6, 12, ...} + itself has 12 but not 6 = A.hi + B.hi + P - 2, so it is
    # periodic from A.hi + B.hi + P - 1 and no earlier: a right period read
    # from any earlier point is wrong.
    sixes = zdesc((), 0, 1, None, (6, [0]))
    for A, B in [(nonneg, finite([0, 500])), (evens_below, finite([-3, 0, 401])),
                 (nonneg, evens_below), (periodic(6, [1, 4]), finite([0])), (sixes, sixes)]:
        _assert_matches_the_scan(A, B)


def test_zsumset_matches_the_scan_on_its_slowest_admitted_inputs():
    rng = random.Random(2048)

    def half():
        return (2048, rng.sample(range(2048), 1024))

    A = zdesc(rng.sample(range(40), 20), 0, 40, half(), half())
    B = zdesc(rng.sample(range(40), 20), 0, 40, half(), half())
    _assert_matches_the_scan(A, B)
    evens = finite(range(0, 5790, 2))
    assert len(evens.head) == 2895
    _assert_matches_the_scan(evens, evens)



def _core(A, B):
    """zsumset(A, B), the first point of the core [A.lo + B.lo - P,
    A.hi + B.hi + P) that zsumset trims, and the result's memberships on it."""
    P = math.lcm(*(t.period for t in (A.left, A.right, B.left, B.right) if t is not None))
    C = zsumset(A, B)
    start = A.lo + B.lo - P
    return C, start, [zcontains(C, x) for x in range(start, A.hi + B.hi + P)]


def _tail_row(tail, start: int, length: int) -> list[bool]:
    return [tail is not None and (start + i) % tail.period in tail.pattern
            for i in range(length)]


def test_zsumset_matches_the_scan_at_the_edges_of_its_trim():
    # An empty head with unequal tails: the trim leaves no point and zdesc
    # slides down to the first point where the tails disagree.
    A, B = zdesc([-1], -1, 1, None, (6, [0])), zdesc((), 0, 0, (4, [3]), None)
    C, _, _ = _core(A, B)
    assert C.lo == C.hi and C.left != C.right
    _assert_matches_the_scan(A, B)
    # A core that matches the result's right tail everywhere (the head slides
    # below the core) and one that matches its left tail everywhere.
    for A, B, same, other in [(zdesc([2], 2, 3, (6, [1, 5]), (6, [1, 3])),
                               zdesc((), -3, -3, (6, [2, 3, 4]), None), "right", "left"),
                              (zdesc((), 3, 4, (4, [0, 2, 3]), (1, [0])),
                               zdesc((), -1, -1, None, (4, [2])), "left", "right")]:
        C, start, core = _core(A, B)
        assert C.lo == C.hi and C.left != C.right
        assert core == _tail_row(getattr(C, same), start, len(core))
        assert core != _tail_row(getattr(C, other), start, len(core))
        _assert_matches_the_scan(A, B)
    # Heads at the ends of the core [s, e).  A + B is P-periodic below s and a
    # member s has s - P as a member, so s differs from the left tail only as a
    # non-member with s - P a member.  Then s + P is no member either (a witness
    # of it slides down to one of s), so s agrees with the right tail and no
    # one-point head sits on s; the mirror argument rules one out on e - 2, and
    # e - 1 always agrees with the right tail.  So the cases below are a head
    # from s, a head up to e - 2, and one-point heads on s + 1 and e - 3, as
    # (C.lo - s, e - C.hi, head width):
    for A, B, edges in [
            (zdesc((), 0, 0, (3, [0, 2]), None), zdesc((), -2, -2, (3, [0, 1]), None), (0, 4, 2)),
            (zdesc((), -1, -1, None, (4, [1, 2, 3])), zdesc((), 0, 0, None, (2, [1])), (5, 1, 2)),
            (zdesc([5], 5, 6, (2, [0]), (3, [1])), zdesc((), 2, 2, (3, [2]), (2, [1])), (1, 11, 1)),
            (zdesc((), 1, 1, (6, [1, 4, 5]), (2, [0])), zdesc((), 2, 2, (2, [1]), (3, [0])),
             (9, 2, 1))]:
        C, start, core = _core(A, B)
        assert (C.lo - start, start + len(core) - C.hi, C.hi - C.lo) == edges
        _assert_matches_the_scan(A, B)


def test_reduce_tail_matches_the_rotation_search():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([1, 2, 4, 6, 12, 60, 360, 840, 2048, 4096])
        d = rng.choice([d for d in range(1, p + 1) if p % d == 0])
        base = rng.sample(range(d), rng.randint(1, d))
        pattern = frozenset(b + j * d for b in base for j in range(p // d))
        if rng.random() < 0.3:
            pattern = frozenset(rng.sample(range(p), rng.randint(1, p)))
        tail = Tail(p, _mask(pattern))
        assert _reduce_tail(tail) == _ref_reduce_tail(tail)


def _tail_pairs(rng):
    """(left, right) tail pairs: rotated, unrotated, lifted, unrelated and absent."""
    for _ in range(300):
        p = rng.choice([1, 2, 3, 5, 8, 12, 30, 97, 128, 300])
        pattern = rng.sample(range(p), rng.randint(0, p))
        if rng.random() < 0.3:
            d = rng.choice([d for d in range(1, p + 1) if p % d == 0])
            base = rng.sample(range(d), rng.randint(0, d))
            pattern = [b + j * d for b in base for j in range(p // d)]
        s = rng.randrange(p)
        rotated = [(r + s) % p for r in pattern]
        other = rng.choice([
            (p, rotated),
            (p, pattern),
            (2 * p, [r + j * p for r in rotated for j in (0, 1)]),  # reduces to (p, rotated)
            (p, rng.sample(range(p), rng.randint(0, p))),
            (2 * p, rotated),
            None,
        ])
        pair = ((p, pattern), other)
        yield pair if rng.random() < 0.5 else pair[::-1]
    for p, size in [(2048, 1024), (4096, 64), (4096, 4)]:
        pattern = rng.sample(range(p), size)
        s = rng.randrange(p)
        yield (p, pattern), (p, [(r + s) % p for r in pattern])
        yield (p, pattern), (p, pattern)
        yield (p, pattern), (p, rng.sample(range(p), size))
    yield None, None


def test_orbit_closure_merges_exactly_when_the_sorted_search_agrees():
    rng = random.Random(13)
    for left, right in _tail_pairs(rng):
        S = zdesc([], 0, 0, left, right)
        # Absent tails read as the empty pattern over period 1.
        tails = [(1, frozenset()) if t is None else (t.period, frozenset(t.pattern))
                 for t in (S.left, S.right)]
        (pl, left_pattern), (pr, right_pattern) = tails
        merged = pl == pr and \
            _ref_canonical_rotation(pl, left_pattern) == _ref_canonical_rotation(pr, right_pattern)
        orbits = orbit_closure(S).orbits
        assert [o.side for o in orbits] == (["both"] if merged else ["left", "right"])
        for orb, (p, pattern) in zip(orbits, tails):
            assert (orb.period, orb.b_set.mask) == (p, _mask(pattern))
