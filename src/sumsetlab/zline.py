"""Eventually periodic subsets of the integers with exact Banach densities.

A descriptor stores an explicit head window [lo, hi) plus optional periodic
tails that govern everything below lo and everything at or above hi.  This
class is closed under sumsets and shifts, and on it both Banach densities
have finite certificates.

Why the upper density is the larger tail density: an invariant mean is a
translation-invariant average, so a mean dragged along windows deep inside
the denser tail attains that tail's density; conversely every long window
[a, a + n) splits into a left-tail part, a bounded head part and a
right-tail part, so its counting density is a convex combination of the two
tail densities up to O(1/n), and no mean can exceed the larger one.  The
lower density argument is symmetric, with absent tails counting as density
zero.  Arbitrary subsets of Z are out of scope on purpose: without eventual
periodicity there is no finite certificate for the supremum, so this module
refuses to guess.  Plain finite window counts are available separately via
window_density and are estimates, not certificates.

Normal form: tails are reduced to their minimal period, empty tails are
stored as None, and the head window is shrunk until its endpoints disagree
with the adjacent tail, so equal descriptors compare equal as dataclasses.

Tails are residue bitmasks (bit r of ``Tail.mask`` stands for residue r);
residue lists are only the (period, pattern) pairs of ``zdesc``, ``periodic``
and the JSON forms.  A sumset is one shift-OR of the operands cut to ranges
that every witness slides into by P, the lcm of the tail periods; the window
it yields holds one period of the result's left tail, the core that becomes
the head, and one period of its right tail, in that order.  The core is
trimmed against both tails on masks, so ``zdesc`` is handed the head's own
members only (see ``zsumset``).  ``MAX_SUMSET_SPAN`` bounds the cuts and
``MAX_SUMSET_WORK`` the shift-OR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .groups import _k_fold, bit_indices, collection, exact_int, index_mask

__all__ = [
    "MAX_TAIL_PERIOD",
    "MAX_SUMSET_SPAN",
    "MAX_SUMSET_WORK",
    "Tail",
    "zdesc",
    "periodic",
    "finite",
    "integers",
    "is_empty",
    "zcontains",
    "shift",
    "banach_upper",
    "banach_lower",
    "window_density",
    "zsumset",
    "zsumset_iterated",
    "zset_to_json",
    "zset_from_json",
]


# Work on a descriptor grows with its tail periods; zsumset's with its longer cut
# operand (the span) and with the span times the set bits of the sparser cut.
# The result window is read with groups.bit_indices, which is linear in the span
# for a dense window, so no read grows faster than the span.  Each bound is an
# edge the tests pin, not what the code can afford: the slowest admitted sumset,
# range(9458) plus itself, takes about 25 ms on a 2.1 GHz Xeon, against a 1.05 s
# budget per call.  Raising one is a change of its own, which times and pins the
# slowest call at the new edge.
MAX_TAIL_PERIOD = 4096
MAX_SUMSET_SPAN = 1 << 17
MAX_SUMSET_WORK = 1 << 28


@dataclass(frozen=True)
class Tail:
    """One periodic tail: n is a member iff bit (n mod period) of mask is set.

    A ValueError refuses a period or mask that ``exact_int`` refuses, a period
    outside [1, MAX_TAIL_PERIOD] and a mask negative or wider than period bits."""

    period: int
    mask: int

    def __post_init__(self) -> None:
        period = exact_int(self.period, "tail 'period'")
        if period < 1:
            raise ValueError(f"tail period must be >= 1, got {period}")
        if period > MAX_TAIL_PERIOD:
            raise ValueError(f"tail period {period} exceeds the limit {MAX_TAIL_PERIOD}")
        mask = exact_int(self.mask, "tail mask")
        if mask < 0 or mask >> period:
            raise ValueError(f"tail mask must be non-negative with residues in [0, {period})")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "mask", mask)

    @property
    def pattern(self) -> tuple[int, ...]:
        """The residues in the pattern, ascending."""
        return tuple(bit_indices(self.mask))

    @property
    def density(self) -> Fraction:
        return Fraction(self.mask.bit_count(), self.period)


def _has(tail: Tail | None, n: int) -> bool:
    return tail is not None and tail.mask >> n % tail.period & 1 == 1


def _rotate(mask: int, period: int, s: int) -> int:
    """The residue mask moved by s: bit r goes to bit (r + s) mod period."""
    s %= period
    return (mask << s | mask >> (period - s)) & ((1 << period) - 1)


def _tail_mask(tail: Tail | None, start: int, length: int) -> int:
    """Bit i is set iff start + i lies in the tail, for 0 <= i < length."""
    if tail is None or length <= 0:
        return 0
    p = tail.period
    repeat = ((1 << -(-length // p) * p) - 1) // ((1 << p) - 1)
    return _rotate(tail.mask, p, -start) * repeat & ((1 << length) - 1)


def _tail_count(tail: Tail | None, start: int, stop: int) -> int:
    """The number of tail members in [start, stop), in O(period) at any length."""
    if tail is None or stop <= start:
        return 0
    full, rest = divmod(stop - start, tail.period)
    return full * tail.mask.bit_count() + _tail_mask(tail, start, rest).bit_count()


def _reduce_tail(tail: Tail) -> Tail:
    """Rewrite a tail over its minimal period: the least divisor d of the
    period whose rotation fixes it.  The divisors come in pairs (d, p // d)
    with d <= sqrt(p), so at most 2 * sqrt(p) rotations are tried."""
    p, mask = tail.period, tail.mask
    low = [d for d in range(1, math.isqrt(p) + 1) if p % d == 0]
    for d in low + [p // d for d in reversed(low) if d * d != p]:
        if d < p and _rotate(mask, p, d) == mask:
            return Tail(d, mask & ((1 << d) - 1))
    return tail


@dataclass(frozen=True)
class ZSetDesc:
    """An eventually periodic subset of Z in normal form.

    ``zdesc`` builds and normalises descriptors.  The record itself checks
    what every normal form meets, each refusal a ValueError: lo and hi are
    integers as ``exact_int`` reads them with lo <= hi, the head is a
    frozenset of ints inside [lo, hi), and each tail is a ``Tail`` or None.
    """

    lo: int
    hi: int
    head: frozenset[int]
    left: Tail | None
    right: Tail | None

    def __post_init__(self) -> None:
        lo, hi, head = exact_int(self.lo, "lo"), exact_int(self.hi, "hi"), self.head
        if hi < lo:
            raise ValueError(f"head window [{lo}, {hi}) is inverted")
        if type(head) is not frozenset or not {int}.issuperset(map(type, head)):
            raise ValueError("head must be a frozenset of ints")
        if head and not lo <= min(head) <= max(head) < hi:
            raise ValueError("head members must lie inside the head window")
        for tail in (self.left, self.right):
            if tail is not None and not isinstance(tail, Tail):
                raise ValueError(f"a tail must be a Tail or None, got {tail!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, n: int) -> bool:
        return zcontains(self, n)


def _tail_arg(value) -> Tail | None:
    if value is None:
        return None
    if isinstance(value, Tail):
        tail = value
    else:
        try:
            period, pattern = collection(value, "tail")
        except ValueError:
            raise ValueError(f"a tail is a (period, pattern) pair, a Tail or None, "
                             f"got {value!r}") from None
        period = Tail(period, 0).period  # gated before the residues build a mask
        tail = Tail(period, index_mask(pattern, period, "tail residue", f"[0, {period})"))
    return _reduce_tail(tail) if tail.mask else None


def zdesc(
    head: Iterable[int] = (),
    lo: int | None = None,
    hi: int | None = None,
    left: Tail | tuple | None = None,
    right: Tail | tuple | None = None,
) -> ZSetDesc:
    """Build a descriptor and put it in normal form.

    ``head`` lists explicit members of the window [lo, hi); when lo or hi is
    omitted the window is the tight hull of the members.  ``left`` and
    ``right`` are (period, pattern) pairs, Tail objects, or None.
    """
    members = {exact_int(x, "head member") for x in collection(head, "head")}
    if lo is None:
        lo = min(members) if members else 0
    else:
        lo = exact_int(lo, "lo")
    if hi is None:
        hi = max(members) + 1 if members else lo
    else:
        hi = exact_int(hi, "hi")
    if hi < lo:
        raise ValueError(f"head window [{lo}, {hi}) is inverted")
    if any(not lo <= x < hi for x in members):
        raise ValueError("head members must lie inside the head window")
    lt, rt = _tail_arg(left), _tail_arg(right)

    # Shrink the window wherever the boundary membership matches the tail; a
    # missing tail matches every non-member, so that side jumps to the hull.
    if rt is None:
        hi = max(members) + 1 if members else lo
    if lt is None:
        lo = min(members) if members else hi
    while hi > lo and (hi - 1 in members) == _has(rt, hi - 1):
        members.discard(hi - 1)
        hi -= 1
    while lo < hi and (lo in members) == _has(lt, lo):
        members.discard(lo)
        lo += 1
    if lo == hi:
        # Empty head: only the tail boundary remains.  Equal tails make every
        # boundary equivalent, so pick 0; otherwise slide down to the first
        # point where the tails disagree (at most lcm of the periods away),
        # which is the least faithful boundary and hence canonical.
        if lt == rt:
            lo = hi = 0
        else:
            while _has(lt, lo - 1) == _has(rt, lo - 1):
                lo -= 1
            hi = lo
    return ZSetDesc(lo, hi, frozenset(members), lt, rt)


def periodic(period: int, pattern: Iterable[int]) -> ZSetDesc:
    """The two-sided periodic set {n : n mod period in pattern}."""
    tail = _tail_arg((period, pattern))
    return zdesc((), 0, 0, tail, tail)


def finite(members: Iterable[int]) -> ZSetDesc:
    return zdesc(members)


def integers() -> ZSetDesc:
    return periodic(1, (0,))


def zcontains(S: ZSetDesc, n: int) -> bool:
    n = exact_int(n, "n")
    if S.lo <= n < S.hi:
        return n in S.head
    return _has(S.left if n < S.lo else S.right, n)


def is_empty(S: ZSetDesc) -> bool:
    return not S.head and S.left is None and S.right is None


def shift(S: ZSetDesc, t: int) -> ZSetDesc:
    """The translate S + t."""
    t = exact_int(t, "shift")

    def move(tail: Tail | None) -> Tail | None:
        return None if tail is None else Tail(tail.period, _rotate(tail.mask, tail.period, t))

    return zdesc(
        (x + t for x in S.head), S.lo + t, S.hi + t, move(S.left), move(S.right)
    )


def banach_upper(S: ZSetDesc) -> Fraction:
    """Upper Banach density: the denser of the two tails; 0 if both are absent."""
    dens = [t.density for t in (S.left, S.right) if t is not None]
    return max(dens, default=Fraction(0))


def banach_lower(S: ZSetDesc) -> Fraction:
    """Lower Banach density: the sparser tail, with an absent tail counting 0."""
    left = S.left.density if S.left is not None else Fraction(0)
    right = S.right.density if S.right is not None else Fraction(0)
    return min(left, right)


def window_density(S: ZSetDesc, lo: int, hi: int) -> Fraction:
    """Counting density |S ∩ [lo, hi)| / (hi - lo).  A window estimate only.

    The head members are counted one by one and each tail's part of the
    window by whole periods plus one remainder, so the cost is
    O(|head| + periods) at any window length."""
    lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
    if hi <= lo:
        raise ValueError(f"window [{lo}, {hi}) is empty")
    count = (sum(1 for x in S.head if lo <= x < hi) + _tail_count(S.left, lo, min(hi, S.lo))
             + _tail_count(S.right, max(lo, S.hi), hi))
    return Fraction(count, hi - lo)


def _indicator(S: ZSetDesc, lo: int, length: int) -> int:
    """S on [lo, lo + length) as a bitmask, bit i standing for lo + i; the head must fit."""
    left = _tail_mask(S.left, lo, S.lo - lo)
    right = _tail_mask(S.right, S.hi, lo + length - S.hi) << (S.hi - lo)
    return left | right | sum(1 << (x - lo) for x in S.head)


def zsumset(A: ZSetDesc, B: ZSetDesc) -> ZSetDesc:
    """The exact sumset A + B of two eventually periodic sets.

    Tail periods of the result divide the lcm P of the input tail periods.
    A witness a + b = x of a point of the window [A.lo + B.lo - 2P,
    A.hi + B.hi + 2P) slides by P until a lies in [A.lo - 3P - w_B,
    A.hi + 3P + w_B) and b in the like range around B, w_A and w_B being the
    head widths, so one shift-OR of the operands cut to those ranges gives
    the window.  A + B is P-periodic below A.lo + B.lo - P: a witness of
    y < A.lo + B.lo - 2P has a < A.lo - P or b < B.lo - P and one of y + P
    has a < A.lo or b < B.lo, so each slides by P inside a left tail; the
    mirror argument makes it P-periodic from A.hi + B.hi + P - 1 on.  So the
    window's first and last P points are one period of each result tail, and
    the core between them is all ``zdesc`` needs.  The core is trimmed on masks
    before any member is built: its top to just past the highest point that
    differs from the right tail, then its bottom to the lowest point below that
    which differs from the left tail (none: the head is empty).  These are the
    bounds ``zdesc``'s loops reach, so each loop stops at its first test and
    only the head's own members are built.  ``MAX_SUMSET_SPAN`` bounds the
    longer cut before any mask is built, ``MAX_SUMSET_WORK`` the shift-OR: the
    longer cut times the set bits of the sparser one.
    """
    if is_empty(A) or is_empty(B):
        raise ValueError("zsumset operands must be non-empty")
    periods = [t.period for t in (A.left, A.right, B.left, B.right) if t is not None]
    P = math.lcm(*periods) if periods else 1
    if P > MAX_TAIL_PERIOD:
        raise ValueError(f"lcm of the tail periods {P} exceeds the limit {MAX_TAIL_PERIOD}")
    wa, wb = A.hi - A.lo, B.hi - B.lo
    a_lo, a_len = A.lo - 3 * P - wb, wa + 6 * P + 2 * wb
    b_lo, b_len = B.lo - 3 * P - wa, wb + 6 * P + 2 * wa
    span = max(a_len, b_len)
    if span > MAX_SUMSET_SPAN:
        raise ValueError(f"sumset window of {span} points exceeds the limit {MAX_SUMSET_SPAN}")
    sparse, dense = sorted((_indicator(A, a_lo, a_len), _indicator(B, b_lo, b_len)),
                           key=int.bit_count)
    shifts = sparse.bit_count()
    if span * shifts > MAX_SUMSET_WORK:
        raise ValueError(f"sumset window of {span} points shifted {shifts} times "
                         f"exceeds the limit {MAX_SUMSET_WORK}")
    total = 0  # bit k stands for a_lo + b_lo + k
    for i in bit_indices(sparse):
        total |= dense << i
    lo, hi = A.lo + B.lo - 2 * P, A.hi + B.hi + 2 * P
    window = (total >> (lo - a_lo - b_lo)) & ((1 << (hi - lo)) - 1)
    left = Tail(P, _rotate(window & ((1 << P) - 1), P, lo))
    right = Tail(P, _rotate(window >> (hi - lo - P), P, hi - P))
    lo, n = lo + P, hi - lo - 2 * P
    core = (window >> P) & ((1 << n) - 1)
    # Trim the core as zdesc's loops would, the top first (see the docstring).
    n = (core ^ _tail_mask(right, lo, n)).bit_length()
    core &= (1 << n) - 1
    low = core ^ _tail_mask(left, lo, n)
    start = (low & -low).bit_length() - 1 if low else n
    return zdesc((lo + start + i for i in bit_indices(core >> start)), lo + start, lo + n,
                 left, right)


def zsumset_iterated(A: ZSetDesc, k: int) -> ZSetDesc:
    """The k-fold sumset A + ... + A on the integer line, computed by doubling
    as ``groups.iterated_sumset`` is: about log2(k) calls of ``zsumset``."""
    return _k_fold(A, k, zsumset)


def zset_to_json(S: ZSetDesc) -> dict:
    def tail(t: Tail | None):
        if t is None:
            return None
        return {"period": t.period, "pattern": list(bit_indices(t.mask))}

    return {
        "head": {"lo": S.lo, "hi": S.hi, "members": sorted(S.head)},
        "left": tail(S.left),
        "right": tail(S.right),
    }


def zset_from_json(data: dict) -> ZSetDesc:
    if not isinstance(data, dict) or "head" not in data:
        raise ValueError("descriptor JSON must be an object with a 'head' block")
    head = data["head"]
    if not isinstance(head, dict):
        raise ValueError("descriptor 'head' must be an object")
    for key in ("lo", "hi", "members"):
        if key not in head:
            raise ValueError(f"descriptor head is missing '{key}'")

    def listed(value, what: str) -> list:
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list of integers")
        return value

    def tail(block):
        if block is None:
            return None
        if not isinstance(block, dict) or "period" not in block or "pattern" not in block:
            raise ValueError("tail block needs 'period' and 'pattern'")
        return block["period"], listed(block["pattern"], "tail 'pattern'")

    # lo and hi are gated here: zdesc reads a missing one as the members' hull.
    return zdesc(listed(head["members"], "head 'members'"),
                 exact_int(head["lo"], "head 'lo'"), exact_int(head["hi"], "head 'hi'"),
                 tail(data.get("left")), tail(data.get("right")))
