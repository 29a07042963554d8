"""Exact arithmetic on finite abelian groups.

A group is a product of cyclic factors Z/n_1 x ... x Z/n_m.  Elements are
identified with indices in [0, n_1*...*n_m) through mixed-radix encoding,
the first factor being least significant.  The encoding is fixed so that
serialized index lists are identical across platforms and runs.

Subsets are dense bitmasks (arbitrary-size ints).  A sumset accumulates
translated masks with bitwise OR; translating along one cyclic factor is a
rotation of equally sized bit blocks, so A + B costs |A| * m big-int word
operations rather than |A| * |B| single-element updates.

Numbers enter through two gates.  ``exact_int`` reads an integer: a Python
or numpy integer becomes a Python ``int``, and a bool, float or string is
refused.  ``parse_fraction`` reads a rational: a ``Fraction``, an integer
as ``exact_int`` reads it, or a "p/q" or decimal string; floats, bools,
exponent notation and a zero denominator are refused.  Every argument of
the library that is an integer or a rational passes one of them, and each
refusal is a ``ValueError``; only ``spectral``'s frequencies are floats.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

__all__ = [
    "MAX_GROUP_ORDER",
    "GroupSpec",
    "FiniteSet",
    "bit_indices",
    "collection",
    "frac_str",
    "exact_int",
    "index_mask",
    "parse_fraction",
    "make_group",
    "finite_set",
    "full_set",
    "sumset",
    "iterated_sumset",
    "negate",
    "translate",
    "group_density",
]


# Binary digits "0"/"1" as the 0/1 selectors of bit_indices' linear read.
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def bit_indices(mask: int) -> Iterable[int]:
    """The positions of a mask's set bits, ascending.

    The mask is a non-negative integer as ``exact_int`` reads it; a negative,
    bool, float or string mask is refused with a ValueError.  Two reads give
    the same positions:

    - a mask of at most 64 bits, or one of width W with at most W / 8 and at
      most 256 set bits, clears its low bit once per set bit.  Each step
      costs O(W / 64) word operations, so k set bits cost O(k * W), and the
      positions come back as a list: the cover masks of a few bits stay
      cheap at any width;
    - a wider, denser mask is read in one linear pass over its binary digits,
      O(W) whatever k is, and the positions come back as an iterator.
      Binary formatting is exempt from ``sys.set_int_max_str_digits``, so
      this works at any width.

    The cut-over sits where the two reads took about equal time on masks of
    65 to 262,144 bits (CPython 3.11).
    """
    if type(mask) is not int or mask < 0:
        mask = exact_int(mask, "mask")
        if mask < 0:
            raise ValueError(f"mask must be non-negative, got {mask}")
    if mask <= 0xFFFF_FFFF_FFFF_FFFF:
        return _low_bits(mask)
    count = mask.bit_count()
    if count <= 256 and count << 3 <= mask.bit_length():
        return _low_bits(mask)
    flags = f"{mask:b}".encode().translate(_ZERO_ONE)[::-1]
    return compress(range(len(flags)), flags)


def _low_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def frac_str(x: Fraction | int) -> str:
    """An exact rational as "p/q" in lowest terms, integers as "n/1"."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def exact_int(value, what: str) -> int:
    """An integer argument as a Python int; numpy integers pass, bools, floats
    and strings are refused, not cast."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def parse_fraction(value) -> Fraction:
    """An exact rational from a Fraction, an integer as ``exact_int`` reads it,
    or a "p/q" or decimal string.

    Floats and bools are refused, and so is exponent notation, which Fraction
    would expand digit by digit ("1e999999999" is a billion-digit integer).
    Every refusal, a zero denominator included, is one ValueError.
    """
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, str):
            if "e" not in value.lower():
                return Fraction(value)
        else:
            return Fraction(exact_int(value, "rational"))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not a rational p/q: {value!r}")


_PLAIN_COLLECTIONS = frozenset((list, tuple, range))


def collection(value, what: str) -> Iterator:
    """An iterator over an argument that lists members, tables or entries.

    A scalar, a string (or bytes) and a mapping are refused with one
    ValueError rather than iterated: iterating them would raise TypeError or
    silently read characters or keys."""
    if type(value) in _PLAIN_COLLECTIONS:  # exact types: no abc check needed
        return iter(value)
    if not isinstance(value, (str, bytes, bytearray, Mapping)):
        try:
            return iter(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be a collection, got {value!r}")


def index_mask(members: Iterable[int], n: int, what: str, where: str) -> int:
    """The bitmask of members, each an integer in [0, n) as ``exact_int``
    reads it; ``what`` names a member and ``where`` the range in messages."""
    mask = 0
    for x in collection(members, "members"):
        if type(x) is not int:  # a plain int is what exact_int returns unchanged
            x = exact_int(x, what)
        if not 0 <= x < n:
            raise ValueError(f"{what} {x} outside {where}")
        mask |= 1 << x
    return mask


# Subsets are bitmasks of |G| bits, so the order is bounded before any is built.
MAX_GROUP_ORDER = 1 << 24


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given by its cyclic factor orders."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        clean = tuple(exact_int(n, "factor order")
                      for n in collection(self.orders, "factor orders"))
        if not clean:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 1 for n in clean):
            raise ValueError(f"factor orders must be positive, got {list(clean)}")
        order = math.prod(clean)
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
        object.__setattr__(self, "orders", clean)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out, s = [], 1
        for n in self.orders:
            out.append(s)
            s *= n
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.cardinality) - 1

    @cached_property
    def _rotators(self) -> tuple[tuple[int, int], ...]:
        # Per factor: (bit-block width, repeater with one set bit per block).
        out = []
        for stride, n in zip(self.strides, self.orders):
            block = stride * n
            rep = 0
            for pos in range(0, self.cardinality, block):
                rep |= 1 << pos
            out.append((block, rep))
        return tuple(out)

    def digits(self, index: int) -> tuple[int, ...]:
        """Mixed-radix digits of an element index, least significant first."""
        index = exact_int(index, "element index")
        if not 0 <= index < self.cardinality:
            raise ValueError(f"element index {index} outside group of order {self.cardinality}")
        out = []
        for n in self.orders:
            index, d = divmod(index, n)
            out.append(d)
        return tuple(out)

    def index(self, digits: Iterable[int]) -> int:
        digits = tuple(collection(digits, "digits"))
        if len(digits) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} digits, got {len(digits)}")
        out = 0
        for d, n, stride in zip(digits, self.orders, self.strides):
            out += (exact_int(d, "digit") % n) * stride
        return out

    def neg(self, a: int) -> int:
        return self.index(-d for d in self.digits(a))

    def translate_mask(self, mask: int, g: int) -> int:
        """Translate a subset bitmask by the group element g."""
        for (block, rep), stride, d in zip(self._rotators, self.strides, self.digits(g)):
            if d == 0:
                continue
            s = d * stride
            low = ((1 << (block - s)) - 1) * rep
            high = (((1 << block) - 1) ^ ((1 << (block - s)) - 1)) * rep
            mask = ((mask & low) << s) | ((mask & high) >> (block - s))
        return mask

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        if not isinstance(data, dict) or "orders" not in data:
            raise ValueError("group JSON must be an object with an 'orders' list")
        if not isinstance(data["orders"], list):
            raise ValueError("group 'orders' must be a list of integers")
        return cls(tuple(data["orders"]))


@dataclass(frozen=True)
class FiniteSet:
    """A subset of a finite abelian group, stored as a dense bitmask."""

    group: GroupSpec
    mask: int

    def __post_init__(self) -> None:
        mask = self.mask
        if type(mask) is not int:  # a plain int is what exact_int returns unchanged
            mask = exact_int(mask, "set bitmask")
            object.__setattr__(self, "mask", mask)
        if mask < 0 or mask > self.group.full_mask:
            raise ValueError("set bitmask does not fit the group")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.group.cardinality and bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(bit_indices(self.mask))

    def to_json(self) -> list[int]:
        return list(self.indices())


# One shared GroupSpec per orders tuple, so its cached tables are worked out
# once.  Only groups of order up to _MAX_INTERNED_ORDER are kept, at most
# _MAX_INTERNED_GROUPS of them, so the kept tables take a few MiB at most;
# any other group is built and gated as before, and not kept.
_MAX_INTERNED_GROUPS = 1 << 10
_MAX_INTERNED_ORDER = 1 << 12
_groups: dict[tuple[int, ...], GroupSpec] = {}


def make_group(orders: Iterable[int]) -> GroupSpec:
    """Build a group from cyclic factor orders; rejects empty or non-positive input.

    Equal orders give one shared GroupSpec while the group is small enough to
    be kept (see ``_MAX_INTERNED_ORDER``).  A list or tuple of plain ints is
    looked up before any gate runs; anything else passes ``GroupSpec``'s gates
    first (bools, floats and strings are refused there) and is then looked up
    by the clean orders."""
    if type(orders) is tuple or type(orders) is list:
        key = tuple(orders)
        # Only plain ints: (True,) and (1.0,) equal the key (1,), yet are refused.
        if {int}.issuperset(map(type, key)):
            group = _groups.get(key)
            if group is not None:
                return group
    group = GroupSpec(orders)
    if group.cardinality > _MAX_INTERNED_ORDER:
        return group
    if len(_groups) < _MAX_INTERNED_GROUPS:
        return _groups.setdefault(group.orders, group)
    return _groups.get(group.orders, group)


def finite_set(group: GroupSpec, members: Iterable[int]) -> FiniteSet:
    n = group.cardinality
    return FiniteSet(group, index_mask(members, n, "element index", f"group of order {n}"))


def full_set(group: GroupSpec) -> FiniteSet:
    return FiniteSet(group, group.full_mask)


def _require_nonempty(A: FiniteSet, name: str) -> None:
    if A.mask == 0:
        raise ValueError(f"{name} must be non-empty")


def sumset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """All pairwise sums a + b.  Both operands must be non-empty subsets of one group."""
    if A.group != B.group:
        raise ValueError("sumset operands live in different groups")
    _require_nonempty(A, "A")
    _require_nonempty(B, "B")
    small, large = (A, B) if A.size <= B.size else (B, A)
    g = A.group
    out = 0
    for a in small:
        out |= g.translate_mask(large.mask, a)
    return FiniteSet(g, out)


def _k_fold(x, k: int, add):
    """x + ... + x with k terms, ``add`` being the binary sum: about log2(k)
    doublings of x, each set bit of k adding the current double into the
    running sum.  ``k`` passes ``exact_int`` and must be >= 1."""
    k = exact_int(k, "k")
    if k < 1:
        raise ValueError(f"iterated sumset needs k >= 1, got {k}")
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else add(acc, x)
        k >>= 1
        if not k:
            return acc
        x = add(x, x)


def iterated_sumset(A: FiniteSet, k: int) -> FiniteSet:
    """The k-fold sumset A + ... + A, computed by doubling."""
    _require_nonempty(A, "A")
    return _k_fold(A, k, sumset)


def negate(A: FiniteSet) -> FiniteSet:
    """The set of inverses -a."""
    g = A.group
    out = 0
    for a in A:
        out |= 1 << g.neg(a)
    return FiniteSet(g, out)


def translate(A: FiniteSet, g: int) -> FiniteSet:
    g = exact_int(g, "element index")
    if not 0 <= g < A.group.cardinality:
        raise ValueError(f"element index {g} outside group of order {A.group.cardinality}")
    return FiniteSet(A.group, A.group.translate_mask(A.mask, g))


def group_density(A: FiniteSet) -> Fraction:
    """|A| / |G| as an exact rational (the Banach density on a finite group)."""
    return Fraction(A.size, A.group.cardinality)
