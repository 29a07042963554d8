"""Finite measure-preserving actions of finite abelian groups.

A system is a finite state set, one permutation per cyclic generator of the
acting group, and an exact rational invariant probability measure.  Each
generator permutation is stored as its cycles, so an element with digits
d_j moves a state d_j places along its generator-j cycle for each j, and
acting A on B costs |A| * |B| * (factors) lookups.  Validation proves the
action is well defined: each generator's cycle lengths divide the order of
its factor and all generators commute, which is exactly the presentation of
the group, so the homomorphism property for all pairs follows rather than
being spot-checked.

The measure is kept as integer weights over their least common denominator
D, so measuring a state set is one integer sum.  Pushing states through a
finite acting set always goes through ``cover_masks``.  ``make_system``
builds the system first and validates it on the same cycle tables and
integer weights the system then uses: each generator is walked into cycles
once, and sign, sum (= D) and invariance are integer comparisons.  D and
the integer weights are worked out once per run of equal weights, not once
per state.  A uniform measure, a quotient and a union of such systems hold
one run per distinct weight, and so does their JSON once ``make_system``
has parsed each distinct string to one ``Fraction``; the runs are found
without comparing Fractions, as equal neighbours are one object.  So a cold
system, as ``system_from_json`` builds for every ``magratio --system``
call, pays once per distinct weight for its measure.  On the same path a
table row of plain ints passes with one type check, and a constant integer
measure skips the invariance walk, since every permutation keeps it.

Built systems are shared.  ``quotient_system`` (and so ``regular_system``)
and ``disjoint_union`` return one immutable ``ActionSystem`` per distinct
argument, so its validation and cached tables are paid once per process.
The memo keeps at most ``_MEMO_STATE_BUDGET`` states, least recently used
first out, and a larger system is built but not kept; a union is keyed by
the identity of its two parts.  ``make_system`` and ``system_from_json``
always build and validate a new system.

Ergodicity on a finite system reduces to orbit structure: invariance forces
the measure to be constant on each orbit, so the system is ergodic exactly
when the support of the measure is a single orbit.  A system is immutable,
so ``is_ergodic`` works this out once per system and keeps the answer.

An ergodic set A must move every support state onto the whole support, but
one support state x decides it.  Every other support state is g.x for some
g, since the support is one orbit, and a.(g.x) = g.(a.x) because the
generators commute; so A.{g.x} = g.(A.{x}), and g maps the support onto
itself.  ``is_ergodic_set`` therefore covers the lowest support state only.
The argument needs commuting generators, which ``make_system`` checks; an
``ActionSystem`` built directly, skipping ``make_system``, is outside this
contract.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, repeat
from typing import Iterable

from .groups import (
    FiniteSet,
    GroupSpec,
    bit_indices,
    collection,
    exact_int,
    frac_str,
    index_mask,
    iterated_sumset,
    make_group,
    parse_fraction,
)

__all__ = [
    "MAX_STATES",
    "ActionSystem",
    "StateSubset",
    "make_system",
    "state_subset",
    "full_states",
    "measure_of",
    "cover_masks",
    "apply_set",
    "orbits",
    "is_ergodic",
    "is_ergodic_set",
    "is_ergodic_basis",
    "regular_system",
    "quotient_system",
    "disjoint_union",
    "system_to_json",
    "system_from_json",
    "system_memo_info",
    "clear_system_memo",
]


# Each generator table holds one entry per state, so the count is bounded first.
MAX_STATES = 1 << 16


def _check_state_count(states: int) -> None:
    if states > MAX_STATES:
        raise ValueError(f"state count {states} exceeds the limit {MAX_STATES}")


def _cycle_table(row: tuple[int, ...]) -> tuple[list[list[int]], list[int]]:
    """Each state's cycle under ``row`` and its place in it.  A walk stops at a
    state it has already placed, so a row that is no permutation cannot loop."""
    cycle: list = [None] * len(row)
    place = [0] * len(row)
    for start in range(len(row)):
        members, x = [], start
        while cycle[x] is None:
            cycle[x], place[x] = members, len(members)
            members.append(x)
            x = row[x]
    return cycle, place


def _runs(weights: tuple[Fraction, ...]) -> list[tuple[Fraction, int]]:
    """The weights as (weight, count) runs of equal entries.  A uniform measure
    and every quotient or union, also as read back from its JSON, hold one run
    per distinct weight, each run one repeated object (``make_system`` parses
    each distinct string once), which ``groupby`` passes over without calling
    ``Fraction.__eq__``."""
    return [(w, len(list(run))) for w, run in groupby(weights)]


@dataclass(frozen=True)
class ActionSystem:
    group: GroupSpec
    states: int
    generators: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    @cached_property
    def cycles(self) -> tuple[tuple[list[list[int]], list[int]], ...]:
        """Per generator, each state's cycle and its place in that cycle."""
        return tuple(_cycle_table(row) for row in self.generators)

    def _steps(self, g: int) -> tuple[tuple[list[list[int]], list[int], int], ...]:
        """(cycle, place, d) for each generator j whose digit d_j of g is nonzero."""
        return tuple((cycle, place, d) for (cycle, place), d
                     in zip(self.cycles, self.group.digits(g)) if d)

    def apply(self, g: int, x: int) -> int:
        """The state g.x: x moved d_j places along its generator-j cycle for each j."""
        x = exact_int(x, "state index")
        if not 0 <= x < self.states:
            raise ValueError(f"state index {x} outside system with {self.states} states")
        for cycle, place, d in self._steps(g):
            members = cycle[x]
            x = members[(place[x] + d) % len(members)]
        return x

    @cached_property
    def denominator(self) -> int:
        """The least common denominator D of the weights."""
        return math.lcm(*{w.denominator for w, _ in _runs(self.weights)})

    @cached_property
    def int_weights(self) -> tuple[int, ...]:
        """The weights in units of 1/D: weights[x] == int_weights[x] / D."""
        D = self.denominator
        return tuple(chain.from_iterable(repeat(w.numerator * (D // w.denominator), k)
                                         for w, k in _runs(self.weights)))

    @cached_property
    def support_mask(self) -> int:
        """The states of positive weight, set one run of equal weights at a time."""
        mask = start = 0
        for w, k in _runs(self.weights):
            if w > 0:
                mask |= ((1 << k) - 1) << start
            start += k
        return mask

    def mass(self, mask: int) -> int:
        """The measure of a state bitmask in units of 1/D."""
        if type(mask) is not int:  # a plain int is what exact_int returns unchanged
            mask = exact_int(mask, "state bitmask")
        if mask < 0 or mask >> self.states:
            raise ValueError("state bitmask does not fit the system")
        w = self.int_weights
        return sum(w[x] for x in bit_indices(mask))

    @cached_property
    def _ergodic(self) -> bool:
        """``is_ergodic``'s answer, worked out once: the system is immutable."""
        support = self.support_mask
        for orbit in orbits(self):
            mask = sum(1 << x for x in orbit)
            if support & mask:
                return support == mask
        return False


@dataclass(frozen=True)
class StateSubset:
    system: ActionSystem
    mask: int

    def __post_init__(self) -> None:
        mask = self.mask
        if type(mask) is not int:  # a plain int is what exact_int returns unchanged
            mask = exact_int(mask, "state bitmask")
            object.__setattr__(self, "mask", mask)
        if mask < 0 or mask >> self.system.states:
            raise ValueError("state bitmask does not fit the system")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.system.states and bool(self.mask >> x & 1)

    def to_json(self) -> list[int]:
        return list(self.indices())


def make_system(
    group: GroupSpec,
    states: int,
    action: Iterable[Iterable[int]],
    measure: Iterable[Fraction] | None = None,
) -> ActionSystem:
    """Validate and build a measure-preserving system.

    ``action`` holds one permutation of range(states) per cyclic factor of
    the group.  ``measure`` defaults to the uniform distribution; its entries
    are what ``parse_fraction`` reads.  Rejected: a state count or table
    entries that ``exact_int`` refuses, measure entries that
    ``parse_fraction`` refuses, non-permutations, tables that violate the
    factor-order or commutation relations, measures that are negative, do
    not sum to 1, or are not invariant.
    """
    states = exact_int(states, "state count")
    if states < 1:
        raise ValueError(f"need at least one state, got {states}")
    tables = []
    for j, row in enumerate(collection(action, "action")):
        try:
            row = tuple(collection(row, "generator table"))
            if set(map(type, row)) != {int}:  # a row of plain ints passes as it is
                row = tuple([exact_int(x, "table entry") for x in row])
            tables.append(row)
        except (TypeError, ValueError):
            raise ValueError(f"generator table {j} must be a list of integers") from None
    if len(tables) != len(group.orders):
        raise ValueError(
            f"expected {len(group.orders)} generator tables, got {len(tables)}"
        )
    # Row lengths first: ``states`` is only trusted once a row has that many entries.
    for j, row in enumerate(tables):
        if len(row) != states:
            raise ValueError(f"generator table {j} is not a permutation of the states")
    _check_state_count(states)
    if measure is None:
        weights = (Fraction(1, states),) * states
    else:
        # A measure repeats few distinct strings, so each is parsed once.  Only
        # str entries are keys: True == 1.0 == 1, yet bools and floats are refused.
        parsed: dict[str, Fraction] = {}
        entries = []
        measure = collection(measure, "measure")
        try:
            for w in measure:
                if type(w) is str:
                    if w not in parsed:
                        parsed[w] = parse_fraction(w)
                    w = parsed[w]
                else:
                    w = parse_fraction(w)
                entries.append(w)
        except ValueError as exc:
            raise ValueError(f"bad measure entry: {exc}") from None
        weights = tuple(entries)
    sys = ActionSystem(group, states, tuple(tables), weights)
    ident = tuple(range(states))
    for j, row in enumerate(tables):
        if sorted(row) != list(ident):
            raise ValueError(f"generator table {j} is not a permutation of the states")
    for j, (cycle, _) in enumerate(sys.cycles):
        if any(group.orders[j] % k for k in set(map(len, cycle))):
            raise ValueError(
                f"generator table {j} does not have order dividing {group.orders[j]}; "
                "the action is not a homomorphism"
            )
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            a, b = tables[i], tables[j]
            if list(map(a.__getitem__, b)) != list(map(b.__getitem__, a)):
                raise ValueError(f"generator tables {i} and {j} do not commute")

    if len(weights) != states:
        raise ValueError(f"measure has {len(weights)} entries for {states} states")
    w = sys.int_weights
    least = min(w)
    if least < 0:
        raise ValueError("measure weights must be non-negative")
    if sum(w) != sys.denominator:
        raise ValueError(f"measure weights sum to {Fraction(sum(w), sys.denominator)}, expected 1")
    if least != max(w):  # a constant measure is invariant under every permutation
        for j, row in enumerate(tables):
            if tuple(map(w.__getitem__, row)) != w:
                raise ValueError(f"measure is not invariant under generator table {j}")
    return sys


def state_subset(sys: ActionSystem, members: Iterable[int]) -> StateSubset:
    n = sys.states
    return StateSubset(sys, index_mask(members, n, "state index", f"system with {n} states"))


def full_states(sys: ActionSystem) -> StateSubset:
    return StateSubset(sys, (1 << sys.states) - 1)


def _check_subset(sys: ActionSystem, B: StateSubset) -> None:
    if B.system is not sys and B.system != sys:
        raise ValueError("subset belongs to a different system")


def measure_of(sys: ActionSystem, B: StateSubset) -> Fraction:
    _check_subset(sys, B)
    return Fraction(sys.mass(B.mask), sys.denominator)


def cover_masks(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> dict[int, int]:
    """The bitmask of A.{x} for every state x of B, in ascending order of x."""
    if A.group is not sys.group and A.group != sys.group:
        raise ValueError("acting set lives in a different group")
    if A.mask == 0:
        raise ValueError("acting set must be non-empty")
    _check_subset(sys, B)
    # Generators commute, so the first factor's step may come last.  A is in
    # ascending order, so its elements with equal higher digits are adjacent:
    # their higher steps are taken once per point, then one lookup per element.
    # An A below n0 has only the first factor's digits: one run, no higher step.
    n0 = sys.group.orders[0]
    if A.mask >> n0:
        plan = [(sys._steps(high * n0), [a % n0 for a in run])
                for high, run in groupby(A, lambda a: a // n0)]
    else:
        plan = [((), list(bit_indices(A.mask)))]
    cycle0, place0 = sys.cycles[0]
    out = {}
    for x in bit_indices(B.mask):
        mask = 0
        for high, firsts in plan:
            y = x
            for cycle, place, d in high:
                members = cycle[y]
                y = members[(place[y] + d) % len(members)]
            members, p = cycle0[y], place0[y]
            n = len(members)
            for d in firsts:
                mask |= 1 << members[(p + d) % n]
        out[x] = mask
    return out


def apply_set(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> StateSubset:
    """The union of translates A.B = { a.x : a in A, x in B }."""
    out = 0
    for mask in cover_masks(sys, A, B).values():
        out |= mask
    return StateSubset(sys, out)


def orbits(sys: ActionSystem) -> list[list[int]]:
    """Orbit decomposition of the state set under the full group."""
    seen = [False] * sys.states
    out: list[list[int]] = []
    for start in range(sys.states):
        if seen[start]:
            continue
        stack, orbit = [start], []
        seen[start] = True
        while stack:
            x = stack.pop()
            orbit.append(x)
            for row in sys.generators:
                y = row[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        out.append(sorted(orbit))
    return out


def is_ergodic(sys: ActionSystem) -> bool:
    """True iff the support of the measure is a single orbit.  The answer is
    kept on the system, which is immutable."""
    return sys._ergodic


def is_ergodic_set(sys: ActionSystem, A: FiniteSet) -> bool:
    """True iff A.B has full measure for every positive-measure B.

    By monotonicity it is enough to check singletons: for every state y in
    the support, A.{y} must cover the support.  One state x decides for all
    of them.  The system is ergodic, so its support is the orbit of x, and
    every y in it is g.x for some g.  The generators commute (``make_system``
    checks this), so a.(g.x) = g.(a.x), that is A.{y} = g.(A.{x}); and g
    permutes the support.  So A.{y} covers the support iff A.{x} does.
    """
    if not is_ergodic(sys):
        raise ValueError("ergodic-set certificates are defined over ergodic systems")
    support = sys.support_mask
    x = support & -support
    return not support & ~cover_masks(sys, A, StateSubset(sys, x))[x.bit_length() - 1]


def is_ergodic_basis(sys: ActionSystem, A: FiniteSet, k: int) -> bool:
    """True iff the k-fold sumset of A is an ergodic set for the system."""
    k = exact_int(k, "basis order")
    if k < 1:
        raise ValueError(f"basis order must be >= 1, got {k}")
    return is_ergodic_set(sys, iterated_sumset(A, k))


class _SystemMemo:
    """Built systems by key, least recently used first.  An entry costs the
    states of its system and of the systems its key pins; the entries cost at
    most ``budget`` states together."""

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()  # key -> (system, cost, pinned)
        self.states = self.hits = self.misses = 0
        self.lock = threading.Lock()

    def get(self, key, build, pinned: tuple[ActionSystem, ...] = ()) -> ActionSystem:
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
        # Built outside the lock, so a hit never waits for a build and a build
        # may itself use the memo.  If another thread kept the key meanwhile,
        # its system is the shared one.
        sys = build()
        cost = sys.states + sum(p.states for p in pinned)
        if cost > self.budget:
            return sys
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                return entry[0]
            while self.states + cost > self.budget:
                self.states -= self.entries.popitem(last=False)[1][1]
            self.entries[key] = (sys, cost, pinned)
            self.states += cost
        return sys

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.states = self.hits = self.misses = 0


# About 100 bytes per kept state, so the memo holds a few MiB at most: the
# systems a campaign draws at max_order <= 16 all fit, and a system of more
# than 2^15 states is never kept.
_MEMO_STATE_BUDGET = 1 << 15
_memo = _SystemMemo(_MEMO_STATE_BUDGET)


def system_memo_info() -> dict[str, int]:
    """Hits, misses, kept systems and kept states of the system memo."""
    return {"hits": _memo.hits, "misses": _memo.misses, "systems": len(_memo.entries),
            "states": _memo.states, "budget": _memo.budget}


def clear_system_memo() -> None:
    """Forget every memoised system and zero the counters."""
    _memo.clear()


def regular_system(group: GroupSpec) -> ActionSystem:
    """The group acting on itself by translation, with uniform measure."""
    return quotient_system(group, group.orders)


def quotient_system(group: GroupSpec, target_orders: Iterable[int]) -> ActionSystem:
    """The action on a quotient group obtained by reducing each factor.

    Each target order must divide the corresponding factor order, so the
    digit-wise reduction is a homomorphism.
    """
    target = make_group(target_orders)
    if len(target.orders) != len(group.orders):
        raise ValueError("quotient needs one target order per factor")
    for n, m in zip(group.orders, target.orders):
        if n % m:
            raise ValueError(f"target order {m} does not divide factor order {n}")
    n = target.cardinality
    _check_state_count(n)

    def build() -> ActionSystem:
        # Generator j adds s = strides[j]: a rotation by s inside each block of
        # s * orders[j] states.
        tables = [[x - x % (s * m) + (x + s) % (s * m) for x in range(n)]
                  for s, m in zip(target.strides, target.orders)]
        return make_system(group, n, tables)

    return _memo.get((group, target), build)


def disjoint_union(
    a: ActionSystem, b: ActionSystem, first_weight: Fraction = Fraction(1, 2)
) -> ActionSystem:
    """Two systems side by side, with the measure split between them."""
    if a.group != b.group:
        raise ValueError("systems must share the acting group")
    try:
        first_weight = parse_fraction(first_weight)
    except ValueError as exc:
        raise ValueError(f"first_weight must be an int or a Fraction: {exc}") from None
    if not 0 < first_weight < 1:
        raise ValueError("first_weight must lie strictly between 0 and 1")

    def build() -> ActionSystem:
        tables = []
        for ra, rb in zip(a.generators, b.generators):
            tables.append(list(ra) + [x + a.states for x in rb])
        weights = [w * first_weight for w in a.weights]
        weights += [w * (1 - first_weight) for w in b.weights]
        return make_system(a.group, a.states + b.states, tables, weights)

    # Keyed by identity: the entry pins a and b, so their ids are not reused
    # while it lives, and hashing them by value would hash every weight.
    return _memo.get(("union", id(a), id(b), first_weight), build, (a, b))


def system_to_json(sys: ActionSystem) -> dict:
    return {
        "group": sys.group.to_json(),
        "states": sys.states,
        "action": [list(row) for row in sys.generators],
        "measure": [frac_str(w) for w in sys.weights],
    }


def system_from_json(data: dict) -> ActionSystem:
    if not isinstance(data, dict):
        raise ValueError("system JSON must be an object")
    for key in ("group", "states", "action"):
        if key not in data:
            raise ValueError(f"system JSON is missing '{key}'")
    group = GroupSpec.from_json(data["group"])
    states = exact_int(data["states"], "system 'states'")
    action = data["action"]
    if not isinstance(action, list):
        raise ValueError("system 'action' must be a list of generator tables")
    measure = data.get("measure")
    if measure is not None and not isinstance(measure, list):
        raise ValueError("system 'measure' must be a list")
    return make_system(group, states, action, measure)
