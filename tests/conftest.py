"""Shared strategies: random groups, sets, systems, and z-line descriptors."""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction

from hypothesis import strategies as st

from sumsetlab import (
    disjoint_union,
    finite_set,
    make_group,
    quotient_system,
    regular_system,
    state_subset,
    zdesc,
)


@st.composite
def groups(draw, max_order=16, max_factors=2):
    n_factors = draw(st.integers(1, max_factors))
    orders = draw(
        st.lists(st.integers(1, max_order), min_size=n_factors, max_size=n_factors)
        .filter(lambda os: 2 <= _prod(os) <= max_order)
    )
    return make_group(orders)


def group_add(group, a, b):
    """Reference sum a + b in the group: add the digits factor by factor."""
    return group.index(x + y for x, y in zip(group.digits(a), group.digits(b)))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


@st.composite
def sets_in(draw, group, max_size=None):
    n = group.cardinality
    cap = n if max_size is None else min(max_size, n)
    members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=cap))
    return finite_set(group, members)


@st.composite
def group_with_sets(draw, max_order=16, count=2, max_size=None):
    group = draw(groups(max_order=max_order))
    return (group,) + tuple(draw(sets_in(group, max_size)) for _ in range(count))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def systems(draw, max_order=16, allow_union=True):
    group = draw(groups(max_order=max_order))
    kind = draw(st.integers(0, 3 if allow_union else 2))
    if kind == 0:
        return regular_system(group)
    if kind in (1, 2):
        target = [draw(st.sampled_from(_divisors(n))) for n in group.orders]
        if all(t == 1 for t in target):
            target[0] = group.orders[0]
        return quotient_system(group, target)
    targets = []
    for _ in range(2):
        target = [draw(st.sampled_from(_divisors(n))) for n in group.orders]
        if all(t == 1 for t in target):
            target[0] = group.orders[0]
        targets.append(target)
    weight = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
    return disjoint_union(quotient_system(group, targets[0]),
                          quotient_system(group, targets[1]), weight)


@st.composite
def system_instances(draw, max_order=12, allow_union=True, max_b=10):
    sysm = draw(systems(max_order=max_order, allow_union=allow_union))
    A = draw(sets_in(sysm.group, max_size=5))
    b_members = draw(st.sets(st.integers(0, sysm.states - 1), min_size=1,
                             max_size=min(max_b, sysm.states)))
    return sysm, A, state_subset(sysm, b_members)


@st.composite
def tails(draw, max_period=6):
    if draw(st.booleans()):
        return None
    p = draw(st.integers(1, max_period))
    pattern = draw(st.sets(st.integers(0, p - 1), max_size=p))
    return (p, pattern) if pattern else None


@st.composite
def zdescs(draw, max_period=6, head_span=8):
    left = draw(tails(max_period))
    right = draw(tails(max_period))
    head = draw(st.sets(st.integers(-head_span, head_span - 1), max_size=6))
    if not head and left is None and right is None:
        head = {0}
    lo = min(head) if head else 0
    hi = max(head) + 1 if head else 0
    return zdesc(head, lo, hi, left, right)


class ExampleTimeout(BaseException):
    """Raised by the alarm.  Not an Exception, so neither ``main``'s handler nor
    hypothesis's shrinker catches it, and the hanging example fails at once."""


@contextlib.contextmanager
def alarm(seconds: int, what):
    """Raise ExampleTimeout in the running code once ``seconds`` have passed."""
    def expire(signum, frame):
        raise ExampleTimeout(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
