"""Tests for exact magnification ratios: flow solver, oracle, and c_delta."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    ORACLE_GUARD,
    apply_set,
    disjoint_union,
    finite_set,
    full_set,
    mag_ratio,
    mag_ratio_delta,
    mag_ratio_oracle,
    make_group,
    measure_of,
    quotient_system,
    regular_system,
    state_subset,
)
from sumsetlab import magnification
from sumsetlab.groups import bit_indices, frac_str
from sumsetlab.magnification import _enumerate_best, _least_ratio, first_subset_within
from sumsetlab.systems import ActionSystem, cover_masks

from conftest import sets_in, system_instances

Z8 = make_group([8])


def check_witness(sys, A, B, result):
    """The invariants every result must satisfy, regardless of method."""
    W = result.witness
    assert W.mask, "witness must be non-empty"
    assert W.mask | B.mask == B.mask, "witness must be a subset of B"
    mu_w = measure_of(sys, W)
    assert mu_w > 0
    assert measure_of(sys, apply_set(sys, A, W)) == result.value * mu_w


# ---------------------------------------------------------------------------
# frozen examples


def test_interval_against_spread_pair():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 1])
    B = state_subset(sysm, [0, 4])
    oracle = mag_ratio_oracle(sysm, A, B)
    assert oracle.value == 2
    assert oracle.witness.indices() == (0,)
    assert oracle.method == "oracle"

    flow = mag_ratio(sysm, A, B)
    assert flow.value == 2
    assert flow.method == "flow"
    check_witness(sysm, A, B, flow)


def test_longer_interval_raises_the_ratio():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 1, 2])
    B = state_subset(sysm, [0, 4])
    assert mag_ratio(sysm, A, B).value == 3
    assert mag_ratio_oracle(sysm, A, B).value == 3


def test_identity_gives_ratio_one_with_full_witness():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [1, 3, 6])
    res = mag_ratio(sysm, finite_set(Z8, [0]), B)
    assert res.value == 1
    # The identity magnifies nothing, so the whole of B attains the minimum.
    assert res.witness == B


def test_singleton_b_has_one_candidate():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 2, 5])
    B = state_subset(sysm, [3])
    for res in (mag_ratio(sysm, A, B), mag_ratio_oracle(sysm, A, B)):
        assert res.value == 3
        assert res.witness.indices() == (3,)


def test_full_acting_set_inverts_the_measure():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0, 2, 5])
    res = mag_ratio_oracle(sysm, full_set(Z8), B)
    assert res.value == Fraction(8, 3)
    assert res.witness == B
    assert mag_ratio(sysm, full_set(Z8), B).value == Fraction(8, 3)


def test_errors_on_degenerate_inputs():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0])
    with pytest.raises(ValueError, match="non-empty"):
        mag_ratio(sysm, finite_set(Z8, []), B)
    with pytest.raises(ValueError, match="different group"):
        mag_ratio(sysm, finite_set(make_group([4]), [0]), B)


def test_error_on_null_b():
    # Keep mass away from B so every candidate is filtered out.
    weights = [Fraction(1, 4)] * 4 + [Fraction(0)] * 4
    sysm = quotient_system(Z8, [8])
    sysm = type(sysm)(sysm.group, 8, sysm.generators, tuple(weights))
    with pytest.raises(ValueError, match="measure zero"):
        mag_ratio(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [5, 6]))


def test_oracle_guard_trips_at_25():
    g = make_group([25])
    sysm = regular_system(g)
    B = state_subset(sysm, range(25))
    with pytest.raises(ValueError, match="guard"):
        mag_ratio_oracle(sysm, finite_set(g, [0, 1]), B)
    with pytest.raises(ValueError, match="guard"):
        mag_ratio_delta(sysm, finite_set(g, [0, 1]), B, Fraction(1, 2))
    # The flow solver has no such guard.
    assert mag_ratio(sysm, finite_set(g, [0, 1]), B).value == 1


def test_delta_one_forces_the_whole_set():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 1])
    B = state_subset(sysm, [0, 4])
    res = mag_ratio_delta(sysm, A, B, Fraction(1))
    assert res.value == 2  # mu(AB)/mu(B) = (4/8)/(2/8)
    assert res.witness == B
    assert res.method == "enumeration"


def test_delta_half_on_quotient_reaches_inverse_measure():
    sysm = quotient_system(Z8, [4])
    A = finite_set(Z8, [0, 1, 2, 3])
    B = state_subset(sysm, [0, 1])
    res = mag_ratio_delta(sysm, A, B, Fraction(1, 2))
    assert res.value == 2
    assert res.value == 1 / measure_of(sysm, B)


def test_slack_delta_matches_unconstrained_ratio():
    sysm = regular_system(Z8)
    A = finite_set(Z8, [0, 1])
    B = state_subset(sysm, [0, 4])
    # delta at the smallest weight fraction keeps the singleton witness legal.
    res = mag_ratio_delta(sysm, A, B, Fraction(1, 2))
    assert res.value == mag_ratio(sysm, A, B).value == 2


def test_delta_out_of_range():
    sysm = regular_system(Z8)
    B = state_subset(sysm, [0])
    A = finite_set(Z8, [0])
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="delta"):
            mag_ratio_delta(sysm, A, B, bad)


def test_result_json_shape():
    sysm = regular_system(Z8)
    res = mag_ratio(sysm, finite_set(Z8, [0, 1]), state_subset(sysm, [0, 4]))
    data = res.to_json()
    assert data["value"] == "2/1"
    assert data["method"] == "flow"
    assert set(data) >= {"value", "witness", "method", "nodes", "edges", "iterations"}


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None)
@given(system_instances())
def test_flow_and_oracle_agree_on_the_value(inst):
    sysm, A, B = inst
    flow = mag_ratio(sysm, A, B)
    oracle = mag_ratio_oracle(sysm, A, B)
    assert flow.value == oracle.value
    check_witness(sysm, A, B, flow)
    check_witness(sysm, A, B, oracle)


@settings(max_examples=60, deadline=None)
@given(system_instances())
def test_ratio_at_least_one(inst):
    sysm, A, B = inst
    assert mag_ratio(sysm, A, B).value >= 1


@settings(max_examples=60, deadline=None)
@given(system_instances(max_b=8), st.fractions(min_value="1/100", max_value=1),
       st.fractions(min_value="1/100", max_value=1))
def test_delta_monotonicity(inst, d1, d2):
    sysm, A, B = inst
    lo, hi = sorted((d1, d2))
    v_lo = mag_ratio_delta(sysm, A, B, lo).value
    v_hi = mag_ratio_delta(sysm, A, B, hi).value
    assert v_lo <= v_hi
    assert mag_ratio(sysm, A, B).value <= v_lo


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_monotone_in_the_acting_set(data):
    sysm, A, B = data.draw(system_instances(max_b=8))
    sub = data.draw(st.sets(st.sampled_from(sorted(A.indices())), min_size=1))
    A_sub = finite_set(sysm.group, sub)
    delta = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    assert (
        mag_ratio_delta(sysm, A_sub, B, delta).value
        <= mag_ratio_delta(sysm, A, B, delta).value
    )


@settings(max_examples=60, deadline=None)
@given(system_instances())
def test_dinkelbach_iteration_bound(inst):
    sysm, A, B = inst
    res = mag_ratio(sysm, A, B)
    candidates = sum(1 for x in B.indices() if sysm.weights[x] > 0)
    assert res.iterations <= candidates + 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_delta_result_respects_the_floor(data):
    sysm, A, B = data.draw(system_instances(max_b=8))
    delta = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
    res = mag_ratio_delta(sysm, A, B, delta)
    assert measure_of(sysm, res.witness) >= delta * measure_of(sysm, B)
    check_witness(sysm, A, B, res)


# ---------------------------------------------------------------------------
# the vectorised enumerator against a pure-Python reference


def reference_best(sys, covers, min_weight_scaled=0):
    """One subset at a time: (value, witness mask, count), or None if no
    subset weighs at least min_weight_scaled."""
    cand = list(covers)
    w = sys.int_weights
    m = len(cand)
    best = None  # (num, den, selection mask)
    cover_tab = [0] * (1 << m)
    wsum_tab = [0] * (1 << m)
    for sel in range(1, 1 << m):
        low = sel & -sel
        i = low.bit_length() - 1
        cover_tab[sel] = cover_tab[sel ^ low] | covers[cand[i]]
        wsum_tab[sel] = wsum_tab[sel ^ low] + w[cand[i]]
        wsum = wsum_tab[sel]
        if wsum < min_weight_scaled:
            continue
        num = sys.mass(cover_tab[sel])
        if best is None or num * best[1] < best[0] * wsum:
            best = (num, wsum, sel)
        elif num * best[1] == best[0] * wsum:
            old = [cand[i] for i in bit_indices(best[2])]
            if [cand[i] for i in bit_indices(sel)] < old:
                best = (num, wsum, sel)
    if best is None:
        return None
    witness = 0
    for i in bit_indices(best[2]):
        witness |= 1 << cand[i]
    return Fraction(best[0], best[1]), witness, (1 << m) - 1


def reweighted(sysm, weights):
    """The same action with other state weights (not checked for invariance)."""
    total = sum(weights)
    return ActionSystem(sysm.group, sysm.states, sysm.generators,
                        tuple(Fraction(x, total) for x in weights))


def assert_matches_reference(sysm, A, B, delta=None):
    covers = {b: mask for b, mask in cover_masks(sysm, A, B).items() if sysm.int_weights[b]}
    if delta is None:
        expected = reference_best(sysm, covers)
        got = mag_ratio_oracle(sysm, A, B)
    else:
        total = sysm.mass(B.mask)
        expected = reference_best(sysm, covers,
                                  -(-delta.numerator * total // delta.denominator))
        if expected is None:
            with pytest.raises(ValueError, match="reaches delta"):
                mag_ratio_delta(sysm, A, B, delta)
            return
        got = mag_ratio_delta(sysm, A, B, delta)
    assert (got.value, got.witness.mask, got.iterations) == expected


def differential_cases():
    rng = random.Random(20131)
    for trial in range(60):
        n = rng.choice([5, 8, 12, 16])
        group = make_group([n])
        sysm = regular_system(group)
        kind = trial % 4
        if kind == 1:  # zero-weight states and unequal weights
            ws = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(n)]
            ws[rng.randrange(n)] = 1 + rng.randrange(5)
            sysm = reweighted(sysm, ws)
        elif kind == 2:  # weights whose total needs Python ints
            sysm = reweighted(sysm, [rng.randrange(1, 1 << 40) for _ in range(n)])
            assert sum(sysm.int_weights) ** 2 >= 1 << 62
        A = [0] if kind == 3 else rng.sample(range(n), rng.randint(1, min(n, 5)))
        B = rng.sample(range(n), rng.randint(1, min(n, 10)))
        yield sysm, finite_set(group, A), state_subset(sysm, B)
    # More than 64 states: cover masks span several words.
    group = make_group([1024])
    sysm = regular_system(group)
    for size in (3, 40):
        yield (sysm, finite_set(group, rng.sample(range(1024), size)),
               state_subset(sysm, rng.sample(range(1024), 12)))
    # Past one block of 2^14 subsets, with and without ties everywhere.
    group = make_group([20])
    sysm = regular_system(group)
    B = state_subset(sysm, rng.sample(range(20), 17))
    yield sysm, finite_set(group, [0]), B
    yield sysm, finite_set(group, [0, 3, 7]), B


@pytest.mark.parametrize("delta", [None, Fraction(1, 4), Fraction(2, 3), Fraction(1)])
def test_enumerator_matches_the_reference(delta):
    cases = list(differential_cases())
    assert any(sysm.states > 64 for sysm, _, _ in cases)
    for sysm, A, B in cases:
        if not sysm.mass(B.mask):
            continue
        assert_matches_reference(sysm, A, B, delta)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_least_ratio_looks_past_its_first_guess(dtype):
    # With shift 0 every key is 1, so the first guess is 3/2 and exact
    # comparison must walk down to 5/4.
    num, den = np.array([3, 4, 5, 7], dtype=dtype), np.array([2, 3, 4, 4], dtype=dtype)
    assert _least_ratio(num, den, 0) == (5, 4)
    assert _least_ratio(num, den, 40) == (5, 4)


def test_a_later_block_can_hold_the_smallest_tie():
    # Ratio 1 is reached by {16}, {0, 17} and {0, 16, 17}, in blocks 4, 8 and 12
    # of 2^14 subsets; the lexicographically smallest is the last one found.
    sysm = regular_system(make_group([128]))
    covers = {i: 0b111 << (3 * i) for i in range(1, 16)}
    covers[0] = covers[17] = 1 << 100 | 1 << 101
    covers[16] = 1 << 102
    value, witness, count = _enumerate_best(sysm, dict(sorted(covers.items())))
    assert (value, witness, count) == (1, 1 | 1 << 16 | 1 << 17, (1 << 18) - 1)


def test_oracle_reaches_the_guard():
    group = make_group([48])
    sysm = regular_system(group)
    A = finite_set(group, [0, 1, 5])
    B = state_subset(sysm, range(0, 48, 2))
    res = mag_ratio_oracle(sysm, A, B)
    assert res.iterations == (1 << ORACLE_GUARD) - 1
    assert res.value == mag_ratio(sysm, A, B).value
    check_witness(sysm, A, B, res)


def test_first_subset_within_matches_a_loop():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.choice([8, 12, 70])
        sysm = regular_system(make_group([n]))
        if trial % 3 == 1:
            sysm = reweighted(sysm, [rng.choice([0, 1, 2, 1 << 60]) for _ in range(n)])
        covers = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(0, 9))]
        weights = [rng.randint(1, 4) for _ in covers]
        base = rng.getrandbits(n)
        bound = Fraction(rng.randint(1, 30), rng.randint(1, 10))
        expected = None
        for pick in range(1, 1 << len(covers)):
            cover, weight = base, 1
            for i in bit_indices(pick):
                cover |= covers[i]
                weight += weights[i]
            if sysm.mass(cover) <= bound * weight:
                expected = pick
                break
        assert first_subset_within(sysm, covers, weights, bound, base, 1) == expected


# ---------------------------------------------------------------------------
# the closure network against the per-cut object graph it replaced


class ReferenceDinic:
    """Maximum flow with integer capacities (level graph + blocking flow)."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v, cap, _ in self.adj[u]:
                    if cap > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, cap), level, it)
                if pushed:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._push(s, t, 1 << 300, level, it)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        """States reachable from s in the residual graph: the minimal cut side."""
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v, cap, _ in self.adj[u]:
                    if cap > 0 and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen


def reference_parametric_cut(sys, covers, t):
    """Minimize mu(A.S) - t*mu(S) over S; return value and minimal minimizer."""
    cand = list(covers)
    xs = sorted({x for mask in covers.values() for x in bit_indices(mask)})
    w = sys.int_weights
    p, q = t.numerator, t.denominator
    profit = {b: p * w[b] for b in cand}
    inf = sum(profit.values()) + sum(q * w[x] for x in xs) + 1

    node_of_b = {b: 2 + i for i, b in enumerate(cand)}
    node_of_x = {x: 2 + len(cand) + i for i, x in enumerate(xs)}
    net = ReferenceDinic(2 + len(cand) + len(xs))
    edges = 0
    for b in cand:
        net.add_edge(0, node_of_b[b], profit[b])
        edges += 1
    for x in xs:
        net.add_edge(node_of_x[x], 1, q * w[x])
        edges += 1
    for b in cand:
        for x in bit_indices(covers[b]):
            net.add_edge(node_of_b[b], node_of_x[x], inf)
            edges += 1

    flow = net.max_flow(0, 1)
    value = Fraction(flow - sum(profit.values()), q * sys.denominator)
    side = net.source_side(0)
    chosen = [b for b in cand if node_of_b[b] in side]
    return value, chosen, net.n, edges


def reference_mag_ratio(sys, A, B):
    covers = {b: mask for b, mask in cover_masks(sys, A, B).items()
              if sys.support_mask >> b & 1}
    w = sys.int_weights

    def ratio(sel):
        cover = 0
        for b in sel:
            cover |= covers[b]
        return Fraction(sys.mass(cover), sum(w[b] for b in sel))

    current = list(covers)
    t = ratio(current)
    nodes = edges = 0
    for _round in range(len(covers) + 2):
        value, chosen, nodes, edges = reference_parametric_cut(sys, covers, t)
        if value == 0:
            return {"value": frac_str(t), "witness": list(bit_indices(sum(1 << b for b in current))),
                    "method": "flow", "nodes": nodes, "edges": edges,
                    "iterations": _round + 1}
        assert value < 0
        current = chosen
        t = ratio(current)
    raise AssertionError("Dinkelbach loop exceeded the |B| + 2 cut bound")


def flow_cases():
    rng = random.Random(19701)
    for trial in range(150):
        n = rng.choice([6, 8, 12, 16, 30])
        group = make_group([n])
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        kind = trial % 4
        if kind == 0:
            sysm = regular_system(group)
        elif kind == 1:
            sysm = quotient_system(group, [rng.choice(divisors)])
        else:
            sysm = disjoint_union(quotient_system(group, [rng.choice(divisors)]),
                                  quotient_system(group, [rng.choice(divisors)]),
                                  Fraction(rng.randint(1, 6), 7))
            if kind == 3:  # capacities far past int64
                sysm = reweighted(sysm, [rng.randrange(1, 1 << 60) for _ in range(sysm.states)])
        A = finite_set(group, rng.sample(range(n), rng.randint(1, min(n, 5))))
        B = state_subset(sysm, rng.sample(range(sysm.states), rng.randint(1, sysm.states)))
        yield sysm, A, B
    # The benchmark's flow systems, at its sizes.
    for orders in ([32, 32], [1024]):
        group = make_group(orders)
        sysm = regular_system(group)
        for size in (6, 12):
            yield (sysm, finite_set(group, rng.sample(range(1024), size)),
                   state_subset(sysm, rng.sample(range(1024), 256)))
    # Zero-weight covered states, covered by one candidate or by several.
    for _ in range(30):
        n = rng.choice([8, 12, 16])
        group = make_group([n])
        sysm = disjoint_union(quotient_system(group, [n]), quotient_system(group, [n // 2]),
                              Fraction(1, 3))
        ws = [rng.choice([0, 0, 1, 2, 5]) for _ in range(sysm.states)]
        B = rng.sample(range(sysm.states), rng.randint(3, 10))
        ws[B[0]] = 1 + rng.randrange(4)
        sysm = reweighted(sysm, ws)
        yield sysm, finite_set(group, rng.sample(range(n), rng.randint(2, 5))), state_subset(sysm, B)
    # Pairwise disjoint covers: every covered state is private, no cover arc is left.
    for _ in range(10):
        k = rng.randint(1, 4)
        group = make_group([8 * k])
        ws = [rng.choice([0, 1, 2, 3, 7]) for _ in range(8 * k)]
        B = range(0, 8 * k, k)
        for b in B:
            ws[b] += 1
        sysm = reweighted(regular_system(group), ws)
        yield sysm, finite_set(group, range(k)), state_subset(sysm, B)


def test_closure_network_matches_the_per_cut_graph():
    cuts, private_zero, shared_zero, unshared = [], 0, 0, 0
    for sysm, A, B in flow_cases():
        got = mag_ratio(sysm, A, B).to_json()
        assert got == reference_mag_ratio(sysm, A, B)
        cuts.append(got["iterations"])
        once = twice = 0
        for b, mask in cover_masks(sysm, A, B).items():
            if sysm.int_weights[b]:
                twice |= once & mask
                once |= mask
        zero = sum(1 << x for x, wx in enumerate(sysm.int_weights) if not wx)
        private_zero += bool(once & ~twice & zero)
        shared_zero += bool(twice & zero)
        unshared += not twice and got["iterations"] > 1
    assert max(cuts) >= 3 and cuts.count(3) + cuts.count(4) >= 5
    # Zero-weight states covered once and covered twice, and cuts on networks
    # without cover arcs, where every covered state is folded into its candidate.
    assert private_zero >= 5 and shared_zero >= 5 and unshared >= 5


def check_flow_certificate(adj, head, cap_in, cap_out, flow, level):
    """Max-flow/min-cut certificate of one cut, from its capacities alone.

    Arc e (even) and e + 1 form a pair; the flow on e is its input capacity
    less its residual.  A flow that is conserved and saturates every arc
    leaving the residual-reachable set, while none entering it carries any,
    has the value of that cut, so both are optimal.
    """
    dtype = np.int64 if sum(cap_in) < 1 << 62 else object
    cin, cout = np.array(cap_in, dtype=dtype), np.array(cap_out, dtype=dtype)
    tail, to = np.array(head[1::2]), np.array(head[0::2])
    assert not cin[1::2].any(), "reverse arcs start empty"
    f = cin[0::2] - cout[0::2]
    assert (f >= 0).all() and (f <= cin[0::2]).all()
    assert (cout[1::2] == f).all(), "a reverse arc holds its pair's flow"
    net = np.zeros(len(adj), dtype=dtype)  # outflow less inflow
    np.add.at(net, tail, f)
    np.subtract.at(net, to, f)
    assert net[0] == flow and net[1] == -flow and not net[2:].any()

    arc_from = np.array(head)[np.arange(len(head)) ^ 1]
    arc_to, open_arc = np.array(head), cout > 0
    reached = np.zeros(len(adj), dtype=bool)
    reached[0] = True
    while True:
        new = arc_to[open_arc & reached[arc_from] & ~reached[arc_to]]
        if not len(new):
            break
        reached[new] = True
    assert not reached[1]
    assert (reached == (np.array(level) >= 0)).all()
    assert not cout[0::2][reached[tail] & ~reached[to]].any(), "cut arcs are saturated"
    assert not f[~reached[tail] & reached[to]].any(), "no flow re-enters the source side"


def flow_scale_instance(n):
    """The pinned instance ``tools/flow_scale.py`` times for the order n."""
    group = make_group([n])
    sysm = regular_system(group)
    rng = random.Random(n)
    A = finite_set(group, rng.sample(range(n), 8))
    return sysm, A, state_subset(sysm, rng.sample(range(n), n // 8))


def certified_cases():
    yield from flow_cases()
    rng = random.Random(4096)
    group = make_group([4096])  # past ORACLE_GUARD: the certificate is the only check
    sysm = regular_system(group)
    yield (sysm, finite_set(group, rng.sample(range(4096), 10)),
           state_subset(sysm, rng.sample(range(4096), 1024)))
    group = make_group([1200])
    sysm = disjoint_union(quotient_system(group, [600]), quotient_system(group, [400]),
                          Fraction(1, 3))
    yield (sysm, finite_set(group, rng.sample(range(1200), 10)),
           state_subset(sysm, rng.sample(range(sysm.states), 500)))
    yield flow_scale_instance(16384)


def test_the_z16384_flow_scale_instance_is_pinned():
    # Past ORACLE_GUARD: only these pins and the certificate check this size.
    result = mag_ratio(*flow_scale_instance(16384)).to_json()
    witness = hashlib.sha256(json.dumps(result.pop("witness")).encode()).hexdigest()
    assert result == {"value": "4639/899", "method": "flow", "iterations": 3,
                      "nodes": 12751, "edges": 29133}
    assert witness == "867edb76e262dcdd89362bbb070b94e0d1e63c6590ad4971748fd9d3a7f09a88"


class FoldedNetwork:
    """The networks ``mag_ratio`` should hand ``_max_flow``, rebuilt from A.{b}
    recomputed with ``ActionSystem.apply``, one element at a time.

    Node 0 is the source, 1 the sink, then the positive-weight states b of B
    in ascending order, then the states two or more A.{b} cover, ascending.
    At t = p/q, b's source arc carries max(p W(b) - q (weight of the states
    only A.{b} covers), 0), a shared state's sink arc q W(x), and each cover
    arc more than all the supply.  ``follow`` moves t to the ratio of the
    candidates on the source side a cut returns, as the Dinkelbach loop does.
    """

    def __init__(self, sysm, A, B):
        w = self.w = sysm.int_weights
        self.cand = [b for b in B.indices() if w[b]]
        self.covers = []
        for b in self.cand:
            mask = 0
            for a in A.indices():
                mask |= 1 << sysm.apply(a, b)
            self.covers.append(mask)
        hits = Counter(x for mask in self.covers for x in bit_indices(mask))
        self.shared = sorted(x for x, n in hits.items() if n > 1)
        self.follow([0] * (2 + len(self.cand)))

    def follow(self, level):
        cover = weight = 0
        for i, b in enumerate(self.cand):
            if level[2 + i] >= 0:
                cover |= self.covers[i]
                weight += self.w[b]
        if weight:  # the last cut's source side may hold no candidate
            self.t = Fraction(sum(self.w[x] for x in bit_indices(cover)), weight)

    def check(self, adj, head, cap):
        """The network is the fold of the masks at the current t."""
        p, q, w = self.t.numerator, self.t.denominator, self.w
        m = len(self.cand)
        node = {x: v for v, x in enumerate(self.shared, 2 + m)}
        supply = [max(p * w[b] - q * sum(w[x] for x in bit_indices(mask) if x not in node), 0)
                  for b, mask in zip(self.cand, self.covers)]
        want = Counter((0, u, c) for u, c in enumerate(supply, 2))
        want.update((v, 1, q * w[x]) for x, v in node.items())
        want.update((u, node[x], sum(supply) + 1) for u, mask in enumerate(self.covers, 2)
                    for x in bit_indices(mask) if x in node)
        assert len(adj) == 2 + m + len(node)
        assert Counter((head[e + 1], head[e], cap[e]) for e in range(0, len(head), 2)) == want


def test_every_cut_carries_a_flow_certificate(monkeypatch):
    real, cuts, folds = magnification._max_flow, [], []

    def certified(adj, head, cap):
        cap_in = list(cap)
        folds[-1].check(adj, head, cap_in)
        flow, level = real(adj, head, cap)
        check_flow_certificate(adj, head, cap_in, cap, flow, level)
        folds[-1].follow(level)
        cuts.append(len(adj))
        return flow, level

    monkeypatch.setattr(magnification, "_max_flow", certified)
    rounds = 0
    for sysm, A, B in certified_cases():
        folds.append(FoldedNetwork(sysm, A, B))
        result = mag_ratio(sysm, A, B)
        check_witness(sysm, A, B, result)
        rounds += result.iterations
    assert len(cuts) == rounds and max(cuts) > 2000


def paired_network(n, arcs):
    """adj, head and cap for ``_max_flow``: arc (u, v, c) is followed by its empty reverse."""
    adj, head, cap = [[] for _ in range(n)], [], []
    for u, v, c in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
    return adj, head, cap


def reaching_the_sink(adj, head, cap):
    """Nodes with a residual path to node 1."""
    reach, stack = {1}, [1]
    while stack:
        for e in adj[stack.pop()]:
            if cap[e ^ 1] and head[e] not in reach:
                reach.add(head[e])
                stack.append(head[e])
    return reach


@pytest.mark.parametrize("n, arcs, value, minimal, maximal", [
    # Every arc is a minimum cut: the source side is {0}, yet 2 and 3 cannot
    # reach the sink either.
    (4, [(0, 2, 1), (2, 3, 1), (3, 1, 1)], 1, {0}, {0, 2, 3}),
    # The greedy start sends 0 -> 2 -> 4 -> 1 and nothing more; three phases
    # follow, on paths of four arcs (6, 7, 8), five (3, 4, 2, 5, through the
    # reverse of 2 -> 4) and six (9 to 13, bottleneck 10 -> 11).
    (14, [(0, 2, 1), (0, 3, 2), (2, 4, 1), (2, 5, 1), (3, 4, 1), (4, 1, 1), (5, 1, 1),
          (0, 6, 1), (6, 7, 1), (7, 8, 1), (8, 1, 1),
          (0, 9, 3), (9, 10, 3), (10, 11, 1), (11, 12, 3), (12, 13, 3), (13, 1, 3)],
     4, {0, 3, 9, 10}, {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
    # The source has nothing to send: no flow, and the cut is the source alone.
    (4, [(0, 2, 0), (2, 1, 5), (3, 1, 2)], 0, {0}, {0}),
])
def test_max_flow_returns_the_minimal_source_side(n, arcs, value, minimal, maximal):
    adj, head, cap = paired_network(n, arcs)
    cap_in = list(cap)
    flow, level = magnification._max_flow(adj, head, cap)
    assert flow == value
    assert {v for v in range(n) if level[v] >= 0} == minimal
    assert set(range(n)) - reaching_the_sink(adj, head, cap) == maximal
    check_flow_certificate(adj, head, cap_in, cap, flow, level)
