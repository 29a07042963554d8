"""Exact magnification ratios on finite measure-preserving systems.

The magnification ratio of (A, B) is the minimum of mu(A.S)/mu(S) over
non-empty S inside B with positive measure.  mu(A.S) is a weighted coverage
function of S, hence submodular, so mu(A.S) - t*mu(S) is submodular minus
modular and its exact minimizer is a maximum-weight closure problem: one
node per candidate state b with profit t*mu(b), one node per coverable
state x with cost mu(x), and an arc b -> x whenever x lies in A.{b}, so
selecting b forces paying for everything it covers.  The closure is a
single s-t minimum cut on the bipartite network

    source -> b   capacity t * mu(b)
    b -> x        capacity infinity
    x -> sink     capacity mu(x)

With t = p/q in lowest terms and the system's integer weights W over their
common denominator D (mu(x) = W(x)/D), every capacity is an integer over
the one scale q*D: profit p*W(b), cost q*W(x).  The flow computation runs
on exact integers; no floating point enters this module.  The arcs are the
masks A.{b} from ``systems.cover_masks``, which moves each b along the
generators' cycles.
A Dinkelbach outer loop drives the parameter t: starting from the ratio of
B itself, each cut either certifies that no subset beats t (parametric
minimum exactly zero) or returns the minimal closure, a subset of strictly
smaller ratio.  Successive minimizers are nested, so the loop performs at
most |B| + 2 cuts; this bound is asserted.

The cuts run on a folded copy of this network.  A covered state x that
lies in A.{b} for exactly one candidate b is in A.S exactly when b is in
S, so it needs no node of its own: its cost is charged to b, whose source
arc carries the net profit max(p*W(b) - q*(sum of W(x) over b's private
states), 0).  Only the states that two or more candidates cover keep a
node, a sink arc and their cover arcs.  A candidate whose net profit is
not positive gets no capacity: adding it to S never lowers
mu(A.S) - t*mu(S), so it receives no flow and never joins the minimal
closure, and a cut certifies t when its flow equals the sum of the
positive net profits.  The objective is the same function of S, so its
minimizers, hence the Dinkelbach iterates, the value and the witness, are
those of the full network.

The folded network is built once per ratio, in one pass over the cover
masks, and only its capacities change from cut to cut.  Arcs live in flat
lists, arc e and arc e ^ 1 forming a residual pair.  ``_max_flow`` runs in
three stages.  A greedy pass first pushes along each source -> b -> x ->
sink path in stored order, which on these networks carries most of the
flow.  An exchange pass then takes the paths of five arcs that the greedy
start leaves: a candidate b with supply left reaches only full states, so
for each full x it feeds, another candidate b2 that sends flow into x moves
some of it over to a state x2 with room, and b takes its place in x
(source -> b -> x -> b2 -> x2 -> sink).  These are the paths Dinic's first
phase would look for, found without its breadth-first search; on the
benchmark's flow cuts the pass took the phases per cut from 6.2 to 5.2
(counting the last search, which finds no path).  The pass only fills
states, so each state keeps its place among its feeders and each feeder
its place among its states, and the pass costs the arcs plus the pushes.
What is left goes to Dinic's algorithm with an iterative blocking-flow
search.
Each phase labels nodes by their residual distance to the sink, by a
breadth-first search over reversed arcs that stops once the source has a
label, and the blocking search only steps from distance d to distance
d - 1.  Levels counted from the source would admit every node at the right
depth, also the many that cannot reach the sink, and the search would walk
into each of them; with distances to the sink every labelled node starts
the phase with a way down, so the search only dead-ends behind arcs
saturated in that phase.  Within a phase the search resumes at the tail of
the first arc an augmentation saturated.  None of this can move the cut:
every maximum flow leaves the same residual reachable set.  Once the
source gets no label the flow is maximum, and one forward breadth-first
search from the source finds that set, the minimal source side of a
minimum cut, hence the minimal closure; the nodes that cannot reach the
sink form the maximal source side, which can be larger.  A flow result's
``nodes`` and ``edges`` still describe the full closure network, not the
folded one: source, sink, one node per candidate and per covered state,
and one edge per source, sink and cover arc (reverse arcs not counted),
counted from the masks.

The delta-constrained ratio, which additionally demands mu(S) >= delta *
mu(B), is not one cut away - the constraint breaks the closure structure -
so it is computed by exhaustive subset enumeration under a size guard of
ORACLE_GUARD candidates, as is the independent oracle used to cross-check
the flow route.  For a finite acting set the supremum of ratios over its
finite subsets collapses to the plain ratio, so no separate operation is
exposed for that variant.

One enumerator, ``_subset_blocks``, serves both and also the superset
search of ``verify``'s prop13.  It relabels the masks A.{b} onto the
covered states X, stored as ceil(|X|/64) uint64 words per mask, and builds
the cover and weight of every subset by doubling over the m candidates:
cover[h:2h] = cover[:h] | A.{b_j} and wsum[h:2h] = wsum[:h] + W(b_j).  The
covered mass of a cover is a sum of lookups in one 256-entry table per
byte.  A low table over the first min(m, 14) candidates is OR-ed with each
subset of the others in turn, so no table holds more than 2^14 covers
(128 KiB per 64 covered states) and m = 24 takes 1024 blocks.  128 KiB is
glibc's default mmap threshold: larger tables, freed and allocated again
on every call, come back as fresh pages whenever the heap holds no free
chunk that large, which the memory layout left by the imports decides, so
their cost would follow unrelated code.  Tables of 128 KiB did too: once
glibc's dynamic thresholds (mallopt(3)) settle at about 132 KiB for mmap
and twice that for trimming, the tables one call frees at the top of the
heap are handed back to the system, and the next call faults them in
again page by page, whenever the layout puts them there.  So the first
enumeration raises the thresholds to 4 and 8 MiB by allocating and
freeing one 4 MiB block (``_hold_freed_tables``).  Ratios are
compared by integer cross-multiplication: in int64 when the square of the
total integer weight, which bounds every product, is below 2^62, and
otherwise by the same code on arrays of Python ints.  Ties go to the
lexicographically smallest sorted index tuple, found by rounds over the
lowest set bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from .groups import FiniteSet, bit_indices, frac_str, parse_fraction
# apply_set is unused here; bench/test_bench.py asserts magnification.apply_set exists.
from .systems import ActionSystem, StateSubset, apply_set, cover_masks, state_subset

__all__ = [
    "MagnificationResult",
    "mag_ratio",
    "mag_ratio_oracle",
    "mag_ratio_delta",
    "ORACLE_GUARD",
]

ORACLE_GUARD = 24


@dataclass(frozen=True)
class MagnificationResult:
    value: Fraction
    witness: StateSubset
    method: str
    nodes: int = 0
    edges: int = 0
    iterations: int = 0

    def to_json(self) -> dict:
        return {
            "value": frac_str(self.value),
            "witness": self.witness.to_json(),
            "method": self.method,
            "nodes": self.nodes,
            "edges": self.edges,
            "iterations": self.iterations,
        }


def _candidates(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> dict[int, int]:
    """A.{b} for every positive-measure state b of B, in ascending order of b."""
    support = sys.support_mask
    covers = {b: mask for b, mask in cover_masks(sys, A, B).items() if support >> b & 1}
    if not covers:
        raise ValueError("B has measure zero; no ratio is defined")
    return covers


def _max_flow(adj: list[list[int]], head: list[int], cap: list[int]) -> tuple[int, list[int]]:
    """Dinic's maximum flow from node 0 to node 1 on paired arcs.

    Arc e runs to head[e] with residual capacity cap[e], which is updated in
    place; arc e ^ 1 is its reverse and adj[u] lists the arcs leaving u.
    Returns the flow and the levels of a breadth-first search from the
    source on the final residual network: the nodes it reached (level >= 0)
    are the minimal source side of a minimum cut.  Every maximum flow leaves
    the same residual reachable set, so how the flow is found does not
    change the cut.

    Three stages.  A greedy start walks each source -> u -> v -> sink path
    once, in stored order, and pushes what the source arc and the sink arc
    still hold; on the closure network this carries most of the flow.  An
    exchange pass then walks, for each source arc with supply left, each
    path source -> b -> x -> b2 -> x2 -> sink: x's sink arc is full, b2
    sends flow into x, and x2's sink arc has room, so b2 moves flow from x
    to x2 and b sends as much into x.  A feeder or an arc it passes over
    stays of no use, so it walks each arc once, plus once per push.  Dinic's
    phases find the rest.  Each phase labels nodes with their residual
    distance to the sink, by a breadth-first search over reversed arcs that
    stops once the source has a label, and finds a blocking flow along arcs
    that lower the distance by one, without recursion.  At the start of a
    phase every labelled node has such an arc, so the search dead-ends only
    where this phase saturated one; after an augmentation it resumes at the
    tail of the first arc it saturated, and a node that dead-ends loses its
    label for the rest of the phase.  When the source gets no label, no
    residual path reaches the sink and the forward search returns the cut.
    """
    n = len(adj)
    flow = 0
    sink_arc = [-1] * n  # sink_arc[v]: the arc v -> sink, if any
    for e in adj[1]:
        sink_arc[head[e]] = e ^ 1
    for e in adj[0]:
        left = cap[e]
        for f in adj[head[e]]:
            if not left:
                break
            g = sink_arc[head[f]]
            if g < 0:
                continue
            pushed = cap[g]
            if pushed:  # the least of cap[g], left and cap[f], without a call to min
                if left < pushed:
                    pushed = left
                if cap[f] < pushed:
                    pushed = cap[f]
                left -= pushed
                cap[f] -= pushed
                cap[f ^ 1] += pushed
                cap[g] -= pushed
                cap[g ^ 1] += pushed
        pushed = cap[e] - left
        cap[e] = left
        cap[e ^ 1] += pushed
        flow += pushed
    # A candidate b with supply left now reaches only full states, and this
    # pass only fills states.  For each full x that b feeds, another b2 that
    # sends flow into x moves some of it to an x2 with room, and b takes its
    # place: the path source -> b -> x -> b2 -> x2 -> sink.  An arc into a
    # full state stays of no use, and x gains a feeder only in a candidate,
    # which reaches no room, so each node keeps its place in its arcs (at[v])
    # from one visit to the next and the pass is linear in arcs plus pushes.
    at = [0] * n
    for e in adj[0]:
        left = cap[e]
        b = head[e]
        if not left or b < 2:
            continue
        for f in adj[b]:
            x = head[f]
            if x < 2 or not cap[f] or sink_arc[x] < 0:
                continue
            feeders, i = adj[x], at[x]
            while i < len(feeders):
                r = feeders[i]
                b2 = head[r]
                if cap[r] and b2 != b and b2 >= 2:
                    arcs, j = adj[b2], at[b2]
                    while j < len(arcs):
                        f2 = arcs[j]
                        g = sink_arc[head[f2]]
                        if g >= 0 and cap[g] and cap[f2]:
                            pushed = min(left, cap[f], cap[r], cap[f2], cap[g])
                            left -= pushed
                            cap[f] -= pushed
                            cap[f ^ 1] += pushed
                            cap[r] -= pushed
                            cap[r ^ 1] += pushed
                            cap[f2] -= pushed
                            cap[f2 ^ 1] += pushed
                            cap[g] -= pushed
                            cap[g ^ 1] += pushed
                            if not (left and cap[r] and cap[f]):
                                break
                        j += 1
                    at[b2] = j
                    if j < len(arcs) and cap[r]:  # b or its arc into x ran out
                        break
                i += 1
            at[x] = i
            if not left:
                break
        pushed = cap[e] - left
        cap[e] = left
        cap[e ^ 1] += pushed
        flow += pushed
    while True:
        dist = [-1] * n  # residual distance to the sink; -1: none, or dead this phase
        dist[1] = 0
        frontier = [1]
        while frontier and dist[0] < 0:
            nxt = []
            for v in frontier:
                if dist[0] >= 0:
                    break
                d = dist[v] + 1
                for e in adj[v]:  # e runs v -> u, so its pair e ^ 1 runs u -> v
                    if cap[e ^ 1]:
                        u = head[e]
                        if dist[u] < 0:
                            dist[u] = d
                            nxt.append(u)
            frontier = nxt
        if dist[0] < 0:
            level = [-1] * n
            level[0] = 0
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    deeper = level[u] + 1
                    for e in adj[u]:
                        if cap[e]:
                            v = head[e]
                            if level[v] < 0:
                                level[v] = deeper
                                nxt.append(v)
                frontier = nxt
            return flow, level
        it = [0] * n
        path: list[int] = []  # arcs from the source to u
        u = 0
        while True:
            if u == 1:
                k, pushed = 0, cap[path[0]]
                for i in range(1, len(path)):
                    if cap[path[i]] < pushed:
                        k, pushed = i, cap[path[i]]
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                u = head[path[k] ^ 1]  # resume at the tail of the first saturated arc
                del path[k:]
            arcs, i, lower = adj[u], it[u], dist[u] - 1
            while i < len(arcs) and not (cap[arcs[i]] and dist[head[arcs[i]]] == lower):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = head[arcs[i]]
            elif path:  # dead end: u loses its label, retreat
                dist[u] = -1
                u = head[path.pop() ^ 1]
            else:
                break


def mag_ratio(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> MagnificationResult:
    """Exact minimum of mu(A.S)/mu(S) over positive-measure S inside B.

    Returned witness is the final Dinkelbach iterate: a subset of B that
    attains the minimum exactly.  The cuts run on the folded network, where
    each state that one candidate alone covers is charged to that candidate
    and has no node; ``nodes`` and ``edges`` report the full closure network.
    """
    covers = _candidates(sys, A, B)
    cand = list(covers)
    m = len(cand)
    w = sys.int_weights
    union = shared = 0
    for mask in covers.values():
        shared |= union & mask
        union |= mask

    # Node 0 is the source, 1 the sink, then the candidates, then the shared
    # states.  Arcs [0, sources) leave the source, [sources, sinks) enter the
    # sink and the rest are cover arcs; each even arc is followed by its
    # reverse.  A state that one candidate alone covers gets no node: its
    # weight is summed into that candidate's private cost instead.
    node = {x: v for v, x in enumerate(bit_indices(shared), 2 + m)}
    sources = 2 * m
    sinks = sources + 2 * len(node)
    head = [0] * sinks
    head[:sources:2] = range(2, 2 + m)
    head[sources:sinks:2] = [1] * len(node)
    head[sources + 1:sinks:2] = node.values()
    adj = [list(range(0, sources, 2)), list(range(sources + 1, sinks, 2))]
    adj += [[e] for e in range(1, sources, 2)]
    adj += [[e] for e in range(sources, sinks, 2)]
    private = []  # private[i]: the weight of the states only cand[i] covers
    for u, b in enumerate(cand, 2):
        out, own, mask = adj[u], 0, covers[b]
        while mask:
            low = mask & -mask
            mask ^= low
            x = low.bit_length() - 1
            v = node.get(x)
            if v is None:
                own += w[x]
            else:
                out.append(len(head))
                adj[v].append(len(head) + 1)
                head += (v, u)
        private.append(own)
    cost = [w[x] for x in node]

    def ratio(sel: list[int]) -> Fraction:
        cover = 0
        for b in sel:
            cover |= covers[b]
        return Fraction(sys.mass(cover), sum(w[b] for b in sel))

    current = cand
    t = ratio(current)
    for _round in range(m + 2):
        # Minimize mu(A.S) - t*mu(S) over S in units of 1/(q*D): candidate b
        # supplies its net profit p*W(b) - q*(its private cost), if positive,
        # and a shared state costs q*W(x); the minimum is the flow less the
        # supply.
        p, q = t.numerator, t.denominator
        supply = [max(p * w[b] - q * own, 0) for b, own in zip(cand, private)]
        total = sum(supply)
        cap = [0] * len(head)
        cap[:sources:2] = supply
        cap[sources:sinks:2] = [q * c for c in cost]
        # A cover arc holds more than all the supply, so no minimum cut holds one.
        cap[sinks::2] = [total + 1] * ((len(head) - sinks) // 2)
        flow, level = _max_flow(adj, head, cap)
        if flow == total:
            covered = union.bit_count()
            return MagnificationResult(
                value=t,
                witness=state_subset(sys, current),
                method="flow",
                nodes=2 + m + covered,
                edges=m + covered + sum(mask.bit_count() for mask in covers.values()),
                iterations=_round + 1,
            )
        assert flow < total, "parametric cut exceeded the current ratio"
        current = [b for i, b in enumerate(cand) if level[2 + i] >= 0]
        t = ratio(current)
    raise AssertionError("Dinkelbach loop exceeded the |B| + 2 cut bound")


_BLOCK_BITS = 14
_INT64_LIMIT = 1 << 62


def _doubled(first_cover: np.ndarray, first_weight: int, rows: np.ndarray,
             weights: Sequence[int], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Cover words and weight sums of all 2^len(weights) subsets of the rows.

    Subset s (bit i selects row i) covers first_cover | OR rows[i] and weighs
    first_weight + sum weights[i]; the tables double once per row.
    """
    cover = np.empty((1 << len(weights), rows.shape[1]), dtype="<u8")
    wsum = np.empty(1 << len(weights), dtype=dtype)
    cover[0] = first_cover
    wsum[0] = first_weight
    for j, weight in enumerate(weights):
        h = 1 << j
        np.bitwise_or(cover[:h], rows[j], out=cover[h:2 * h])
        np.add(wsum[:h], weight, out=wsum[h:2 * h])
    return cover, wsum


@cache
def _byte_bits(dtype) -> np.ndarray:
    """Row v holds the eight bits of the byte value v, lowest first."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little").astype(dtype)
    bits.flags.writeable = False
    return bits


@cache
def _hold_freed_tables() -> None:
    """Allocate and free one 4 MiB block, once per process.

    glibc serves a block of at least its mmap threshold (128 KiB at first)
    by mmap, and freeing one raises that threshold to the block's size and
    the trim threshold to twice it (mallopt(3)).  Past this call, tables
    that one enumeration frees, while they total less than 8 MiB, come from
    the heap and go back to it, and are not handed to the system and faulted
    in again page by page on the next call, whatever the heap's layout."""
    np.empty(1 << 22, dtype=np.uint8)


def _subset_blocks(
    sys: ActionSystem,
    covers: Sequence[int],
    weights: Sequence[int],
    limit: int,
    base_cover: int = 0,
    base_weight: int = 0,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Covered mass and weight of every subset of the candidates, in blocks.

    Subset s (bit i selects candidate i) covers base_cover | OR covers[i],
    whose measure in units of 1/D is its mass, and weighs base_weight +
    sum weights[i].  Yields (first, mass, wsum) in ascending order of first,
    where mass[r] and wsum[r] belong to subset first + r.  Entries are int64
    when ``limit``, a bound on every product the caller forms from them, is
    below 2^62, and Python ints in object arrays otherwise.
    """
    _hold_freed_tables()
    dtype = np.int64 if limit < _INT64_LIMIT else object
    union = base_cover
    for mask in covers:
        union |= mask
    xs = list(bit_indices(union))
    position = {x: 1 << i for i, x in enumerate(xs)}
    words = max(1, -(-len(xs) // 64))
    relabelled = b"".join(sum(position[x] for x in bit_indices(mask)).to_bytes(8 * words, "little")
                          for mask in (base_cover, *covers))
    rows = np.frombuffer(relabelled, dtype="<u8").reshape(-1, words)

    # table[j][v]: the mass of byte value v in byte j of the relabelled cover.
    octets = -(-len(xs) // 8)
    wx = np.zeros(8 * octets, dtype=dtype)
    wx[:len(xs)] = [sys.int_weights[x] for x in xs]
    table = np.ascontiguousarray((_byte_bits(dtype) @ wx.reshape(octets, 8).T).T)

    def mass_of(cover: np.ndarray) -> np.ndarray:
        octet = cover.view(np.uint8)
        mass = np.zeros(len(cover), dtype=dtype)
        for j in range(octets):
            mass += table[j][octet[:, j]]
        return mass

    low = min(len(covers), _BLOCK_BITS)
    lo_cover, lo_wsum = _doubled(rows[0], base_weight, rows[1:1 + low], weights[:low], dtype)
    # The low table goes out in chunks [0, 256), [256, 4096), [4096, 16384),
    # so a caller that stops at an early hit measures little of it.
    first = 0
    while first < len(lo_wsum):
        stop = min(max(first << 4, 256), len(lo_wsum))
        yield first, mass_of(lo_cover[first:stop]), lo_wsum[first:stop]
        first = stop
    hi_cover, hi_wsum = _doubled(np.zeros(words, dtype="<u8"), 0, rows[1 + low:],
                                 weights[low:], dtype)
    for h in range(1, len(hi_wsum)):
        yield h << low, mass_of(lo_cover | hi_cover[h]), lo_wsum + hi_wsum[h]


def first_subset_within(
    sys: ActionSystem,
    covers: Sequence[int],
    weights: Sequence[int],
    bound: Fraction,
    base_cover: int = 0,
    base_weight: int = 0,
) -> int | None:
    """The least non-empty selection s whose covered mass over its weight,
    as laid out by ``_subset_blocks``, is at most ``bound``; None if none is."""
    p, q = bound.numerator, bound.denominator
    limit = max(sum(sys.int_weights), base_weight + sum(weights)) * max(p, q)
    for first, mass, wsum in _subset_blocks(sys, covers, weights, limit,
                                            base_cover, base_weight):
        hits = np.flatnonzero(mass * q <= p * wsum)
        hits = hits[hits + first > 0]
        if len(hits):
            return first + int(hits[0])
    return None


def _lex_first(sels: np.ndarray) -> int:
    """The selection mask whose sorted index tuple is lexicographically smallest.

    Rounds over the lowest set bit: keep the masks whose next index is
    smallest.  A mask with no index left has lowest bit 0, so it is kept
    alone: it is a prefix of the others.
    """
    rest = sels
    while len(sels) > 1:
        low = rest & -rest
        keep = low == low.min()
        sels, rest = sels[keep], rest[keep] ^ low[keep]
    return int(sels[0])


def _least_ratio(num: np.ndarray, den: np.ndarray, shift: int) -> tuple[int, int]:
    """The least num/den over rows of positive integers.

    The key floor(num * 2^shift / den) never decreases as the ratio grows,
    so the row of least key is a first guess; integer cross-multiplication
    then replaces it by a strictly smaller ratio until none is left.
    """
    i = int(np.argmin((num << shift) // den))
    while True:
        below = np.flatnonzero(num * den[i] < num[i] * den)
        if not len(below):
            return int(num[i]), int(den[i])
        i = int(below[0])


def _enumerate_best(
    sys: ActionSystem,
    covers: dict[int, int],
    min_weight_scaled: int = 0,
) -> tuple[Fraction, int, int] | None:
    """Scan all non-empty subsets of the candidates; return (value, witness mask, count).

    The candidates are the keys of ``covers``.  Ratios are compared by
    integer cross-multiplication; ties break toward the lexicographically
    smallest sorted index tuple.  ``min_weight_scaled`` filters subsets
    whose measure, in units of 1/D, is below the bound.  Each block keeps
    only the subsets no worse than the best so far, then takes their least
    ratio and its smallest tie.
    """
    cand = list(covers)
    w = sys.int_weights
    total = sum(w)
    # Keys below 2^62 in int64; any shift keeps _least_ratio exact.
    shift = max(0, 62 - total.bit_length())
    # Every candidate weighs at least 1, so the floor also drops the empty subset.
    floor = max(min_weight_scaled, 1)
    best: tuple[int, int, int] | None = None  # (num, den, selection mask)
    for first, mass, wsum in _subset_blocks(sys, list(covers.values()),
                                            [w[b] for b in cand], total * total):
        keep = wsum >= floor
        if best is not None:
            keep &= mass * best[1] <= best[0] * wsum
        rows = np.flatnonzero(keep)
        if not len(rows):
            continue
        mass, wsum = mass[rows], wsum[rows]
        num, den = _least_ratio(mass, wsum, shift)
        sel = _lex_first(first + rows[mass * den == num * wsum])
        # The block's least ratio is at most the best so far: below it, or a tie.
        if (best is None or num * best[1] < best[0] * den
                or list(bit_indices(sel)) < list(bit_indices(best[2]))):
            best = (num, den, sel)

    if best is None:
        return None
    num, den, sel = best
    witness = 0
    for i in bit_indices(sel):
        witness |= 1 << cand[i]
    return Fraction(num, den), witness, (1 << len(cand)) - 1


def _enumerated(sys: ActionSystem, A: FiniteSet, B: StateSubset, method: str,
                delta: Fraction | None = None) -> MagnificationResult:
    """The least ratio over every subset of B, with mu(S) >= delta * mu(B) if
    delta is given, by exhaustive enumeration under ORACLE_GUARD."""
    covers = _candidates(sys, A, B)
    if len(covers) > ORACLE_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: |B ∩ supp| = {len(covers)} > {ORACLE_GUARD}"
        )
    threshold = 0
    if delta is not None:
        # mu(S) >= delta * mu(B) in units of 1/D, rounded up: w(S) is an integer.
        threshold = -(-delta.numerator * sys.mass(B.mask) // delta.denominator)
    found = _enumerate_best(sys, covers, min_weight_scaled=threshold)
    if found is None:
        raise ValueError(f"no subset of B reaches delta * mu(B) for delta = {delta}")
    value, witness, examined = found
    return MagnificationResult(
        value=value,
        witness=StateSubset(sys, witness),
        method=method,
        iterations=examined,
    )


def mag_ratio_oracle(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> MagnificationResult:
    """Brute-force reference: enumerate every non-empty subset of B.

    Guarded at |B ∩ supp(mu)| <= 24.  Returns the lexicographically smallest
    minimizer, so results are reproducible bit for bit.
    """
    return _enumerated(sys, A, B, "oracle")


def mag_ratio_delta(
    sys: ActionSystem, A: FiniteSet, B: StateSubset, delta: Fraction
) -> MagnificationResult:
    """Constrained ratio: minimize over S ⊆ B with mu(S) >= delta * mu(B).

    The measure constraint destroys the closure structure used by the flow
    route, so this is exhaustive enumeration under the same size guard.
    """
    delta = parse_fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return _enumerated(sys, A, B, "enumeration", delta)
