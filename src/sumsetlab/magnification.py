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
masks A.{b} from ``systems.cover_masks``, whose element permutations are
generator powers raised by repeated squaring.
A Dinkelbach outer loop drives the parameter t: starting from the ratio of
B itself, each cut either certifies that no subset beats t (parametric
minimum exactly zero) or returns the minimal closure, a subset of strictly
smaller ratio.  Successive minimizers are nested, so the loop performs at
most |B| + 2 cuts; this bound is asserted.

The delta-constrained ratio, which additionally demands mu(S) >= delta *
mu(B), is not one cut away - the constraint breaks the closure structure -
so it is computed by exhaustive subset enumeration under a size guard, as
is the independent oracle used to cross-check the flow route.  For a
finite acting set the supremum of ratios over its finite subsets collapses
to the plain ratio, so no separate operation is exposed for that variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteSet, bit_indices, frac_str
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


class _Dinic:
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


def _candidates(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> dict[int, int]:
    """A.{b} for every positive-measure state b of B, in ascending order of b."""
    support = sys.support_mask
    covers = {b: mask for b, mask in cover_masks(sys, A, B).items() if support >> b & 1}
    if not covers:
        raise ValueError("B has measure zero; no ratio is defined")
    return covers


def _parametric_cut(
    sys: ActionSystem, covers: dict[int, int], t: Fraction
) -> tuple[Fraction, list[int], int, int]:
    """Minimize mu(A.S) - t*mu(S) over S; return value and minimal minimizer."""
    cand = list(covers)
    xs = sorted({x for mask in covers.values() for x in bit_indices(mask)})
    w = sys.int_weights
    p, q = t.numerator, t.denominator
    profit = {b: p * w[b] for b in cand}
    inf = sum(profit.values()) + sum(q * w[x] for x in xs) + 1

    node_of_b = {b: 2 + i for i, b in enumerate(cand)}
    node_of_x = {x: 2 + len(cand) + i for i, x in enumerate(xs)}
    net = _Dinic(2 + len(cand) + len(xs))
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


def mag_ratio(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> MagnificationResult:
    """Exact minimum of mu(A.S)/mu(S) over positive-measure S inside B.

    Returned witness is the final Dinkelbach iterate: a subset of B that
    attains the minimum exactly.
    """
    covers = _candidates(sys, A, B)
    w = sys.int_weights

    def ratio(sel: list[int]) -> Fraction:
        cover = 0
        for b in sel:
            cover |= covers[b]
        return Fraction(sys.mass(cover), sum(w[b] for b in sel))

    current = list(covers)
    t = ratio(current)
    nodes = edges = 0
    for _round in range(len(covers) + 2):
        value, chosen, nodes, edges = _parametric_cut(sys, covers, t)
        if value == 0:
            return MagnificationResult(
                value=t,
                witness=state_subset(sys, current),
                method="flow",
                nodes=nodes,
                edges=edges,
                iterations=_round + 1,
            )
        assert value < 0, "parametric cut exceeded the current ratio"
        current = chosen
        t = ratio(current)
    raise AssertionError("Dinkelbach loop exceeded the |B| + 2 cut bound")


def _enumerate_best(
    sys: ActionSystem,
    covers: dict[int, int],
    min_weight_scaled: int = 0,
) -> tuple[Fraction, int, int] | None:
    """Scan all non-empty subsets of the candidates; return (value, witness mask, count).

    The candidates are the keys of ``covers``.  Ratios are compared by
    integer cross-multiplication; ties break toward the lexicographically
    smallest sorted index tuple.  ``min_weight_scaled`` filters subsets
    whose measure, in units of 1/D, is below the bound.
    """
    cand = list(covers)
    wint = sys.int_weights
    m = len(cand)
    cover_w: dict[int, int] = {}

    def weight_of(mask: int) -> int:
        got = cover_w.get(mask)
        if got is None:
            got = sys.mass(mask)
            cover_w[mask] = got
        return got

    best: tuple[int, int, int] | None = None  # (num, den, selection mask)
    examined = 0

    def consider(sel_mask: int, cover: int, wsum: int) -> None:
        nonlocal best, examined
        examined += 1
        if wsum < min_weight_scaled:
            return
        num = weight_of(cover)
        if best is None or num * best[1] < best[0] * wsum:
            best = (num, wsum, sel_mask)
        elif num * best[1] == best[0] * wsum:
            old = [cand[i] for i in bit_indices(best[2])]
            new = [cand[i] for i in bit_indices(sel_mask)]
            if new < old:
                best = (num, wsum, sel_mask)

    if m <= 20:
        cover_tab = [0] * (1 << m)
        wsum_tab = [0] * (1 << m)
        for sel in range(1, 1 << m):
            low = sel & -sel
            i = low.bit_length() - 1
            rest = sel ^ low
            cover_tab[sel] = cover_tab[rest] | covers[cand[i]]
            wsum_tab[sel] = wsum_tab[rest] + wint[cand[i]]
            consider(sel, cover_tab[sel], wsum_tab[sel])
    else:
        def walk(i: int, sel_mask: int, cover: int, wsum: int) -> None:
            if i == m:
                if sel_mask:
                    consider(sel_mask, cover, wsum)
                return
            walk(i + 1, sel_mask, cover, wsum)
            b = cand[i]
            walk(i + 1, sel_mask | (1 << i), cover | covers[b], wsum + wint[b])

        walk(0, 0, 0, 0)

    if best is None:
        return None
    num, den, sel_mask = best
    witness = 0
    for i in bit_indices(sel_mask):
        witness |= 1 << cand[i]
    return Fraction(num, den), witness, examined


def mag_ratio_oracle(sys: ActionSystem, A: FiniteSet, B: StateSubset) -> MagnificationResult:
    """Brute-force reference: enumerate every non-empty subset of B.

    Guarded at |B ∩ supp(mu)| <= 24.  Returns the lexicographically smallest
    minimizer, so results are reproducible bit for bit.
    """
    covers = _candidates(sys, A, B)
    if len(covers) > ORACLE_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: |B ∩ supp| = {len(covers)} > {ORACLE_GUARD}"
        )
    found = _enumerate_best(sys, covers)
    assert found is not None
    value, witness, examined = found
    return MagnificationResult(
        value=value,
        witness=StateSubset(sys, witness),
        method="oracle",
        iterations=examined,
    )


def mag_ratio_delta(
    sys: ActionSystem, A: FiniteSet, B: StateSubset, delta: Fraction
) -> MagnificationResult:
    """Constrained ratio: minimize over S ⊆ B with mu(S) >= delta * mu(B).

    The measure constraint destroys the closure structure used by the flow
    route, so this is exhaustive enumeration under the same size guard.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    covers = _candidates(sys, A, B)
    if len(covers) > ORACLE_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: |B ∩ supp| = {len(covers)} > {ORACLE_GUARD}"
        )
    total = sys.mass(B.mask)
    # mu(S) >= delta * mu(B) in scaled integers: den(delta)*w(S) >= num(delta)*w(B).
    # Rescale so the threshold is a plain integer bound on w(S).
    bound_num = delta.numerator * total
    bound_den = delta.denominator
    threshold = -(-bound_num // bound_den)  # ceil; w(S) is an integer multiple of 1
    found = _enumerate_best(sys, covers, min_weight_scaled=threshold)
    if found is None:
        raise ValueError(f"no subset of B reaches delta * mu(B) for delta = {delta}")
    value, witness, examined = found
    return MagnificationResult(
        value=value,
        witness=StateSubset(sys, witness),
        method="enumeration",
        iterations=examined,
    )
