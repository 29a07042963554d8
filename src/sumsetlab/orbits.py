"""Shift-orbit closures of eventually periodic integer sets.

The closure of the shift orbit of an eventually periodic point contains the
transient translates of the point itself plus finitely many periodic limit
configurations.  Every shift-invariant measure gives the transient part
mass zero, so only the periodic limit orbits are materialized; the base
point is kept as symbolic bookkeeping and queried through descriptor
shifts.  Each limit orbit is a finite cycle on which the integers act
through the quotient by the orbit period, so the finite action machinery
is reused unchanged, and the uniform measure on each cycle is the ergodic
measure of that orbit.

The distinguished observable is B = "the configuration contains 0".  With
the shift acting by g . x = x - g, a configuration at phase s of the orbit
of a periodic pattern lies in B exactly when s is in the pattern, and the
pushforward of B under a finite acting set A lands on the phases pattern +
A, which is what the verification routine compares against exact sumset
densities on the line.  Each orbit starts at its tail's own mask, as no
rotation moves the uniform measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .groups import collection, exact_int, finite_set, frac_str, make_group
from .systems import ActionSystem, StateSubset, apply_set, measure_of, regular_system
from .zline import ZSetDesc, Tail, banach_lower, banach_upper, finite, shift, zcontains, zsumset

__all__ = [
    "LimitOrbit",
    "OrbitSystem",
    "Relation",
    "CorrespondenceReport",
    "orbit_closure",
    "verify_correspondence",
    "recovery_window_ok",
    "MAX_RECOVERY_WORK",
]


@dataclass(frozen=True)
class LimitOrbit:
    side: str  # "left", "right" or "both"
    period: int
    system: ActionSystem
    b_set: StateSubset  # the tail's own residue mask: phase s is in B when s is a residue

    @property
    def b_measure(self) -> Fraction:
        return measure_of(self.system, self.b_set)

    def ab_measure(self, A: Iterable[int]) -> Fraction:
        """Measure of A.B on this orbit, computed through the action machinery."""
        reduced = finite_set(self.system.group, {a % self.period for a in A})
        return measure_of(self.system, apply_set(self.system, reduced, self.b_set))


@dataclass(frozen=True)
class OrbitSystem:
    source: ZSetDesc
    orbits: tuple[LimitOrbit, ...]
    degenerate: bool

    @property
    def states_total(self) -> int:
        return sum(o.period for o in self.orbits)

    def b_xo_contains(self, g: int) -> bool:
        """Whether the translate g . x_o lies in B, via the symbolic base point."""
        return zcontains(shift(self.source, -g), 0)


@dataclass(frozen=True)
class Relation:
    name: str
    op: str
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class CorrespondenceReport:
    relations: tuple[Relation, ...]
    mu_side: str
    nu_side: str | None
    degenerate: bool

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.relations)

    def to_json(self) -> dict:
        return {
            "relations": [
                {
                    "name": r.name,
                    "op": r.op,
                    "lhs": frac_str(r.lhs),
                    "rhs": frac_str(r.rhs),
                    "holds": r.holds,
                }
                for r in self.relations
            ],
            "mu_side": self.mu_side,
            "nu_side": self.nu_side,
            "degenerate": self.degenerate,
        }


def _period(tail: Tail | None) -> int:
    return 1 if tail is None else tail.period


def _limit_orbit(side: str, tail: Tail | None) -> LimitOrbit:
    # Tails arrive minimal-period reduced from the descriptor normal form.
    period = _period(tail)
    system = regular_system(make_group([period]))
    return LimitOrbit(side, period, system, StateSubset(system, 0 if tail is None else tail.mask))


def orbit_closure(S: ZSetDesc) -> OrbitSystem:
    """Materialize the periodic limit orbits of the shift orbit closure of S.

    The sides are one "both" orbit when one tail's mask is a rotation of the
    other's.  A set with both tails absent has only the empty configuration
    in its limit set; the result is flagged degenerate rather than rejected.
    """
    left = _limit_orbit("left", S.left)
    right = _limit_orbit("right", S.right)
    p = left.period
    if p == right.period and f"{left.b_set.mask:0{p}b}" in f"{right.b_set.mask:0{p}b}" * 2:
        orbits = (LimitOrbit("both", p, left.system, left.b_set),)
    else:
        orbits = (left, right)
    degenerate = S.left is None and S.right is None
    return OrbitSystem(S, orbits, degenerate)


# recovery_window_ok reads its points one shift of the descriptor each, and a
# shift rebuilds the head: a point costs about |head| + 128 units (the 128
# stand for the two tails at period 4096).  A window whose points would cost
# more than this many units together is refused.
MAX_RECOVERY_WORK = 1 << 21


def recovery_window_ok(orb: OrbitSystem, lo: int, hi: int) -> bool:
    """Check that reading B along the base-point orbit recovers S on [lo, hi).

    A point g holds when ``orb.b_xo_contains(g)``, read through a shift of
    S, equals ``zcontains(S, g)``.  Below S.lo and from S.hi on, both sides
    are periodic in g with that side's tail period (an absent tail reads
    "no" everywhere), so only one period of each tail's part of the window
    is read, and the window may be of any length.  The part inside S's head
    window is read point by point.  When the points read times (|head| + 128)
    exceed ``MAX_RECOVERY_WORK``, the window is refused with a ValueError.
    An empty window holds.
    """
    lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
    S = orb.source
    left_stop, right_start = min(hi, S.lo), max(lo, S.hi)
    points = (range(max(lo, left_stop - _period(S.left)), left_stop),
              range(max(lo, S.lo), min(hi, S.hi)),
              range(right_start, min(hi, right_start + _period(S.right))))
    work = sum(map(len, points)) * (len(S.head) + 128)
    if work > MAX_RECOVERY_WORK:
        raise ValueError(f"window [{lo}, {hi}) needs {work} units of work, "
                         f"more than the limit {MAX_RECOVERY_WORK}")
    return all(orb.b_xo_contains(g) == zcontains(S, g) for g in chain(*points))


def verify_correspondence(S: ZSetDesc, A: Iterable[int]) -> CorrespondenceReport:
    """Check the four exact density relations between S and its orbit closure.

    With mu the first listed ergodic measure maximizing mu(B):
      d_upper(S) = mu(B)           and   d_upper(A + S) >= mu(A.B);
    and some listed nu satisfies
      d_lower(S) <= nu(B)          and   d_lower(A + S) >= nu(A.B).
    nu is the first such measure; when there is none, the last listed one is
    reported and both lower relations fail.
    """
    A = sorted({exact_int(a, "acting element") for a in collection(A, "acting set")})
    if not A:
        raise ValueError("acting set must be a non-empty finite set of integers")
    orb = orbit_closure(S)
    T = zsumset(finite(A), S)
    du_s, dl_s = banach_upper(S), banach_lower(S)
    du_t, dl_t = banach_upper(T), banach_lower(T)

    measures = [(o, o.b_measure, o.ab_measure(A)) for o in orb.orbits]
    mu, mu_b, mu_ab = max(measures, key=lambda m: m[1])
    nu = next((m for m in measures if dl_s <= m[1] and dl_t >= m[2]), None)
    # nu meets both lower relations, so they hold exactly when it exists.
    report_nu, nu_b, nu_ab = measures[-1] if nu is None else nu
    relations = (
        Relation("upper density of S equals mu(B)", "==", du_s, mu_b, du_s == mu_b),
        Relation("lower density of S below nu(B)", "<=", dl_s, nu_b, nu is not None),
        Relation("upper density of A+S dominates mu(A.B)", ">=", du_t, mu_ab, du_t >= mu_ab),
        Relation("lower density of A+S dominates nu(A.B)", ">=", dl_t, nu_ab, nu is not None),
    )

    return CorrespondenceReport(
        relations=relations,
        mu_side=mu.side,
        nu_side=report_nu.side if nu is not None else None,
        degenerate=orb.degenerate,
    )
