"""Inequality checks and the seeded verification campaign.

Every check compares exact rationals.  Fractional-power statements are
checked in cross-multiplied, root-free form (both sides raised to the k-th
power), so a check never touches floating point and "holds" means holds,
not holds-up-to-epsilon.

Statements quantified over every ergodic system are instantiated over a
generated family of finite systems (regular actions, quotient actions and
disjoint unions); a passing campaign certifies those instances, not the
universal quantifier.  Hypothesis failures are reported as vacuous rows,
never as passes, so campaign statistics keep pass, fail and vacuous apart.

The campaign generator is a SplitMix64 stream.  The per-instance sub-seed
is ``seed XOR fnv1a64(check_name) XOR counter * 0x9E3779B97F4A7C15`` (all
mod 2^64), so runs are reproducible bit for bit across platforms and the
instances of one check do not depend on which other checks are selected.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .groups import (
    FiniteSet,
    bit_indices,
    collection,
    exact_int,
    finite_set,
    frac_str,
    group_density,
    iterated_sumset,
    make_group,
    parse_fraction,
    sumset,
)
from .magnification import first_subset_within, mag_ratio, mag_ratio_delta, mag_ratio_oracle
from .systems import (
    ActionSystem,
    StateSubset,
    apply_set,
    cover_masks,
    disjoint_union,
    is_ergodic,
    is_ergodic_basis,
    is_ergodic_set,
    measure_of,
    orbits,
    quotient_system,
    regular_system,
    state_subset,
)
from .zline import (
    ZSetDesc,
    banach_lower,
    banach_upper,
    finite,
    periodic,
    zdesc,
    zsumset,
    zsumset_iterated,
)

__all__ = [
    "SplitMix64",
    "CheckResult",
    "LevelProfile",
    "CampaignConfig",
    "VerificationReport",
    "CHECKS",
    "CHECK_NAMES",
    "petridis_constants",
    "check_thm1",
    "check_thm2",
    "check_cor2_group",
    "check_cor1_cor3_zline",
    "check_prop12",
    "check_petridis_lemma",
    "check_petridis_growth",
    "check_prop13_increment",
    "check_prop2_minmax",
    "check_prop21",
    "check_prop22",
    "check_levelset",
    "check_transitive_point",
    "check_oracle_equivalence",
    "run_campaign",
]

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The fixed 64-bit generator behind every campaign; documented, portable."""

    def __init__(self, seed: int):
        self.state = exact_int(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so there is no modulo bias."""
        if type(n) is not int:  # a plain int is what exact_int returns unchanged
            n = exact_int(n, "bound")
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        limit = _TWO64 - _TWO64 % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq: Sequence):
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.below(len(seq))]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), sorted (partial Fisher-Yates in O(k) memory)."""
        if type(n) is not int:
            n = exact_int(n, "population size")
        if type(k) is not int:
            k = exact_int(k, "sample size")
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        moved: dict[int, int] = {}  # position -> the index a swap left there
        picked = []
        for i in range(k):
            j = i + self.below(n - i)
            picked.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(picked)

    def nonempty_subset(self, n: int, max_size: int) -> list[int]:
        """1 to min(n, max_size) distinct indices from range(n), sorted.  An
        empty population or a max_size below 1 is refused before any draw."""
        if type(n) is not int:
            n = exact_int(n, "population size")
        if type(max_size) is not int:
            max_size = exact_int(max_size, "max_size")
        if n < 1:
            raise ValueError(f"a non-empty subset needs a population of at least 1, got {n}")
        if max_size < 1:
            raise ValueError(f"a non-empty subset needs max_size >= 1, got {max_size}")
        return self.sample(n, 1 + self.below(min(max_size, n)))


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class CheckResult:
    check: str
    instance: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    vacuous: bool = False
    note: str = ""
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance,
            "check": self.check,
            "lhs": frac_str(self.lhs),
            "rhs": frac_str(self.rhs),
            "holds": self.holds,
            "vacuous": self.vacuous,
            "note": self.note,
            "witness": self.witness,
        }


def _vacuous(check: str, instance: str, note: str, **witness) -> CheckResult:
    return CheckResult(check, instance, Fraction(0), Fraction(0), True, True, note,
                       dict(witness))


def _need_k(k: int, least: int = 1) -> int:
    k = exact_int(k, "k")
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")
    return k


def _need_subset(Bp: StateSubset, B: StateSubset) -> None:
    if Bp.mask & ~B.mask:
        raise ValueError("B' must be contained in B")


def _measured(sys: ActionSystem, B: StateSubset, label: str = "B", *,
              ergodic: bool = False) -> tuple[Fraction, str]:
    """mu(B) and the vacuity note of the first standing hypothesis that fails
    (the system is ergodic, when asked; then mu(B) > 0), or "" if none does."""
    if ergodic and not is_ergodic(sys):
        return Fraction(0), "system is not ergodic"
    mb = measure_of(sys, B)
    return mb, "" if mb else f"{label} has measure zero"


def petridis_constants(a_size: int, k: int) -> list[int]:
    """D_0 = 0 and D_j = 2*D_{j-1} + |A|^j, returned as [D_0, ..., D_k]."""
    a_size = exact_int(a_size, "|A|")
    if a_size < 1:
        raise ValueError("need |A| >= 1")
    k = _need_k(k, 0)
    out = [0]
    for j in range(1, k + 1):
        out.append(2 * out[-1] + a_size**j)
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_thm1(sys: ActionSystem, A: FiniteSet, B: StateSubset, k: int,
               instance: str = "adhoc") -> CheckResult:
    """Check ``thm1`` of ``CHECKS``: vacuous unless ergodic, mu(B) > 0, kA an ergodic set."""
    name = "thm1"
    k = _need_k(k)
    mb, note = _measured(sys, B, ergodic=True)
    if note:
        return _vacuous(name, instance, note)
    if not is_ergodic_basis(sys, A, k):
        return _vacuous(name, instance, f"A is not an ergodic basis of order {k}")
    mab = measure_of(sys, apply_set(sys, A, B))
    lhs, rhs = mab**k, mb ** (k - 1)
    return CheckResult(name, instance, lhs, rhs, lhs >= rhs,
                       witness={"mu_AB": frac_str(mab), "mu_B": frac_str(mb), "k": k,
                                "ratio": frac_str(lhs / rhs)})


def check_thm2(sys: ActionSystem, A: FiniteSet, B: StateSubset, k: int,
               instance: str = "adhoc") -> CheckResult:
    """Check ``thm2`` of ``CHECKS`` (d: group density): vacuous unless ergodic, mu(B) > 0."""
    name = "thm2"
    k = _need_k(k)
    mb, note = _measured(sys, B, ergodic=True)
    if note:
        return _vacuous(name, instance, note)
    dk = group_density(iterated_sumset(A, k))
    mab = measure_of(sys, apply_set(sys, A, B))
    lhs, rhs = dk * mb ** (k - 1), mab**k
    return CheckResult(name, instance, lhs, rhs, lhs <= rhs,
                       witness={"density_kA": frac_str(dk), "mu_AB": frac_str(mab), "k": k})


def check_cor2_group(A: FiniteSet, B: FiniteSet, k: int,
                     instance: str = "adhoc") -> CheckResult:
    """Check ``cor2`` of ``CHECKS`` on two subsets of one finite group."""
    name = "cor2"
    k = _need_k(k)
    if A.group != B.group:
        raise ValueError("operands live in different groups")
    ab = sumset(A, B).size
    ka = iterated_sumset(A, k).size
    lhs, rhs = Fraction(ab**k), Fraction(ka * B.size ** (k - 1))
    return CheckResult(name, instance, lhs, rhs, lhs >= rhs,
                       witness={"size_AB": ab, "size_kA": ka, "size_B": B.size, "k": k})


def check_cor1_cor3_zline(A: ZSetDesc, B: ZSetDesc, k: int,
                          instance: str = "adhoc") -> CheckResult:
    """Banach-density forms on the integer line, root-free.

    Upper form: d*(A+B)^k >= d*(kA) * d*(B)^(k-1).
    Lower form: d_*(A+B)^k >= d*(kA) * d_*(B)^(k-1).
    Both are vacuous-holds when d*(kA) = 0 (finite A), and the result is
    flagged accordingly.
    """
    name = "cor13"
    k = _need_k(k)
    AB = zsumset(A, B)
    kA = zsumset_iterated(A, k)
    du_ab, dl_ab = banach_upper(AB), banach_lower(AB)
    du_b, dl_b = banach_upper(B), banach_lower(B)
    du_ka = banach_upper(kA)
    lhs, rhs = du_ab**k, du_ka * du_b ** (k - 1)
    lower_lhs, lower_rhs = dl_ab**k, du_ka * dl_b ** (k - 1)
    holds = lhs >= rhs and lower_lhs >= lower_rhs
    vacuous = du_ka == 0
    return CheckResult(
        name, instance, lhs, rhs, holds, vacuous,
        "d*(kA) = 0: both bounds are trivial" if vacuous else "",
        witness={"lower_lhs": frac_str(lower_lhs), "lower_rhs": frac_str(lower_rhs),
                 "d_upper_kA": frac_str(du_ka), "k": k})


def check_prop12(sys: ActionSystem, A: FiniteSet, B: StateSubset, k: int,
                 instance: str = "adhoc") -> CheckResult:
    """Check ``prop12`` of ``CHECKS``; no ergodicity assumption."""
    name = "prop12"
    k = _need_k(k)
    c1 = mag_ratio(sys, A, B).value
    ck = mag_ratio(sys, iterated_sumset(A, k), B).value
    lhs, rhs = c1**k, ck
    return CheckResult(name, instance, lhs, rhs, lhs >= rhs,
                       witness={"c_A_B": frac_str(c1), "c_Ak_B": frac_str(ck), "k": k})


def _petridis_premise(sys: ActionSystem, A: FiniteSet, B: StateSubset, Bp: StateSubset,
                      eps: Fraction) -> tuple[Fraction, Fraction, str, dict]:
    """mu(B'), c(A,B) and the note of the part of the Petridis premise that
    fails ("" if none): B' in B, mu(B') > 0, mu(AB') <= (1+eps) mu(B') c(A,B).
    When the last fails, the witness holds mu(AB') and that bound."""
    _need_subset(Bp, B)
    mbp, note = _measured(sys, Bp, "B'")
    if note:
        return mbp, Fraction(0), note, {}
    c = mag_ratio(sys, A, B).value
    mabp = measure_of(sys, apply_set(sys, A, Bp))
    bound = (1 + eps) * mbp * c
    if mabp > bound:
        return mbp, c, "premise violated", {"mu_ABp": frac_str(mabp), "bound": frac_str(bound)}
    return mbp, c, "", {}


def check_petridis_lemma(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                         Bp: StateSubset, F: FiniteSet, eps: Fraction,
                         instance: str = "adhoc") -> CheckResult:
    """Check ``petridis`` of ``CHECKS`` for eps >= 0 and B' in B; vacuous when
    mu(B') = 0 or the premise on mu(AB') fails."""
    name = "petridis"
    eps = parse_fraction(eps)
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    mbp, c, note, premise = _petridis_premise(sys, A, B, Bp, eps)
    if note:
        return _vacuous(name, instance, note, **premise)
    lhs = measure_of(sys, apply_set(sys, sumset(F, A), Bp))
    rhs = ((1 + eps) * measure_of(sys, apply_set(sys, F, Bp))
           + eps * F.size * mbp) * c
    return CheckResult(name, instance, lhs, rhs, lhs <= rhs,
                       witness={"c_A_B": frac_str(c), "eps": frac_str(eps),
                                "size_F": F.size})


def check_petridis_growth(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                          Bp: StateSubset, eps: Fraction, k: int,
                          instance: str = "adhoc") -> CheckResult:
    """Check ``petridis2`` of ``CHECKS``, the iterated form of
    ``check_petridis_lemma`` under its premise, for 0 < eps < 1 and k >= 0."""
    name = "petridis2"
    eps = parse_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    k = _need_k(k, 0)
    mbp, c, note, _ = _petridis_premise(sys, A, B, Bp, eps)
    if note:
        return _vacuous(name, instance, note)
    dk = petridis_constants(A.size, k)[k]
    lhs = measure_of(sys, apply_set(sys, iterated_sumset(A, k + 1), Bp)) / mbp
    rhs = (1 + eps) ** (k + 1) * c ** (k + 1) + eps * dk * c**k
    return CheckResult(name, instance, lhs, rhs, lhs <= rhs,
                       witness={"c_A_B": frac_str(c), "D_k": dk, "k": k,
                                "eps": frac_str(eps)})


def check_prop13_increment(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                           Bp: StateSubset, delta: Fraction, k: int,
                           instance: str = "adhoc") -> CheckResult:
    """The increment dichotomy: a subset satisfying
    mu(A^k B')/mu(B') <= (1-delta)^(-k) (mu(AB)/mu(B))^k either already has
    mu(B') >= delta mu(B) or extends to a strictly larger B'' in B that
    still satisfies the same bound."""
    name = "prop13"
    delta = parse_fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
    k = _need_k(k)
    _need_subset(Bp, B)
    cand = list(bit_indices(B.mask & sys.support_mask))
    if len(cand) > 20:
        raise ValueError(f"superset search guard exceeded: |B ∩ supp| = {len(cand)} > 20")
    mb = measure_of(sys, B)
    mbp = measure_of(sys, Bp)
    if mb == 0 or mbp == 0:
        return _vacuous(name, instance, "B or B' has measure zero")
    mab = measure_of(sys, apply_set(sys, A, B))
    bound = (1 / (1 - delta)) ** k * (mab / mb) ** k
    Ak = iterated_sumset(A, k)
    AkBp = apply_set(sys, Ak, Bp)
    if measure_of(sys, AkBp) / mbp > bound:
        return _vacuous(name, instance, "premise violated: B' does not satisfy the bound")
    if mbp >= delta * mb:
        return CheckResult(name, instance, mbp, delta * mb, True,
                           note="first branch: B' already reaches delta * mu(B)",
                           witness={"branch": "mass"})
    # The first qualifying B' + extras in ascending order of the extras' bitmask.
    extras = [x for x in cand if not (Bp.mask >> x) & 1]
    covers = cover_masks(sys, Ak, state_subset(sys, extras))
    w = sys.int_weights
    pick = first_subset_within(sys, list(covers.values()), [w[x] for x in extras], bound,
                               AkBp.mask, sys.mass(Bp.mask))
    if pick is not None:
        mask = Bp.mask
        for i in bit_indices(pick):
            mask |= 1 << extras[i]
        return CheckResult(name, instance, mbp, delta * mb, True,
                           note="second branch: strict superset found",
                           witness={"branch": "superset",
                                    "superset": StateSubset(sys, mask).to_json()})
    return CheckResult(name, instance, mbp, delta * mb, False,
                       note="no qualifying superset exists",
                       witness={"branch": "none", "bound": frac_str(bound)})


def check_prop2_minmax(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                       delta: Fraction, instance: str = "adhoc") -> CheckResult:
    """Check ``prop2`` of ``CHECKS``: vacuous unless ergodic, A an ergodic set, mu(B) > 0."""
    name = "prop2"
    delta = parse_fraction(delta)
    # Ergodic sets are defined over ergodic systems only.
    if not is_ergodic(sys):
        return _vacuous(name, instance, "system is not ergodic")
    if not is_ergodic_set(sys, A):
        return _vacuous(name, instance, "A is not an ergodic set")
    mb, note = _measured(sys, B)
    if note:
        return _vacuous(name, instance, note)
    value = mag_ratio_delta(sys, A, B, delta).value
    lhs, rhs = value, 1 / mb
    return CheckResult(name, instance, lhs, rhs, lhs == rhs,
                       witness={"delta": frac_str(delta), "mu_B": frac_str(mb)})


def check_prop21(sys: ActionSystem, A: FiniteSet, B: StateSubset, k: int,
                 instance: str = "adhoc") -> CheckResult:
    """Check ``prop21`` of ``CHECKS``; no ergodicity assumption, vacuous if mu(B) = 0."""
    name = "prop21"
    k = _need_k(k)
    mb, note = _measured(sys, B)
    if note:
        return _vacuous(name, instance, note)
    ck = mag_ratio(sys, iterated_sumset(A, k), B).value
    mab = measure_of(sys, apply_set(sys, A, B))
    lhs, rhs = ck * mb**k, mab**k
    return CheckResult(name, instance, lhs, rhs, lhs <= rhs,
                       witness={"c_Ak_B": frac_str(ck), "mu_AB": frac_str(mab), "k": k})


def check_prop22(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                 instance: str = "adhoc") -> CheckResult:
    """Check ``prop22`` of ``CHECKS`` (d: group density): vacuous unless ergodic, mu(B) > 0."""
    name = "prop22"
    mb, note = _measured(sys, B, ergodic=True)
    if note:
        return _vacuous(name, instance, note)
    d = group_density(A)
    mab = measure_of(sys, apply_set(sys, A, B))
    c = mag_ratio(sys, A, B).value
    holds = d <= mab and d <= c * mb
    return CheckResult(name, instance, d, mab, holds,
                       witness={"c_mu_B": frac_str(c * mb), "c_A_B": frac_str(c)})


@dataclass(frozen=True)
class LevelProfile:
    """A [0,1]-valued function as a positive combination of indicator sets."""

    system: ActionSystem
    sets: tuple[StateSubset, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        sets = tuple(collection(self.sets, "profile sets"))
        coeffs = tuple(parse_fraction(c)
                       for c in collection(self.coefficients, "profile coefficients"))
        if not sets:
            raise ValueError("profile needs at least one indicator set")
        if len(sets) != len(coeffs):
            raise ValueError("one coefficient per indicator set required")
        if any(not isinstance(s, StateSubset)
               or s.system is not self.system and s.system != self.system for s in sets):
            raise ValueError("profile sets must be state subsets of the profile's system")
        if any(c <= 0 for c in coeffs):
            raise ValueError("profile coefficients must be positive")
        if sum(coeffs) > 1:
            raise ValueError("profile coefficients must sum to at most 1")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def equal_weights(cls, system: ActionSystem, sets: Sequence[StateSubset]) -> "LevelProfile":
        sets = tuple(collection(sets, "profile sets"))
        m = len(sets)
        return cls(system, sets, tuple(Fraction(1, m) for _ in range(m)))

    def values(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.system.states
        for coeff, subset in zip(self.coefficients, self.sets):
            for x in subset.indices():
                out[x] += coeff
        return tuple(out)


def check_levelset(profile: LevelProfile, A: FiniteSet,
                   epsilons: Sequence[Fraction] = (Fraction(1, 10), Fraction(1, 100)),
                   instance: str = "adhoc") -> CheckResult:
    """Exact layer-cake identity plus the level-set machinery around it.

    Checks, all in exact arithmetic: (i) integral of f equals the integral
    of t -> mu({f >= t}) over [0,1]; (ii) A.{f >= t} is contained in
    {g >= t} at every threshold, where g averages the indicators of the
    translated sets; (iii) for phi(t) = mu(A E_t)/mu(E_t) and the threshold
    measure with density proportional to mu(E_t), the event
    {phi < mean(phi) + eps} has positive mass for each requested eps.

    Everything is an integer in units of 1/(L*D), where L is the lcm of the
    coefficient denominators and D is the system's: f and g are kept as L*f
    and L*g, masses in units of 1/D.  Thresholds, both integrals and the
    test ae < (mean + eps) * e are integer comparisons (the last one
    cross-multiplied), and only lhs and rhs become Fractions.  Inclusion at
    every threshold is checked pointwise, as g(a.x) >= f(x) for each x with
    f(x) > 0 and each a in A: the two statements are equivalent.
    """
    name = "levelset"
    sys = profile.system
    coeffs = profile.coefficients
    L = math.lcm(*(c.denominator for c in coeffs))
    support = 0
    for subset in profile.sets:
        support |= subset.mask
    covers = cover_masks(sys, A, StateSubset(sys, support))
    f, g = [0] * sys.states, [0] * sys.states
    for c, subset in zip(coeffs, profile.sets):
        unit = c.numerator * (L // c.denominator)
        image = 0
        for x in bit_indices(subset.mask):
            f[x] += unit
            image |= covers[x]
        for y in bit_indices(image):
            g[y] += unit

    # The level set {f >= t} for each value t of f, grown from the top value down.
    at_value: dict[int, int] = {}
    for x in bit_indices(support):
        at_value[f[x]] = at_value.get(f[x], 0) | 1 << x
    thresholds = sorted(at_value)
    levels: list[tuple[int, int]] = []
    e_mask = ae_mask = 0
    for t in reversed(thresholds):
        e_mask |= at_value[t]
        for x in bit_indices(at_value[t]):
            ae_mask |= covers[x]
        levels.append((sys.mass(e_mask), sys.mass(ae_mask)))
    levels.reverse()
    integral_e = integral_ae = prev = 0
    for t, (e, ae) in zip(thresholds, levels):
        integral_e += (t - prev) * e
        integral_ae += (t - prev) * ae
        prev = t
    if integral_e == 0:
        return _vacuous(name, instance, "profile mass is zero on the support")
    total = sum(fx * wx for fx, wx in zip(f, sys.int_weights))
    identity = total == integral_e
    inclusion = all(g[y] >= f[x] for x in bit_indices(support)
                    for y in bit_indices(covers[x]))
    # ae < (mean + eps) * e with mean = integral_ae / integral_e and eps = p/q.
    cheb = {}
    for eps in map(parse_fraction, collection(epsilons, "epsilons")):
        p, q = eps.numerator, eps.denominator
        cheb[frac_str(eps)] = any(0 < e and ae * integral_e * q
                                  < (integral_ae * q + p * integral_e) * e
                                  for e, ae in levels)
    holds = identity and inclusion and all(cheb.values())
    scale = L * sys.denominator
    return CheckResult(name, instance, Fraction(total, scale), Fraction(integral_e, scale), holds,
                       witness={"identity": identity, "inclusion": inclusion,
                                "cheb": cheb, "thresholds": len(thresholds)})


def check_transitive_point(sys_y: ActionSystem, A_clopen: StateSubset,
                           sys_x: ActionSystem, B: StateSubset,
                           instance: str = "adhoc") -> CheckResult:
    """On a finite transitive system every point is transitive, so the
    pullback quantity mu((A_y)^{-1} B) must be constant in y.

    With A_y = {g : g.y in A}, g.y lies in A exactly when y lies in (-g).A, so
    (A_y)^{-1} = {h : y in h.A}.  The inverses of every A_y are therefore read
    off the |G| images h.A, one ``apply_set`` each."""
    name = "transitive"
    if sys_y.group != sys_x.group:
        raise ValueError("the two systems must share the acting group")
    if A_clopen.mask == 0 or B.mask == 0:
        raise ValueError("A and B must be non-empty")
    if len(orbits(sys_y)) != 1:
        return _vacuous(name, instance, "no transitive point: state space splits")
    group = sys_y.group
    inverses = [0] * sys_y.states  # bit h of inverses[y] is set iff y in h.A
    for h in range(group.cardinality):
        for y in bit_indices(apply_set(sys_y, FiniteSet(group, 1 << h), A_clopen).mask):
            inverses[y] |= 1 << h
    values = [measure_of(sys_x, apply_set(sys_x, FiniteSet(group, inv), B))
              for inv in inverses]
    lhs, rhs = max(values), min(values)
    return CheckResult(name, instance, lhs, rhs, lhs == rhs,
                       witness={"values": sorted({frac_str(v) for v in values}),
                                "points": sys_y.states})


def check_oracle_equivalence(sys: ActionSystem, A: FiniteSet, B: StateSubset,
                             instance: str = "adhoc") -> CheckResult:
    """The flow route and the enumeration oracle must agree exactly."""
    name = "oracle"
    flow = mag_ratio(sys, A, B)
    brute = mag_ratio_oracle(sys, A, B)
    return CheckResult(name, instance, flow.value, brute.value,
                       flow.value == brute.value,
                       witness={"flow_witness": flow.witness.to_json(),
                                "oracle_witness": brute.witness.to_json(),
                                "cuts": flow.iterations})


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

# The k, delta and eps values the drivers draw from; a report's config echoes them.
K_VALUES = (1, 2, 3, 4)
DELTAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EPSILONS = (Fraction(1, 100), Fraction(1, 10))


@lru_cache(maxsize=256)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _random_group(rng: SplitMix64, max_order: int):
    n = 2 + rng.below(max_order - 1)
    if rng.below(4) == 0:
        splits = [d for d in _divisors(n) if 1 < d < n]
        if splits:
            d = rng.choice(splits)
            return make_group([d, n // d])
    return make_group([n])


def _random_quotient(rng: SplitMix64, group) -> ActionSystem:
    target = [rng.choice(_divisors(n)) for n in group.orders]
    if all(t == 1 for t in target):
        target[0] = group.orders[0]
    return quotient_system(group, target)


def _random_system(rng: SplitMix64, max_order: int, *, need_ergodic: bool,
                   max_states: int | None = None) -> ActionSystem:
    for _ in range(12):
        group = _random_group(rng, max_order)
        style = rng.below(3 if need_ergodic else 4)
        if style == 0:
            sys = regular_system(group)
        elif style in (1, 2):
            sys = _random_quotient(rng, group)
        else:
            a = _random_quotient(rng, group)
            b = _random_quotient(rng, group)
            weight = rng.choice([Fraction(1, 2), Fraction(1, 3)])
            sys = disjoint_union(a, b, weight)
        if max_states is None or sys.states <= max_states:
            return sys
    return regular_system(make_group([2]))


def _random_fset(rng: SplitMix64, group, max_size: int) -> FiniteSet:
    return finite_set(group, rng.nonempty_subset(group.cardinality, max_size))


def _random_sset(rng: SplitMix64, sys: ActionSystem, max_size: int) -> StateSubset:
    return state_subset(sys, rng.nonempty_subset(sys.states, max_size))


def _draw(rng: SplitMix64, cfg: CampaignConfig, a_size: int, b_size: int | None = None, *,
          need_ergodic: bool = False) -> tuple[ActionSystem, FiniteSet, StateSubset]:
    """A system, A of at most a_size elements and B of at most b_size states
    (cfg.max_set by default), drawn in that order."""
    sys = _random_system(rng, cfg.max_order, need_ergodic=need_ergodic)
    A = _random_fset(rng, sys.group, a_size)
    B = _random_sset(rng, sys, min(cfg.max_set if b_size is None else b_size, sys.states))
    return sys, A, B


def _draw_b_prime(rng: SplitMix64, sys: ActionSystem, A: FiniteSet, B: StateSubset,
                  share: int, of: int, k: int | None = None) -> StateSubset:
    """B' in B: in ``share`` of ``of`` draws the witness of c(A, B), or of
    c(A^k, B) when k is given; otherwise a random non-empty subset of B."""
    if rng.below(of) < share:
        return mag_ratio(sys, A if k is None else iterated_sumset(A, k), B).witness
    pool = B.indices()
    return state_subset(sys, [pool[i] for i in rng.nonempty_subset(len(pool), len(pool))])


def _random_zdesc(rng: SplitMix64, max_period: int) -> ZSetDesc:
    def tail():
        if rng.below(4) == 0:
            return None
        p = 1 + rng.below(max_period)
        size = rng.below(p + 1)
        if size == 0:
            return None
        return (p, rng.sample(p, size))

    head = []
    if rng.below(2):
        width = 1 + rng.below(6)
        base = rng.below(9) - 4
        head = [base + i for i in rng.sample(width, rng.below(min(width, 4) + 1))]
    left, right = tail(), tail()
    if not head and left is None and right is None:
        head = [0]
    lo = min(head) if head else 0
    hi = max(head) + 1 if head else 0
    return zdesc(head, lo, hi, left, right)


def _drive_thm1(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    n = 2 + rng.below(cfg.max_order - 1)
    m = rng.choice(_divisors(n))
    group = make_group([n])
    sys = quotient_system(group, [m])
    k = rng.choice(K_VALUES)
    A = _random_fset(rng, group, min(n, 6))
    for _ in range(60):
        if is_ergodic_basis(sys, A, k):
            break
        A = _random_fset(rng, group, min(n, 6))
    B = _random_sset(rng, sys, min(cfg.max_set, sys.states))
    return check_thm1(sys, A, B, k, instance)


def _drive_thm2(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 6, need_ergodic=True)
    k = rng.choice(K_VALUES)
    return check_thm2(sys, A, B, k, instance)


def _drive_cor2(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    n = 2 + rng.below(cfg.max_order - 1)
    group = make_group([n])
    A = _random_fset(rng, group, n)
    B = _random_fset(rng, group, n)
    k = 1 + rng.below(5)
    return check_cor2_group(A, B, k, instance)


def _drive_cor13(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    B = _random_zdesc(rng, 12)
    if rng.below(2):
        size = 1 + rng.below(4)
        members = sorted({rng.below(11) - 5 for _ in range(size)})
        A = finite(members)
    else:
        p = 1 + rng.below(6)
        A = periodic(p, rng.sample(p, 1 + rng.below(p)))
    k = rng.choice(K_VALUES)
    return check_cor1_cor3_zline(A, B, k, instance)


def _drive_prop12(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 6)
    k = rng.choice(K_VALUES)
    return check_prop12(sys, A, B, k, instance)


def _drive_petridis(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 5, 8)
    eps = rng.choice([Fraction(0)] + list(EPSILONS) + [Fraction(1, 2), Fraction(1)])
    Bp = _draw_b_prime(rng, sys, A, B, 3, 5)
    F = _random_fset(rng, sys.group, 4)
    return check_petridis_lemma(sys, A, B, Bp, F, eps, instance)


def _drive_petridis2(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 4, 8)
    eps = rng.choice([Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    Bp = _draw_b_prime(rng, sys, A, B, 3, 5)
    k = rng.below(4)
    return check_petridis_growth(sys, A, B, Bp, eps, k, instance)


def _drive_prop13(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 4, 10)
    k = rng.choice([1, 2])
    delta = rng.choice(DELTAS)
    Bp = _draw_b_prime(rng, sys, A, B, 7, 10, k)
    return check_prop13_increment(sys, A, B, Bp, delta, k, instance)


def _drive_prop2(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    n = 2 + rng.below(cfg.max_order - 1)
    small = [m for m in _divisors(n) if m <= 12]
    m = rng.choice(small)
    group = make_group([n])
    sys = quotient_system(group, [m])
    members = {r + m * rng.below(n // m) for r in range(m)}
    for _ in range(rng.below(3)):
        members.add(rng.below(n))
    A = finite_set(group, members)
    B = _random_sset(rng, sys, min(cfg.max_set, sys.states))
    delta = rng.choice(DELTAS)
    return check_prop2_minmax(sys, A, B, delta, instance)


def _drive_prop21(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 6)
    k = rng.choice(K_VALUES)
    return check_prop21(sys, A, B, k, instance)


def _drive_prop22(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys, A, B = _draw(rng, cfg, 6, need_ergodic=True)
    return check_prop22(sys, A, B, instance)


def _drive_levelset(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys = _random_system(rng, min(cfg.max_order, 64), need_ergodic=False, max_states=64)
    m = 1 + rng.below(8)
    sets = tuple(_random_sset(rng, sys, sys.states) for _ in range(m))
    if rng.below(4):
        profile = LevelProfile.equal_weights(sys, sets)
    else:
        raw = [1 + rng.below(4) for _ in range(m)]
        total = sum(raw)
        profile = LevelProfile(sys, sets, tuple(Fraction(r, total) for r in raw))
    A = _random_fset(rng, sys.group, 5)
    return check_levelset(profile, A, EPSILONS, instance)


def _drive_transitive(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    group = _random_group(rng, cfg.max_order)
    sys_y = regular_system(group) if rng.below(2) else _random_quotient(rng, group)
    A = _random_sset(rng, sys_y, sys_y.states)
    style = rng.below(3)
    if style == 0:
        sys_x = regular_system(group)
    elif style == 1:
        sys_x = _random_quotient(rng, group)
    else:
        sys_x = disjoint_union(_random_quotient(rng, group),
                               _random_quotient(rng, group))
    B = _random_sset(rng, sys_x, min(cfg.max_set, sys_x.states))
    return check_transitive_point(sys_y, A, sys_x, B, instance)


def _drive_oracle(rng: SplitMix64, cfg: CampaignConfig, instance: str) -> CheckResult:
    sys = _random_system(rng, min(cfg.max_order, 12), need_ergodic=False, max_states=24)
    A = _random_fset(rng, sys.group, 6)
    B = _random_sset(rng, sys, min(cfg.max_set, 12))
    return check_oracle_equivalence(sys, A, B, instance)


@dataclass(frozen=True)
class Check:
    """A check's report name, the statement ``verify --help`` prints, and the
    ``_drive_*`` function that draws one campaign instance.  A driver calls its
    ``check_*``, and the samplers ``mag_ratio`` and the system builders, by
    module-global name, so rebinding a name reaches the campaign."""

    name: str
    statement: str
    driver: Callable[[SplitMix64, CampaignConfig, str], CheckResult]


# The campaign runs, and the help lists, the checks in this order.
CHECKS = (
    Check("thm1", "mu(AB)^k >= mu(B)^(k-1) when A is an ergodic basis of order k",
          _drive_thm1),
    Check("thm2", "d(kA) * mu(B)^(k-1) <= mu(AB)^k on ergodic systems", _drive_thm2),
    Check("cor2", "|A+B|^k >= |kA| * |B|^(k-1) in a finite abelian group", _drive_cor2),
    Check("cor13", "d*(A+B)^k >= d*(kA) * d*(B)^(k-1), and the d_* variant, for "
                   "eventually periodic subsets of the integers", _drive_cor13),
    Check("prop12", "c(A,B)^k >= c(A^k,B)", _drive_prop12),
    Check("petridis", "mu(FAB') <= ((1+eps) mu(FB') + eps |F| mu(B')) c(A,B) whenever "
                      "mu(AB') <= (1+eps) mu(B') c(A,B)", _drive_petridis),
    Check("petridis2", "mu(A^(k+1)B')/mu(B') <= (1+eps)^(k+1) c^(k+1) + eps D_k c^k "
                       "with D_0 = 0, D_k = 2 D_(k-1) + |A|^k", _drive_petridis2),
    Check("prop13", "a set below the delta-mass threshold extends to a strictly larger "
                    "subset still satisfying the k-fold growth bound", _drive_prop13),
    Check("prop2", "c_delta(A,B) = 1/mu(B) when A is an ergodic set", _drive_prop2),
    Check("prop21", "c(A^k,B) * mu(B)^k <= mu(AB)^k", _drive_prop21),
    Check("prop22", "d(A) <= mu(AB) and d(A) <= c(A,B) mu(B)", _drive_prop22),
    Check("levelset", "exact layer-cake identity, level-set inclusion, and the "
                      "positive-mass Chebyshev bound", _drive_levelset),
    Check("transitive", "mu((A_y)^{-1} B) is the same for every point y of a finite "
                        "transitive system", _drive_transitive),
    Check("oracle", "flow-based magnification ratio == exhaustive enumeration",
          _drive_oracle),
)
CHECK_NAMES = tuple(check.name for check in CHECKS)


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 1
    instances: int = 100
    checks: tuple[str, ...] = CHECK_NAMES
    max_order: int = 16
    max_set: int = 12

    def __post_init__(self) -> None:
        checks = tuple(collection(self.checks, "checks"))
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(map(str, unknown))}")
        if not checks:
            raise ValueError("no checks selected")
        repeated = sorted({c for c in checks if checks.count(c) > 1})
        if repeated:
            raise ValueError(f"checks selected more than once: {', '.join(repeated)}")
        for key in ("seed", "instances", "max_order", "max_set"):
            object.__setattr__(self, key, exact_int(getattr(self, key), key))
        if self.instances < 0:
            raise ValueError("instance count must be >= 0")
        if self.max_order < 2:
            raise ValueError("max_order must be >= 2")
        if self.max_set < 1:
            raise ValueError("max_set must be >= 1")
        object.__setattr__(self, "checks", checks)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "checks": list(self.checks),
            "max_order": self.max_order,
            "max_set": self.max_set,
            "k_values": list(K_VALUES),
            "deltas": [frac_str(d) for d in DELTAS],
            "epsilons": [frac_str(e) for e in EPSILONS],
        }


@dataclass(frozen=True)
class VerificationReport:
    config: CampaignConfig
    rows: tuple[CheckResult, ...]

    @property
    def violations(self) -> list[CheckResult]:
        return [r for r in self.rows if not r.vacuous and not r.holds]

    @property
    def all_hold(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        checks: dict[str, dict[str, int]] = {}
        for row in self.rows:
            slot = checks.setdefault(row.check, {"held": 0, "violated": 0, "vacuous": 0})
            if row.vacuous:
                slot["vacuous"] += 1
            elif row.holds:
                slot["held"] += 1
            else:
                slot["violated"] += 1
        out: dict = {
            "checks": checks,
            "violations": [r.instance for r in self.violations],
        }
        tight: tuple[Fraction, str] | None = None
        equality: str | None = None
        for row in self.rows:
            if row.check != "thm1" or row.vacuous or row.rhs == 0:
                continue
            ratio = row.lhs / row.rhs
            if tight is None or ratio < tight[0]:
                tight = (ratio, row.instance)
            if ratio == 1 and equality is None:
                equality = row.instance
        if tight is not None:
            out["thm1_tightness"] = {
                "min_ratio": frac_str(tight[0]),
                "instance": tight[1],
                "equality_instance": equality,
            }
        return out

    def to_json(self, *, _summary: dict | None = None) -> str:
        """One line of JSON; pass ``_summary`` when ``summary()`` is already worked out."""
        payload = {
            "config": self.config.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "summary": self.summary() if _summary is None else _summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance_id", "check", "lhs", "rhs", "holds", "vacuous", "witness"])
        for r in self.rows:
            writer.writerow([
                r.instance, r.check, frac_str(r.lhs), frac_str(r.rhs),
                "true" if r.holds else "false",
                "true" if r.vacuous else "false",
                json.dumps(r.witness, sort_keys=True, separators=(",", ":")),
            ])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format: {fmt}")


def run_campaign(cfg: CampaignConfig) -> VerificationReport:
    """Run cfg.instances seeded instances of every selected check.

    Fully deterministic: the per-instance generator is seeded with
    seed XOR fnv1a64(check) XOR i * 0x9E3779B97F4A7C15, so reports are
    byte-identical across runs, platforms and check selections.
    """
    drivers = {check.name: check.driver for check in CHECKS}
    rows: list[CheckResult] = []
    for check in cfg.checks:
        driver = drivers[check]
        base = cfg.seed ^ _fnv1a64(check)
        for i in range(cfg.instances):
            sub = (base ^ (i * _GOLDEN)) & _MASK64
            rows.append(driver(SplitMix64(sub), cfg, f"{check}-{i:06d}"))
    return VerificationReport(cfg, tuple(rows))
