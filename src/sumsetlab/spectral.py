"""Characters, transforms and equidistribution defects.

The only module that touches floating point, and so the one place where an
exact number becomes a float.  Transform weights are numbers a complex
holds.  A Weyl frequency is a float as given, or an exact rational that is
tested in (0, 1) and then rounded once; a Weyl member is an integer below
2**53, where every integer is a float.  Transform cross-checks in the test
suite use an absolute tolerance of 1e-9; defect assertions that are exact
in theory use 1e-12.

Characters of a product of cyclic groups are indexed by the same mixed
radix as the elements: chi(g) = exp(2*pi*i * sum_j chi_j g_j / n_j).  The
transform F(chi) = sum_g w(g) * conj(chi(g)) factors over the cyclic
factors, which is exactly a multidimensional FFT over the digit axes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Number
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteSet, GroupSpec, collection, exact_int, parse_fraction

__all__ = [
    "char_value",
    "group_dft",
    "group_dft_naive",
    "EquidistReport",
    "equidist_defect",
    "weyl_defect_window",
    "floor_three_halves",
    "MAX_THREE_HALVES_LIMIT",
]


def char_value(group: GroupSpec, chi: int, g: int) -> complex:
    """Value of the character with index chi at the element g (unit modulus)."""
    phase = 0.0
    for c, d, n in zip(group.digits(chi), group.digits(g), group.orders):
        phase += c * d / n
    return cmath.exp(2j * cmath.pi * phase)


def _weight(w) -> complex:
    if isinstance(w, Number) and not isinstance(w, bool):
        try:
            return complex(w)
        except OverflowError:
            pass
    raise ValueError(f"weights must be numbers a complex holds, got {w!r}")


def _as_vector(group: GroupSpec, weights: Sequence[float]) -> np.ndarray:
    """The weights as a complex vector: a numeric numpy array in one
    conversion, anything else entry by entry, refusing bools, strings, None
    and numbers too large for a float."""
    if isinstance(weights, np.ndarray) and weights.dtype.kind in "iufc":
        vec = np.asarray(weights, dtype=complex)
    else:
        vec = np.array([_weight(w) for w in collection(weights, "weights")], dtype=complex)
    if vec.shape != (group.cardinality,):
        raise ValueError(
            f"weight vector has shape {vec.shape}, expected ({group.cardinality},)"
        )
    return vec


def group_dft(group: GroupSpec, weights: Sequence[float]) -> np.ndarray:
    """F(chi) = sum_g w(g) * conj(chi(g)) for every character index chi.

    Computed factor by factor: the vector is reshaped onto the digit axes
    (first factor least significant, hence last axis) and transformed along
    each axis, so power-of-two factors get the fast path automatically.
    """
    vec = _as_vector(group, weights)
    shape = tuple(reversed(group.orders))
    return np.fft.fftn(vec.reshape(shape)).ravel()


def group_dft_naive(group: GroupSpec, weights: Sequence[float]) -> np.ndarray:
    """Direct double-sum evaluation of the same transform; the slow oracle."""
    vec = _as_vector(group, weights)
    n = group.cardinality
    idx = np.arange(n)
    phase = np.zeros((n, n))
    for stride, order in zip(group.strides, group.orders):
        dig = (idx // stride) % order
        phase += np.outer(dig, dig) / order
    matrix = np.exp(-2j * np.pi * phase)
    return matrix @ vec


@dataclass(frozen=True)
class EquidistReport:
    defect: float
    worst_character: int
    set_size: int
    magnitudes: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "defect": self.defect,
            "worst_character": self.worst_character,
            "set_size": self.set_size,
            "dtype": "float64",
        }
        if self.magnitudes is not None:
            out["magnitudes"] = list(self.magnitudes)
        return out


def equidist_defect(A: FiniteSet, include_magnitudes: bool = False) -> EquidistReport:
    """Largest normalized non-trivial character sum over A.

    Zero exactly when A is the whole group; equal to 1 when A is a coset of
    a proper subgroup (some character is constant on A).
    """
    if A.mask == 0:
        raise ValueError("defect of the empty set is undefined")
    group = A.group
    n = group.cardinality
    indicator = np.unpackbits(np.frombuffer(A.mask.to_bytes((n + 7) // 8, "little"), np.uint8),
                              count=n, bitorder="little")
    transform = group_dft(group, indicator)
    mags = np.abs(transform) / A.size
    # The trivial group has no non-trivial character; its defect is 0.
    worst = 1 + int(np.argmax(mags[1:])) if group.cardinality > 1 else 0
    return EquidistReport(
        float(mags[worst]) if worst else 0.0,
        worst,
        A.size,
        tuple(float(m) for m in mags) if include_magnitudes else None,
    )


# Below 2**53 every integer is a float; past it a member would be rounded.
_FLOAT_EXACT = 2**53


def _frequency(f) -> float:
    """A float as a Python float; any other number is read by
    ``parse_fraction``, tested in (0, 1) exactly and rounded once.  Either
    way the float must lie in (0, 1), which nan does not."""
    if isinstance(f, (float, np.floating)):
        value = float(f)
        if not 0 < value < 1:
            raise ValueError(f"frequency {f!r} does not lie strictly between 0 and 1 as a float")
        return value
    exact = parse_fraction(f)
    if not 0 < exact < 1:
        raise ValueError(f"frequency {exact} does not lie strictly between 0 and 1")
    value = float(exact)
    if not 0 < value < 1:
        raise ValueError(f"frequency {exact} rounds to {value} as a float")
    return value


def weyl_defect_window(A: Iterable[int], window: int, frequencies: Iterable) -> float:
    """max over the frequency grid of |sum_{a in A} e^{2 pi i a alpha}| / |A|.

    A must be a non-empty subset of [0, window), each member below 2**53 so
    that its float is exact.  Each frequency is a float, or an exact rational
    (a Fraction, an integer or a "p/q" or decimal string) that is tested in
    (0, 1) and then rounded to the nearest float.  An empirical measurement:
    the grid stands in for the full circle, so the value is a float, not a
    certificate.
    """
    window = exact_int(window, "window")
    members = sorted({exact_int(a, "window member") for a in collection(A, "window set")})
    if not members:
        raise ValueError("Weyl defect of the empty set is undefined")
    if members[0] < 0 or members[-1] >= window:
        raise ValueError(f"set members must lie in [0, {window})")
    if members[-1] >= _FLOAT_EXACT:
        raise ValueError("set members must be below 2**53, where a float holds every integer")
    freqs = [_frequency(f) for f in collection(frequencies, "frequencies")]
    if not freqs:
        raise ValueError("frequency grid must be non-empty")
    members = np.asarray(members, dtype=float)  # rebound, so the list is freed
    # One frequency row at a time, so memory stays at one row of the members.
    sums = [np.exp(2j * np.pi * (f * members)).sum() for f in freqs]
    return float(np.abs(sums).max() / members.size)


# The set below limit has about limit^(2/3) members, one Python step each.
MAX_THREE_HALVES_LIMIT = 10**9


def floor_three_halves(limit: int) -> list[int]:
    """The set {floor(n^(3/2)) : n >= 1} ∩ [0, limit), computed exactly.

    Ascending with no sort, since (n+1)^(3/2) - n^(3/2) >= 1.5 for n >= 1.
    """
    limit = exact_int(limit, "limit")
    if limit > MAX_THREE_HALVES_LIMIT:
        raise ValueError(f"limit {limit} exceeds {MAX_THREE_HALVES_LIMIT}")
    out = []
    n = 1
    while True:
        v = math.isqrt(n * n * n)
        if v >= limit:
            return out
        out.append(v)
        n += 1
