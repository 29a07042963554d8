"""Characters, transforms and equidistribution defects.

The only module that touches floating point.  Transform cross-checks in the
test suite use an absolute tolerance of 1e-9; defect assertions that are
exact in theory use 1e-12.

Characters of a product of cyclic groups are indexed by the same mixed
radix as the elements: chi(g) = exp(2*pi*i * sum_j chi_j g_j / n_j).  The
transform F(chi) = sum_g w(g) * conj(chi(g)) factors over the cyclic
factors, which is exactly a multidimensional FFT over the digit axes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteSet, GroupSpec, collection, exact_int

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


def _as_vector(group: GroupSpec, weights: Sequence[float]) -> np.ndarray:
    vec = np.asarray(weights, dtype=complex)
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
    indicator = np.zeros(group.cardinality)
    for a in A:
        indicator[a] = 1.0
    transform = group_dft(group, indicator)
    mags = np.abs(transform) / A.size
    if group.cardinality == 1:
        return EquidistReport(0.0, 0, A.size, tuple(mags) if include_magnitudes else None)
    worst = 1 + int(np.argmax(mags[1:]))
    return EquidistReport(
        float(mags[worst]),
        worst,
        A.size,
        tuple(float(m) for m in mags) if include_magnitudes else None,
    )


def weyl_defect_window(A: Iterable[int], window: int, frequencies: Iterable[float]) -> float:
    """max over the frequency grid of |sum_{a in A} e^{2 pi i a alpha}| / |A|.

    A must be a non-empty subset of [0, window).  An empirical measurement:
    the grid stands in for the full circle, so the value is a float, not a
    certificate.
    """
    window = exact_int(window, "window")
    # One expression, so the member set is freed before the outer product.
    arr = np.asarray(sorted({exact_int(a, "window member")
                             for a in collection(A, "window set")}), dtype=float)
    if arr.size == 0:
        raise ValueError("Weyl defect of the empty set is undefined")
    if arr.min() < 0 or arr.max() >= window:
        raise ValueError(f"set members must lie in [0, {window})")
    freqs = np.asarray(list(collection(frequencies, "frequencies")), dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid must be non-empty")
    if np.any(freqs <= 0) or np.any(freqs >= 1):
        raise ValueError("frequencies must lie strictly between 0 and 1")
    sums = np.exp(2j * np.pi * np.outer(freqs, arr)).sum(axis=1)
    return float(np.abs(sums).max() / arr.size)


# The set below limit has about limit^(2/3) members, one Python step each.
MAX_THREE_HALVES_LIMIT = 10**9


def floor_three_halves(limit: int) -> list[int]:
    """The set {floor(n^(3/2)) : n >= 1} ∩ [0, limit), computed exactly."""
    limit = exact_int(limit, "limit")
    if limit > MAX_THREE_HALVES_LIMIT:
        raise ValueError(f"limit {limit} exceeds {MAX_THREE_HALVES_LIMIT}")
    out = []
    n = 1
    while True:
        v = math.isqrt(n * n * n)
        if v >= limit:
            return sorted(set(out))
        out.append(v)
        n += 1
