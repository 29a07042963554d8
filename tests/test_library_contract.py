"""The library's input contract, the counterpart of ``test_cli_contract.py``.

Each public constructor and check is fed one scalar in one of its numeric
positions: an integer in or out of range, a numpy integer (often 64 or
more, where a shift of a numpy int64 overflows), a float, a bool, a
numeric string or None.  Every call ends in a result or a ``ValueError``.
A numpy integer gives the same result, to the repr, as the Python integer
it equals; a float or a bool is refused everywhere, and so is a string or
None where an integer is expected.  Out-of-range integers are drawn only
where they are rejected or cheap, so each call stays small.

Each position that takes a collection (members, orders, tables, weights,
a tail pair, profile sets, campaign lists) is fed a scalar, a string,
bytes or a mapping, and refuses each with a ``ValueError``: none raises
``TypeError`` or reads characters or keys as members.

``zline.ZSetDesc`` is not exported, but it is held to the same contract:
it refuses every field that no normal form holds.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    FiniteSet,
    GroupSpec,
    LevelProfile,
    SplitMix64,
    StateSubset,
    Tail,
    bit_indices,
    char_value,
    check_cor1_cor3_zline,
    check_cor2_group,
    check_levelset,
    check_petridis_growth,
    check_petridis_lemma,
    check_prop2_minmax,
    check_prop12,
    check_prop13_increment,
    check_prop21,
    check_thm1,
    check_thm2,
    disjoint_union,
    finite,
    finite_set,
    floor_three_halves,
    full_states,
    is_ergodic_basis,
    iterated_sumset,
    mag_ratio_delta,
    make_group,
    make_system,
    orbit_closure,
    periodic,
    petridis_constants,
    quotient_system,
    recovery_window_ok,
    regular_system,
    shift,
    state_subset,
    translate,
    verify_correspondence,
    weyl_defect_window,
    window_density,
    zcontains,
    zdesc,
    zsumset_iterated,
)
from sumsetlab.verify import CampaignConfig
from sumsetlab.zline import ZSetDesc

Z2, Z8, Z128 = make_group([2]), make_group([8]), make_group([128])
R8, R128 = regular_system(Z8), regular_system(Z128)
A, F, A128 = finite_set(Z8, [0, 1]), finite_set(Z8, [0]), finite_set(Z128, [0, 3])
B, Bp = state_subset(R8, [0, 4]), state_subset(R8, [0])
S = periodic(3, [0])
ORBIT = orbit_closure(S)

WIDE = st.integers(-3, 300)  # every site below is cheap up to 300
K = st.integers(-3, 70)  # a k-fold sumset on the line costs k - 1 sumsets
RATIONAL = st.integers(-3, 3)

# (position, kind, integers drawn for it, call); kind "int" refuses every
# non-integer, "int or None" takes None as a default, "rational" takes strings.
SITES = [
    ("make_group order", "int", WIDE, lambda v: make_group([v])),
    ("GroupSpec.digits", "int", WIDE, lambda v: Z128.digits(v)),
    ("GroupSpec.index", "int", WIDE, lambda v: Z128.index([v])),
    ("char_value", "int", WIDE, lambda v: char_value(Z128, 1, v)),
    ("finite_set member", "int", WIDE, lambda v: finite_set(Z128, [v])),
    ("FiniteSet mask", "int", WIDE, lambda v: FiniteSet(Z8, v)),
    ("bit_indices mask", "int", WIDE, lambda v: list(bit_indices(v))),
    ("translate", "int", WIDE, lambda v: translate(A128, v)),
    ("iterated_sumset k", "int", WIDE, lambda v: iterated_sumset(A, v)),
    ("state_subset member", "int", WIDE, lambda v: state_subset(R128, [v])),
    ("StateSubset mask", "int", WIDE, lambda v: StateSubset(R8, v)),
    ("ActionSystem.apply state", "int", WIDE, lambda v: R128.apply(3, v)),
    ("ActionSystem.apply element", "int", WIDE, lambda v: R128.apply(v, 5)),
    ("make_system states", "int", WIDE, lambda v: make_system(Z2, v, [[1, 0]])),
    ("make_system entry", "int", WIDE, lambda v: make_system(Z2, 2, [[v, 0]])),
    ("make_system weight", "rational", RATIONAL,
     lambda v: make_system(Z2, 2, [[1, 0]], [v, v])),
    ("quotient_system order", "int", WIDE, lambda v: quotient_system(Z128, [v])),
    ("disjoint_union weight", "rational", RATIONAL, lambda v: disjoint_union(R8, R8, v)),
    ("is_ergodic_basis k", "int", WIDE, lambda v: is_ergodic_basis(R8, A, v)),
    ("mag_ratio_delta delta", "rational", RATIONAL, lambda v: mag_ratio_delta(R8, A, B, v)),
    ("Tail period", "int", WIDE, lambda v: Tail(v, [0])),
    ("Tail residue", "int", WIDE, lambda v: Tail(300, [v])),
    ("zdesc member", "int", WIDE, lambda v: zdesc([v])),
    ("zdesc lo", "int or None", WIDE, lambda v: zdesc([], v)),
    ("zdesc hi", "int or None", WIDE, lambda v: zdesc([0], 0, v)),
    ("ZSetDesc lo", "int", WIDE, lambda v: ZSetDesc(v, 300, frozenset(), None, None)),
    ("ZSetDesc hi", "int", WIDE, lambda v: ZSetDesc(0, v, frozenset(), None, None)),
    ("periodic period", "int", WIDE, lambda v: periodic(v, [0])),
    ("periodic residue", "int", WIDE, lambda v: periodic(300, [v])),
    ("finite member", "int", WIDE, lambda v: finite([v])),
    ("shift", "int", WIDE, lambda v: shift(S, v)),
    ("zcontains", "int", WIDE, lambda v: zcontains(S, v)),
    ("window_density hi", "int", WIDE, lambda v: window_density(S, 0, v)),
    ("zsumset_iterated k", "int", K, lambda v: zsumset_iterated(S, v)),
    ("verify_correspondence A", "int", WIDE, lambda v: verify_correspondence(S, [v])),
    ("recovery_window_ok hi", "int", WIDE, lambda v: recovery_window_ok(ORBIT, 0, v)),
    ("weyl_defect_window member", "int", WIDE,
     lambda v: weyl_defect_window([v], 301, [0.25])),
    ("weyl_defect_window window", "int", WIDE,
     lambda v: weyl_defect_window([0], v, [0.25])),
    ("floor_three_halves", "int", WIDE, lambda v: floor_three_halves(v)),
    ("petridis_constants |A|", "int", WIDE, lambda v: petridis_constants(v, 2)),
    ("petridis_constants k", "int", WIDE, lambda v: petridis_constants(2, v)),
    ("SplitMix64 seed", "int", WIDE, lambda v: SplitMix64(v).next_u64()),
    ("check_thm1 k", "int", K, lambda v: check_thm1(R8, finite_set(Z8, range(8)), B, v)),
    ("check_thm2 k", "int", K, lambda v: check_thm2(R8, A, B, v)),
    ("check_cor2_group k", "int", K, lambda v: check_cor2_group(A, F, v)),
    ("check_cor1_cor3_zline k", "int", K, lambda v: check_cor1_cor3_zline(S, S, v)),
    ("check_prop12 k", "int", K, lambda v: check_prop12(R8, A, B, v)),
    ("check_prop21 k", "int", K, lambda v: check_prop21(R8, A, B, v)),
    ("check_petridis_lemma eps", "rational", RATIONAL,
     lambda v: check_petridis_lemma(R8, A, B, Bp, F, v)),
    ("check_petridis_growth eps", "rational", RATIONAL,
     lambda v: check_petridis_growth(R8, A, B, Bp, v, 1)),
    ("check_petridis_growth k", "int", K,
     lambda v: check_petridis_growth(R8, A, B, Bp, Fraction(1, 2), v)),
    ("check_prop13_increment delta", "rational", RATIONAL,
     lambda v: check_prop13_increment(R8, A, B, Bp, v, 1)),
    ("check_prop13_increment k", "int", K,
     lambda v: check_prop13_increment(R8, A, B, Bp, Fraction(1, 2), v)),
    ("check_prop2_minmax delta", "rational", RATIONAL,
     lambda v: check_prop2_minmax(R8, finite_set(Z8, range(8)), B, v)),
    ("LevelProfile coefficient", "rational", RATIONAL,
     lambda v: LevelProfile(R8, (B,), (v,))),
    ("check_levelset eps", "rational", RATIONAL,
     lambda v: check_levelset(LevelProfile.equal_weights(R8, [B]), A, [v])),
] + [
    (f"CampaignConfig {field}", "int", WIDE, lambda v, field=field: CampaignConfig(**{field: v}))
    for field in ("seed", "instances", "max_order", "max_set")
]

NUMPY_INTS = (np.int16, np.int32, np.int64, np.uint16, np.uint64)
STRINGS = st.sampled_from(["70", "-3", "1/2", " 2/6", "0.5", "1/0", "1e3", "", "x"])


@st.composite
def numpy_int(draw, ints):
    value = draw(ints)
    dtype = draw(st.sampled_from([t for t in NUMPY_INTS
                                  if np.iinfo(t).min <= value <= np.iinfo(t).max]))
    return dtype(value)


@st.composite
def cases(draw):
    """(site, what the scalar is, the scalar)."""
    site = draw(st.sampled_from(SITES))
    ints = site[2]
    kind, value = draw(st.one_of(
        ints.map(lambda v: ("int", v)),
        numpy_int(ints).map(lambda v: ("numpy", v)),
        st.floats(allow_nan=True).map(lambda v: ("float", v)),
        st.booleans().map(lambda v: ("bool", v)),
        STRINGS.map(lambda v: ("str", v)),
        st.none().map(lambda v: ("none", v)),
    ))
    return site, kind, value


def outcome(call, value):
    """repr of the result, or "ValueError"; any other exception propagates."""
    try:
        return repr(call(value))
    except ValueError:
        return "ValueError"


@settings(max_examples=1500, deadline=None)
@given(cases())
def test_every_numeric_argument_ends_in_a_result_or_a_value_error(case):
    (name, kind, _, call), what, value = case
    got = outcome(call, value)
    if what == "numpy":
        assert got == outcome(call, int(value)), (name, value)
    refused = what in ("float", "bool") or (kind == "int" and what in ("str", "none")) \
        or (kind == "rational" and what == "none")
    if refused:
        assert got == "ValueError", (name, value, got)


def test_every_site_accepts_some_valid_value():
    # A site that refused every valid value would pass the contract vacuously.
    accepted = {name for name, kind, _, call in SITES
                if any(outcome(call, v) != "ValueError"
                       for v in (0, 1, 2, 3, 5) + (("1/2",) if kind == "rational" else ()))}
    assert accepted == {name for name, *_ in SITES}


# (position, a valid collection, call); each call takes the collection.
COLLECTION_SITES = [
    ("make_group orders", [8], lambda v: make_group(v)),
    ("GroupSpec orders", [8], lambda v: GroupSpec(v)),
    ("GroupSpec.index digits", [3], lambda v: Z128.index(v)),
    ("finite_set members", [0, 1], lambda v: finite_set(Z8, v)),
    ("state_subset members", [0, 1], lambda v: state_subset(R8, v)),
    ("make_system action", [[1, 0]], lambda v: make_system(Z2, 2, v)),
    ("make_system table", [1, 0], lambda v: make_system(Z2, 2, [v])),
    ("make_system measure", ["1/2", "1/2"], lambda v: make_system(Z2, 2, [[1, 0]], v)),
    ("quotient_system orders", [4], lambda v: quotient_system(Z8, v)),
    ("Tail pattern", [0, 3], lambda v: Tail(4, v)),
    ("zdesc head", [0, 2], lambda v: zdesc(v)),
    ("zdesc left tail", (4, [1]), lambda v: zdesc([0], 0, 1, left=v)),
    ("zdesc right tail", (4, [1]), lambda v: zdesc([0], 0, 1, right=v)),
    ("ZSetDesc head", frozenset({0}), lambda v: ZSetDesc(0, 1, v, None, None)),
    ("periodic pattern", [0], lambda v: periodic(3, v)),
    ("finite members", [0, 5], lambda v: finite(v)),
    ("verify_correspondence A", [0, 1], lambda v: verify_correspondence(S, v)),
    ("weyl_defect_window members", [0, 3], lambda v: weyl_defect_window(v, 8, [0.25])),
    ("weyl_defect_window frequencies", [0.25], lambda v: weyl_defect_window([0], 8, v)),
    ("LevelProfile sets", [B], lambda v: LevelProfile(R8, v, (Fraction(1, 2),))),
    ("LevelProfile coefficients", ["1/2"], lambda v: LevelProfile(R8, (B,), v)),
    ("LevelProfile.equal_weights sets", [B], lambda v: LevelProfile.equal_weights(R8, v)),
    ("check_levelset epsilons", ["1/10"],
     lambda v: check_levelset(LevelProfile.equal_weights(R8, [B]), A, v)),
    ("CampaignConfig checks", ["prop12"], lambda v: CampaignConfig(checks=v)),
]

# None selects the default at these positions: the uniform measure, no tail.
NONE_IS_DEFAULT = {"make_system measure", "zdesc left tail", "zdesc right tail"}
NOT_COLLECTIONS = [5, np.int64(5), np.array(5), 0.5, True, None, "", "01", "prop12",
                   b"\x01", {1: 2}, {}, R8, full_states(R8).mask]


@pytest.mark.parametrize("name, valid, call", COLLECTION_SITES,
                         ids=[site[0] for site in COLLECTION_SITES])
def test_every_collection_argument_refuses_scalars_strings_and_mappings(name, valid, call):
    call(valid)  # the site accepts a collection
    for value in NOT_COLLECTIONS:
        if value is None and name in NONE_IS_DEFAULT:
            continue
        assert outcome(call, value) == "ValueError", (name, value)


@pytest.mark.parametrize("lo, hi, head, left, right", [
    (0, -1, frozenset(), None, None),  # an inverted window
    (0, 3, frozenset({3}), None, None),  # a member at hi
    (0, 3, frozenset({-1}), None, None),
    (0, 3, frozenset({1.0}), None, None),
    (0, 3, frozenset({True}), None, None),
    (0, 3, frozenset({np.int64(1)}), None, None),
    (0, 3, {1}, None, None),
    (0, 0, frozenset(), (3, [0]), None),
    (0, 0, frozenset(), None, frozenset({0})),
])
def test_zsetdesc_refuses_what_no_normal_form_holds(lo, hi, head, left, right):
    with pytest.raises(ValueError):
        ZSetDesc(lo, hi, head, left, right)
