"""Exact verification laboratory for sumset and density inequalities.

Finite abelian groups, finite measure-preserving actions of them, and
eventually periodic subsets of the integers — everything exact rational
except the spectral module, which is explicitly float.
"""

from types import ModuleType as _ModuleType

from .groups import (
    FiniteSet,
    GroupSpec,
    bit_indices,
    finite_set,
    full_set,
    group_density,
    iterated_sumset,
    make_group,
    negate,
    sumset,
    translate,
)
from .magnification import (
    ORACLE_GUARD,
    MagnificationResult,
    mag_ratio,
    mag_ratio_delta,
    mag_ratio_oracle,
)
from .orbits import (
    CorrespondenceReport,
    LimitOrbit,
    OrbitSystem,
    orbit_closure,
    recovery_window_ok,
    verify_correspondence,
)
from .spectral import (
    EquidistReport,
    char_value,
    equidist_defect,
    floor_three_halves,
    group_dft,
    group_dft_naive,
    weyl_defect_window,
)
from .systems import (
    ActionSystem,
    StateSubset,
    apply_set,
    disjoint_union,
    full_states,
    is_ergodic,
    is_ergodic_basis,
    is_ergodic_set,
    make_system,
    measure_of,
    orbits,
    quotient_system,
    regular_system,
    state_subset,
    system_from_json,
    system_to_json,
)
from .verify import (
    CHECK_NAMES,
    CampaignConfig,
    CheckResult,
    LevelProfile,
    SplitMix64,
    VerificationReport,
    check_cor1_cor3_zline,
    check_cor2_group,
    check_levelset,
    check_oracle_equivalence,
    check_petridis_growth,
    check_petridis_lemma,
    check_prop2_minmax,
    check_prop12,
    check_prop13_increment,
    check_prop21,
    check_prop22,
    check_thm1,
    check_thm2,
    check_transitive_point,
    petridis_constants,
    run_campaign,
)
from .zline import (
    Tail,
    banach_lower,
    banach_upper,
    finite,
    integers,
    is_empty,
    periodic,
    shift,
    window_density,
    zcontains,
    zdesc,
    zset_from_json,
    zset_to_json,
    zsumset,
    zsumset_iterated,
)

__version__ = "0.1.0"

# The public names are those imported above.  ``zline.ZSetDesc`` is not one of
# them: ``zdesc`` is the one public constructor, the one that checks and
# normalises a descriptor.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
