"""Per-layer tracing of sumsetlab, installed from outside the library.

The tracer wraps the public functions of each module and does not edit
``src/``.  ``verify``, ``cli``, ``orbits`` and ``magnification`` import
names directly (``from .systems import apply_set``), so one function object
is bound in several namespaces.  ``install`` therefore replaces every
binding of each original function in every loaded ``sumsetlab`` module,
the package itself included, and ``uninstall`` puts the originals back.

Each wrapped call opens a span.  A span's self time is its duration minus
the durations of the spans it directly encloses.  A call into the layer of
the innermost open span (``regular_system`` calling ``make_system``,
``iterated_sumset`` calling ``sumset``) is folded into that span, so a
layer's ``calls`` counts entries into the layer from outside it.  Counters
are read from public result fields, or computed from the arguments where
the library exposes no field (the scanned ``zsumset`` window).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

CHECK_FUNCTIONS = {
    "thm1": "check_thm1",
    "thm2": "check_thm2",
    "cor2": "check_cor2_group",
    "cor13": "check_cor1_cor3_zline",
    "prop12": "check_prop12",
    "petridis": "check_petridis_lemma",
    "petridis2": "check_petridis_growth",
    "prop13": "check_prop13_increment",
    "prop2": "check_prop2_minmax",
    "prop21": "check_prop21",
    "prop22": "check_prop22",
    "levelset": "check_levelset",
    "transitive": "check_transitive_point",
    "oracle": "check_oracle_equivalence",
}

# (layer, module, public functions that enter the layer)
LAYERS = (
    ("groups.sumset", "groups", ("sumset", "iterated_sumset")),
    ("systems.build", "systems", ("make_system", "regular_system", "quotient_system",
                                  "disjoint_union", "system_from_json")),
    ("systems.apply_set", "systems", ("apply_set",)),
    ("systems.measure_of", "systems", ("measure_of",)),
    ("systems.ergodic", "systems", ("is_ergodic", "is_ergodic_set", "is_ergodic_basis",
                                    "orbits")),
    ("magnification.flow", "magnification", ("mag_ratio",)),
    ("magnification.enum", "magnification", ("mag_ratio_oracle", "mag_ratio_delta")),
    ("zline.zsumset", "zline", ("zsumset", "zsumset_iterated")),
    ("spectral.transform", "spectral", ("group_dft", "weyl_defect_window")),
    ("orbits.correspond", "orbits", ("verify_correspondence", "orbit_closure")),
    ("verify.campaign", "verify", ("run_campaign",)),
    ("cli.main", "cli", ("main",)),
) + tuple((f"verify.{check}", "verify", (fn,)) for check, fn in CHECK_FUNCTIONS.items())


def zsumset_window(A, B) -> int:
    """Length of the head window zsumset scans: [A.lo+B.lo-2P, A.hi+B.hi+2P)."""
    periods = [t.period for t in (A.left, A.right, B.left, B.right) if t is not None]
    P = math.lcm(*periods) if periods else 1
    return (A.hi + B.hi + 2 * P) - (A.lo + B.lo - 2 * P)


def _weyl_points(args, result) -> int:
    members, frequencies = args[0], args[2]
    return len(members) * len(frequencies)


# function name -> (counter, amount from (args, result)); read after a call returns
COUNTERS = {
    "mag_ratio": (("magnification.flow.cuts", lambda args, r: r.iterations),
                  ("magnification.flow.edges", lambda args, r: r.edges)),
    "mag_ratio_oracle": (("magnification.enum.subsets", lambda args, r: r.iterations),),
    "mag_ratio_delta": (("magnification.enum.subsets", lambda args, r: r.iterations),),
    "zsumset": (("zline.zsumset.window_points", lambda args, r: zsumset_window(*args[:2])),),
    "group_dft": (("spectral.transform.points", lambda args, r: args[0].cardinality),),
    "weyl_defect_window": (("spectral.transform.points", _weyl_points),),
    "orbit_closure": (("orbits.closure.states", lambda args, r: r.states_total),),
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Span:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Spans and counters for one traced pass; create one, install, run, uninstall."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {layer: LayerStats() for layer, _, _ in LAYERS}
        self.counts: dict[str, int] = {}
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counters):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                span = _Span(layer)
                stack.append(span)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - span.child_s
                    if stack:
                        stack[-1].child_s += elapsed
            for name, amount in counters:
                self.counts[name] = self.counts.get(name, 0) + amount(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sumsetlab" or name.startswith("sumsetlab."))]
        for layer, module, names in LAYERS:
            home = sys.modules[f"sumsetlab.{module}"]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(layer, original, COUNTERS.get(name, ()))
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, traced)
                            self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
