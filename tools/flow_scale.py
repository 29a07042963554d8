"""Time ``mag_ratio`` on the pinned large closure instances.

The instance for order n is Z/n acting on itself (``regular_system``), with
``rng = random.Random(n)``, A = ``rng.sample(range(n), 8)`` and then
B = ``rng.sample(range(n), n // 8)``.  Only the ``mag_ratio`` call is timed,
not building the system.  Each instance prints one JSON line: n, seconds,
value, iterations, nodes and edges.

    PYTHONPATH=src python3 tools/flow_scale.py          # n = 16384 and 65536
    PYTHONPATH=src python3 tools/flow_scale.py 16384

Z/65536 takes seconds to tens of seconds; nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from sumsetlab import finite_set, mag_ratio, make_group, regular_system, state_subset


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("orders", nargs="*", type=int, default=[16384, 65536],
                        help="group orders n (default: 16384 65536)")
    for n in parser.parse_args(argv).orders:
        group = make_group([n])
        system = regular_system(group)
        rng = random.Random(n)
        A = finite_set(group, rng.sample(range(n), 8))
        B = state_subset(system, rng.sample(range(n), n // 8))
        start = time.perf_counter()
        result = mag_ratio(system, A, B).to_json()
        seconds = time.perf_counter() - start
        print(json.dumps({"n": n, "seconds": round(seconds, 3), "value": result["value"],
                          "iterations": result["iterations"], "nodes": result["nodes"],
                          "edges": result["edges"]}), flush=True)


if __name__ == "__main__":
    main()
