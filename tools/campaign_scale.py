"""Time the seeded ``verify`` campaigns and report the system memo.

Three campaigns, each in one process with the memo cleared first:

- ``default``: all 14 checks at the default sizes, 100 instances per check,
  seed 1;
- ``prop12``: the configuration of ``test_acceptance_02``, 10,000 prop12
  instances at ``max_order=64`` (seed 2024, k in 1..4);
- ``bench-op``: 200 runs shaped like one op of the ``campaign`` benchmark,
  all 14 checks at 5 instances each, seeds 1 to 200 in turn, sharing the
  memo as the benchmark's ops do.

Each campaign prints one JSON line to stdout: its name, rows, whether every
row holds, and seconds.  The memo's hits, misses, kept systems and kept
states after it go to stderr.  Then the default campaign's checks run again
one at a time, each with the memo cleared first (a check's instances do not
depend on which other checks are selected), and one JSON line of seconds per
check goes to stderr.

    PYTHONPATH=src python3 tools/campaign_scale.py

Nothing here asserts a time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

from sumsetlab.systems import clear_system_memo, system_memo_info
from sumsetlab.verify import CampaignConfig, run_campaign

# (name, the configurations it runs in turn)
CAMPAIGNS = (
    ("default", (CampaignConfig(seed=1, instances=100),)),
    ("prop12", (CampaignConfig(seed=2024, instances=10_000, checks=("prop12",),
                               max_order=64),)),
    ("bench-op", tuple(CampaignConfig(seed=seed, instances=5) for seed in range(1, 201))),
)


def main() -> None:
    for name, configs in CAMPAIGNS:
        clear_system_memo()
        rows, all_hold = 0, True
        start = time.perf_counter()
        for cfg in configs:
            report = run_campaign(cfg)
            rows += len(report.rows)
            all_hold = all_hold and report.all_hold
        seconds = time.perf_counter() - start
        print(json.dumps({"campaign": name, "rows": rows, "all_hold": all_hold,
                          "seconds": round(seconds, 3)}), flush=True)
        print(f"{name} system memo: {json.dumps(system_memo_info())}", file=sys.stderr)
    name, (cfg,) = CAMPAIGNS[0]
    seconds = {}
    for check in cfg.checks:
        clear_system_memo()
        start = time.perf_counter()
        run_campaign(replace(cfg, checks=(check,)))
        seconds[check] = round(time.perf_counter() - start, 3)
    print(json.dumps({"campaign": name, "check_seconds": seconds}), file=sys.stderr)


if __name__ == "__main__":
    main()
