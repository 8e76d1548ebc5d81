"""Record the output digests that run.py checks against.

    python3 perfbench/make_digests.py --seeds 0-31

Runs one full-size pass per workload and seed and writes digests.json.
derive-all gets one digest for every seed, since its outputs are exact and
only their order depends on the seed.  The other workloads get one digest
per seed, valid on the platform recorded alongside them.  Regenerate only
when a change is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, SRC, run_pass
from spread import seed_range


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/make_digests.py")
    p.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-31")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    table = {"platform": workloads.platform_id(), "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        seeds = args.seeds[:1] if wl.name == "derive-all" else args.seeds
        entry = table["workloads"][wl.name] = {}
        for seed in seeds:
            result = run_pass(workloads, wl, wl.inputs(seed, workloads.FULL))
            if result.problems:
                print("\n".join(result.problems), file=sys.stderr)
                return 1
            entry["any" if wl.name == "derive-all" else str(seed)] = result.digest
            print(wl.name, seed, result.digest, flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
