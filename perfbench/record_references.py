"""Rewrite ``references.json``: output fingerprints for the shipped seeds.

    python3 perfbench/record_references.py [--first 0] [--count 32]

Each reference group is run once per seed with one worker (a multi-worker
campaign's group is the same campaign at one worker).  Run this only
for a change that is meant to alter results: the benchmark counts every
deviation from these fingerprints as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

from checks import REFERENCES
from harness import ROOT, WORKLOADS, CampaignWorkload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=32)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from run import AdvfBench, CampaignBench

    groups = {}
    for workload in WORKLOADS.values():
        groups.setdefault(workload.reference_group, workload)
    references = {}
    for group, workload in sorted(groups.items()):
        bench_type = CampaignBench if isinstance(workload, CampaignWorkload) else AdvfBench
        references[group] = {}
        for seed in range(args.first, args.first + args.count):
            references[group][str(seed)] = bench_type(workload, seed).record_reference()
            print(f"{group} seed {seed}", file=sys.stderr, flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
