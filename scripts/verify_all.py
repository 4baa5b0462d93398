#!/usr/bin/env python3
"""Run every compiled-in verification target and report a table.

Same evidence as `polarkit verify all`, as a standalone script so a checkout
can be validated without installing the console entry point:

    python scripts/verify_all.py            # everything, slow targets last
    python scripts/verify_all.py --fast     # skip the targets budgeted "slow"
"""

import argparse
import sys

from polarkit import manifest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true", help="skip slow targets")
    args = ap.parse_args()

    targets = [t for t in manifest.TARGETS
               if not (args.fast and t.budget == "slow")]
    width = max(len(t.id) for t in targets)
    failures = 0
    for t in targets:
        rep = manifest.run_target(t)
        status = "PASS" if rep.match else "FAIL"
        print(f"{t.id:<{width}}  {status}  ({rep.wall_time:6.1f}s)  {t.description}")
        if not rep.match:
            failures += 1
            print(f"  expected: {rep.expected}")
            print(f"  computed: {rep.computed}")
    print(f"{len(targets) - failures}/{len(targets)} targets match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
