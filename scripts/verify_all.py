#!/usr/bin/env python3
"""Run every compiled-in verification target and report a table.

Same evidence as `polarkit verify all`, as a standalone script so a checkout
can be validated without installing the console entry point:

    python scripts/verify_all.py            # everything, slow targets last
    python scripts/verify_all.py --fast     # skip the targets budgeted "slow"
"""

import argparse
import sys

from polarkit import cli


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true", help="skip slow targets")
    args = ap.parse_args()
    return cli.main(["verify", "fast" if args.fast else "all"])


if __name__ == "__main__":
    sys.exit(main())
