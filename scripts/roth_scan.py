#!/usr/bin/env python3
"""Scan effective irrationality exponents across a family of recurrences.

For each polynomial G in a small grid, prints the certified bracket of the
exponent at successive partial sums next to the dominant root it should
approach. The squaring series (factors u,1,1,...) is included as the
boundary case whose bracket stays pinned at 2.

Usage: python scripts/roth_scan.py [--depth N]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from engelcf import (  # noqa: E402
    SecondOrderSpec,
    dominant_root,
    ones_tail,
    roth_exponents,
)
from engelcf.asymptotics import _digits_text as nstr  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--depth", type=int, default=7)
    args = parser.parse_args()

    grid = [
        SecondOrderSpec(3, (3,)),
        SecondOrderSpec(3, (1, 2)),
        SecondOrderSpec(3, (1, 1)),
        SecondOrderSpec(4, (2, 3)),
        SecondOrderSpec(5, (1, 0, 4)),
    ]
    for spec in grid:
        lam = dominant_root(spec.d1, spec.d2)
        report = roth_exponents(spec, args.depth)
        print(f"d1={spec.d1} G={list(spec.g)}  lambda={nstr(lam, 10)}  delta={nstr(report.delta, 6)}")
        for r in report.records:
            print(f"   n={r.n:<3} q_bits={r.q_bits:<8} exponent in [{nstr(r.lower, 8)}, {nstr(r.upper, 8)}]")
        print()

    for u in (3, 2):
        report = roth_exponents(ones_tail(u), args.depth)
        print(f"u={u} squaring series  delta={nstr(report.delta, 6)}")
        for r in report.records:
            print(f"   n={r.n:<3} q_bits={r.q_bits:<8} exponent in [{nstr(r.lower, 8)}, {nstr(r.upper, 8)}]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
