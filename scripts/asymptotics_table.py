#!/usr/bin/env python3
"""Print growth tables for the bundled recurrence examples.

For each spec: the dominant root, the series constant C with its truncation
bound, and per-index rows comparing the exact log-formula reconstruction
with the directly computed log x_n.

Usage: python scripts/asymptotics_table.py [--maxn N], N >= 0
"""

import argparse
import decimal
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from engelcf import SecondOrderSpec, full_report  # noqa: E402
from engelcf.asymptotics import DEFAULT_DPS, _digits_text as nstr  # noqa: E402

SPECS = {
    "x^3 * 3": SecondOrderSpec(3, (3,)),
    "x^3 * (2x+1)": SecondOrderSpec(3, (1, 2)),
    "x^3 * (x+1)": SecondOrderSpec(3, (1, 1)),
    "x^4 * (x^2+x+1)": SecondOrderSpec(4, (1, 1, 1)),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--maxn", type=int, default=10)
    args = parser.parse_args()
    if args.maxn < 0:
        parser.error("--maxn must be >= 0")

    ctx = decimal.Context(prec=DEFAULT_DPS + 10)
    for name, spec in SPECS.items():
        # full_report needs n_max >= 3; its rows do not depend on n_max.
        report = full_report(spec, max(args.maxn, 3))
        lam = report.lam
        print(f"== {name}  (d1={spec.d1}, d2={spec.d2})")
        print(f"   lambda = {nstr(lam, 20)}")
        print(f"   C      = {nstr(report.C, 15)}  (tail bound {nstr(report.C_bound, 2)})")
        print(f"   {'n':>3} {'log x_n':>18} {'reconstructed':>18} {'log x_n / lam^n':>18}")
        for n in range(2, args.maxn + 1):
            true, exact = report.lambda_n_true[n], report.lambda_n_exact[n]
            ratio = ctx.divide(true, ctx.power(lam, n))
            print(f"   {n:>3} {nstr(true, 10):>18} {nstr(exact, 10):>18} {nstr(ratio, 10):>18}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
