#!/usr/bin/env python3
"""Sweep the number-angle commutation defect across truncation sizes.

Produces the table behind the convergence claim: at a fixed interior
window the defect of [angle, N] - i Sigma shrinks as the two-sided
truncation grows.  C and S carry closed-form eigensystems, so no size
runs an eigensolver: each costs a few dense matrix products.
"""

import argparse
import sys

from anglekit import halfcircle
from anglekit.linalg import BasisSpec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="64,96,128,192,256", help="comma-separated sizes")
    parser.add_argument("--window", type=int, default=16, help="interior half-width |n| <= w")
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    dims = [int(x) for x in args.dims.split(",") if x]
    rows = ["D,window,defect"]
    for dim in dims:
        fam = halfcircle.build_shift_family(BasisSpec("two_sided", dim))
        (defect,) = halfcircle.commutator_defect(fam, [dim // 2 - args.window])
        rows.append(f"{dim},{args.window},{defect!r}")
        print(f"D={dim:4d}  window |n|<={args.window}  defect={defect:.6e}", file=sys.stderr)
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
