#!/usr/bin/env python3
"""Semiclassical portrait of the quantized angle: symbol grids over gamma.

For each requested action J the lower symbol of the closed-form angle
matrix is sampled on a uniform angle grid; at large J the columns line
up with the sawtooth.
"""

import argparse
import math
import sys

import numpy as np

from anglekit import whquant


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=160)
    parser.add_argument("--t", type=float, default=0.0)
    parser.add_argument("--actions", default="4,25,100", help="comma-separated J values")
    parser.add_argument("--grid", type=int, default=96, help="gamma samples")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    A = whquant.angle_matrix(args.t, args.dim)
    weight = whquant.WeightSpec(t=args.t)
    rows = ["J,gamma,symbol_re,symbol_im,sawtooth"]
    grid = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    for J in (float(x) for x in args.actions.split(",") if x):
        vals = whquant.lower_symbols(A, weight, J, grid)
        for gamma, val in zip(grid.tolist(), vals.tolist()):
            rows.append(f"{J!r},{gamma!r},{val.real!r},{val.imag!r},{gamma!r}")
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
