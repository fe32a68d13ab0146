#!/usr/bin/env python3
"""Compute the smallest Laplace-Beltrami eigenvalues on an icosphere and
compare each level l, the 2l+1 values at indices l^2 .. (l+1)^2 - 1,
with the analytic l(l+1).  Only the levels that the count fully covers
are printed."""

import argparse
import math

import numpy as np

import modeiso as mi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refinement", type=int, default=3)
    parser.add_argument("--count", type=int, default=31)
    args = parser.parse_args()

    mesh = mi.generate_icosphere(args.refinement)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    spec = mi.smallest_eigenpairs(A, M, count=args.count, tol=1e-9, seed=0)
    print(f"icosphere({args.refinement}): {mesh.n_vertices} vertices")
    print(f"{'l':>3} {'mean':>10} {'l(l+1)':>8} {'err':>8}")
    for level in range(math.isqrt(len(spec))):
        values = spec.eigenvalues[level ** 2:(level + 1) ** 2]
        mean = float(np.mean(values))
        exact = level * (level + 1)
        err = "-" if exact == 0 else f"{100 * (mean - exact) / exact:.2f}%"
        print(f"{level:>3} {mean:>10.4f} {exact:>8} {err:>8}")


if __name__ == "__main__":
    main()
