#!/usr/bin/env python3
"""Experiment: block lengths next to the walk's steps and the continued fraction.

With coherent vertex lifts (consecutive determinant +1) the minimal
clockwise walk moves from v to -u + k*v, where u is the vertex before v, so
its step sequence k_1, k_2, ... is |det(u, next)| at each interior vertex.
A block is one step followed by every step with k = 2: a block of length m
is a step followed by m - 2 twos.  The library relies on exactly this: the
walk jumps each run of twos in one step, FareyPath stores the path as those
runs, and the block decomposition is a view of them.  The script prints
the block lengths, the step sequence and the regular continued fraction
coefficients side by side for a census of quadratic targets.
"""

from itertools import islice

from toric_ends import FareyPath, QuadraticTarget, Slope, decompose
from toric_ends.farey import det

TARGETS = [
    ("-sqrt(2)", QuadraticTarget.of(0, -1, 1, 2)),
    ("-sqrt(3)", QuadraticTarget.of(0, -1, 1, 3)),
    ("-sqrt(5)", QuadraticTarget.of(0, -1, 1, 5)),
    ("(-1-sqrt(2))/2", QuadraticTarget.of(-1, -1, 2, 2)),
    ("(1-2*sqrt(7))/3", QuadraticTarget.of(1, -2, 3, 7)),
    ("(-3+sqrt(13))/4", QuadraticTarget.of(-3, 1, 4, 13)),
]

N_BLOCKS = 10
N_STEPS = 16
N_COEFFS = 12


def step_sequence(path: FareyPath, n: int) -> list[int]:
    """k of the steps out of vertices 1 .. n (the step out of the start
    depends on the partner the walk begins with, so it is left out)."""
    return [abs(det(path.vertex(i - 1), path.vertex(i + 1))) for i in range(1, n + 1)]


def main():
    start = Slope(-1, 1)
    for name, target in TARGETS:
        path = FareyPath(start, target)
        decomp = decompose(path)
        lengths = [decomp.block(i).length for i in range(1, N_BLOCKS + 1)]
        coeffs = list(islice(target.value.cf_coefficients(), N_COEFFS))
        print(name)
        print(f"  block lengths: {lengths}")
        print(f"  walk steps k:  {step_sequence(path, N_STEPS)}")
        print(f"  cf coefficients: {coeffs}")
        print()


if __name__ == "__main__":
    main()
