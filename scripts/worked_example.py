#!/usr/bin/env python3
"""End-to-end walkthrough of the classification pipeline on one toric end.

Boundary torus of slope -1 and division 1, slope -sqrt(2) at infinity,
alternating basic-slice signs.  Prints the minimal clockwise slope sequence,
its continued fraction blocks with witnesses, the complete invariant, the
relative Euler class of a truncation, and the embedding obstruction.
"""

from toric_ends import (
    Alternating,
    EndDescription,
    QuadraticTarget,
    SignData,
    Slope,
    TorusRecord,
    classify,
    decompose,
    euler_class,
    extension_obstruction,
    farey_sequence,
)

TARGET = QuadraticTarget.of(0, -1, 1, 2)  # -sqrt(2)
N_VERTICES = 12


def main():
    start = Slope(-1, 1)
    path = farey_sequence(start, TARGET, N_VERTICES)
    print(f"minimal clockwise sequence from {start} toward {TARGET}:")
    print("  " + ", ".join(str(v) for v in path.prefix(N_VERTICES)))

    decomp = decompose(path)
    print("\nmaximal continued fraction blocks:")
    for i in range(1, 5):
        b = decomp.block(i)
        run = ", ".join(str(path.vertex(j)) for j in range(b.start_index, b.end_index + 1))
        print(f"  B{i}: length {b.length}  vertices [{run}]  witness {b.witness.entries()}")

    signs = SignData((), Alternating())
    e = EndDescription(TorusRecord(start, 1), TARGET, signs)
    inv = classify(e)
    print("\ninvariant of the alternating-sign end:")
    print(f"  counts prefix: {inv.counts}")
    print(f"  count tail:    {inv.tail}")
    print(f"  f(1..6) = {[inv.f(i) for i in range(1, 7)]}")

    cls = euler_class(decomp, signs, horizon=10)
    print(f"\nrelative Euler class of the first 10 slices: {cls.as_pair()}")

    print(f"\nextension obstruction: {extension_obstruction(inv)}")


if __name__ == "__main__":
    main()
