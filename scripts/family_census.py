#!/usr/bin/env python3
"""Generate non-extendable invariant families for a census of targets.

For each slope at infinity and boundary slope this builds k pairwise
non-equivalent ends whose invariants certify that no tight extension to the
full half-open cylinder exists, then cross-checks pairwise non-equivalence;
the members of one family share one block decomposition, so the pairwise
checks read the same blocks.  A coefficient-stream target gets no
certificate (no finite scan decides its count tails), and its row reports
why.
"""

from toric_ends import (
    INFINITY,
    QuadraticTarget,
    RationalTarget,
    Slope,
    equivalent,
    extension_obstruction,
    non_extendable_family,
    quadratic_cf_target,
)
from toric_ends.cli import invariant_doc
from toric_ends.errors import InsufficientBlocksError

MINUS_SQRT3 = QuadraticTarget.of(0, -1, 1, 3)
BASE = Slope(-1, 1)

TARGETS = [
    ("oo (non-attained)", RationalTarget(INFINITY, False), BASE),
    ("-2 (non-attained)", RationalTarget(Slope(-2, 1), False), BASE),
    ("-5/2 (non-attained)", RationalTarget(Slope(-5, 2), False), BASE),
    ("-sqrt(2)", QuadraticTarget.of(0, -1, 1, 2), BASE),
    ("-sqrt(3)", MINUS_SQRT3, BASE),
    ("-sqrt(3) from 2/5", MINUS_SQRT3, Slope(2, 5)),
    ("-sqrt(3) as a coefficient stream from 2/5", quadratic_cf_target(MINUS_SQRT3.value), Slope(2, 5)),
]

K = 6


def main():
    for name, target, start in TARGETS:
        try:
            family = non_extendable_family(target, K, start)
        except InsufficientBlocksError as exc:
            print(f"{name}: not certified: {exc}")
            print()
            continue
        distinct = all(
            not equivalent(family[i], family[j])
            for i in range(K) for j in range(i + 1, K))
        certified = all(
            type(extension_obstruction(m)).__name__ == "NoTightExtension" for m in family)
        print(f"{name}: {K} members, pairwise distinct={distinct}, certified={certified}")
        for m in family:
            print(f"  {invariant_doc(m)}")
        print()


if __name__ == "__main__":
    main()
