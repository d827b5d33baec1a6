"""The benchmark's workloads: the operation list each one runs, drawn from a seed.

An operation is a plain tuple so that the parent process and the child
interpreter build the same list from the same ``(workload, seed)``:

    ("cli", argv)            quadrec.cli.main(argv), stdout captured
    ("lib", name, args)      a library call the CLI does not expose

Seed 0 reproduces the values listed in perfbench/README.md.  Any other seed
draws inputs inside the stated ranges, but every draw keeps the total work
of the workload fixed (depths that trade against each other, a permutation
of fixed orders, digit counts that keep every adaptive checkpoint), so the
run-to-run spread of a timing measures the program and not the draw.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

DEFAULT_SEED = 0


def critical_deep(rng: random.Random | None) -> list[tuple]:
    # depths move by up to +-20% and trade against each other, so the
    # orbit kernel always runs 3 * 10**6 critical steps in total
    n1 = 10**6 if rng is None else round(10**6 * (1 + rng.uniform(-0.2, 0.2)))
    n2 = 3 * 10**6 - n1
    return [
        ("cli", ["critical-c", "--N", str(n1)]),
        ("cli", ["critical-c", "--N", str(n2)]),
        ("cli", ["residual-check"]),
        ("lib", "logistic_constant", [10**5, 6, 60]),
    ]


def critical_high_order(rng: random.Random | None) -> list[tuple]:
    # the two estimates use orders 14 and 16 in a drawn order, at depths in
    # [3000, 10**4] whose product is 3 * 10**7: the solver work is fixed and
    # the certified digits move by at most one
    orders = [14, 16]
    depth = 10**4
    if rng is not None:
        rng.shuffle(orders)
        depth = round(math.exp(rng.uniform(math.log(3000), math.log(10**4))))
    other = max(3000, min(10**4, round(3 * 10**7 / depth)))
    return [
        ("cli", ["derive", "--order", "16"]),
        ("cli", ["critical-c", "--N", str(depth), "--order", str(orders[0]), "--precision", "80"]),
        ("cli", ["critical-c", "--N", str(other), "--order", str(orders[1]), "--precision", "80"]),
        ("lib", "fixed_point_defect", [6]),
    ]


def sums_bootstrap(rng: random.Random | None) -> list[tuple]:
    # Only the bootstrap digit count is drawn.  Other digit counts would move
    # s_3, s_5 or s_1 to another checkpoint, or add a working precision
    # (hence one more cached estimate of C), and so change the work.
    boot_digits = 6 if rng is None else rng.choice([4, 5, 6])
    ops = [("cli", ["sums", "--m", str(m), "--digits", "13"]) for m in range(3, 9)]
    ops += [
        ("cli", ["s1", "--digits", "8"]),
        ("cli", ["bootstrap", "--digits", str(boot_digits)]),
        ("cli", ["diverge-check"]),
    ]
    return ops


def exact_geometric(rng: random.Random | None) -> list[tuple]:
    # p = 1/2 -+ u/10**4 with u in [10, 25] keeps q in [0.995, 0.998]; the
    # factor count grows like 1/u, and 1/u1 + 1/u2 = 0.14 keeps the two
    # rate constants' total work fixed across draws
    u1 = u2 = 10
    if rng is not None:
        u1 = rng.randint(10, 25)
        u2 = max(10, min(25, round(1 / (0.14 - 1 / u1))))
    p_below = Fraction(5000 - u1, 10**4)
    p_above = Fraction(5000 + u2, 10**4)
    return [
        ("lib", "s2_identity_check", [18]),
        ("lib", "iterate_exact", ["2/5", 18]),
        # known defect: exact values beyond 4300 decimal digits crash the
        # JSON renderer with an uncaught ValueError
        ("cli", ["iterate", "--p", "1/2", "--steps", "14", "--exact"]),
        ("cli", ["table1", "--digits", "15"]),
        ("cli", ["table1", "--digits", "50"]),
        ("cli", ["rate-constant", "--p", str(p_below)]),
        ("cli", ["rate-constant", "--p", str(p_above)]),
    ]


WORKLOADS = {
    "critical_deep": critical_deep,
    "critical_high_order": critical_high_order,
    "sums_bootstrap": sums_bootstrap,
    "exact_geometric": exact_geometric,
}


def build(workload: str, seed: int) -> list[tuple]:
    """The operation list of ``workload`` for ``seed``."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def op_label(op: tuple) -> str:
    if op[0] == "cli":
        return "quadrec " + " ".join(op[1])
    return f"{op[1]}({', '.join(map(str, op[2]))})"


def ratio_digest(numerator: int, denominator: int) -> str:
    """A short digest of an exact rational, for values too long to print."""
    h = hashlib.sha256()
    for part in (numerator, denominator):
        h.update(part.to_bytes(part.bit_length() // 8 + 1, "big", signed=True))
    return h.hexdigest()[:32]
