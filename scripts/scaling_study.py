#!/usr/bin/env python3
"""Empirical scaling tables: solver cost vs order, telescope build cost vs
order, estimator error vs depth.

Usage:
    python scripts/scaling_study.py [--max-order 14] [--max-depth-exp 5]

The telescope table times one ``series_engine.telescope`` build of the Abel
summand at the fixed orders 6, 16, 56 and 120; orders past the solver's
limit are allowed there, as critical-c requests deeper than 10^4 use them
(up to order 40).

The reference value for the error column is a depth-10^6 run, so shallow
rows display their true error next to the bound they reported themselves.
Rows deeper than 10^4 (``critical.WALK_DEPTH``) show walk-depth estimates:
the orbit is walked 10^4 steps and the order raised until the bound of the
requested depth is met, so their errors can sit far inside their bounds.
"""

from __future__ import annotations

import argparse
import time

from quadrec.critical import _abel_summand, estimate_constant
from quadrec.series_engine import MAX_ORDER, solve_coefficients, telescope


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=14)
    parser.add_argument("--max-depth-exp", type=int, default=5)
    args = parser.parse_args()
    if args.max_order > MAX_ORDER:
        parser.error(f"--max-order is at most {MAX_ORDER}, the solver's limit")

    print("solver cost by truncation order")
    print(f"{'order':>6} {'entries':>8} {'seconds':>8}")
    # each order extends the table already derived, so the steps are summed:
    # the column is the cost of deriving that order from scratch
    elapsed = 0.0
    for order in range(4, args.max_order + 1, 2):
        t0 = time.perf_counter()
        table = solve_coefficients(order)
        elapsed += time.perf_counter() - t0
        entries = sum(1 for _ in table.iter_entries())
        print(f"{order:>6} {entries:>8} {elapsed:>8.3f}")

    print()
    print("telescope build by order (Abel summand)")
    print(f"{'order':>6} {'seconds':>9}")
    for order in (6, 16, 56, 120):
        summand = _abel_summand(order)
        t0 = time.perf_counter()
        telescope(summand, order)
        print(f"{order:>6} {time.perf_counter() - t0:>9.5f}")

    reference = estimate_constant(10**6, 6, 60).C.value
    print()
    print("estimator error by depth and order (vs depth-10^6 reference)")
    print(f"{'depth':>9} {'order':>6} {'true error':>12} {'reported bound':>15}")
    for exp in range(2, args.max_depth_exp + 1):
        depth = 10**exp
        for order in (3, 4, 6):
            est = estimate_constant(depth, order, 40)
            err = abs(est.C.value - reference)
            print(
                f"{depth:>9} {order:>6} {err:>12.2E} {est.truncation_bound:>15.2E}"
                + ("   (!) error above bound" if err > est.truncation_bound.value else "")
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
