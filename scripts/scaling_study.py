#!/usr/bin/env python3
"""Empirical scaling tables: solver cost vs order, orbit kernel steps per
second, telescope build cost vs order, the residual check's series at C
by order, estimator error vs depth, the Abel plan of deep critical-constant
requests, the tail sums' order and time by walk depth, rate-constant walk
depth vs q.

Usage:
    python scripts/scaling_study.py [--max-order 14] [--max-depth-exp 5]

The orbit kernel table walks ``recurrence.orbit_integers`` for 20 000
steps at B = bit_length(10^P) bits, for P = 40, 60 and 100 digits and
q = 1, 4/5 and 999/1000; each rate is the best of three walks.  At q < 1
the fixed-point orbit falls to 0 after about B ln 2/ln(1/q) steps, and
later steps are cheap, so q = 4/5 runs fastest.

The telescope table times one ``series_engine.telescope`` build of the Abel
summand at the fixed orders 6, 16, 56, 120 and 400; orders past the
solver's limit are allowed there, as critical-c requests deeper than 10^4
use them (up to order 58 within the caps), and order 400 is the one that
1000 digits of C would take at depth 10^4.  Its last column is the best of
three fixed-point evaluations (``CPoly.at``) of that H at the orbit point
X_{10^4}/2^B of ``recurrence.logistic_point(10^4, 1100)``, B = 3681.

The solver table times one ``series_engine.solve_coefficients`` call per
order; every call derives its table from the seeds.

The series table times ``critical.residual_order_check`` at orders 4, 12
and 20 over residual-check's 11 default steps k = 10, 20, ..., 10240, with
the C of a depth-10^5 estimate given, so that it is the call's own solve
of the c[i][j] to that order, the walk to k = 10240, one exact
substitution of C into the c[i][j] and one evaluation of the expansion
per k; each time is the best of three in-process calls.

The reference value for the error column is a depth-10^6 run, so shallow
rows display their true error next to the bound they reported themselves.
Rows deeper than 10^4 (``critical.WALK_DEPTH``) show planned estimates: the
orbit is walked 10^2, 10^3 or 10^4 steps at the least order that meets the
bound of the requested depth, so their errors can sit far inside their
bounds.

The Abel plan table shows, for the deep requests that the CLI makes
(critical-c at its default, residual-check's and bootstrap's estimates)
and for the caps, the walk depth W and order M' that ``critical._plan``
chooses, the plan's own bound at (W, M', P), which is at most the
request's, and the best of three in-process ``estimate_constant`` calls.

The tail-sums table walks the sums' orbit W = 125, 250, 500 and 1000
steps (``sums.DEPTH`` is 125) at the least telescope order M at which the
tail bounds of s_3, s_8, s_1 and the family sum are each at most their
bound at depth 1000 and order 16, the pair before (125, 29).  B is the
largest of the four passes' bits at the digit caps (15 digits, 8 for s_1),
and each time is the best of three in-process sums at the cap, each
building its telescope as ``power_sum`` and the others do.

The rate-constant table sets the Koenigs walk's depth (``factors_used``)
against the factor count the partial product would need, the least K with
q^K/(1 - q) <= 10^-(D+2), at p = q/2; its times are the best of three
in-process calls.
"""

from __future__ import annotations

import argparse
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

from quadrec.critical import (
    MAX_PRECISION,
    _abel_summand,
    _plan,
    _rounding,
    estimate_constant,
    residual_order_check,
)
from quadrec import sums
from quadrec.numerics import GUARD_DIGITS, CPoly, rounded_up
from quadrec.rate_constants import rate_constant
from quadrec.recurrence import MAX_DEPTH, logistic_point, orbit_integers
from quadrec.series_engine import MAX_ORDER, solve_coefficients, tail_bound, telescope


def _product_depth(q: Fraction, digits: int) -> int:
    """The least K with q**K/(1 - q) <= 10**-(digits + 2), in exact rationals."""
    n, d = q.numerator, q.denominator
    k = max(1, int(((digits + 2) * math.log(10) + math.log(d) - math.log(d - n)) / math.log(d / n)))
    target = (1 - q) / 10 ** (digits + 2)
    while q**k > target:
        k += 1
    while k > 1 and q ** (k - 1) <= target:
        k -= 1
    return k


@contextmanager
def _sums_at(depth: int, order: int):
    """The sums module with DEPTH and ORDER set to (depth, order) in the block."""
    names = ("DEPTH", "ORDER", "_FAMILY", "_LOG_REST")
    saved = {name: getattr(sums, name) for name in names}
    sums.DEPTH, sums.ORDER = depth, order
    sums._FAMILY = CPoly([0, 0] + [1] * order)
    sums._LOG_REST = CPoly([0, 0] + [Fraction(-1, n) for n in range(2, order + 2)])
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(sums, name, value)


#: The tail-sums table's sums: (label, summand, digit cap).
_TAIL_SUMS = (
    ("s_3", lambda: sums._power_summand(3), sums.MAX_DIGITS_POWER),
    ("s_8", lambda: sums._power_summand(8), sums.MAX_DIGITS_POWER),
    ("s_1", sums._s1_summand, sums.MAX_DIGITS_S1),
    ("family", sums._family_summand, sums.MAX_DIGITS_POWER),
)


def _tail_bounds(depth: int, order: int) -> list[Fraction]:
    with _sums_at(depth, order):
        summands = [summand() for _label, summand, _cap in _TAIL_SUMS]
    return [tail_bound(s.R, depth + 1, s.omitted_from) for s in summands]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=14)
    parser.add_argument("--max-depth-exp", type=int, default=5)
    args = parser.parse_args()
    if args.max_order > MAX_ORDER:
        parser.error(f"--max-order is at most {MAX_ORDER}, the solver's limit")

    print("solver cost by truncation order")
    print(f"{'order':>6} {'entries':>8} {'seconds':>8}")
    for order in range(4, args.max_order + 1, 2):
        t0 = time.perf_counter()
        table = solve_coefficients(order)
        elapsed = time.perf_counter() - t0
        entries = sum(1 for _ in table.iter_entries())
        print(f"{order:>6} {entries:>8} {elapsed:>8.3f}")

    print()
    print("orbit kernel steps per second (20000 steps)")
    print(f"{'q':>9} {'digits':>6} {'bits':>5} {'steps/s':>10}")
    steps = 20_000
    for q in (Fraction(1), Fraction(4, 5), Fraction(999, 1000)):
        for precision in (40, 60, 100):
            bits = (10**precision).bit_length()
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                for _y in islice(orbit_integers(q, bits), steps):
                    pass
                best = min(best, time.perf_counter() - t0)
            print(f"{str(q):>9} {precision:>6} {bits:>5} {steps / best:>10.3g}")

    print()
    print("telescope build by order (Abel summand)")
    print(f"{'order':>6} {'seconds':>9} {'at X_1e4 ms':>12}")
    x, bits = logistic_point(10**4, 1100)
    for order in (6, 16, 56, 120, 400):
        summand = _abel_summand(order)
        t0 = time.perf_counter()
        H, _R = telescope(summand, order)
        build = time.perf_counter() - t0
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            H.at(x, bits)
            seconds.append(time.perf_counter() - t0)
        print(f"{order:>6} {build:>9.5f} {1000 * min(seconds):>12.3f}")

    print()
    print("series at C by order (residual-check, 11 k's)")
    print(f"{'order':>6} {'ms':>7}")
    c_value = estimate_constant(10**5, 4, 40).C
    ks = [10 * 2**n for n in range(11)]
    for order in (4, 12, 20):
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            residual_order_check(order, ks, 40, c_value=c_value)
            seconds.append(time.perf_counter() - t0)
        print(f"{order:>6} {1000 * min(seconds):>7.2f}")

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

    print()
    print("Abel plan of deep critical-c requests")
    header = ("request", "N", "M", "P", "W", "M'", "plan bound", "ms")
    print("{:>22} {:>9} {:>3} {:>4} {:>6} {:>4} {:>11} {:>6}".format(*header))
    requests = [
        ("critical-c default", 10**6, 6, 60),
        ("residual-check", 10**5, 4, 40),
        ("bootstrap --digits 6", 10**5, 6, 46),
        ("caps", MAX_DEPTH, MAX_ORDER, MAX_PRECISION),
    ]
    for label, depth, order, precision in requests:
        walk, least, _H, _bound = _plan(depth, order, precision)
        _G, R = telescope(_abel_summand(least), least)
        own = 2 * tail_bound(R, walk, least + 2) + _rounding(walk, precision)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            estimate_constant(depth, order, precision)
            seconds.append(time.perf_counter() - t0)
        print(
            f"{label:>22} {depth:>9} {order:>3} {precision:>4} {walk:>6} {least:>4} "
            f"{rounded_up(own.numerator, own.denominator, 3):>11.2E} {1000 * min(seconds):>6.2f}"
        )

    print()
    print("tail sums by depth (least order within the depth-1000, order-16 tail bounds)")
    print(f"{'W':>5} {'M':>3} {'B':>4}" + "".join(f" {label + ' ms':>9}" for label, *_ in _TAIL_SUMS))
    targets = _tail_bounds(1000, 16)
    for depth in (125, 250, 500, 1000):
        order = 2
        while any(b > t for b, t in zip(_tail_bounds(depth, order), targets)):
            order += 1
        with _sums_at(depth, order):
            bits = max(
                sums._bits(sums._rounding_coefficient(summand(), depth), cap + 2 * GUARD_DIGITS)
                for _label, summand, cap in _TAIL_SUMS
            )
            row = f"{depth:>5} {order:>3} {bits:>4}"
            for _label, summand, cap in _TAIL_SUMS:
                seconds = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    sums._telescoped_sum(summand(), cap)
                    seconds.append(time.perf_counter() - t0)
                row += f" {1000 * min(seconds):>9.2f}"
        print(row)

    print()
    print("rate-constant walk depth by q (p = q/2)")
    print(f"{'q':>9} {'digits':>6} {'product K':>10} {'walk K':>7} {'ms':>7}")
    for q in (Fraction(4, 5), Fraction(49, 50), Fraction(499, 500), Fraction(999, 1000)):
        for digits in (15, 50):
            seconds = []
            for _ in range(3):
                t0 = time.perf_counter()
                result = rate_constant(q / 2, digits)
                seconds.append(time.perf_counter() - t0)
            print(
                f"{str(q):>9} {digits:>6} {_product_depth(q, digits):>10} "
                f"{result.factors_used:>7} {1000 * min(seconds):>7.2f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
