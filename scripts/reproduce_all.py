#!/usr/bin/env python3
"""Regenerate every headline number of the package in one run.

Usage:
    python scripts/reproduce_all.py
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from quadrec.critical import estimate_constant, logistic_constant, residual_order_check
from quadrec.rate_constants import rate_constant_table
from quadrec.recurrence import classify
from quadrec.series_engine import fixed_point_defect, solve_coefficients
from quadrec.sums import (
    bootstrap_check,
    harmonic_divergence_diagnostic,
    power_sum,
    regularized_s1,
    s2_identity_check,
    sum_of_power_sums,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    t_start = time.perf_counter()

    section("Regimes")
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)):
        params = classify(p)
        print(f"p = {p}: {params.regime.value}, fixed point r = {params.r}, multiplier q = {params.q}")

    section("Rate constants C(p) = lim (r - a_k)/q^k  (15 digits, truncated)")
    t0 = time.perf_counter()
    for row in rate_constant_table(15):
        print(f"C({row.p}) = {row.digit_string()}   [{row.factors_used} factors]")
    print(f"({time.perf_counter() - t0:.3f}s for all eight)")

    section("Asymptotic series at p = 1/2: a_k ~ 1 + sum c[i][j] ln(k)^j / k^i")
    table = solve_coefficients(6)
    for line in table.format_text_lines():
        print(line)
    defect = fixed_point_defect(table)
    print(f"fixed-point defect through order 7: {'identically zero' if not defect.terms else defect.terms}")

    section("Critical constant C (Abel coordinate at depth 10^6)")
    t0 = time.perf_counter()
    est = estimate_constant(10**6, 6, 60)
    elapsed = time.perf_counter() - t0
    print(f"C = {est.C.digit_string(21)}  ({elapsed:.3f}s)")
    print(f"truncation bound {est.truncation_bound.value:.2E}")
    # a walked rerun: a request deeper than WALK_DEPTH is answered by a
    # planned shallower estimate, here depth 1000 at order 14
    rerun = estimate_constant(5000, 12, 60)
    print(
        f"depth 5000, order 12 rerun moves C by {abs(est.C.value - rerun.C.value):.1E} "
        f"(bounds {est.truncation_bound.value:.2E} and {rerun.truncation_bound.value:.2E})"
    )
    c, expc1 = logistic_constant(est)
    print(f"c = C/2 = {c.digit_string(15)},  exp(c-1) = {expc1.digit_string(10)}")

    section("Residuals of the order-I truncation (deflated slope ~ -(I+1))")
    for order in (1, 2, 3, 4):
        rows = residual_order_check(order, [10, 100, 1000], 40, c_value=est.C)
        rendered = ", ".join(f"k={k}: {r.value:.2E}" for k, r in rows)
        print(f"order {order}: {rendered}")

    section("Logistic tail sums (alpha_{k+1} = alpha_k(1 - alpha_k), alpha_0 = 1/2)")
    witness = s2_identity_check(12)
    print(
        f"s_2 identity at n = 12: partial == 1/2 - alpha_13 is {witness.holds} "
        f"(exact rationals, {witness.partial.denominator.bit_length()} denominator bits)"
    )
    print(f"s_2 = {power_sum(2, 15).value.digit_string(15)}")
    for m in range(3, 9):
        result = power_sum(m, 13)
        print(f"s_{m} = {result.value.digit_string(13)}   [{result.terms_summed} terms]")
    s1 = regularized_s1(8)
    print(f"s_1 = {s1.value.digit_string(8)}   [{s1.terms_summed} terms]")
    sigma = sum_of_power_sums(10)
    print(f"sum of s_m for m >= 2: {sigma.value.digit_string(10)}")

    section("Bootstrap identity c = 2 + gamma + s_1 + sum_(m>=2) s_m")
    report = bootstrap_check(6)
    print(f"left side  c       = {report.c.digit_string(12)}")
    print(f"right side formula = {report.formula_value.digit_string(12)}")
    print(f"residual           = {report.residual.value:.2E}")

    section("Divergence of sum alpha_k (grows like ln n + gamma + s_1)")
    for n in (10**3, 10**4):
        partial, reference = harmonic_divergence_diagnostic(n)
        print(
            f"n = {n}: partial {partial.digit_string(10)} vs "
            f"ln n + gamma + s_1 = {reference.digit_string(10)} "
            f"(gap {abs(partial.value - reference.value):.1E})"
        )

    print(f"\ntotal {time.perf_counter() - t_start:.3f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
