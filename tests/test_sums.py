"""Tests for the logistic tail sums, their error reporting, and the bootstrap."""

from __future__ import annotations

import math
import random
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.critical import _abel_summand, estimate_constant
from quadrec.errors import DomainError, ExactCapError, RefusalError
from quadrec.numerics import GUARD_DIGITS, CPoly, PrecReal, euler_gamma, horner
from quadrec.recurrence import MAX_DEPTH, logistic_decimals, logistic_integers, logistic_iterate
from quadrec.series_engine import tail_bound, telescope
from quadrec.sums import (
    _FAMILY,
    _LOG_REST,
    DEPTH,
    DIVERGENCE_DECIMALS,
    MAX_DIGITS_BOOTSTRAP,
    MAX_DIGITS_POWER,
    MAX_DIGITS_S1,
    MAX_POWER,
    ORDER,
    _bits,
    _divergence_precision,
    _family_summand,
    _one_pass,
    _power_summand,
    _rounding_coefficient,
    _s1_summand,
    _slope,
    _telescoped_sum,
    bootstrap_check,
    harmonic_divergence_diagnostic,
    power_sum,
    regularized_s1,
    s2_identity_check,
    sum_of_power_sums,
)

# Published 15-digit (truncated) values for the convergent power sums.
POWER_SUM_STRINGS = {
    3: "0.159488853036112",
    4: "0.068977706072225",
    5: "0.032622409767106",
    6: "0.015934111084642",
    7: "0.007884618832013",
    8: "0.003923447888623",
}


# ---------------------------------------------------------------------------
# the exact telescoping identity for m = 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 20])
def test_s2_identity_holds_exactly(n):
    witness = s2_identity_check(n)
    assert witness.holds
    assert witness.partial == witness.complement


@pytest.mark.parametrize("n", [*range(11), 16])
def test_s2_partial_sum_is_reduced_over_the_dyadic_denominator(n):
    # alpha_k = m_k/2**(2**k) with m_k odd, so the sum of squares has
    # denominator 2**(2**(n+1)) and an odd numerator
    witness = s2_identity_check(n)
    assert witness.partial.denominator == 2 ** (2 ** (n + 1))
    assert witness.partial.numerator % 2 == 1
    if n <= 10:
        assert witness.partial == sum((a * a for a in logistic_iterate(n)), Fraction(0))


def test_s2_identity_witness_values():
    witness = s2_identity_check(2)
    assert witness.partial == Fraction(89, 256)
    assert witness.complement == Fraction(1, 2) - Fraction(39, 256)


def test_s2_identity_respects_exact_cap():
    # the cap applies to n itself; the witness quietly allows the one extra
    # orbit step it needs for the complement
    with pytest.raises(ExactCapError):
        s2_identity_check(31)


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def test_power_sum_two_recovers_exact_half():
    result = power_sum(2, 15)
    assert result.value.digit_string(15) == "0.500000000000000"
    assert result.m == 2


@pytest.mark.parametrize("m", sorted(POWER_SUM_STRINGS))
def test_power_sums_match_published_digits(m):
    result = power_sum(m, 13)
    reference = Decimal(POWER_SUM_STRINGS[m])
    assert abs(result.value.value - reference) < Decimal("1e-12")


def test_power_sums_are_bracketed_by_the_leading_term():
    # alpha_0 = 1/2 dominates: 2^-m < s_m < 2^(1-m)
    for m in range(3, 9):
        value = power_sum(m, 10).value.value
        assert Decimal(2) ** -m < value < Decimal(2) ** (1 - m)


def test_consecutive_power_sums_approach_ratio_half():
    s7 = power_sum(7, 12).value.value
    s8 = power_sum(8, 12).value.value
    assert abs(s8 / s7 - Decimal("0.49761")) < Decimal("1e-3")


def test_power_sum_rejects_small_m_and_caps_digits():
    with pytest.raises(DomainError):
        power_sum(1, 10)
    with pytest.raises(DomainError):
        power_sum(2, 0)
    with pytest.raises(RefusalError):
        power_sum(3, MAX_DIGITS_POWER + 1)


def test_hopeless_powers_are_refused_before_any_work(monkeypatch):
    import quadrec.sums as sums

    def forbidden(*args):
        raise AssertionError("a refused power builds no telescope and walks no orbit")

    monkeypatch.setattr(sums, "telescope", forbidden)
    monkeypatch.setattr(sums, "logistic_integers", forbidden)
    for m, digits in [(10**6, 3), (MAX_POWER + 1, 1), (MAX_POWER + 1, MAX_DIGITS_POWER)]:
        with pytest.raises(RefusalError, match=f"limited to {MAX_POWER}"):
            power_sum(m, digits)


@pytest.mark.parametrize("digits", [1, MAX_DIGITS_POWER])
def test_the_first_refused_power_fails_its_relative_check(digits):
    # the early refusal anticipates the check of the pass, and no more
    with pytest.raises(RefusalError, match="error bound"):
        _telescoped_sum(_power_summand(MAX_POWER + 1), digits)


# the true sum is S_n + G(alpha_{n+1}) - sum_{k>n} R(alpha_k) at every n, so
# moving the cut from N to 2N may shift the telescoped value by no more than
# the bound reported at N; at precision 60 rounding adds less than 1e-50
_DEEP_PRECISION = 60
_DEEP_CTX = Context(prec=_DEEP_PRECISION)


@pytest.fixture(scope="module")
def deep_orbit():
    stream = logistic_decimals(_DEEP_PRECISION)
    return [next(stream) for _ in range(2 * DEPTH + 2)]


def _telescoped(alphas, n, term, G, with_log=False):
    ctx = _DEEP_CTX
    partial = Decimal(0)
    for alpha in alphas[: n + 1]:
        partial = ctx.add(partial, term(alpha))
    x = alphas[n + 1]
    tail = horner(G.decimals(ctx), x, ctx)
    if with_log:
        tail = ctx.add(tail, ctx.ln(x))
    return ctx.add(partial, tail)


def _assert_cut_shift_inside_estimate(alphas, result, *summand):
    assert result.terms_summed == DEPTH + 1
    shift = abs(_telescoped(alphas, DEPTH, *summand) - _telescoped(alphas, 2 * DEPTH, *summand))
    assert shift <= result.error_estimate.value + Decimal("1e-50")


def test_deeper_direct_sums_stay_inside_the_error_estimate(deep_orbit):
    ctx = _DEEP_CTX

    def cube(a):
        return ctx.multiply(a, ctx.multiply(a, a))

    def geometric(a):
        return ctx.divide(ctx.multiply(a, a), ctx.subtract(1, a))

    cases = [
        (power_sum(3, 13), cube, telescope(CPoly([0, 0, 0, 1]), ORDER)[0]),
        (sum_of_power_sums(10), geometric, telescope(_FAMILY, ORDER)[0]),
    ]
    for result, term, G in cases:
        _assert_cut_shift_inside_estimate(deep_orbit, result, term, G)


def test_error_estimate_dominates_true_tail_shift_for_s1(deep_orbit):
    # s_1 differs from sum alpha_k + ln(alpha_{n+1}) + H(alpha_{n+1}) by the
    # constant gamma, which drops out of the comparison
    _assert_cut_shift_inside_estimate(
        deep_orbit, regularized_s1(8), lambda a: a, telescope(_LOG_REST, ORDER)[0], True
    )


def test_tail_correction_is_reported_and_small():
    # for g = x^3, G(x) = x^2/2 + O(x^3) and alpha_{N+1} <= 1/(N+3), so the
    # correction G(alpha_{N+1}) stays below 1/(N+2)^2
    result = power_sum(3, 12)
    assert result.tail_correction.value != 0
    assert abs(Fraction(result.tail_correction.value)) < Fraction(1, (DEPTH + 2) ** 2)
    assert result.error_estimate.value < Decimal("1e-14")


@pytest.mark.parametrize(
    "g",
    [CPoly([0] * m + [1]) for m in range(2, 2 * ORDER + 4)]
    + [_FAMILY, _LOG_REST, _abel_summand(ORDER)],
    ids=[f"x^{m}" for m in range(2, 2 * ORDER + 4)] + ["family", "log", "abel"],
)
def test_telescoped_residual_starts_past_the_order(g):
    G, R = telescope(g, ORDER)
    assert not any(R.coeffs[: ORDER + 2])

    def value(poly, x):
        return sum((c * x**n for n, c in enumerate(poly.coeffs)), Fraction(0))

    for x in (Fraction(1, 7), Fraction(2, 5)):
        assert value(G, x) - value(G, x - x * x) == value(g, x) + value(R, x)


_IDENTITY_CASES = (
    [(f"x^{m}", CPoly.variable() ** m, ORDER) for m in range(2, 20)]
    + [("family", _FAMILY, ORDER), ("log", _LOG_REST, ORDER)]
    + [(f"abel-{order}", _abel_summand(order), order) for order in [*range(3, 21), 40, 80]]
)


@pytest.mark.parametrize(
    "g, order", [case[1:] for case in _IDENTITY_CASES], ids=[case[0] for case in _IDENTITY_CASES]
)
def test_telescoping_identity_holds_exactly(g, order):
    # G(x - x^2) = sum_n G_n (x - x^2)**n, built term by term as polynomials
    G, R = telescope(g, order)
    step = CPoly.variable() - CPoly.variable() ** 2
    shifted = sum((c * step**n for n, c in enumerate(G.coeffs)), CPoly())
    assert G.degree <= order
    assert G - shifted - g == R
    assert not any(R.coeffs[: order + 2])


def test_s2_is_the_smallest_telescope():
    # G = x solves G(x) - G(x - x^2) = x^2 with no residual at all
    G, R = telescope(CPoly([0, 0, 1]), ORDER)
    assert G == CPoly([0, 1])
    assert not any(R.coeffs)
    assert tail_bound(R, DEPTH + 1) == 0
    assert power_sum(2, 15).error_estimate.value == 0


@pytest.mark.parametrize("order", [16, 56])
def test_telescope_at_a_higher_order_extends_g(order):
    # G_n depends only on g_2..g_{n+1}, so G at order M is G at order M + 8
    # truncated to degree M
    G, _R = telescope(_abel_summand(order), order)
    longer, _R = telescope(_abel_summand(order + 8), order + 8)
    assert G == CPoly(longer.coeffs[: order + 1])


# the Fraction forms of tail_bound and _slope, kept as reference oracles
def _fraction_tail_bound(R, start, omitted_from=None):
    base = start + 1
    bound = sum(
        (abs(r) / (Fraction(base) ** (d - 1) * (d - 1)) for d, r in enumerate(R.coeffs) if r),
        Fraction(0),
    )
    if omitted_from is not None:
        bound += Fraction(base + 1, base) / (
            Fraction(base) ** (omitted_from - 1) * (omitted_from - 1)
        )
    return bound


def _fraction_slope(poly):
    return sum(
        (n * abs(c) / 2 ** (n - 1) for n, c in enumerate(poly.coeffs) if n and c), Fraction(0)
    )


def _random_cpoly(rng, degree, low=0):
    """Seeded random coefficients, about a fifth of them 0, on x**low..x**degree."""
    return CPoly(
        Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        if n >= low and rng.random() < 0.8
        else 0
        for n in range(degree + 1)
    )


_STARTS = [DEPTH + 1, 10**4 + 1, 10**7 + 1]


@pytest.mark.parametrize("seed", range(3))
def test_tail_bound_matches_its_fraction_form(seed):
    rng = random.Random(seed)
    for degree in range(41):
        R = _random_cpoly(rng, degree, low=2)
        for start in _STARTS:
            for omitted_from in (None, 18, degree + 2):
                assert tail_bound(R, start, omitted_from) == _fraction_tail_bound(
                    R, start, omitted_from
                )


@pytest.mark.parametrize("order", [3, 6, 16, 20, 56])
def test_tail_bound_of_abel_residuals_matches_its_fraction_form(order):
    _G, R = telescope(_abel_summand(order), order)
    for start in _STARTS:
        for omitted_from in (None, 18, order + 2):
            assert tail_bound(R, start, omitted_from) == _fraction_tail_bound(
                R, start, omitted_from
            )


def test_tail_bound_refuses_a_residual_below_x_squared():
    with pytest.raises(DomainError):
        tail_bound(CPoly([0, 1, 1]), DEPTH + 1)


@pytest.mark.parametrize("seed", range(3))
def test_slope_matches_its_fraction_form(seed):
    rng = random.Random(seed)
    for degree in range(41):
        poly = _random_cpoly(rng, degree)
        assert _slope(poly) == _fraction_slope(poly)
    for summand in (_power_summand(5), _family_summand(), _s1_summand()):
        assert _slope(summand.G) == _fraction_slope(summand.G)
        assert _slope(summand.R) == _fraction_slope(summand.R)


# ---------------------------------------------------------------------------
# the one floored pass and its derived rounding bound
# ---------------------------------------------------------------------------

_SUMMANDS = {
    "x^3": (_power_summand(3), lambda x: x**3),
    "x^8": (_power_summand(8), lambda x: x**8),
    "family": (_family_summand(), lambda x: x * x / (1 - x)),
    "x": (_s1_summand(), lambda x: x),
}


def _poly(coeffs, x):
    return sum((c * x**n for n, c in enumerate(coeffs)), Fraction(0))


@pytest.mark.parametrize("name", sorted(_SUMMANDS))
def test_floored_summands_round_down(name):
    summand, g = _SUMMANDS[name]
    for bits in (5, 64, 190):
        for x in (1, 3, 2 ** (bits - 2) + 7, 2 ** (bits - 1)):
            exact = 2**bits * g(Fraction(x, 2**bits))
            assert summand.floor(x, bits) <= exact < summand.floor(x, bits) + 1


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("bits", [20, 64])
@pytest.mark.parametrize("name", sorted(_SUMMANDS))
def test_pass_replays_the_exact_orbit_within_its_rounding_term(name, bits, depth):
    # against sum_{k<=N} g(alpha_k) + G(alpha_{N+1}) on the exact rationals;
    # for g = x the tail also holds ln x, and 0 <= ln(x/alpha) <= (x - alpha)/alpha
    summand, g = _SUMMANDS[name]
    alphas = logistic_iterate(depth + 1)
    exact = sum((g(a) for a in alphas[:-1]), Fraction(0)) + _poly(summand.G.coeffs, alphas[-1])
    direct, tail, x_last = _one_pass(summand, depth, bits)
    gap = direct + tail - exact
    log_gap = Fraction(0)
    if summand.harmonic:
        x = Fraction(x_last, 2**bits)
        log_gap = (x - alphas[-1]) / alphas[-1]
    bound = _rounding_coefficient(summand, depth) / 2**bits
    assert -bound <= gap and gap + log_gap <= bound


_CAPPED = {
    **{
        f"s{m}": (_power_summand(m), lambda m=m: power_sum(m, MAX_DIGITS_POWER))
        for m in range(2, 9)
    },
    "family": (_family_summand(), lambda: sum_of_power_sums(MAX_DIGITS_POWER)),
    "s1": (_s1_summand(), lambda: regularized_s1(MAX_DIGITS_S1)),
}


@pytest.mark.parametrize("name", list(_CAPPED))
def test_capped_sums_agree_with_a_finer_pass(name):
    # the same pass 128 bits finer moves the value by no more than the
    # rounding part of the reported bound (the tail part is common to both),
    # and B keeps that rounding part near one unit of the working precision
    summand, compute = _CAPPED[name]
    result = compute()
    precision = result.value.precision
    coefficient = _rounding_coefficient(summand, DEPTH)
    bits = _bits(coefficient, precision) + 128
    direct, tail, x_last = _one_pass(summand, DEPTH, bits)
    finer = direct + tail
    slack = Fraction(1, 10 ** (precision + 30))
    if summand.harmonic:
        ctx = Context(prec=precision + 40)
        finer += Fraction(ctx.ln(Decimal(f"{x_last * 5**bits}E-{bits}")))
        finer -= Fraction(euler_gamma(precision + 40).value)
    rounding = Fraction(result.error_estimate.value) - tail_bound(
        summand.R, DEPTH + 1, summand.omitted_from
    )
    assert 0 <= rounding < Fraction(2, 10 ** (precision - 1))
    gap = abs(Fraction(result.value.value) - finer)
    assert gap <= rounding + coefficient / 2**bits + slack


# Values (rounded to 45 decimals) and error bounds (rounded up) of the sums
# at their digit caps, from an independent pass at depth 10^4 and order 8.
_DEEPER_PASS = {
    "s3": ("0.159488853036112597469390748938005194492790801", "8.304E-38"),
    "s4": ("0.068977706072225194938781497876010388985581602", "1.661E-37"),
    "s5": ("0.032622409767106002306343819098307216151848588", "1.119E-37"),
    "s6": ("0.015934111084642422102686963666890481498800960", "1.628E-37"),
    "s7": ("0.007884618832013486579813872957190796485604040", "5.086E-37"),
    "s8": ("0.003923447888623422928508986220649161557004754", "6.102E-37"),
    "s1": ("-1.601964782946687989829738948749005814823814698", "2.386E-37"),
    "family": ("0.792742904181309179666861265447735713590191173", "1.420E-36"),
}


@pytest.mark.parametrize("name", list(_DEEPER_PASS))
def test_sums_agree_with_a_deeper_lower_order_pass(name):
    # two rigorous enclosures of the same sum must overlap; the frozen value
    # is off by at most half a unit in its 45th decimal
    frozen, frozen_bound = (Fraction(text) for text in _DEEPER_PASS[name])
    result = _CAPPED[name][1]()
    gap = abs(Fraction(result.value.value) - frozen)
    assert gap <= frozen_bound + Fraction(result.error_estimate.value) + Fraction(1, 2 * 10**45)


@pytest.mark.parametrize("name", list(_CAPPED))
def test_capped_bounds_keep_their_margin(name):
    # DEPTH and ORDER give bounds of at most 7.8e-48 at the caps; a cut in
    # either that gives back most of that margin fails here
    assert _CAPPED[name][1]().error_estimate.value <= Decimal("1e-45")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=15))
def test_power_sum_property(m, digits):
    result = power_sum(m, digits)
    value = Fraction(result.value.value)
    error = Fraction(result.error_estimate.value)
    assert result.m == m and result.terms_summed == DEPTH + 1
    assert error >= tail_bound(_power_summand(m).R, DEPTH + 1)
    assert error <= Fraction(1, 10 ** (digits + 2)) * value
    if m == 2:
        assert value == Fraction(1, 2) and error == 0
    else:
        # the published digits are truncated: s_m lies in [ref, ref + 1e-15)
        reference = Fraction(POWER_SUM_STRINGS[m])
        assert reference - error <= value < reference + Fraction(1, 10**15) + error


# ---------------------------------------------------------------------------
# the regularized harmonic-like sum
# ---------------------------------------------------------------------------


def test_regularized_s1_eight_digits():
    result = regularized_s1(8)
    assert result.value.digit_string(8) == "-1.60196478"
    assert result.m == 1


def test_regularized_s1_digit_cap():
    with pytest.raises(RefusalError):
        regularized_s1(MAX_DIGITS_S1 + 1)


def test_regularized_s1_first_term_dominates():
    # alpha_0 + (alpha_1 - 1) + ... starts at 1/2 - 3/4 - ...; the sum is
    # firmly negative and larger than -2
    value = regularized_s1(6).value.value
    assert Decimal(-2) < value < Decimal(-1)


# ---------------------------------------------------------------------------
# the resummed family sum_{m>=2} s_m
# ---------------------------------------------------------------------------


def test_family_sum_value_and_marker():
    result = sum_of_power_sums(10)
    assert result.value.digit_string(10) == "0.7927429042"
    assert result.m == 0  # marker: not a single power sum


def test_family_sum_decomposes_into_members():
    # sigma - 1/2 - (s_3 + ... + s_8) is exactly the tail sum_{m>=9} s_m,
    # which the leading term 2^-m puts near 0.0039
    sigma = sum_of_power_sums(10).value.value
    members = sum(Decimal(POWER_SUM_STRINGS[m]) for m in range(3, 9))
    remainder = sigma - Decimal("0.5") - members
    assert Decimal("0.003") < remainder < Decimal("0.005")


# ---------------------------------------------------------------------------
# bootstrap identity
# ---------------------------------------------------------------------------


def test_bootstrap_residual_is_tiny():
    report = bootstrap_check(6)
    assert abs(report.residual.value) < Decimal("1e-6")
    assert report.digits == 6


def test_bootstrap_residual_is_inside_the_c_estimate_bound():
    # the orbit sums carry bounds below 1e-47, so the residual is the error of
    # the estimate of C that bootstrap_check compares against
    report = bootstrap_check(6)
    estimate = estimate_constant(10**5, 6, 6 + 2 * GUARD_DIGITS)
    assert abs(report.residual.value) <= estimate.truncation_bound.value


@pytest.mark.parametrize("n", range(8))
def test_reciprocal_orbit_telescopes_exactly(n):
    # 1/alpha_{k+1} - 1/alpha_k = 1/(1 - alpha_k), the identity behind the
    # bootstrap: 1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k)
    orbit = logistic_iterate(n)
    assert 1 / orbit[n] == 2 + n + sum((a / (1 - a) for a in orbit[:n]), Fraction(0))


def test_bootstrap_components():
    report = bootstrap_check(4)
    assert report.c.digit_string(15) == "1.767993786136154"
    assert report.gamma.digit_string(10) == "0.5772156649"
    assert report.s1.digit_string(4) == "-1.6020"
    assert report.sum_m_ge_2.digit_string(4) == "0.7927"
    assert abs(report.formula_value.value - report.c.value) == abs(
        report.residual.value
    )


def test_bootstrap_digit_cap():
    with pytest.raises(RefusalError):
        bootstrap_check(MAX_DIGITS_BOOTSTRAP + 1)
    with pytest.raises(DomainError):
        bootstrap_check(0)


# ---------------------------------------------------------------------------
# divergence diagnostic
# ---------------------------------------------------------------------------


def test_harmonic_divergence_reference_tracks_partial_sums():
    partial, reference = harmonic_divergence_diagnostic(10**3)
    assert partial.digit_string(10) == "5.8931398224"
    assert reference.digit_string(10) == "5.8830061609"
    assert abs(partial.value - reference.value) < Decimal("2e-2")
    # the gap shrinks roughly like ln(n)/n
    partial4, reference4 = harmonic_divergence_diagnostic(10**4)
    assert abs(partial4.value - reference4.value) < Decimal("2e-3")


def test_harmonic_divergence_requires_a_deep_orbit():
    with pytest.raises(DomainError):
        harmonic_divergence_diagnostic(99)


def test_divergence_precision_keeps_ten_decimals():
    # the floored orbit makes the integer sum high by less than
    # n (n + 1)/2 2**-B; the sum stays below ln(n + 2) + 1 < 100, so its one
    # rounding to P digits is off by at most half a unit of 10**(2 - P)
    n = 100
    while n <= MAX_DEPTH:
        assert math.log(n + 2) + 1 < 100
        precision, bits = _divergence_precision(n)
        floors = Fraction(n * (n + 1), 2 ** (bits + 1))
        rounding = Fraction(1, 2) * Fraction(10) ** (2 - precision)
        assert floors + rounding < Fraction(1, 10**DIVERGENCE_DECIMALS), n
        n *= 10


@pytest.mark.parametrize("n", [100, 1000, 10**4])
def test_divergence_integer_sum_within_its_bound(n):
    # the exact integer partial sum against the Decimal orbit at 60 digits,
    # whose own error, below n 10**-57, the 1e-50 absorbs
    precision, bits = _divergence_precision(n)
    total = Fraction(sum(islice(logistic_integers(bits), n + 1)), 2**bits)
    oracle = sum(Fraction(alpha) for alpha in islice(logistic_decimals(60), n + 1))
    slack = Fraction(1, 10**50)
    assert -slack <= total - oracle < Fraction(n * (n + 1), 2 ** (bits + 1)) + slack
    partial, _ = harmonic_divergence_diagnostic(n)
    assert partial.value == PrecReal(total, precision).value
