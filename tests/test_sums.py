"""Tests for the logistic tail sums, their error reporting, and the bootstrap."""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

import pytest

from quadrec.critical import _abel_summand, estimate_constant
from quadrec.errors import DomainError, ExactCapError, RefusalError
from quadrec.numerics import GUARD_DIGITS
from quadrec.recurrence import logistic_decimals, logistic_iterate
from quadrec.series_engine import eval_polynomial, tail_bound, telescope
from quadrec.sums import (
    _FAMILY,
    _LOG_REST,
    DEPTH,
    MAX_DIGITS_BOOTSTRAP,
    MAX_DIGITS_POWER,
    MAX_DIGITS_S1,
    ORDER,
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
    tail = eval_polynomial(G, x, ctx)
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
        (power_sum(3, 13), cube, telescope([0, 0, 0, 1], ORDER)[0]),
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
    result = power_sum(3, 12)
    assert result.tail_correction.value != 0
    assert abs(result.tail_correction.value) < Decimal("1e-8")
    assert result.error_estimate.value < Decimal("1e-14")


@pytest.mark.parametrize(
    "g",
    [[0] * m + [1] for m in range(2, 2 * ORDER + 4)]
    + [_FAMILY, _LOG_REST, _abel_summand(ORDER)],
    ids=[f"x^{m}" for m in range(2, 2 * ORDER + 4)] + ["family", "log", "abel"],
)
def test_telescoped_residual_starts_past_the_order(g):
    G, R = telescope(g, ORDER)
    assert not any(R[: ORDER + 2])

    def value(coeffs, x):
        return sum((c * x**n for n, c in enumerate(coeffs)), Fraction(0))

    for x in (Fraction(1, 7), Fraction(2, 5)):
        assert value(G, x) - value(G, x - x * x) == value(g, x) + value(R, x)


def test_s2_is_the_smallest_telescope():
    # G = x solves G(x) - G(x - x^2) = x^2 with no residual at all
    G, R = telescope([0, 0, 1], ORDER)
    assert G == [0, 1]
    assert not any(R)
    assert tail_bound(R, DEPTH + 1) == 0
    assert power_sum(2, 15).error_estimate.value == 0


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
    # the orbit sums carry bounds near 1e-37, so the residual is the error of
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
    partial, reference = harmonic_divergence_diagnostic(10**3, 30)
    assert partial.digit_string(10) == "5.8931398224"
    assert reference.digit_string(10) == "5.8830061609"
    assert abs(partial.value - reference.value) < Decimal("2e-2")
    # the gap shrinks roughly like ln(n)/n
    partial4, reference4 = harmonic_divergence_diagnostic(10**4, 30)
    assert abs(partial4.value - reference4.value) < Decimal("2e-3")


def test_harmonic_divergence_requires_a_deep_orbit():
    with pytest.raises(DomainError):
        harmonic_divergence_diagnostic(99, 30)
