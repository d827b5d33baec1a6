"""Tests for the logistic tail sums, their error reporting, and the bootstrap."""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

import pytest

from quadrec.errors import DomainError, ExactCapError, RefusalError
from quadrec.numerics import PrecReal
from quadrec.series_engine import solve_coefficients
from quadrec.sums import (
    MAX_DIGITS_BOOTSTRAP,
    MAX_DIGITS_POWER,
    MAX_DIGITS_S1,
    _alpha_model,
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


def test_deeper_direct_sums_stay_inside_the_error_estimate():
    base = power_sum(3, 10, depth=10**4)
    deeper = power_sum(3, 10, depth=2 * 10**4)
    assert base.terms_summed < deeper.terms_summed
    assert abs(base.value.value - deeper.value.value) < base.error_estimate.value


def test_error_estimate_dominates_true_tail_shift_for_s1():
    base = regularized_s1(6, depth=10**5)
    deeper = regularized_s1(6, depth=2 * 10**5)
    assert abs(base.value.value - deeper.value.value) < base.error_estimate.value


def test_tail_correction_is_reported_and_small():
    result = power_sum(3, 12)
    assert result.tail_correction.value != 0
    assert abs(result.tail_correction.value) < Decimal("1e-8")
    assert result.error_estimate.value < Decimal("1e-14")


def test_alpha_model_coefficients_keep_the_working_precision():
    precision = 53
    c_dec = PrecReal("3.53598757227230810088726881356226466215261911090888889", precision).value
    model = _alpha_model(c_dec, Context(prec=precision))
    entries = {key: poly for key, poly in solve_coefficients(6).entries.items() if key[0] <= 4}
    assert set(model.terms) == set(entries)
    for key, poly in entries.items():
        exact = -poly(Fraction(c_dec)) / 2
        assert abs(Fraction(model.terms[key]) - exact) <= Fraction(1, 10**50) * max(1, abs(exact))


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
