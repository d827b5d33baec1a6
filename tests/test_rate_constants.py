"""Tests for the non-critical rate constants C(p) and their diagnostics."""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.errors import DomainError, RefusalError
from quadrec.rate_constants import (
    Q_MAX,
    TABLE_PS,
    convergence_diagnostic,
    rate_constant,
    rate_constant_table,
)
from quadrec.recurrence import classify

# Published 15-digit values (final digit truncated, not rounded).
TABLE_STRINGS = {
    Fraction(1, 5): "0.423894537869731",
    Fraction(1, 4): "0.392906852755779",
    Fraction(1, 3): "0.322119375942447",
    Fraction(2, 5): "0.237646658969724",
    Fraction(3, 5): "0.158431105979816",
    Fraction(2, 3): "0.161059687971223",
    Fraction(3, 4): "0.130968950918593",
    Fraction(4, 5): "0.105973634467432",
}


def test_table_covers_the_eight_reference_points():
    assert tuple(TABLE_PS) == tuple(sorted(TABLE_STRINGS))


def test_table_reproduces_published_digit_strings():
    rows = rate_constant_table(15)
    assert len(rows) == 8
    for row in rows:
        assert row.digit_string() == TABLE_STRINGS[row.p]


def test_digit_string_truncates_while_precreal_rounds():
    # the published convention truncates the last digit; default rendering
    # of the underlying value rounds half-even, and the two differ here
    result = rate_constant(Fraction(1, 5))
    assert result.digit_string() == "0.423894537869731"
    assert result.C.digit_string(15) == "0.423894537869732"


def test_factor_count_is_deterministic_and_symmetric_in_q():
    a = rate_constant(Fraction(2, 5))
    b = rate_constant(Fraction(3, 5))
    # p and 1-p share the multiplier q, hence the same tail length
    assert a.q == b.q == Fraction(4, 5)
    assert a.factors_used == b.factors_used
    again = rate_constant(Fraction(2, 5))
    assert again.factors_used == a.factors_used
    assert again.C.value == a.C.value


def test_tail_bound_is_certified_below_target():
    for row in rate_constant_table(15):
        assert row.tail_bound < Fraction(1, 10**15)
        assert row.tail_bound > 0


def _direct_partial_product(p: Fraction, factors: int, precision: int) -> Decimal:
    """r * prod_{j<K} (r + a_j)/(2r), with its own orbit loop."""
    ctx = Context(prec=precision)
    params = classify(p)
    r = ctx.divide(Decimal(params.r.numerator), Decimal(params.r.denominator))
    p_dec = ctx.divide(Decimal(p.numerator), Decimal(p.denominator))
    two_r, a, product = ctx.multiply(2, r), Decimal(0), r
    for _ in range(factors):
        product = ctx.multiply(product, ctx.divide(ctx.add(r, a), two_r))
        a = ctx.add(ctx.subtract(1, p_dec), ctx.multiply(p_dec, ctx.multiply(a, a)))
    return product


#: The table points at 15 and 50 digits, and both points with q = Q_MAX.
PRODUCT_CASES = [(p, d) for p in TABLE_PS for d in (15, 50)] + [
    (Q_MAX / 2, 15),
    (1 - Q_MAX / 2, 15),
]


@pytest.mark.parametrize("p, digits", PRODUCT_CASES)
def test_rate_constant_is_the_direct_partial_product(p, digits):
    # the residual iteration b_K/q**K against the product of the factors
    # themselves, at the same K and 25 extra digits
    result = rate_constant(p, digits)
    assert result.q <= Q_MAX
    direct = _direct_partial_product(Fraction(p), result.factors_used, digits + 25)
    assert abs(result.C.value - direct) < Decimal(10) ** -(digits + 10)


def _residual_quotient(p: Fraction, factors: int, precision: int) -> Decimal:
    """b_K / q**K from b_0 = r, b_{k+1} = b_k (q - p b_k), at ``precision``."""
    ctx = Context(prec=precision)
    params = classify(p)
    q = ctx.divide(Decimal(params.q.numerator), Decimal(params.q.denominator))
    minus_p = ctx.divide(Decimal(-p.numerator), Decimal(p.denominator))
    b = ctx.divide(Decimal(params.r.numerator), Decimal(params.r.denominator))
    for _ in range(factors):
        b = ctx.multiply(b, ctx.fma(minus_p, b, q))
    return ctx.divide(b, ctx.power(q, factors))


def _rounding_bound(factors: int, precision: int) -> Decimal:
    """The relative rounding bound (3.02 K + 2.01) 10**(1 - P) that
    ``rate_constant`` derives for its one pass at P working digits."""
    return (Decimal("3.02") * factors + Decimal("2.01")) * Decimal(10) ** (1 - precision)


@pytest.mark.parametrize("p, digits", PRODUCT_CASES)
def test_one_pass_stays_inside_its_derived_rounding_bound(p, digits):
    # the one run at P = digits + 40 against the same iteration at 2P + 20,
    # whose own rounding error is about 10**-(P + 20) times smaller
    result = rate_constant(p, digits)
    precision = digits + 40
    assert result.C.precision == precision
    factors = result.factors_used
    reference = _residual_quotient(Fraction(p), factors, 2 * precision + 20)
    bound = _rounding_bound(factors, precision) + _rounding_bound(factors, 2 * precision + 20)
    assert abs(result.C.value - reference) <= bound * reference


@pytest.mark.parametrize(
    "p, digits",
    [(p, d) for p in TABLE_PS for d in (1, 15, 50)]
    + [(p, d) for p in (Q_MAX / 2, 1 - Q_MAX / 2) for d in (1, 15)],
)
def test_factor_count_is_the_least_that_meets_the_target(p, digits):
    # q**K/(1 - q) <= 10**-(D+2) < q**(K-1)/(1 - q), in exact rationals
    result = rate_constant(p, digits)
    q, k = result.q, result.factors_used
    target = Fraction(1, 10 ** (digits + 2))
    assert q**k / (1 - q) <= target < q ** (k - 1) / (1 - q)


@pytest.mark.parametrize(
    "p", [Fraction(1, 10**400), 1 - Fraction(1, 10**400)], ids=["1/10^400", "1-1/10^400"]
)
def test_factor_count_survives_a_ratio_that_underflows_a_float(p):
    # q = 2/10**400 is 0.0 as a float; one factor already meets the target
    result = rate_constant(p, 10)
    assert float(result.q) == 0.0
    assert result.factors_used == 1
    assert result.tail_bound == Fraction(2, 10**400) / (1 - result.q)


def test_rate_constant_refuses_critical_point():
    with pytest.raises(RefusalError):
        rate_constant(Fraction(1, 2))


@pytest.mark.parametrize("p", [Fraction(4999, 10000), Fraction(5001, 10000)])
def test_rate_constant_refuses_multiplier_above_cutoff(p):
    assert classify(p).q > Q_MAX
    with pytest.raises(RefusalError):
        rate_constant(p)


def test_rate_constant_accepts_multiplier_at_cutoff():
    # q = 999/1000 exactly on the boundary is still allowed
    p = Q_MAX / 2
    result = rate_constant(p, digits=10)
    assert result.q == Q_MAX
    assert 0 < result.C.value < 1


def test_rate_constant_rejects_bad_inputs():
    with pytest.raises(DomainError):
        rate_constant(Fraction(3, 2))
    with pytest.raises(DomainError):
        rate_constant(0)
    with pytest.raises(RefusalError):
        rate_constant_table(51)


def test_diagnostic_rows_decrease_toward_the_constant():
    rows = convergence_diagnostic(Fraction(1, 5), 20, 30)
    ratios = [row.ratio.value for row in rows[1:]]  # k = 0 row is the seed
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    limit = rate_constant(Fraction(1, 5)).C.value
    assert all(r > limit for r in ratios)
    # twenty factors already land within 1e-7 of the limit
    assert abs(ratios[-1] - limit) < Decimal("1e-7")


def test_diagnostic_first_ratio_is_half_of_fixed_point():
    # b_1/q = r*(r - a_1)/(2*r*p) collapses to r/2 at a_0 = 0
    for p in (Fraction(1, 5), Fraction(3, 4)):
        rows = convergence_diagnostic(p, 1, 25)
        r = classify(p).r
        expected = Decimal(r.numerator) / Decimal(r.denominator) / 2
        assert abs(rows[-1].ratio.value - expected) < Decimal("1e-20")


def test_sandwich_bound_brackets_the_constant():
    # partial * (1 - tail) <= C <= partial for the certified tail.  The
    # diagnostic needs headroom beyond the ~k*log10(1/q) digits lost to
    # cancellation in r - a_k, hence the generous precision.
    result = rate_constant(Fraction(2, 5), digits=12)
    rows = convergence_diagnostic(Fraction(2, 5), result.factors_used, 70)
    partial = rows[-1].ratio.value
    tail = result.tail_bound.value
    assert partial >= result.C.value >= partial * (1 - tail) - Decimal("1e-30")


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(1, 20), max_value=Fraction(9, 20), max_denominator=40
    )
)
def test_partial_products_are_monotone_for_random_parameters(p):
    rows = convergence_diagnostic(p, 12, 30)
    ratios = [row.ratio.value for row in rows[1:]]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_observed_double_ratio_between_conjugate_points():
    # Observed coincidence recorded as a note: C(1/3) is numerically twice
    # C(2/3).  The relation follows from r(2/3) = 1/2 scaling the residuals;
    # it is checked loosely here as a regression canary, not asserted theory.
    a = rate_constant(Fraction(1, 3))
    b = rate_constant(Fraction(2, 3))
    assert abs(a.C.value - 2 * b.C.value) < Decimal("1e-14")
