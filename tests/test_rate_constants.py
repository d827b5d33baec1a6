"""Tests for the non-critical rate constants C(p) and their diagnostics."""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.errors import DomainError, RefusalError
from quadrec.numerics import GUARD_DIGITS, PrecReal, horner
from quadrec.rate_constants import (
    ORDER,
    Q_MAX,
    TABLE_PS,
    _upper,
    _walk_plan,
    convergence_diagnostic,
    rate_constant,
    rate_constant_table,
)
from quadrec.recurrence import classify, residual_decimals
from quadrec.series_engine import koenigs

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
        bound = row.tail_bound
        assert bound.value < PrecReal(Fraction(1, 10**15), bound.precision).value
        assert bound.value > 0


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


def _factor_count(q: Fraction, exponent: int) -> int:
    """A K with q**K/(1 - q) <= 10**-exponent, checked in exact rationals.

    The start comes from the logarithms of q's numerator and denominator,
    which are finite even where q underflows a float.
    """
    n, d = q.numerator, q.denominator
    k = math.ceil((exponent * math.log(10) + math.log(d) - math.log(d - n)) / math.log(d / n))
    while q**k / (1 - q) > Fraction(1, 10**exponent):
        k += 1
    return k


def _rounding_bound(walk: int, precision: int) -> Decimal:
    """The relative rounding bound M (3.02 K + 3.01) 10**(1 - P) that
    ``rate_constant`` derives for its walk of depth K at P working digits."""
    return ORDER * (Decimal("3.02") * walk + Decimal("3.01")) * Decimal(10) ** (1 - precision)


#: The table points at 15 and 50 digits, and both points with q = Q_MAX.
PRODUCT_CASES = [(p, d) for p in TABLE_PS for d in (15, 50)] + [
    (Q_MAX / 2, 15),
    (1 - Q_MAX / 2, 15),
]


@pytest.mark.parametrize("p, digits", PRODUCT_CASES)
def test_rate_constant_is_the_direct_partial_product(p, digits):
    # the walk against an independent direct partial product, run to
    # q**K'/(1 - q) <= 10**-(D+12) at D + 25 digits.  That product lies
    # within r 10**-(D+12) above C (each factor is below 1 and the tail
    # after K' factors is at most q**K'/(1 - q) of the product), and its
    # rounding at u = 10**-(D+24)/2 is below K' (6/((1 - q) r) + 5) u of it:
    # the orbit's map has slope 2 p a <= q, so a_j stays within
    # 5u/(1 - q) (1 + o(1)) of the exact orbit, and each factor
    # (r + a_j)/(2r) and its product round by at most 5u more.
    result = rate_constant(p, digits)
    params = classify(p)
    factors = _factor_count(params.q, digits + 12)
    direct = _direct_partial_product(Fraction(p), factors, digits + 25)
    u = Fraction(1, 2 * 10 ** (digits + 24))
    direct_error = params.r / 10 ** (digits + 12) + factors * (
        6 / ((1 - params.q) * params.r) + 5
    ) * u * Fraction(direct)
    walk_error = Fraction(result.tail_bound.value) + Fraction(
        _rounding_bound(result.factors_used, result.C.precision)
    ) * Fraction(result.C.value)
    assert abs(Fraction(result.C.value) - Fraction(direct)) <= walk_error + direct_error


def _walk_value(p: Fraction, walk: int, precision: int) -> Decimal:
    """sigma_M(b_K)/q**K with every step of ``rate_constant``'s walk at ``precision``."""
    ctx = Context(prec=precision)
    params = classify(p)
    sigma, _rho = koenigs(params.q, params.p, ORDER)
    b = next(islice(residual_decimals(params, precision), walk, None))
    q = PrecReal(params.q, precision).value
    return ctx.divide(horner(sigma.decimals(ctx), b, ctx), ctx.power(q, walk))


@pytest.mark.parametrize("p, digits", PRODUCT_CASES)
def test_one_pass_stays_inside_its_derived_rounding_bound(p, digits):
    # the one walk at P = digits + 40 against the same walk at 2P + 20,
    # whose own rounding error is about 10**-(P + 20) times smaller
    result = rate_constant(p, digits)
    precision = digits + 40
    assert result.C.precision == precision
    walk = result.factors_used
    reference = _walk_value(Fraction(p), walk, 2 * precision + 20)
    bound = _rounding_bound(walk, precision) + _rounding_bound(walk, 2 * precision + 20)
    assert abs(result.C.value - reference) <= bound * reference


@pytest.mark.parametrize(
    "p, digits",
    [(p, d) for p in TABLE_PS for d in (1, 15, 50)]
    + [(p, d) for p in (Q_MAX / 2, 1 - Q_MAX / 2) for d in (1, 15)],
)
def test_factor_count_is_the_least_that_meets_the_target(p, digits):
    # the walk stops at the first K whose b_K lies at or below T_0 and whose
    # bbar_K = b_K (1 + e_K), rounded up, passes both upward checks; the
    # checks keep the tail bound at or below 10**-(D+2)
    result = rate_constant(p, digits)
    params = classify(p)
    _s, w, eta, start = _walk_plan(params, digits)
    precision = digits + 40
    up = Context(prec=12, rounding=ROUND_CEILING)

    def passes(k, b):
        b_bar = up.multiply(b, up.add(1, Decimal(302 * k + 201).scaleb(-1 - precision)))
        return (
            b <= start
            and _upper(w, ORDER, b_bar, up) <= Decimal(9).scaleb(-(digits + 3))
            and _upper(eta, 1, b_bar, up) <= Decimal("0.25")
        )

    k = result.factors_used
    orbit = list(islice(residual_decimals(params, precision), k + 1))
    assert passes(k, orbit[k])
    assert not any(passes(j, b) for j, b in enumerate(orbit[:k]))
    assert result.tail_bound.value <= Decimal(10) ** -(digits + 2)


@pytest.mark.parametrize(
    "p", [Fraction(1, 10**400), 1 - Fraction(1, 10**400)], ids=["1/10^400", "1-1/10^400"]
)
def test_factor_count_survives_a_ratio_that_underflows_a_float(p):
    # q = 2/10**400 is 0.0 as a float; the threshold never goes through one,
    # and b_1 = 10**-400 r already lies below it.  C = (r/2) prod_{j>=1}
    # (r + a_j)/(2r) with every factor within about 10**-400 of 1.
    result = rate_constant(p, 10)
    assert float(result.q) == 0.0
    assert result.factors_used == 1
    assert 0 < result.tail_bound.value <= Decimal(10) ** -12
    r = classify(p).r
    assert abs(Fraction(result.C.value) - r / 2) <= r / 10**40


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
    # partial * (1 - q**K/(1 - q)) <= C <= partial for the exact K-th
    # partial product b_K/q**K, at the walk depth K.  Row K carries the
    # stream's relative bound (3.02K + 2.01) 10**(1-P) at P = 70 plus one
    # unit 10**(1-P) for each of its K multiplications by q = 4/5 (exact)
    # and its division; C is within its tail bound and its walk's derived
    # rounding of the constant.
    result = rate_constant(Fraction(2, 5), digits=12)
    k = result.factors_used
    rows = convergence_diagnostic(Fraction(2, 5), k, 70)
    partial = Fraction(rows[-1].ratio.value)
    row_error = Fraction(302 * k + 201, 100) + k + 1
    upper = partial * (1 + row_error / 10**69)
    lower = partial * (1 - row_error / 10**69) * (1 - result.q**k / (1 - result.q))
    value = Fraction(result.C.value)
    slack = Fraction(result.tail_bound.value) + value * Fraction(
        _rounding_bound(k, result.C.precision)
    )
    assert lower - slack <= value <= upper + slack


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


#: Points p > 1/2 whose conjugates 1 - p the test walks too: the four table
#: pairs, and two near the critical point, the second at q = Q_MAX.
CONJUGATE_PS = [Fraction(*pq) for pq in [(4, 5), (3, 4), (2, 3), (3, 5), (501, 1000), (1001, 2000)]]


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("p", CONJUGATE_PS, ids=str)
def test_rate_constant_is_r_times_the_conjugate_constant(p, digits):
    # b = r b' turns the walk at p into the walk at 1 - p (module docstring):
    # the same K, and C(p) = r C(1 - p).  Each computed C is within the
    # relative bound d = M (3.02 K + 3.01) 10**(1 - P) of its exact walk
    # value X, so |X| <= |C|/(1 - d)
    high, low = rate_constant(p, digits), rate_constant(1 - p, digits)
    assert high.factors_used == low.factors_used
    K, r = high.factors_used, classify(p).r
    d = Fraction(ORDER * (302 * K + 301), 100 * 10 ** (digits + 2 * GUARD_DIGITS - 1))
    c_high, c_low = Fraction(high.C.value), Fraction(low.C.value)
    assert abs(c_high - r * c_low) <= d / (1 - d) * (abs(c_high) + r * abs(c_low))
