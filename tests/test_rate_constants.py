"""Tests for the non-critical rate constants C(p) and their diagnostics."""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.errors import DomainError, RefusalError
from quadrec.numerics import GUARD_DIGITS, _divide
from quadrec.rate_constants import (
    MAX_Q_BITS,
    ORDER,
    Q_MAX,
    TABLE_PS,
    _walk_plan,
    convergence_diagnostic,
    rate_constant,
    rate_constant_table,
)
from quadrec.recurrence import classify, orbit_error, orbit_integers
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
        assert bound.value < Decimal("1E-15")
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
    """The relative rounding bound (K + M + 14) 10**(1 - P)/2 that
    ``rate_constant`` derives for its walk of depth K at P working digits."""
    return (walk + ORDER + 14) * Decimal(10) ** (1 - precision) / 2


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


def _walk_value(p: Fraction, digits: int, walk: int, precision: int) -> Decimal:
    """2r tau_M(y_K)/q**K with every step of ``rate_constant``'s walk at
    ``precision``: the kernel's bits of the walk at ``digits``, with
    4 bits more for each extra digit, keep y_K within u of that precision,
    and tau_M is evaluated there in fixed point."""
    ctx = Context(prec=precision)
    params = classify(p)
    tau, _rho = koenigs(params.q, ORDER)
    bits = _walk_plan(params.q, digits)[-1] + 4 * (precision - digits - 2 * GUARD_DIGITS)
    value, _error = tau.at(next(islice(orbit_integers(params.q, bits), walk, None)), bits)
    q = _divide(params.q.numerator, params.q.denominator, ctx)
    d = ctx.divide(_divide(value, 1 << bits, ctx), ctx.power(q, walk))
    return ctx.multiply(_divide(2 * params.r.numerator, params.r.denominator, ctx), d)


@pytest.mark.parametrize("p, digits", PRODUCT_CASES)
def test_one_pass_stays_inside_its_derived_rounding_bound(p, digits):
    # the one walk at P = digits + 40 against the same walk at 2P + 20,
    # whose own rounding error is about 10**-(P + 20) times smaller
    result = rate_constant(p, digits)
    precision = digits + 40
    assert result.C.precision == precision
    walk = result.factors_used
    reference = _walk_value(Fraction(p), digits, walk, 2 * precision + 20)
    bound = _rounding_bound(walk, precision) + _rounding_bound(walk, 2 * precision + 20)
    assert abs(result.C.value - reference) <= bound * reference


@pytest.mark.parametrize(
    "p, digits",
    [(p, d) for p in TABLE_PS for d in (1, 15, 50)]
    + [(p, d) for p in (Q_MAX / 2, 1 - Q_MAX / 2) for d in (1, 15)],
)
def test_factor_count_is_the_least_that_meets_the_target(p, digits):
    # the walk stops at the first K at which ybar_K = (Y_K + E_K)/2**B
    # passes sum_n w_n ybar**(n-1) <= 9*10**-(D+3) and
    # sum_{n>=2} |tau_n| ybar**(n-1) <= 1/4, with w_n = |rho_n|/(q - q**n).
    # The module rounds each w_n up by less than 10**-11 relative, so step
    # K passes with the exact w_n, and no earlier step passes with each w_n
    # raised by 10**-11.  The checks keep the tail bound at or below
    # 10**-(D+2).
    result = rate_constant(p, digits)
    q = classify(p).q
    bits = _walk_plan(q, digits)[-1]
    tau, rho = koenigs(q, ORDER)
    weights = {n: abs(c) / (q - q**n) for n, c in enumerate(rho.coeffs) if c}
    taus = {n: abs(c) for n, c in enumerate(tau.coeffs) if n >= 2}

    def passes(n_bar, raised=Fraction(1)):
        y_bar = Fraction(n_bar, 2**bits)
        weighted = sum(raised * w * y_bar ** (n - 1) for n, w in weights.items())
        eta = sum(c * y_bar ** (n - 1) for n, c in taus.items())
        return weighted <= Fraction(9, 10 ** (digits + 3)) and eta <= Fraction(1, 4)

    k = result.factors_used
    orbit = islice(orbit_integers(q, bits), k + 1)
    y_bars = [y + orbit_error(q, j) for j, y in enumerate(orbit)]
    assert passes(y_bars[k])
    # both sums grow with ybar, which falls at every step of the walk, so
    # no step before K passes if step K - 1 does not
    assert all(a > b for a, b in zip(y_bars, y_bars[1:]))
    assert not passes(y_bars[k - 1], 1 + Fraction(1, 10**11))
    assert result.tail_bound.value <= Decimal(10) ** -(digits + 2)


def test_the_plan_halves_t0_until_both_checks_pass(monkeypatch):
    # with every root four times too large, T_0/2 fails a check and the plan
    # halves twice more; B and every result stay as they were
    import quadrec.rate_constants as rate_constants

    cases = [
        (Fraction(2, 5), 15),
        (Fraction(499, 1000), 15),
        (Fraction(3, 4), 50),
        (Fraction(1, 5), 1),
        (Fraction(501, 1000), 2),
    ]

    def shown(result):
        return result.digit_string(), result.factors_used, result.tail_bound.value

    expected = [shown(rate_constant(p, digits)) for p, digits in cases]
    _tau, _checks, t, shift, bits = _walk_plan(Fraction(2, 5), 15)
    root, stop_sums, lows = rate_constants._root, rate_constants._stop_sums, []
    monkeypatch.setattr(rate_constants, "_root", lambda n, m: 4 * root(n, m))
    monkeypatch.setattr(
        rate_constants, "_stop_sums", lambda c, n, low: lows.append(low) or stop_sums(c, n, low)
    )
    _tau, _checks, wide_t, wide_shift, wide_bits = _walk_plan(Fraction(2, 5), 15)
    assert (wide_t - 1, wide_shift, wide_bits) == (4 * (t - 1), shift, bits)
    assert bits == 196
    assert lows == [shift + 1, shift + 2, shift + 3]
    assert [shown(rate_constant(p, digits)) for p, digits in cases] == expected


@pytest.mark.parametrize(
    "p, digits",
    [(p, d) for p in TABLE_PS for d in (1, 15, 50)]
    + [(p, 15) for p in (Q_MAX / 2, 1 - Q_MAX / 2, Fraction(1, 10**400), 1 - Fraction(1, 10**400))],
)
def test_tail_bound_is_an_upward_rounding_of_the_derived_bound(p, digits):
    # in exact rationals, tail_bound >= 2r q**-K W(ybar), with
    # W(y) = sum_n |rho_n| y**n/(q - q**n) and ybar = (Y_K + E_K)/2**B, the
    # kernel's upper bound on y_K, and tail_bound <= 10**-(D+2).  It is one
    # rounding up of that bound, with q**K bounded below by the walk's
    # q_power (relative (K + 3) 10**(1 - P)/2) and weights rounded up once
    # to 12 digits, so it also lies within 3*10**-11 relative above it.
    result = rate_constant(p, digits)
    params, walk = classify(p), result.factors_used
    bits = _walk_plan(params.q, digits)[-1]
    y = next(islice(orbit_integers(params.q, bits), walk, None))
    y_bar = Fraction(y + orbit_error(params.q, walk), 2**bits)
    q, (_tau, rho) = params.q, koenigs(params.q, ORDER)
    weight = sum(abs(c) * y_bar**n / (q - q**n) for n, c in enumerate(rho.coeffs) if c)
    derived = 2 * params.r * weight / q**walk
    assert derived <= Fraction(result.tail_bound.value) <= Fraction(1, 10 ** (digits + 2))
    assert Fraction(result.tail_bound.value) <= derived * (1 + Fraction(3, 10**11))


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
    with pytest.raises(RefusalError, match="no geometric rate") as refusal:
        rate_constant(Fraction(1, 2))
    with pytest.raises(RefusalError, match="no geometric rate") as diagnostic:
        convergence_diagnostic(Fraction(1, 2), 10, 30)
    # one refusal text for the same input
    assert str(refusal.value) == str(diagnostic.value)


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


def test_rate_constant_refuses_a_q_past_its_size_cap():
    # q = 2/10**1233 has 4095 bits and is served at the digit cap;
    # q = 2/10**1234 has 4099 and is refused before any work
    served = rate_constant(Fraction(1, 10**1233), 50)
    assert max(served.q.numerator.bit_length(), served.q.denominator.bit_length()) <= MAX_Q_BITS
    with pytest.raises(RefusalError, match=f"^q bits 4099 exceeds the limit of {MAX_Q_BITS}$"):
        rate_constant(Fraction(1, 10**1234), 50)


def test_rate_constant_rejects_bad_inputs():
    with pytest.raises(DomainError):
        rate_constant(Fraction(3, 2))
    with pytest.raises(DomainError):
        rate_constant(0)
    with pytest.raises(RefusalError):
        rate_constant_table(51)
    with pytest.raises(DomainError, match="precision must be at least 1"):
        convergence_diagnostic(Fraction(1, 5), 10, 0)
    # a malformed value is reported before a refused one, at p = 1/2 too
    with pytest.raises(DomainError, match="digits must be at least 1"):
        rate_constant(Fraction(1, 2), 0)
    with pytest.raises(DomainError, match="precision must be at least 1"):
        convergence_diagnostic(Fraction(1, 2), 10, 0)


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
    # partial product b_K/q**K, at the walk depth K.  Row K's ratio is
    # within the relative 10**(1-P) at P = 70 derived for the diagnostic;
    # C is within its tail bound and its walk's derived rounding of the
    # constant.
    result = rate_constant(Fraction(2, 5), digits=12)
    k = result.factors_used
    rows = convergence_diagnostic(Fraction(2, 5), k, 70)
    partial = Fraction(rows[-1].ratio.value)
    row_error = 1
    upper = partial * (1 + row_error / 10**69)
    lower = partial * (1 - row_error / 10**69) * (1 - result.q**k / (1 - result.q))
    value = Fraction(result.C.value)
    slack = Fraction(result.tail_bound.value) + value * Fraction(
        _rounding_bound(k, result.C.precision)
    )
    assert lower - slack <= value <= upper + slack


def test_deep_diagnostic_row_keeps_its_relative_precision():
    # at k = 3000 and p = 1/5, y_k is below 10**-1190, far below the
    # kernel's 2**-B: the ratio comes from the product Z_k carried beside
    # the walk.  The partial product is within q**k/(1 - q) relative above
    # C, so row and constant agree within both their bounds.
    rows = convergence_diagnostic(Fraction(1, 5), 3000, 70)
    row = rows[-1]
    assert row.k == 3000 and 0 < row.b.value < Decimal("1e-1190")
    result = rate_constant(Fraction(1, 5), 50)
    value, ratio = Fraction(result.C.value), Fraction(row.ratio.value)
    slack = Fraction(result.tail_bound.value) + value * Fraction(
        _rounding_bound(result.factors_used, result.C.precision)
    )
    assert abs(ratio - value) <= ratio / 10**69 + slack
    # b_k = ratio q**k, within (k + 2) 10**(1 - P) relative
    q_power = Fraction(2, 5) ** 3000
    assert abs(Fraction(row.b.value) / ratio - q_power) <= q_power * 3002 / 10**69


#: factors_used as the Decimal orbit stream walked it, before the one
#: integer kernel: the depths are a property of the stop checks alone.
FROZEN_FACTORS = {
    Fraction(1, 5): (1, 6, 21),
    Fraction(1, 4): (2, 8, 27),
    Fraction(1, 3): (3, 14, 47),
    Fraction(2, 5): (6, 27, 87),
    Fraction(3, 5): (6, 27, 87),
    Fraction(2, 3): (3, 14, 47),
    Fraction(3, 4): (2, 8, 27),
    Fraction(4, 5): (1, 6, 21),
    Fraction(499, 1000): (888, 3261, 9970),
    Fraction(501, 1000): (888, 3261, 9970),
    Q_MAX / 2: (1783, 6532, 19956),
    Fraction(1, 10**400): (1, 1, 1),
}


@pytest.mark.parametrize(
    "p", FROZEN_FACTORS, ids=lambda p: "1/10^400" if p == Fraction(1, 10**400) else str(p)
)
def test_factor_counts_are_frozen(p):
    assert tuple(rate_constant(p, d).factors_used for d in (1, 15, 50)) == FROZEN_FACTORS[p]


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
    # p and 1 - p walk the one orbit in y = p b/q (module docstring): the
    # same K, and C(p) = r C(1 - p).  Each computed C is within the
    # relative bound d = (K + M + 14) 10**(1 - P)/2 of its exact walk
    # value X, so |X| <= |C|/(1 - d)
    high, low = rate_constant(p, digits), rate_constant(1 - p, digits)
    assert high.factors_used == low.factors_used
    K, r = high.factors_used, classify(p).r
    d = Fraction(K + ORDER + 14, 2 * 10 ** (digits + 2 * GUARD_DIGITS - 1))
    c_high, c_low = Fraction(high.C.value), Fraction(low.C.value)
    assert abs(c_high - r * c_low) <= d / (1 - d) * (abs(c_high) + r * abs(c_low))
