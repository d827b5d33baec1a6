"""Tests for the numeric substrate: PrecReal, CPoly, gamma, ladders."""

from __future__ import annotations

import decimal
import operator
import random
import sys
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadrec.critical import (
    _abel_summand,
    estimate_constant,
    logistic_constant,
    residual_order_check,
)
from quadrec.errors import DomainError, RefusalError, check_ranges
from quadrec.numerics import (
    CPoly,
    PrecReal,
    _divide,
    _exact_text,
    _int_horner,
    _int_text,
    confirmed_value,
    euler_gamma,
)
from quadrec.recurrence import classify, iterate_real, logistic_point
from quadrec.series_engine import eval_series_coeffs, solve_coefficients, telescope
from quadrec.sums import (
    _power_summand,
    bootstrap_check,
    harmonic_divergence_diagnostic,
    regularized_s1,
)

# ---------------------------------------------------------------------------
# PrecReal
# ---------------------------------------------------------------------------


def test_precreal_carries_explicit_precision():
    x = PrecReal(Context(prec=30).divide(1, 3), 30)
    assert x.precision == 30
    assert str(x.value).startswith("0.33333333333333333333333333333")
    assert str(PrecReal(x.value, 5)) == "0.33333"
    assert PrecReal(Decimal("0.123456"), 3).value == Decimal("0.123")
    with pytest.raises(TypeError):
        PrecReal(x.value)  # the precision is always given


@pytest.mark.parametrize(
    "value, precision",
    [(Fraction(1, 3), 30), (1, 30), ("0.5", 30), (PrecReal(Decimal(1), 30), 5)],
    ids=["Fraction", "int", "str", "PrecReal"],
)
def test_precreal_takes_only_a_decimal(value, precision):
    # a caller rounds a rational with _divide on a Context it names
    with pytest.raises(DomainError, match="cannot build PrecReal from"):
        PrecReal(value, precision)


@pytest.mark.parametrize("compare", [operator.eq, operator.ne, operator.lt])
def test_precreal_does_not_compare(compare):
    # equal values would read unequal under identity; a caller compares .value
    a, b = PrecReal(Decimal(1), 30), PrecReal(Decimal(1), 30)
    with pytest.raises(TypeError):
        compare(a, b)
    with pytest.raises(TypeError):
        compare(a, Fraction(1))
    assert compare(a.value, b.value) is compare(1, 1)


def test_precreal_is_unhashable():
    with pytest.raises(TypeError):
        hash(PrecReal(Decimal(1), 30))


def _quotient(value: Fraction, precision: int) -> Decimal:
    """``value`` rounded half-even to ``precision`` digits, as the library
    rounds a rational: by ``_divide`` on a ``Context`` it names."""
    return _divide(value.numerator, value.denominator, Context(prec=precision))


def _big_int(bits_and_seed):
    bits, seed = bits_and_seed
    return random.Random(seed).getrandbits(bits) | 1


# numerators and denominators up to 10**5 bits, of any relative size
_operands = st.one_of(
    st.integers(min_value=1, max_value=10**30),
    st.tuples(st.integers(1, 10**5), st.integers(0, 2**32)).map(_big_int),
)


def _tie(head_exp_sign):
    # head followed by a 5 at 10**exp: half-way between two values with
    # len(str(head)) digits
    head, exp, sign = head_exp_sign
    return sign * Fraction(10 * head + 5) * Fraction(10) ** exp


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(
        st.builds(Fraction, st.integers(-(10**40), 10**40), _operands),
        st.builds(lambda n, d, sign: sign * Fraction(n, d), _operands, _operands, st.sampled_from([1, -1])),
        # exact quotients: a terminating decimal times a power of ten
        st.builds(
            lambda n, e, sign: sign * Fraction(n) * Fraction(2) ** e * Fraction(5) ** (e // 2),
            st.integers(1, 10**50), st.integers(-200, 40), st.sampled_from([1, -1]),
        ),
        st.tuples(st.integers(1, 10**30), st.integers(-40, 40), st.sampled_from([1, -1])).map(_tie),
    ),
    precision=st.integers(1, 120),
)
def test_precreal_of_a_fraction_is_the_decimal_quotient(value, precision):
    # a Fraction reaches a PrecReal through _divide on the caller's Context:
    # same digits, same rounding (half-even) and the same exponent, so an
    # exact quotient keeps the ideal exponent 0 ("0.25", "12", "1.0E+2")
    ctx = Context(prec=precision)
    expected = ctx.divide(Decimal(value.numerator), Decimal(value.denominator))
    assert str(PrecReal(_quotient(value, precision), precision)) == str(expected)


def _exact_pair(head_d_e):
    # n/d = head/2**e, a terminating decimal, with d of any size
    head, d, e = head_d_e
    return head * d, d * 2**e


def _just_above(head_d_k):
    # n/d = head*10**k + 1/d: the digits past a short head are zeros, and
    # only the remainder of the division says the quotient is inexact
    head, d, k = head_d_k
    return head * 10**k * d + 1, d


def _tie_pair(head_d_k):
    # n/d = (10*head + 5)/10**k, passed unreduced: half-way between two
    # values with the digits of head, at that many digits of precision
    head, d, k = head_d_k
    return (10 * head + 5) * d, d * 10**k, len(str(head))


#: Every rounding that ``decimal`` defines.
_ROUNDINGS = (
    decimal.ROUND_CEILING,
    decimal.ROUND_DOWN,
    decimal.ROUND_FLOOR,
    decimal.ROUND_HALF_DOWN,
    decimal.ROUND_HALF_EVEN,
    decimal.ROUND_HALF_UP,
    decimal.ROUND_UP,
    decimal.ROUND_05UP,
)

# divisors past 1024 bits alone, so that a tie takes the integer route
_big_operands = st.tuples(st.integers(1100, 10**4), st.integers(0, 2**32)).map(_big_int)


@pytest.mark.parametrize("rounding", _ROUNDINGS)
@settings(max_examples=200, deadline=None)
@given(
    case=st.one_of(
        st.tuples(
            st.one_of(
                st.tuples(_operands, _operands),
                st.tuples(st.integers(1, 10**40), _operands, st.integers(0, 60)).map(_exact_pair),
                st.tuples(st.integers(1, 10**6), _operands, st.integers(0, 60)).map(_just_above),
            ),
            st.integers(1, 120),
        ).map(lambda pair_precision: (*pair_precision[0], pair_precision[1])),
        st.integers(1, 120)
        .flatmap(
            lambda digits: st.tuples(
                st.integers(10 ** (digits - 1), 10**digits - 1), _big_operands, st.integers(0, 60)
            )
        )
        .map(_tie_pair),
    ),
    sign=st.sampled_from([1, -1]),
)
def test_divide_rounds_as_context_divide(rounding, case, sign):
    # the integer route (operands past 1024 bits), and Context.divide below
    # it, under every rounding: same sign, digits and exponent
    n, d, precision = case
    n *= sign
    ctx = Context(prec=precision, rounding=rounding)
    expected = ctx.divide(Decimal(n), Decimal(d))
    assert _divide(n, d, ctx).as_tuple() == expected.as_tuple()


@pytest.mark.parametrize("rounding", _ROUNDINGS)
@pytest.mark.parametrize(
    "n, d",
    [
        (10**400 - 1, 10**400),
        (1 - 10**400, 10**400),
        (10**401 - 1, 10**400),
        (1 - 10**401, 10**400),
    ],
    ids=["0.99..9", "-0.99..9", "9.99..9", "-9.99..9"],
)
def test_divide_carries_into_the_next_power_of_ten(n, d, rounding):
    # 400 nines round up to 10**P at every P below 400: the carry of the
    # integer route moves the exponent, as Context.divide does
    for precision in range(1, 61):
        ctx = Context(prec=precision, rounding=rounding)
        assert str(_divide(n, d, ctx)) == str(ctx.divide(Decimal(n), Decimal(d)))


@pytest.mark.parametrize(
    "value, precision, text",
    [
        (Fraction(1, 4), 10, "0.25"),
        (Fraction(1194592, 100), 10, "11945.92"),
        (Fraction(100), 2, "1.0E+2"),
        (Fraction(-25, 2), 2, "-12"),
        (Fraction(-35, 2), 2, "-18"),
        (Fraction(999, 1000), 2, "1.0"),
        (Fraction(0), 5, "0"),
    ],
)
def test_precreal_of_a_fraction_examples(value, precision, text):
    assert str(PrecReal(_quotient(value, precision), precision)) == text


def test_library_glue_rounds_on_a_context_of_its_precision():
    # each value must carry its working precision P and equal the same
    # operations done on a Context(prec=P); an operation that slipped into
    # the thread's 28-digit default context would round differently
    estimate = estimate_constant(10**4, 6, 60)
    ctx = Context(prec=60)
    c = ctx.divide(estimate.C.value, 2)
    checks = [(60, logistic_constant(estimate), [c, ctx.exp(ctx.subtract(c, 1))])]

    ctx = Context(prec=40)
    table = solve_coefficients(3)
    c_value = ctx.plus(estimate_constant(10**5, 4, 40).C.value)
    samples = iterate_real(classify(Fraction(1, 2)), 20, 40, sample_ks=[10, 20])
    values = table.substitute(Fraction(c_value), 3, 40)
    series = [eval_series_coeffs(values, s.k, 40) for s in samples]
    residuals = [ctx.subtract(s.a.value, v).copy_abs() for s, v in zip(samples, series)]
    checks.append((40, [r for _k, r in residual_order_check(3, [10, 20], 40)], residuals))

    report = bootstrap_check(6)
    ctx = Context(prec=46)
    c_half = ctx.divide(ctx.plus(estimate_constant(10**5, 6, 46).C.value), 2)
    formula = ctx.add(ctx.add(2, report.gamma.value), ctx.plus(report.s1.value))
    formula = ctx.add(formula, ctx.plus(report.sum_m_ge_2.value))
    checks.append((46, [report.residual], [ctx.subtract(c_half, formula)]))

    _partial, reference = harmonic_divergence_diagnostic(1000)
    ctx = Context(prec=16)
    value = ctx.add(ctx.ln(1000), euler_gamma(16).value)
    value = ctx.add(value, ctx.plus(regularized_s1(8).value.value))
    checks.append((16, [reference], [value]))

    for precision, got, want in checks:
        assert [x.precision for x in got] == [precision] * len(want)
        assert [x.value for x in got] == want


def test_digit_string_rounds_half_even_by_default():
    x = PrecReal(Decimal("0.125"), 30)  # ties-to-even at 2 digits
    assert x.digit_string(2) == "0.12"
    y = PrecReal(Decimal("0.375"), 30)  # -> 0.38
    assert y.digit_string(2) == "0.38"


def test_digit_string_truncation_mode():
    x = PrecReal(_quotient(Fraction(2, 3), 30), 30)
    assert x.digit_string(5, rounding=ROUND_DOWN) == "0.66666"
    assert x.digit_string(5) == "0.66667"


def test_digit_string_pads_zeros():
    assert PrecReal(Decimal("0.5"), 20).digit_string(6) == "0.500000"
    assert PrecReal(Decimal(0), 20).digit_string(4) == "0.0000"


def test_digit_string_rejects_nonpositive_digits():
    with pytest.raises(DomainError):
        PrecReal(Decimal(1), 20).digit_string(0)


# ---------------------------------------------------------------------------
# euler_gamma
# ---------------------------------------------------------------------------


def test_euler_gamma_prefix():
    g = euler_gamma(30)
    assert g.digit_string(30) == "0.577215664901532860606512090082"


def test_euler_gamma_precision_cap():
    euler_gamma(105)  # the stored literal supports this
    with pytest.raises(RefusalError):
        euler_gamma(106)


# ---------------------------------------------------------------------------
# confirmed_value
# ---------------------------------------------------------------------------


def test_confirmed_value_returns_higher_precision_run():
    calls = []

    def compute(precision):
        calls.append(precision)
        return PrecReal(Context(prec=precision).divide(1, 3), precision)

    out = confirmed_value(compute, digits=15, precision=35)
    assert calls == [35, 55]
    assert out.precision == 55


def test_confirmed_value_detects_precision_drift():
    def unstable(precision):
        # pretends to converge to different values at different precisions
        return PrecReal(Decimal(1 if precision < 50 else 2), precision)

    with pytest.raises(RefusalError, match="reruns at precisions 30 and 50 disagree"):
        confirmed_value(unstable, digits=10, precision=30)


# ---------------------------------------------------------------------------
# CPoly: exact polynomials in the free constant
# ---------------------------------------------------------------------------


def test_cpoly_constructors_and_normalization():
    c = CPoly.variable()
    zero = CPoly.constant(0)
    assert c.coeffs == (Fraction(0), Fraction(1))
    assert zero.coeffs == ()
    # trailing zeros are trimmed
    assert (c - c).coeffs == ()


def test_cpoly_is_immutable():
    c = CPoly.variable()
    with pytest.raises(AttributeError):
        c.coeffs = (Fraction(1),)


def test_cpoly_ring_ops():
    c = CPoly.variable()
    p = 3 * c - 5
    q = c * c
    assert (p + q)(Fraction(2)) == Fraction(5)
    assert (p * q)(Fraction(2)) == Fraction(4)
    assert (q / 2)(Fraction(3)) == Fraction(9, 2)


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda c: CPoly.constant(0), "0"),
        (lambda c: CPoly.constant(-2), "-2"),
        (lambda c: c, "C"),
        (lambda c: 3 * c - 5, "3*C - 5"),
        (lambda c: Fraction(3, 2) * c * c - 5 * c + 5, "3/2*C^2 - 5*C + 5"),
        (lambda c: -c * c / 2 + c - 1, "-1/2*C^2 + C - 1"),
    ],
)
def test_cpoly_format_str(build, text):
    assert build(CPoly.variable()).format_str() == text


def test_cpoly_coeff_strings_ascending():
    c = CPoly.variable()
    assert (3 * c * c - c / 2 + 7).coeff_strings() == ["7", "-1/2", "3"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(0),
            st.integers(-(10**40), 10**40),
            st.fractions(max_denominator=10**15),
        ),
        max_size=8,
    ),
    st.integers(1, 10**12),
)
@example([], 1)
@example([Fraction(-3, 4), 0, 0, 5, Fraction(7, -21)], 1)
@example([0, -12, 0, Fraction(6, 4)], 6)
def test_cpoly_coeff_strings_are_the_fraction_strings(coeffs, scale):
    # zero, negative, integer and interior-zero coefficients, over a
    # stored denominator that need not divide every numerator
    poly = CPoly(coeffs) / scale
    assert poly.coeff_strings() == [str(c) for c in poly.coeffs]


def test_exact_text_matches_str_past_the_int_string_limit():
    # the split-and-recombine rendering against str(int), with the limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(7)
        values = [3**40000, -(7**9000) + 1, 1 << 30000, (1 << 30000) - 1]
        values += [rng.getrandbits(bits) for bits in (4096, 14500, 60001)]
        for value in values:
            assert len(str(value)) > 1200
            assert _int_text(value) == str(value)
        assert len(str(values[0])) > 4300
        assert _exact_text(values[0], values[2]) == f"{values[0]}/{values[2]}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_coefficients_are_written_in_full():
    # past the int-string limit, where str() of a Fraction raises ValueError
    assert CPoly([Fraction(1, 10**5000)]).coeff_strings() == ["1/1" + "0" * 5000]
    poly = CPoly([-(10**5000), Fraction(-(10**5000), 3)])
    assert poly.format_str() == f"-1{'0' * 5000}/3*C - 1{'0' * 5000}"


def test_long_request_integers_are_written_in_full_in_messages():
    # a limit's value and PrecReal's precision, past the int-string limit
    long = 10**5000
    with pytest.raises(RefusalError, match=f"^depth 1{'0' * 5000} exceeds the limit of 10$"):
        check_ranges(("depth", long, 0, 10))
    with pytest.raises(DomainError, match="^depth must be at least 0$"):
        check_ranges(("depth", -long, 0, 10))
    with pytest.raises(DomainError, match=f"got -1{'0' * 5000}$"):
        PrecReal(Decimal(1), -long)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
small_polys = st.lists(small_rationals, max_size=4).map(CPoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_rationals)
def test_cpoly_evaluation_is_a_ring_morphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


# reference arithmetic on plain lists of Fraction coefficients
def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padded(a, b):
    n = max(len(a), len(b))
    return list(a) + [Fraction(0)] * (n - len(a)), list(b) + [Fraction(0)] * (n - len(b))


def _reference_product(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            out[s + t] += x * y
    return _trimmed(out)


wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
coefficient_lists = st.lists(wide_rationals, max_size=5)
nonzero_scalars = st.one_of(
    st.integers(-30, 30), wide_rationals
).filter(lambda s: s != 0)


@settings(max_examples=100, deadline=None)
@given(coefficient_lists, coefficient_lists, nonzero_scalars)
def test_cpoly_arithmetic_matches_fraction_coefficients(a, b, scalar):
    p, q = CPoly(a), CPoly(b)
    x, y = _padded(a, b)
    assert (p + q).coeffs == _trimmed(u + v for u, v in zip(x, y))
    assert (p - q).coeffs == _trimmed(u - v for u, v in zip(x, y))
    assert (-p).coeffs == _trimmed(-u for u in a)
    assert (p * q).coeffs == _reference_product(a, b)
    assert (p * scalar).coeffs == _trimmed(u * scalar for u in a)
    assert (p / scalar).coeffs == _trimmed(u / Fraction(scalar) for u in a)


@settings(max_examples=80, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_cpoly_coeffs_come_out_normalised(a, b):
    for poly in (CPoly(a + [0, 0]), CPoly(a) + CPoly(b), CPoly(a) * CPoly(b), CPoly(a) - CPoly(a)):
        coeffs = poly.coeffs
        assert all(type(c) is Fraction for c in coeffs)
        assert not coeffs or coeffs[-1] != 0
        assert poly.degree == len(coeffs) - 1
        assert CPoly(coeffs) == poly


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, coefficient_lists, nonzero_scalars)
def test_equal_cpolys_hash_equally(a, b, scalar):
    p, q = CPoly(a), CPoly(b)
    for other in ((p + q) - q, p * scalar / scalar, CPoly(c * 6 for c in a) / 6):
        assert other == p
        assert hash(other) == hash(p)


def test_cpoly_equal_fractions_in_any_form_are_one_polynomial():
    half = CPoly([Fraction(2, 4)])
    assert half == CPoly([Fraction(1, 2)]) == Fraction(1, 2)
    assert hash(half) == hash(CPoly([Fraction(1, 2)]))
    assert CPoly([Fraction(2, 4), 0]).coeffs == (Fraction(1, 2),)
    assert CPoly([Fraction(3, 6), Fraction(4, 6)]).coeff_strings() == ["1/2", "2/3"]
    with pytest.raises(ZeroDivisionError):
        CPoly.variable() / 0


def _fraction_horner(poly, x):
    """The reference evaluation: Horner's rule on ``Fraction`` coefficients."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _random_cpoly(rng, degree):
    return CPoly(
        Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)) if rng.random() < 0.8 else 0
        for _ in range(degree + 1)
    )


@pytest.mark.parametrize("seed", range(4))
def test_cpoly_call_matches_fraction_horner(seed):
    rng = random.Random(seed)
    points = [0, Fraction(0), -3, Fraction(-5, 7), Fraction(1, 2), Fraction(-1, 3)]
    points += [Fraction(rng.getrandbits(300) | 1, 1 << 301), Fraction(6, 1 << 40), Fraction(22, 7)]
    for degree in range(41):
        poly = _random_cpoly(rng, degree)
        for x in points:
            assert poly(x) == _fraction_horner(poly, x)
    for x in points:
        assert CPoly()(x) == 0
    # _int_horner itself on raw integers, unreduced: sum_t c_t p**t q**(d - t)
    pairs = [(0, 1), (-3, 1), (5, 1), (-5, 7), (22, 7), (-1, 1 << 64), (6, 1 << 40)]
    pairs += [(rng.getrandbits(300) - (1 << 299), 1 << 301), (rng.randint(-(10**9), 10**9), 10**9)]
    lists = [[], [0], [0, 0, 0], [-7], [3, 0, -1], [0, 0, 5]]
    for degree in (9, 40):
        lists.append([rng.randint(-(10**12), 10**12) * (rng.random() < 0.8) for _ in range(degree)])
    for coeffs in lists:
        top = max(len(coeffs) - 1, 0)
        for p, q in pairs:
            expected = sum(Fraction(c) * Fraction(p, q) ** t for t, c in enumerate(coeffs)) * q**top
            assert _int_horner(coeffs, p, q) == expected


# ---------------------------------------------------------------------------
# CPoly.at: the fixed-point value at an orbit point X/2**B
# ---------------------------------------------------------------------------


def _assert_within_count(poly, x, bits):
    """0 <= 2**B P(X/2**B) - V <= E <= 4, with P(X/2**B) exact."""
    value, error = poly.at(x, bits)
    gap = 2**bits * poly(Fraction(x, 2**bits)) - value
    assert 0 <= gap <= error <= 4


@st.composite
def _dyadic_cases(draw):
    """A polynomial with signed coefficients over large denominators, of
    degree 0..60, and a point X in [0, 2**(B-1)] with B in 2..600."""
    degree = draw(st.integers(min_value=0, max_value=60))
    numerators = st.integers(min_value=-(10**40), max_value=10**40)
    denominators = st.integers(min_value=1, max_value=10**30)
    coeffs = [Fraction(draw(numerators), draw(denominators)) for _ in range(degree + 1)]
    bits = draw(st.integers(min_value=2, max_value=600))
    return CPoly(coeffs), draw(st.integers(min_value=0, max_value=2 ** (bits - 1))), bits


@settings(max_examples=300, deadline=None)
@given(_dyadic_cases())
@example((CPoly([Fraction(-7, 3), Fraction(5, 11), Fraction(-1, 6)]), 2, 2))
# the error reaches 2.014 where a floored count E x would allow 2: E rounds up
@example((CPoly([Fraction(-38001, 8000), Fraction(-47001, 7000), Fraction(4999, 1000),
                 Fraction(38999, 8000), Fraction(-16001, 4000)]), 4, 3))
@example((CPoly([Fraction(10**30 + 1, 3**60)] * 61), 2**599, 600))
def test_cpoly_at_is_within_its_counted_error(case):
    _assert_within_count(*case)


def test_cpoly_at_is_exact_where_every_floor_is():
    # G = x, the s_2 telescope, keeps s_2 = 1/2 exact with no error term
    assert _power_summand(2).G == CPoly.variable()
    for bits in (2, 64, 601):
        for x in (0, 1, 3, 2 ** (bits - 1)):
            assert CPoly.variable().at(x, bits) == (x, 0)
    # dyadic coefficients and products: 2**3 (3/4 - x/2 + x**2) at x = 1/2
    assert CPoly([Fraction(3, 4), Fraction(-1, 2), 1]).at(4, 3) == (6, 0)
    # one inexact product floor, floor(-1 * 3/8), is counted once
    assert CPoly([Fraction(3, 4), Fraction(-1, 2), 1]).at(3, 3) == (5, 1)


def test_cpoly_at_on_the_abel_telescope_at_the_walk_depth():
    # H_80 at alpha_{10**4} as critical evaluates it: 70 digits of the point
    H, _R = telescope(_abel_summand(80), 80)
    x, bits = logistic_point(10**4, 70)
    _assert_within_count(H, x, bits)
    assert H.at(x, bits)[1] > 0
