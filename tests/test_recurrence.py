"""Tests for regime classification and the exact / precision-tracked orbits."""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.errors import DomainError, ExactCapError, RefusalError
from quadrec.numerics import _divide
from quadrec.recurrence import (
    EXACT_STEP_CAP,
    MAX_DEPTH,
    Params,
    Regime,
    classify,
    final_value,
    iterate_exact,
    iterate_real,
    logistic_decimals,
    logistic_iterate,
    logistic_point,
    orbit_error,
    orbit_integers,
)

# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p, regime, r, q",
    [
        (Fraction(1, 5), Regime.SUBCRITICAL, Fraction(1), Fraction(2, 5)),
        (Fraction(1, 2), Regime.CRITICAL, Fraction(1), Fraction(1)),
        (Fraction(3, 4), Regime.SUPERCRITICAL, Fraction(1, 3), Fraction(1, 2)),
    ],
)
def test_classify_examples(p, regime, r, q):
    params = classify(p)
    assert params.regime is regime
    assert params.r == r
    assert params.q == q


@pytest.mark.parametrize(
    "p",
    [0, 1, Fraction(3, 2), -1, Fraction(-1, 4), 2, "3", "-1/4"]
    # past the int-string limit, which str() of the Fraction would raise at
    + [pytest.param(Fraction(10**5000), id="10^5000")],
)
def test_classify_rejects_out_of_range(p):
    with pytest.raises(DomainError, match="p must satisfy 0 < p < 1"):
        classify(p)


@pytest.mark.parametrize(
    "p",
    ["two fifths", "1/0", None, float("nan"), "", "abc", "2//3", "0x10", "1e3e4"],
)
def test_classify_rejects_non_rationals(p):
    with pytest.raises(DomainError, match="p must be rational"):
        classify(p)


def test_classify_accepts_strings_and_floats_of_exact_halves():
    assert classify("2/5").p == Fraction(2, 5)
    assert classify("0.5").regime is Regime.CRITICAL


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2/5", Fraction(2, 5)),
        ("0.4", Fraction(2, 5)),
        (" 7/8 ", Fraction(7, 8)),
        ("1e-3", Fraction(1, 1000)),
        ("+3/5", Fraction(3, 5)),
    ],
)
def test_classify_reads_each_cli_spelling_of_p(text, expected):
    assert classify(text).p == expected


probabilities = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50
)


@settings(max_examples=80, deadline=None)
@given(probabilities)
def test_classify_multiplier_below_one_iff_noncritical(p):
    params = classify(p)
    if params.regime is Regime.CRITICAL:
        assert params.q == 1
    else:
        assert 0 < params.q < 1


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(51, 100), max_value=Fraction(99, 100), max_denominator=200
    )
)
def test_classify_supercritical_fixed_point_identity(p):
    # above the critical point the fixed point satisfies r*p = 1 - p
    params = classify(p)
    assert params.regime is Regime.SUPERCRITICAL
    assert params.r * p == 1 - p


# ---------------------------------------------------------------------------
# exact orbits
# ---------------------------------------------------------------------------


def test_exact_orbit_critical_prefix():
    params = classify(Fraction(1, 2))
    orbit = iterate_exact(params, 3)
    assert [s.a for s in orbit] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(5, 8),
        Fraction(89, 128),
    ]
    assert [s.k for s in orbit] == [0, 1, 2, 3]
    assert orbit[3].b == 1 - Fraction(89, 128)


def test_exact_orbit_subcritical_value():
    params = classify(Fraction(2, 5))
    orbit = iterate_exact(params, 3)
    assert orbit[3].a == Fraction(64173, 78125)


def test_exact_orbit_supercritical_first_step():
    params = classify(Fraction(3, 4))
    orbit = iterate_exact(params, 1)
    assert orbit[1].a == Fraction(1, 4)
    assert orbit[1].b == Fraction(1, 3) - Fraction(1, 4)


def test_exact_orbit_cap_and_domain():
    params = classify(Fraction(1, 2))
    with pytest.raises(ExactCapError):
        iterate_exact(params, EXACT_STEP_CAP + 1)
    with pytest.raises(DomainError):
        iterate_exact(params, -1)


@pytest.mark.parametrize(
    "p, largest",
    [
        ("1/2", 20),
        ("1/3", 19),
        ("2/5", 18),
        ("9/10", 18),
        ("999/1000", 16),
        ("1/1000000000", 15),
    ],
)
def test_exact_orbit_is_refused_by_size(p, largest):
    # the bound on the denominators' bit length, (2**n - 1)*(v - 1).bit_length()
    # for p = u/v, admits fewer steps the larger v is
    params = classify(p)
    assert len(iterate_exact(params, largest)) == largest + 1
    with pytest.raises(ExactCapError):
        iterate_exact(params, largest + 1)


@pytest.mark.parametrize("p, largest", [("1/3", 19), ("2/5", 18), ("3/4", 19), ("999/1000", 16)])
def test_exact_orbit_is_the_coprime_integer_recurrence(p, largest):
    # a = n/d with p = u/v gives a' = ((v - u)*d**2 + u*n**2) / (v*d**2); the
    # pair stays coprime (every prime of v divides d but not u*n**2), so the
    # reduced Fraction must carry exactly these integers
    u, v = Fraction(p).numerator, Fraction(p).denominator
    orbit = iterate_exact(classify(p), largest)
    n, d = 0, 1
    for sample in orbit:
        assert (sample.a.numerator, sample.a.denominator) == (n, d)
        n, d = (v - u) * d * d + u * n * n, v * d * d


@settings(max_examples=40, deadline=None)
@given(probabilities)
def test_orbit_is_monotone_and_bounded(p):
    params = classify(p)
    orbit = iterate_exact(params, 12)
    values = [s.a for s in orbit]
    assert all(earlier < later for earlier, later in zip(values, values[1:]))
    assert all(0 <= v < params.r for v in values)


@settings(max_examples=40, deadline=None)
@given(probabilities.filter(lambda p: p != Fraction(1, 2)))
def test_residual_below_geometric_envelope(p):
    # b_k = r - a_k stays below r * q**k in both non-critical regimes
    params = classify(p)
    for sample in iterate_exact(params, 12)[1:]:
        assert sample.b < params.r * params.q**sample.k


# ---------------------------------------------------------------------------
# precision-tracked orbits
# ---------------------------------------------------------------------------


def test_real_orbit_matches_exact_prefix():
    params = classify(Fraction(1, 2))
    orbit = iterate_real(params, 3, 30)
    assert orbit[3].a.value == Decimal("0.6953125")  # 89/128 exactly
    assert orbit[3].b.value == Decimal("0.3046875")


def test_real_orbit_default_sampling_is_dense_then_logarithmic():
    params = classify(Fraction(1, 2))
    dense = iterate_real(params, 100, 20)
    assert [s.k for s in dense] == list(range(101))
    sparse = iterate_real(params, 50_000, 20)
    ks = [s.k for s in sparse]
    assert ks[0] == 0 and ks[-1] == 50_000
    assert len(ks) < 40
    assert all(a < b for a, b in zip(ks, ks[1:]))


def _rounded(value: Fraction, ctx: Context) -> Decimal:
    """``value`` rounded on ``ctx``, as the library rounds a rational."""
    return _divide(value.numerator, value.denominator, ctx)


def _every_step(params, n, precision, wanted):
    """(k, a_k, b_k) for the k in ``wanted``, testing every step of the
    floored walk that ``iterate_real`` reads its samples from."""
    bits = (4 * orbit_error(params.q, max(n, 1)) * 10**precision).bit_length()
    ctx, rows = Context(prec=precision), []
    for k, y in enumerate(islice(orbit_integers(params.q, bits), n + 1)):
        if k in wanted:
            b = params.r * Fraction(2 * y, 1 << bits)
            a = params.r - b
            rows.append((k, _rounded(a, ctx), _rounded(b, ctx)))
    return rows


def test_real_orbit_explicit_sample_ks():
    params = classify(Fraction(1, 3))
    orbit = iterate_real(params, 64, 25, sample_ks=[0, 8, 64])
    assert [s.k for s in orbit] == [0, 8, 64]
    exact = iterate_exact(params, 8)[8].a
    assert abs(orbit[1].a.value - _rounded(exact, Context(prec=25))) < Decimal("1e-20")
    for outside in ([-1, 8], [8, 65]):
        with pytest.raises(DomainError, match="sample indices"):
            iterate_real(params, 64, 25, sample_ks=outside)
    # dense, log-spaced, unsorted with a repeat, empty, the endpoint, n = 0
    cases = [
        (64, list(range(65))),
        (64, [0, 1, 2, 4, 8, 16, 32, 64]),
        (64, [64, 0, 8, 8]),
        (64, []),
        (64, [64]),
        (0, [0]),
        (0, None),
    ]
    for n, sample_ks in cases:
        samples = iterate_real(params, n, 25, sample_ks=sample_ks)
        wanted = range(n + 1) if sample_ks is None else set(sample_ks)
        expected = _every_step(params, n, 25, wanted)
        assert [(s.k, s.a.value, s.b.value) for s in samples] == expected, (n, sample_ks)


#: (p, steps): one p for each q in {1, 4/5, 2/3, 999/1000, 2/10**400}, and
#: the longest exact orbit of at most 12 steps that ``iterate_exact`` serves
KERNEL_CASES = [
    pytest.param(Fraction(1, 2), 12, id="q=1"),
    pytest.param(Fraction(2, 5), 12, id="q=4/5"),
    pytest.param(Fraction(1, 3), 12, id="q=2/3"),
    pytest.param(Fraction(999, 2000), 12, id="q=999/1000"),
    pytest.param(Fraction(1, 10**400), 9, id="q=2/10^400"),
]


@pytest.mark.parametrize("bits", [3, 40, 200, 1500])
@pytest.mark.parametrize("p, steps", KERNEL_CASES)
def test_the_kernel_stays_within_its_derived_bound(p, steps, bits):
    # |Y_k/2**B - y_k| < min(k, 1/(1 - q)) 2**-B against the exact orbit
    # y_k = b_k/(2r), at every B and q, and one-sided at q = 1
    params = classify(p)
    for sample, y in zip(iterate_exact(params, steps), orbit_integers(params.q, bits)):
        error = Fraction(y, 2**bits) - sample.b / (2 * params.r)
        # messages name k alone: the exact values have long denominators
        assert abs(error) <= Fraction(orbit_error(params.q, sample.k), 2**bits), sample.k
        assert params.q < 1 or error >= 0, sample.k
    q = params.q
    assert orbit_error(q, 10**6) == (10**6 if q == 1 else math.ceil(1 / (1 - q)))


def test_final_value_agrees_with_orbit_endpoint():
    # a_n = r - b_n against the exact orbit, within the absolute bound
    # 10**-P derived in the iterate_real docstring
    for p in (Fraction(2, 5), Fraction(1, 3)):
        params = classify(p)
        for sample in iterate_exact(params, 18):
            for precision in (30, 50):
                a_n = final_value(params, sample.k, precision)
                bound = Fraction(1, 10**precision)
                assert a_n.precision == precision
                assert abs(Fraction(a_n.value) - sample.a) <= bound, (p, precision, sample.k)


@settings(max_examples=25, deadline=None)
@given(probabilities, st.integers(min_value=5, max_value=400))
def test_precision_ladder_agreement(p, n):
    # the same orbit at 30 and 50 digits agrees to well past 30 - guard room
    params = classify(p)
    low = final_value(params, n, 30)
    high = final_value(params, n, 50)
    assert abs(low.value - high.value) < Decimal("1e-22")


def test_deep_critical_orbit_tracks_asymptotic_shape(reference_estimate):
    # 1 - a_n should be within 1% of 2 / (n + ln n + C/2) at n = 10**6
    n = 10**6
    params = classify(Fraction(1, 2))
    a_n = final_value(params, n, 40)
    gap = 1 - a_n.value
    c_half = reference_estimate.C.value / 2
    predicted = 2 / (Decimal(n) + Decimal(n).ln() + c_half)
    assert abs(gap - predicted) / predicted < Decimal("0.01")


# ---------------------------------------------------------------------------
# logistic form
# ---------------------------------------------------------------------------


def test_logistic_exact_prefix():
    assert logistic_iterate(3) == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 16),
        Fraction(39, 256),
    ]


def test_logistic_is_half_complement_of_critical_orbit():
    # alpha_k = (1 - a_k) / 2 links the two exact orbits
    params = classify(Fraction(1, 2))
    quad = iterate_exact(params, 12)
    logi = logistic_iterate(12)
    for sample, alpha in zip(quad, logi):
        assert alpha == (1 - sample.a) / 2


def test_logistic_decimals_match_exact():
    exact = logistic_iterate(10)
    for e, r in zip(exact, logistic_decimals(30)):
        assert abs(r - _rounded(e, Context(prec=30))) < Decimal("1e-25")


def test_logistic_cap():
    with pytest.raises(ExactCapError):
        logistic_iterate(EXACT_STEP_CAP + 1)


# ---------------------------------------------------------------------------
# the fixed-point endpoint kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("precision", [20, 35, 60, 100])
def test_logistic_fixed_point_error_is_one_sided(precision):
    # exact check of 0 <= X_n/2**B - alpha_n < n 2**-B: the floored squares
    # push the orbit up, and the slope of x - x**2 on [0, 1/2] keeps it there;
    # B keeps that below a relative quarter unit of the P-th digit
    exact = logistic_iterate(20)
    for n, alpha in enumerate(exact):
        x, bits = logistic_point(n, precision)
        error = Fraction(x, 2**bits) - alpha
        # messages name n alone: alpha_20 has a million-bit denominator
        assert 0 <= error < Fraction(max(n, 1), 2**bits), n
        assert error < Fraction(1, 4 * 10 ** (precision - 1)) * alpha, n


@pytest.mark.parametrize("bits", [3, 40, 200])
def test_the_kernel_at_q_one_is_the_floored_logistic_orbit(bits):
    # the q = 1 kernel is the orbit of logistic_point, with the same one-sided error
    exact = logistic_iterate(16)
    for k, (x, alpha) in enumerate(zip(orbit_integers(Fraction(1), bits), exact)):
        error = Fraction(x, 2**bits) - alpha
        assert 0 <= error < Fraction(max(k, 1), 2**bits), k
    x, bits = logistic_point(1000, 40)
    assert next(islice(orbit_integers(Fraction(1), bits), 1000, None)) == x
    with pytest.raises(DomainError):
        next(orbit_integers(Fraction(1), 0))


def _relative_error(n: int, precision: int) -> Fraction:
    """|X_n/2**B - alpha_n| / alpha_n for (X_n, B) = ``logistic_point``,
    against a Decimal stream at 2P + 20."""
    reference = Fraction(next(islice(logistic_decimals(2 * precision + 20), n, None)))
    x, bits = logistic_point(n, precision)
    return abs(Fraction(x, 2**bits) - reference) / reference


@pytest.mark.parametrize("n", [10**4, 10**5])
@pytest.mark.parametrize("precision", [20, 60])
def test_logistic_point_within_relative_budget(n, precision):
    # within one unit of the last digit, far inside the budget n 10**(1-P)
    # that the critical constant's rounding term assumes; the reference's
    # own relative error, below n 10**(-2P-19), is negligible
    assert _relative_error(n, precision) < Fraction(1, 10 ** (precision - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=20, max_value=120))
def test_logistic_point_budget_property(n, precision):
    assert _relative_error(n, precision) < Fraction(1, 10 ** (precision - 1))


def test_logistic_point_domain_checks():
    with pytest.raises(DomainError):
        logistic_point(-1, 40)
    with pytest.raises(DomainError):
        logistic_point(10, 0)
    # every precision-tracked orbit validates its precision the same way
    with pytest.raises(DomainError, match="precision must be at least 1"):
        iterate_real(classify("2/5"), 10, 0)
    with pytest.raises(DomainError, match="precision must be at least 1"):
        final_value(classify("2/5"), 10, -3)


def test_final_value_refuses_depth_past_the_limit():
    # refused before the first step, like every walk the CLI reaches
    # (tests/test_cli.py); the Decimal orbit runs about 1 us a step
    with pytest.raises(RefusalError, match="depth"):
        final_value(classify("1/2"), MAX_DEPTH + 1, 30)
