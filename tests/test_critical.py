"""Tests for the critical-constant estimator and its self-reported bounds."""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

import pytest

import quadrec.critical as critical
import quadrec.series_engine as series_engine
from quadrec.critical import (
    MAX_PRECISION,
    WALK_DEPTH,
    CriticalEstimate,
    _abel_summand,
    estimate_constant,
    logistic_constant,
    residual_order_check,
)
from quadrec.errors import DomainError
from quadrec.numerics import PrecReal, horner
from quadrec.recurrence import MAX_DEPTH, classify, final_value, logistic_point
from quadrec.series_engine import (
    MAX_ORDER,
    eval_series_coeffs,
    fixed_point_defect,
    solve_coefficients,
    tail_bound,
    telescope,
)

# C from two order-18 series-matching estimates at depths 10**5 and 2*10**5
# (precision 130), which agree to 7e-64; C_REF_ERROR covers that gap.  The
# same value and provenance are in perfbench/gate.py.
C_REF = Decimal("3.53598757227230810088726881356226466215536286626391303115397211925")
C_REF_ERROR = Decimal("1e-62")


def test_moderate_depth_estimate_hits_reference(reference_estimate):
    est = reference_estimate
    assert est.C.digit_string(15) == "3.535987572272308"
    assert abs(est.C.value - C_REF) < Decimal("1e-16")
    assert est.truncation_bound.value < Decimal("1e-17")
    assert est.depth == 10**5 and est.order == 6


def test_estimate_reports_honest_truncation_bounds():
    # frozen shallow-depth runs: the error against the deep reference must
    # sit inside the estimate's own reported bound
    cases = [
        (10**3, 3, Decimal("2e-3")),
        (10**2, 3, Decimal("5e-2")),
        (10**3, 4, Decimal("1e-5")),
        (10**4, 4, Decimal("4e-8")),
    ]
    for depth, order, frozen_bound in cases:
        est = estimate_constant(depth, order, 40)
        err = abs(est.C.value - C_REF)
        assert err < est.truncation_bound.value, (depth, order, err)
        assert err < frozen_bound, (depth, order, err)


def test_estimate_depth_stability():
    # both depths are walked (a request past WALK_DEPTH is answered there)
    base = estimate_constant(2500, 4, 40)
    deeper = estimate_constant(10**4, 4, 40)
    assert abs(base.C.value - deeper.C.value) < base.truncation_bound.value


def test_estimate_order_stability():
    base = estimate_constant(10**4, 4, 40)
    higher = estimate_constant(10**4, 6, 40)
    assert abs(base.C.value - higher.C.value) < base.truncation_bound.value


@pytest.mark.parametrize(
    "depth, order, precision",
    [(10**5, 16, 80), (10**5, 18, 80), (3000, 16, 80), (10**4, 14, 80)],
)
def test_abel_estimate_is_inside_its_bound(depth, order, precision):
    # the old series-matching bound 10 ln(N)**I / N**(I-1) failed at the
    # first two; the derived bound is tight, so it is checked unshaved
    est = estimate_constant(depth, order, precision)
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR


def test_rounding_dominated_estimate_is_inside_its_bound():
    # at 22 digits the rounding term (about 8e-13) is nearly the whole
    # bound, so this checks the error budget of the orbit point alpha_N
    est = estimate_constant(2 * 10**4, 6, 22)
    at_60_digits = estimate_constant(2 * 10**4, 6, 60)
    assert at_60_digits.truncation_bound.value * 10**6 < est.truncation_bound.value
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value


def test_deepest_estimate_is_inside_its_bound():
    # the deepest request within the caps is answered at the walk depth
    est = estimate_constant(MAX_DEPTH, 6, 60)
    assert est.newton_iterations == 0
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR


def test_abel_series_starts_with_known_coefficients():
    H, _R = telescope(_abel_summand(3), 3)
    assert H.coeffs == (0, Fraction(1, 2), Fraction(1, 3), Fraction(13, 36))


def test_abel_constant_fits_the_matched_series():
    # an independent route: the Q[C] series of order 16 at the Abel C must
    # reproduce a_k; an error d in C would show up as d/k**2
    k = 10**4
    est = estimate_constant(k, 16, 80)
    a_k = final_value(classify("1/2"), k, 80).value
    coeffs = eval_series_coeffs(solve_coefficients(16), k, 80, 16)
    series = horner(coeffs, est.C.value, Context(prec=80))
    assert abs(a_k - series) < Decimal("1e-50")


def test_estimate_refuses_insufficient_precision():
    # the bound absorbs rounding, so only the precision floor of 20 digits
    # is refused; it is checked before the orbit is run
    with pytest.raises(DomainError, match="precision"):
        estimate_constant(10**6, 6, 19)


@pytest.mark.parametrize(
    "depth, order, precision",
    [(99, 4, 40), (10**3, 2, 40), (10**3, 4, 19)],
)
def test_estimate_domain_checks(depth, order, precision):
    with pytest.raises(DomainError):
        estimate_constant(depth, order, precision)


# ---------------------------------------------------------------------------
# the orbit point: walked up to WALK_DEPTH; a deeper request is answered
# there, within its own bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [100, 4321, WALK_DEPTH])
def test_orbit_point_is_the_walk_up_to_the_walk_depth(n, monkeypatch):
    walked = []

    def recording(depth, precision):
        walked.append((depth, precision))
        return logistic_point(depth, precision)

    monkeypatch.setattr(critical, "logistic_point", recording)
    for precision in (20, 60):
        assert estimate_constant(n, 4, precision).newton_iterations == 0
    assert walked == [(n, 20), (n, 60)]


@pytest.mark.parametrize("depth", [WALK_DEPTH + 1, 3 * WALK_DEPTH, 10**5, 10**6, 3 * 10**6])
@pytest.mark.parametrize("order, precision", [(3, 20), (6, 60), (12, 100), (20, 200)])
def test_deep_estimate_is_inside_the_bound_of_its_request(depth, order, precision):
    # the bound is the request's own: truncation at (depth, order) and
    # rounding at (depth, precision), as for a walk to that depth
    est = estimate_constant(depth, order, precision)
    _H, R = telescope(_abel_summand(order), order)
    rounding = Fraction(2 * (depth + 4) * (depth + 2 + depth.bit_length()), 10 ** (precision - 1))
    bound = PrecReal(2 * tail_bound(R, depth, order + 2) + rounding, precision)
    assert est.truncation_bound.value.as_tuple() == bound.value.as_tuple()
    assert (est.depth, est.order, est.precision) == (depth, order, precision)
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR


@pytest.mark.parametrize(
    "depth, order, precision, least_order",
    # the second is rounding-dominated: the walk's own rounding term is most
    # of the request's bound, so it decides the order
    [(10**6, 6, 60, 10), (WALK_DEPTH + 1, 6, 22, 4)],
)
def test_deep_request_is_the_walk_depth_estimate_at_the_least_sufficient_order(
    depth, order, precision, least_order
):
    deep = estimate_constant(depth, order, precision)
    least = next(
        m
        for m in range(3, MAX_ORDER + 1)
        if estimate_constant(WALK_DEPTH, m, precision).truncation_bound.value
        <= deep.truncation_bound.value
    )
    assert least == least_order
    walked = estimate_constant(WALK_DEPTH, least, precision)
    assert deep.C.value.as_tuple() == walked.C.value.as_tuple()


def test_abel_series_is_small_past_the_walk_depth(monkeypatch):
    # the least request bound within the caps (the deepest request at the
    # highest order) takes the highest order, past MAX_ORDER; evaluating
    # phi there adds only a few rounding units if, for x <= 1/(W + 1),
    # sum |h_k| x**k <= x at that order
    orders = []

    def recording(g, order):
        orders.append(order)
        return telescope(g, order)

    monkeypatch.setattr(critical, "telescope", recording)
    est = estimate_constant(MAX_DEPTH, MAX_ORDER, MAX_PRECISION)
    assert max(orders) == 40
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR
    H, _R = telescope(_abel_summand(max(orders)), max(orders))
    x = Fraction(1, WALK_DEPTH + 1)
    assert sum(abs(h) * x**k for k, h in enumerate(H.coeffs)) <= x


# ---------------------------------------------------------------------------
# the logistic constant c = C/2
# ---------------------------------------------------------------------------


def test_logistic_constant_from_reference(reference_estimate):
    c, expc1 = logistic_constant(reference_estimate)
    assert c.digit_string(15) == "1.767993786136154"
    assert expc1.digit_string(10) == "2.1554376443"


def test_logistic_constant_trivial_algebra():
    fake = CriticalEstimate(
        C=PrecReal(2, 30),
        depth=100,
        order=3,
        precision=30,
        truncation_bound=Decimal(1),
    )
    c, expc1 = logistic_constant(fake)
    assert c.value == Decimal(1)
    assert expc1.value == Decimal(1)  # exp(0)


# ---------------------------------------------------------------------------
# residual order check
# ---------------------------------------------------------------------------


def test_residual_check_validates_inputs():
    with pytest.raises(DomainError):
        residual_order_check(2, [], 40)
    with pytest.raises(DomainError):
        residual_order_check(2, [5, 20], 40)
    with pytest.raises(DomainError):
        residual_order_check(0, [10, 20], 40)


def test_solved_orders_are_looked_up_not_derived_again(monkeypatch):
    # holds whatever earlier tests solved: after order 12 is derived, every
    # order up to it, and the residual check, are lookups in the one table
    solve_coefficients(12)
    derived = []
    residual_level = series_engine._residual_level
    monkeypatch.setattr(
        series_engine,
        "_residual_level",
        lambda entries, level: derived.append(level) or residual_level(entries, level),
    )
    tables = {order: solve_coefficients(order) for order in range(3, 13)}
    rows = residual_order_check(3, [10, 20], 40)
    assert derived == []
    assert [k for k, _ in rows] == [10, 20]
    # the spy sees a derivation: from the seeds alone, order 3 reads levels 1-4
    monkeypatch.setattr(series_engine, "_DERIVED", dict(series_engine._SEEDS))
    solve_coefficients(3)
    assert derived == [1, 2, 3, 4]
    monkeypatch.undo()
    for order, table in tables.items():
        fresh_solve_order = [(1, 0), (2, 1), (2, 0)] + [
            (i, j) for i in range(3, order + 1) for j in range(i - 1, -1, -1)
        ]
        assert list(table.entries) == fresh_solve_order
        assert fixed_point_defect(table).terms == {}


def test_residuals_decrease_with_depth(reference_estimate):
    rows = residual_order_check(
        2, [10, 40, 160, 640], 40, c_value=reference_estimate.C
    )
    values = [r.value for _, r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_residual_matches_direct_series_comparison(table6, reference_estimate):
    rows = residual_order_check(3, [50], 40, c_value=reference_estimate.C)
    k, residual = rows[0]
    a_k = final_value(classify("1/2"), k, 40)
    coeffs = eval_series_coeffs(table6, k, 60, 3)
    series = horner(coeffs, reference_estimate.C.value, Context(prec=60))
    direct = abs(a_k.value - series)
    assert abs(residual.value - direct) < Decimal("1e-30")


def test_first_order_check_uses_widened_table(reference_estimate):
    # order 1 needs a table solved past the requested order; it must work
    rows = residual_order_check(1, [10, 100, 1000], 40, c_value=reference_estimate.C)
    assert len(rows) == 3
    # residual ~ (2 ln k + C)/k**2: spot value at k = 1000, where the
    # next correction (~ 2 ln^2 k / k^3) contributes under one percent
    k, res = rows[2]
    lnk = Decimal(1000).ln()
    predicted = (2 * lnk + C_REF) / Decimal(1000) ** 2
    assert abs(res.value - predicted) / predicted < Decimal("0.03")
