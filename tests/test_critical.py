"""Tests for the critical-constant estimator and its self-reported bounds."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

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
    orbit_point,
    residual_order_check,
)
from quadrec.errors import DomainError, EngineError
from quadrec.numerics import CPoly, PrecReal
from quadrec.recurrence import MAX_DEPTH, classify, final_value, logistic_point
from quadrec.series_engine import eval_series, fixed_point_defect, solve_coefficients, telescope

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
    base = estimate_constant(10**4, 4, 40)
    deeper = estimate_constant(4 * 10**4, 4, 40)
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
    # the deepest request within the caps is transported, not walked
    est = estimate_constant(MAX_DEPTH, 6, 60)
    assert est.newton_iterations > 0
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
    series = eval_series(solve_coefficients(16), k, est.C)
    assert abs(a_k - series.value) < Decimal("1e-50")


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
# the orbit point: walked up to WALK_DEPTH, transported past it
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _walked(n: int) -> Fraction:
    """alpha_n from the floored walk at 130 digits: relative error below 10**-129."""
    return Fraction(logistic_point(n, 130))


@pytest.mark.parametrize("n", [WALK_DEPTH + 1, 3 * WALK_DEPTH, 10**5, 10**6])
@pytest.mark.parametrize("precision", [20, 40, 60, 100])
def test_transported_point_matches_the_walk(n, precision):
    # the contract of logistic_point: below a relative 3/4 unit of the last digit
    y, steps = orbit_point(n, precision)
    reference = _walked(n)
    assert steps > 0
    budget = Fraction(3, 4 * 10 ** (precision - 1)) + Fraction(1, 10**129)
    assert abs(Fraction(y) - reference) < budget * reference


@pytest.mark.parametrize("n", [100, 4321, WALK_DEPTH])
def test_orbit_point_is_the_walk_up_to_the_walk_depth(n):
    for precision in (20, 60):
        y, steps = orbit_point(n, precision)
        assert steps == 0
        assert y.as_tuple() == logistic_point(n, precision).as_tuple()
    assert estimate_constant(n, 4, 30).newton_iterations == 0


def test_bracket_rejects_a_perturbed_inverse(monkeypatch):
    # with the tail forced to 0 the slack is at its tightest, and Newton on
    # the same phi still passes; Newton on a phi whose h_1 is off by 1e-40
    # lands about 1e-52 of y away, past the bracket of 1.25e-60 at P = 60
    monkeypatch.setattr(critical, "tail_bound", lambda *args: Fraction(0))
    orbit_point(10**6, 60)
    solve = critical._abel_inverse
    nudge = CPoly([0, Fraction(1, 10**40)])
    monkeypatch.setattr(critical, "_abel_inverse", lambda H, *args: solve(H + nudge, *args))
    with pytest.raises(EngineError, match="bracket"):
        orbit_point(10**6, 60)


def test_abel_series_is_small_past_the_walk_depth(monkeypatch):
    # orbit_point's monotonicity and rounding rules need, for x <= 1/(W + 1),
    # sum |h_k| x**k <= x and sum k |h_k| x**(k-1) <= 1 at every order it
    # uses; both sums grow with x and with the order, and the least budget
    # (n = W + 1 at the highest precision) takes the highest order
    orders = []

    def recording(g, order):
        orders.append(order)
        return telescope(g, order)

    monkeypatch.setattr(critical, "telescope", recording)
    orbit_point(WALK_DEPTH + 1, MAX_PRECISION)
    assert max(orders) <= 80
    H, _R = telescope(_abel_summand(80), 80)
    x = Fraction(1, WALK_DEPTH + 1)
    assert sum(abs(h) * x**k for k, h in enumerate(H.coeffs)) <= x
    assert sum(k * abs(h) * x ** (k - 1) for k, h in enumerate(H.coeffs) if k) <= 1


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
    series = eval_series(table6, k, reference_estimate.C, 3)
    direct = abs(a_k.value - series.value)
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
