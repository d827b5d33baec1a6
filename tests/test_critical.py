"""Tests for the critical-constant estimator and its self-reported bounds."""

from __future__ import annotations

from decimal import Decimal

import pytest

import quadrec.series_engine as series_engine
from quadrec.critical import (
    CriticalEstimate,
    estimate_constant,
    logistic_constant,
    residual_order_check,
)
from quadrec.errors import DomainError, RefusalError
from quadrec.numerics import PrecReal
from quadrec.recurrence import classify
from quadrec.series_engine import eval_series, fixed_point_defect, solve_coefficients

# Cross-validated by deep runs (depth 10**6 and 4*10**6 at orders 5/6 agree
# through ~17 digits); digits beyond that are not certified here.
REFERENCE_C = Decimal("3.5359875722723081009")


def test_moderate_depth_estimate_hits_reference(reference_estimate):
    est = reference_estimate
    assert est.C.digit_string(15) == "3.535987572272308"
    assert abs(est.C.value - REFERENCE_C) < Decimal("1e-16")
    assert est.truncation_bound < Decimal("1e-17")
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
        err = abs(est.C.value - REFERENCE_C)
        assert err < est.truncation_bound, (depth, order, err)
        assert err < frozen_bound, (depth, order, err)


def test_estimate_depth_stability():
    base = estimate_constant(10**4, 4, 40)
    deeper = estimate_constant(4 * 10**4, 4, 40)
    assert abs(base.C.value - deeper.C.value) < base.truncation_bound


def test_estimate_order_stability():
    base = estimate_constant(10**4, 4, 40)
    higher = estimate_constant(10**4, 6, 40)
    assert abs(base.C.value - higher.C.value) < base.truncation_bound


def test_newton_diagnostics_are_small(reference_estimate):
    assert reference_estimate.newton_iterations <= 10
    assert reference_estimate.newton_residual < Decimal("1e-40")


def test_estimate_refuses_insufficient_precision():
    # rounding noise at depth 10**6 with 30 digits overwhelms the bound
    with pytest.raises(RefusalError):
        estimate_constant(10**6, 6, 30)


@pytest.mark.parametrize(
    "depth, order, precision",
    [(99, 4, 40), (10**3, 2, 40), (10**3, 4, 19)],
)
def test_estimate_domain_checks(depth, order, precision):
    with pytest.raises(DomainError):
        estimate_constant(depth, order, precision)


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
        newton_residual=Decimal(0),
        newton_iterations=0,
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
    apply_map = series_engine.apply_map
    monkeypatch.setattr(
        series_engine, "apply_map", lambda series: derived.append(series.order) or apply_map(series)
    )
    tables = {order: solve_coefficients(order) for order in range(3, 13)}
    rows = residual_order_check(3, [10, 20], 40)
    assert derived == []
    assert [k for k, _ in rows] == [10, 20]
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
    from quadrec.recurrence import final_value

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
    predicted = (2 * lnk + REFERENCE_C) / Decimal(1000) ** 2
    assert abs(res.value - predicted) / predicted < Decimal("0.03")
