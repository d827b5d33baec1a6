"""Tests for the critical-constant estimator and its self-reported bounds."""

from __future__ import annotations

from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

import pytest

import quadrec.critical as critical
import quadrec.series_engine as series_engine
from quadrec.critical import (
    _LADDER,
    MAX_PRECISION,
    WALK_DEPTH,
    CriticalEstimate,
    _abel_summand,
    _cost,
    _least_order,
    _omitted_order,
    _plan,
    _rounding,
    estimate_constant,
    logistic_constant,
    residual_order_check,
)
from quadrec.errors import DomainError
from quadrec.numerics import CPoly, PrecReal
from quadrec.recurrence import MAX_DEPTH, classify, final_value, logistic_point
from quadrec.series_engine import (
    MAX_ORDER,
    AsymSeries,
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
    values = solve_coefficients(16).substitute(Fraction(est.C.value), 16, 80)
    series = eval_series_coeffs(values, k, 80)
    assert abs(a_k - series) < Decimal("1e-50")


def test_abel_reversion_reproduces_the_solved_coefficients():
    # a second route to c[i][j]: phi(x) = 1/x + ln x + H(x) = k + C/2 with
    # x = y/(1 + v), y = 1/k and L = ln k reads v = y (C/2 + L + ln(1 + v) - H(x)),
    # and each pass of that map fixes one more order of v; after M passes x,
    # from the v of M - 1, is exact through order M, and so is a_k = 1 - 2x
    order = 10
    H, _R = telescope(_abel_summand(order), order)
    one = AsymSeries(order, {(0, 0): CPoly.constant(1)})
    y = AsymSeries(order, {(1, 0): CPoly.constant(1)})
    c_plus_L = AsymSeries(order, {(0, 0): CPoly.variable() / 2, (0, 1): CPoly.constant(1)})
    v = AsymSeries(order, {})
    for _ in range(order):
        # ln(1 + v) and 1/(1 + v) from the powers of v, which start at 1/k
        log, inverse, power = AsymSeries(order, {}), one, one
        for n in range(1, order + 1):
            power = power * v
            log = log + power * Fraction((-1) ** (n + 1), n)
            inverse = inverse + power * (-1) ** n
        x = y * inverse
        H_x, power = AsymSeries(order, {}), one
        for h in H.coeffs[1:]:
            power = power * x
            H_x = H_x + power * h
        v = y * (c_plus_L + log - H_x)
    assert (one - x * 2).terms == solve_coefficients(order).as_series(order).terms


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
        x, bits = logistic_point(depth, precision)
        # the point lies where CPoly.at's bound holds, 0 <= X <= 2**(B-1)
        assert 0 < x <= 1 << (bits - 1)
        return x, bits

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
    bound = 2 * tail_bound(R, depth, order + 2) + rounding
    up = Context(prec=precision, rounding=ROUND_CEILING).divide(bound.numerator, bound.denominator)
    assert est.truncation_bound.value.as_tuple() == up.as_tuple()
    assert (est.depth, est.order, est.precision) == (depth, order, precision)
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR


@pytest.mark.parametrize(
    "depth, order, precision",
    [
        (1000, 3, 40),
        (2000, 8, 50),
        (WALK_DEPTH, 16, 80),
        (10**5, 6, 60),
        (10**6, 6, 60),
        (10**6, 6, 30),
        (3 * 10**6, 12, 100),
        (MAX_DEPTH, MAX_ORDER, MAX_PRECISION),
    ],
)
def test_printed_bound_is_at_least_the_derived_bound(depth, order, precision):
    # a bound rounded half-even can print below the bound it reports
    _H, R = telescope(_abel_summand(order), order)
    rounding = Fraction(2 * (depth + 4) * (depth + 2 + depth.bit_length()), 10 ** (precision - 1))
    derived = 2 * tail_bound(R, depth, order + 2) + rounding
    assert Fraction(estimate_constant(depth, order, precision).truncation_bound.value) >= derived


def _request_bound(depth, order, precision):
    _H, R = telescope(_abel_summand(order), order)
    return 2 * tail_bound(R, depth, order + 2) + _rounding(depth, precision)


def _walk_least_order(walk, bound, precision, start=3):
    """The least order >= start whose own bound at (walk, order, precision)
    is at most ``bound``, by building every telescope from ``start`` on."""
    order = start
    while _request_bound(walk, order, precision) > bound:
        order += 1
    return order


def _omitted_least(walk, budget):
    order = 3
    while tail_bound(CPoly(), walk, order + 2) > budget:
        order += 1
    return order


@pytest.mark.parametrize(
    "depth, order, precision, walk, least",
    # the CLI default; a request whose own bound is almost all rounding
    # term; and the caps
    [
        (10**6, 6, 60, 1000, 14),
        (WALK_DEPTH + 1, 6, 22, 100, 6),
        (MAX_DEPTH, MAX_ORDER, MAX_PRECISION, 1000, 58),
        # one of the few requests within the caps that the plan walks at 10**4
        (MAX_DEPTH, MAX_ORDER, 160, WALK_DEPTH, 40),
    ],
)
def test_deep_request_is_the_walk_depth_estimate_at_the_least_sufficient_order(
    depth, order, precision, walk, least, monkeypatch
):
    deep = estimate_constant(depth, order, precision)
    bound = _request_bound(depth, order, precision)
    planned_walk, planned_least, _H, planned_bound = _plan(depth, order, precision)
    assert (planned_walk, planned_least, planned_bound) == (walk, least, bound)
    # the plan's order is the least whose own bound at its depth is at most
    # the request's, found by building every telescope from order 3 on
    assert _walk_least_order(walk, bound, precision) == least
    # the planned estimate, asked for as a request of its own (with the
    # order cap lifted), gives the same C under its own, smaller bound
    monkeypatch.setattr(critical, "MAX_ORDER", 200)
    planned = estimate_constant(walk, least, precision)
    assert deep.C.value.as_tuple() == planned.C.value.as_tuple()
    assert _request_bound(walk, least, precision) <= bound
    assert planned.truncation_bound.value <= deep.truncation_bound.value
    # no other ladder depth has a lower modelled cost at its omitted-terms order
    costs = {
        w: _cost(w, _omitted_least(w, (bound - _rounding(w, precision)) / 2), precision)
        for w in _LADDER
    }
    assert costs[walk] == min(costs.values())


def _first_fits_full_fails(walk, order, precision):
    """A request bound whose budget at (walk, precision) lies halfway between
    the bound of order's first residual term alone and its full bound."""
    _H, R = telescope(_abel_summand(order), order)
    first = tail_bound(CPoly([0] * (order + 2) + [R.coeffs[order + 2]]), walk, order + 2)
    return first + tail_bound(R, walk, order + 2) + _rounding(walk, precision)


@pytest.mark.parametrize(
    "walk, bound, precision",
    [
        (100, Fraction(1, 10**30), 60),
        (1000, Fraction(3, 10**80), 100),
        (WALK_DEPTH, Fraction(1, 10**5), 20),
        # order 20's first residual term fits and its full residual does not
        (100, _first_fits_full_fails(100, 20, 60), 60),
    ],
)
def test_least_order_search_matches_building_every_order(walk, bound, precision, monkeypatch):
    # the search tests an order on the first term of its residual alone; it
    # must land where building every telescope from the omitted-terms order
    # on lands, with the same series
    budget = (bound - _rounding(walk, precision)) / 2
    start = _omitted_order(walk, budget)
    checks = []

    def recording(R, at, omitted_from):
        checks.append((R, at, omitted_from))
        return tail_bound(R, at, omitted_from)

    monkeypatch.setattr(critical, "tail_bound", recording)
    least, H = _least_order(walk, budget, start)
    assert least == _walk_least_order(walk, bound, precision, start)
    assert H == telescope(_abel_summand(least), least)[0]
    # every bound the search takes is that of an order's own residual, or of
    # its first coefficient alone, stepped up exactly from H_0 = 0
    kinds = []
    for R, at, omitted_from in checks:
        order = omitted_from - 2
        _H, full = telescope(_abel_summand(order), order)
        assert at == walk
        if R == full:
            kinds.append(("full", order))
        else:
            assert R == CPoly([0] * (order + 2) + [full.coeffs[order + 2]])
            kinds.append(("first", order, tail_bound(R, walk, omitted_from) <= budget))
    # one first-coefficient check per order from start to least, in order
    assert [kind[1] for kind in kinds if kind[0] == "first"] == list(range(start, least + 1))
    # a full residual only right after its order's first coefficient fit
    for before, kind in zip(kinds, kinds[1:]):
        if kind[0] == "full":
            assert before == ("first", kind[1], True)
    assert kinds[0][0] == "first" and kinds[-1] == ("full", least)


def test_omitted_order_is_the_least_the_omitted_terms_allow():
    # on each side of the budget at which order m's omitted terms just fit
    for walk in _LADDER:
        for m in (3, 10, 40, 70):
            exact = tail_bound(CPoly(), walk, m + 2)
            for budget, least in ((exact, m), (exact * (1 - Fraction(1, 10**9)), m + 1)):
                assert _omitted_order(walk, budget) == _omitted_least(walk, budget) == least


def test_abel_series_is_small_past_the_walk_depth(monkeypatch):
    # evaluating phi at the planned order adds only a few rounding units if,
    # for x <= 1/(W + 1), sum |h_k| x**k <= x at that order: checked at every
    # ladder depth, at the caps and at the CLI default
    for depth, order, precision in [(MAX_DEPTH, MAX_ORDER, MAX_PRECISION), (10**6, 6, 60)]:
        bound = _request_bound(depth, order, precision)
        for walk in _LADDER:
            budget = (bound - _rounding(walk, precision)) / 2
            least, H = _least_order(walk, budget, _omitted_order(walk, budget))
            x = Fraction(1, walk + 1)
            assert sum(abs(h) * x**k for k, h in enumerate(H.coeffs)) <= x, (depth, walk, least)

    # at the caps the planned estimate builds one telescope, the request's
    # own; the order search steps its series without one
    orders = []

    def recording(g, order):
        orders.append(order)
        return telescope(g, order)

    monkeypatch.setattr(critical, "telescope", recording)
    est = estimate_constant(MAX_DEPTH, MAX_ORDER, MAX_PRECISION)
    assert orders == [MAX_ORDER]
    assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR


@pytest.mark.parametrize(
    "depth, order, precision",
    [(10**6, 6, 60), (3 * 10**6, 12, 100), (MAX_DEPTH, MAX_ORDER, MAX_PRECISION)],
)
def test_two_walk_depths_agree_within_their_bounds(depth, order, precision, monkeypatch):
    # two plans for one request, at disjoint walk depths, each at its own
    # least order: they agree within the sum of their own bounds, and each
    # lies within its bound of the reference
    bound = _request_bound(depth, order, precision)
    request = estimate_constant(depth, order, precision)
    monkeypatch.setattr(critical, "MAX_ORDER", 200)
    estimates = []
    for walk in (100, WALK_DEPTH):
        budget = (bound - _rounding(walk, precision)) / 2
        least, _H = _least_order(walk, budget, _omitted_order(walk, budget))
        est = estimate_constant(walk, least, precision)
        assert est.truncation_bound.value <= request.truncation_bound.value
        assert abs(est.C.value - C_REF) <= est.truncation_bound.value + C_REF_ERROR
        estimates.append(est)
    shallow, deep = estimates
    assert abs(shallow.C.value - deep.C.value) <= shallow.truncation_bound.value + deep.truncation_bound.value


# ---------------------------------------------------------------------------
# the logistic constant c = C/2
# ---------------------------------------------------------------------------


def test_logistic_constant_from_reference(reference_estimate):
    c, expc1 = logistic_constant(reference_estimate)
    assert c.digit_string(15) == "1.767993786136154"
    assert expc1.digit_string(10) == "2.1554376443"


def test_logistic_constant_trivial_algebra():
    fake = CriticalEstimate(
        C=PrecReal(Decimal(2), 30),
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


def test_every_solve_derives_from_the_seeds(monkeypatch, reference_estimate):
    # no table is kept between calls: each solve checks levels 1-3 at the
    # seeds and builds one more level per order, however often it is asked
    derived = []
    residual_level = series_engine._residual_level
    monkeypatch.setattr(
        series_engine,
        "_residual_level",
        lambda entries, level: derived.append(level) or residual_level(entries, level),
    )
    for _ in range(2):
        solve_coefficients(5)
        assert derived == [1, 2, 3, 4, 5, 6]
        derived.clear()
    rows = residual_order_check(3, [10, 20], 40, c_value=reference_estimate.C)
    assert derived == [1, 2, 3, 4]
    assert [k for k, _ in rows] == [10, 20]
    monkeypatch.undo()
    for order in range(3, 13):
        table = solve_coefficients(order)
        fresh_solve_order = [(1, 0), (2, 1), (2, 0)] + [
            (i, j) for i in range(3, order + 1) for j in range(i - 1, -1, -1)
        ]
        assert list(table.entries) == fresh_solve_order
        assert fixed_point_defect(table).terms == {}


def test_residual_check_substitutes_c_once(monkeypatch, reference_estimate):
    # C is fixed for the whole call: one exact substitution, then one
    # evaluation of the expansion per step
    calls = []
    substitute = series_engine.CoefficientTable.substitute
    evaluate = critical.eval_series_coeffs
    monkeypatch.setattr(
        series_engine.CoefficientTable,
        "substitute",
        lambda self, *args: calls.append("substitute") or substitute(self, *args),
    )
    monkeypatch.setattr(
        critical, "eval_series_coeffs", lambda *args: calls.append("k") or evaluate(*args)
    )
    rows = residual_order_check(3, [10, 20, 40, 80], 40, c_value=reference_estimate.C)
    assert len(rows) == 4
    assert calls == ["substitute", "k", "k", "k", "k"]


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
    values = table6.substitute(Fraction(reference_estimate.C.value), 3, 60)
    series = eval_series_coeffs(values, k, 60)
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
