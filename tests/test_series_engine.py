"""Tests for the mechanized asymptotic-series derivation at the critical point."""

from __future__ import annotations

import math
import random
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrec.series_engine as series_engine
from quadrec.errors import DomainError, EngineError
from quadrec.numerics import CPoly, _divide
from quadrec.recurrence import classify, final_value
from quadrec.series_engine import (
    AsymSeries,
    apply_map,
    eval_series_coeffs,
    fixed_point_defect,
    koenigs,
    shift,
    solve_coefficients,
)


def _c():
    return CPoly.variable()


def closed_forms():
    c = _c()
    return {
        (1, 0): CPoly.constant(-2),
        (2, 1): CPoly.constant(2),
        (2, 0): c,
        (3, 2): CPoly.constant(-2),
        (3, 1): -2 * c + 2,
        (3, 0): -c * c / 2 + c - 1,
        (4, 3): CPoly.constant(2),
        (4, 2): 3 * c - 5,
        (4, 1): Fraction(3, 2) * c * c - 5 * c + 5,
        (4, 0): c * c * c / 4 - Fraction(5, 4) * c * c + Fraction(5, 2) * c - Fraction(5, 3),
    }


# ---------------------------------------------------------------------------
# solved coefficients
# ---------------------------------------------------------------------------


def test_solver_reproduces_closed_forms_exactly():
    table = solve_coefficients(4)
    for (i, j), expected in closed_forms().items():
        assert table.entry(i, j) == expected, (i, j)


def test_fifth_order_constant_term(table6):
    c = _c()
    expected = (
        -c**4 / 8
        + Fraction(13, 12) * c**3
        - Fraction(15, 4) * c * c
        + Fraction(35, 6) * c
        - Fraction(61, 18)
    )
    assert table6.entry(5, 0) == expected


def test_top_log_coefficients_alternate(table10):
    # the extreme entry at each order is +-2, alternating with the order
    for i in range(2, 11):
        assert table10.entry(i, i - 1) == CPoly.constant(2 * (-1) ** i)


def test_entries_outside_the_triangle_are_rejected(table6):
    # log powers j >= i are structurally absent, not silently zero
    for i in range(1, 7):
        with pytest.raises(DomainError):
            table6.entry(i, i)
    with pytest.raises(DomainError):
        table6.entry(7, 0)


def test_solver_rejects_tiny_orders():
    with pytest.raises(DomainError):
        solve_coefficients(1)


def test_table_text_rendering(table6):
    lines = table6.format_text_lines()
    assert "c[1][0] = -2" in lines
    assert "c[2][0] = C" in lines
    assert "c[4][2] = 3*C - 5" in lines
    assert "c[4][1] = 3/2*C^2 - 5*C + 5" in lines


# ---------------------------------------------------------------------------
# fixed-point defect
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_defect_vanishes_identically(order):
    table = solve_coefficients(order)
    defect = fixed_point_defect(table)
    assert defect.terms == {}


def test_defect_detects_a_corrupted_entry(table6):
    # replacing c[3][1] by a wrong polynomial must surface in the defect
    from quadrec.series_engine import CoefficientTable

    entries = dict(table6.entries)
    entries[(3, 1)] = entries[(3, 1)] + 1
    broken = CoefficientTable(table6.max_order, entries)
    defect = fixed_point_defect(broken)
    assert defect.terms != {}
    assert any(i <= 4 for (i, _j) in defect.terms)


def test_constant_series_is_a_fixed_point():
    one = AsymSeries(4, {(0, 0): CPoly.constant(1)})
    assert shift(one).terms == one.terms
    assert apply_map(one).terms == one.terms


# ---------------------------------------------------------------------------
# the level-by-level residual the solver reads
# ---------------------------------------------------------------------------


def _arbitrary_entries(order, seed):
    # any c[i][j] in Q[C], zeros included: the level identity is algebraic
    rng = random.Random(seed)
    return {
        (i, j): CPoly(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))
        )
        for i in range(1, order + 1)
        for j in range(i)
    }


def _level_polys(entries, level):
    # the solver's integer level, each slot as a CPoly over its denominator
    slots, denominator = series_engine._residual_level(entries, level)
    assert all(numerators[-1] for numerators in slots.values())  # zero slots left out
    return {j: CPoly._over(numerators, denominator) for j, numerators in slots.items()}


@pytest.mark.parametrize("seed", [0, 1])
def test_residual_level_matches_the_reference_route(seed):
    order = 12
    entries = _arbitrary_entries(order, seed)
    terms = {(0, 0): CPoly.constant(1)}
    terms.update((key, poly) for key, poly in entries.items() if poly)
    series = AsymSeries(order, terms)
    reference = shift(series) - apply_map(series)
    for level in range(1, order + 1):
        expected = {j: poly for (i, j), poly in reference.terms.items() if i == level}
        assert bool(expected) == (level > 1), level  # level 1 cancels for any ansatz
        assert _level_polys(entries, level) == expected, level


def _reference_level(entries, level):
    # the level-`level` slots of shift(S) - apply_map(S), by the series route
    terms = {(0, 0): CPoly.constant(1)}
    terms.update((key, poly) for key, poly in entries.items() if poly)
    series = AsymSeries(level, terms)
    reference = shift(series) - apply_map(series)
    return {j: poly for (i, j), poly in reference.terms.items() if i == level}


def test_residual_level_matches_the_reference_route_on_each_solved_prefix():
    # the level each order's solve reads: the table's prefix below order i
    # at level i + 1, whose slots are what c[i][j] is solved from
    table = solve_coefficients(series_engine.MAX_ORDER).entries
    for i in range(3, series_engine.MAX_ORDER + 1):
        prefix = {key: poly for key, poly in table.items() if key[0] < i}
        expected = _reference_level(prefix, i + 1)
        assert expected, i
        assert _level_polys(prefix, i + 1) == expected, i


def test_residual_level_unpacks_negative_and_zero_coefficients():
    # large negative numerators beside interior zeros: every negative
    # coefficient below a slot's top one borrows from the next in the unpack
    big = 10**60
    entries = {
        (1, 0): CPoly((-big, 0, 0, Fraction(-7, 3))),
        (2, 1): CPoly((0, -(big**2), 0, 0, 1)),
        (2, 0): CPoly((Fraction(-big, 11), 0, -5)),
        (3, 2): CPoly((-1, 0, 0, 0, 0, -big)),
        (3, 1): CPoly(()),
        (3, 0): CPoly((big**3, 0, -big)),
        (4, 1): CPoly((0, 0, Fraction(-1, big))),
    }
    borrowed = False
    for level in range(2, 7):
        expected = _reference_level(entries, level)
        borrowed |= any(c < 0 for poly in expected.values() for c in poly.coeffs[:-1])
        assert _level_polys(entries, level) == expected, level
    assert borrowed


def test_residual_level_vanishes_on_the_solved_table():
    entries = solve_coefficients(12).entries
    for level in range(1, 14):
        assert _level_polys(entries, level) == {}, level


def test_defect_vanishes_at_the_highest_order():
    assert fixed_point_defect(solve_coefficients(series_engine.MAX_ORDER)).terms == {}


def test_a_table_is_an_ordered_prefix_of_the_next_orders():
    top = list(solve_coefficients(12).entries.items())
    for order in (3, 6, 9):
        lower = list(solve_coefficients(order).entries.items())
        assert lower == top[: len(lower)], order


def test_the_in_run_check_catches_a_perturbed_weight(monkeypatch):
    # the weight of c[5][2] at level 6 is read only by the check after
    # order 5 is solved: level 6 is built before any order-5 entry exists
    shift_level = series_engine._shift_level
    read = []

    def perturbed(i, j, level):
        pairs = shift_level(i, j, level)
        if (i, j, level) != (5, 2, 6):
            return pairs
        read.append((i, j, level))
        (j2, weight), *rest = pairs
        return ((j2, weight + 1), *rest)

    monkeypatch.setattr(series_engine, "_shift_level", perturbed)
    with pytest.raises(EngineError):
        solve_coefficients(8)
    assert read == [(5, 2, 6)]


def test_the_in_run_check_catches_a_nonzero_top_slot(monkeypatch):
    # slot (6, 5) has no unknown of order 5: only the check reads it
    residual_level = series_engine._residual_level
    perturbed = []

    def spiked(entries, level):
        slots, denominator = residual_level(entries, level)
        if level != 6:
            return slots, denominator
        perturbed.append(level)
        slots = {j: [7 * n for n in numerators] for j, numerators in slots.items()}
        top = slots.setdefault(5, [0])
        top[0] += denominator  # + 1/7, over 7 * denominator
        return slots, 7 * denominator

    monkeypatch.setattr(series_engine, "_residual_level", spiked)
    with pytest.raises(EngineError, match=r"slot \(6, 5\)"):
        solve_coefficients(8)
    assert perturbed == [6]


@pytest.mark.parametrize(
    "key, top",
    # c[2][0] is the free constant C: only the orders derived from it pin it
    [((1, 0), 2), ((2, 1), 2)],
)
def test_solver_refuses_a_corrupted_lower_coefficient(monkeypatch, key, top):
    table = solve_coefficients(5)
    corrupted = {k: v for k, v in table.entries.items() if k[0] <= top}
    corrupted[key] = corrupted[key] + CPoly.variable() / 7
    monkeypatch.setattr(series_engine, "_SEEDS", corrupted)
    with pytest.raises(EngineError):
        solve_coefficients(top + 2)
    monkeypatch.undo()
    # the failed solve left nothing behind
    assert solve_coefficients(5).entries == table.entries
    assert fixed_point_defect(solve_coefficients(7)).terms == {}


# ---------------------------------------------------------------------------
# shift expansion numerics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _log_power(t, m):
    # the coefficient of x**m in ln(1 + x)**t, by the Fraction recursion
    # ln(1 + x)**t = ln(1 + x)**(t - 1) * sum_s (-1)**(s + 1) x**s / s
    if t == 0:
        return Fraction(m == 0)
    return sum(
        (Fraction((-1) ** (s + 1), s) * _log_power(t - 1, m - s) for s in range(1, m - t + 2)),
        Fraction(0),
    )


def test_stirling_weights_match_the_fraction_recursion():
    # every (i, t, m) the solver reads through level MAX_ORDER + 1, and the
    # i = 0 weights that `shift` reads for the constant term
    top = series_engine.MAX_ORDER + 1
    for i in range(0, top):
        for m in range(0, top - i + 1):
            for t in range(0, m + 1):
                expected = _log_power(t, m) + sum(
                    _log_power(t, s) * (-1) ** (m - s) * math.comb(i + m - s - 1, m - s)
                    for s in range(t, m)
                )
                weight = Fraction(series_engine._log_row(i, m)[t], math.factorial(m))
                assert weight == expected, (i, t, m)


def _eval_terms(terms, k, precision):
    ctx = Context(prec=precision)
    lnk = ctx.ln(Decimal(k))
    acc = Decimal(0)
    for (i, j), poly in sorted(terms.items()):
        w = poly(Fraction(0))
        scale = ctx.divide(Decimal(w.numerator), Decimal(w.denominator))
        body = ctx.divide(ctx.power(lnk, j), ctx.power(Decimal(k), i))
        acc = ctx.add(acc, ctx.multiply(scale, body))
    return acc


@pytest.mark.parametrize("i", [0, 1, 2, 3])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_expand_log_power_matches_direct_evaluation(i, j):
    if i == 0 and j == 0:
        pytest.skip("constant term has no expansion")
    order = i + 8
    series = shift(AsymSeries(order, {(i, j): CPoly.constant(1)}))
    for k in (10, 37, 100):
        ctx = Context(prec=40)
        direct = ctx.divide(
            ctx.power(ctx.ln(Decimal(k + 1)), j), ctx.power(Decimal(k + 1), i)
        )
        approx = _eval_terms(series.terms, k, 40)
        # the first omitted level is order+1; allow a generous constant
        bound = ctx.power(ctx.ln(Decimal(k)), j + 1) * 100 / Decimal(k) ** (order + 1)
        assert abs(direct - approx) < bound, (i, j, k)


def test_shift_of_solved_series_matches_shifted_orbit(table6):
    # numeric cross-check of the shift operator: evaluating shift(S) at k
    # equals evaluating S at k+1, up to the truncation error
    series = table6.as_series(4)
    shifted = shift(series)
    c_val = Fraction(0)  # any numeric value exercises the bookkeeping

    def value(terms, k):
        ctx = Context(prec=40)
        lnk = ctx.ln(Decimal(k))
        acc = Decimal(0)
        for (i, j), poly in sorted(terms.items()):
            w = poly(c_val)
            scale = ctx.divide(Decimal(w.numerator), Decimal(w.denominator))
            acc = ctx.add(acc, scale * ctx.power(lnk, j) / ctx.power(Decimal(k), i))
        return acc

    for k in (25, 80):
        direct = value(series.terms, k + 1)
        via_shift = value(shifted.terms, k)
        assert abs(direct - via_shift) < Decimal(2) ** 6 * 100 / Decimal(k) ** 5


# ---------------------------------------------------------------------------
# series evaluation against the orbit
# ---------------------------------------------------------------------------


def test_eval_series_tracks_the_critical_orbit(table6, reference_estimate):
    params = classify(Fraction(1, 2))
    a_100 = final_value(params, 100, 40)
    values = table6.substitute(Fraction(reference_estimate.C.value), 6, 60)
    approx = eval_series_coeffs(values, 100, 60)
    assert abs(a_100.value - approx) < Decimal("1e-7")


def test_eval_series_requires_settled_logs(table6):
    with pytest.raises(DomainError):
        eval_series_coeffs(table6.substitute(Fraction(1), 4, 30), 1, 30)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=10**45),
    st.integers(2, 20),
    st.integers(20, 80),
)
def test_substitute_rounds_each_exact_value_once(C, order, precision):
    table = solve_coefficients(20)

    def reduced(poly, x):
        raise AssertionError("substitute reduces no Fraction")

    # the exact values go straight to the rounding, with no CPoly.__call__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CPoly, "__call__", reduced)
        values = table.substitute(C, order, precision)
    assert set(values) == {(i, j) for (i, j), poly in table.entries.items() if i <= order and poly}
    ctx = Context(prec=precision)
    for key, value in values.items():
        exact = table.entries[key](C)
        expected = _divide(exact.numerator, exact.denominator, ctx)
        assert str(value) == str(expected), key


# C to 40 digits, as residual-check rounds it
_C40 = Fraction(Decimal("3.535987572272308100887268813562264662155"))


@pytest.mark.parametrize("order", [2, 3, 12, 20])
def test_eval_series_coeffs_stays_inside_its_rounding_count(order):
    # against exact c[i][j](C)/k**i times ln(k)**j at P + 40 digits.  The
    # term v ln(k)**j / k**i passes through at most 2 (i + j + 1) roundings,
    # each within half a unit of 10**(1-P) relative, and each of the n adds
    # rounds a running sum in (0, 1) by at most half a unit of 10**-P
    precision, table = 40, solve_coefficients(order)
    values = table.substitute(_C40, order, precision)
    wide = Context(prec=precision + 40)
    for k in [10 * 2**n for n in range(11)]:
        ln_k, reference, relative = wide.ln(k), Decimal(1), Decimal(0)
        for i, j in values:
            exact = table.entries[(i, j)](_C40) / k**i
            exact = _divide(exact.numerator, exact.denominator, wide)
            term = wide.multiply(exact, wide.power(ln_k, j))
            reference = wide.add(reference, term)
            relative = wide.add(relative, wide.multiply(i + j + 1, term.copy_abs()))
        bound = relative.scaleb(1 - precision) + Decimal(len(values)).scaleb(-precision) / 2
        error = wide.subtract(eval_series_coeffs(values, k, precision), reference).copy_abs()
        assert error <= bound, (k, error, bound)
        assert 0 < reference < 1


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------


def test_series_product_truncates_at_min_order():
    a = AsymSeries(3, {(1, 0): CPoly.constant(1)})
    b = AsymSeries(5, {(2, 0): CPoly.constant(3), (4, 0): CPoly.constant(7)})
    prod = a * b
    assert prod.order == 3
    assert prod.terms[(3, 0)] == CPoly.constant(3)
    assert (4, 0) not in prod.terms  # 1/k * 7/k^4 exceeds the order


def test_series_addition_and_scalar_ops():
    a = AsymSeries(3, {(1, 0): CPoly.constant(2)})
    b = AsymSeries(3, {(1, 0): CPoly.constant(-2), (2, 1): CPoly.variable()})
    total = a + b
    assert (1, 0) not in total.terms
    assert total.terms[(2, 1)] == CPoly.variable()
    doubled = b * 2
    assert doubled.terms[(2, 1)] == 2 * CPoly.variable()


def test_defect_refuses_an_order_past_its_table(table6):
    assert fixed_point_defect(table6, 5).terms == {}
    with pytest.raises(DomainError, match="only reaches order 6"):
        fixed_point_defect(table6, 7)


def _compose(outer: CPoly, inner: CPoly) -> CPoly:
    """outer(inner(y)) by Horner's rule on CPoly."""
    out = CPoly()
    for coefficient in reversed(outer.coeffs):
        out = out * inner + coefficient
    return out


#: Multipliers near the cutoff, a table one, and one that underflows a float.
KOENIGS_QS = [Fraction(4, 5), Fraction(499, 500), Fraction(999, 1000), Fraction(2, 10**400)]


@pytest.mark.parametrize("q", KOENIGS_QS, ids=["4/5", "499/500", "999/1000", "2/10^400"])
@pytest.mark.parametrize("order", [2, 3, 6, 8])
def test_koenigs_residual_is_exact(q, order):
    # the map in y = p b/q, shared by p = q/2 and p = 1 - q/2
    tau, rho = koenigs(q, order)
    f = CPoly([0, q, -q])
    assert _compose(tau, f) - tau * q == rho
    assert tau.degree == order and tau.coeffs[1] == 1
    assert not any(rho.coeffs[: order + 1])
    assert rho.degree == 2 * order


@pytest.mark.parametrize("q", KOENIGS_QS, ids=["4/5", "499/500", "999/1000", "2/10^400"])
def test_koenigs_second_coefficient_is_the_closed_form(q):
    # y**2 of tau(q y - q y**2) = q tau(y): q**2 tau_2 - q = q tau_2
    tau, _rho = koenigs(q, 8)
    assert tau.coeffs[2] == -1 / (1 - q)
