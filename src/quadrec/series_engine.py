"""Mechanised asymptotic expansion of the critical orbit.

At the critical point p = 1/2 the recurrence becomes
``a_{k+1} = (1 + a_k**2)/2`` and the approach to the fixed point 1 is
algebraic.  The orbit admits an asymptotic expansion

    a_k  ~  1 + sum_{i>=1} sum_{0<=j<i} c[i][j] * ln(k)**j / k**i

whose coefficients ``c[i][j]`` are determined -- up to one free constant --
by requiring the expansion to be formally invariant under the map.  This
module works in the bivariate basis ``ln(k)**j / k**i`` with coefficients
that are exact polynomials (``CPoly``) in the single undetermined constant

    C := c[2][0],

the only datum the formal matching cannot see (it encodes the seed).

Matching is mechanical.  Substituting k+1 for k rewrites each basis
monomial through

    ln(k+1) = ln k + 1/k - 1/(2k^2) + 1/(3k^3) - ...,
    (k+1)**-i = k**-i * (1 - i/k + binom(i+1,2)/k^2 - ...),

(`expand_log_power`), while the right-hand side squares the series
(`apply_map`).  Equating the two yields, at each total order i+1, a
triangular linear system: the coefficient c[i][j] appears in slot
(i+1, j) with the scalar multiplier (i - 2) -- the shift contributes -i,
the cross term 2 * (-2/k) * c[i][j]/2 contributes +2 -- and feeds slot
(i+1, j-1) with multiplier j through the log expansion.  Solving from
j = i-1 downward determines every c[i][j] exactly; the seeds are

    c[1][0] = -2,   c[2][1] = 2,   c[2][0] = C.

Order 3 onward is derived, never transcribed: the solver raises
``EngineError`` if any slot that must vanish fails to, so a green run *is*
the derivation.

The same map in the coordinate alpha = (1 - a)/2 is x -> x - x**2, and
``telescope`` solves its one exact functional equation,
G(x) - G(x - x**2) = g(x), as a polynomial with a residual that
``tail_bound`` sums along the orbit.  The logistic tail sums (``sums``)
and the Abel coordinate that pins C (``critical``) both rest on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import DomainError, EngineError, RefusalError
from .numerics import CPoly, PrecReal, horner

Key = tuple[int, int]  # (i, j) indexes the monomial ln(k)**j / k**i

_ZERO = CPoly()
_ONE = CPoly.constant(1)


def _accumulate(out: dict, key: Key, value) -> None:
    """out[key] += value, keeping only nonzero coefficients."""
    if key in out:
        value = out[key] + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


@dataclass(frozen=True, eq=True)
class AsymSeries:
    """A truncated series sum c[i][j] * ln(k)**j / k**i, i <= order.

    ``terms`` maps (i, j) to a nonzero ``CPoly`` coefficient; absent keys
    mean zero.  Instances are immutable by convention; every operation
    returns a new series truncated at the smaller operand order.
    """

    order: int
    terms: dict[Key, CPoly] = field(default_factory=dict)

    def coefficient(self, i: int, j: int) -> CPoly:
        """The coefficient of ln(k)**j / k**i."""
        return self.terms.get((i, j), _ZERO)

    def is_zero_through(self, level: int) -> bool:
        """True when every retained term with i <= level vanishes."""
        return all(i > level for (i, _j) in self.terms)

    def __add__(self, other: "AsymSeries") -> "AsymSeries":
        order = min(self.order, other.order)
        out = {k: v for k, v in self.terms.items() if k[0] <= order}
        for key, value in other.terms.items():
            if key[0] <= order:
                _accumulate(out, key, value)
        return AsymSeries(order, out)

    def __neg__(self) -> "AsymSeries":
        return AsymSeries(self.order, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "AsymSeries") -> "AsymSeries":
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        if not isinstance(other, AsymSeries):
            for key, value in self.terms.items():
                _accumulate(out, key, value * other)
            return AsymSeries(self.order, out)
        order = min(self.order, other.order)
        for (i1, j1), c1 in self.terms.items():
            if i1 > order:
                continue
            for (i2, j2), c2 in other.terms.items():
                if i1 + i2 <= order:
                    _accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
        return AsymSeries(order, out)

    __rmul__ = __mul__


def _series_square(s: AsymSeries) -> AsymSeries:
    """s * s using pair symmetry (half the coefficient multiplications)."""
    order = s.order
    items = [(k, v) for k, v in s.terms.items() if k[0] <= order]
    out: dict[Key, CPoly] = {}
    for a in range(len(items)):
        (i1, j1), p1 = items[a]
        if 2 * i1 <= order:
            _accumulate(out, (2 * i1, 2 * j1), p1 * p1)
        for b in range(a + 1, len(items)):
            (i2, j2), p2 = items[b]
            if i1 + i2 > order:
                continue
            _accumulate(out, (i1 + i2, j1 + j2), 2 * (p1 * p2))
    return AsymSeries(order, out)


@lru_cache(maxsize=None)
def _shift_table(i: int, j: int, order: int) -> tuple[tuple[Key, Fraction], ...]:
    """Expansion of ln(k+1)**j / (k+1)**i over the (ln k, 1/k) basis.

    Returns ((i', j'), weight) pairs with i <= i' <= order.  Uses
    ln(k+1) = ln k + u with u = sum_{m>=1} (-1)**(m+1) k**-m / m, the
    binomial theorem on (ln k + u)**j, and the negative binomial series
    for (1 + 1/k)**-i.
    """
    budget = order - i
    if budget < 0:
        return ()
    # u and (1 + 1/k)**-i as plain 1/k power series, index = power of 1/k
    u = [Fraction(0)] + [Fraction((-1) ** (m + 1), m) for m in range(1, budget + 1)]
    binom = [Fraction(1)] + [
        Fraction((-1) ** m * math.comb(i + m - 1, m)) for m in range(1, budget + 1)
    ]

    def convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (budget + 1)
        for m1, c1 in enumerate(a):
            if c1 == 0:
                continue
            for m2 in range(min(budget - m1, len(b) - 1) + 1):
                out[m1 + m2] += c1 * b[m2]
        return out

    weights: dict[Key, Fraction] = {}
    u_power = [Fraction(1)] + [Fraction(0)] * budget  # u**0
    for t in range(j + 1):
        if t > 0:
            u_power = convolve(u_power, u)
        if t > budget and t > 0:
            break  # u**t starts at k**-t: nothing left within budget
        choose = math.comb(j, t)
        mixed = convolve(u_power, binom)
        for m, coef in enumerate(mixed):
            if coef == 0:
                continue
            key = (i + m, j - t)
            weights[key] = weights.get(key, Fraction(0)) + choose * coef
    return tuple(sorted((k, v) for k, v in weights.items() if v != 0))


def expand_log_power(j: int, i: int, order: int) -> AsymSeries:
    """The monomial ln(k+1)**j / (k+1)**i re-expanded around k, as a series."""
    if j < 0 or i < 0:
        raise DomainError("powers must be nonnegative")
    terms = {key: CPoly.constant(w) for key, w in _shift_table(i, j, order)}
    return AsymSeries(order, terms)


def shift(series: AsymSeries) -> AsymSeries:
    """The series evaluated at k+1, re-expanded in the (ln k, 1/k) basis."""
    out: dict[Key, CPoly] = {}
    for (i, j), poly in series.terms.items():
        for key, weight in _shift_table(i, j, series.order):
            _accumulate(out, key, poly * weight)
    return AsymSeries(series.order, out)


def apply_map(series: AsymSeries) -> AsymSeries:
    """The critical map (1 + S**2) / 2 applied to the series."""
    squared = _series_square(series)
    one = AsymSeries(series.order, {(0, 0): _ONE})
    return (squared + one) * Fraction(1, 2)


@dataclass(frozen=True, eq=True)
class CoefficientTable:
    """All coefficients c[i][j] (0 <= j < i <= max_order) as C-polynomials."""

    max_order: int
    entries: dict[Key, CPoly]

    def entry(self, i: int, j: int) -> CPoly:
        if not (1 <= i <= self.max_order and 0 <= j < i):
            raise DomainError(f"no coefficient c[{i}][{j}] in a table of order {self.max_order}")
        return self.entries.get((i, j), _ZERO)

    def iter_entries(self) -> Iterator[tuple[int, int, CPoly]]:
        """Rows in display order: i ascending, j descending."""
        for i in range(1, self.max_order + 1):
            for j in range(i - 1, -1, -1):
                yield i, j, self.entries.get((i, j), _ZERO)

    def as_series(self, order: int | None = None) -> AsymSeries:
        """The ansatz 1 + sum c[i][j] ln^j/k^i, truncated at ``order``."""
        if order is None:
            order = self.max_order
        terms: dict[Key, CPoly] = {(0, 0): _ONE}
        for (i, j), poly in self.entries.items():
            if i <= order and not poly.is_zero:
                terms[(i, j)] = poly
        return AsymSeries(order, terms)

    def format_text_lines(self) -> list[str]:
        return [f"c[{i}][{j}] = {poly.format_str()}" for i, j, poly in self.iter_entries()]

    def rows(self) -> list[dict]:
        """JSON-ready rows: exact coefficient strings, ascending powers of C."""
        return [
            {"i": i, "j": j, "coeffs": poly.coeff_strings(), "text": poly.format_str()}
            for i, j, poly in self.iter_entries()
        ]


_SEEDS: dict[Key, CPoly] = {
    (1, 0): CPoly.constant(-2),
    (2, 1): CPoly.constant(2),
    (2, 0): CPoly.variable(),
}

#: The highest order ``solve_coefficients`` derives: the cost grows about
#: 1.8x per two orders, and order 20 already takes seconds.
MAX_ORDER = 20

#: Every c[i][j] derived in this process, in derivation order (the seeds,
#: then i ascending, j descending); a table is a prefix of the next order's.
_DERIVED: dict[Key, CPoly] = dict(_SEEDS)


def solve_coefficients(max_order: int) -> CoefficientTable:
    """Derive every c[i][j] with i <= max_order by formal matching.

    For each order i >= 3 the residual shift(S) - apply_map(S) of the
    partial ansatz S (orders < i, truncated at i+1) is computed; its level
    i+1 slots form a triangular system solved from j = i-1 downward:

        c[i][j] = slot(i+1, j) / (i - 2),
        slot(i+1, j-1) += j * c[i][j].

    Every slot that the theory forces to vanish is checked; a nonzero
    forced slot raises ``EngineError``.  Orders already derived in this
    process are looked up, not solved again; an order above ``MAX_ORDER``
    raises ``RefusalError``.
    """
    if max_order < 2:
        raise DomainError("the expansion starts at order 2; max_order must be >= 2")
    if max_order > MAX_ORDER:
        raise RefusalError(f"order {max_order} exceeds the solver's limit of {MAX_ORDER}")
    entries = dict(_DERIVED)
    for i in range(next(reversed(entries))[0] + 1, max_order + 1):
        truncation = i + 1
        partial = CoefficientTable(i - 1, entries).as_series(order=truncation)
        residual = shift(partial) - apply_map(partial)
        for (i2, j2), poly in residual.terms.items():
            if i2 <= i and not poly.is_zero:
                raise EngineError(
                    f"slot ({i2}, {j2}) should vanish before solving order {i}, "
                    f"got {poly.format_str()}"
                )
        top = residual.coefficient(truncation, i)
        if not top.is_zero:
            raise EngineError(
                f"slot ({truncation}, {i}) has no matching unknown but equals {top.format_str()}"
            )
        slots = {j: residual.coefficient(truncation, j) for j in range(i)}
        for j in range(i - 1, -1, -1):
            value = slots[j] / (i - 2)
            entries[(i, j)] = value
            if j >= 1:
                slots[j - 1] = slots[j - 1] + value * j
    # published in one update, so an interrupted solve leaves no partial order
    _DERIVED.update(entries)
    return CoefficientTable(max_order, {k: v for k, v in entries.items() if k[0] <= max_order})


def fixed_point_defect(table: CoefficientTable, order: int | None = None) -> AsymSeries:
    """shift(S) - apply_map(S) for the solved ansatz, truncated at order+1.

    A correct table of order I makes this identically zero through level
    I + 1 -- the machine-checkable statement that the expansion is formally
    invariant under the map as far as the computed coefficients reach.
    """
    if order is None:
        order = table.max_order
    if order > table.max_order:
        raise DomainError(f"table only reaches order {table.max_order}")
    series = table.as_series(order=order + 1)
    return shift(series) - apply_map(series)


def eval_series_coeffs(
    table: CoefficientTable, k: int, precision: int, order: int | None = None
) -> list[Decimal]:
    """The truncated expansion at step k as a polynomial in C.

    Returns decimal coefficients g[0..d] with
    ``a_k ~ g[0] + g[1]*C + g[2]*C**2 + ...``; the numeric weights
    ln(k)**j / k**i are evaluated at the given working precision.
    """
    if k < 2:
        raise DomainError("the expansion needs k >= 2 (ln k must be positive)")
    if order is None:
        order = table.max_order
    ctx = Context(prec=precision)
    ln_k = ctx.ln(Decimal(k))
    max_j = max((j for (_i, j) in table.entries if _i <= order), default=0)
    ln_pows = [Decimal(1)]
    for _ in range(max_j):
        ln_pows.append(ctx.multiply(ln_pows[-1], ln_k))
    inv_k = ctx.divide(Decimal(1), Decimal(k))
    inv_pows = [Decimal(1)]
    for _ in range(order):
        inv_pows.append(ctx.multiply(inv_pows[-1], inv_k))
    degree = max((poly.degree for (i, _j), poly in table.entries.items() if i <= order), default=0)
    coeffs = [Decimal(0)] * (degree + 1)
    coeffs[0] = Decimal(1)
    for (i, j), poly in sorted(table.entries.items()):
        if i > order or poly.is_zero:
            continue
        weight = ctx.multiply(ln_pows[j], inv_pows[i])
        for t, frac in enumerate(poly.coeffs):
            if frac == 0:
                continue
            frac_dec = ctx.divide(Decimal(frac.numerator), Decimal(frac.denominator))
            coeffs[t] = ctx.add(coeffs[t], ctx.multiply(frac_dec, weight))
    return coeffs


def eval_series(
    table: CoefficientTable, k: int, c_value: PrecReal, order: int | None = None
) -> PrecReal:
    """Numeric value of the truncated expansion at step k with C = c_value."""
    precision = c_value.precision
    coeffs = eval_series_coeffs(table, k, precision, order)
    return PrecReal(horner(coeffs, c_value.value, Context(prec=precision)), precision)


def telescope(g: list[Fraction], order: int) -> tuple[list[Fraction], list[Fraction]]:
    """(G, R) with G(x) - G(x - x**2) = g(x) + R(x), as coefficient lists.

    ``g`` lists the coefficients of x**0, x**1, ... and starts at x**2.
    G has terms up to x**order (trailing zeros dropped): the x**(n+1)
    coefficient of the left side is n*G_n plus terms in G_1..G_{n-1}, so
    the system is triangular.  R is exact and, because G_n is solved from
    the x**(n+1) coefficient, has no term below x**(order + 2).
    """
    # x**n - (x - x**2)**n = sum_{j>=1} (-1)**(j+1) binom(n, j) x**(n+j)
    def difference(n: int, degree: int) -> Fraction:
        j = degree - n
        return Fraction((-1) ** (j + 1) * math.comb(n, j)) if j >= 1 else Fraction(0)

    G = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        target = g[n + 1] if n + 1 < len(g) else Fraction(0)
        lower = sum((G[t] * difference(t, n + 1) for t in range(1, n)), Fraction(0))
        G[n] = (target - lower) / n
    while G and not G[-1]:
        G.pop()
    degree = max(2 * order, len(g) - 1)
    R = [
        sum((G[t] * difference(t, d) for t in range(1, len(G))), Fraction(0))
        - (g[d] if d < len(g) else 0)
        for d in range(degree + 1)
    ]
    return G, R


def tail_bound(R: list[Fraction], start: int, omitted_from: int | None = None) -> Fraction:
    """A bound on |sum_{k>=start} R(alpha_k)| along the orbit from alpha_0 = 1/2.

    alpha_k <= 1/(k+2) (induction: x - x**2 increases on [0, 1/2] and
    (k+1)(k+3) <= (k+2)**2), so with base = start + 1
    sum_{k>=start} alpha_k**d <= integral_base^inf t**-d dt = base**(1-d)/(d-1).
    ``omitted_from`` = L marks a summand whose series continues past its
    list with coefficients of size at most 1, from x**L on; those terms add
    at most sum_{k>=start} alpha_k**L/(1 - alpha_k), with 1/(1 - alpha_k) <=
    (base+1)/base.
    """
    base = start + 1
    bound = sum(
        (abs(r) / (Fraction(base) ** (d - 1) * (d - 1)) for d, r in enumerate(R) if r),
        Fraction(0),
    )
    if omitted_from is not None:
        bound += Fraction(base + 1, base) / (
            Fraction(base) ** (omitted_from - 1) * (omitted_from - 1)
        )
    return bound


def eval_polynomial(coeffs: list[Fraction], x: Decimal, ctx: Context) -> Decimal:
    """sum_n coeffs[n] * x**n for exact coefficients, at the precision of ``ctx``."""
    return horner([ctx.divide(Decimal(c.numerator), Decimal(c.denominator)) for c in coeffs], x, ctx)
