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

(`shift`), while the right-hand side squares the series
(`apply_map`).  Equating the two yields, at each total order i+1, a
triangular linear system: the coefficient c[i][j] appears in slot
(i+1, j) with the scalar multiplier (i - 2) -- the shift contributes -i,
the cross term 2 * (-2/k) * c[i][j]/2 contributes +2 -- and feeds slot
(i+1, j-1) with multiplier j through the log expansion.  Solving from
j = i-1 downward determines every c[i][j] exactly; the seeds are

    c[1][0] = -2,   c[2][1] = 2,   c[2][0] = C.

Order 3 onward is derived, never transcribed: the solver raises
``EngineError`` if any slot that must vanish fails to, so a green run *is*
the derivation.  The solver builds one level of the residual per order
(``_residual_level``) and checks it once the order is solved; `shift` and
`apply_map` build the whole residual, the independent route that
`fixed_point_defect` takes.  Every solve starts from the seeds: no table
is kept between calls, only the integer shift weights (``_log_row``,
``_shift_level``) are memoised.

The solver works on integers end to end.  The shift weights are
integers over m!, from one integer recurrence (``_log_row``).  A residual
level puts its entries over one common denominator and packs the
numerators of each into one integer sum_t a_t 2**(K t), so every
polynomial product is one big-integer multiply (Kronecker substitution);
the width K is one bit more than a bound on every slot coefficient,
computed from the entries' largest numerators and the weights before
anything is packed, so each slot unpacks exactly, negative coefficients
included.  The level comes back as integer numerators over one
denominator, and each order's triangular solve and its check run on
those numerators; an entry becomes a ``CPoly``, normalised by one gcd,
only when it is stored.

The same map in the coordinate alpha = (1 - a)/2 is x -> x - x**2, and
``telescope`` solves its one exact functional equation,
G(x) - G(x - x**2) = g(x), as a polynomial with a residual that
``tail_bound`` sums along the orbit.  Since x**k - (x - x**2)**k =
sum_{j>=1} (-1)**(j+1) C(k, j) x**(k+j), the x**m coefficient of the left
side is a half sum over m/2 <= k < m whose top term is (m - 1) G_{m-1}, so
each G_n follows from g_{n+1} and the G_k with k < n by one division by n.
Every G_n is kept as an integer over the one denominator den(g) M!, for
order M, and every such division is exact, since G_n den(g) n! is an
integer (induction on n).  G, g and R are ``CPoly`` in x, the type of the
Q[C] coefficients, so both solvers share one exact arithmetic.
The logistic tail sums (``sums``) and the Abel coordinate that pins C
(``critical``) both rest on it.  ``koenigs`` runs the same half sums for
the Koenigs function of y -> q (y - y**2), the same map contracted by q,
and its exact residual, from which ``rate_constants`` reads C(p) away
from the critical point.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple

from .errors import DomainError, EngineError, check_ranges
from .numerics import CPoly, _divide, _int_horner

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


class AsymSeries(NamedTuple):
    """A truncated series sum c[i][j] * ln(k)**j / k**i, i <= order.

    ``terms`` maps (i, j) to a nonzero ``CPoly`` coefficient; absent keys
    mean zero.  Instances are immutable by convention; every operation
    returns a new series truncated at the smaller operand order.
    """

    order: int
    terms: dict[Key, CPoly]

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


@lru_cache(maxsize=None)
def _log_row(i: int, m: int) -> tuple[int, ...]:
    """V[t][m] = m! [x**m] ln(1 + x)**t (1 + x)**-i for t = 0..m.

    F_t = ln(1 + x)**t (1 + x)**-i satisfies (1 + x) F_t' = t F_{t-1} - i F_t;
    its x**m coefficient gives V[t][m+1] = t V[t-1][m] - (i + m) V[t][m],
    from V[0][0] = 1, so every entry is an integer.  Each row comes from the
    one before it, and callers ask for the rows of each i in ascending m.
    """
    if m == 0:
        return (1,)
    row = _log_row(i, m - 1)
    below, same = (0,) + row, row + (0,)  # V[t-1][m-1] and V[t][m-1], t = 0..m
    return tuple(t * a - (i + m - 1) * b for t, (a, b) in enumerate(zip(below, same)))


def _weights(j: int, row: tuple[int, ...]) -> list[tuple[int, int]]:
    """(j - t, binom(j, t) row[t]) for the nonzero row[t], t = min(j, m) down to 0,
    where row = ``_log_row(i, m)``, lifted or not."""
    return [(j - t, math.comb(j, t) * row[t]) for t in range(min(j, len(row) - 1), -1, -1) if row[t]]


@lru_cache(maxsize=None)
def _shift_level(i: int, j: int, level: int) -> tuple[tuple[int, int], ...]:
    """The level-``level`` part of ln(k+1)**j / (k+1)**i over the (ln k, 1/k) basis.

    Returns (j', weight) pairs, j' ascending, for the terms
    weight/m! * ln(k)**j' / k**level, m = level - i: each weight is an
    integer over m!.  Uses ln(k+1) = ln k + u with u = ln(1 + 1/k), the
    binomial theorem on (ln k + u)**j, and the negative binomial series for
    (1 + 1/k)**-i: the weight of ln(k)**(j-t) is
    binom(j, t) * m! [x**m] u**t * (1 + x)**-i, read from ``_log_row``.
    """
    return tuple(_weights(j, _log_row(i, level - i)))


def shift(series: AsymSeries) -> AsymSeries:
    """The series evaluated at k+1, re-expanded in the (ln k, 1/k) basis.

    Each monomial ln(k+1)**j / (k+1)**i contributes, at every level from i
    through the order, the ``_shift_level`` weights over (level - i)!.
    """
    out: dict[Key, CPoly] = {}
    for (i, j), poly in series.terms.items():
        for level in range(i, series.order + 1):
            for j2, weight in _shift_level(i, j, level):
                _accumulate(out, (level, j2), poly * Fraction(weight, math.factorial(level - i)))
    return AsymSeries(series.order, out)


def apply_map(series: AsymSeries) -> AsymSeries:
    """The critical map (1 + S**2) / 2 applied to the series."""
    one = AsymSeries(series.order, {(0, 0): _ONE})
    return (series * series + one) * Fraction(1, 2)


class CoefficientTable(NamedTuple):
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

    def substitute(self, C: Fraction, order: int, precision: int) -> dict[Key, Decimal]:
        """Every nonzero c[i][j] with i <= ``order`` at the rational ``C``:
        the exact value, one integer (``_int_horner``) over den q**deg
        for C = p/q, rounded once to ``precision`` digits (``_divide``),
        with no gcd."""
        ctx, p, q = Context(prec=precision), C.numerator, C.denominator
        return {
            key: _divide(_int_horner(c._numerators, p, q), c._denominator * q**c.degree, ctx)
            for key, c in self.entries.items()
            if key[0] <= order and c
        }

    def as_series(self, order: int) -> AsymSeries:
        """The ansatz 1 + sum c[i][j] ln^j/k^i, truncated at ``order``."""
        terms: dict[Key, CPoly] = {(0, 0): _ONE}
        for (i, j), poly in self.entries.items():
            if i <= order and not poly.is_zero:
                terms[(i, j)] = poly
        return AsymSeries(order, terms)

    def format_text_lines(self) -> list[str]:
        return [f"c[{i}][{j}] = {poly.format_str()}" for i, j, poly in self.iter_entries()]


_SEEDS: dict[Key, CPoly] = {
    (1, 0): CPoly.constant(-2),
    (2, 1): CPoly.constant(2),
    (2, 0): CPoly.variable(),
}

#: The highest order ``solve_coefficients`` derives: the cost grows about
#: 1.5x per two orders, and order 20 takes about 30 ms from a cold start,
#: order 16 about 13 ms (medians of 10 fresh processes, 2-core Intel Xeon,
#: Python 3.11.7).
MAX_ORDER = 20


def _residual_level(entries: dict[Key, CPoly], level: int) -> tuple[dict[int, list[int]], int]:
    """The level-``level`` slots of shift(S) - apply_map(S), as ({j: numerators}, D).

    Slot j is the polynomial sum_t numerators[t]/D * C**t, over the one
    denominator D of every slot, and is not reduced.

    S = 1 + T with T = sum entries[(i, j)] ln(k)**j / k**i.  Since
    apply_map(S) = 1 + T + T**2/2, the residual is shift(T) - T - T**2/2;
    at level n the leading term of each shifted monomial of level n cancels
    its copy in T, so only entries with i < n contribute -- through their
    shift weights, and through the pairs of T**2 whose levels add up to n.
    Zero slots are left out; a kept slot's top numerator is nonzero.

    The arithmetic is on integers.  Every live entry is put over E, the
    lcm of their denominators, and its numerators a_t packed into one
    integer sum_t a_t 2**(K t) (Kronecker substitution), so a shift
    contribution is one multiply by an integer weight over (n - 1)!, read
    from one ``_log_row`` per order i, and a
    pair of T**2 is one product of two packed integers, over E**2.  Each
    slot is then one packed integer over D = E lcm(2 E, (n - 1)!), whose
    coefficients are recovered by reading K bits at a time, signed.  The
    width K is derived from a bound on every slot coefficient: over D, at
    most (D/(E (n-1)!)) sum_e s_e sum |w_e| for the shifts plus
    (D/(2 E**2)) L sum_i S_i S_{n-i} for the pairs, where s_e is entry e's
    largest numerator over E, w_e its weights over (n - 1)!, S_i the sum of
    s_e over the entries of order i and L the most numerators of any entry;
    K is one bit more than that bound has, so each coefficient lies in
    (-2**(K-1), 2**(K-1)).
    """
    top = math.factorial(level - 1)
    live = [(i, j, poly) for (i, j), poly in entries.items() if i < level and poly]
    common = math.lcm(*(poly._denominator for _i, _j, poly in live))
    # the shift weights over (level - 1)!, and the bound that fixes K
    lifted = {}
    for i in {i for i, _j, _poly in live}:
        lift = top // math.factorial(level - i)
        lifted[i] = tuple(w * lift for w in _log_row(i, level - i))
    weights, row_sizes, shift_bound, width = [], {}, 0, 1
    for i, j, poly in live:
        weights.append(_weights(j, lifted[i]))
        size = max(map(abs, poly._numerators)) * (common // poly._denominator)
        shift_bound += size * sum(abs(w) for _j2, w in weights[-1])
        row_sizes[i] = row_sizes.get(i, 0) + size
        width = max(width, len(poly._numerators))
    pair_bound = width * sum(s * row_sizes.get(level - i, 0) for i, s in row_sizes.items())
    scale = math.lcm(2 * common, top)  # D / E
    shift_scale, pair_scale = scale // top, scale // (2 * common)
    K = (shift_scale * shift_bound + pair_scale * pair_bound).bit_length() + 1
    rows: dict[int, list[tuple[int, int]]] = {}
    shifts: dict[int, int] = {}
    for (i, j, poly), entry_weights in zip(live, weights):
        packed = 0
        for n in reversed(poly._numerators):
            packed = (packed << K) + n
        packed *= common // poly._denominator
        rows.setdefault(i, []).append((j, packed))
        for j2, w in entry_weights:
            shifts[j2] = shifts.get(j2, 0) + w * packed
    # the pairs of T**2 in order: each pair of distinct terms twice (one
    # doubled factor), a term with itself once
    pairs: dict[int, int] = {}
    for i1, row1 in rows.items():
        i2 = level - i1
        if i2 < i1 or i2 not in rows:
            continue
        for a, (j1, p1) in enumerate(row1):
            if i1 == i2:
                pairs[2 * j1] = pairs.get(2 * j1, 0) + p1 * p1
                partners = row1[a + 1 :]
            else:
                partners = rows[i2]
            twice = p1 << 1
            for j2, p2 in partners:
                pairs[j1 + j2] = pairs.get(j1 + j2, 0) + twice * p2
    slots, mask = {}, (1 << K) - 1
    for j in sorted(shifts.keys() | pairs.keys()):
        packed = shifts.get(j, 0) * shift_scale - pairs.get(j, 0) * pair_scale
        numerators = []
        while packed:
            n = packed & mask
            packed >>= K
            if n >> (K - 1):  # a negative coefficient borrows from the next
                n -= 1 << K
                packed += 1
            numerators.append(n)
        if numerators:
            slots[j] = numerators
    return slots, common * scale


def _add_into(out: list[int], factor: int, poly, offset: int = 0) -> None:
    """out[offset + t] += factor * poly[t], extending ``out`` with zeros as needed."""
    out.extend([0] * (offset + len(poly) - len(out)))
    for t, n in enumerate(poly, offset):
        out[t] += factor * n


def _require_zero(level: int, slots: dict[int, list[int]], denominator: int, when: str) -> None:
    """Raise ``EngineError`` unless every slot's numerators are zero."""
    for j, numerators in slots.items():
        if any(numerators):
            raise EngineError(
                f"slot ({level}, {j}) should vanish {when}, "
                f"got {CPoly._over(numerators, denominator).format_str()}"
            )


def solve_coefficients(max_order: int) -> CoefficientTable:
    """Derive every c[i][j] with i <= max_order by formal matching.

    Each order builds one level of the residual shift(S) - apply_map(S) of
    the partial ansatz S (orders < i), by ``_residual_level``.  Its
    level-(i+1) slots S_j = s_j/D form a triangular system, solved from
    j = i-1 downward:

        c[i][j] = (S_j + (j + 1) c[i][j+1]) / d,    d = i - 2.

    The solve runs on the integer numerators: from N_i = 0,

        N_j = s_j d**(i-1-j) + (j + 1) N_{j+1},    c[i][j] = N_j / (D d**(i-j)),

    and each entry is normalised once, when it is stored.  The check puts
    every slot over the one denominator e D d**i, with c[1][0] = a/e, and
    adds the exact contribution of the new entries -- their own shift
    weights ``_shift_level(i, j, i + 1)`` and their cross term
    -c[1][0] * c[i][j], whose numerator over D d**i is N_j d**j -- and
    requires every slot of the full level-(i+1) residual to vanish, the
    slot (i+1, i), which has no unknown, included.  So every level through
    max_order + 1 is shown to vanish with one build per level.  Every
    call starts from the seeds, whose levels 1 to 3 must vanish first, and
    keeps nothing between calls, so the entries come in one order (the
    seeds, then i ascending, j descending) and a table is a prefix of the
    next order's.  A nonzero slot raises ``EngineError``; an order above
    ``MAX_ORDER`` raises ``RefusalError``.
    """
    check_ranges(("order", max_order, 2, MAX_ORDER))  # the expansion starts at order 2
    entries = dict(_SEEDS)
    for level in (1, 2, 3):
        _require_zero(level, *_residual_level(entries, level), "at the seeds")
    for i in range(3, max_order + 1):
        slots, D = _residual_level(entries, i + 1)
        d = i - 2
        solved, N = {}, []
        for j in range(i - 1, -1, -1):
            N = [n * (j + 1) for n in N]
            _add_into(N, d ** (i - 1 - j), slots.get(j, ()))
            solved[j] = N
            entries[(i, j)] = CPoly._over(N, D * d ** (i - j))
        # add what the order-i entries put into level i + 1, over e D d**i:
        # their own shift weights and, from -T**2/2, their cross term with c[1][0]
        a, e = entries[(1, 0)]._numerators, entries[(1, 0)]._denominator
        check = {j: [n * e * d**i for n in numerators] for j, numerators in slots.items()}
        for j, N in solved.items():
            X = [n * d**j for n in N]
            for j2, weight in _shift_level(i, j, i + 1):  # over 1! = 1
                _add_into(check.setdefault(j2, []), e * weight, X)
            for t, x in enumerate(a):
                _add_into(check.setdefault(j, []), -x, X, t)
        _require_zero(i + 1, check, e * D * d**i, f"after solving order {i}")
    return CoefficientTable(max_order, entries)


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


def eval_series_coeffs(values: dict[Key, Decimal], k: int, precision: int) -> Decimal:
    """The expansion 1 + sum v[i][j] ln(k)**j / k**i at step k, for the
    coefficients v at a given C that ``CoefficientTable.substitute``
    returns, each term rounded at ``precision`` digits.  k >= 2, so that
    ln k is positive.
    """
    check_ranges(("k", k, 2, None))
    ctx = Context(prec=precision)
    top = max((i for i, _j in values), default=0)
    ln_pows = list(accumulate([ctx.ln(k)] * top, ctx.multiply, initial=Decimal(1)))
    inv_pows = list(accumulate([ctx.divide(1, k)] * top, ctx.multiply, initial=Decimal(1)))
    total = Decimal(1)
    for (i, j), value in sorted(values.items()):
        total = ctx.add(total, ctx.multiply(value, ctx.multiply(ln_pows[j], inv_pows[i])))
    return total


def _half_sum(G: list[int], m: int) -> int:
    """[x**m] of sum_k G[k] (x**k - (x - x**2)**k), over the scale of ``G``.

    x**k - (x - x**2)**k = sum_{j>=1} (-1)**(j+1) C(k, j) x**(k+j), so the
    sum runs over m/2 <= k < m (and k < len(G)) with j = m - k.  Along that
    diagonal each binomial comes from the one before it by one multiply and
    one exact division: C(k-1, j+1) = C(k, j) (k-j)(k-j-1) / (k (j+1)).
    """
    k = min(m - 1, len(G) - 1)
    j = m - k
    total, sign, binomial = 0, 1 if j % 2 else -1, math.comb(k, j)
    while k >= j:
        total += sign * binomial * G[k]
        binomial = binomial * (k - j) * (k - j - 1) // (k * (j + 1))
        k, j, sign = k - 1, j + 1, -sign
    return total


def telescope(g: CPoly, order: int) -> tuple[CPoly, CPoly]:
    """(G, R) with G(x) - G(x - x**2) = g(x) + R(x), as polynomials in x.

    ``g`` starts at x**2, and G has terms up to x**order.  The x**m
    coefficient of D = G(x) - G(x - x**2) is the half sum

        D_m = sum_{m/2 <= k < m} (-1)**(m-k+1) C(k, m-k) G_k,

    whose k = m - 1 term is (m - 1) G_{m-1}.  So the system is triangular:
    D_{n+1} = g_{n+1} gives

        G_n = (g_{n+1} - sum_{(n+1)/2 <= k < n} (-1)**(n-k) C(k, n+1-k) G_k) / n.

    Every G_n is held as an integer over the one denominator den(g) order!,
    and each division by n is exact: n G_n den(g) (n-1)! is an integer
    combination of g_{n+1} den(g) and the G_k den(g) k! with k < n, so by
    induction G_n den(g) n! is an integer.  R = D - g is exact and, because
    of that solve, has no term from x**2 through x**(order + 1); from
    x**(order + 2) to x**(2 order) it is D_m - g_m, and past that (and
    below x**2) it is -g_m.
    """
    scale = math.factorial(order)
    target = [n * scale for n in g._numerators]
    target += [0] * (2 * order + 1 - len(target))
    G = [0] * (order + 1)
    for n in range(1, order + 1):
        G[n] = (target[n + 1] - _half_sum(G, n + 1)) // n
    residual = [-t for t in target]
    residual[2 : order + 2] = [0] * order
    for m in range(order + 2, 2 * order + 1):
        residual[m] += _half_sum(G, m)
    denominator = g._denominator * scale
    return CPoly._over(G, denominator), CPoly._over(residual, denominator)


def koenigs(q: Fraction, order: int) -> tuple[CPoly, CPoly]:
    """(tau, rho) with tau(q (y - y**2)) - q tau(y) = rho(y), as polynomials in y.

    tau = y + tau_2 y**2 + ... + tau_order y**order is the Koenigs function
    of f(y) = q (y - y**2) (0 < q < 1), truncated: the y**m coefficients of
    tau(f(y)) and q tau(y) agree for m <= order, so rho starts at
    y**(order + 1) and ends at y**(2 order).  f is the map of ``telescope``
    contracted by q, and for every p with this multiplier it is the orbit
    map in y = p b/q (``recurrence.orbit_integers``), so tau depends on q
    alone.  With H_k = q**k tau_k,

        [y**m] tau(q (y - y**2)) = q**m tau_m - (half sum of H at m),

    and tau_m (q - q**m) = -(half sum of H at m) solves for tau_m from the
    tau_k with m/2 <= k < m, by ``telescope``'s diagonal.  With q = a/d in
    lowest terms, tau_k = d**(k-1) T_k / den and H_k = a**k T_k / (d den),
    where den is the product of d**(n-1) - a**(n-1) over 2 <= n <= order,
    so a (d**(m-1) - a**(m-1)) T_m = -(half sum of a**k T_k at m) in
    integers, each division exact (induction on m, as for ``telescope``).
    Past the order the same half sums over d den are rho's coefficients.
    """
    a, d = q.numerator, q.denominator
    gaps = [0, 0] + [d**n - a**n for n in range(1, order)]  # d**(m-1) - a**(m-1) at m
    den = math.prod(gaps[2:])
    T, H = [0, den], [0, a * den]
    for m in range(2, order + 1):
        T.append(-_half_sum(H, m) // (a * gaps[m]))
        H.append(a**m * T[m])
    tau = [0] + [T[k] * d ** (k - 1) for k in range(1, order + 1)]
    rho = [0] * (order + 1) + [-_half_sum(H, m) for m in range(order + 1, 2 * order + 1)]
    return CPoly._over(tau, den), CPoly._over(rho, d * den)


def tail_bound(R: CPoly, start: int, omitted_from: int | None = None) -> Fraction:
    """A bound on |sum_{k>=start} R(alpha_k)| along the orbit from alpha_0 = 1/2.

    alpha_k <= 1/(k+2) (induction: x - x**2 increases on [0, 1/2] and
    (k+1)(k+3) <= (k+2)**2), so with base = start + 1
    sum_{k>=start} alpha_k**d <= integral_base^inf t**-d dt = base**(1-d)/(d-1).
    R starts at x**2, and the terms are summed as one integer over
    den(R) base**(deg - 1) lcm(1..deg - 1), with deg the degree of R, by
    the integer Horner rule at 1/base (``_int_horner``).
    ``omitted_from`` = L marks a summand whose series continues past its
    degree with coefficients of size at most 1, from x**L on; those terms
    add at most sum_{k>=start} alpha_k**L/(1 - alpha_k), with
    1/(1 - alpha_k) <= (base+1)/base.
    """
    numerators, top, base = R._numerators, R.degree, start + 1
    if any(numerators[:2]):
        raise DomainError("the residual must start at x**2")
    scale = math.lcm(*range(1, top))
    # the x**d term carries base**(top - d)
    terms = [abs(n) * (scale // (d - 1)) for d, n in enumerate(numerators[2:], 2)]
    total = _int_horner(terms, 1, base)
    bound = Fraction(total, R._denominator * base ** (top - 1) * scale) if total else Fraction(0)
    if omitted_from is not None:
        bound += Fraction(base + 1, base**omitted_from * (omitted_from - 1))
    return bound
