"""Geometric-rate constants C(p) for the noncritical regimes.

Away from p = 1/2 the residual b_k = r - a_k decays geometrically with
ratio q = 2*r*p, by the map

    b_0 = r,   b_{k+1} = q b_k - p b_k**2    (q - p b_k = p (r + a_k)),

and the normalised residuals b_k / q**k = r * prod_{j<k} (r + a_j)/(2r)
are strictly decreasing partial products whose limit is C(p), so
b_k ~ C(p) q**k.  They start at b_0 = r <= 1, so q**-k <= 1/b_k.

In y = p b/q = b/(2r) the map is f(y) = q (y - y**2) from y_0 = 1/2
(``recurrence.orbit_decimals``), which depends on q alone.  So
C(p) = 2r D(q), with D(q) the limit of y_k/q**k, and p and 1 - p, which
share q, walk one orbit: C(p) = r C(1 - p) for p > 1/2.

The constant is read off a Koenigs walk, not off the product.  The
Koenigs function tau(y) = y + tau_2 y**2 + ... of f satisfies
tau(f(y)) = q tau(y) (Milnor, *Dynamics in One Complex Variable*, §8), so
D(q) = tau(y_K)/q**K at every K.  ``series_engine.koenigs`` solves its
truncation tau_M at M = ``ORDER`` exactly, with the exact residual
rho = tau_M(f(y)) - q tau_M(y), which starts at y**(M+1).  Then
tau_M(y_{k+1})/q**(k+1) - tau_M(y_k)/q**k = rho(y_k)/q**(k+1), so
D - tau_M(y_K)/q**K is the sum of rho(y_k)/q**(k+1) over k >= K; with
y_{k+1} <= q y_k and any ybar >= y_K,

    |D - tau_M(y_K)/q**K| <= q**-(K+1) sum_n |rho_n| ybar**n / (1 - q**(n-1))
                             = q**-K W(ybar),    W(y) = sum_n w_n y**n,

with w_n = |rho_n|/(q - q**n).  So ``tail_bound`` is 2r q**-K W(ybar),
rounded upward.  Since 2r y_K q**-K = b_K/q**K <= r <= 1 it is at most
about sum_n w_n y_K**(n-1), which shrinks with y_K.  So the walk reads
the stream only until the first K at which

    sum_n w_n ybar**(n-1) <= 9 * 10**-(D+3)   and   sum_{n>=2} |tau_n| ybar**(n-1) <= 1/4

hold at ybar = y_K (1 + e_K) (e_K below), both checked in upward-rounded
Decimal arithmetic (``_upper``).  Each sum is at least its lowest term,
so no y_K above the roots of those two terms passes, and the checks start
below them (``_walk_plan``).  The first condition makes ``tail_bound`` at
most 10**-(D+2): ybar/y_K <= (1 + 10**-3)**2 and (1 + 10**-3)**2 < 10/9.
The second keeps tau_M(y) = y (1 + eta) with |eta| <= 1/4 there, for the
rounding below.  At p = 499/1000 and D = 15 the walk stops after 3261
steps.

The rounding, at P = D + 40 working digits and u = 10**(1 - P)/2:

* y_K comes from the stream within the relative bound
  e_K = (3.02 K + 2.01) 10**(1 - P), which also covers 2r, its product
  and the division by q**K (see ``orbit_decimals``).
* tau_M's coefficients are rounded once each (``CPoly.decimals``), by u,
  and Horner's rule (``numerics.horner``) evaluates tau_M(y)/y at the
  computed y_K with one rounding per fused multiply-add, M - 1 of them,
  and multiplies by y_K with one more.  With eta = sum_{n>=2} |tau_n| y**(n-1)
  <= 0.26 at y_K and at the computed y_K, the computed tau_M(y)/y is off
  from its exact value by at most (M - 1) u (1 + eta) + u eta for the
  arithmetic and ((1 + e_K)**(M-1) - 1) eta for the error in y_K, to first
  order; divided by 1 - eta >= 0.74 that is below
  1.72 (M - 1) u + 0.36 u + 0.37 (M - 1) e_K.
* Together with e_K and the final multiply, C is within the relative
  bound M (3.02 K + 3.01) 10**(1 - P) of 2r tau_M(y_K)/q**K for M >= 2:
  below 10**-(D+30) for K < 5*10**7 at M = 6, where the walks within the
  caps take at most about 2*10**4 steps.

Nothing is confirmed by a rerun.  Digits of these constants are
conventionally reported *truncated* (round toward zero), and
``RateConstantResult.digit_string`` follows that convention.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_DOWN, Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import RefusalError, check_ranges
from .numerics import GUARD_DIGITS, PrecReal, _divide, horner
from .recurrence import MAX_DEPTH, Params, Regime, classify, iterate_real, orbit_decimals
from .series_engine import koenigs

# Not used here: the benchmark's tracer wraps this name in this module.
from .numerics import confirmed_value  # noqa: F401

#: The eight parameter points of the standard reference table.
TABLE_PS = (
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(3, 5),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(4, 5),
)

#: Contraction ratios above this are refused: the walk depth K grows like
#: 1/(1 - q) and the constant itself degenerates as q -> 1.
Q_MAX = Fraction(999, 1000)

#: The order M of the truncated Koenigs function tau_M.  A higher order
#: walks fewer steps (the depth falls roughly like 1/M), a lower one costs
#: less per call to solve, weigh and evaluate.  At 15 digits p = 499/1000 walks 3261 steps at
#: order 6 and 2447 at order 8, and the pair p = 0.4988, 0.5012 took 4.5 and
#: 3.6 ms; the eight-point table took 1.1 ms at order 6 and 1.4 ms at order 8
#: (in-process medians, 2-core Intel Xeon).
ORDER = 6

#: Significant digits of the weights, the stop checks and the tail bounds,
#: all rounded upward.
_BOUND_DIGITS = 12

_QUARTER = Decimal("0.25")

#: Digit requests above this are refused, by ``rate_constant`` and so by the
#: table, and by the CLI's ``iterate``: the walk depth and the working
#: precision both grow with the digits (2000 digits at p = 2/5 take 0.57 s),
#: and an ``iterate`` orbit at 50 digits takes about 0.23 s per 2*10**5
#: steps, so about 12 s at ``recurrence.MAX_DEPTH`` (2-core Intel Xeon,
#: Python 3.11).
MAX_DIGITS = 50


class RateConstantResult(NamedTuple):
    """C(p) together with the evidence that its digits are trustworthy."""

    p: Fraction
    q: Fraction
    C: PrecReal
    factors_used: int
    tail_bound: PrecReal
    digits: int

    def digit_string(self, digits: int | None = None) -> str:
        """Truncated fixed-point digits (the table convention)."""
        return self.C.digit_string(self.digits if digits is None else digits, ROUND_DOWN)


class DiagnosticRow(NamedTuple):
    """One convergence sample: k, residual b_k, and normalised b_k/q^k."""

    k: int
    b: PrecReal
    ratio: PrecReal


def _root(x: Decimal, m: int, up: Context) -> Decimal:
    """x**(1/m) to about 12 digits and a hair high, for x > 0 of at most
    ``up.prec`` digits.

    The power of ten is split off first and only the mantissa, below
    10**m, goes through a float, so no float overflows or underflows
    whatever the exponent; its root in [1, 10) is raised by far more than
    the float's rounding and cut to 12 digits, plus one unit.  Both
    scalings run on the upward ``up``.
    """
    shift, rest = divmod(x.adjusted(), m)
    mantissa = float(up.scaleb(x, -x.adjusted())) * 10.0**rest
    return up.scaleb(int(mantissa ** (1 / m) * (1 + 1e-9) * 1e11) + 1, shift - 11)


def _upper(coeffs: list[Decimal], m: int, b: Decimal, up: Context) -> Decimal:
    """b**m * sum_i coeffs[i] b**i rounded upward, for b > 0 and coeffs >= 0.

    b has at most ``up.prec`` digits, so its m-th power is exact at m times
    that; Horner's rule and the product round upward.
    """
    exact = Context(prec=m * up.prec)
    return up.multiply(exact.power(b, m), horner(coeffs, b, up))


def _target(digits: int) -> Decimal:
    """The bound 9 * 10**-(digits + 3) of the first stop condition."""
    return Decimal((0, (9,), -(digits + 3)))


def _walk_plan(
    q: Fraction, digits: int
) -> tuple[list[Decimal], list[Decimal], list[Decimal], Decimal]:
    """tau_M's coefficients, the weights w_n, the |tau_n| of the second
    condition (n >= 2) and the bound T_0 below which the walk checks.

    The coefficients are rounded once each at P = digits + 2*GUARD_DIGITS
    (``CPoly.decimals``), the weights w_n = |rho_n|/(q - q**n), n > M,
    upward at ``_BOUND_DIGITS`` by integer division (``_divide``): near
    p = 10**-400 their integers have thousands of digits, which
    ``Context.divide`` would convert in quadratic time.  T_0 is the
    smaller root of the two conditions' lowest terms, w_{M+1} y**M and
    |tau_2| y, rounded up.
    """
    tau, rho = koenigs(q, ORDER)
    s = tau.decimals(Context(prec=digits + 2 * GUARD_DIGITS))
    up = Context(prec=_BOUND_DIGITS, rounding=ROUND_CEILING)
    # q = a/d gives q - q**n = a (d**(n-1) - a**(n-1))/d**n
    a, d = q.numerator, q.denominator
    w, a_power, d_power = [], a**ORDER, d**ORDER
    for n in range(ORDER + 1, 2 * ORDER + 1):
        gap = rho._denominator * a * (d_power - a_power)
        w.append(_divide(abs(rho._numerators[n]) * d_power * d, gap, up))
        a_power, d_power = a_power * a, d_power * d
    eta = [c.copy_abs() for c in s[2:]]
    start = min(_root(up.divide(_target(digits), w[0]), ORDER, up), up.divide(_QUARTER, eta[0]))
    return s, w, eta, start


class _Walk(NamedTuple):
    """Where the walk of one q stops, for every p with that q."""

    y: Decimal  # y_K from the stream
    depth: int  # K
    y_bar: Decimal  # y_K (1 + e_K), rounded upward
    weighted: Decimal  # sum_n w_n y_bar**(n-1), rounded upward
    q_power: Decimal  # q**K at the working precision
    tau: Decimal  # tau_M(y_K) by Horner's rule


def _walk(q: Fraction, digits: int) -> _Walk:
    """Walk the orbit of q at P = digits + 2*GUARD_DIGITS working digits
    until y_K passes the checks of the module docstring."""
    s, w, eta, start = _walk_plan(q, digits)
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    up = Context(prec=_BOUND_DIGITS, rounding=ROUND_CEILING)
    target = _target(digits)
    for k_walk, y in enumerate(orbit_decimals(q, precision)):
        if y <= start:
            # y_K <= y_bar by the stream's relative bound e_K
            y_bar = up.multiply(y, up.add(1, up.scaleb(302 * k_walk + 201, -1 - precision)))
            weighted = _upper(w, ORDER, y_bar, up)
            if weighted <= target and _upper(eta, 1, y_bar, up) <= _QUARTER:
                break
    # q_power is within (K + 3) u of q**K, which the last factor
    # 1 + 10**(1 - _BOUND_DIGITS) covers
    q_power = ctx.power(PrecReal(q, precision).value, k_walk)
    return _Walk(y, k_walk, y_bar, weighted, q_power, horner(s, y, ctx))


def _checked(p, digits: int) -> Params:
    """The parameters of p, refused before any work at the critical point,
    past ``Q_MAX`` or past ``MAX_DIGITS`` digits."""
    params = classify(p)
    check_ranges(("digits", digits, 1, MAX_DIGITS))
    if params.regime is Regime.CRITICAL:
        raise RefusalError(
            "p = 1/2 is the critical point: the approach is algebraic, not geometric; "
            "use the critical-constant module instead"
        )
    if params.q > Q_MAX:
        raise RefusalError(
            f"contraction ratio q = {params.q} exceeds {Q_MAX}; "
            "the walk converges too slowly to certify digits"
        )
    return params


def _finish(params: Params, digits: int, walk: _Walk) -> RateConstantResult:
    """C(p) = 2r tau_M(y_K)/q**K and its tail bound 2r q**-K W(y_bar)."""
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    up = Context(prec=_BOUND_DIGITS, rounding=ROUND_CEILING)
    two_r = 2 * params.r
    two_r_up = _divide(two_r.numerator, two_r.denominator, up)
    tail = up.divide(up.multiply(two_r_up, up.multiply(walk.weighted, walk.y_bar)), walk.q_power)
    value = ctx.multiply(PrecReal(two_r, precision).value, walk.tau)
    return RateConstantResult(
        p=params.p,
        q=params.q,
        C=PrecReal(ctx.divide(value, walk.q_power), precision),
        factors_used=walk.depth,
        tail_bound=PrecReal(up.multiply(tail, up.add(1, up.scaleb(1, 1 - up.prec))), up.prec),
        digits=digits,
    )


def rate_constant(p, digits: int = 15) -> RateConstantResult:
    """C(p) certified to ``digits`` decimal places, by one Koenigs walk.

    ``digits < 1`` is a domain error.  Refuses the critical point (no
    geometric rate exists there), ratios q > 999/1000 and more than
    ``MAX_DIGITS`` digits, each before any work.  The orbit stream runs
    at P = digits + 2*GUARD_DIGITS working digits until y_K passes the
    checks of the module docstring; ``C`` is 2r tau_M(y_K)/q**K within
    the relative rounding bound M (3.02 K + 3.01) 10**(1 - P) derived
    there, and ``tail_bound`` <= 10**-(digits + 2) covers the distance from
    2r tau_M(y_K)/q**K to C.  ``factors_used`` is the walk depth K.
    """
    params = _checked(p, digits)
    return _finish(params, digits, _walk(params.q, digits))


def rate_constant_table(digits: int = 15) -> list[RateConstantResult]:
    """The reference table: C(p) at the eight standard parameter points.

    The points pair up as p and 1 - p on four q's, and the walk depends
    on q alone, so each q is walked once.
    """
    points = [_checked(p, digits) for p in TABLE_PS]
    walks = {q: _walk(q, digits) for q in dict.fromkeys(params.q for params in points)}
    return [_finish(params, digits, walks[params.q]) for params in points]


def convergence_diagnostic(p, kmax: int, precision: int) -> list[DiagnosticRow]:
    """Samples (k, b_k, b_k/q^k) for k = 0..kmax.

    The normalised column is exactly the partial product
    r * prod_{j<k}(r + a_j)/(2r): strictly decreasing, bounded below by
    C(p), and equal to it in the limit.  b_k is read from
    ``recurrence.iterate_real``, so it carries the stream's relative
    bound (3.02 k + 2.01) 10**(1 - P).  The ratio divides by q rounded
    once and multiplied k times, which adds at most (k + 1) 10**(1 - P)
    relative for those roundings and the division.
    """
    params = classify(p)
    if params.regime is Regime.CRITICAL:
        raise RefusalError("p = 1/2 has no geometric rate; use the critical-constant module")
    check_ranges(("kmax", kmax, 0, MAX_DEPTH))
    ctx = Context(prec=precision)
    q_dec = PrecReal(params.q, precision).value
    q_pow = Decimal(1)
    rows = []
    for sample in iterate_real(params, kmax, precision, sample_ks=range(kmax + 1)):
        ratio = PrecReal(ctx.divide(sample.b.value, q_pow), precision)
        rows.append(DiagnosticRow(k=sample.k, b=sample.b, ratio=ratio))
        q_pow = ctx.multiply(q_pow, q_dec)
    return rows
