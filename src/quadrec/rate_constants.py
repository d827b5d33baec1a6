"""Geometric-rate constants C(p) for the noncritical regimes.

Away from p = 1/2 the residual b_k = r - a_k decays geometrically with
ratio q = 2*r*p, by the map

    b_0 = r,   b_{k+1} = q b_k - p b_k**2    (q - p b_k = p (r + a_k)),

and the normalised residuals b_k / q**k = r * prod_{j<k} (r + a_j)/(2r)
are strictly decreasing partial products whose limit is C(p), so
b_k ~ C(p) q**k.  They start at b_0 = r <= 1, so q**-k <= 1/b_k.

In y = p b/q = b/(2r) the map is f(y) = q (y - y**2) from y_0 = 1/2
(``recurrence.orbit_integers``), which depends on q alone.  So
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

with w_n = |rho_n|/(q - q**n), each rounded up once to ``_BOUND_DIGITS``
digits.  Since 2r y_K q**-K = b_K/q**K <= r <= 1, 2r q**-K W(ybar) is at
most about sum_n w_n y_K**(n-1), which shrinks with y_K.  So the walk runs
the kernel only until the first K at which

    sum_n w_n ybar**(n-1) <= 9 * 10**-(D+3)   and   sum_{n>=2} |tau_n| ybar**(n-1) <= 1/4

hold at the dyadic point ybar = (Y_K + E)/2**B, with E = min(K, ceil(1/(1 - q)))
the kernel's error bound in units of 2**-B, so ybar >= y_K.  Both sums are
evaluated exactly, each as one integer over one unreduced denominator (the
weights over a power of ten, the tau_n over tau's denominator and ybar
over 2**B), by the package's one integer Horner rule, with no gcd
(``_stop_sums``).  Each is at least its lowest term, so no y_K above the
roots of those two terms passes.  The checks start below the smaller root, T_0, which
``_walk_plan`` takes from an integer M-th root; until then the stop test
compares integers only.

``tail_bound`` is the exact rational 2r W(ybar) (1 + (K + 3) u)/q_power,
with q_power the walk's q**K, within the relative (K + 3) u of it (below),
rounded up once to ``_BOUND_DIGITS`` digits by ``numerics.rounded_up``; so
it is at least 2r q**-K W(ybar).  The first condition makes it at most
10**-(D+2): ybar/y_K < 1 + 2u (below) and (1 + 2u)(1 + (K + 3) u) < 10/9.
The second keeps tau_M(y) = y (1 + eta) with |eta| <= 1/4 there, for the
rounding below.  At p = 499/1000 and D = 15 the walk stops after 3261
steps.

The rounding, at P = D + 40 working digits and u = 10**(1 - P)/2:

* The kernel runs at B bits, with 2**B >= 8 E' 10**(P-1)/(q y_low),
  E' = ceil(1/(1 - q)) and y_low a point at which both checks pass
  (``_walk_plan``).  Every ybar at or below y_low passes, and y_low <= T_0,
  so the stop test failed at K - 1 either above T_0 or at a ybar above
  y_low.  So y_{K-1} > y_low/2 and y_K = f(y_{K-1}) > q y_low/4, which
  gives 2**-B < u y_K/E': the kernel's point x_K = Y_K/2**B is within
  E 2**-B < u y_K of y_K.
* tau_M is evaluated at x_K itself, in binary fixed point
  (``CPoly.at``; Y_K <= Y_0 = 2**(B-1)), within 4 2**-B < 4 u y_K.  Both
  x_K and y_K lie at or below ybar, where
  eta = sum_{n>=2} |tau_n| ybar**(n-1) <= 1/4, so tau_M(y_K) >= 3 y_K/4
  and |tau_M'| <= 1 + M eta between them.  So the fixed-point value is
  within (4 + M)/3 u + 16/3 u = (M + 20) u/3 of tau_M(y_K), relative.
* Its one rounding to P digits adds u.  ``ctx.power`` raises q (1 + t),
  |t| <= u, off from q**K by about K u, and squares at P + len(str(K)) + 2
  digits with one final rounding, so q_power is within (K + 3) u of
  q**K.  The division by q_power, which gives D(q) (``_Walk.D``), 2r and
  their product round once each.  That is K + 7 + (M + 20)/3 units u to
  first order, and with the second-order terms C is within the relative
  bound (K + M + 14) u of 2r tau_M(y_K)/q**K: below 10**-(D+30) for
  K < 10**9 at M = 6, where the walks within the caps take at most about
  2*10**4 steps.

Nothing is confirmed by a rerun.  Digits of these constants are
conventionally reported *truncated* (round toward zero), and
``RateConstantResult.digit_string`` follows that convention.
"""

from __future__ import annotations

from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import RefusalError, check_ranges
from .numerics import _EXACT, GUARD_DIGITS, CPoly, PrecReal, _divide, _int_horner, rounded_up
from .recurrence import MAX_DEPTH, Params, Regime, classify, orbit_error, orbit_integers
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

#: The one refusal of p = 1/2 by every function here.
_CRITICAL_REFUSAL = (
    "p = 1/2 is the critical point and has no geometric rate (the approach is "
    "algebraic); use the critical-constant module instead"
)

#: The order M of the truncated Koenigs function tau_M.  A higher order
#: walks fewer steps (the depth falls roughly like 1/M), a lower one costs
#: less per call to solve, weigh and evaluate.  At 15 digits p = 499/1000
#: walks 3261 steps at order 6 and 2447 at order 8, and the pair
#: p = 0.4988, 0.5012 took 2.1 and 1.8 ms; the eight-point table took
#: 0.66 ms at order 6 and 0.77 ms at order 8 (in-process medians of 101
#: alternating calls, 2-core Intel Xeon, Python 3.11).
ORDER = 6

#: Significant digits of the weights w_n and of the tail bounds, each
#: rounded upward once.
_BOUND_DIGITS = 12

#: Digit requests above this are refused, by ``rate_constant`` and so by the
#: table, and by the CLI's ``iterate``: the walk depth and the working
#: precision both grow with the digits (2000 digits at p = 2/5 take 0.11 s),
#: and an ``iterate`` orbit at 50 digits takes about 0.43 s per 10**6 steps
#: at p = 1/2, so about 4.3 s at ``recurrence.MAX_DEPTH`` (2-core Intel
#: Xeon, Python 3.11, with interpreter start).
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


def _root(n: int, m: int) -> int:
    """floor(n**(1/m)) for n >= 1, by Newton's method on integers: from a
    start above the root every step falls, until one reaches the floor."""
    t = 1 << -(-n.bit_length() // m)
    while (s := ((m - 1) * t + n // t ** (m - 1)) // m) < t:
        t = s
    return t


def _stop_sums(checks: list[tuple[list[int], int]], n: int, b: int) -> list[int]:
    """Both stop checks at ybar = n/2**b, exactly and with no gcd: the sums
    sum_j c_j ybar**j of ``checks``, each times 2**(b J) with J its degree
    (``numerics._int_horner``), if each is at most its den, and [] if
    one is not."""
    sums = [_int_horner(c, n, 1 << b) for c, _ in checks]
    return sums if all(s <= den << b * (len(c) - 1) for s, (c, den) in zip(sums, checks)) else []


def _walk_plan(q: Fraction, digits: int) -> tuple[CPoly, list, int, int, int]:
    """tau_M, the two stop checks, the bound T_0 = t/2**s below which the
    walk checks, as t and s, and the kernel's bits B.

    The weights w_n = |rho_n|/(q - q**n), n > M, are rounded upward at
    ``_BOUND_DIGITS`` by ``rounded_up``: near p = 10**-400 their integers
    have thousands of digits, which ``_divide`` takes by integer division
    where ``Context.divide`` would convert them in quadratic time.  From
    there on all is exact: the first check is
    sum_n w_n y**(n-1) <= 9*10**-(D+3) with the weights over one power of
    ten, the second
    sum_{n>=2} |tau_n| y**(n-1) <= 1/4 over tau's denominator.  T_0 lies
    above the smaller root of their lowest terms, w_{M+1} y**M and
    |tau_2| y, by less than 2**-62 relative, from an integer M-th root
    (``_root``).  y_low is T_0 halved until both checks pass, and B the
    least with 2**B >= 8 E' 10**(P-1)/(q y_low) (module docstring).
    """
    tau, rho = koenigs(q, ORDER)
    precision = digits + 2 * GUARD_DIGITS
    # q = a/d gives q - q**n = a (d**(n-1) - a**(n-1))/d**n
    a, d = q.numerator, q.denominator
    w, a_power, d_power = [], a**ORDER, d**ORDER
    for n in range(ORDER + 1, 2 * ORDER + 1):
        gap = rho._denominator * a * (d_power - a_power)
        w.append(rounded_up(abs(rho._numerators[n]) * d_power * d, gap, _BOUND_DIGITS).value)
        a_power, d_power = a_power * a, d_power * d
    # each check is sum_j c_j y**j <= den, as integers
    exponents = [x.as_tuple().exponent for x in w]
    scale = max(0, -min(exponents))
    weights = [int(_EXACT.scaleb(x, -e)) * 10 ** (digits + 3 + e + scale) for x, e in zip(w, exponents)]
    eta = [0] + [4 * abs(c) for c in tau._numerators[2:]]
    checks = [([0] * ORDER + weights, 9 * 10**scale), (eta, tau._denominator)]
    # the roots of c_j y**j = den at j = M and 1, to 62 bits or more at 2**-s
    lowest = list(zip((ORDER, 1), checks))
    shift = 64 + max((c[j].bit_length() - den.bit_length()) // j + 1 for j, (c, den) in lowest)
    t = min(_root((den << j * shift) // c[j], j) + 1 for j, (c, den) in lowest)
    # at T_0 itself the lowest term of one check already exceeds its den
    low = shift + 1
    while not _stop_sums(checks, t, low):
        low += 1
    # 2**B >= 8 E' 10**(P-1)/(q y_low), y_low = t/2**low, E' = ceil(d/(d - a)), as one ceiling
    need = 8 * -(-d // (d - a)) * 10 ** (precision - 1) * d << low
    bits = (-(-need // (a * t)) - 1).bit_length()
    return tau, checks, t, shift, bits


class _Walk(NamedTuple):
    """Where the walk of one q stops, for every p with that q."""

    depth: int  # K
    bound: tuple[int, int]  # W(ybar)/q**K or above, as an unreduced quotient
    D: Decimal  # D(q) = tau_M(y_K)/q**K at the working precision


def _walk(q: Fraction, digits: int) -> _Walk:
    """Walk the orbit of q at the plan's B bits until y_K passes the checks
    of the module docstring, with P = digits + 2*GUARD_DIGITS digits."""
    tau, checks, t, shift, bits = _walk_plan(q, digits)
    precision = digits + 2 * GUARD_DIGITS
    ctx = Context(prec=precision)
    # Y_K <= threshold exactly when Y_K/2**B <= T_0, and y_K <= ybar =
    # (Y_K + E)/2**B by the kernel's bound
    threshold = (t << bits) >> shift
    for k_walk, y in enumerate(orbit_integers(q, bits)):
        if y <= threshold and (sums := _stop_sums(checks, y + orbit_error(q, k_walk), bits)):
            break
    # W(ybar) = ybar sum_n w_n ybar**(n-1), which is 9*10**-(D+3) times the
    # first check's sum over its den; 1/q**K <= (1 + (K + 3) u)/q_power,
    # u = 10**(1 - P)/2 (module docstring)
    q_power = ctx.power(PrecReal(q, precision).value, k_walk)
    (weights, den), y_bar = checks[0], y + orbit_error(q, k_walk)
    units, (q_num, q_den) = 2 * 10 ** (precision - 1), q_power.as_integer_ratio()
    top = sums[0] * (9 * y_bar * (units + k_walk + 3) * q_den)
    bound = top, 10 ** (digits + 3) * den * units * q_num << bits * len(weights)
    return _Walk(k_walk, bound, ctx.divide(_divide(tau.at(y, bits)[0], 1 << bits, ctx), q_power))


def _checked(p, digits: int) -> Params:
    """The parameters of p, refused before any work at the critical point,
    past ``Q_MAX`` or past ``MAX_DIGITS`` digits."""
    params = classify(p)
    check_ranges(("digits", digits, 1, MAX_DIGITS))
    if params.regime is Regime.CRITICAL:
        raise RefusalError(_CRITICAL_REFUSAL)
    if params.q > Q_MAX:
        raise RefusalError(
            f"contraction ratio q = {params.q} exceeds {Q_MAX}; "
            "the walk converges too slowly to certify digits"
        )
    return params


def _finish(params: Params, digits: int, walk: _Walk) -> RateConstantResult:
    """C(p) = 2r D(q) and its tail bound 2r q**-K W(ybar)."""
    precision, r, (top, bottom) = digits + 2 * GUARD_DIGITS, params.r, walk.bound
    value = Context(prec=precision).multiply(PrecReal(2 * r, precision).value, walk.D)
    return RateConstantResult(
        p=params.p,
        q=params.q,
        C=PrecReal(value, precision),
        factors_used=walk.depth,
        tail_bound=rounded_up(2 * r.numerator * top, r.denominator * bottom, _BOUND_DIGITS),
        digits=digits,
    )


def rate_constant(p, digits: int = 15) -> RateConstantResult:
    """C(p) certified to ``digits`` decimal places, by one Koenigs walk.

    ``digits < 1`` is a domain error.  Refuses the critical point (no
    geometric rate exists there), ratios q > 999/1000 and more than
    ``MAX_DIGITS`` digits, each before any work.  The orbit kernel runs
    until y_K passes the checks of the module docstring; ``C`` is
    2r tau_M(y_K)/q**K at P = digits + 2*GUARD_DIGITS working digits,
    within the relative rounding bound (K + M + 14) 10**(1 - P)/2 derived
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
    r * prod_{j<k}(r + a_j)/(2r) = 2r Z_k, Z_k = y_k/q**k =
    (1/2) prod_{j<k} (1 - y_j): strictly decreasing, bounded below by
    C(p), and equal to it in the limit.  y_k falls like q**k, so the walk
    carries Z_k itself, as one floored product beside ``orbit_integers``
    at B bits: Z_{k+1} = (Z_k (2**B - Y_k)) >> B from Z_0 = 2**(B-1).

    * Each factor 1 - Y_k/2**B is within 2 E_k 2**-B relative of
      1 - y_k >= 1/2, with E_k = min(k, ceil(1/(1 - q))) the kernel's
      bound, and each floor drops less than 2**-B, relative to
      Z_{k+1} >= alpha_{k+1} (y_j <= alpha_j, as q <= 1), and
      1/alpha_k <= k + 3 + bit_length(k).  Summed, Z_k is within
      2 (k + 2)**2 2**-B relative, and B = bit_length(2 (kmax + 2)**2 10**P)
      keeps that below 10**-P, so the ratio, 2r Z_k rounded once, is
      within a relative 10**(1 - P).
    * b_k is the ratio times q**k, with q rounded once and multiplied k
      times, so it is within (k + 2) 10**(1 - P) relative.
    """
    params = classify(p)
    check_ranges(("kmax", kmax, 0, MAX_DEPTH), ("precision", precision, 1, None))
    if params.regime is Regime.CRITICAL:
        raise RefusalError(_CRITICAL_REFUSAL)
    ctx = Context(prec=precision)
    q_dec = PrecReal(params.q, precision).value
    q_pow = Decimal(1)
    bits = (2 * (kmax + 2) ** 2 * 10**precision).bit_length()
    two_r = 2 * params.r
    scale = two_r.denominator << bits
    z = 1 << (bits - 1)
    rows = []
    for k, y in enumerate(islice(orbit_integers(params.q, bits), kmax + 1)):
        ratio = _divide(two_r.numerator * z, scale, ctx)
        b = PrecReal(ctx.multiply(ratio, q_pow), precision)
        rows.append(DiagnosticRow(k=k, b=b, ratio=PrecReal(ratio, precision)))
        q_pow = ctx.multiply(q_pow, q_dec)
        z = (z * ((1 << bits) - y)) >> bits
    return rows
