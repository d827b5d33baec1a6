"""The quadratic recurrence a_k = (1-p) + p*a_{k-1}^2 and its orbits.

For a parameter ``p`` strictly between 0 and 1 the map
``f(a) = (1 - p) + p*a**2`` is iterated from the fixed seed ``a_0 = 0``.
The orbit increases monotonically towards the smaller positive fixed point

    r = 1            for p <= 1/2,
    r = (1 - p)/p    for p >  1/2,

and the multiplier at that fixed point, ``q = f'(r) = 2*r*p``, sorts the
parameter range into three regimes:

* subcritical  (p < 1/2):  q = 2*p < 1, geometric approach to 1;
* critical     (p = 1/2):  q = 1, the fixed point is parabolic and the
  approach is only algebraic (~ 2/k);
* supercritical (p > 1/2): q = 2*(1 - p) < 1, geometric approach to
  (1 - p)/p < 1.

The substitution ``alpha_k = (1 - a_k)/2`` at p = 1/2 turns the recurrence
into the boundary logistic map ``alpha_k = alpha_{k-1}*(1 - alpha_{k-1})``
with ``alpha_0 = 1/2``; the tail-sum module works in that coordinate.

``iterate_exact`` is the one exact orbit: ``logistic_iterate`` reads its
rationals off the p = 1/2 orbit.  Exact values double in bit length every
step (denominators are squared), so ``iterate_exact`` refuses any request
whose denominators could pass 2**EXACT_STEP_CAP bits instead of running for
hours.  The step is written ``one_minus_p + p * a**2``: an integer power of
a reduced ``Fraction`` raises numerator and denominator separately and skips
the gcd (powers of coprime integers stay coprime), while ``a * a`` runs gcds
on operands of up to 2**EXACT_STEP_CAP bits.  Every other operation of the
step has one small operand, so its gcds are cheap.

Every rounded orbit reads one kernel, ``orbit_integers``.  In
y = p b/q = b/(2r), with b_k = r - a_k the residual, every p starts at
y_0 = 1/2 and follows

    y_{k+1} = q y_k (1 - y_k),

the critical logistic map contracted by q, so the orbit depends on q alone
and p and 1 - p share it.  Its q = 1 case is the boundary logistic orbit
alpha_k itself.  The kernel walks that map on a binary fixed-point integer
with floored products, and its absolute error has a derived bound with no
precondition (see there).  ``iterate_real`` rounds a_k and b_k once each
from the exact rational of the computed orbit; ``rate_constants`` walks y_k
until its Koenigs check passes, and its diagnostic carries the normalised
residual beside the walk.

The alpha_N of the critical constant is ``logistic_point``: the kernel at
q = 1, returned as its integer X_N over 2**B, where ``critical`` evaluates
H_M in fixed point; only its 1/x and ln x round x to a Decimal.
``critical.estimate_constant`` walks it at most 10**4 steps: a deeper
request is answered at the depth (10**2, 10**3 or 10**4) and the higher
order that ``critical._plan`` picks to meet the request's own bound.
The logistic tail sums and the divergence diagnostic read the same q = 1
orbit as a stream of integers and add their floored summands as integers,
so no term is ever converted to a Decimal.  ``logistic_decimals`` serves no
library path; it remains as the independent Decimal oracle of that orbit.
"""

from __future__ import annotations

import enum
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import DomainError, ExactCapError, check_ranges
from .numerics import PrecReal, _divide, _exact_text

#: Exact orbits are refused past this many steps, and wherever the bound on
#: their denominators' bit length reaches 2**EXACT_STEP_CAP.
EXACT_STEP_CAP = 20

#: The deepest orbit any walk runs; deeper requests are refused before the
#: first step.  At 10**7 steps the orbit of ``iterate --digits 50`` takes
#: about 4.3 s at p = 1/2 (1.5 s at p = 2/5), and the whole
#: ``diverge-check --N 10**7`` about 2.2 s, with interpreter start, on a
#: 2-core Intel Xeon with Python 3.11.  A step costs more as q's numerator
#: and denominator grow, so the 4.3 s holds for p = 1/2 only: on a faster
#: day of that host the same call took 5.8 s at p = 1/2 - 10**-40, against
#: 2.0 s at 1/2 and 0.66 s at 2/5, and 10**6 steps at 70 digits took 0.52,
#: 1.55 and 11.2 s in process at p = 1/2 - 10**-40, 1/2 - 10**-400 and
#: 1/2 - 10**-4000.  ``critical-c`` walks at most 10**4
#: steps of its orbit (``critical.WALK_DEPTH``): a deeper request is
#: answered at the depth (10**2, 10**3 or 10**4) and the order that
#: ``critical._plan`` picks within the request's own bound (the CLI default,
#: 10**6 at order 6, at 10**3 and order 14), so at 10**7 it takes about
#: 0.1 s with interpreter start.
MAX_DEPTH = 10**7

Value = Union[Fraction, PrecReal]


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


class Params(NamedTuple):
    """A validated parameter point: p, its regime, fixed point and multiplier."""

    p: Fraction
    regime: Regime
    r: Fraction
    q: Fraction


class OrbitSample(NamedTuple):
    """One orbit point: step index k, value a_k, and residual b_k = r - a_k."""

    k: int
    a: Value
    b: Value


def classify(p) -> Params:
    """Validate ``p`` and return the regime, fixed point r and multiplier q.

    This is the one parser of p, the CLI's ``--p`` text included.  ``p``
    may be a ``Fraction``, an ``int``, a string such as ``"2/5"``,
    ``"0.4"``, ``"1e-3"`` or ``" +3/5 "``, or anything else ``Fraction``
    accepts exactly.  Anything else is a ``DomainError`` ("p must be
    rational"), as is a p outside (0, 1).
    """
    try:
        p = Fraction(p)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"p must be rational, got {p!r}") from exc
    if not (0 < p < 1):
        raise DomainError(f"p must satisfy 0 < p < 1, got {_exact_text(*p.as_integer_ratio())}")
    half = Fraction(1, 2)
    if p < half:
        regime, r = Regime.SUBCRITICAL, Fraction(1)
    elif p == half:
        regime, r = Regime.CRITICAL, Fraction(1)
    else:
        regime, r = Regime.SUPERCRITICAL, (1 - p) / p
    return Params(p=p, regime=regime, r=r, q=2 * r * p)


def iterate_exact(params: Params, n: int) -> list[OrbitSample]:
    """Exact orbit samples (k, a_k, r - a_k) for k = 0..n as rationals.

    For p = u/v the denominator of a_n divides v**(2**n - 1), so its bit
    length is at most (2**n - 1) * (v - 1).bit_length().  The request is
    refused when ``n`` exceeds ``EXACT_STEP_CAP`` or that bound reaches
    2**EXACT_STEP_CAP bits: such orbits are hopeless rather than merely slow.
    """
    check_ranges(("depth", n, 0, None))
    # the step test comes first, so a huge n never builds 2**n
    if n > EXACT_STEP_CAP or (
        (2**n - 1) * (params.p.denominator - 1).bit_length() >= 2**EXACT_STEP_CAP
    ):
        raise ExactCapError(
            f"exact orbit of length {_exact_text(n)} at p = {_exact_text(*params.p.as_integer_ratio())} "
            f"exceeds the cap of 2**{EXACT_STEP_CAP} bits (denominators square every step); "
            "use a precision-tracked orbit"
        )
    one_minus_p, p, r = 1 - params.p, params.p, params.r
    a = Fraction(0)
    samples = [OrbitSample(0, a, r - a)]
    for k in range(1, n + 1):
        # a**2, not a * a: see the module docstring
        a = one_minus_p + p * a**2
        samples.append(OrbitSample(k, a, r - a))
    return samples


#: Above this step count, iterate_real defaults to logarithmically spaced
#: samples so that deep orbits use O(log n) memory.
DENSE_SAMPLE_LIMIT = 10_000


def _default_sample_ks(n: int) -> list[int]:
    if n <= DENSE_SAMPLE_LIMIT:
        return list(range(n + 1))
    ks = [0]
    k = 1
    while k < n:
        ks.append(k)
        k *= 2
    ks.append(n)
    return ks


def iterate_real(
    params: Params,
    n: int,
    precision: int,
    *,
    sample_ks: Sequence[int] | None = None,
) -> list[OrbitSample]:
    """Precision-tracked orbit samples (k, a_k, r - a_k).

    By default every step up to 10_000 is kept; deeper runs keep powers of
    two plus the endpoint, so memory stays O(log n).  Pass ``sample_ks``
    for explicit indices; the walk reads each sample off the orbit in
    turn and stops at the last one.  y_k comes from ``orbit_integers`` at
    the least B with 2**B > 4 E 10**P, E = ``orbit_error(q, max(n, 1))`` and
    P = ``precision``, and b_k = 2r Y_k/2**B and a_k = r - b_k are each
    rounded once to P digits from that exact rational; at k = 0 that gives
    b_0 = r and a_0 = 0 exactly.  Since r <= 1 the orbit's error moves
    both by less than 2 E 2**-B < 10**-P/2, and both lie in [0, 1], where
    the rounding adds at most 10**-P/2: so a_k and b_k are within 10**-P
    of the exact values.
    """
    check_ranges(("depth", n, 0, MAX_DEPTH), ("precision", precision, 1, None))
    if sample_ks is None:
        wanted = _default_sample_ks(n)
    else:
        wanted = sorted(set(int(k) for k in sample_ks))
        if wanted and (wanted[0] < 0 or wanted[-1] > n):
            raise DomainError("sample indices must lie in [0, n]")
    ctx = Context(prec=precision)
    bits = (4 * orbit_error(params.q, max(n, 1)) * 10**precision).bit_length()
    # b_k = 2r Y_k/2**B and a_k = r - b_k, over the one denominator den(r) 2**B
    numerator, scale = params.r.numerator, params.r.denominator << bits
    orbit, samples = orbit_integers(params.q, bits), []
    for last, k in zip([-1] + wanted, wanted):
        y = next(islice(orbit, k - last - 1, None))  # Y_k, the steps between skipped
        b = 2 * numerator * y
        a = PrecReal(_divide((numerator << bits) - b, scale, ctx), precision)
        samples.append(OrbitSample(k, a, PrecReal(_divide(b, scale, ctx), precision)))
    return samples


def final_value(params: Params, n: int, precision: int) -> PrecReal:
    """a_n alone, without storing the orbit: the one sample k = n of ``iterate_real``."""
    return iterate_real(params, n, precision, sample_ks=[n])[0].a


def orbit_integers(q: Fraction, bits: int) -> Iterator[int]:
    """Endless stream Y_0, Y_1, ... of the floored orbit x_k = Y_k/2**B.

    The one orbit kernel, at B = ``bits``: with q = a/d in lowest terms,
    Y_0 = 2**(B - 1) and

        Y_{k+1} = (a (Y_k - ((Y_k Y_k) >> B))) // d,

    the map y -> q (y - y**2) from y_0 = 1/2.  At q = 1 the step is
    Y_{k+1} = Y_k - ((Y_k Y_k) >> B), chosen from q itself: the general
    step with a = d = 1 costs about 1.6 times as much at 260 bits (2-core
    Intel Xeon, Python 3.11).

    * One step.  The shift drops delta in [0, 1) units and the division
      another epsilon in [0, 1), so with f(y) = q (y - y**2)

          x_{k+1} = f(x_k) + (q delta - epsilon) 2**-B,

      with the last term in (-2**-B, 2**-B).  No step raises Y, and none
      takes it below 0, so x_k stays in [0, 1/2], as y_k does.
    * The bound.  f' = q (1 - 2y) lies in [0, q] on [0, 1/2], so the error
      e_k = x_k - y_k obeys |e_{k+1}| < q |e_k| + 2**-B from e_0 = 0, and

          |e_k| < (1 + q + ... + q**(k-1)) 2**-B <= min(k, 1/(1 - q)) 2**-B,

      at every B and q (``orbit_error``).  At q = 1, epsilon = 0, so the
      error is one-sided: 0 <= e_k < k 2**-B.
    * A relative bound at y_k costs log2(1/y_k) more bits.
    """
    check_ranges(("bits", bits, 1, None))
    y = 1 << (bits - 1)
    a, d = q.numerator, q.denominator
    if a == d:
        while True:
            yield y
            y -= (y * y) >> bits
    while True:
        yield y
        y = a * (y - ((y * y) >> bits)) // d


def orbit_error(q: Fraction, k: int) -> int:
    """E = min(k, ceil(1/(1 - q))), with |x_k - y_k| < E 2**-B for every B
    (``orbit_integers``)."""
    if q == 1:
        return k
    return min(k, -(-q.denominator // (q.denominator - q.numerator)))


def logistic_iterate(n: int) -> list[Fraction]:
    """Exact orbit alpha_0..alpha_n of the boundary logistic map from alpha_0 = 1/2.

    Read off the critical orbit as alpha_k = (1 - a_k)/2, half its residual
    b_k (r = 1 at p = 1/2).  That is exact in rationals; a rounded a_k
    would cancel digits.  Refused wherever ``iterate_exact`` is.
    """
    return [s.b / 2 for s in iterate_exact(classify(Fraction(1, 2)), n)]


def logistic_decimals(precision: int) -> Iterator[Decimal]:
    """Endless stream alpha_0, alpha_1, ... as raw ``Decimal`` values.

    No library path draws it: it is the independent Decimal oracle of
    ``orbit_integers`` at q = 1.  Each step rounds 1 - alpha and the
    product once each at P = ``precision`` digits.  x - x**2 has relative
    condition number (1 - 2x)/(1 - x), in [0, 1] on [0, 1/2], so an error
    already in alpha_k is not amplified, and alpha_k stays within about a
    relative k 10**(1 - P).
    """
    ctx = Context(prec=precision)
    alpha = Decimal("0.5")
    while True:
        yield alpha
        alpha = ctx.multiply(alpha, ctx.subtract(1, alpha))


def logistic_point(n: int, precision: int) -> tuple[int, int]:
    """(X_n, B): alpha_n as the binary fixed point x_n = X_n/2**B, above it
    by less than a relative 10**(1 - precision)/4.

    ``critical.estimate_constant`` walks at most n = 10**4 steps
    (``critical.WALK_DEPTH``); a deeper request is answered at the depth
    and order that ``critical._plan`` picks within its own bound.
    The orbit is ``orbit_integers`` at q = 1, with
    0 <= x_n - alpha_n < n 2**-B (n >= 1; x_0 = alpha_0 = 1/2).
    1/alpha_n = 2 + n + sum_{k<n} alpha_k/(1 - alpha_k) is at most
    m = n + 3 + bit_length(n) (the sum is below 1 + ln n), and
    B = ceil((P - 1) log2 10) + 2 bit_length(2m) gives
    2**B > 4 m**2 10**(P-1), so (x_n - alpha_n)/alpha_n < n m 2**-B, below
    a quarter unit of the P-th digit: inside the budget n 10**(1-P) that
    ``critical`` assumes, for every n >= 1.
    """
    check_ranges(("depth", n, 0, MAX_DEPTH), ("precision", precision, 1, None))
    # 2**B >= 10**(P-1) * 4**bit_length(2m), m = n + 3 + bit_length(n)
    m = n + 3 + n.bit_length()
    bits = (10 ** (precision - 1) - 1).bit_length() + 2 * (2 * m).bit_length()
    return next(islice(orbit_integers(Fraction(1), bits), n, None)), bits
