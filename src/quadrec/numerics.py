"""Arithmetic substrate: exact rationals, rounded decimals, C-polynomials.

Three kinds of numbers appear throughout the package:

* exact rationals (``fractions.Fraction``), used whenever a quantity is a
  ratio of integers by construction -- recurrence parameters, orbit values
  for small step counts, series coefficients;
* ``PrecReal``, a ``Decimal`` rounded to P significant digits, with P kept
  beside it, and its digit renderer.  It takes only a ``Decimal``: a
  rational is rounded first, by ``_divide`` on the caller's Context.  It
  has no arithmetic of its own:
  callers compute on ``value`` with the methods of a ``Context(prec=P)``
  that they name, so each result is rounded by that context and never by
  the thread's 28-digit default context;
* ``CPoly``, a dense polynomial in one formal symbol with exact rational
  coefficients, held as integer numerators over one shared denominator.
  The symbol is the constant ``C`` in the asymptotic-series engine, which
  keeps every derived coefficient as a ``CPoly`` so that nothing is rounded
  before a caller asks for digits, and the orbit point ``x`` in
  ``series_engine.telescope``, whose polynomials G, g and R are ``CPoly``
  too.  Every polynomial in x is evaluated at an orbit point, which the
  orbit kernel already holds as a binary integer X/2**B, by one
  fixed-point Horner rule with a derived error count (``CPoly.at``).

The one other evaluator is exact: ``_int_horner`` gives a polynomial
with integer coefficients at a rational p/q as the one integer
sum_t c_t p**t q**(d - t), with no gcd.  Every exact polynomial value
goes through it: ``CPoly.__call__`` (the reduced ``Fraction``), the
expansion in C, which takes each coefficient at the given C and rounds it
once (``series_engine.CoefficientTable.substitute``), the rate constants'
stop test, ``series_engine.tail_bound`` and the sums' slope bound.

Every exact rational the package writes -- an orbit value of
``iterate --exact``, a coefficient c[i][j], a p or q in a message -- is
written by one renderer, ``_exact_text``, as ``str(Fraction)`` writes it
but for integers of any length: ``str(int)`` stops at the interpreter's
int-string limit (4300 digits by default, settable down to 640).

The module also owns the Euler--Mascheroni constant (110 verified
digits).  ``confirmed_value`` repeats a computation with 20 extra guard
digits and raises ``RefusalError`` unless the two results agree to the
requested width.  No library computation calls it: the rate
constants, the tail sums and the critical constant each run once and derive
their rounding bound; it remains only for the benchmark's tracer.
"""

from __future__ import annotations

import decimal
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .errors import DomainError, RefusalError, check_ranges

#: Guard digits on top of the requested digit count.  The rate constants and
#: the tail sums run once at digits + 2*GUARD_DIGITS, where their derived
#: rounding bounds lie far below the last requested digit; ``confirmed_value``
#: reruns this many digits higher.
GUARD_DIGITS = 20

#: First 110 decimal digits of the Euler--Mascheroni constant.  The trailing
#: digits are truncated, not rounded, so every digit shown is exact.
_EULER_GAMMA_110 = (
    "0."
    "5772156649015328606065120900824024310421593359399235988057672348848677"
    "2677766467093694706329174674951463144724"
)

_GAMMA_MAX_PRECISION = 105

#: Exact arithmetic: no rounding at any length.
_EXACT = Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)

Scalar = Union[int, Fraction, Decimal]
T = TypeVar("T")


def euler_gamma(precision: int) -> "PrecReal":
    """Euler--Mascheroni constant rounded to ``precision`` decimal digits.

    Only the embedded 110-digit value is available; requests beyond
    ``precision = 105`` are refused rather than served with unverified
    digits.
    """
    check_ranges(("precision", precision, 1, _GAMMA_MAX_PRECISION))
    return PrecReal(Decimal(_EULER_GAMMA_110), precision)


def _divide(n: int, d: int, ctx: Context) -> Decimal:
    """``ctx.divide(Decimal(n), Decimal(d))`` for d > 0, by integer division.

    Converting n and d to ``Decimal`` first costs time quadratic in their
    length.  Here the quotient, scaled by a power of ten, is floored to an
    integer h of at least ``ctx.prec + 2`` digits, and ``ctx`` itself
    rounds it, under any of its roundings.  If the division leaves a
    remainder, one sticky digit 1 is appended, as h + 1/10: the scaled
    quotient lies strictly between h and h + 1, and so does h + 1/10.  At
    ``ctx.prec`` digits every value the context rounds to, and every
    half-way point between two of them, is an integer at this scale, so
    ``ctx.plus`` rounds both alike.  An exact quotient instead keeps the
    exponent closest to the ideal exponent 0, as ``Context.divide`` does
    ("0.25", "12" and not "12.00"), so the result is the same ``Decimal``,
    exponent included.  Operands of at most 1024 bits together go to
    ``Context.divide`` itself, which is faster there: 0.5-0.9 against
    1.4-2.4 us at 20 digits each and 1.0-1.5 against 1.5-2.6 us at 100,
    where at 300 digits each it takes 3.5-5.1 us and this route 1.7-2.9
    (20 digits of precision, best of 7, three runs on a 2-core Intel Xeon
    under Python 3.11).
    """
    if n == 0:
        return Decimal(0)
    if n.bit_length() + d.bit_length() <= 1024:
        return ctx.divide(n, d)
    # log10|n/d| lies within 0.61 above (bits(n) - bits(d) - 1)*log10(2), and
    # 0.30103 is a hair above log10(2), so 10**shift * |n|/d has at least
    # ctx.prec + 2 digits
    shift = ctx.prec + 2 - (abs(n).bit_length() - d.bit_length() - 1) * 30103 // 100000
    if shift >= 0:
        head, rest = divmod(abs(n) * 10**shift, d)
    else:
        head, rest = divmod(abs(n), d * 10**-shift)
    exponent = -shift
    if rest:
        head, exponent = 10 * head + 1, exponent - 1
    else:
        # exact: drop trailing zeros towards the ideal exponent 0
        while exponent < 0 and head % 10 == 0:
            head, exponent = head // 10, exponent + 1
    return ctx.plus(_EXACT.scaleb(Decimal(-head if n < 0 else head), exponent))


def rounded_up(numerator: int, denominator: int, precision: int) -> "PrecReal":
    """The bound numerator/denominator (denominator > 0) rounded toward
    +infinity to ``precision`` digits, so that a reported bound never lies
    below the bound derived for it.  The pair need not be in lowest terms:
    reducing one of thousands of bits would cost a gcd quadratic in its
    length, as a ``Fraction`` does.  It builds the reported bounds; a
    caller that wants only the rounded ``Decimal`` calls ``_divide`` on a
    ceiling Context that it names."""
    up = Context(prec=precision, rounding=decimal.ROUND_CEILING)
    return PrecReal(_divide(numerator, denominator, up), precision)


class PrecReal:
    """A ``Decimal`` rounded to ``precision`` significant digits, and its
    digit renderer.

    The constructor takes a ``Decimal`` only, and ``Context(prec=precision)``
    rounds it once, so ``value`` never holds more than P digits.  A caller
    rounds a rational with ``_divide`` on a ``Context`` it names.  There is no
    arithmetic here: a caller computes on ``value`` with the methods of a
    ``Context`` it names, and wraps the result.  Nor is there comparison:
    ``==`` and ``!=`` raise ``TypeError`` as ``<`` does, so a caller
    compares ``value``s, and instances are unhashable.  Instances are
    immutable by convention.
    """

    __slots__ = ("value", "precision")

    def __init__(self, value: Decimal, precision: int):
        if not isinstance(precision, int) or precision < 1:
            raise DomainError(f"precision must be a positive integer, got {precision!r}")
        if not isinstance(value, Decimal):
            raise DomainError(f"cannot build PrecReal from {type(value).__name__}")
        self.value = Context(prec=precision).plus(value)
        self.precision = precision

    def digit_string(self, digits: int, rounding: str = decimal.ROUND_HALF_EVEN) -> str:
        """Fixed-point rendering with exactly ``digits`` decimal places.

        The default rounding is banker's rounding; pass
        ``decimal.ROUND_DOWN`` to truncate instead (the convention used for
        convergence-rate constants, whose published digits are truncations).
        """
        if digits < 1:
            raise DomainError("digits must be at least 1")
        quantum = Decimal(1).scaleb(-digits)
        ctx = Context(prec=self.precision + digits + 10)
        return format(self.value.quantize(quantum, rounding=rounding, context=ctx), "f")

    def __eq__(self, other):
        raise TypeError("PrecReal values do not compare; compare their .value")

    __ne__ = __eq__

    def __str__(self):
        return str(self.value)

    def __format__(self, spec):
        return format(self.value, spec)

    def __repr__(self):
        return f"PrecReal({str(self.value)!r}, precision={self.precision})"


def confirmed_value(compute: Callable[[int], T], digits: int, precision: int) -> T:
    """Run ``compute`` at ``precision`` and ``precision + 20`` and compare.

    ``compute`` returns a ``PrecReal``, or a result whose ``.value`` is one;
    the two values must agree to within one unit in the ``digits``-th
    decimal place; the higher-precision result is returned.  Disagreement
    raises ``RefusalError`` -- no value is ever reported on the strength
    of a single run.
    """
    first = compute(precision)
    second = compute(precision + GUARD_DIGITS)
    gap = abs(first.value - second.value)
    if gap > Decimal(1).scaleb(-digits):
        raise RefusalError(
            f"reruns at precisions {precision} and {precision + GUARD_DIGITS} "
            f"disagree beyond 10^-{digits} (gap {gap:E})"
        )
    return second


def _int_horner(coeffs: Sequence[int], p: int, q: int) -> int:
    """sum_t coeffs[t] p**t q**(d - t) for d = len(coeffs) - 1 and q >= 1:
    the polynomial at p/q times q**d, by Horner's rule on integers with no
    gcd; 0 for no coefficients."""
    total, power = 0, 1
    for c in reversed(coeffs):
        total = total * p + c * power
        power *= q
    return total


def _exact_text(numerator: int, denominator: int = 1) -> str:
    """The one text of an exact rational, for a pair in lowest terms with
    ``denominator`` > 0: "n", or "n/d" for d != 1, as ``str(Fraction)``
    writes it, for integers of any length."""
    text = _int_text(numerator)
    return text if denominator == 1 else f"{text}/{_int_text(denominator)}"


#: Integers of at most this many bits are written by ``str``: 2**2048 <
#: 10**617, within the 640 digits that every int-string limit allows.
_SPLIT_BITS = 2048


def _int_text(n: int) -> str:
    """The decimal digits of ``n``, in subquadratic time and past the
    int-string limit.

    ``Decimal(int)`` is quadratic in the length.  Split on the bits,
    n = high * 2**h + low, convert both halves recursively, and recombine
    in exact ``Decimal`` arithmetic, whose multiplication of long numbers
    is subquadratic and whose text has no length limit.
    """
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    powers: dict[int, Decimal] = {}

    def power(bits: int) -> Decimal:  # 2**bits, exactly
        if bits not in powers:
            if bits <= _SPLIT_BITS:
                powers[bits] = Decimal(1 << bits)
            else:
                powers[bits] = _EXACT.multiply(power(bits // 2), power(bits - bits // 2))
        return powers[bits]

    def digits(m: int, bits: int) -> Decimal:  # 0 <= m < 2**bits
        if bits <= _SPLIT_BITS:
            return Decimal(m)
        low_bits = bits // 2
        high, low = m >> low_bits, m & ((1 << low_bits) - 1)
        return _EXACT.fma(digits(high, bits - low_bits), power(low_bits), digits(low, low_bits))

    text = str(digits(abs(n), n.bit_length()))
    return f"-{text}" if n < 0 else text


class CPoly:
    """Dense polynomial in one formal symbol over the rationals.

    The symbol is ``C`` in the series engine and ``x`` in ``telescope``;
    ``format_str`` always writes ``C``.  Stored as integer numerators, in
    ascending order of the power of the symbol, over one shared positive
    denominator.  The pair is normalised -- no trailing zero numerators, and
    one ``math.gcd`` divides out every common factor -- so equal polynomials
    have equal pairs.  ``coeffs`` gives the
    coefficients as a tuple of reduced ``Fraction`` objects.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [Fraction(c) for c in coeffs]
        denominator = math.lcm(*(c.denominator for c in items))
        numerators = [c.numerator * (denominator // c.denominator) for c in items]
        self._store(numerators, denominator)

    def _store(self, numerators: list[int], denominator: int) -> None:
        while numerators and not numerators[-1]:
            numerators.pop()
        common = math.gcd(denominator, *numerators)
        if common != 1:
            numerators = [n // common for n in numerators]
            denominator //= common
        object.__setattr__(self, "_numerators", tuple(numerators))
        object.__setattr__(self, "_denominator", denominator)

    @classmethod
    def _over(cls, numerators: list[int], denominator: int) -> "CPoly":
        """The polynomial sum_t numerators[t]/denominator * C**t (denominator > 0)."""
        poly = object.__new__(cls)
        poly._store(numerators, denominator)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("CPoly instances are immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "CPoly":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "CPoly":
        """The polynomial ``C`` itself."""
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denominator) for n in self._numerators)

    @property
    def degree(self) -> int:
        return len(self._numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self._numerators

    def __bool__(self):
        return bool(self._numerators)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        a, b = self._numerators, other._numerators
        common = math.gcd(self._denominator, other._denominator)
        scale_a, scale_b = other._denominator // common, self._denominator // common
        denominator = self._denominator * scale_a
        if len(a) < len(b):
            a, b, scale_a, scale_b = b, a, scale_b, scale_a
        out = [n * scale_a for n in a]
        for t, n in enumerate(b):
            out[t] += n * scale_b
        return CPoly._over(out, denominator)

    __radd__ = __add__

    def __neg__(self):
        return CPoly._over([-n for n in self._numerators], self._denominator)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return CPoly._over(
                [n * other.numerator for n in self._numerators],
                self._denominator * other.denominator,
            )
        if not isinstance(other, CPoly):
            return NotImplemented
        a, b = self._numerators, other._numerators
        if not (a and b):
            return CPoly()
        out = [0] * (len(a) + len(b) - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    out[s + t] += x * y
        return CPoly._over(out, self._denominator * other._denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = CPoly.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.constant(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return (self._numerators, self._denominator) == (other._numerators, other._denominator)

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """The exact value at a rational ``x`` = p/q, as a reduced
        ``Fraction``: ``_int_horner`` of the numerators at p/q over the
        denominator times q**d, 0 for the zero polynomial."""
        x = Fraction(x)
        total = _int_horner(self._numerators, x.numerator, x.denominator)
        return Fraction(total, self._denominator * x.denominator ** max(self.degree, 0))

    def at(self, x: int, bits: int) -> tuple[int, int]:
        """(V, E) with 0 <= 2**B P(x/2**B) - V <= E <= 4, for B = ``bits``
        and 0 <= x <= 2**(B-1): the value at an orbit point in binary fixed
        point.

        Horner's rule on integers: with c_t = n_t/den and D the degree,
        V_D = floor(2**B c_D) and V_t = floor(V_{t+1} x/2**B) + floor(2**B c_t),
        each coefficient and each product floored once.  With P_t the
        polynomial sum_{s>=t} c_s y**(s-t) and y = x/2**B, the error
        e_t = 2**B P_t(y) - V_t obeys e_t = e_{t+1} y + f + g, where f and g
        are what the two floors drop, each in [0, 1) and 0 when its division
        is exact.  So e_t >= 0, as y >= 0, and e_t <= E_t for the integers
        E_t = ceil(E_{t+1} y) + [f > 0] + [g > 0], counted during the run.
        At y <= 1/2, E_{t+1} <= 4 gives E_t <= 2 + 2, so every E_t <= 4;
        and E = 0 when every floor is exact, as for P = x itself.
        """
        mask, value, error = (1 << bits) - 1, 0, 0
        for n in reversed(self._numerators):
            product = value * x
            coefficient, rest = divmod(n << bits, self._denominator)
            error = -(-error * x >> bits) + bool(product & mask) + bool(rest)
            value = (product >> bits) + coefficient
        return value, error

    def coeff_strings(self) -> list[str]:
        """Ascending coefficient strings, e.g. ``["-5", "3"]`` for 3*C - 5.

        Each is the reduced coefficient, formed from the stored pair with
        one gcd and written by ``_exact_text``.
        """
        strings = []
        for n in self._numerators:
            common = math.gcd(n, self._denominator)
            strings.append(_exact_text(n // common, self._denominator // common))
        return strings

    def format_str(self) -> str:
        """Human-readable form in descending powers, e.g. ``"3*C - 5"``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        coeffs = self.coeffs
        for power in range(self.degree, -1, -1):
            c = coeffs[power]
            if c == 0:
                continue
            body = _exact_text(*abs(c).as_integer_ratio())
            if power:
                var = "C" if power == 1 else f"C^{power}"
                body = var if body == "1" else f"{body}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"CPoly({self.format_str()})"
