"""Exception hierarchy shared by all quadrec modules.

The command-line front end maps these onto process exit codes, so the
distinctions matter:

* ``DomainError``   -- the request itself is malformed (p outside (0, 1),
                       nonsensical digit counts, ...), exit code 2.
* ``ExactCapError`` -- an exact-arithmetic routine was asked to run past its
                       bit-growth cap, exit code 3.
* ``RefusalError``  -- the inputs are well-formed but the module cannot meet
                       its accuracy contract for them (a depth or digit
                       count past its cap, contraction ratio too close to
                       1, ...), exit code 4.

A plain request limit -- a depth, order, precision, digit count or power
with a least value and perhaps a cap -- goes through ``check_ranges``, one
rule for every module: a value below its least is a ``DomainError``
("digits must be at least 1"), a value above its cap a ``RefusalError``
("depth 10000001 exceeds the limit of 10000000"), and within one check a
malformed value is reported before a refused one.

``EngineError`` signals an internal inconsistency in the symbolic series
engine (a matching slot that should be forced but is not); it is a bug
indicator, not a user error, and deliberately maps to a plain failure.
"""

from __future__ import annotations


class QuadrecError(Exception):
    """Base class for all quadrec errors."""


class DomainError(QuadrecError):
    """Raised when an argument lies outside the documented domain."""


class ExactCapError(QuadrecError):
    """Raised when an exact-orbit request exceeds the bit-growth cap."""


class RefusalError(QuadrecError):
    """Raised when a module declines to report a value it cannot certify."""


class EngineError(QuadrecError):
    """Raised when the series engine meets an inconsistent matching system."""


def check_ranges(*limits: tuple[str, int, int, int | None]) -> None:
    """Check ``(name, value, least, cap)`` limits; a cap of ``None`` is no cap.

    The first value below its least raises ``DomainError``; only when none
    is, the first value above its cap raises ``RefusalError``.
    """
    for name, value, least, _cap in limits:
        if value < least:
            raise DomainError(f"{name} must be at least {least}")
    for name, value, _least, cap in limits:
        if cap is not None and value > cap:
            from .numerics import _exact_text  # numerics imports this module

            raise RefusalError(f"{name} {_exact_text(value)} exceeds the limit of {cap}")
