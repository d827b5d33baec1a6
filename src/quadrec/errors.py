"""Exception hierarchy shared by all quadrec modules.

The command-line front end maps these onto process exit codes, so the
distinctions matter:

* ``DomainError``   -- the request itself is malformed (p outside (0, 1),
                       nonsensical digit counts, ...), exit code 2.
* ``ExactCapError`` -- an exact-arithmetic routine was asked to run past its
                       bit-growth cap, exit code 3.
* ``RefusalError``  -- the inputs are well-formed but the module cannot meet
                       its accuracy contract for them (precision too low,
                       contraction ratio too close to 1, ...), exit code 4.

``PrecisionError`` is a refusal: two runs at different precisions failed to
confirm the requested digits, so no value is reported.  Only
``numerics.confirmed_value`` raises it, and no library computation calls
``confirmed_value``: each derives its rounding bound in one pass.
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


class PrecisionError(RefusalError):
    """Raised when independent reruns fail to confirm the requested digits."""


class EngineError(QuadrecError):
    """Raised when the series engine meets an inconsistent matching system."""
