"""Shared fixtures: solved coefficient tables and a moderate-depth estimate.

Both are expensive enough to be worth computing once per session, and pure
enough (deterministic, immutable results) to share safely.
"""

from __future__ import annotations

import pytest

from quadrec.critical import estimate_constant
from quadrec.series_engine import solve_coefficients


@pytest.fixture(scope="session")
def table6():
    return solve_coefficients(6)


@pytest.fixture(scope="session")
def table10():
    return solve_coefficients(10)


@pytest.fixture(scope="session")
def reference_estimate():
    """Moderate-depth critical estimate, good to ~17 digits."""
    return estimate_constant(10**5, 6, 60)
