"""The result records are ``typing.NamedTuple``s, and the CLI loads no
``dataclasses``.

Their field names, order and defaults are the contract that the CLI, the
scripts and the benchmark read; as tuples they also unpack, index and
compare equal to a plain tuple of their fields.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadrec.critical import CriticalEstimate
from quadrec.rate_constants import DiagnosticRow, RateConstantResult
from quadrec.recurrence import OrbitSample, Params, Regime, classify
from quadrec.series_engine import AsymSeries, CoefficientTable
from quadrec.sums import BootstrapReport, S2Witness, SumResult

ROOT = Path(__file__).resolve().parents[1]

RECORDS = {
    Params: ("p", "regime", "r", "q"),
    OrbitSample: ("k", "a", "b"),
    AsymSeries: ("order", "terms"),
    CoefficientTable: ("max_order", "entries"),
    CriticalEstimate: (
        "C", "depth", "order", "precision", "truncation_bound", "newton_iterations",
    ),
    RateConstantResult: ("p", "q", "C", "factors_used", "tail_bound", "digits"),
    DiagnosticRow: ("k", "b", "ratio"),
    SumResult: ("m", "value", "terms_summed", "tail_correction", "error_estimate"),
    S2Witness: ("n", "partial", "complement", "holds"),
    BootstrapReport: (
        "digits", "c", "gamma", "s1", "sum_m_ge_2", "formula_value", "residual",
    ),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_each_record_is_a_named_tuple_with_its_fields(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORDS[record]
    defaults = {"newton_iterations": 0} if record is CriticalEstimate else {}
    assert record._field_defaults == defaults


def test_a_record_is_a_tuple_of_its_fields():
    params = classify("3/4")
    p, regime, r, q = params
    assert params == (Fraction(3, 4), Regime.SUPERCRITICAL, Fraction(1, 3), Fraction(1, 2))
    assert (p, regime, r, q) == (params.p, params.regime, params.r, params.q)
    assert params[3] is params.q


def test_setting_a_field_raises_attribute_error():
    with pytest.raises(AttributeError):
        classify("2/5").q = Fraction(1)


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, quadrec.cli; print('dataclasses' in sys.modules)"
    # -S: no site hooks, so only the imports of quadrec count
    argv = [sys.executable, "-S", "-c", code]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
