"""Frozen stdout of cheap CLI invocations.

Every command promises byte-identical stdout for identical arguments.  These
strings pin the exact bytes (digits, field order, widths, trailing digits of
the error evidence), so a refactor that changes any byte of output fails
here and has to update the string deliberately.  The cases together run in
well under two seconds.

Each case, and two whose q and p are not short decimals, also runs inside
a 3-digit thread context: every Decimal result is computed on a context
that the library names, so stdout must not change and that context must
round nothing.
"""

from __future__ import annotations

import decimal
import hashlib

import pytest

from quadrec.cli import main

GOLDEN = [
    (
        "iterate --p 2/5 --steps 6 --format csv",
        """\
k,a
0,0.000000000000000
1,0.600000000000000
2,0.744000000000000
3,0.821414400000000
4,0.869888646610944
5,0.902682503001048
6,0.925934280489695
""",
    ),
    (
        "iterate --p 3/4 --steps 5 --digits 25",
        """\
[
  {
    "k": 0,
    "a": "0.0000000000000000000000000"
  },
  {
    "k": 1,
    "a": "0.2500000000000000000000000"
  },
  {
    "k": 2,
    "a": "0.2968750000000000000000000"
  },
  {
    "k": 3,
    "a": "0.3161010742187500000000000"
  },
  {
    "k": 4,
    "a": "0.3249399168416857719421387"
  },
  {
    "k": 5,
    "a": "0.3291894621678112485812367"
  }
]
""",
    ),
    (
        "iterate --p 1/2 --steps 4 --exact --format text",
        """\
k  a
0  0
1  1/2
2  5/8
3  89/128
4  24305/32768
""",
    ),
    (
        "rate-constant --p 2/5 --digits 20",
        """\
{
  "p": "2/5",
  "C": "0.23764665896972491411",
  "factors_used": 35,
  "tail_bound": "2.09213524902E-23"
}
""",
    ),
    (
        "rate-constant --p 499/1000",
        """\
{
  "p": "499/1000",
  "C": "0.003944476201135",
  "factors_used": 3261,
  "tail_bound": "3.54026225230E-20"
}
""",
    ),
    (
        "rate-constant --p 501/1000",
        """\
{
  "p": "501/1000",
  "C": "0.003928729789155",
  "factors_used": 3261,
  "tail_bound": "3.52612946885E-20"
}
""",
    ),
    (
        "derive --order 5 --format text",
        """\
c[1][0] = -2
c[2][1] = 2
c[2][0] = C
c[3][2] = -2
c[3][1] = -2*C + 2
c[3][0] = -1/2*C^2 + C - 1
c[4][3] = 2
c[4][2] = 3*C - 5
c[4][1] = 3/2*C^2 - 5*C + 5
c[4][0] = 1/4*C^3 - 5/4*C^2 + 5/2*C - 5/3
c[5][4] = -2
c[5][3] = -4*C + 26/3
c[5][2] = -3*C^2 + 13*C - 15
c[5][1] = -C^3 + 13/2*C^2 - 15*C + 35/3
c[5][0] = -1/8*C^4 + 13/12*C^3 - 15/4*C^2 + 35/6*C - 61/18
""",
    ),
    (
        "critical-c --N 2000 --order 8 --precision 50",
        """\
{
  "C": "3.5359875722723081008872688135574593575587895708",
  "N": 2000,
  "order": 8,
  "truncation_bound": "5.0406038268268128732314426028525628009912403619116E-30"
}
""",
    ),
    (
        "residual-check --N 320 --order 3",
        """\
[
  {
    "k": 10,
    "residual": "0.0056847016872893228832378935321747133984"
  },
  {
    "k": 20,
    "residual": "0.0006761554011435912305362571893534840113"
  },
  {
    "k": 40,
    "residual": "0.0000720429421982707947493979339695776949"
  },
  {
    "k": 80,
    "residual": "0.0000070609938304015055286867269328179815"
  },
  {
    "k": 160,
    "residual": "6.496646362280665171496720337076500E-7"
  },
  {
    "k": 320,
    "residual": "5.69648113389251677114078809875219E-8"
  }
]
""",
    ),
    (
        "sums --m 4 --digits 10",
        """\
{
  "m": 4,
  "value": "0.0689777061",
  "terms_summed": 1001,
  "tail_correction": "3.2407381881550057579025106870980089463243324988822E-10",
  "error_estimate": "3.3689816284972748418351927939695794319291863389679E-50"
}
""",
    ),
    (
        "s1 --digits 3",
        """\
{
  "m": 1,
  "value": "-1.602",
  "terms_summed": 1001,
  "tail_correction": "-0.0096337448411449084172269477262007865491853",
  "error_estimate": "7.672284046577941178570115069646386148874441E-43"
}
""",
    ),
]


@pytest.mark.parametrize("command, expected", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_is_frozen(capsys, command, expected):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected


#: Requests whose digits a result rounded on the thread's context would
#: change: q = 2/3 here, where the goldens' q are short decimals.
LONG_DECIMALS = ["table1 --digits 15", "iterate --p 1/3 --steps 8 --digits 30"]


@pytest.mark.parametrize("command", [c for c, _ in GOLDEN] + LONG_DECIMALS)
def test_stdout_ignores_the_thread_context(capsys, command):
    assert main(command.split()) == 0
    expected = capsys.readouterr().out
    with decimal.localcontext(decimal.Context(prec=3)) as thread:
        assert main(command.split()) == 0
    assert capsys.readouterr().out == expected
    # nothing was rounded there, not even below the printed digits
    assert not thread.flags[decimal.Rounded]


#: sha256 of the stdout of ``derive --order 20 --format json``: the whole
#: table at the solver's limit, 53 826 bytes, too long to inline.  Frozen
#: before the solver's integer kernel was rewritten.
DERIVE_20_SHA256 = "2aec263480108316070e7cfa6539a974d791eb84486ce61e9f5c7a8e3e508a06"


def test_full_table_stdout_is_frozen(capsys):
    assert main(["derive", "--order", "20", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_20_SHA256
