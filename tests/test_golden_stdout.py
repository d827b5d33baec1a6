"""Frozen stdout of cheap CLI invocations.

Every command promises byte-identical stdout for identical arguments.  These
strings pin the exact bytes (digits, field order, widths, trailing digits of
the error evidence), so a refactor that changes any byte of output fails
here and has to update the string deliberately.  The cases together run in
well under two seconds.
"""

from __future__ import annotations

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
  "factors_used": 235,
  "tail_bound": "8.416217442477397611585583812608205864881E-23"
}
""",
    ),
    (
        "rate-constant --p 499/1000",
        """\
{
  "p": "499/1000",
  "C": "0.003944476201135",
  "factors_used": 22657,
  "tail_bound": "9.9918050584994803464878436593162399E-18"
}
""",
    ),
    (
        "rate-constant --p 501/1000",
        """\
{
  "p": "501/1000",
  "C": "0.003928729789155",
  "factors_used": 22657,
  "tail_bound": "9.9918050584994803464878436593162399E-18"
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
  "truncation_bound": "5.0406038268268128732314426028525628009912403619115E-30"
}
""",
    ),
    (
        "residual-check --N 320 --order 3",
        """\
[
  {
    "k": 10,
    "residual": "0.0056847016872893228832378934609332910695"
  },
  {
    "k": 20,
    "residual": "0.0006761554011435912305362571536169620366"
  },
  {
    "k": 40,
    "residual": "0.0000720429421982707947493979222548950540"
  },
  {
    "k": 80,
    "residual": "0.0000070609938304015055286867235891056343"
  },
  {
    "k": 160,
    "residual": "6.496646362280665171496711374652687E-7"
  },
  {
    "k": 320,
    "residual": "5.69648113389251677114076483333794E-8"
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
  "error_estimate": "3.3689816284972748418351927939695794319291863389678E-50"
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
  "error_estimate": "7.672284046577941178570115069646386148874440E-43"
}
""",
    ),
]


@pytest.mark.parametrize("command, expected", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_is_frozen(capsys, command, expected):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected
