"""End-to-end tests of the command-line interface via its main() entry."""

from __future__ import annotations

import contextlib
import csv
import io
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.cli import main
from quadrec.critical import MAX_PRECISION
from quadrec.errors import DomainError
from quadrec.rate_constants import MAX_DIGITS
from quadrec.recurrence import MAX_DEPTH, classify
from quadrec.series_engine import MAX_ORDER
from quadrec.sums import MAX_DIGITS_BOOTSTRAP, MAX_DIGITS_POWER, MAX_DIGITS_S1, MAX_POWER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------


def test_iterate_exact_rows(capsys):
    rows = run_json(capsys, "iterate", "--p", "1/2", "--steps", "3", "--exact")
    assert rows == [
        {"k": 0, "a": "0"},
        {"k": 1, "a": "1/2"},
        {"k": 2, "a": "5/8"},
        {"k": 3, "a": "89/128"},
    ]


def test_iterate_rounded_rows(capsys):
    rows = run_json(capsys, "iterate", "--p", "2/5", "--steps", "3", "--digits", "10")
    assert rows[-1] == {"k": 3, "a": "0.8214144000"}


def test_iterate_exact_renders_values_past_the_int_string_limit(capsys):
    # at 14 steps the numerators pass the 4300 digits that str(int) allows;
    # at p = 1/2, a_k = n/2**e with n' = 4**e + n**2 and e' = 2e + 1
    rows = run_json(capsys, "iterate", "--p", "1/2", "--steps", "14", "--exact")
    expected = [{"k": 0, "a": "0"}]
    n, e = 1, 1
    for k in range(1, 15):
        expected.append({"k": k, "a": f"{Decimal(n)}/{Decimal(2**e)}"})
        n, e = 4**e + n * n, 2 * e + 1
    assert rows == expected
    assert len(rows[-1]["a"]) > 4300


def test_iterate_rejects_bad_parameter(capsys):
    code, _out, err = run(capsys, "iterate", "--p", "3/2", "--steps", "3")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("p", ["abc", "1/0", "", pytest.param("1" + "0" * 4400, id="4401 digits")])
@pytest.mark.parametrize("command", [["iterate", "--steps", "3"], ["rate-constant"]], ids=" ".join)
def test_a_malformed_p_reads_the_message_of_classify(capsys, command, p):
    # classify is the one parser of --p, so the CLI prints its message; it
    # reads --p with Fraction, whose parser stops at the int-string limit
    # inside one integer, so 4401 digits in one integer are malformed there
    with pytest.raises(DomainError) as raised:
        classify(p)
    assert run(capsys, *command, f"--p={p}") == (2, "", f"error: {raised.value}\n")


def test_iterate_exact_reads_no_digits(capsys):
    # the exact orbit never rounds, so --digits is neither read nor checked
    argv = ["iterate", "--p", "1/3", "--steps", "2", "--exact"]
    default = run(capsys, *argv)
    assert default[0] == 0
    for digits in ("0", "51"):
        assert run(capsys, *argv, "--digits", digits) == default
    argv[argv.index("--steps") + 1] = "-1"
    assert run(capsys, *argv, "--digits", "51") == (2, "", "error: depth must be at least 0\n")


def test_iterate_exact_cap_exit_code(capsys):
    code, _out, err = run(capsys, "iterate", "--p", "1/2", "--steps", "40", "--exact")
    assert code == 3
    assert "cap" in err


def test_iterate_exact_size_cap_exit_code(capsys):
    # 17 steps are under the step cap, but at p = 999/1000 the denominators
    # could reach 10 * (2**17 - 1) bits, past the size cap
    code, _out, err = run(capsys, "iterate", "--p", "999/1000", "--steps", "17", "--exact")
    assert code == 3
    assert "cap" in err


ZEROS = "0" * 4400


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("iterate --p 1e4400 --steps 1", 2, f"error: p must satisfy 0 < p < 1, got 1{ZEROS}"),
        (
            "iterate --p 1e-4400 --steps 8 --exact",
            3,
            f"error: exact orbit of length 8 at p = 1/1{ZEROS} exceeds the cap of 2**20 bits",
        ),
        ("rate-constant --p 1e-4400 --digits 2", 4, "refused: q bits 14616 exceeds the limit of 4096"),
    ],
    ids=["p>1", "exact cap", "q bits"],
)
def test_a_long_p_gets_its_exit_code_and_is_written_in_full(capsys, argv, code, message):
    # p has 4401 digits, past the 4300 that str(int) writes by default; an
    # uncaught ValueError would fail the call itself
    exit_code, out, err = run(capsys, *argv.split())
    assert (exit_code, out) == (code, "")
    assert err.startswith(message)


# ---------------------------------------------------------------------------
# rate-constant and table1
# ---------------------------------------------------------------------------


def test_rate_constant_json_schema(capsys):
    obj = run_json(capsys, "rate-constant", "--p", "2/5", "--digits", "12")
    assert set(obj) == {"p", "C", "factors_used", "tail_bound"}
    assert obj["p"] == "2/5"
    assert obj["C"] == "0.237646658969"
    assert obj["factors_used"] == 22


def test_rate_constant_refuses_critical_point(capsys):
    code, _out, err = run(capsys, "rate-constant", "--p", "1/2")
    assert code == 4


@pytest.mark.parametrize(
    "argv", [["rate-constant", "--p", "2/5"], ["table1"]], ids=lambda argv: argv[0]
)
def test_rate_constants_refuse_more_than_fifty_digits(capsys, monkeypatch, argv):
    import quadrec.rate_constants as rate_constants

    walks = []
    original = rate_constants.orbit_integers

    def orbit_integers(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(rate_constants, "orbit_integers", orbit_integers)
    code, out, err = run(capsys, *argv, "--digits", "51")
    assert (code, out, walks) == (4, "", [])
    assert err.startswith("refused: ")
    code, out, _err = run(capsys, *argv, "--digits", "50")
    assert code == 0
    rows = json.loads(out)
    assert all(len(row["C"]) == 52 for row in (rows if isinstance(rows, list) else [rows]))


def test_table1_json_values(capsys):
    rows = run_json(capsys, "table1")
    assert [r["C"] for r in rows] == [
        "0.423894537869731",
        "0.392906852755779",
        "0.322119375942447",
        "0.237646658969724",
        "0.158431105979816",
        "0.161059687971223",
        "0.130968950918593",
        "0.105973634467432",
    ]


def test_table1_text_format(capsys):
    code, out, _err = run(capsys, "table1", "--format", "text")
    assert code == 0
    assert "0.423894537869731" in out
    assert "1/5" in out


def test_table1_csv_format(capsys):
    code, out, _err = run(capsys, "table1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "p"
    assert len(rows) == 9  # header + eight parameter points


def test_table1_output_is_deterministic(capsys):
    _code, first, _ = run(capsys, "table1")
    _code, second, _ = run(capsys, "table1")
    assert first == second


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_text_lines(capsys):
    code, out, _err = run(capsys, "derive", "--order", "4", "--format", "text")
    assert code == 0
    assert "c[1][0] = -2" in out
    assert "c[2][0] = C" in out
    assert "c[4][2] = 3*C - 5" in out


def test_derive_text_solves_the_table_once(capsys, monkeypatch):
    import quadrec.cli as cli

    orders = []
    original = cli.solve_coefficients

    def solve(order):
        orders.append(order)
        return original(order)

    monkeypatch.setattr(cli, "solve_coefficients", solve)
    code, _out, _err = run(capsys, "derive", "--order", "4", "--format", "text")
    assert code == 0
    assert orders == [4]


def test_derive_json_rows_are_exact_coefficient_lists(capsys):
    rows = run_json(capsys, "derive", "--order", "3")
    assert all(set(r) == {"i", "j", "coeffs"} for r in rows)
    by_key = {(r["i"], r["j"]): r["coeffs"] for r in rows}
    assert by_key[(3, 0)] == ["-1", "1", "-1/2"]  # ascending powers of C


def test_derive_csv_joins_each_coefficient_list(capsys):
    code, out, _err = run(capsys, "derive", "--order", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "coeffs"]
    assert ["3", "0", "-1;1;-1/2"] in rows  # ascending powers of C


def test_derive_rejects_low_order(capsys):
    code, _out, _err = run(capsys, "derive", "--order", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# critical-c and residual-check
# ---------------------------------------------------------------------------


def test_critical_c_shallow_run(capsys):
    obj = run_json(
        capsys, "critical-c", "--N", "1000", "--order", "3", "--precision", "40"
    )
    assert set(obj) == {"C", "N", "order", "truncation_bound"}
    assert obj["C"].startswith("3.53")
    assert obj["N"] == 1000


def test_critical_c_refuses_starved_precision(capsys):
    code, out, err = run(
        capsys, "critical-c", "--N", "1000000", "--order", "6", "--precision", "19"
    )
    assert code == 2
    assert out == ""
    assert "precision" in err


def test_critical_c_low_precision_widens_the_bound(capsys):
    # at depth 10**6 a 30-digit orbit rounds far more than the series
    # truncates; the bound grows to cover the rounding instead of refusing
    low = run_json(capsys, "critical-c", "--N", "1000000", "--order", "6", "--precision", "30")
    high = run_json(capsys, "critical-c", "--N", "1000000", "--order", "6", "--precision", "60")
    bound = Decimal(low["truncation_bound"])
    assert bound >= 2 * Decimal(10**6) ** 2 * Decimal("1e-29")
    assert abs(Decimal(low["C"]) - Decimal(high["C"])) <= bound


@pytest.mark.parametrize("command", ["derive", "critical-c", "residual-check"])
def test_orders_past_the_solver_limit_are_refused(capsys, command):
    code, out, err = run(capsys, command, "--order", "21")
    assert code == 4
    assert out == ""
    assert "order 21" in err


def test_critical_c_refuses_depth_past_the_limit(capsys):
    code, out, err = run(capsys, "critical-c", "--N", str(10**7 + 1))
    assert code == 4
    assert out == ""
    assert "depth" in err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--N", str(10**7 + 1)], "depth 10000001 exceeds the limit of 10000000"),
        (["--precision", "201"], "precision 201 exceeds the limit of 200"),
    ],
    ids=["depth", "precision"],
)
def test_critical_c_refuses_before_any_work(capsys, monkeypatch, option, message):
    import quadrec.critical as critical

    def fail(*args, **kwargs):
        raise AssertionError("called before the refusal")

    monkeypatch.setattr(critical, "telescope", fail)
    monkeypatch.setattr(critical, "logistic_point", fail)
    code, out, err = run(capsys, "critical-c", *option)
    assert code == 4
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--p", "2/5", "--steps", str(10**7 + 1)],
        ["diverge-check", "--N", str(10**7 + 1)],
        # the deepest sample of --N 2*10**7 is 10 * 2**20 = 10 485 760
        ["residual-check", "--N", str(2 * 10**7)],
    ],
    ids=["iterate", "diverge-check", "residual-check"],
)
def test_orbit_walks_past_the_depth_limit_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "depth" in err


def test_residual_check_refuses_a_deep_sample_before_solving(capsys, monkeypatch):
    import quadrec.critical as critical

    def fail(*args, **kwargs):
        raise AssertionError("called before the depth refusal")

    monkeypatch.setattr(critical, "solve_coefficients", fail)
    monkeypatch.setattr(critical, "estimate_constant", fail)
    code, out, err = run(capsys, "residual-check", "--N", str(2 * 10**7))
    assert code == 4
    assert out == ""
    assert "depth 10485760 exceeds the limit of 10000000" in err


def test_residual_check_rows_decrease(capsys):
    rows = run_json(capsys, "residual-check", "--order", "2", "--N", "160")
    assert [r["k"] for r in rows] == [10, 20, 40, 80, 160]
    residuals = [float(r["residual"]) for r in rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_residual_check_rejects_shallow_n(capsys):
    code, _out, _err = run(capsys, "residual-check", "--N", "5")
    assert code == 2


# ---------------------------------------------------------------------------
# sums family
# ---------------------------------------------------------------------------


def test_sums_command_value_prefix(capsys):
    obj = run_json(capsys, "sums", "--m", "8", "--digits", "6")
    assert set(obj) == {"m", "value", "terms_summed", "tail_correction", "error_estimate"}
    assert obj["value"] == "0.003923"


def test_sums_defaults_to_the_exact_half_case(capsys):
    obj = run_json(capsys, "sums", "--digits", "12")
    assert obj["m"] == 2
    assert obj["value"] == "0.500000000000"


#: The digit counts at which ``sums --m MAX_POWER`` passes its relative check.
SERVED_AT_MAX_POWER = (1, 4, 7, 10, 13)


@pytest.mark.parametrize(
    "digits", [d for d in range(1, MAX_DIGITS_POWER + 1) if d not in SERVED_AT_MAX_POWER]
)
def test_the_largest_power_is_refused_before_its_pass(capsys, monkeypatch, digits):
    # where the check after the pass must refuse, the orbit is never drawn
    import quadrec.sums as sums

    def forbidden(*args):
        raise AssertionError("a refused sum walks no orbit")

    monkeypatch.setattr(sums, "orbit_integers", forbidden)
    code, out, err = run(capsys, "sums", "--m", str(MAX_POWER), "--digits", str(digits))
    assert (code, out) == (4, "")
    assert f"exceeds 10^-{digits + 2} of the sum" in err


def test_a_refused_sum_prints_its_bound_to_three_digits(capsys):
    code, out, err = run(capsys, "sums", "--m", str(MAX_POWER), "--digits", "2")
    assert (code, out) == (4, "")
    assert err == (
        "refused: the error bound 7.07E-43 exceeds 10^-4 of the sum; request fewer digits\n"
    )


@pytest.mark.parametrize("digits", SERVED_AT_MAX_POWER)
def test_the_largest_power_is_served_where_its_check_passes(capsys, digits):
    obj = run_json(capsys, "sums", "--m", str(MAX_POWER), "--digits", str(digits))
    assert obj["m"] == MAX_POWER
    assert obj["value"] == "0." + "0" * digits


def test_s1_command(capsys):
    obj = run_json(capsys, "s1", "--digits", "4")
    assert obj["m"] == 1
    assert obj["value"] == "-1.6020"


def test_s1_digit_cap_exit_code(capsys):
    code, _out, _err = run(capsys, "s1", "--digits", "12")
    assert code == 4


def test_bootstrap_command(capsys):
    obj = run_json(capsys, "bootstrap", "--digits", "4")
    assert set(obj) == {
        "c", "gamma", "s1", "sum_m_ge_2", "formula_value", "residual",
    }
    assert abs(float(obj["residual"])) < 1e-4
    assert obj["gamma"].startswith("0.57721566")


def test_diverge_check_command(capsys):
    obj = run_json(capsys, "diverge-check", "--N", "100")
    assert set(obj) == {"N", "partial_sum", "reference", "difference"}
    assert obj["partial_sum"] == "3.6568540221"
    assert obj["reference"] == "3.5804210679"


def test_diverge_check_shows_ten_decimals(capsys):
    obj = run_json(capsys, "diverge-check", "--N", "200")
    assert obj["partial_sum"] == "4.3156935216"
    assert obj["reference"] == "4.2735682485"
    assert obj["difference"] == "0.0421252731"


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--p", "1/2", "--steps", "3"],
        ["residual-check", "--N", "20"],
        ["diverge-check", "--N", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_precision_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "40"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# global flags and plumbing
# ---------------------------------------------------------------------------


def test_verbose_times_to_stderr_only(capsys):
    code, out, err = run(capsys, "table1", "--verbose")
    assert code == 0
    json.loads(out)  # stdout stays machine-readable
    assert "elapsed" in err


def test_format_flag_after_subcommand(capsys):
    code, out, _err = run(capsys, "sums", "--digits", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "value", "terms_summed", "tail_correction", "error_estimate"]


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--p", "2/5", "--steps", "3"],
        ["rate-constant", "--p", "2/5"],
        ["table1"],
        ["sums", "--m", "3"],
        ["s1"],
        ["bootstrap"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_digits_is_a_domain_error_everywhere(capsys, argv):
    for digits in ("0", "-3"):
        code, out, err = run(capsys, *argv, "--digits", digits)
        assert code == 2
        assert out == ""
        assert err == "error: digits must be at least 1\n"


#: Every limit a command exposes, with cheap other arguments:
#: (command, option) -> (least accepted value, largest accepted value).
LIMITS = {
    (("iterate", "--p", "2/5", "--steps", "3"), "--digits"): (1, MAX_DIGITS),
    (("rate-constant", "--p", "2/5"), "--digits"): (1, MAX_DIGITS),
    (("table1",), "--digits"): (1, MAX_DIGITS),
    (("sums", "--m", "3"), "--digits"): (1, MAX_DIGITS_POWER),
    (("s1",), "--digits"): (1, MAX_DIGITS_S1),
    (("bootstrap",), "--digits"): (1, MAX_DIGITS_BOOTSTRAP),
    (("sums",), "--m"): (2, MAX_POWER),
    (("critical-c",), "--N"): (100, MAX_DEPTH),
    (("critical-c",), "--order"): (3, MAX_ORDER),
    (("critical-c",), "--precision"): (20, MAX_PRECISION),
    (("derive",), "--order"): (3, MAX_ORDER),
    (("residual-check",), "--order"): (1, MAX_ORDER),
    # samples k = 10 * 2**t <= N: the deepest passes MAX_DEPTH from N = 10 * 2**20 on
    (("residual-check",), "--N"): (10, 10 * 2**20 - 1),
    (("diverge-check",), "--N"): (100, MAX_DEPTH),
}


def exit_and_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    limit=st.sampled_from(sorted(LIMITS)),
    below=st.integers(1, 10**6),
    above=st.integers(1, 10**12),
)
def test_each_bad_input_has_one_exit_code(limit, below, above):
    # a value below its least is invalid (2), one above its cap is refused
    # (4); each before any work
    (command, option), (least, cap) = limit, LIMITS[limit]
    assert exit_and_stdout(*command, option, str(least - below)) == (2, "")
    assert exit_and_stdout(*command, option, str(cap + above)) == (4, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-c", "--N", str(MAX_DEPTH + 1), "--order", "2"],
        ["critical-c", "--order", "21", "--precision", "19"],
        ["critical-c", "--N", "99", "--precision", "201"],
        ["sums", "--m", "130", "--digits", "0"],
        ["sums", "--m", "1", "--digits", "16"],
        ["rate-constant", "--p", "1/2", "--digits", "0"],
        ["residual-check", "--order", "21", "--N", "9"],
        ["iterate", "--p", "2/5", "--steps", "-1", "--digits", "51"],
    ],
    ids=" ".join,
)
def test_a_malformed_value_is_reported_before_a_refused_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be at least" in err


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_json_scalars_are_strings_where_precision_matters(capsys):
    obj = run_json(capsys, "rate-constant", "--p", "1/5")
    assert isinstance(obj["C"], str)
    assert isinstance(obj["tail_bound"], str)
    assert isinstance(obj["factors_used"], int)
