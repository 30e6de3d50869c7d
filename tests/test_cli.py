import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcf import cf, cli, expansion, sequences
from engelcf.asymptotics import _context, _digits_text, full_report
from engelcf.cli import COMMANDS, build_parser, main
from engelcf.exceptions import IdentityViolation
from engelcf.expansion import partial_cf, stream
from engelcf.sequences import FactorSequence, SecondOrderSpec, generate_recurrence
from engelcf.verify import check_instance
from oracles import mp_asymp_payload, parse_cf_text
from test_sequences import second_order_specs

AFFINE = SecondOrderSpec(3, (1, 2))
AFFINE_FLAGS = ["--d1", "3", "--G", "1,2"]
SOURCE_FLAGS = {"--z", "--d1", "--G", "--e1", "--e2", "--H", "--u", "--spec-file", "--bits"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_recurrence(capsys):
    code, out, _ = run(capsys, "gen", "--d1", "3", "--G", "1,2", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# engel-seq v1"
    assert lines[1:] == [
        "1", "1", "3", "189", "852910317", "5599917937724687764238078261637795",
    ]
    code, out, _ = run(capsys, "gen", "--d1", "3", "--G", "1,2", "--n", "5", "--json")
    assert (code, out) == (0, '{"x": ["1", "1", "3", "189", "852910317"]}\n')


def test_gen_factors_with_comment(capsys):
    code, out, _ = run(capsys, "gen", "--z", "3,9,81", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["# engel-seq v1", "# z: 3,9,81", "1", "3", "81", "531441"]
    code, out, _ = run(capsys, "gen", "--z", "3,9", "--n", "3", "--json")
    assert (code, out) == (0, '{"x": ["1", "3", "81"], "z": "3,9"}\n')


def test_gen_validation_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--d1", "2", "--G", "1,2", "--n", "4")
    assert code == 2
    assert "d1" in err


def test_invalid_factor_list_exit_code(capsys):
    code, out, err = run(capsys, "gen", "--z", "1,2", "--n", "3")
    assert (code, out, err) == (2, "", "error: z_2 must be >= 2, got 1\n")


def test_gen_budget_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--d1", "3", "--G", "3", "--n", "30", "--bits", "4096")
    assert code == 3
    assert "bits" in err


@pytest.mark.parametrize("argv, message", [
    ("cf --d1 3 --G 1,2 --n 12 --bits 4096", "x_8 needs at least 5852 bits, cap is 2048"),
    ("stream --u 3 --K 60000 --bits 4096", "x_13 needs at least 3247 bits, cap is 2048"),
    ("asymp --d1 3 --G 1,2 --n 11 --bits 100", "x_5 needs at least 111 bits, cap is 50"),
])
def test_bits_reaches_the_term_store(capsys, argv, message):
    assert run(capsys, *argv.split()) == (3, "", f"error: {message}\n")


def test_gen_requires_one_source(capsys):
    code, _, err = run(capsys, "gen", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "gen", "--z", "3,2", "--u", "3", "--n", "4")
    assert code == 2


def test_cf_examples(capsys):
    code, out, _ = run(capsys, "cf", "--z", "3,2,2", "--n", "4")
    assert (code, out) == (0, "[1;2,1,1,3,1,1,2,1,1,2]\n")
    code, out, _ = run(capsys, "cf", "--z", "2,6,300", "--n", "4")
    assert (code, out) == (0, "[1;1,1,5,2,299,1,1,5,2]\n")
    code, out, _ = run(capsys, "cf", "--z", "3,2", "--n", "1")
    assert (code, out) == (0, "[1]\n")


def test_cf_oracle_check(capsys):
    code, out, _ = run(capsys, "cf", "--z", "3,9,81", "--n", "4", "--check", "oracle")
    assert code == 0
    code, out, _ = run(capsys, "cf", "--u", "2", "--n", "5", "--check", "oracle")
    assert code == 0


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "--z", "3,9,81", "--n", "4", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["cf"] == "[1;2,1,8,3,80,1,2,8,1,2]"
    assert record["length"] == 11
    assert record["class"] == "generic"
    assert record["coefficients"][5] == "80"


def test_cf_json_renders_each_coefficient_once(capsys, monkeypatch):
    # The "cf" text is built from the strings of "coefficients": rendering
    # z_13 - 1 alone takes seconds at --n 13.
    render, calls = cf.render_each, []

    def counted(values):
        calls.append(len(values))
        return render(values)

    monkeypatch.setattr(cf, "render_each", counted)
    monkeypatch.setattr(cli, "render_each", counted)
    code, out, _ = run(capsys, "cf", *AFFINE_FLAGS, "--n", "9", "--json")
    record = json.loads(out)
    assert code == 0 and calls == [record["length"]]
    assert record["cf"] == str(partial_cf(AFFINE, 9))
    assert record["coefficients"] == [str(a) for a in partial_cf(AFFINE, 9).coeffs]


def test_stream_examples(capsys):
    code, out, _ = run(capsys, "stream", "--u", "2", "--K", "19")
    assert (code, out) == (0, "[1;1,4,2,4,4,6,4,2,4,6,2,4,6,4,4,2,4,6]\n")
    code, out, _ = run(capsys, "stream", "--d1", "3", "--G", "1,2", "--K", "11")
    assert (code, out) == (0, "[1;2,1,20,3,23876,1,2,20,1,2]\n")
    code, out, _ = run(capsys, "stream", "--z", "5,1,2,1", "--K", "5")
    assert (code, out) == (0, "[1;4,6,1,1]\n")
    assert run(capsys, "stream", "--u", "3", "--K", "0") == (2, "", "error: --K must be >= 1\n")


def test_stream_json_record(capsys):
    code, out, _ = run(capsys, "stream", "--z", "2,6,300", "--K", "9", "--json")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["class", "n_used", "certified", "lengths"]
    assert record["class"] == "z2_equals_2"
    assert record["n_used"] == 4
    assert record["certified"] == ["1", "1", "1", "5", "2", "299", "1", "1", "5"]
    assert all(isinstance(v, str) for v in record["certified"])
    assert record["lengths"] == [5, 10]


def test_asymp_report(capsys):
    code, out, _ = run(capsys, "asymp", "--d1", "3", "--G", "1,2", "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"lambda", "C", "C_err", "rows"}
    assert report["lambda"].startswith("3.7320508075688772935")
    assert report["C"].startswith("0.10781204305")
    assert [row["n"] for row in report["rows"]] == [2, 3, 4, 5, 6]
    for row in report["rows"]:
        assert set(row) == {"n", "log_x", "exact", "growth_exp", "roth_lo", "roth_hi"}
    assert report["rows"][0]["log_x"].startswith("1.0986")


@pytest.mark.parametrize("flags, kind", [
    ("--z 3,2,2", "FactorSequence"),
    ("--u 3", "FactorSequence"),
    ("--e1 2 --e2 2 --H 0,0,1;1,1,2", "ThirdOrderSpec"),
])
def test_asymp_rejects_other_sources(capsys, flags, kind):
    code, out, err = run(capsys, "asymp", *flags.split(), "--n", "5")
    assert (code, out) == (2, "")
    assert err == f"error: growth analysis needs a second-order spec, got {kind}\n"


def _significant_digits(text: str) -> int:
    # An integral value keeps a trailing ".0", as in "15142.0".
    mantissa = text.split("e")[0].lstrip("-")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0")
    return len(mantissa.replace(".", "").lstrip("0"))


@pytest.mark.parametrize("n", [4, 11])
def test_asymp_rows_stop_at_the_working_precision(capsys, n):
    code, out, _ = run(capsys, "asymp", *AFFINE_FLAGS, "--n", str(n), "--digits", "5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["log_x"] == "1.0986"  # log 3 = 1.0986122886681...
    for row in rows:
        for key, value in row.items():
            if key != "n":
                assert _significant_digits(value) <= 5, (row["n"], key, value)


@pytest.mark.parametrize("digits", [5, 15])
def test_asymp_C_err_covers_the_working_precision(capsys, digits):
    # C is summed at digits + 10 digits, so its rounding alone comes near
    # 10^-(digits + 10) of C, far above the truncation bound 7.12e-38.
    code, out, _ = run(capsys, "asymp", *AFFINE_FLAGS, "--n", "4", "--digits", str(digits))
    assert code == 0
    report = json.loads(out)
    assert float(report["C_err"]) >= 10.0 ** -(digits + 10) * float(report["C"])


@pytest.mark.parametrize("spec, n", [
    (AFFINE, 40),
    (SecondOrderSpec(4, (1, 1, 1)), 30),
    (SecondOrderSpec(3, (1, 1)), 20),
    (SecondOrderSpec(3, (3,)), 12),
])
def test_asymp_growth_exponent_is_the_upper_roth_bracket(capsys, spec, n):
    # The growth exponent log x_{k+1} / log x_k is the upper bracket
    # log x_{k+1} / log q of the exponent at S_k = p/q, as q = x_k.
    flags = ["--d1", str(spec.d1), "--G", ",".join(map(str, spec.g))]
    code, out, _ = run(capsys, "asymp", *flags, "--n", str(n))
    assert code == 0
    logs = full_report(spec, n + 1).lambda_n_true
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == list(range(2, n + 1))
    ctx = _context(40)  # 50 digits
    for row in rows:
        k = row["n"]
        growth = _digits_text(ctx.divide(logs[k + 1], logs[k]), 15)
        assert row["growth_exp"] == row["roth_hi"] == growth


@given(second_order_specs(), st.integers(3, 40), st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_asymp_prints_what_the_mpmath_oracle_prints(spec, n, digits):
    # The oracle sums every k < n in binary floating point; the command
    # cuts the sum and works in decimal. Both carry 10 digits beyond
    # --digits, so every printed digit agrees. C_err differs by design:
    # each bound counts its own library's ulp.
    flags = ["--d1", str(spec.d1), "--G", ",".join(map(str, spec.g))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["asymp", *flags, "--n", str(n), "--digits", str(digits)]) == 0
    payload = json.loads(out.getvalue())
    del payload["C_err"]
    assert payload == mp_asymp_payload(spec, n, digits)


def test_no_command_imports_mpmath():
    # mpmath is a test dependency only: the package, its CLI and one run of
    # each subcommand leave it out of a fresh interpreter.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    runs = [["gen", "--d1", "3", "--G", "1,2", "--n", "6"],
            ["cf", "--d1", "3", "--G", "1,2", "--n", "6", "--check", "oracle"],
            ["stream", "--u", "3", "--K", "50"],
            ["asymp", "--d1", "3", "--G", "1,2", "--n", "11"],
            ["verify", "--suite", "generic", "--trials", "2", "--maxn", "5"],
            ["paper-examples"]]
    code = ("import contextlib, io, sys\n"
            "import engelcf, engelcf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [engelcf.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[0, 0, 0, 0, 0, 0] []\n"


@pytest.mark.parametrize("n", ["2", "0"])
def test_asymp_rejects_n_below_3(capsys, n):
    # full_report holds the only check on n.
    assert run(capsys, "asymp", *AFFINE_FLAGS, "--n", n) == (2, "", "error: n_max must be >= 3\n")


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_asymp_rejects_non_positive_digits(capsys, digits):
    code, out, err = run(capsys, "asymp", "--d1", "3", "--G", "1,2", "--n", "5", "--digits", digits)
    assert (code, out) == (2, "")
    assert "--digits must be >= 1" in err


def test_exhausted_factor_list_reads_the_same_everywhere(capsys):
    gen = run(capsys, "gen", "--z", "3,9", "--n", "5")
    cf = run(capsys, "cf", "--z", "3,9", "--n", "5")
    assert gen == cf == (2, "", "error: need z_4 but only 2 factors given\n")
    code, _, err = run(capsys, "stream", "--z", "3,1,2,1,5", "--K", "40")
    assert (code, err) == (2, "error: need z_7 but only 5 factors given\n")


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "generic", "--trials", "5", "--maxn", "6")
    assert code == 0 and out.startswith("ok generic")
    code, out, _ = run(capsys, "verify", "--suite", "z2", "--trials", "5", "--maxn", "6")
    assert code == 0 and out.startswith("ok z2")
    code, out, _ = run(capsys, "verify", "--suite", "lift", "--d1", "3", "--G", "1,2", "--n", "7")
    assert code == 0 and "7 terms" in out
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--z", "3,2,2,2", "--n", "5")
    assert code == 0 and "2 doubling steps" in out
    code, out, _ = run(capsys, "verify", "--suite", "generic", "--trials", "2", "--json")
    record = json.loads(out)
    assert code == 0 and list(record) == ["ok", "detail"]
    assert record == {"ok": True, "detail": ["ok generic: 2 trials, 10 expansions checked"]}
    for suite, message in [("lift", "--suite lift needs --d1/--G"),
                           ("identities", "--suite identities needs --z")]:
        assert run(capsys, "verify", "--suite", suite) == (2, "", f"error: {message}\n")


def test_both_lift_checks_catch_a_broken_lift(capsys, monkeypatch):
    # paper-examples' lift row and verify --suite lift both run
    # verify.run_lift_suite: a third-order step one too large breaks
    # X_k * X_{k+1} = x_k, and each command exits 4.
    step = sequences._third_order_step
    monkeypatch.setattr(sequences, "_third_order_step", lambda *args: step(*args) + 1)
    code, out, _ = run(capsys, "paper-examples", "--only", "lift", "--json")
    rows = {r["name"]: r["ok"] for r in json.loads(out)["results"]}
    assert code == 4 and rows["factorization identity"] is False
    code, out, err = run(capsys, "verify", "--suite", "lift", *AFFINE_FLAGS, "--n", "7")
    assert (code, out) == (4, "")
    assert err.startswith("error: lift identity failed at k=")


def test_paper_examples_all_pass(capsys):
    code, out, _ = run(capsys, "paper-examples")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_paper_examples_only(capsys):
    code, out, _ = run(capsys, "paper-examples", "--only", "affine")
    assert code == 0
    body = out.splitlines()[:-1]
    assert body and all("affine" in line for line in body)
    code, out, _ = run(capsys, "paper-examples", "--only", "kempner-u2")
    assert code == 0
    code, out, _ = run(capsys, "paper-examples", "--only", "upow", "--json")
    record = json.loads(out)
    assert code == 0 and record["ok"] is True
    assert len(record["results"]) == 9
    assert all(r["tag"] == "upow" and r["ok"] for r in record["results"])
    code, _, err = run(capsys, "paper-examples", "--only", "nosuch")
    assert code == 2
    assert err.startswith("error: unknown example tag 'nosuch'")


def test_cli_import_leaves_out_catalog_and_verify():
    # Only paper-examples and verify read catalog and verify, so they load
    # on first use. No command of the benchmark builds a Fraction, and no
    # module uses dataclasses, whose import pulls in inspect. Spelled-out
    # flags are parsed without argparse, whose first use imports locale
    # through gettext. A fresh interpreter shows what the import and those
    # commands pull in.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    unwanted = ("engelcf.catalog", "engelcf.verify", "dataclasses", "inspect", "fractions",
                "locale")
    code = ("import sys, engelcf.cli\n"
            f"def left(): return sorted(m for m in {unwanted!r} if m in sys.modules)\n"
            "print(left())\n"
            "engelcf.cli.main(['stream', '--u', '3', '--K', '50'])\n"
            "engelcf.cli.main(['asymp', '--d1', '3', '--G', '1,2', '--n', '6'])\n"
            "print(left())\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert (out[0], out[-1]) == ("[]", "[]")
    package = os.path.join(src, "engelcf")
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                assert not re.search(r"^\s*(from|import) dataclasses\b", fh.read(), re.M), name


def test_spec_file_source(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("order=2 d1=3 G=1,2\n")
    code, out, _ = run(capsys, "gen", "--spec-file", str(path), "--n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "852910317"


@pytest.mark.parametrize("flags, message", [
    (["--z", "3,x"], "--z: 'x' is not an integer"),
    (["--d1", "3", "--G", "1,x"], "--G: 'x' is not an integer"),
    (["--e1", "2", "--e2", "2", "--H", "0,0"], "--H: term '0,0' needs 3 integers"),
    (["--spec-file", "order=3 e1=2 e2=2 H=0,0"], "H=: term '0,0' needs 3 integers"),
    (["--spec-file", "order=2 d1=x G=1,2"], "d1=: 'x' is not an integer"),
    (["--spec-file", "order=two d1=3 G=1,2"], "order=: 'two' is not an integer"),
    (["--spec-file", "order=3 e1=2 e2=y H=0,0,1"], "e2=: 'y' is not an integer"),
    (["--spec-file", "order=2 d1=3 G=1,2 G=3"], "repeated key G="),
    (["--spec-file", "order=2 d1=3 G=1,2\n\norder=2 d1=4 G=1,1,1"], "repeated key order="),
    (["--spec-file", "order=2 d1=3 G"], "malformed token 'G'"),
    (["--spec-file", "d1=3 G=1,2"], "missing order="),
    (["--spec-file", "order=3 e1=2 e2=2"], "missing 'H' for order=3"),
    (["--spec-file", "order=2 d1=3 G=1,2 x=1"], "unknown keys: ['x']"),
    (["--d1", "3"], "--d1 and --G must be given together"),
    (["--e1", "2"], "--e1, --e2 and --H must be given together"),
    (["--u", "3", "--bits", "63"], "--bits must be at least 64"),
    (["--u", "3", "--n", "0"], "--n must be >= 1"),
])
def test_malformed_integer_lists_are_validation_errors(tmp_path, capsys, flags, message):
    if flags[0] == "--spec-file":
        path = tmp_path / "spec.txt"
        path.write_text(flags[1] + "\n")
        flags = ["--spec-file", str(path)]
    # --n 3 comes first, so that a row's own --n replaces it.
    code, out, err = run(capsys, "gen", "--n", "3", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Every rule of the spec constructors that the CLI's integer lists reach,
# as a spec line (an empty G or H fails as an integer list first).
SPEC_RULES = [
    ("order=2 d1=2 G=1,2", "d1 must be >= 3, got 2"),
    ("order=2 d1=3 G=1,-1", "G must have non-negative coefficients"),
    ("order=2 d1=3 G=0,2", "G(0) must be nonzero"),
    ("order=2 d1=3 G=1,2,0", "leading coefficient of G is zero; drop trailing zeros"),
    ("order=2 d1=3 G=1", "G(1) must be >= 2, got 1"),
    ("order=3 e1=0 e2=2 H=0,0,3", "e1 must be >= 1, got 0"),
    ("order=3 e1=1 e2=1 H=0,0,3", "e2 must be >= 2, got 1"),
    ("order=3 e1=1 e2=2 H=0,0,2;-1,0,1", "H exponents must be non-negative"),
    ("order=3 e1=1 e2=2 H=0,0,0;1,1,2", "H terms must have positive coefficients"),
    ("order=3 e1=1 e2=2 H=0,0,1;0,0,2", "duplicate H term for exponents (0,0)"),
    ("order=3 e1=1 e2=2 H=1,0,2;1,1,1", "H must not be divisible by either argument"),
    ("order=3 e1=1 e2=2 H=0,0,1", "H(1,1) must be >= 2, got 1"),
]


@pytest.mark.parametrize("route", ["flags", "spec-file"])
@pytest.mark.parametrize("line, message", SPEC_RULES)
def test_spec_rules_are_validation_errors(tmp_path, capsys, line, message, route):
    if route == "spec-file":
        path = tmp_path / "spec.txt"
        path.write_text(line + "\n")
        flags = ["--spec-file", str(path)]
    else:  # --d1/--G or --e1/--e2/--H
        fields = dict(token.split("=") for token in line.split()[1:])
        flags = [arg for key, value in fields.items() for arg in ("--" + key, value)]
    assert run(capsys, "gen", *flags, "--n", "3") == (2, "", f"error: {message}\n")


def test_non_ascii_spec_file_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_bytes("order=2 d1=3 G=1,2 \u00e9\n".encode())
    code, out, err = run(capsys, "gen", "--spec-file", str(path), "--n", "3")
    assert (code, out) == (2, "")
    assert err == f"error: --spec-file {path}: byte 19 is not ASCII\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    code, out, _ = run(capsys, "gen", "--z", "3,9", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "# engel-seq v1\n# z: 3,9\n1\n3\n81\n"


def test_out_to_a_missing_directory_is_a_validation_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "gen", "--u", "3", "--n", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_byte_identical_runs(capsys):
    first = run(capsys, "stream", "--d1", "3", "--G", "3", "--K", "11", "--json")
    second = run(capsys, "stream", "--d1", "3", "--G", "3", "--K", "11", "--json")
    assert first == second
    third = run(capsys, "asymp", "--d1", "3", "--G", "1,1", "--n", "5")
    fourth = run(capsys, "asymp", "--d1", "3", "--G", "1,1", "--n", "5")
    assert third == fourth


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == {
        "gen": SOURCE_FLAGS | {"--json", "--out", "--n"},
        "cf": SOURCE_FLAGS | {"--json", "--out", "--n", "--check"},
        "stream": SOURCE_FLAGS | {"--json", "--out", "--K"},
        "asymp": SOURCE_FLAGS | {"--out", "--digits", "--n"},
        "verify": {"--json", "--out", "--z", "--d1", "--G", "--suite", "--trials", "--maxn",
                   "--seed", "--n"},
        "paper-examples": {"--json", "--out", "--only"},
    }
    assert sum(len(v) for v in flags.values()) == 62


@pytest.mark.parametrize("argv", [
    ["stream", "--u", "3", "--K", "5", "--digits", "9"],
    ["asymp", "--d1", "3", "--G", "1,2", "--n", "5", "--json"],
    ["verify", "--suite", "lift", "--d1", "3", "--G", "1,2", "--u", "3"],
])
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _subparsers() -> dict:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _outcome(parse, argv, capsys):
    # What a parse returns or exits with, and what it printed.
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--help", "asymp"],
    ["bogus"],
    ["asy"],
    ["--", "asymp"],
    ["asymp", "-h"],
    ["gen", "--he"],
    ["gen", *AFFINE_FLAGS],
    ["asymp", "--d1", "x", "--G", "1,2"],
    ["asymp", "--d", "3", "--G", "1,2"],
    ["cf", "--z", "3,2", "--n", "4", "--check", "bad"],
    ["stream", "--u", "3", "--K"],
    ["asymp", *AFFINE_FLAGS, "--n", "5", "extra"],
    ["asymp", *AFFINE_FLAGS, "--n", "5", "--"],
    ["asymp", *AFFINE_FLAGS, "--n", "5", "--", "--n", "6"],
    ["asymp", *AFFINE_FLAGS, "--n", "11", "--foo"],
    ["asymp", "--foo", "-h"],
    ["gen", "asymp"],
])
def test_main_prints_the_trees_help_and_errors(argv, capsys):
    got = _outcome(main, argv, capsys)
    assert got[0][0] == "exit"
    assert got == _outcome(build_parser().parse_args, argv, capsys)


def _no_tree():
    raise AssertionError("spelled-out flags must not build the whole tree")


@pytest.mark.parametrize("argv", [
    ["asymp", *AFFINE_FLAGS, "--n", "11"],
    ["asymp", "--d1=3", "--G=1,2", "--n=6", "--dig", "20"],
    ["cf", "--z", "3,2,2", "--n", "4", "--js"],
    ["gen", "--z", "3", "--n", "-3"],
    ["verify", "--suite", "lift", *AFFINE_FLAGS],
    ["paper-examples"],
])
def test_one_command_parse_is_the_trees(argv):
    want = vars(build_parser().parse_args(argv))
    args, handler = cli._parse(argv)
    assert handler is COMMANDS[want.pop("command")][2]
    assert vars(args) == want


def _flag_table(name: str) -> dict:
    # flag -> (dest, type, default, choices, required), from the command's table.
    return {flag: (flag[2:].replace("-", "_"), *row[:4])
            for flag, row in COMMANDS[name][1].items()}


ODD_VALUES = ["-3", "-", "--", "3x", "1.5", "bad", "a b", " 7", "+4", ""]
STRAY_TOKENS = ["--foo", "-h", "--help", "--", "-3", "extra", "--json=1", "-"]


@st.composite
def _tails(draw, name: str) -> list[str]:
    # Mostly spelled-out flags with fitting values, mixed with every form
    # the quick parse leaves to argparse: "--flag=value", abbreviations,
    # values starting with "-", missing values, repeats, unknown flags,
    # bad ints and values outside choices.
    table = _flag_table(name)

    def value(flag):
        _, kind, _, choices, _ = table[flag]
        if draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(ODD_VALUES + ["oracle", "lift"]))
        if choices:
            return draw(st.sampled_from(choices))
        if kind is int:
            return str(draw(st.integers(0, 99)))
        return draw(st.sampled_from(["1,2", "3", "0,0,1;1,1,2", "x.txt"]))

    tail = []
    for flag in sorted(table):
        if table[flag][4] and draw(st.integers(0, 4)) > 0:
            tail += [flag, value(flag)]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(table)))
        takes_value = table[flag][1] is not None
        form = draw(st.sampled_from(["spelled"] * 6 + ["equals", "abbrev", "bare", "stray"]))
        if form == "spelled" or (form == "bare" and not takes_value):
            tail += [flag, value(flag)] if takes_value else [flag]
        elif form == "equals":
            tail.append(f"{flag}={value(flag)}")
        elif form == "abbrev":
            tail.append(flag[:draw(st.integers(3, max(3, len(flag) - 1)))])
            if takes_value:
                tail.append(value(flag))
        elif form == "bare":
            tail.append(flag)
        else:
            tail.append(draw(st.sampled_from(STRAY_TOKENS)))
    return tail


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quick_parse_is_argparses(data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    tail = data.draw(_tails(name))
    quick = cli._quick_parse(name, tail)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args, extra = _subparsers()[name].parse_known_args(tail)
    except SystemExit:
        assert quick is None
        return
    if quick is not None:
        assert extra == []
        assert vars(quick) == vars(args)


# The benchmark's two command lines and every one CI runs with its flags
# spelled out.
SPELLED_OUT = [
    "stream --u 3 --K 15000",
    "asymp --d1 3 --G 1,2 --n 11",
    "verify --suite generic --trials 200 --maxn 9",
    "verify --suite z2 --trials 200 --maxn 9",
    "verify --suite generic --trials 20 --maxn 7 --json",
    "verify --suite lift --d1 3 --G 1,2 --n 13",
    "verify --suite lift --d1 4 --G 1,1,1 --n 9",
    "verify --suite identities --z 3,2,5,7,2,3,11,2 --n 9",
    "cf --d1 3 --G 1,2 --n 11 --json",
    "paper-examples",
    "paper-examples --json",
    "cf --d1 3 --G 1,2 --n 11 --check oracle",
    "cf --d1 3 --G 1,2 --n 12 --check oracle",
    "cf --u 3 --n 18 --check oracle",
    "cf --z 5,1,2,1,3,1,1,2,1,4,1,1 --n 13 --check oracle",
    "stream --u 3 --K 60000",
    "stream --u 2 --K 60000",
    "stream --u 7 --K 20000 --json",
    "stream --z 5,1,2,1,3,1,1,2,1,4,1,1 --K 100",
    "stream --z 5,1,2,1,3,1,1,2,1,4,1,1 --K 100 --json",
    "gen --d1 3 --G 1,2 --n 10",
    "gen --e1 2 --e2 2 --H 0,0,1;1,1,2 --n 8",
    "gen --z 3,9 --n 3 --json",
    "gen --spec-file spec.txt --n 8",
    "stream --d1 3 --G 1,2 --K 400",
    "stream --d1 3 --G 1,2 --K 2000 --json",
    "stream --u 3 --K 60000 --bits 4096",
    "asymp --d1 3 --G 1,2 --n 13",
    "asymp --d1 3 --G 1,2 --n 40",
    "asymp --d1 3 --G 1,2 --n 100",
    "asymp --d1 3 --G 1,2 --n 1000",
    "asymp --d1 3 --G 1,2 --n 11 --digits 10",
    "asymp --u 3 --n 5",
    "gen --d1 2 --G 1,2 --n 3",
    "gen --spec-file repeated.txt --n 5",
    "gen --u 3 --n 3 --out /nonexistent/dir/x.txt",
]


def _no_argparse(*_):
    raise AssertionError("spelled-out flags must not build an argparse parser")


@pytest.mark.parametrize("line", SPELLED_OUT)
def test_spelled_out_flags_build_no_argparse_parser(line, monkeypatch):
    argv = line.split()
    want = vars(build_parser().parse_args(argv))
    monkeypatch.setattr(cli, "build_parser", _no_argparse)
    args, handler = cli._parse(argv)
    assert handler is COMMANDS[want.pop("command")][2]
    assert vars(args) == want


def test_asymp_never_builds_the_whole_tree(capsys, monkeypatch):
    want = run(capsys, "asymp", *AFFINE_FLAGS, "--n", "6")
    monkeypatch.setattr(cli, "build_parser", _no_tree)
    assert run(capsys, "asymp", *AFFINE_FLAGS, "--n", "6") == want


@pytest.mark.parametrize("n, digest", [
    (11, "61908265e8420856bc22f514c10956c19f5bf7733bcf2fe60ba52ff41a329464"),
    (40, "9bd7c490f638d208f2c2cd9c633d3772dddf7b69152057c752464a53d875ef86"),
    (100, "842461b0e934ed250a0116627d4f9ebd28699b0d5777da91461603180ce46162"),
    (1000, "5830cbe4ff52abec5981ca41aed96907dbb68794db8f4b96e59ba32e3f27c063"),  # also CI's
])
def test_asymp_output_is_unchanged(capsys, n, digest):
    # sha256 of the stdout that the bracket path printed when every bracket
    # run restarted from the last formed term.
    code, out, _ = run(capsys, "asymp", *AFFINE_FLAGS, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", [
    ("--u 3 --K 60000", "cfae5e88a4171b21dc7687e928c6fa4ab27878463a0e4638d708a653c1b07cba"),
    ("--u 2 --K 60000", "761945290854709a1630383ef82d0968c624742ae644ed0e438818bdee016bcd"),
    ("--u 7 --K 20000", "57a2ed33df3d4ebe6309d772c5ffe8be11539c60ef8dc61f0e733bea33c26730"),
    ("--z 5,1,2,1,3,1,1,2,1,4,1,1 --K 100",
     "e2675d56d57d20b68b212bdcd138ead5f4ba84aacc7737d9c735b27a75a6a9e3"),
    # Factors above 2^256 give quotients wider than Euclid's window.
    (f"--z 3,1,{2 ** 256 + 297},1,2,1,1,{3 ** 300},1,1,1,1,1 --K 3000",
     "5f41292e90de0bce0203d7115f899b10948c24242658585477a8775e2dad89cb"),
])
def test_oracle_stream_json_is_unchanged(capsys, flags, digest):
    # sha256 of the stdout that the oracle printed when it followed the
    # upper endpoint's mapped pair through a product tree. The JSON carries
    # n_used and lengths as well as the coefficients.
    code, out, _ = run(capsys, "stream", *flags.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_failed_oracle_check_exits_4(capsys, monkeypatch):
    # The oracle has no second path: once _walk reports a failed check,
    # the stream raises and prints no coefficient.
    walk, calls = expansion._walk, [0]

    def failing_walk(*args):
        calls[0] += 1
        return walk(*args) if calls[0] <= 3 else None

    monkeypatch.setattr(expansion, "_walk", failing_walk)
    code, out, err = run(capsys, "stream", "--u", "3", "--K", "500")
    assert (code, out, calls[0]) == (4, "", 4)
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--suite", "identities", "--z", "3,2", "--n", "5"],
    ["--suite", "generic", "--maxn", "2"],
    ["--suite", "z2", "--maxn", "3"],
    ["--suite", "generic", "--trials", "0"],
])
def test_verify_checking_nothing_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert "checked nothing" in err


@pytest.fixture
def default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_terms_past_the_digit_limit_print(capsys, default_digit_limit):
    code, gen_out, _ = run(capsys, "gen", "--d1", "3", "--G", "1,2", "--n", "10")
    assert code == 0
    assert sys.get_int_max_str_digits() == default_digit_limit
    code, stream_out, _ = run(capsys, "stream", "--d1", "3", "--G", "1,2", "--K", "400")
    assert code == 0
    assert sys.get_int_max_str_digits() == default_digit_limit
    code, _, err = run(capsys, "gen", "--d1", "2", "--G", "1,2", "--n", "4")
    assert code == 2 and "d1" in err
    assert sys.get_int_max_str_digits() == default_digit_limit

    sys.set_int_max_str_digits(0)
    assert gen_out.splitlines()[1:] == [str(v) for v in generate_recurrence(AFFINE, 10)]
    assert parse_cf_text(stream_out).coeffs == tuple(stream(AFFINE, 400).certified[:400])


_FOLD = expansion._fold


def _fold_one_more(cur, z):
    # The fold with a_1 one larger: a coefficient that changes the value.
    out = _FOLD(cur, z)
    out[1] += 1
    return out


def _reported(rewrite):
    # partial_cf with its coefficients rewritten, built unchecked as
    # partial_cf builds its own.
    def patched(src, n):
        return cf.CFExpansion._trusted(rewrite(list(partial_cf(src, n).coeffs)))
    return patched


@pytest.mark.parametrize("source, owner, name, bad", [
    (["--u", "3", "--n", "8"], expansion, "_fold", _fold_one_more),
    (["--z", "5,1,2,1", "--n", "5"], expansion, "_fold", _fold_one_more),
    # The value kept, the representative wrong: an interior zero pair
    # [a, 0, 0, b] for [a, b], a split final quotient where the canonical
    # form is reported, and the canonical form where u = 2 reports the split.
    (["--z", "3,2,2", "--n", "4"], cli, "partial_cf", _reported(lambda c: c[:2] + [0, 0] + c[2:])),
    (["--z", "3,2,2", "--n", "4"], cli, "partial_cf", _reported(lambda c: c[:-1] + [c[-1] - 1, 1])),
    (["--u", "2", "--n", "6"], cli, "partial_cf",
     _reported(lambda c: list(cf.normalize_zeros(c).coeffs))),
], ids=["fold-u3", "fold-mixed", "interior-zeros", "split-generic", "canonical-u2"])
def test_cf_oracle_check_catches_a_bad_fold(capsys, monkeypatch, source, owner, name, bad):
    # Ones-tail and mixed sources fold, so the Euclidean oracle is an
    # independent check on every class. It compares the printed
    # coefficients, not only the value: each corruption must exit 4.
    code, _, _ = run(capsys, "cf", *source, "--check", "oracle")
    assert code == 0
    monkeypatch.setattr(owner, name, bad)
    code, out, err = run(capsys, "cf", *source, "--check", "oracle")
    assert (code, out) == (4, "")
    assert "disagrees with the Euclidean oracle" in err


def test_identities_check_catches_a_bad_fold(capsys, monkeypatch):
    # check_instance is the only checker of the fold's step identities, so
    # one corrupted coefficient must fail it on both classes and exit 4.
    argv = ["verify", "--suite", "identities", "--z", "3,2,2,2", "--n", "5"]
    assert run(capsys, *argv)[0] == 0
    fold = expansion._fold

    def bad_fold(cur, z):
        out = fold(cur, z)
        out[1] += 1
        return out

    monkeypatch.setattr(expansion, "_fold", bad_fold)
    for z in ((3, 2, 2, 2), (2, 3, 4, 5)):
        with pytest.raises(IdentityViolation):
            check_instance(FactorSequence(z), 5)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: fold != Euclid oracle")


def test_identities_suite_needs_a_generic_list(capsys):
    code, out, err = run(capsys, "verify", "--suite", "identities", "--z", "2,3,4", "--n", "5")
    assert (code, out, err) == (2, "", "error: need a generic factor sequence, got z2_equals_2\n")


def test_z2_stream_certifies_s3_without_z4(capsys):
    # Like the generic `stream --z 3,2 --K 5`, S_3 is certified with z_4 unknown.
    code, out, _ = run(capsys, "stream", "--z", "2,6", "--K", "3")
    assert (code, out) == (0, "[1;1,1]\n")
    code, out, _ = run(capsys, "stream", "--z", "3,2", "--K", "5")
    assert (code, out) == (0, "[1;2,1,1,3]\n")
