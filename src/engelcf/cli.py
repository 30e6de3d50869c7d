"""Command-line front end.

Subcommands: gen, cf, stream, asymp, verify, paper-examples. Output is
deterministic (decimal-string serialization, no timestamps, no locale); the
same invocation always produces the same bytes.

Exit codes: 0 success, 2 validation error, 3 bit budget exceeded,
4 internal invariant violation (a failing check or an oracle mismatch).

Each command's flags are defined once, as data: its flag table in COMMANDS.
Flags spelled out in full are read from that table without argparse; any
other command line, and help, usage and error text, go through the argparse
tree that build_parser assembles from the same tables.
"""

import argparse
import json
import sys

from .asymptotics import _digits_text, full_report
from .cf import _bracket, cf_text, render_each
from .exceptions import (
    BitBudgetExceeded,
    EngelError,
    IdentityViolation,
    InvalidSpec,
)
from .expansion import _euclid_cf, partial_cf, stream
from .sequences import (
    DEFAULT_BITS,
    FactorSequence,
    SecondOrderSpec,
    SeriesClass,
    SeriesSource,
    ThirdOrderSpec,
    generate_recurrence,
    ones_tail,
    parse_ints,
    parse_spec_line,
)

SEQ_HEADER = "# engel-seq v1"


def _source_from_args(args):
    picked = []
    if args.z is not None:
        picked.append(FactorSequence(parse_ints(args.z, "--z")))
    if args.d1 is not None or args.G is not None:
        if args.d1 is None or args.G is None:
            raise InvalidSpec("--d1 and --G must be given together")
        picked.append(SecondOrderSpec(args.d1, parse_ints(args.G, "--G")))
    if args.e1 is not None or args.e2 is not None or args.H is not None:
        if None in (args.e1, args.e2, args.H):
            raise InvalidSpec("--e1, --e2 and --H must be given together")
        picked.append(ThirdOrderSpec(args.e1, args.e2, parse_ints(args.H, "--H", 3)))
    if args.u is not None:
        picked.append(ones_tail(args.u))
    if args.spec_file is not None:
        with open(args.spec_file, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise InvalidSpec(f"--spec-file {args.spec_file}: byte {exc.start} is not ASCII") from None
        picked.append(parse_spec_line(text.strip()))
    if len(picked) != 1:
        raise InvalidSpec("give exactly one input source (--z | --d1/--G | --e1/--e2/--H | --u | --spec-file)")
    return picked[0]


def _store(args, source) -> SeriesSource:
    # The term store of ``source`` under the --bits budget, the only place
    # the CLI sets one.
    if args.bits < 64:
        raise InvalidSpec("--bits must be at least 64")
    return SeriesSource(source, args.bits)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (text, exit_code)
# ---------------------------------------------------------------------------


def cmd_gen(args) -> tuple[str, int]:
    source = _source_from_args(args)
    if args.n < 1:
        raise InvalidSpec("--n must be >= 1")
    terms = generate_recurrence(_store(args, source), args.n)
    z_comment = ",".join(str(v) for v in source.z) if isinstance(source, FactorSequence) else None
    if args.json:
        payload = {"x": [str(v) for v in terms]}
        if z_comment is not None:
            payload["z"] = z_comment
        return json.dumps(payload) + "\n", 0
    lines = [SEQ_HEADER]
    if z_comment is not None:
        lines.append(f"# z: {z_comment}")
    lines.extend(str(v) for v in terms)
    return "\n".join(lines) + "\n", 0


def cmd_cf(args) -> tuple[str, int]:
    src = _store(args, _source_from_args(args))
    cf = partial_cf(src, args.n)
    if args.check == "oracle" and cf.coeffs != _euclid_cf(src, args.n):
        raise IdentityViolation(f"partial expansion disagrees with the Euclidean oracle at n={args.n}")
    if args.json:
        texts = render_each(cf.coeffs)  # rendered once for both fields
        payload = {
            "n": args.n,
            "class": src.series_class.value,
            "cf": _bracket(texts),
            "coefficients": texts,
            "length": len(cf),
        }
        return json.dumps(payload) + "\n", 0
    return cf_text(cf) + "\n", 0


def cmd_stream(args) -> tuple[str, int]:
    source = _source_from_args(args)
    if args.K < 1:
        raise InvalidSpec("--K must be >= 1")
    result = stream(_store(args, source), args.K)
    coeffs = result.certified[: args.K]
    if args.json:
        # Coefficients as decimal strings: they outgrow 64 bits quickly.
        payload = {
            "class": result.series_class.value,
            "n_used": result.n_used,
            "certified": render_each(coeffs),
            "lengths": list(result.lengths),
        }
        return json.dumps(payload) + "\n", 0
    return cf_text(coeffs) + "\n", 0


def cmd_asymp(args) -> tuple[str, int]:
    source = _source_from_args(args)
    if args.digits < 1:
        raise InvalidSpec("--digits must be >= 1")
    report = full_report(_store(args, source), args.n, args.digits)
    digits = min(args.digits, 15)  # no more than the working precision gives
    rows = []
    for r in report.roth.records:  # n = 2..--n; the upper bracket is the growth exponent
        rows.append({
            "n": r.n,
            "log_x": _digits_text(report.lambda_n_true[r.n], digits),
            "exact": _digits_text(report.lambda_n_exact[r.n], digits),
            "growth_exp": _digits_text(r.upper, digits),
            "roth_lo": _digits_text(r.lower, digits),
            "roth_hi": _digits_text(r.upper, digits),
        })
    payload = {
        "lambda": _digits_text(report.lam, args.digits),
        "C": _digits_text(report.C, min(args.digits, 20)),
        "C_err": _digits_text(report.C_bound, 3),
        "rows": rows,
    }
    return json.dumps(payload) + "\n", 0


def cmd_verify(args) -> tuple[str, int]:
    from .verify import check_instance, run_lift_suite, run_suite

    if args.suite in ("generic", "z2"):
        checked = run_suite(args.suite, args.trials, args.maxn, args.seed)
        line = f"ok {args.suite}: {args.trials} trials, {checked} expansions checked"
    elif args.suite == "lift":
        if args.d1 is None or args.G is None:
            raise InvalidSpec("--suite lift needs --d1/--G")
        spec = SecondOrderSpec(args.d1, parse_ints(args.G, "--G"))
        checked = run_lift_suite(spec, args.n)
        line = f"ok lift: factorization identity holds for {checked} terms"
    else:  # identities; the flag table's choices allow no other suite
        if args.z is None:
            raise InvalidSpec("--suite identities needs --z")
        zs = FactorSequence(parse_ints(args.z, "--z"))
        # check_instance proves the identities of each fold S_n -> S_{n+1}, 3 <= n < n_max.
        n_max = min(args.n, len(zs.z) + 1)
        checked = 0
        if n_max >= 4:
            if zs.series_class is not SeriesClass.GENERIC:
                raise InvalidSpec(f"need a generic factor sequence, got {zs.series_class.value}")
            checked = check_instance(zs, n_max) - 1
        line = f"ok identities: {checked} doubling steps verified"
    if checked == 0:
        raise InvalidSpec(f"--suite {args.suite} checked nothing; give larger sizes or more factors")
    if args.json:
        return json.dumps({"ok": True, "detail": [line]}) + "\n", 0
    return line + "\n", 0


def cmd_paper_examples(args) -> tuple[str, int]:
    from . import catalog

    results = catalog.run_examples(args.only)
    all_ok = all(r.ok for r in results)
    if args.json:
        payload = {
            "ok": all_ok,
            "results": [
                {"tag": r.tag, "name": r.name, "ok": r.ok} for r in results
            ],
        }
        return json.dumps(payload) + "\n", 0 if all_ok else 4
    width = max(len(f"{r.tag}: {r.name}") for r in results)
    lines = [
        "{} {}".format("PASS" if r.ok else "FAIL", f"{r.tag}: {r.name}".ljust(width)).rstrip()
        for r in results
    ]
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", 0 if all_ok else 4


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


# Flag tables: flag -> (type, default, choices, required, help), in help
# order. A type of None marks a store_true switch. The dest is the flag name
# without its dashes.
_OUTPUT = {
    "--json": (None, False, None, False, "emit JSON instead of text"),
    "--out": (str, None, None, False, "write output to this path"),
}
# The source flags the verify suites read; every source subcommand takes them too.
_SUITE_INPUTS = {
    "--z": (str, None, None, False, "factor list z2,z3,..."),
    "--d1": (int, None, None, False, "second-order exponent d1"),
    "--G": (str, None, None, False, "G coefficients, constant term first"),
}
_SOURCE = _SUITE_INPUTS | {
    "--e1": (int, None, None, False, "third-order exponent e1"),
    "--e2": (int, None, None, False, "third-order exponent e2"),
    "--H": (str, None, None, False, "H terms i,j,coeff separated by ';'"),
    "--u": (int, None, None, False, "power-sum base (factors u,1,1,...)"),
    "--spec-file": (str, None, None, False, "read a one-line recurrence spec from this file"),
    "--bits": (int, DEFAULT_BITS, None, False,
               f"total bit budget for generated terms (default {DEFAULT_BITS})"),
}

# name -> (help line, flag table, handler): the one definition of each
# subcommand, read by build_parser, _quick_parse and _parse.
COMMANDS = {
    "gen": ("generate sequence terms", _SOURCE | _OUTPUT | {
        "--n": (int, None, None, True, "number of terms"),
    }, cmd_gen),
    "cf": ("continued fraction of the n-th partial sum", _SOURCE | _OUTPUT | {
        "--n": (int, None, None, True, "partial sum index"),
        "--check": (str, None, ["oracle"], False, "cross-check against the Euclidean expansion"),
    }, cmd_cf),
    "stream": ("certified prefix of the limit expansion", _SOURCE | _OUTPUT | {
        "--K": (int, None, None, True, "number of certified coefficients"),
    }, cmd_stream),
    "asymp": ("growth and irrationality report (always JSON)", _SOURCE | {
        "--out": _OUTPUT["--out"],
        "--digits": (int, 50, None, False, "working precision in decimal digits (default 50)"),
        "--n": (int, 10, None, False, "largest index in the report"),
    }, cmd_asymp),
    "verify": ("run a randomized invariant suite", _SUITE_INPUTS | _OUTPUT | {
        "--suite": (str, None, ["generic", "z2", "lift", "identities"], True, None),
        "--trials": (int, 100, None, False, None),
        "--maxn": (int, 7, None, False, None),
        "--seed": (int, 0, None, False, None),
        "--n": (int, 7, None, False, "depth for lift/identities suites"),
    }, cmd_verify),
    "paper-examples": ("re-derive the bundled worked examples", _OUTPUT | {
        "--only": (str, None, None, False, "run a single example tag"),
    }, cmd_paper_examples),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: every subcommand of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="engelcf",
        description="Exact continued fractions of Engel series with x_n^2 | x_{n+1}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, (kind, default, choices, required, help_text) in flags.items():
            how = {"action": "store_true"} if kind is None else {"type": kind, "choices": choices}
            p.add_argument(flag, default=default, required=required, help=help_text, **how)
    return parser


def _quick_parse(name: str, tail: list[str]):
    # The command's namespace for a tail of flags spelled out in full, each
    # value flag followed by one token not starting with "-". argparse reads
    # such a tail the same way: a token not starting with "-" is a value, an
    # exact flag matches before any prefix, type=int is int(), and the last
    # repeat wins. None for any other tail (abbreviations, "--flag=value",
    # negative values, "--", -h) or one argparse would refuse (a bad int, a
    # value outside choices, a missing required flag), which argparse reads.
    table = COMMANDS[name][1]
    values = {flag: row[1] for flag, row in table.items()}
    given = set()
    tokens = iter(tail)
    for flag in tokens:
        if flag not in table:
            return None
        kind, _, choices, _, _ = table[flag]
        if kind is None:
            value = True
        else:
            raw = next(tokens, "-")
            if raw.startswith("-"):
                return None
            try:
                value = kind(raw)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        values[flag] = value
        given.add(flag)
    if not given >= {flag for flag, row in table.items() if row[3]}:
        return None
    return argparse.Namespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _parse(argv: list[str]):
    # A command's spelled-out flags are read from its flag table without
    # argparse, whose first use (gettext's locale import, regex compiles)
    # costs more than a short command. Any other command line goes through
    # the whole tree, which parses it or exits with argparse's usage, help
    # or error. Neither namespace carries the command name.
    if argv and argv[0] in COMMANDS:
        args = _quick_parse(argv[0], argv[1:])
        if args is not None:
            return args, COMMANDS[argv[0]][2]
    args = build_parser().parse_args(argv)
    return args, COMMANDS[vars(args).pop("command")][2]


def main(argv=None) -> int:
    args, handler = _parse(sys.argv[1:] if argv is None else list(argv))
    # Terms outgrow CPython's int/str digit guard (3.10.7 on) on valid input,
    # so the guard is lifted for the handler and the caller's value restored.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text, code = handler(args)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
    except BitBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IdentityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EngelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
