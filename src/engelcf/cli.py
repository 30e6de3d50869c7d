"""Command-line front end.

Subcommands: gen, cf, stream, asymp, verify, paper-examples. Output is
deterministic (decimal-string serialization, no timestamps, no locale); the
same invocation always produces the same bytes.

Exit codes: 0 success, 2 validation error, 3 bit budget exceeded,
4 internal invariant violation (a failing check or an oracle mismatch).
"""

import argparse
import json
import sys

from mpmath import mp

from .asymptotics import full_report
from .cf import cf_text, expand_rational, normalize_zeros
from .exceptions import (
    BitBudgetExceeded,
    EngelError,
    IdentityViolation,
    InvalidSpec,
)
from .expansion import partial_cf, stream
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


def _add_output(parser: argparse.ArgumentParser, with_json: bool = True):
    if with_json:
        parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--out", type=str, default=None, help="write output to this path")


def _add_suite_inputs(parser: argparse.ArgumentParser):
    # The source flags the verify suites read; every source subcommand takes them too.
    parser.add_argument("--z", type=str, default=None, help="factor list z2,z3,...")
    parser.add_argument("--d1", type=int, default=None, help="second-order exponent d1")
    parser.add_argument("--G", type=str, default=None, help="G coefficients, constant term first")


def _add_source(parser: argparse.ArgumentParser):
    _add_suite_inputs(parser)
    parser.add_argument("--e1", type=int, default=None, help="third-order exponent e1")
    parser.add_argument("--e2", type=int, default=None, help="third-order exponent e2")
    parser.add_argument("--H", type=str, default=None, help="H terms i,j,coeff separated by ';'")
    parser.add_argument("--u", type=int, default=None, help="power-sum base (factors u,1,1,...)")
    parser.add_argument("--spec-file", type=str, default=None,
                        help="read a one-line recurrence spec from this file")
    parser.add_argument("--bits", type=int, default=DEFAULT_BITS,
                        help=f"total bit budget for generated terms (default {DEFAULT_BITS})")


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
    if args.check == "oracle":
        # normalize_zeros merges the trailing unit of the u = 2 split
        # representative, giving the canonical form the oracle produces.
        oracle = expand_rational(src.numerator(args.n), src.x(args.n))
        if normalize_zeros(cf.coeffs).coeffs != oracle.coeffs:
            raise IdentityViolation(f"partial expansion disagrees with the Euclidean oracle at n={args.n}")
    if args.json:
        payload = {
            "n": args.n,
            "class": src.series_class.value,
            "cf": cf_text(cf),
            "coefficients": [str(a) for a in cf.coeffs],
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
            "certified": [str(a) for a in coeffs],
            "lengths": list(result.lengths),
        }
        return json.dumps(payload) + "\n", 0
    return cf_text(coeffs) + "\n", 0


def cmd_asymp(args) -> tuple[str, int]:
    source = _source_from_args(args)
    if args.n < 3:
        raise InvalidSpec("--n must be >= 3")
    if args.digits < 1:
        raise InvalidSpec("--digits must be >= 1")
    report = full_report(_store(args, source), args.n, args.digits)
    digits = min(args.digits, 15)  # no more than the working precision gives
    rows = []
    for r in report.roth.records:  # n = 2..--n; the upper bracket is the growth exponent
        rows.append({
            "n": r.n,
            "log_x": mp.nstr(report.lambda_n_true[r.n], digits),
            "exact": mp.nstr(report.lambda_n_exact[r.n], digits),
            "growth_exp": mp.nstr(r.upper, digits),
            "roth_lo": mp.nstr(r.lower, digits),
            "roth_hi": mp.nstr(r.upper, digits),
        })
    payload = {
        "lambda": mp.nstr(report.lam, args.digits),
        "C": mp.nstr(report.C, min(args.digits, 20)),
        "C_err": mp.nstr(report.C_bound, 3),
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
    elif args.suite == "identities":
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
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidSpec(f"unknown suite {args.suite}")
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


def _gen_flags(p: argparse.ArgumentParser):
    _add_source(p)
    _add_output(p)
    p.add_argument("--n", type=int, required=True, help="number of terms")


def _cf_flags(p: argparse.ArgumentParser):
    _add_source(p)
    _add_output(p)
    p.add_argument("--n", type=int, required=True, help="partial sum index")
    p.add_argument("--check", choices=["oracle"], default=None,
                   help="cross-check against the Euclidean expansion")


def _stream_flags(p: argparse.ArgumentParser):
    _add_source(p)
    _add_output(p)
    p.add_argument("--K", type=int, required=True, help="number of certified coefficients")


def _asymp_flags(p: argparse.ArgumentParser):
    _add_source(p)
    _add_output(p, with_json=False)
    p.add_argument("--digits", type=int, default=50,
                   help="working precision in decimal digits (default 50)")
    p.add_argument("--n", type=int, default=10, help="largest index in the report")


def _verify_flags(p: argparse.ArgumentParser):
    _add_suite_inputs(p)
    _add_output(p)
    p.add_argument("--suite", choices=["generic", "z2", "lift", "identities"], required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--maxn", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=7, help="depth for lift/identities suites")


def _paper_examples_flags(p: argparse.ArgumentParser):
    _add_output(p)
    p.add_argument("--only", type=str, default=None, help="run a single example tag")


# name -> (help line, flag-adding function, handler): the one definition of
# each subcommand, read by both build_parser and main.
COMMANDS = {
    "gen": ("generate sequence terms", _gen_flags, cmd_gen),
    "cf": ("continued fraction of the n-th partial sum", _cf_flags, cmd_cf),
    "stream": ("certified prefix of the limit expansion", _stream_flags, cmd_stream),
    "asymp": ("growth and irrationality report (always JSON)", _asymp_flags, cmd_asymp),
    "verify": ("run a randomized invariant suite", _verify_flags, cmd_verify),
    "paper-examples": ("re-derive the bundled worked examples", _paper_examples_flags,
                       cmd_paper_examples),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: every subcommand of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="engelcf",
        description="Exact continued fractions of Engel series with x_n^2 | x_{n+1}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    # build_parser's subparser `name`, built on its own.
    parser = argparse.ArgumentParser(prog="engelcf " + name)
    COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]):
    # Only the parser of the command argv[0] names is built, and the tree
    # would hand argv[1:] to the same parser, so a parse it accepts is the
    # tree's. No argument, an unknown command (-h included) or arguments it
    # leaves over go through the whole tree, which prints argparse's
    # top-level usage, help and "unrecognized arguments" error.
    if argv and argv[0] in COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args, COMMANDS[argv[0]][2]
    args = build_parser().parse_args(argv)
    return args, COMMANDS[args.command][2]


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
