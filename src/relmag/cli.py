"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a certified bound or
determinant identity failed (which would falsify a theorem), 2 = bad
input (an unreadable or non-UTF-8 file, a malformed matrix or system, an
unsolvable system, a refused enumeration, a bad option), 3 = internal
error (a reduction postcondition failed, or any unexpected exception).
Reports go to stdout; --format json switches to a structured document.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from relmag import detbounds, generators
from relmag.circuits import EnumerationTooLarge, enumerate_circuits
from relmag.magnitude import omega_matrix_upper
from relmag.matrices import MatrixError, format_matrix, format_ratio, parse_matrix
from relmag.systems import (
    MAX_VARIABLES,
    BoundViolationError,
    ReductionError,
    SystemError_,
    parse_system,
    solve_and_certify,
)

EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# (exception types, exit code, stderr message).  No type subclasses a type
# of another row, so the rows may come in any order but the last, which
# takes everything else.
EXIT_TABLE = (
    ((BoundViolationError,), EXIT_VIOLATION, "bound violated: {exc}"),
    ((detbounds.LemmaViolationError,), EXIT_VIOLATION, "lemma falsified: {exc}"),
    ((ReductionError,), EXIT_INTERNAL, "internal error: {exc}"),
    ((EnumerationTooLarge,), EXIT_INPUT, "{exc}; pass --allow-large to force it"),
    ((SystemError_, MatrixError, OSError, UnicodeDecodeError), EXIT_INPUT, "{exc}"),
    ((Exception,), EXIT_INTERNAL, "internal error: {type}: {exc}"),
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _echo_report(fmt, as_dict, as_text):
    """Write the report as_dict() in JSON or as_text().  Exact results may
    have more digits than int-to-str conversion allows, so the limit
    (sys.get_int_max_str_digits(); the parsers keep it) is lifted while
    the report is written."""
    with contextlib.ExitStack() as restore:
        if hasattr(sys, "set_int_max_str_digits"):
            restore.callback(sys.set_int_max_str_digits, sys.get_int_max_str_digits())
            sys.set_int_max_str_digits(0)
        print(json.dumps(as_dict(), indent=2) if fmt == "json" else as_text(), flush=True)


def _report_omega(args, render) -> int:
    """Shared body of omega and certify: they differ in the text report."""
    cert = omega_matrix_upper(parse_matrix(_read(args.matrix)), allow_large=args.allow_large)
    _echo_report(args.format, cert.to_dict, lambda: render(cert))
    return 0 if cert.verdict else EXIT_VIOLATION


def _certify_line(cert) -> str:
    bound = cert.theorem_bound if cert.theorem_bound is not None else "-"
    tail = " SHARP" if cert.sharp else ""
    return "omega=%s bound=%s%s" % (format_ratio(cert.omega_hi, cert.omega_lo), bound, tail)


def omega(args):
    """Compute the certified magnitude upper bound of a matrix."""
    return _report_omega(args, lambda cert: cert.to_text())


def circuits(args):
    """List all minimal-support null vectors of a matrix."""
    circs = enumerate_circuits(parse_matrix(_read(args.matrix)), allow_large=args.allow_large)
    _echo_report(args.format, lambda: [c.to_dict() for c in circs],
                 lambda: "\n".join([c.to_line() for c in circs] + ["count=%d" % len(circs)]))


def certify(args):
    """Certify the (norm-1)^rank magnitude bound for a matrix."""
    return _report_omega(args, _certify_line)


def solve(args):
    """Solve a unit-coefficient system and certify the k^(n-1) bound."""
    report = solve_and_certify(parse_system(_read(args.system)))
    _echo_report(args.format, report.to_dict, report.to_text)


def gen_extremal(args):
    """Emit the sharp chain instance for given k and n."""
    text = (format_matrix(generators.extremal_matrix(args.k, args.n)) if args.mode == "homogeneous"
            else generators.extremal_dsl(args.k, args.n))
    print(text, end="", flush=True)


def verify_lemmas(args):
    """Self-test the determinant identities and coefficient bounds."""
    chain = detbounds.verify_recurrences()
    bounds = [detbounds.verify_coefficient_bounds(k) for k in range(2, args.kmax + 1)]
    doc = {"chain_blocks": chain._asdict(), "coefficient_bounds": [r._asdict() for r in bounds]}
    lines = [
        "chain blocks: det B_t, C_t, D_t proved for every t and k, "
        "%d base cases and %d recurrences verified" % (chain.base_cases, chain.recurrences)
    ] + [
        "k=%d: %d coefficient multisets within bound %d, equality attained"
        % (r.k, r.multisets_checked, r.bound) for r in bounds
    ] + ["all determinant identities pass"]
    _echo_report(args.format, lambda: doc, lambda: "\n".join(lines))


def _int_range(low, high=None):
    """An argparse type: an int in [low, high], high None for no limit."""
    def integer(text):
        value = int(text)
        if value < low or high is not None and value > high:
            shown = "x>=%d" % low if high is None else "%d<=x<=%d" % (low, high)
            raise argparse.ArgumentTypeError("%d is not in the range %s." % (value, shown))
        return value
    return integer


FORMAT_OPTION = ("--format", dict(choices=("text", "json"), default="text", help="Report format."))
MATRIX_OPTIONS = (
    ("--matrix", dict(required=True, help="Matrix file, '-' for stdin.")),
    FORMAT_OPTION,
    ("--allow-large", dict(action="store_true", help=(
        "Permit circuit enumeration beyond 2^24 candidate supports (exponential)."))),
)

# (name, command, options); a command returns its exit code, None for 0
COMMANDS = (
    ("omega", omega, MATRIX_OPTIONS),
    ("circuits", circuits, MATRIX_OPTIONS),
    ("certify", certify, MATRIX_OPTIONS),
    ("solve", solve, (
        ("--system", dict(required=True, help="System file, '-' for stdin.")),
        FORMAT_OPTION,
    )),
    ("gen-extremal", gen_extremal, (
        ("--k", dict(type=_int_range(2), required=True)),
        ("--n", dict(type=_int_range(2, MAX_VARIABLES), required=True)),
        ("--mode", dict(choices=("homogeneous", "system"), default="homogeneous",
                        help="Emit the chain matrix or the x1=1 system DSL.")),
    )),
    ("verify-lemmas", verify_lemmas, (
        ("--kmax", dict(type=_int_range(2, 30), default=5,
                        help="Largest k for the coefficient bounds.")),
        FORMAT_OPTION,
    )),
)


def main(argv=None) -> int:
    """Exact relative-magnitude computation and certification."""
    parser = argparse.ArgumentParser(prog="relmag", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, command, options in COMMANDS:
        sub = commands.add_parser(name, help=command.__doc__, description=command.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=command)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
    args = parser.parse_args(argv)
    try:
        return args.run(args) or 0
    except Exception as exc:
        for types, code, message in EXIT_TABLE:
            if isinstance(exc, types):
                break
        print("error: " + message.format(type=type(exc).__name__, exc=exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
