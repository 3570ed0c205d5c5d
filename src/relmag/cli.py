"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a certified bound or
determinant identity failed (which would falsify a theorem), 2 = bad
input (an unreadable or non-UTF-8 file, a malformed matrix or system, an
unsolvable system, a refused enumeration, a bad option), 3 = internal
error (a reduction postcondition failed, or any unexpected exception).
Reports go to stdout; --format json switches to a structured document.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

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


class _Main(click.Group):
    """Applies EXIT_TABLE around every subcommand; click's own exceptions pass."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.exceptions.Abort):
            raise
        except Exception as exc:
            for types, code, message in EXIT_TABLE:
                if isinstance(exc, types):
                    break
            click.echo("error: " + message.format(type=type(exc).__name__, exc=exc), err=True)
            raise click.exceptions.Exit(code) from exc


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
        click.echo(json.dumps(as_dict(), indent=2) if fmt == "json" else as_text())


def _report_omega(matrix_path, fmt, allow_large, render):
    """Shared body of omega and certify: they differ in the text report."""
    cert = omega_matrix_upper(parse_matrix(_read(matrix_path)), allow_large=allow_large)
    _echo_report(fmt, cert.to_dict, lambda: render(cert))
    if not cert.verdict:
        raise click.exceptions.Exit(EXIT_VIOLATION)


def _certify_line(cert) -> str:
    bound = cert.theorem_bound if cert.theorem_bound is not None else "-"
    tail = " SHARP" if cert.sharp else ""
    return "omega=%s bound=%s%s" % (format_ratio(cert.omega_hi, cert.omega_lo), bound, tail)


matrix_option = click.option(
    "--matrix", "matrix_path", required=True, help="Matrix file, '-' for stdin.",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Report format.",
)
allow_large_option = click.option(
    "--allow-large", is_flag=True,
    help="Permit circuit enumeration beyond 2^24 candidate supports (exponential).",
)


@click.group(cls=_Main)
def main():
    """Exact relative-magnitude computation and certification."""


@main.command()
@matrix_option
@format_option
@allow_large_option
def omega(matrix_path, fmt, allow_large):
    """Compute the certified magnitude upper bound of a matrix."""
    _report_omega(matrix_path, fmt, allow_large, lambda cert: cert.to_text())


@main.command()
@matrix_option
@format_option
@allow_large_option
def circuits(matrix_path, fmt, allow_large):
    """List all minimal-support null vectors of a matrix."""
    circs = enumerate_circuits(parse_matrix(_read(matrix_path)), allow_large=allow_large)
    _echo_report(fmt, lambda: [c.to_dict() for c in circs],
                 lambda: "\n".join([c.to_line() for c in circs] + ["count=%d" % len(circs)]))


@main.command()
@matrix_option
@format_option
@allow_large_option
def certify(matrix_path, fmt, allow_large):
    """Certify the (norm-1)^rank magnitude bound for a matrix."""
    _report_omega(matrix_path, fmt, allow_large, _certify_line)


@main.command()
@click.option("--system", "system_path", required=True, help="System file, '-' for stdin.")
@format_option
def solve(system_path, fmt):
    """Solve a unit-coefficient system and certify the k^(n-1) bound."""
    report = solve_and_certify(parse_system(_read(system_path)))
    _echo_report(fmt, report.to_dict, report.to_text)


@main.command("gen-extremal")
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--n", type=click.IntRange(2, MAX_VARIABLES), required=True)
@click.option(
    "--mode", type=click.Choice(["homogeneous", "system"]), default="homogeneous",
    help="Emit the chain matrix or the x1=1 system DSL.",
)
def gen_extremal(k, n, mode):
    """Emit the sharp chain instance for given k and n."""
    if mode == "homogeneous":
        click.echo(format_matrix(generators.extremal_matrix(k, n)), nl=False)
    else:
        click.echo(generators.extremal_dsl(k, n), nl=False)


@main.command("verify-lemmas")
@click.option("--kmax", type=click.IntRange(2, 30), default=5,
              help="Largest k for the coefficient bounds.")
@format_option
def verify_lemmas(kmax, fmt):
    """Self-test the determinant identities and coefficient bounds."""
    chain = detbounds.verify_recurrences()
    bounds = [detbounds.verify_coefficient_bounds(k) for k in range(2, kmax + 1)]
    doc = {"chain_blocks": chain._asdict(), "coefficient_bounds": [r._asdict() for r in bounds]}
    lines = [
        "chain blocks: det B_t, C_t, D_t proved for every t and k, "
        "%d base cases and %d recurrences verified" % (chain.base_cases, chain.recurrences)
    ] + [
        "k=%d: %d coefficient multisets within bound %d, equality attained"
        % (r.k, r.multisets_checked, r.bound) for r in bounds
    ] + ["all determinant identities pass"]
    _echo_report(fmt, lambda: doc, lambda: "\n".join(lines))


if __name__ == "__main__":
    main()
