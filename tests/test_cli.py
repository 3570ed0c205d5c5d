"""Command-line interface end-to-end behaviour."""

import contextlib
import io
import json
import random
import sys
from typing import NamedTuple
from unittest import mock

import pytest
from conftest import (
    cofactor_grid,
    corrupt_cramer_check,
    corrupt_expansion,
    corrupt_first_pivot_row,
    corrupt_reduced_size,
    corrupt_reduced_solution,
    corrupt_reduction_solve,
    halving_dsl,
    mutate_closed_form,
    vanishing_to,
)

from relmag import circuits, cli, detbounds, generators
from relmag.cli import main
from relmag.matrices import nullspace_basis, parse_matrix
from relmag.systems import MAX_VARIABLES, BoundViolationError, ReductionError, SolveReport


def _int_digits_limit():
    """sys.get_int_max_str_digits(), or None where int() has no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


_LIMIT = _int_digits_limit()


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, in the order they were written


class _Recorder(io.StringIO):
    """A captured stream that also appends each write to a shared log."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def write(self, text):
        self.log.append(text)
        return super().write(text)


def invoke(*args, input=None):
    """Run main(args) in-process, stdin reading input, stdout and stderr
    captured; argparse's usage errors and --help end in SystemExit."""
    log = []
    out, err = _Recorder(log), _Recorder(log)
    with mock.patch.object(sys, "stdin", io.StringIO(input or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue(), "".join(log))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CHAIN_MATRIX = "3 4\n2 -1 0 0\n0 2 -1 0\n0 0 2 -1\n"
CHAIN_SYSTEM = "k=2\nx1=1\n2x1-x2=0\n2x2-x3=0\n"


class TestOmega:
    def test_text(self, tmp_path):
        res = invoke("omega", "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX))
        assert res.exit_code == 0
        assert "omega_upper=8" in res.output
        assert "verdict=pass" in res.output

    def test_json(self, tmp_path):
        res = invoke(
            "omega", "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX), "--format", "json"
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["omega_upper"] == "8" and doc["sharp"] is True

    def test_stdin(self):
        res = invoke("omega", "--matrix", "-", input=CHAIN_MATRIX)
        assert res.exit_code == 0 and "omega_upper=8" in res.output

    def test_bad_matrix(self, tmp_path):
        res = invoke("omega", "--matrix", write(tmp_path, "bad.txt", "not a matrix"))
        assert res.exit_code == 2

    def test_missing_file(self):
        res = invoke("omega", "--matrix", "/nonexistent/path")
        assert res.exit_code == 2

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff1 2\n1 2\n")
        res = invoke("omega", "--matrix", str(path))
        assert res.exit_code == 2
        assert res.stderr.startswith("error: 'utf-8' codec can't decode")

    def test_unexpected_exception(self, tmp_path, monkeypatch):
        def broken(a, allow_large=False):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "omega_matrix_upper", broken)
        res = invoke("omega", "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX))
        assert res.exit_code == 3
        assert res.stderr.startswith("error: internal error: RuntimeError: boom")
        assert "Traceback" not in res.output

    def test_corrupted_pivot_row(self, monkeypatch):
        """A pivot row corrupted after the elimination leaves a remainder in
        the null space's back substitution: an internal error, not a wrong
        witness (the true ray of this matrix is (1, 3, -5))."""
        a = "2 3\n2 1 1\n1 3 2\n"
        assert nullspace_basis(parse_matrix(a)) == [(1, 3, -5)]
        corrupt_first_pivot_row(monkeypatch)
        with pytest.raises(ArithmeticError):
            nullspace_basis(parse_matrix(a))
        res = invoke("omega", "--matrix", "-", input=a)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: internal error: ArithmeticError:")


class TestCircuits:
    def test_text(self, tmp_path):
        res = invoke("circuits", "--matrix", write(tmp_path, "a.txt", "1 3\n1 1 1\n"))
        assert res.exit_code == 0
        assert "I = {1,2}; v = (1, -1, 0)" in res.output
        assert "count=3" in res.output

    def test_json(self, tmp_path):
        res = invoke(
            "circuits",
            "--matrix",
            write(tmp_path, "a.txt", "1 3\n1 1 1\n"),
            "--format",
            "json",
        )
        doc = json.loads(res.output)
        assert len(doc) == 3 and doc[0]["support"] == [1, 2]

    def test_guard_and_override(self, tmp_path, monkeypatch):
        monkeypatch.setattr(circuits, "CANDIDATE_LIMIT", 10)
        wide = "1 25\n" + " ".join(["0"] * 25) + "\n"  # 25 candidate supports
        path = write(tmp_path, "wide.txt", wide)
        res = invoke("circuits", "--matrix", path)
        assert res.exit_code == 2
        assert "pass --allow-large to force it" in res.stderr
        assert invoke("circuits", "--matrix", path, "--allow-large").exit_code == 0

    @pytest.mark.parametrize("command", ["circuits", "omega", "certify"])
    def test_big_integer_report(self, command):
        """Circuit entries of more digits than int-to-str conversion allows
        (minors of 3,000-digit entries) are written out, and the limit is
        back in place afterwards."""
        rng = random.Random(3)
        rows = [" ".join(str(rng.randrange(10 ** 2999, 10 ** 3000)) for _ in range(3))
                for _ in range(2)]
        res = invoke(command, "--matrix", "-", input="2 3\n%s\n" % "\n".join(rows))
        assert res.exit_code == 0, res.output
        assert len(max(res.output.split(), key=len)) > 5000
        assert _int_digits_limit() == _LIMIT


    def test_walk_non_integral(self, monkeypatch):
        """A Bareiss step of the walk that doubles its new pivot leaves a
        back substitution with a remainder, here before any circuit it
        gives fails the A.z = 0 check."""
        real = circuits._extend

        def extend(rows, r, piv, c, prev):
            ext = real(rows, r, piv, c, prev)
            ext[r] = ext[r][:c] + [2 * ext[r][c]] + ext[r][c + 1:]
            return ext

        monkeypatch.setattr(circuits, "_extend", extend)
        res = invoke("circuits", "--matrix", "-", input="2 4\n2 -1 1 0\n0 1 0 -1\n")
        assert res.exit_code == 3
        assert res.stderr == ("error: internal error: ArithmeticError: "
                              "circuit vector on columns {2,3,4} is not integral\n")

    def test_walk_not_null_vector(self, monkeypatch):
        """A Bareiss step of the walk that adds 1 to the pivot row after its
        pivot divides exactly but gives vectors outside the null space; the
        A.z = 0 check stops the first one (unchecked, the walk printed two
        wrong circuits for these four true ones, with exit 0)."""
        real = circuits._extend

        def extend(rows, r, piv, c, prev):
            ext = real(rows, r, piv, c, prev)
            ext[r] = ext[r][:c + 1] + [ext[r][c + 1] + 1] + ext[r][c + 2:]
            return ext

        monkeypatch.setattr(circuits, "_extend", extend)
        res = invoke("circuits", "--matrix", "-", input="2 4\n1 2 3 4\n2 3 5 7\n")
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == ("error: internal error: ArithmeticError: "
                              "circuit vector on columns {2,3,4} is not a null vector\n")


def _failing_verdict(monkeypatch):
    """Make the CLI's omega_matrix_upper return a certificate whose last
    check failed."""
    real = cli.omega_matrix_upper

    def omega_matrix_upper(a, allow_large=False):
        cert = real(a, allow_large)
        name, _ = cert.checks[-1]
        return cert._replace(checks=cert.checks[:-1] + ((name, False),))

    monkeypatch.setattr(cli, "omega_matrix_upper", omega_matrix_upper)


class TestCertify:
    @pytest.mark.parametrize("command, line", [
        ("omega", "check every_circuit_le_support_power: FAIL"),
        ("certify", "omega=8 bound=8 SHARP"),
    ])
    def test_false_verdict_exits_1(self, tmp_path, monkeypatch, command, line):
        """A false verdict exits 1 after the report is written."""
        _failing_verdict(monkeypatch)
        res = invoke(command, "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX))
        assert res.exit_code == 1
        assert line in res.output.splitlines() and res.stderr == ""
        res = invoke(command, "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX),
                     "--format", "json")
        assert res.exit_code == 1 and json.loads(res.output)["verdict"] is False

    def test_sharp_line(self, tmp_path):
        res = invoke("certify", "--matrix", write(tmp_path, "a.txt", CHAIN_MATRIX))
        assert res.exit_code == 0
        assert res.output.strip() == "omega=8 bound=8 SHARP"

    def test_full_rank(self, tmp_path):
        res = invoke("certify", "--matrix", write(tmp_path, "a.txt", "2 2\n1 0\n0 1\n"))
        assert res.exit_code == 0
        assert res.output.startswith("omega=0")


class TestSolve:
    def test_text(self, tmp_path):
        res = invoke("solve", "--system", write(tmp_path, "s.txt", CHAIN_SYSTEM))
        assert res.exit_code == 0
        assert "x1=1, x2=2, x3=4" in res.output
        assert "max=4 bound=k^(n-1)=4 OK" in res.output

    def test_json(self, tmp_path):
        res = invoke(
            "solve",
            "--system",
            write(tmp_path, "s.txt", CHAIN_SYSTEM),
            "--format",
            "json",
        )
        doc = json.loads(res.output)
        assert doc["bound_ok"] is True and doc["certification"]["all_ok"] is True

    def test_no_jobs_option(self, tmp_path):
        path = write(tmp_path, "s.txt", CHAIN_SYSTEM)
        assert invoke("solve", "--system", path, "--jobs", "2").exit_code == 2

    def test_no_certify_option(self, tmp_path):
        """solve always certifies: the parser rejects --no-certify as unknown."""
        path = write(tmp_path, "s.txt", CHAIN_SYSTEM)
        res = invoke("solve", "--system", path, "--no-certify")
        assert res.exit_code == 2
        assert "unrecognized arguments: --no-certify" in res.output

    def test_unsolvable(self, tmp_path):
        res = invoke("solve", "--system", write(tmp_path, "s.txt", "x1=1; x1=-1"))
        assert res.exit_code == 2

    def test_parse_error(self, tmp_path):
        res = invoke("solve", "--system", write(tmp_path, "s.txt", "x1=7"))
        assert res.exit_code == 2

    def test_long_literal(self, tmp_path):
        """A literal too long for int() is bad input, at its position."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit < 5000:
            pytest.skip("int() converts a literal of 5000 digits")
        text = "x1=1\nx1 - %sx2 = 0\n" % ("9" * 5000)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", text))
        assert res.exit_code == 2
        assert res.output == (
            "error: line 2, col 5: literal of 5000 digits is too long, limit is %d\n" % limit)

    @pytest.mark.parametrize("args", [(), ("--format", "text"), ("--format", "json")])
    def test_big_integer_report(self, args):
        """A solution of more digits than int-to-str conversion allows is
        written out, x800 = 10^4794, and the limit is back in place
        afterwards."""
        text = generators.extremal_dsl(10 ** 6, 800)
        res = invoke("solve", "--system", "-", *args, input=text)
        assert res.exit_code == 0, res.output
        x800 = "1" + "0" * 4794
        if "json" in args:
            assert json.loads(res.output, parse_int=str)["solution"]["x800"] == x800
        else:
            assert res.output.startswith("solution: x1=1, x2=1000000, ")
            assert ", x800=%s\n" % x800 in res.output
        assert _int_digits_limit() == _LIMIT

    def test_report_error_restores_the_limit(self, tmp_path, monkeypatch):
        def broken(report):
            raise RuntimeError("boom")

        monkeypatch.setattr(SolveReport, "to_text", broken)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", CHAIN_SYSTEM))
        assert res.exit_code == 3 and "RuntimeError: boom" in res.output
        assert _int_digits_limit() == _LIMIT

    def test_internal_error(self, tmp_path, monkeypatch):
        def broken(system, certify=True):
            raise ReductionError("assembled matrix is singular")

        monkeypatch.setattr(cli, "solve_and_certify", broken)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", CHAIN_SYSTEM))
        assert res.exit_code == 3
        assert "internal error: assembled matrix is singular" in res.output

    @pytest.mark.parametrize("kind", ["numerator", "det_a"])
    def test_cramer_disagreement(self, tmp_path, monkeypatch, kind):
        corrupt_cramer_check(monkeypatch, kind)
        for text in (generators.extremal_dsl(2, 6), halving_dsl(12)):
            res = invoke("solve", "--system", write(tmp_path, "s.txt", text))
            assert res.exit_code == 3, text
            assert "internal error: Cramer and elimination solutions disagree" in res.output

    def test_assembled_solution_disagreement(self, tmp_path, monkeypatch):
        corrupt_reduced_solution(monkeypatch, 11)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", halving_dsl(12)))
        assert res.exit_code == 3
        assert "internal error: assembled solution disagrees with the reduction" in res.output

    @pytest.mark.parametrize("values, text, message", [
        ({2: 0}, "k=2\nx1=1\nx1+x2=0\n",
         "single-variable homogeneous equation survived steps 2-4"),
        ({2: 2, 3: 3}, "k=2\nx1=1\nx2-x3=0\nx2-x3=0\nx2-x3=0\n",
         "could not select 2 independent equations"),
    ], ids=["single_variable", "selection"])
    def test_reduction_check_fails(self, tmp_path, monkeypatch, values, text, message):
        corrupt_reduction_solve(monkeypatch, values)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", text))
        assert res.exit_code == 3
        assert res.stderr == "error: internal error: %s\n" % message

    @pytest.mark.parametrize("k, det", [(3, "6561"), (10 ** 1500, "10^%s or more" % _LIMIT)],
                             ids=["k=3", "k=10^1500"])
    def test_chain_minor_falsified(self, tmp_path, monkeypatch, k, det):
        """Chain row 0's ends swapped, and only in the ends: det B_4 holds,
        the minor of the first column, k^8, does not.  At k = 10^1500 the
        minor has more digits than int-to-str conversion allows, and the
        message gives a lower bound for it."""
        real = detbounds._chain_tridiagonal

        def chain_tridiagonal(a, rows, cols):
            diag, off, ends = real(a, rows, cols)
            ends[0] = ends[0][::-1]
            return diag, off, ends

        monkeypatch.setattr(detbounds, "_chain_tridiagonal", chain_tridiagonal)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", generators.extremal_dsl(k, 5)))
        assert res.exit_code == 1
        assert res.stderr == (
            "error: lemma falsified: column 1 cuts a chain block with det %s, "
            "closed form det C_0 det D_4 says 1\n" % det)

    def test_reconstructed_solution_fails(self, tmp_path, monkeypatch):
        # y12 of x12 = 1 / 2^11 one off in the kept solution: 2 x12 = x11 fails
        corrupt_expansion(monkeypatch, 12, 1)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", halving_dsl(12)))
        assert res.exit_code == 3
        assert res.stderr == "error: internal error: reconstructed solution fails the original system\n"

    def test_reduction_changed_maximum(self, tmp_path, monkeypatch):
        # x13 only meets itself, so the reduction zeroes it; set to 2 instead,
        # it still solves every equation but is the new maximum
        corrupt_expansion(monkeypatch, 13, 2 ** 12)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", halving_dsl(12) + "; x13-x13=0"))
        assert res.exit_code == 3
        assert res.stderr == (
            "error: internal error: reduction changed the maximum coordinate magnitude\n")

    @pytest.mark.parametrize("k, bound", [(2, "16"), (10 ** 1500, "10^%s or more" % _LIMIT)],
                             ids=["k=2", "k=10^1500"])
    def test_solution_exceeds_bound(self, tmp_path, monkeypatch, k, bound):
        # the bound taken at n = 5 on the sharp chain of 6: k^5 > k^4, which
        # at k = 10^1500 has more digits than int-to-str conversion allows
        corrupt_reduced_size(monkeypatch)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", generators.extremal_dsl(k, 6)))
        assert res.exit_code == 1
        assert res.stderr == "error: bound violated: solution magnitude exceeds k^(n-1) = %s\n" % bound

    def test_bound_violated(self, tmp_path, monkeypatch):
        def broken(system, certify=True):
            raise BoundViolationError("|x3| = 5 > 4")

        monkeypatch.setattr(cli, "solve_and_certify", broken)
        res = invoke("solve", "--system", write(tmp_path, "s.txt", CHAIN_SYSTEM))
        assert res.exit_code == 1
        assert res.stderr.startswith("error: bound violated: |x3| = 5 > 4")


class TestGenerators:
    def test_round_trip_matrix(self, tmp_path):
        gen = invoke("gen-extremal", "--k", "2", "--n", "3")
        assert gen.exit_code == 0
        path = write(tmp_path, "gen.txt", gen.output)
        res = invoke("certify", "--matrix", path)
        assert res.output.strip() == "omega=4 bound=4 SHARP"

    def test_round_trip_system(self, tmp_path):
        gen = invoke("gen-extremal", "--k", "3", "--n", "4", "--mode", "system")
        assert gen.exit_code == 0
        path = write(tmp_path, "gen.txt", gen.output)
        res = invoke("solve", "--system", path, "--format", "json")
        doc = json.loads(res.output)
        assert doc["max_abs"] == "27" and doc["sharp"] is True

    def test_bad_params(self):
        assert invoke("gen-extremal", "--k", "1", "--n", "3").exit_code == 2
        assert invoke("gen-extremal", "--k", "2", "--n", "1").exit_code == 2
        assert invoke("gen-extremal", "--k", "2", "--n", str(MAX_VARIABLES + 1)).exit_code == 2


class TestVerifyLemmas:
    def test_defaults(self):
        res = invoke("verify-lemmas", "--kmax", "3")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "chain blocks: det B_t, C_t, D_t proved for every t and k, "
            "6 base cases and 3 recurrences verified",
            "k=2: 2 coefficient multisets within bound 3, equality attained",
            "k=3: 6 coefficient multisets within bound 8, equality attained",
            "all determinant identities pass",
        ]

    def test_json(self):
        res = invoke("verify-lemmas", "--kmax", "2", "--format", "json")
        doc = json.loads(res.output)
        assert doc["chain_blocks"] == {"base_cases": 6, "recurrences": 3}
        assert doc["coefficient_bounds"] == [{"k": 2, "multisets_checked": 2, "bound": 3}]

    # (k, multisets_checked, bound) of each coefficient-bound check
    _BOUNDS = ((2, 2, 3), (3, 6, 8), (4, 12, 13), (5, 22, 20), (6, 36, 29), (7, 57, 40))

    @pytest.mark.parametrize("kmax", range(2, 8))
    def test_text_bytes(self, kmax):
        res = invoke("verify-lemmas", "--kmax", str(kmax))
        assert res.exit_code == 0
        assert res.stdout == "".join(
            ["chain blocks: det B_t, C_t, D_t proved for every t and k, "
             "6 base cases and 3 recurrences verified\n"]
            + ["k=%d: %d coefficient multisets within bound %d, equality attained\n" % row
               for row in self._BOUNDS[:kmax - 1]]
            + ["all determinant identities pass\n"]
        )

    @pytest.mark.parametrize("kmax", range(2, 8))
    def test_json_bytes(self, kmax):
        """The JSON document, written out by hand: two-space indent, one
        value per line, a final newline."""
        res = invoke("verify-lemmas", "--kmax", str(kmax), "--format", "json")
        assert res.exit_code == 0
        head = (
            '{\n  "chain_blocks": {\n'
            '    "base_cases": 6,\n    "recurrences": 3\n  },\n'
            '  "coefficient_bounds": [\n'
        )
        entries = ",\n".join(
            '    {\n      "k": %d,\n      "multisets_checked": %d,\n      "bound": %d\n    }'
            % row for row in self._BOUNDS[:kmax - 1]
        )
        assert res.stdout == head + entries + "\n  ]\n}\n"
        assert res.stdout == json.dumps(json.loads(res.stdout), indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("failing_k", [None, 2, 4])
    def test_falsified_lemma_writes_no_report(self, monkeypatch, fmt, failing_k):
        """Every check runs before a byte is written: a LemmaViolationError
        from the recurrences (failing_k None) or from the bounds at some
        k, after earlier checks passed, leaves stdout empty."""
        real = detbounds.verify_coefficient_bounds

        def bounds(k):
            if k == failing_k:
                raise detbounds.LemmaViolationError("bound broken (k=%d)" % k)
            return real(k)

        def recurrences():
            raise detbounds.LemmaViolationError("det C_3 != recurrence")

        monkeypatch.setattr(detbounds, "verify_coefficient_bounds", bounds)
        if failing_k is None:
            monkeypatch.setattr(detbounds, "verify_recurrences", recurrences)
        res = invoke("verify-lemmas", "--kmax", "5", "--format", fmt)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: lemma falsified: ")

    def test_bad_params(self):
        # the chain-block identities hold for every t: there is no size option
        for value in ("2", "10"):
            res = invoke("verify-lemmas", "--tmax", value)
            assert res.exit_code == 2 and "unrecognized arguments: --tmax" in res.output

    def test_size_guard(self, monkeypatch):
        ran = []
        monkeypatch.setattr(detbounds, "verify_recurrences", lambda: ran.append(0))
        monkeypatch.setattr(detbounds, "verify_coefficient_bounds", lambda k: ran.append(k))
        for value in ("1", "31"):
            res = invoke("verify-lemmas", "--kmax", value)
            assert res.exit_code == 2, value
        assert ran == []

    def test_lemma_falsified(self, monkeypatch):
        def broken():
            raise detbounds.LemmaViolationError("det C_3 != recurrence")

        monkeypatch.setattr(detbounds, "verify_recurrences", broken)
        res = invoke("verify-lemmas", "--kmax", "2")
        assert res.exit_code == 1
        assert res.stderr.startswith("error: lemma falsified: det C_3 != recurrence")

    def test_closed_form_wrong_for_large_t(self, monkeypatch):
        """det C_t changed from t = 11 on by a multiple of
        (Q - K)...(Q - K^10) in its numerator: the cofactor grid up to
        t = 10 passes it, the induction does not."""
        mutate_closed_form(monkeypatch, "C", vanishing_to(10))
        assert detbounds.det_closed_form("C", 11, 2) != 4 ** 11
        assert cofactor_grid(10, 2) == 3069
        res = invoke("verify-lemmas", "--kmax", "2")
        assert res.exit_code == 1
        assert res.stderr == "error: lemma falsified: closed form of det C_t fails its recurrence\n"


class TestUsage:
    """What the argument parser owns: a usage error exits 2 with nothing on
    stdout and names the bad option or command on stderr."""

    @pytest.mark.parametrize("args, named", [
        (("omega",), "the following arguments are required: --matrix"),
        (("circuits", "--format", "json"), "the following arguments are required: --matrix"),
        (("solve",), "the following arguments are required: --system"),
        (("omega", "--matrix", "-", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
        (("solve", "--system", "-", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
        ((), "the following arguments are required: COMMAND"),
        (("solv",), "argument COMMAND: invalid choice: 'solv'"),
        (("gen-extremal", "--k", "two", "--n", "3"), "argument --k: invalid integer value: 'two'"),
        (("gen-extremal", "--k", "2", "--n", "4097"),
         "argument --n: 4097 is not in the range 2<=x<=4096."),
        (("omega", "--mat", "-"), "the following arguments are required: --matrix"),
    ])
    def test_usage_error(self, args, named):
        res = invoke(*args, input=CHAIN_MATRIX)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: relmag")
        assert "error: " + named in res.stderr, res.stderr

    def test_help(self):
        """--help lists the six commands, each with its help line."""
        res = invoke("--help")
        assert res.exit_code == 0 and res.stderr == ""
        listed = " ".join(res.stdout.split())
        for line in (
            "omega Compute the certified magnitude upper bound of a matrix.",
            "circuits List all minimal-support null vectors of a matrix.",
            "certify Certify the (norm-1)^rank magnitude bound for a matrix.",
            "solve Solve a unit-coefficient system and certify the k^(n-1) bound.",
            "gen-extremal Emit the sharp chain instance for given k and n.",
            "verify-lemmas Self-test the determinant identities and coefficient bounds.",
        ):
            assert line in listed, line

    def test_command_help(self):
        res = invoke("certify", "--help")
        assert res.exit_code == 0 and res.stderr == ""
        text = " ".join(res.stdout.split())
        assert "Certify the (norm-1)^rank magnitude bound for a matrix." in text
        assert "Permit circuit enumeration beyond 2^24 candidate supports (exponential)." in text

    def test_file_name_with_leading_dash(self, tmp_path, monkeypatch):
        """argparse reads a separate '-a.txt' as an option; '=' passes it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-a.txt").write_text(CHAIN_MATRIX)
        res = invoke("certify", "--matrix=-a.txt")
        assert res.exit_code == 0 and res.output == "omega=8 bound=8 SHARP\n"
        res = invoke("certify", "--matrix", "-a.txt")
        assert res.exit_code == 2 and res.stdout == ""
        assert "argument --matrix: expected one argument" in res.stderr
