"""Unit-coefficient systems: parsing, reduction, chains, solving."""

import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relmag.detbounds
import relmag.matrices
import relmag.systems
from conftest import (
    as_fractions,
    combined,
    corrupt_cramer_check,
    corrupt_reduced_solution,
    corrupt_reduction_solve,
    count_fractions,
    dense_rows,
    gauss_jordan_solve,
    halving_dsl,
    random_system,
    reconstruct,
    reduced_solution,
    reference_check_reduced,
    reference_check_solution,
    reference_parse_system,
    reference_reduce_system,
    reference_solve_assembled,
    reference_validate,
    replace_column,
    solution,
    sum_equations,
    unit_equations,
)
from test_detbounds import MULTI_CHAIN
from relmag.generators import extremal_dsl, extremal_matrix, extremal_system
from relmag.matrices import IntegerMatrix, determinant
from relmag.systems import (
    MAX_VARIABLES,
    AllHomogeneousError,
    Assembled,
    BoundViolationError,
    ParseError,
    ReductionError,
    ReductionTrace,
    SumEquation,
    System,
    SystemError_,
    UnitEquation,
    UnsolvableSystemError,
    assemble,
    check_solution,
    parse_system,
    reduce_system,
    solve_and_certify,
    solve_assembled,
)


@st.composite
def _systems(draw):
    """Any valid System: every sum equation within the k+1 weight limit."""
    k = draw(st.integers(2, 5))
    nvars = draw(st.integers(1, 8))
    var = st.integers(1, nvars)
    equations = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            equations.append(UnitEquation(var=draw(var), sign=draw(st.sampled_from([1, -1]))))
            continue
        budget, terms = k + 1, []
        while budget and (not terms or draw(st.booleans())):
            c = draw(st.integers(1, budget))
            terms.append((draw(st.sampled_from([c, -c])), draw(var)))
            budget -= c
        equations.append(SumEquation(terms=tuple(terms)))
    return System(k=k, nvars=nvars, equations=tuple(equations))


class TestParser:
    def test_basic(self):
        s = parse_system("k=3\nx1 = 1\n3x1 - x2 = 0\n")
        assert s.k == 3 and s.nvars == 2
        assert s.equations[0] == UnitEquation(var=1, sign=1)
        assert s.equations[1] == SumEquation(terms=((3, 1), (-1, 2)))

    def test_default_k_and_semicolons(self):
        s = parse_system("x1=1; x1+x2=x3")
        assert s.k == 2
        assert s.equations[1] == SumEquation(terms=((1, 1), (1, 2), (-1, 3)))

    def test_negative_unit(self):
        s = parse_system("x2 = -1")
        assert s.equations[0] == UnitEquation(var=2, sign=-1)

    def test_moving_terms_across_equals(self):
        s = parse_system("k=3; 2x1 = x2 - x3")
        assert s.equations[0] == SumEquation(terms=((2, 1), (-1, 2), (1, 3)))

    def test_repeated_unit_terms(self):
        s = parse_system("k=2; x1 + x1 - x2 = 0")
        assert combined(s.equations[0]) == {1: 2, 2: -1}

    def test_comments_and_blank_lines(self):
        s = parse_system("# header\nk=2\n\nx1=1  # unit\n")
        assert s.k == 2 and len(s.equations) == 1

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_system("x1=1\nx2 = 5\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_system("k=2; y1=1")
        with pytest.raises(ParseError):
            parse_system("k=1; x1=1")  # k must be >= 2
        with pytest.raises(ParseError):
            parse_system("x1=1; x1+x2")  # missing '='
        with pytest.raises(ParseError, match="right-hand side of \\+-1 needs a single term") as exc:
            parse_system("x1=1\n  2x1 = 1")
        assert (exc.value.line, exc.value.col) == (2, 2)
        with pytest.raises(ParseError, match="right-hand side of \\+-1 needs a single term") as exc:
            parse_system("x1 + x2 = 1")
        assert (exc.value.line, exc.value.col) == (1, 0)
        with pytest.raises(ParseError, match="right-hand side must be 0, 1 or -1"):
            parse_system("x1 + x2 = 2")
        # the error points at the first constant term
        for text, pos in (("x1=1\nx1 + x2 = 5", (2, 10)), ("x1 = 2", (1, 5))):
            with pytest.raises(ParseError, match="right-hand side must be 0, 1 or -1") as exc:
                parse_system(text)
            assert (exc.value.line, exc.value.col) == pos, text

    def test_weight_limit_enforced(self):
        with pytest.raises(ParseError):
            parse_system("k=2; x1+x1+x1+x2=0")  # weight 4 > k+1 = 3

    def test_weight_message_follows_the_text(self):
        with pytest.raises(ParseError) as exc:
            parse_system("k=2; 1000000x1 - x2 = 0")
        message = str(exc.value)
        assert len(message) < 200
        assert "1000000x1-x2=0" in message and "1000001 unit terms" in message
        assert (exc.value.line, exc.value.col) == (1, 5)
        with pytest.raises(ValueError, match="1000000x1-x2=0 has 1000001 unit terms"):
            System(k=2, nvars=2, equations=(SumEquation(terms=((1000000, 1), (-1, 2))),))

    def test_checks_after_parsing_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_system("k=2\nx1=1\nx1+x2+x3+x4=0")  # weight 4 > k+1 = 3
        assert (exc.value.line, exc.value.col) == (3, 0)
        with pytest.raises(ParseError) as exc:
            parse_system("k=2\nx1=1\n  x1 - x0 = 0")
        assert (exc.value.line, exc.value.col) == (3, 7)
        with pytest.raises(ParseError) as exc:
            parse_system("k=3; x1=1; x1+x1+x1+x1+x2=0")
        assert (exc.value.line, exc.value.col) == (1, 11)

    def test_round_trip(self):
        # to_text writes each term once with its coefficient, so the round
        # trip gives back the same equations, term for term
        for text in ["k=3; x1=1; 3x1-x2=0", "x1=-1; x1+x2=x3", "k=2; x1+x1-x2=0"]:
            s = parse_system(text)
            assert parse_system(s.to_text()) == s

    def test_extremal_text_follows_the_terms(self):
        text = extremal_dsl(10 ** 6, 3)
        assert len(text) < 100
        assert parse_system(text) == extremal_system(10 ** 6, 3)

    @given(_systems())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, s):
        again = parse_system(s.to_text())
        assert again.k == s.k and again.equations == s.equations
        used = [e.var for e in unit_equations(s)]
        used += [v for e in sum_equations(s) for _, v in e.terms]
        assert again.nvars == max(used)


# Every str.isspace() character that str.splitlines() does not break at,
# and every line break it does
_BLANK_CHARS = " \t\x1f\xa0\u1680\u2003\u202f\u3000"
_LINE_BREAK_CHARS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                     "\x85", "\u2028", "\u2029")
# code points of the digit 0 in scripts other than ASCII: Arabic-Indic,
# Devanagari and fullwidth
_DIGIT_ZEROS = (0x660, 0x966, 0xFF10)


@st.composite
def _written_systems(draw):
    """The text of a random system, written with random blanks, every kind
    of line break, ';', comments, '*', '−' and non-ASCII digits.

    Each equation is a list of items (value, variable), a term, or
    (value, None), a constant, whose sum is 0; each item goes to either
    side of '=' (negated on the right), and an empty side is written 0.
    Unit equations have one term and the constant -+1; sum equations have
    a weight of at most k + 2 for the drawn k, which the header may omit,
    so some are over the limit k + 1.
    """
    blank = st.text(st.sampled_from(_BLANK_CHARS), max_size=2)

    def number(n):
        digits = str(n)
        zero = draw(st.sampled_from((None, None) + _DIGIT_ZEROS))
        if zero is None:
            return digits
        at = draw(st.integers(0, len(digits) - 1))
        return digits[:at] + chr(zero + int(digits[at])) + digits[at + 1:]

    def item(value, var, first):
        if value < 0:
            sign = draw(st.sampled_from("-−"))
        else:
            sign = "" if first and draw(st.booleans()) else "+"
        out = sign + draw(blank)
        if var is None:
            return out + number(abs(value))
        if abs(value) != 1 or draw(st.booleans()):
            out += number(abs(value)) + draw(blank) + draw(st.sampled_from(("", "*"))) + draw(blank)
        return out + "x" + draw(blank) + number(var)

    def side(items):
        if not items:
            return draw(blank) + "0" + draw(blank)
        return "".join(draw(blank) + item(v, x, i == 0) + draw(blank)
                       for i, (v, x) in enumerate(items))

    k = draw(st.integers(2, 5))
    var = st.integers(1, 12)
    statements = []
    if k != 2 or draw(st.booleans()):
        statements.append(draw(blank) + "k" + draw(blank) + "=" + draw(blank) + number(k) + draw(blank))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            c = draw(st.sampled_from((1, -1)))
            items = [(c, draw(var)), (-draw(st.sampled_from((1, -1))) * c, None)]
        else:
            budget, items = k + 1 + draw(st.integers(0, 1)), []
            while budget and (not items or draw(st.booleans())):
                c = draw(st.integers(1, budget))
                items.append((draw(st.sampled_from((c, -c))), draw(var)))
                budget -= c
            if draw(st.booleans()):
                items.append((0, None))
        items = draw(st.permutations(items))
        right = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
        left = side([it for it, r in zip(items, right) if not r])
        statements.append(left + "=" + side([(-v, x) for (v, x), r in zip(items, right) if r]))
    text = ""
    for statement in statements:
        text += statement
        if draw(st.booleans()):
            text += ";"
        else:
            if draw(st.booleans()):
                text += "#" + draw(st.text(st.sampled_from("x1=;# k−"), max_size=6))
            text += draw(st.sampled_from(_LINE_BREAK_CHARS))
        if not draw(st.integers(0, 3)):
            text += draw(blank) + draw(st.sampled_from((";", "\n", "# note\n")))
    return text


@st.composite
def _mutated_systems(draw):
    """A written system with one character inserted, deleted or replaced."""
    text = draw(_written_systems())
    # anywhere, or just before a variable, a sign or '='
    at = draw(st.integers(0, len(text)) | st.sampled_from(
        [i for i, ch in enumerate(text) if ch in "x+-−="]))
    char = draw(st.sampled_from("*=+-−;#kxy.") | st.sampled_from("0123456789٣")
                | st.sampled_from(_BLANK_CHARS + "".join(_LINE_BREAK_CHARS[3:])))
    op = draw(st.sampled_from(("insert", "delete", "replace")))
    if op == "insert" or at == len(text):
        return text[:at] + char + text[at:]
    return text[:at] + ("" if op == "delete" else char) + text[at + 1:]


def _outcome(parse, text):
    """The System that parse returns, or the type, message, line and
    column of what it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


def _assert_parsers_agree(text):
    """parse_system agrees with the parser it was before its token scan,
    reference_parse_system: an equal System, or an equal error, message,
    line and column, which is a ParseError."""
    expected = _outcome(reference_parse_system, text)
    assert _outcome(parse_system, text) == expected, repr(text)
    if not isinstance(expected, System):
        assert expected[0] is ParseError, repr(text)


class TestScan:
    """The token scan against the statement parser it replaced."""

    @given(_written_systems())
    @settings(max_examples=300, deadline=None)
    def test_written_systems(self, text):
        _assert_parsers_agree(text)

    @given(_mutated_systems())
    @settings(max_examples=500, deadline=None)
    def test_mutated_systems(self, text):
        _assert_parsers_agree(text)

    @pytest.mark.parametrize("text", [
        "1=*x2", "x1=1;2=*x1", "x1=1\x0cx1-x2=0", "x1=1\x0c-x2=0", "x1=1\x1fx1 -\x1fx2=0",
        "k = 3\nx١=1\n3 * x1 − x٢ = 0", "x1=1\r\nx1+x2=x3 # c; x4=1\r\n",
        "x1=1;k=3", "k=3 x1=1", "k=1;x1=1", "k=3=x1", "x1=1 1", "x1 x2=0", "x1=+-1",
        "x1=-1-1+1", "x1=0;x1=1", "x0=1", "0x1+x2=0", "x4097=1", "x1+x2=1", "=x1", "x1==0",
        "", "\n;# only a comment\n", "x1=1 k=2", "x1=1\n+", "3x1-x2=0;x1=1", "k=2;k=3;x1=1",
        "k\xa0=0\xa03\n;+x1=0\n;", "k=3 0x1", "k=3 +", "x1=1;+ k=2",
        "x1=1\nx2 = \n", "x1 = - ;x1=1", "x1=1\r\n\r\n  k=3 x2", "x1=1\r\u2028x1 x2=0",
    ])
    def test_edge_cases(self, text):
        _assert_parsers_agree(text)

    def test_ascii_forms(self):
        """The scan's translation table maps every non-ASCII str.isspace()
        character: to '\\n' where str.splitlines() breaks lines, else to ' '."""
        spaces = [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isspace()]
        table = relmag.systems._TO_ASCII
        assert sorted(table) == sorted(map(ord, spaces + ["−"]))
        for c in spaces:
            breaks = len(("a" + c + "b").splitlines()) == 2
            assert chr(table[ord(c)]) == ("\n" if breaks else " "), hex(ord(c))

    def test_valid_text_never_builds_an_error(self, monkeypatch):
        """A well-formed text never enters the error path, so the scan keeps
        no positions of its own: with _scan_error failing, parse_system
        still reads the longest extremal chain, a multi-chain system and
        every written system that the reference accepts."""
        def fail(*args):
            raise AssertionError("_scan_error called on a valid text")

        monkeypatch.setattr(relmag.systems, "_scan_error", fail)
        for text in (extremal_dsl(2, MAX_VARIABLES), MULTI_CHAIN):
            assert parse_system(text) == reference_parse_system(text)

        @given(_written_systems())
        @settings(max_examples=300, deadline=None)
        def written(text):
            expected = _outcome(reference_parse_system, text)
            if isinstance(expected, System):
                assert parse_system(text) == expected, repr(text)

        written()


# 0 where int() converts literals of any length (Python before 3.10.7)
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_LIMIT == 0, reason="int() converts literals of any length")
class TestLiteralLength:
    """Literals of more digits than int() converts are parse errors."""

    @staticmethod
    def _texts(n):
        """(text, line and column of its long literal) for literals of n
        digits in each place one may stand."""
        nines, one = "9" * n, "0" * (n - 1) + "1"
        return [
            ("x1=1\nx1 - %sx2 = 0" % nines, (2, 5)),
            ("x1=1\nx1 - %s2x2 = 0" % one[:-1], (2, 5)),
            ("x1=1\nx1 - x%s = 0" % nines, (2, 6)),
            ("x1=1\nx1 - x %s = 0" % one, (2, 7)),
            ("x1 = %s" % nines, (1, 5)),
            ("x1 = %s" % one, (1, 5)),
            ("k=%s\nx1=1\nx1 - x2 = 0" % nines, (1, 2)),
            ("k = %s; x1 = 1; %sx1 + %sx2 - x3 = 0" % (nines, nines, nines), (1, 4)),
        ]

    def test_at_the_limit(self):
        outcomes = [_outcome(parse_system, text) for text, _ in self._texts(_LIMIT)]
        for outcome in outcomes:
            assert isinstance(outcome, System) or outcome[0] is ParseError
        # a long literal that is small: the coefficient 2, the index 1, the constant 1
        assert outcomes[1].equations[1] == SumEquation(terms=((1, 1), (-2, 2)))
        assert outcomes[3].nvars == 1
        assert outcomes[5].equations == (UnitEquation(var=1, sign=1),)
        assert outcomes[6].k == 10 ** _LIMIT - 1
        # the weight 2 (10^L - 1) + 1 and the limit k + 1 = 10^L are too
        # long to write
        assert outcomes[7][1].endswith(
            "has 10^%d or more unit terms, limit is k+1 = 10^%d or more" % (_LIMIT, _LIMIT))

    def test_over_the_limit(self):
        for text, position in self._texts(_LIMIT + 1):
            with pytest.raises(ParseError) as exc:
                parse_system(text)
            message = "literal of %d digits is too long, limit is %d" % (_LIMIT + 1, _LIMIT)
            assert str(exc.value).endswith(message), text[:40]
            assert (exc.value.line, exc.value.col) == position, text[:40]

    def test_statement_errors_come_first(self):
        """An error the reference finds before it converts the long literal
        is the one reported, as the reference reports it."""
        nines = "9" * (_LIMIT + 1)
        for text, error in [
            ("x1=1\nx1 - %sx2 = 0 = 0" % nines, (2, 0, "equation needs exactly one '='")),
            ("x1=1\nx1 %sx2 = 0" % nines, (2, 3, "expected '+' or '-'")),
        ]:
            outcome = _outcome(parse_system, text)
            assert outcome == _outcome(reference_parse_system, text)
            assert outcome[0] is ParseError and outcome[2:] == error[:2]
            assert outcome[1].endswith(error[2])


class TestSystemValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            System(k=1, nvars=1, equations=(UnitEquation(var=1, sign=1),))

    @pytest.mark.parametrize("generate", [extremal_system, extremal_matrix])
    def test_generators_reject_k_below_2(self, generate):
        with pytest.raises(ValueError) as exc:
            generate(1, 3)
        assert type(exc.value) is ValueError and str(exc.value) == "k must be >= 2, got 1"

    def test_rejects_out_of_range_var(self):
        with pytest.raises(ValueError):
            System(k=2, nvars=1, equations=(UnitEquation(var=2, sign=1),))

    def test_variable_limit(self):
        # parsed, not solved: the limit bounds the size of the dense reduction
        assert parse_system("x%d=1" % MAX_VARIABLES).nvars == MAX_VARIABLES
        with pytest.raises(ParseError, match="exceeds the limit") as exc:
            parse_system("x1=1\nx1 - x%d = 0" % (MAX_VARIABLES + 1))
        assert (exc.value.line, exc.value.col) == (2, 5)
        with pytest.raises(ValueError, match="limit is %d" % MAX_VARIABLES):
            System(k=2, nvars=MAX_VARIABLES + 1, equations=(UnitEquation(var=1, sign=1),))
        with pytest.raises(ValueError):
            extremal_matrix(2, MAX_VARIABLES + 1)
        with pytest.raises(ValueError):
            extremal_system(2, MAX_VARIABLES + 1)

    def test_rejects_overweight(self):
        with pytest.raises(ValueError):
            System(
                k=2,
                nvars=2,
                equations=(SumEquation(terms=((3, 1), (1, 2))),),
            )


class TestReduction:
    def test_two_unit_equations(self):
        s = parse_system("k=2; x1=1; x2=1")
        reduced, trace = reduce_system(s)
        assert reduced.nvars == 1
        assert reconstruct(trace) == (Fraction(1), Fraction(1))

    def test_free_variable_zeroed(self):
        s = parse_system("k=2\nx1=1\nx1+x1-x2=0\nx3-x3=0")
        reduced, trace = reduce_system(s)
        x = reconstruct(trace)
        assert x == (1, 2, 0)
        assert check_solution(s, x)

    def test_negative_unit_sign_absorbed(self):
        s = parse_system("k=3; x1=-1; 3x1-x2=0")
        reduced, trace = reduce_system(s)
        assert trace.unit_sign_flipped
        assert reduced.equations[0] == UnitEquation(var=1, sign=1)
        assert reconstruct(trace) == (-1, -3)

    def test_merge_preserves_max(self):
        s = parse_system("k=2; x1=1; 2x2-x1=0; 2x3-x1=0; 2x1-x4=0")
        reduced, trace = reduce_system(s)
        x = reconstruct(trace)
        assert check_solution(s, x)
        assert x == (1, Fraction(1, 2), Fraction(1, 2), 2)
        assert max(abs(v) for v in x) == max(abs(v) for v in reduced_solution(trace))

    def test_cancellation_record_follows_the_text(self):
        s = parse_system("k=10000001; x1=1; 5000000x2-5000000x2+x1-x3=0")
        _, trace = reduce_system(s)
        assert trace.cancelled == (SumEquation(((5000000, 2), (-5000000, 2), (1, 1), (-1, 3))),)

    def test_idempotent(self):
        s = parse_system("k=3; x2=1; 3x2-x1=0; x1+x2-x3=0")
        reduced, trace = reduce_system(s)
        again, trace2 = reduce_system(reduced)
        assert again == reduced
        assert reduced_solution(trace2) == reduced_solution(trace)

    def test_unsolvable(self):
        for text in [
            "k=2; x1=1; x1=-1",  # opposite duplicate of the kept unit (step 1)
            "k=2; x1=1; x2=1; x2=-1",  # contradiction found by the elimination
            "k=2; x1=1; x1+x1-x2=0; x2-x1=0",
        ]:
            with pytest.raises(UnsolvableSystemError):
                reduce_system(parse_system(text))

    def test_unsolvable_iff_sympy_ranks_differ(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        outcomes = set()
        for _ in range(400):
            s = random_system(rng)
            rows = []
            for eq in s.equations:
                row = [0] * (s.nvars + 1)
                if isinstance(eq, UnitEquation):
                    row[eq.var - 1] = 1
                    row[s.nvars] = eq.sign
                else:
                    for c, v in eq.terms:
                        row[v - 1] += c
                rows.append(row)
            aug = sympy.Matrix(rows)
            inconsistent = aug[:, : s.nvars].rank() != aug.rank()
            try:
                reduce_system(s)
                rejected = False
            except UnsolvableSystemError:
                rejected = True
            assert rejected == inconsistent
            outcomes.add(rejected)
        assert outcomes == {True, False}

    def test_postconditions_randomized(self):
        rng = random.Random(59)
        done = 0
        while done < 200:
            s = random_system(rng)
            try:
                reduced, trace = reduce_system(s)
            except UnsolvableSystemError:
                continue
            x = reconstruct(trace)
            assert check_solution(s, x)
            absvals = [abs(v) for v in reduced_solution(trace)]
            assert 0 not in absvals
            assert len(set(absvals)) == len(absvals)
            assert max(absvals, default=Fraction(1)) == max(
                [abs(v) for v in x] or [Fraction(1)]
            )
            done += 1


    @given(_systems())
    @settings(max_examples=200, deadline=None)
    def test_reconstruct_solves_original_property(self, s):
        try:
            _, trace = reduce_system(s)
        except (AllHomogeneousError, UnsolvableSystemError):
            return
        assert check_solution(s, reconstruct(trace))


@st.composite
def _reducible_systems(draw):
    """A valid System that takes every step of the reduction: extra and
    opposite unit equations, equations k x_a = +-x_b and x_a = +-x_b that
    make zero-valued and merged variables, sums with repeated and
    cancelling terms, repeats of earlier sums, which are dependent, and
    variables no equation reads, which are free.  The first unit equation,
    the kept one, is negative about half of the time; about one system in
    ten has none."""
    k = draw(st.integers(2, 4))
    nvars = draw(st.integers(1, 7))
    var = st.integers(1, nvars)
    sign = st.sampled_from([1, -1])
    equations = []
    if draw(st.integers(0, 9)):
        equations.append(UnitEquation(var=draw(var), sign=draw(sign)))
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["unit", "pair", "pair", "sum", "cancel", "repeat"]))
        if kind == "unit":
            equations.append(UnitEquation(var=draw(var), sign=draw(sign)))
        elif kind == "pair":
            c = draw(st.sampled_from([1, k])) * draw(sign)
            equations.append(SumEquation(terms=((c, draw(var)), (draw(sign), draw(var)))))
        elif kind == "repeat":
            sums = [eq for eq in equations if isinstance(eq, SumEquation)]
            if sums:
                equations.append(draw(st.sampled_from(sums)))
        else:
            budget, terms = k + 1, []
            if kind == "cancel":
                c, v = draw(st.integers(1, (k + 1) // 2)), draw(var)
                terms += [(c, v), (-c, v)]
                budget -= 2 * c
            while budget and (not terms or draw(st.booleans())):
                c = draw(st.integers(1, budget))
                terms.append((draw(st.sampled_from([c, -c])), draw(var)))
                budget -= c
            equations.append(SumEquation(terms=tuple(draw(st.permutations(terms)))))
    if not equations:
        equations.append(UnitEquation(var=draw(var), sign=draw(sign)))
    return System(k=k, nvars=nvars, equations=tuple(draw(st.permutations(equations))))


def _result(fn, *args):
    """What fn returns, or the type and message of the SystemError_ or
    ReductionError it raises."""
    try:
        return fn(*args)
    except (SystemError_, ReductionError) as exc:
        return type(exc), str(exc)


# The fields of ReductionTrace that hold what the steps of a reduction did:
# step 2 both fixes free variables and drops dependent equations.
_STEP_FIELDS = ("converted_units", "cancelled", "zeroed_free", "zeroed_solved",
                "merges", "dropped_dependent", "unit_sign_flipped")
# A system whose reduction takes every step: the negative kept unit x2 = -1,
# an extra unit equation, cancelling terms, the free x3 and x6, the
# zero-valued x5 and x7, the merge of x4 into x2 and a dependent equation.
# The CI's reduction smoke step solves it too.
_EVERY_STEP = "k=3\nx2=-1\nx4=-1\n3x2-x1=0\nx1-3x2=0\nx1-x1+x3-x3=0\nx5+x6=0\nx2-x4=0\nx7+x2-x4=0\n"


class TestReductionOracle:
    """reduce_system, the System checks and the solution checks against
    their references in conftest, as they were before each of them read
    every equation in one plain loop."""

    def test_reduction_matches_reference(self):
        filled, outcomes = set(), set()

        @given(_reducible_systems())
        @example(parse_system(_EVERY_STEP))
        @example(parse_system("x1=1; x1=-1"))
        @example(parse_system("x1+x2=0"))
        @settings(max_examples=400, deadline=None)
        def same(s):
            expected = _result(reference_reduce_system, s)
            got = _result(reduce_system, s)
            assert got == expected, s.to_text()
            if isinstance(expected[0], type):
                outcomes.add(expected[0])
            else:
                outcomes.add(System)
                # the solution kept on the original variables is the replay
                # of the reduction backwards
                trace = got[1]
                assert reconstruct(trace) == as_fractions(trace.y, trace.den), s.to_text()
                filled.update(f for f in _STEP_FIELDS if getattr(expected[1], f))

        same()
        assert filled == set(_STEP_FIELDS)
        assert outcomes == {System, UnsolvableSystemError, AllHomogeneousError}

    def test_every_step_trace(self):
        """The trace of _EVERY_STEP holds each step's facts as data."""
        _, trace = reduce_system(parse_system(_EVERY_STEP))
        assert trace == ReductionTrace(
            kept_unit=(2, -1), converted_units=((4, -1),),
            cancelled=(SumEquation(((1, 1), (-1, 1), (1, 3), (-1, 3))),),
            zeroed_free=(3, 6), zeroed_solved=(5, 7), merges=((4, 1, 2),),
            dropped_dependent=1, unit_sign_flipped=True, rename={2: 1, 1: 2},
            y=(-3, -1, 0, -1, 0, 0, 0), reduced_y=(1, -3), den=1)

    @pytest.mark.parametrize("text", [
        "x1=1; x2-x2=0", "x2-x2+x1=0", "x1=1; x2=1; x2=-1", "x1=1; x1=1; x1=-1",
        "k=3; x1=1; x2+x2-x2-x2=0", "k=3; x1=1; x2-x2+x2-x1=0",
    ])
    def test_written_reductions(self, text):
        s = parse_system(text)
        assert _result(reduce_system, s) == _result(reference_reduce_system, s)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_validation_matches_reference(self, data):
        """System raises what the checks of System.__init__ raised, on
        fields that break them one at a time or several at once."""
        k = data.draw(st.sampled_from([1, 2, 2, 3, 3]))
        nvars = data.draw(st.sampled_from([0, MAX_VARIABLES + 1, 4, 4, 4, 4, 4]))
        var = st.integers(0, 5)
        coeff = st.sampled_from([0, 1, -1, 1, -1, 2, -2])
        equations = tuple(data.draw(st.lists(
            st.builds(UnitEquation, var=var, sign=st.sampled_from([0, 2, 1, -1, 1, -1]))
            | st.builds(SumEquation, terms=st.lists(st.tuples(coeff, var), max_size=4).map(tuple)),
            max_size=4)))
        expected = _result(reference_validate, k, nvars, equations)
        got = _result(System, k, nvars, equations)
        if expected is None:
            assert got == System(k=k, nvars=nvars, equations=equations)
        else:
            assert got == expected and expected[0] is SystemError_

    @given(_reducible_systems(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solution_check_matches_reference(self, s, data):
        """check_solution agrees with its reference on integer candidates
        over a denominator, and both accept the reconstructed solution."""
        x = data.draw(st.lists(st.integers(-2, 2), min_size=s.nvars, max_size=s.nvars))
        den = data.draw(st.integers(1, 2))
        assert check_solution(s, x, den) == reference_check_solution(s, x, den)
        try:
            _, trace = reduce_system(s)
        except (AllHomogeneousError, UnsolvableSystemError):
            return
        full = reconstruct(trace)
        assert check_solution(s, full) is reference_check_solution(s, full) is True

    def test_reduced_checks_match_reference(self):
        """_check_reduced raises what its reference raises, each of its
        errors included, on reduced systems and solutions that break its
        postconditions one at a time or several at once."""
        messages = set()

        @given(_checked_reductions())
        @settings(max_examples=400, deadline=None)
        def same(pair):
            reduced, trace = pair
            y, t = trace.reduced_y, trace.den
            assert check_solution(reduced, y, t) == reference_check_solution(reduced, y, t)
            expected = _result(reference_check_reduced, reduced, trace)
            assert _result(relmag.systems._check_reduced, reduced, trace) == expected
            messages.add(expected and expected[1])

        same()
        assert messages == {None, "reduced solution does not satisfy the reduced system",
                            "reduced solution has a zero coordinate",
                            "reduced solution has coincident absolute values",
                            "reduced system does not start with x1 = 1",
                            "reduced homogeneous equation with fewer than 2 variables",
                            "duplicate variable in reduced equation"}


@st.composite
def _checked_reductions(draw):
    """A reduced system and a trace whose solution y / den is drawn with
    zero and coincident coordinates.  The first equation is most often
    x1 = 1, and y_1 = den so that it holds; the others are mostly sums
    that y solves, written as y_b x_a - y_a x_b with a repeated variable
    at times, or single terms and unit equations, which break the shape
    of a reduced system."""
    n = draw(st.integers(1, 4))
    den = draw(st.integers(1, 2))
    y = draw(st.lists(st.sampled_from([-3, -2, -1, 0, 1, 2, 3]), min_size=n, max_size=n))
    var = st.integers(1, n)
    sign = st.sampled_from([1, -1])
    first = UnitEquation(var=1, sign=1)
    if not draw(st.integers(0, 3)):
        first = UnitEquation(var=draw(var), sign=draw(sign))
    if draw(st.integers(0, 7)):
        y[first.var - 1] = first.sign * den
    equations = [first]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(var), draw(var)
        kind = draw(st.sampled_from(["sum", "sum", "repeat", "single", "unit"]))
        if kind == "unit":  # one that holds when |y_a| = den, as y_1 often is
            a = draw(st.sampled_from([1, a]))
            equations.append(UnitEquation(var=a, sign=1 if y[a - 1] >= 0 else -1))
            continue
        terms = [(y[b - 1], a), (-y[a - 1], b)]
        if kind == "repeat":
            terms += [(1, a), (-1, a)]
        terms = [(c, v) for c, v in terms if c]
        if kind == "single" or not terms:
            terms = [(draw(st.sampled_from([1, -1])), a)]
        equations.append(SumEquation(terms=tuple(terms)))
    trace = ReductionTrace(
        kept_unit=(1, 1), converted_units=(), zeroed_free=(),
        zeroed_solved=(), merges=(), dropped_dependent=0, unit_sign_flipped=False,
        rename={v: v for v in range(1, n + 1)}, y=tuple(y), reduced_y=tuple(y), den=den,
        cancelled=())
    return System(k=7, nvars=n, equations=tuple(equations)), trace


def _reduce(system, select=None):
    """reduce_system(system), with the equation selection replaced by
    select when one is given: its result, or its error's type and message."""
    real = relmag.systems._select_equations
    if select is not None:
        relmag.systems._select_equations = select
    try:
        return _result(reduce_system, system)
    finally:
        relmag.systems._select_equations = real


class TestSquareShortcut:
    """A square reduced system takes all its equations with no elimination;
    the elimination route selects the same ones."""

    @staticmethod
    def _by_elimination(seen):
        def select(uvar, eqs, active):
            seen.append(len(eqs) == len(active) - 1)
            return relmag.systems._independent_equations(uvar, eqs, active)

        return select

    def test_matches_elimination_route(self):
        rng = random.Random(67)
        seen = []
        for _ in range(400):
            s = random_system(rng)
            assert _reduce(s) == _reduce(s, self._by_elimination(seen)), s.to_text()
        # both the square case and the one with dependent equations occur
        assert seen.count(True) >= 100 and seen.count(False) >= 20, seen

    @given(_systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_elimination_route_property(self, s):
        assert _reduce(s) == _reduce(s, self._by_elimination([]))

    @pytest.mark.parametrize("n", [3, 12])
    def test_singular_square_assembled_raises(self, n):
        """A singular square matrix is caught by the solve at every size:
        row n - 1 repeats row n - 2, so det A, the signed maximal minor at
        the unit column, is 0.  The solution it is given, y_i = 2^(i-1)
        over t = 1, satisfies every row."""
        rows = [((0, 1),)] + [((i, 2), (i + 1, -1)) for i in range(n - 2)]
        rows.append(rows[-1])
        asm = Assembled(rows=tuple(rows), k=2, n=n, column_of={v: v - 1 for v in range(1, n + 1)},
                        chain_cols=(), chain_rows=(), type3_rows=tuple(range(1, n)))
        with pytest.raises(ReductionError, match="assembled matrix is singular"):
            solve_assembled(asm, tuple(2 ** i for i in range(n)), 1)


def _sum(*terms):
    return SumEquation(terms=terms)


class TestChains:
    def test_decompose_sharp_system(self):
        s = extremal_system(3, 4)
        reduced, _ = reduce_system(s)
        asm = assemble(reduced)
        assert len(asm.chain_cols) == 1
        assert len(asm.chain_cols[0]) == 4
        assert asm.type3_rows == ()

    def test_two_chains_and_type3(self):
        s = parse_system("k=3; x1=1; 3x2=x1; 3x4=x3; x3-x1-x1=0")
        reduced, _ = reduce_system(s)
        asm = assemble(reduced)
        assert len(asm.chain_cols) == 2
        assert len(asm.type3_rows) == 1

    def test_assembled_band_structure(self):
        s = extremal_system(2, 5)
        reduced, _ = reduce_system(s)
        a = dense_rows(assemble(reduced))
        assert len(a) == len(a[0]) == 5
        # first row is the unit row
        assert sum(abs(v) for v in a[0]) == 1
        # each chain row has +k on the diagonal band and a unit off it
        for i in range(1, 5):
            vals = sorted(abs(v) for v in a[i] if v != 0)
            assert vals == [1, 2]

    @pytest.mark.parametrize(
        "nvars, equations, error, message",
        [
            (3, [_sum((2, 2), (-1, 1)), _sum((2, 3), (-1, 1))],
             ReductionError, "x1 heads two links"),
            (3, [_sum((2, 3), (-1, 1)), _sum((2, 3), (-1, 2))],
             ReductionError, "x3 tails two links"),
            (2, [_sum((2, 2), (-1, 1)), _sum((2, 1), (-1, 2))],
             ReductionError, "cyclic two-variable equations"),
            (4, [_sum((2, 2), (-1, 1)), _sum((2, 4), (-1, 3))],
             ReductionError, "fewer than r-1 residual equations for 2 chains"),
            (3, [_sum((2, 2), (-1, 1))],
             ReductionError, r"not square \(2 rows, 3 cols\)"),
        ],
        ids=["heads_two", "tails_two", "pure_cycle", "no_residual", "too_few_rows"],
    )
    def test_assembly_checks(self, nvars, equations, error, message):
        system = System(k=2, nvars=nvars, equations=(UnitEquation(var=1, sign=1), *equations))
        with pytest.raises(error, match=message):
            assemble(system)


class TestSolveAndCertify:
    def test_sharp_instance(self):
        rep = solve_and_certify(parse_system(extremal_dsl(2, 4)))
        assert (rep.max_y, rep.t) == (8, 1)
        assert rep.bound == 8
        assert rep.sharp and rep.max_y <= rep.bound * rep.t
        assert rep.certification.all_ok

    def test_solution_values(self):
        rep = solve_and_certify(parse_system("k=3; x1=1; 3x1-x2=0; x2+x1-x3=0"))
        assert (rep.y, rep.t) == ((1, 3, 4), 1)
        assert rep.max_y == 4
        assert rep.bound == 9
        assert not rep.sharp

    def test_trivial_all_homogeneous(self):
        rep = solve_and_certify(parse_system("k=2; x1+x2=0"))
        assert rep.trivial
        assert (rep.y, rep.t) == ((0, 0), 1)
        assert rep.max_y == 0 and not rep.sharp

    def test_report_serialization(self):
        rep = solve_and_certify(parse_system(extremal_dsl(2, 3)))
        d = rep.to_dict()
        assert d["bound"] == 4 and d["max_abs"] == "4"
        assert d["certification"]["all_ok"] is True
        assert "max=4 bound=k^(n-1)=4 OK" in rep.to_text()

    def test_jobs_other_than_one_rejected(self):
        """solve_and_certify runs one route: certified, on one thread."""
        system = parse_system(extremal_dsl(3, 5))
        for keywords in ({"jobs": 2}, {"certify": False}, {"certify": False, "jobs": 2}):
            with pytest.raises(ValueError, match="certify must be True and jobs 1"):
                solve_and_certify(system, **keywords)

    def test_solve_assembled_determinants(self):
        """det A and the Cramer numerators det A_i equal independent Bareiss runs."""
        rng = random.Random(83)
        done = 0
        while done < 200:
            try:
                reduced, trace = reduce_system(random_system(rng))
            except UnsolvableSystemError:
                continue
            asm = assemble(reduced)
            _, det_a, det_ai = solve_assembled(asm, trace.reduced_y, trace.den)
            a = IntegerMatrix(dense_rows(asm))
            e1 = [1] + [0] * (a.rows - 1)
            assert det_a == determinant(a)
            assert det_ai == tuple(determinant(replace_column(a, i, e1)) for i in range(a.cols))
            done += 1

    def test_solution_with_common_denominator(self):
        """x = (1, 1/2, 1/4) is y / t with t = 4; columns run tail first."""
        rep = solve_and_certify(parse_system("k=2; x1=1; 2x2-x1=0; 2x3-x2=0"))
        assert (rep.y, rep.t) == ((4, 2, 1), 4)
        assert solution(rep) == (1, Fraction(1, 2), Fraction(1, 4))
        assert (rep.trace.reduced_y, rep.trace.den) == ((4, 2, 1), 4)
        assert rep.max_y == 4 and not rep.sharp
        assert (rep.det_a, rep.det_ai) == (4, (1, 2, 4))
        cert = rep.certification
        assert cert.all_ok and (cert.t, cert.max_y) == (4, 4)
        assert [e.y_i for e in cert.entries] == [1, 2, 4]
        d = rep.to_dict()
        assert d["max_abs"] == "1" and d["solution"] == {"x1": "1", "x2": "1/2", "x3": "1/4"}
        assert [c["x"] for c in d["certification"]["columns"]] == ["1/4", "1/2", "1"]
        assert [e.det_u for e in cert.entries] == [1, -2, 4]
        assert [e.det_w for e in cert.entries] == [1, 4, 16]

    def test_integer_solve_matches_fraction_oracle(self):
        """solve_assembled's y / t equals a Fraction Gauss-Jordan solve of the
        assembled rows, and t is the least common denominator."""
        rng = random.Random(89)
        done = with_denominator = 0
        while done < 500:
            try:
                reduced, trace = reduce_system(random_system(rng))
            except UnsolvableSystemError:
                continue
            asm = assemble(reduced)
            y, _, _ = solve_assembled(asm, trace.reduced_y, trace.den)
            t = trace.den
            expected = gauss_jordan_solve(dense_rows(asm), [1] + [0] * (asm.n - 1))
            assert as_fractions(y, t) == expected
            assert t == lcm(*(v.denominator for v in expected))
            with_denominator += t > 1
            done += 1
        assert with_denominator >= 100

    def test_solve_path_builds_no_fraction_per_step(self, monkeypatch):
        """The solve returns plain ints, and neither solve_and_certify nor
        the report's to_dict and to_text builds a Fraction, on the chain of
        64 variables (t = 1) and on the halving chain of 12 (t = 2^11)."""
        n = 64
        system = extremal_system(2, n)
        reduced, trace = reduce_system(system)
        y, det_a, det_ai = solve_assembled(assemble(reduced), trace.reduced_y, trace.den)
        assert all(type(v) is int for v in (*y, det_a, *det_ai))
        for module in (relmag.systems, relmag.detbounds, relmag.matrices):
            assert not hasattr(module, "Fraction"), module.__name__
        cases = ((system, 1, True), (parse_system(halving_dsl(12)), 2 ** 11, False))
        built = count_fractions(monkeypatch)
        for system, t, sharp in cases:
            rep = solve_and_certify(system)
            assert rep.certification.all_ok and (rep.t, rep.sharp) == (t, sharp)
            rep.to_dict()
            rep.to_text()
        assert built == []

    def test_failed_certification_raises(self, monkeypatch):
        real = relmag.systems.certify_solution_bound

        def failing(asm, y, t, det_ai):
            rep = real(asm, y, t, det_ai)
            return rep._replace(entries=(rep.entries[0]._replace(ok=False),) + rep.entries[1:])

        monkeypatch.setattr(relmag.systems, "certify_solution_bound", failing)
        with pytest.raises(BoundViolationError, match="determinant certification failed"):
            solve_and_certify(parse_system(extremal_dsl(2, 4)))

    def test_builds_no_integer_matrix(self, monkeypatch):
        """Solve and certify work on int rows only, on chains of 64 and 6
        variables and on small random systems."""
        constructed = []
        real_init = IntegerMatrix.__post_init__

        def counted_init(self):
            constructed.append(self)
            real_init(self)

        monkeypatch.setattr(IntegerMatrix, "__post_init__", counted_init)
        for system in (extremal_system(2, 64), extremal_system(3, 6)):
            rep = solve_and_certify(system)
            assert rep.sharp and rep.certification.all_ok
        rng = random.Random(101)
        checked = 0
        while checked < 50:
            try:
                rep = solve_and_certify(random_system(rng))
            except UnsolvableSystemError:
                continue
            checked += not rep.trivial
        assert constructed == []

    def test_eliminations_per_solve(self, monkeypatch):
        """One elimination in the reduction when the reduced system is
        square, two when an equation is dependent; then one in the solve,
        of the n - 1 rows below the unit row, at every n.  The solution is
        found once, by the one _ray of the reduction's solve; the
        numerators take one more."""
        calls = []
        back = []
        real_echelon = relmag.matrices._sparse_echelon
        real_ray = relmag.matrices._ray

        def counted(rows, n):
            calls.append(len(rows))
            return real_echelon(rows, n)

        def counted_ray(rows, pivots, n, f):
            back.append(n)
            return real_ray(rows, pivots, n, f)

        for module in (relmag.matrices, relmag.systems):
            monkeypatch.setattr(module, "_sparse_echelon", counted)
        monkeypatch.setattr(relmag.matrices, "_ray", counted_ray)
        for n in (5, 10, 12):
            system = extremal_system(2, n)
            calls.clear()
            back.clear()
            rep = solve_and_certify(system)
            assert rep.n == n and rep.certification.all_ok
            assert rep.trace.dropped_dependent == 0 and len(calls) == 2, (n, calls)
            assert calls[-1] == n - 1 and len(back) == 2 and back[-1] == n, (n, calls, back)
            # the first chain equation once more
            repeated = System(system.k, system.nvars, system.equations + system.equations[1:2])
            calls.clear()
            back.clear()
            rep = solve_and_certify(repeated)
            assert rep.n == n and rep.certification.all_ok
            assert rep.trace.dropped_dependent == 1 and len(calls) == 3, (n, calls)
            assert calls[-1] == n - 1 and len(back) == 2 and back[-1] == n, (n, calls, back)

    def test_matches_reference_solve(self):
        """The check of the reduction's solution returns what the former
        second solve of A x = e_1 returned: the same y, t, det A and
        Cramer numerators.  The two chains of 64 and 12 variables are
        above the size at which the former solve also took the signed
        maximal minors, and the second has t = 2^11."""
        rng = random.Random(107)
        systems = [extremal_system(2, 64), parse_system(MULTI_CHAIN), parse_system(halving_dsl(12))]
        done = with_denominator = 0
        while done < 200:
            system = random_system(rng)
            try:
                reduce_system(system)
            except UnsolvableSystemError:
                continue
            systems.append(system)
            done += 1
        for system in systems:
            reduced, trace = reduce_system(system)
            asm = assemble(reduced)
            y, det_a, det_ai = solve_assembled(asm, trace.reduced_y, trace.den)
            got = (y, trace.den, det_a, det_ai)
            assert got == reference_solve_assembled(asm), system.to_text()
            with_denominator += trace.den > 1
        assert with_denominator >= 50

    def test_reduction_builds_no_fraction(self, monkeypatch):
        """The reduction keeps its solution as integers over one
        denominator only."""
        built = count_fractions(monkeypatch)
        reduced, trace = reduce_system(extremal_system(2, 64))
        assert reduced.nvars == 64 and built == []

    def test_expand_once_per_solve(self):
        """The reported solution is the one the reduction's elimination
        found and kept, with no map back from the reduced solution; the
        replay of the reduction gives the same."""
        for text in (_EVERY_STEP, MULTI_CHAIN, halving_dsl(12)):
            rep = solve_and_certify(parse_system(text))
            assert rep.y == rep.trace.y
            assert solution(rep) == reconstruct(rep.trace)

    @pytest.mark.parametrize("index", range(12))
    def test_assembled_solution_disagreement_raises(self, monkeypatch, index):
        """A reduced solution that passed the reduction's checks but is
        wrong fails A y = t e_1, here on a chain of 12 variables whose
        solution has t = 2^11."""
        corrupt_reduced_solution(monkeypatch, index)
        with pytest.raises(ReductionError, match="assembled solution disagrees with the reduction"):
            solve_and_certify(parse_system(halving_dsl(12)))

    def test_valid_systems_never_sum_a_weight(self, monkeypatch):
        """System validation sums each equation's weight in the loop that
        reads its terms, and the reduction sums none and writes no text:
        with SumEquation.weight and SumEquation.to_text failing, the
        longest extremal chain, the multi-chain system and a system with
        cancelling terms such as x1-x1 still build, solve and certify."""
        def fail(self):
            raise AssertionError("SumEquation.weight or to_text called on a valid system")

        monkeypatch.setattr(SumEquation, "weight", fail)
        monkeypatch.setattr(SumEquation, "to_text", fail)
        for system in (extremal_system(2, 512), parse_system(MULTI_CHAIN),
                       parse_system(_EVERY_STEP), parse_system("k=4; x1=1; x2-x2+2x1-x3=0")):
            rep = solve_and_certify(system)
            assert rep.max_y <= rep.bound * rep.t and rep.certification.all_ok
        assert (rep.y, rep.t) == ((1, 0, 2), 1)
        assert rep.trace.cancelled == (SumEquation(((1, 2), (-1, 2), (2, 1), (-1, 3))),)

    @pytest.mark.parametrize("kind", ["numerator", "det_a"])
    def test_cramer_disagreement_raises(self, monkeypatch, kind):
        """A wrong numerator, or a wrong det A, from the one elimination
        fails Cramer's identity at every size: at n = 6 and on the n = 12
        halving chain."""
        corrupt_cramer_check(monkeypatch, kind)
        for system in (extremal_system(2, 6), parse_system(halving_dsl(12))):
            with pytest.raises(ReductionError, match="Cramer and elimination solutions disagree"):
                solve_and_certify(system)


class TestReductionChecks:
    """The reduction's internal checks, reached by a wrong solve."""

    def test_single_variable_equation(self, monkeypatch):
        # x2 = 0 removes x2 from x1 + x2 = 0 and leaves x1 = 0
        corrupt_reduction_solve(monkeypatch, {2: 0})
        with pytest.raises(ReductionError) as exc:
            reduce_system(parse_system("k=2; x1=1; x1+x2=0"))
        assert str(exc.value) == "single-variable homogeneous equation survived steps 2-4"

    def test_too_few_independent_equations(self, monkeypatch):
        # x3, in truth free, as a pivot: three active variables, and three
        # copies of x2 - x3 = 0 with one independent among them
        corrupt_reduction_solve(monkeypatch, {2: 2, 3: 3})
        with pytest.raises(ReductionError) as exc:
            reduce_system(parse_system("k=2; x1=1; x2-x3=0; x2-x3=0; x2-x3=0"))
        assert str(exc.value) == "could not select 2 independent equations"
