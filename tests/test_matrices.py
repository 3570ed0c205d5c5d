"""Exact integer/rational linear algebra primitives."""

import contextlib
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from conftest import (
    SingularMatrixError,
    apply,
    as_fractions,
    corrupt_first_pivot_row,
    cramer_solve,
    dense_echelon,
    dense_signed_maximal_minors,
    dense_solve_augmented,
    determinant_cofactor,
    dict_rows,
    format_rational,
    primitive_vector,
    replace_column,
    solve_square,
    transpose,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relmag.matrices
from relmag.generators import extremal_system
from relmag.matrices import (
    IntegerMatrix,
    MatrixError,
    NonSquareError,
    _primitive,
    _signed_maximal_minors,
    _solve_augmented,
    _sparse_echelon,
    determinant,
    format_matrix,
    format_ratio,
    infinity_norm,
    nullspace_basis,
    parse_matrix,
    rank,
)
from relmag.systems import assemble

small_entries = st.integers(min_value=-9, max_value=9)

_small = st.integers(-10**6, 10**6)
_positive = st.integers(1, 10**6)
_huge = st.integers(10**4300, 10**4310)  # more digits than int() and str() convert by default
# (y, t) pairs for format_ratio: any sign and y = 0; t dividing y; a common
# factor that leaves t / gcd > 1; and numerators and denominators of more
# than 4,300 digits
ratios = st.one_of(
    st.tuples(_small, _positive),
    st.builds(lambda m, t: (m * t, t), _small, _positive),
    st.builds(lambda g, a, b: (g * a, g * b), st.integers(2, 10**6), _small, st.integers(2, 10**6)),
    st.builds(lambda y, sign, t: (sign * y, t), _huge, st.sampled_from((1, -1)), _positive),
    st.builds(lambda g, a, b: (g * a, g * b), _huge, _small, _positive),
    st.tuples(_small, _huge),
)


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int-to-str digit limit, as cli._echo_report does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def square(rows):
    return IntegerMatrix.from_rows(rows)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(square([[5, 2], [2, 4]])) == 16
        assert determinant(square([[1]])) == 1
        assert determinant(square([[1, 2], [3, 4]])) == -2
        assert determinant(square([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])) == 4
        assert determinant(square([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0

    def test_identity_and_swap(self):
        ident = square([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert determinant(ident) == 1
        swapped = square([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert determinant(swapped) == -1

    def test_cofactor_matches_bareiss_randomized(self):
        rng = random.Random(20260823)
        for _ in range(400):
            n = rng.randint(1, 6)
            m = square([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert determinant(m) == determinant_cofactor(m)

    def test_transpose_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = square([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            assert determinant(m) == determinant(transpose(m))

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquareError):
            determinant(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_big_integer_exactness(self):
        # diag(10^20, 10^20) would overflow any fixed-width arithmetic
        big = 10**20
        m = square([[big, 1], [0, big]])
        assert determinant(m) == big * big


class TestRank:
    def test_known_values(self):
        assert rank(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert rank(IntegerMatrix.from_rows([[1, 1, 1]])) == 1
        assert rank(IntegerMatrix.from_rows([[1, 0], [0, 1]])) == 2
        assert rank(IntegerMatrix.from_rows([[0, 0], [0, 0]])) == 0

    def test_rank_transpose_and_scaling(self):
        rng = random.Random(11)
        for _ in range(200):
            m_, n_ = rng.randint(1, 4), rng.randint(1, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n_)] for _ in range(m_)]
            )
            r = rank(a)
            assert r == rank(transpose(a))
            doubled = IntegerMatrix.from_rows([[2 * v for v in row] for row in a.entries])
            assert rank(doubled) == r
            assert r <= min(m_, n_)

    def test_rank_plus_nullity(self):
        rng = random.Random(13)
        for _ in range(200):
            m_, n_ = rng.randint(1, 4), rng.randint(1, 6)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n_)] for _ in range(m_)]
            )
            assert rank(a) + len(nullspace_basis(a)) == n_


class TestNullspace:
    def test_basis_vectors_are_null_and_primitive(self):
        rng = random.Random(17)
        for _ in range(200):
            m_, n_ = rng.randint(1, 3), rng.randint(2, 6)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n_)] for _ in range(m_)]
            )
            for v in nullspace_basis(a):
                assert all(val == 0 for val in apply(a, v))
                assert primitive_vector(v) == v

    def test_full_rank_trivial(self):
        assert nullspace_basis(IntegerMatrix.from_rows([[1, 0], [0, 1]])) == []


class TestPrimitiveVector:
    def test_examples(self):
        assert primitive_vector([Fraction(1, 2), 3, -6]) == (1, 6, -12)
        assert primitive_vector([-2, 4, -6]) == (1, -2, 3)
        assert primitive_vector([0, -3, 0, 6]) == (0, 1, 0, -2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_vector([0, 0])
        with pytest.raises(RuntimeError):
            _primitive([0, 0])

    def test_integer_route_matches(self):
        """_primitive, used on the integer vectors of the null space, agrees
        with primitive_vector's route through lcm."""
        rng = random.Random(61)
        seen = {"zero": 0, "negative_first": 0, "common_factor": 0}
        for _ in range(600):
            factor = rng.choice((1, 2, 3, 6, 12))
            x = [factor * rng.choice((0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 7))]
            if not any(x):
                continue
            assert _primitive(x) == primitive_vector(x) == primitive_vector([Fraction(v) for v in x])
            seen["zero"] += 0 in x
            seen["negative_first"] += next(v for v in x if v) < 0
            seen["common_factor"] += gcd(*x) > 1
        assert all(count >= 100 for count in seen.values()), seen

    @given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, xs):
        if all(v == 0 for v in xs):
            return
        p = primitive_vector(xs)
        # integer, content 1, canonical sign, parallel to the input
        import math

        assert all(isinstance(v, int) for v in p)
        assert math.gcd(*(abs(v) for v in p)) == 1
        first = next(v for v in p if v != 0)
        assert first > 0
        # cross-ratios agree: xs[i] * p[j] == xs[j] * p[i]
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert Fraction(xs[i]) * p[j] == Fraction(xs[j]) * p[i]


def _kernel_draw(rng, kind):
    """A random matrix of at most 7x9 with the structure that kind names."""
    m, n = rng.randint(1, 7), rng.randint(1, 9)
    density = {"sparse": 0.2, "dense": 0.9}.get(kind, 0.5)
    rows = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]
    if kind == "banded":
        # entries on the diagonal and the one above it only, like a chain block
        rows = [[rng.randint(-4, 4) if 0 <= j - i <= 1 else 0 for j in range(n)]
                for i in range(m)]
    elif kind == "zero_columns":
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[j] = 0
    elif kind == "deficient" and m > 1:
        r = rng.randint(1, m - 1)
        u = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        v = [[rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(r)]
        rows = [[sum(u[i][t] * v[t][c] for t in range(r)) for c in range(n)] for i in range(m)]
    return rows


class RecordingRow(dict):
    """A {column: value} row that counts the kernel's writes to it: new
    entries (fill-in), overwritten ones, deleted ones (the kernel deletes
    an entry that cancels) and popped ones (the pivot column taken out of
    an updated row)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.filled = self.overwritten = self.deleted = self.popped = 0

    def __setitem__(self, key, value):
        if key in self:
            self.overwritten += 1
        else:
            self.filled += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.deleted += 1
        super().__delitem__(key)

    def pop(self, key, *default):
        self.popped += 1
        return super().pop(key, *default)

    def writes(self) -> int:
        return self.filled + self.overwritten + self.deleted + self.popped


class TestSparseKernel:
    def test_hand_cases(self):
        # column 1 cancels in the second row, which then pivots in column 2
        rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}]
        assert _sparse_echelon(rows, 3) == ([0, 2], 1)
        assert rows == [{0: 1, 1: 1, 2: 1}, {2: 1}]
        # the pivot of column 0 is the second row, and the third row fills
        # in column 2; the first row is brought up to date, 2 * 3 / 1, only
        # when it becomes the pivot row of column 1
        rows = [{1: 2}, {0: 3, 2: 1}, {0: 1, 1: 1}]
        assert _sparse_echelon(rows, 3) == ([0, 1, 2], -1)
        assert rows == [{0: 3, 2: 1}, {1: 6}, {2: -2}]
        assert _sparse_echelon([], 0) == ([], 1)
        assert _sparse_echelon([{}, {}], 2) == ([], 1)

    def test_matches_dense_kernels(self):
        """On the five draw kinds as dict rows, the pivots, the sign and
        every pivot row (as its nonzeros) equal the dense reference's, and
        the rows below the rank are empty.
        Draws with an entry that cancels mid-elimination and draws with
        fill-in both occur."""
        rng = random.Random(101)
        kinds = ("sparse", "dense", "banded", "zero_columns", "deficient")
        seen = {"cancel": 0, "fill_in": 0, "deficient": 0, "swap": 0}
        for trial in range(2500):
            rows = _kernel_draw(rng, kinds[trial % len(kinds)])
            sparse = [RecordingRow(row) for row in dict_rows(rows)]
            filled_before = sum(len(row) for row in sparse)
            dense = [row[:] for row in rows]
            pivots, sign = _sparse_echelon(sparse, len(rows[0]))
            assert (pivots, sign) == dense_echelon(dense), rows
            r = len(pivots)
            assert sparse[:r] == dict_rows(dense[:r]), rows
            assert sparse[r:] == [{}] * (len(rows) - r), rows
            seen["cancel"] += sum(row.deleted for row in sparse) > 0
            seen["fill_in"] += sum(row.filled for row in sparse) > 0
            seen["deficient"] += r < min(len(rows), len(rows[0]))
            seen["swap"] += sign < 0
            assert filled_before == sum(len(row) for row in dict_rows(rows))
        assert all(count >= 300 for count in seen.values()), seen

    def test_one_elimination_per_call(self, monkeypatch):
        """rank, determinant, nullspace_basis and both solvers each run the
        one kernel, _sparse_echelon, exactly once per call."""
        calls = []
        real = relmag.matrices._sparse_echelon

        def counted(rows, n):
            calls.append(n)
            return real(rows, n)

        monkeypatch.setattr(relmag.matrices, "_sparse_echelon", counted)
        a = square([[1, 2, 3], [2, 4, 7], [0, 1, 5]])
        wide = square([[1, 2, 3, 4], [2, 4, 6, 9]])  # rank 2, nullity 2
        routes = {
            "rank": lambda: rank(wide),
            "determinant": lambda: determinant(a),
            "nullspace_basis": lambda: nullspace_basis(wide),
            "_solve_augmented": lambda: _solve_augmented(dict_rows([[1, 2, 5], [3, 4, 6]]), 2),
            "_signed_maximal_minors": lambda: _signed_maximal_minors(dict_rows(a.entries[1:]), 3),
        }
        counts = {}
        for name, route in routes.items():
            calls.clear()
            route()
            counts[name] = len(calls)
        assert counts == dict.fromkeys(routes, 1)

    def test_chain_solve_cost(self):
        """A chain row has two nonzeros and the kernel writes only
        nonzeros, so the solve of the extremal system makes O(n) dict
        writes; the dense kernel made up to 4n^2 row writes."""
        n = 1024
        asm = assemble(extremal_system(2, n))
        rows = [RecordingRow(pairs) for pairs in asm.rows]
        rows[0][n] = 1
        pivots, y, t = _solve_augmented(rows, n)
        assert len(pivots) == n and Fraction(y[n - 1], t) == 2 ** (n - 1)
        assert sum(row.writes() for row in rows) <= 8 * n


class TestSolvers:
    def test_unique_solution(self):
        a = square([[2, 1], [1, 3]])
        x = as_fractions(*solve_square(a, [5, 10]))
        assert x == (Fraction(1), Fraction(3))
        assert cramer_solve(a, [5, 10]) == x

    def test_agreement_randomized(self):
        rng = random.Random(23)
        done = 0
        while done < 150:
            n = rng.randint(1, 5)
            a = square([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if determinant(a) == 0:
                continue
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            x = as_fractions(*solve_square(a, b))
            assert cramer_solve(a, b) == x
            assert list(apply(a, x)) == [Fraction(v) for v in b]
            done += 1

    def test_solve_augmented_canonical_form(self):
        """x = y / t with t > 0, gcd(t, y) = 1 and the free variables zero."""
        rng = random.Random(29)
        solved = 0
        for _ in range(1000):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(m)]
            out = _solve_augmented(dict_rows(rows), n)
            expected = dense_solve_augmented([row[:] for row in rows])
            assert out == (expected and expected[:3]), rows
            if out is None:
                continue
            pivots, y, t = out
            assert t > 0 and gcd(t, *y) == 1
            assert all(y[c] == 0 for c in range(n) if c not in pivots)
            assert all(sum(a * v for a, v in zip(row, y)) == row[n] * t for row in rows)
            solved += 1
        assert solved > 300

    def test_singular_rejected(self):
        a = square([[1, 2], [2, 4]])
        assert solve_square(a, [1, 1]) is None  # b outside the column space
        assert solve_square(a, [1, 2]) is None  # fewer than n pivots
        with pytest.raises(SingularMatrixError):
            cramer_solve(a, [1, 1])


def unit_first_rows(rng, n):
    """A unit row e_u over n - 1 random rows: one draw in four of those
    rows is a product of inner size below n - 1, so rank-deficient."""
    u = rng.randrange(n)
    rest = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(n - 1)]
    if n > 2 and rng.random() < 0.25:
        inner = rng.randint(1, n - 2)
        b = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(n - 1)]
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(inner)]
        rest = [[sum(b[i][l] * c[l][j] for l in range(inner)) for j in range(n)]
                for i in range(n - 1)]
    return [[int(j == u) for j in range(n)]] + rest


class TestSignedMaximalMinors:
    def test_small_cases(self):
        assert _signed_maximal_minors([], 1) == [1]
        # A = [[0, 1], [3, 5]]: det A_0 = det [[1, 1], [0, 5]] = 5,
        # det A_1 = det [[0, 1], [3, 0]] = -3 = det A
        assert _signed_maximal_minors([{0: 3, 1: 5}], 2) == [5, -3]
        assert _signed_maximal_minors([{}], 2) == [0, 0]

    def test_matches_cramer_determinants(self):
        """Entry i is det A_i, A with column i replaced by e_1, taken by a
        Bareiss determinant of its own; zero when rows 2..n are
        rank-deficient."""
        rng = random.Random(31)
        seen = {"swap": 0, "odd_f": 0, "even_f": 0, "n_1": 0, "n_2": 0, "deficient": 0}
        for _ in range(1500):
            n = rng.randint(1, 7)
            rows = unit_first_rows(rng, n)
            a = square(rows)
            e1 = [1] + [0] * (n - 1)
            expected = [determinant(replace_column(a, i, e1)) for i in range(n)]
            assert _signed_maximal_minors(dict_rows(rows[1:]), n) == expected, rows
            assert dense_signed_maximal_minors([row[:] for row in rows[1:]], n) == expected, rows
            pivots, sign = dense_echelon([row[:] for row in rows[1:]])
            if len(pivots) < n - 1:
                assert expected == [0] * n
                seen["deficient"] += 1
            else:
                f = min(set(range(n)) - set(pivots))
                seen["odd_f" if f % 2 else "even_f"] += 1
                seen["swap"] += sign < 0
            seen["n_1"] += n == 1
            seen["n_2"] += n == 2
        # every case of the elimination is drawn
        assert all(count >= 40 for count in seen.values()), seen

    def test_non_integral_minor_raises(self, monkeypatch):
        """A pivot row whose back substitution leaves a remainder, here one
        corrupted after the elimination, raises."""
        rows = [[2, 1, 1], [1, 3, 2]]
        assert _signed_maximal_minors(dict_rows(rows), 3) == [-1, -3, 5]
        # {0: 2, 1: 1, 2: 1} -> {0: 2, 1: 1, 2: 2}
        corrupt_first_pivot_row(monkeypatch)
        with pytest.raises(ArithmeticError, match="not integral"):
            _signed_maximal_minors(dict_rows(rows), 3)


class TestTextFormat:
    def test_parse_basic(self):
        a = parse_matrix("2 3\n1 -2 3\n0 5 -6\n")
        assert a.entries == ((1, -2, 3), (0, 5, -6))

    def test_comments_and_unicode_minus(self):
        a = parse_matrix("# chain\n1 2\n3 −4\n")
        assert a.entries == ((3, -4),)
        assert parse_matrix("1 2  # header\n1 2\n").entries == ((1, 2),)
        assert parse_matrix("1 2\n1 2  # row 1\n").entries == ((1, 2),)

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            m_, n_ = rng.randint(1, 4), rng.randint(1, 4)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-99, 99) for _ in range(n_)] for _ in range(m_)]
            )
            assert parse_matrix(format_matrix(a)) == a

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(st.integers(), min_size=n, max_size=n), min_size=1, max_size=5)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, rows):
        a = IntegerMatrix.from_rows(rows)
        assert parse_matrix(format_matrix(a)) == a

    def test_bad_input(self):
        for text in ["", "2 2\n1 2\n", "1 2\n1 2 3\n", "1 1\nx\n"]:
            with pytest.raises(MatrixError):
                parse_matrix(text)
        # errors are reported at their real line, comment and blank lines
        # included: a header error at the header, a row-count error at the
        # first extra row or at the end of the input
        for text, where in [
            ("# m n\n\n  2 x\n1 2\n", "line 3, col 2: first line must be 'm n'"),
            ("1 2 3\n1 2\n", "line 1, col 0: first line must be 'm n'"),
            ("\n 0 2  # none\n", "line 2, col 1: matrix dimensions must be positive"),
            ("1 2\n1 2\n# extra\n 3 4\n", "line 4, col 1: expected 1 data rows, got 2"),
            ("2 2\n1 2\n", "line 3, col 0: expected 2 data rows, got 1"),
            ("2 2\n1 2  # end", "line 2, col 10: expected 2 data rows, got 1"),
            ("1 2\n1 2 3\n", "line 2, col 4: expected 2 entries per row, got 3"),
            ("1 1\nx\n", "line 2, col 0: non-integer entry 'x'"),
            ("# m n\n\n2 3\n1 2 3\n# next\n4 5\n", "line 6, col 3: expected 3 entries"),
            ("2 2\n1 2\n3  4.0  # bad\n", "line 3, col 3: non-integer entry '4.0'"),
        ]:
            with pytest.raises(MatrixError, match="^" + re.escape(where)):
                parse_matrix(text)

    def test_long_entry(self):
        """An entry of more digits than int() converts is reported as too
        long, at its position; one at the limit parses."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts entries of any length")
        for entry in ("9" * limit, "-" + "0" * (limit - 1) + "7"):
            assert parse_matrix("1 2\n1 %s\n" % entry).entries == ((1, int(entry)),)
        for entry in ("9" * (limit + 1), "-" + "1_" * limit + "1"):
            with pytest.raises(MatrixError) as exc:
                parse_matrix("1 2\n1  %s  # long\n" % entry)
            assert str(exc.value) == "line 2, col 3: entry of %d digits is too long, limit is %d" % (
                limit + 1, limit)

    def test_first_error_of_a_row(self):
        """Of several entries int() rejects in one row, the first is
        reported, at its own column; a row that also has the wrong number
        of entries is reported for its count."""
        for text, message in [
            ("1 4\n1 x 2.5 y\n", "line 2, col 2: non-integer entry 'x'"),
            ("1 4\n1 2  2.5 y\n", "line 2, col 5: non-integer entry '2.5'"),
            ("2 3\n1 2 3\n4 5 6e1  # e\n", "line 3, col 4: non-integer entry '6e1'"),
            ("1 2\nx 1 2\n", "line 2, col 4: expected 2 entries per row, got 3"),
            ("1 3\n1 y\n", "line 2, col 3: expected 3 entries per row, got 2"),
        ]:
            with pytest.raises(MatrixError) as exc:
                parse_matrix(text)
            assert str(exc.value) == message

    def test_long_and_non_integer_entries_in_one_row(self):
        """A digit string over the limit and a non-integer in one row: each
        has its own message, the first of them in the row is reported."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts entries of any length")
        long = "9" * (limit + 1)
        for text, message in [
            ("1 3\n%s x 1\n" % long,
             "line 2, col 0: entry of %d digits is too long, limit is %d" % (limit + 1, limit)),
            ("1 3\n1 x %s\n" % long, "line 2, col 2: non-integer entry 'x'"),
        ]:
            with pytest.raises(MatrixError) as exc:
                parse_matrix(text)
            assert str(exc.value) == message

    def test_format_ratio(self):
        assert format_ratio(3, 2) == "3/2"
        assert format_ratio(4, 2) == "2"
        assert format_ratio(7, 1) == "7"
        assert format_ratio(-6, 4) == "-3/2"
        assert format_ratio(0, 5) == "0"

    @given(ratios)
    @settings(max_examples=300, deadline=None)
    @example((0, 1))
    @example((-12, 8))
    @example((-12, 4))
    @example((-(10**4300), 3))
    @example((10**4300, 2 * 10**4300))
    def test_format_ratio_matches_fraction_route(self, ratio):
        """format_ratio(y, t) writes what the Fraction route wrote for
        Fraction(y, t)."""
        y, t = ratio
        with unlimited_int_str():
            assert format_ratio(y, t) == format_rational(Fraction(y, t))


class TestMatrixOps:
    def test_gram(self):
        g = IntegerMatrix.from_rows([[1, 0, 1], [0, 2, 0]]).gram()
        assert g.entries == ((2, 0), (0, 4))

    def test_from_rows_integer_entries(self):
        """An integral entry of another type is taken as its int; any other
        entry is reported by value."""
        a = IntegerMatrix.from_rows([[Fraction(4, 2), 3.0]])
        assert a.entries == ((2, 3),) and all(type(e) is int for e in a.entries[0])
        with pytest.raises(MatrixError, match="entries must be integers, got Fraction"):
            IntegerMatrix.from_rows([[Fraction(1, 2), 2]])
        with pytest.raises(MatrixError, match="entries must be integers, got 2.7"):
            IntegerMatrix.from_rows([[1, 2.7]])

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: IntegerMatrix(((1, 1.5),)), MatrixError, "entries must be integers, got 1.5"),
            (lambda: apply(IntegerMatrix(((1, 2),)), [1]), MatrixError, "vector length mismatch"),
            (lambda: determinant_cofactor(IntegerMatrix(((1, 2),))), NonSquareError,
             "determinant requires a square matrix"),
        ],
        ids=["non_int_entry", "apply_length", "cofactor_non_square"],
    )
    def test_input_checks(self, call, error, message):
        with pytest.raises(MatrixError) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message

    def test_infinity_norm(self):
        assert infinity_norm(IntegerMatrix.from_rows([[1, -2], [3, 1]])) == 4
        assert infinity_norm(IntegerMatrix.from_rows([[0, 0]])) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([])
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1.5]])
