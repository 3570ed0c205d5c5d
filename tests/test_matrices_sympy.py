"""Differential tests of the elimination kernel against sympy.

rank, determinant, nullspace_basis and _solve_augmented (the solver behind
systems.solve_assembled and the reduction) all run on the one
fraction-free echelon routine in relmag.matrices, and so does the brute
force circuit oracle in conftest (through nullspace_basis).  sympy's exact
rational linear algebra is an outside reference for all four.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import solve_square

from relmag.matrices import (
    IntegerMatrix,
    determinant,
    nullspace_basis,
    primitive_vector,
    rank,
)

sympy = pytest.importorskip("sympy")


def random_rows(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Random m x n rows; two in five are a product B.C of inner size
    below min(m, n), so rank-deficient matrices are frequent."""
    if rng.random() < 0.4:
        inner = rng.randint(1, max(1, min(m, n) - 1))
        b = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(m)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)]
        return [[sum(b[i][l] * c[l][j] for l in range(inner)) for j in range(n)] for i in range(m)]
    return [[rng.randint(-5, 5) if rng.random() < 0.75 else 0 for _ in range(n)] for _ in range(m)]


def to_fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def test_rank_and_nullspace_match_sympy():
    rng = random.Random(20261018)
    for _ in range(1000):
        rows = random_rows(rng, rng.randint(1, 6), rng.randint(1, 7))
        a = IntegerMatrix.from_rows(rows)
        ref = sympy.Matrix(rows)
        assert rank(a) == ref.rank()
        # sympy also takes one basis vector per free column of the RREF,
        # 1 at that column and 0 at the other free ones
        expected = [primitive_vector([to_fraction(q) for q in v]) for v in ref.nullspace()]
        assert nullspace_basis(a) == expected


def test_determinant_matches_sympy():
    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = random_rows(rng, n, n)
        assert determinant(IntegerMatrix.from_rows(rows)) == sympy.Matrix(rows).det()


def test_solve_augmented_matches_sympy():
    rng = random.Random(20261020)
    singular = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = random_rows(rng, n, n)
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        ref = sympy.Matrix(rows)
        a = IntegerMatrix.from_rows(rows)
        if ref.det() == 0:
            singular += 1
            assert solve_square(a, b) is None
            continue
        rhs = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
        expected = tuple(to_fraction(q) for q in ref.LUsolve(rhs))
        # the canonical y / t of sympy's solution: t the least common
        # denominator, which leaves gcd(t, y) = 1
        t = lcm(*(v.denominator for v in expected))
        assert solve_square(a, b) == (tuple(int(v * t) for v in expected), t)
    assert singular > 100  # the rank-deficient products are exercised
