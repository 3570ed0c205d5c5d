"""Differential tests of the elimination kernel against sympy.

rank, determinant, nullspace_basis, _solve_augmented (the solver of the
reduction) and _signed_maximal_minors (the one route by which
systems.solve_assembled takes det A and every Cramer numerator) all run
on the one fraction-free elimination over {column: value} rows in
relmag.matrices and its one back substitution.  So does the brute force
circuit oracle in conftest (through nullspace_basis), which is also where
the circuit walk starts.  sympy's exact rational linear algebra is an
outside reference for all five, for every circuit vector, and for the
det A and numerators of assembled systems, where it would show a sign or
scale error common to all the minors that the solve's own checks cannot
see.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import (
    dense_rows,
    dict_rows,
    halving_dsl,
    oracle_circuits,
    primitive_vector,
    random_system,
    solve_square,
)
from test_detbounds import MULTI_CHAIN

from relmag.circuits import enumerate_circuits
from relmag.generators import extremal_system
from relmag.matrices import (
    IntegerMatrix,
    _signed_maximal_minors,
    determinant,
    nullspace_basis,
    rank,
)
from relmag.systems import (
    UnsolvableSystemError,
    assemble,
    parse_system,
    reduce_system,
    solve_assembled,
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


def test_signed_maximal_minors_match_sympy_cofactors():
    """With a unit first row, the Cramer numerator det A_i (column i
    replaced by e_1) is sympy's cofactor (0, i) of A."""
    rng = random.Random(20261022)
    deficient = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        u = rng.randrange(n)
        rows = [[int(j == u) for j in range(n)]] + random_rows(rng, n - 1, n)
        ref = sympy.Matrix(rows)
        expected = [ref.cofactor(0, i) for i in range(n)]
        assert _signed_maximal_minors(dict_rows(rows[1:]), n) == expected, rows
        deficient += not any(expected)
    assert deficient > 50


def circuit_rows(rng: random.Random) -> list[list[int]]:
    """Random rows of at most 4x8 with entries up to 10^6 in size: three in
    ten rank-deficient, and a third of all with a zero column, a third
    with a repeated (scaled) column."""
    m, n = rng.randint(1, 4), rng.randint(2, 8)
    hi = rng.choice((3, 1000, 10 ** 6))
    if rng.random() < 0.3:
        inner = rng.randint(1, max(1, min(m, n) - 1))
        b = [[rng.randint(-hi, hi) for _ in range(inner)] for _ in range(m)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)]
        rows = [[sum(b[i][l] * c[l][j] for l in range(inner)) for j in range(n)] for i in range(m)]
    else:
        rows = [[rng.randint(-hi, hi) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(m)]
    kind = rng.randrange(3)
    if kind == 1:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    elif kind == 2:
        i, j = rng.sample(range(n), 2)
        scale = rng.choice((-2, -1, 1, 3))
        for row in rows:
            row[j] = scale * row[i]
    return rows


def test_circuits_match_sympy():
    """Every circuit vector is the primitive form of sympy's null space of
    its support columns, a single ray; the supports are the oracle's."""
    rng = random.Random(20261021)
    seen = {"deficient": 0, "size_1": 0, "parallel_pair": 0, "big": 0}
    for _ in range(300):
        rows = circuit_rows(rng)
        a = IntegerMatrix.from_rows(rows)
        circs = enumerate_circuits(a)
        assert [c.support for c in circs] == [c.support for c in oracle_circuits(a)], rows
        ref = sympy.Matrix(rows)
        for c in circs:
            ray = ref.extract(list(range(a.rows)), list(c.support)).nullspace()
            assert len(ray) == 1, (rows, c.support)
            restricted = primitive_vector([to_fraction(q) for q in ray[0]])
            vec = [0] * a.cols
            for j, v in zip(c.support, restricted):
                vec[j] = v
            assert c.vector == tuple(vec), (rows, c.support)
        seen["deficient"] += rank(a) < min(a.rows, a.cols)
        seen["size_1"] += any(len(c.support) == 1 for c in circs)
        seen["parallel_pair"] += any(len(c.support) == 2 for c in circs)
        seen["big"] += max(abs(e) for row in rows for e in row) > 10 ** 5
    # every kind of draw is exercised
    assert all(count >= 40 for count in seen.values()), seen


def test_assembled_determinants_match_sympy():
    """solve_assembled's det A and each Cramer numerator det A_i equal
    sympy's determinants of the dense assembled matrix A and of A with
    column i replaced by e_1, sign for sign: on random solvable systems,
    on extremal and halving chains and on the multi-chain system, up to
    n = 12."""
    rng = random.Random(20261023)
    systems = [parse_system(MULTI_CHAIN)]
    for n in (2, 6, 12):
        systems += [extremal_system(2, n), extremal_system(3, n), parse_system(halving_dsl(n))]
    while len(systems) < 160:
        system = random_system(rng, nmax=12)
        try:
            reduce_system(system)
        except UnsolvableSystemError:
            continue
        systems.append(system)
    negative = 0
    for system in systems:
        reduced, trace = reduce_system(system)
        asm = assemble(reduced)
        _, det_a, det_ai = solve_assembled(asm, trace.reduced_y, trace.den)
        ref = sympy.Matrix(dense_rows(asm))
        assert det_a == ref.det(), system.to_text()
        for i in range(asm.n):
            a_i = ref.copy()
            a_i[:, i] = sympy.eye(asm.n)[:, 0]
            assert det_ai[i] == a_i.det(), (system.to_text(), i)
        negative += det_a < 0
    # both signs of det A occur
    assert 10 <= negative <= len(systems) - 10, negative
