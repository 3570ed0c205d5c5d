"""Minimal-support null vector enumeration against the exhaustive oracle."""

import random
from math import comb, gcd

import pytest

from conftest import dense_bareiss_step, is_elementary, oracle_circuits, random_matrix
from relmag import circuits, matrices
from relmag.circuits import (
    Circuit,
    EnumerationTooLarge,
    _extend,
    elementary_basis,
    enumerate_circuits,
)
from relmag.generators import extremal_matrix
from relmag.magnitude import omega_matrix_upper
from relmag.matrices import IntegerMatrix, rank


def test_all_ones_row():
    a = IntegerMatrix.from_rows([[1, 1, 1]])
    circs = enumerate_circuits(a)
    assert [c.support for c in circs] == [(0, 1), (0, 2), (1, 2)]
    assert [c.vector for c in circs] == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]


def test_chain_matrix_single_ray():
    a = IntegerMatrix.from_rows([[3, -1, 0], [0, 3, -1]])
    circs = enumerate_circuits(a)
    assert len(circs) == 1
    assert circs[0].support == (0, 1, 2)
    assert circs[0].vector == (1, 3, 9)


def test_full_rank_no_circuits():
    a = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    assert enumerate_circuits(a) == []
    assert elementary_basis(a) == []


def test_is_elementary():
    a = IntegerMatrix.from_rows([[1, 1, 1]])
    assert is_elementary(a, [1, -1, 0])
    assert not is_elementary(a, [1, 1, -2])  # null but support not minimal
    with pytest.raises(ValueError):
        is_elementary(a, [1, 0, 0])  # not in the null space
    with pytest.raises(ValueError):
        is_elementary(a, [0, 0, 0])


def test_is_elementary_rejects_wrong_length():
    with pytest.raises(ValueError) as exc:
        is_elementary(IntegerMatrix.from_rows([[1, 1, 1]]), [1, -1])
    assert type(exc.value) is ValueError and str(exc.value) == "vector length mismatch"


def test_circuit_line_format():
    c = Circuit(support=(0, 2), vector=(1, 0, -1))
    assert c.to_line() == "I = {1,3}; v = (1, 0, -1)"


def test_enumeration_guard():
    # [I_12 | J_12x14]: rank 12, supports of up to 13 of 26 columns
    wide = IntegerMatrix.from_rows(
        [[int(i == j) for j in range(12)] + [1] * 14 for i in range(12)]
    )
    with pytest.raises(EnumerationTooLarge, match="38754731 candidate supports"):
        enumerate_circuits(wide)
    # the guard counts candidates, not columns
    assert len(enumerate_circuits(IntegerMatrix.from_rows([[0] * 25]))) == 25
    assert len(enumerate_circuits(extremal_matrix(2, 30))) == 1


def test_matches_oracle_randomized():
    rng = random.Random(31)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(2, 6)
        a = random_matrix(rng, m, n)
        assert enumerate_circuits(a) == oracle_circuits(a)


def _edge_matrix(rng, kind):
    """A random matrix of at most 4x8 with the structure that kind names."""
    m, n = rng.randint(2, 4), rng.randint(2, 8)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if kind == "zero_columns":
        for j in rng.sample(range(n), rng.randint(1, min(2, n))):
            for row in rows:
                row[j] = 0
    elif kind == "parallel":
        i, j = rng.sample(range(n), 2)
        scale = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[j] = scale * row[i]
    elif kind == "coloop":
        # only column j meets row 0, so j is independent of the others
        j = rng.randrange(n)
        rows[0] = [rng.choice((-2, -1, 1, 2)) if c == j else 0 for c in range(n)]
    else:  # rank deficient and wide: a product through r < m dimensions
        n = rng.randint(m + 1, 8)
        r = rng.randint(1, m - 1)
        u = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        v = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        rows = [[sum(u[i][t] * v[t][c] for t in range(r)) for c in range(n)] for i in range(m)]
    return IntegerMatrix.from_rows(rows)


def test_matches_oracle_on_edge_cases():
    rng = random.Random(71)
    seen = {"size_1": 0, "parallel_pair": 0, "coloop": 0, "deficient": 0}
    for trial in range(320):
        kind = ("zero_columns", "parallel", "coloop", "low_rank")[trial % 4]
        a = _edge_matrix(rng, kind)
        circs = enumerate_circuits(a)
        assert circs == oracle_circuits(a), (kind, a.entries)
        if kind == "zero_columns":
            seen["size_1"] += any(len(c.support) == 1 for c in circs)
        elif kind == "parallel":
            seen["parallel_pair"] += any(len(c.support) == 2 for c in circs)
        elif kind == "coloop":
            col = a.entries[0].index(next(e for e in a.entries[0] if e))
            assert all(col not in c.support for c in circs)
            seen["coloop"] += bool(circs)
        else:
            seen["deficient"] += rank(a) < a.rows
    # every kind of draw produced what it is there to test
    assert all(count >= 40 for count in seen.values()), seen
    # a dependent last support column still closes its circuits: only an
    # independent last column is left unextended
    base = [[1, 2, -1, 3], [0, 1, 2, -2], [2, -1, 1, 1]]
    for last in (
        [0, 0, 0],  # zero
        [-2 * row[0] for row in base],  # -2 x column 0
        [row[0] + row[1] for row in base],  # sum of the first two
    ):
        a = IntegerMatrix.from_rows([row + [v] for row, v in zip(base, last)])
        circs = enumerate_circuits(a)
        assert circs == oracle_circuits(a), a.entries
        assert any(c.support[-1] == 4 for c in circs), a.entries


def test_walk_steps_match_dense_reference():
    """On the edge-case draws, every independent column sequence the walk
    can step through (increasing, with columns skipped) leaves exactly the
    rows of the dense Bareiss step.  _extend writes no list its parent
    holds."""
    rng = random.Random(71)
    sets = 0
    for trial in range(320):
        a = _edge_matrix(rng, ("zero_columns", "parallel", "coloop", "low_rank")[trial % 4])
        m, n = a.rows, a.cols
        rows = [list(row) for row in a.entries]
        stack = [((), rows, [row[:] for row in rows], 1)]
        while stack:
            sset, walk, dense, prev = stack.pop()
            r = len(sset)
            for j in range(sset[-1] + 1 if sset else 0, n):
                piv = next((i for i in range(r, m) if walk[i][j]), None)
                assert piv == next((i for i in range(r, m) if dense[i][j]), None)
                if piv is None:
                    continue
                snapshot = [row[:] for row in walk]
                lz = _extend(walk, r, piv, j, prev)
                assert walk == snapshot
                dn = [row[:] for row in dense]
                dn[r], dn[piv] = dn[piv], dn[r]
                dense_bareiss_step(dn, r, j, prev)
                ext = sset + (j,)
                assert lz == dn, (a.entries, ext)
                sets += 1
                stack.append((ext, lz, dn, lz[r][j]))
    assert sets >= 5000, sets


def test_walk_eliminates_once(monkeypatch):
    """One null-space elimination per call, no matrix per candidate support,
    and no kernel call from the walk itself: a circuit vector costs no back
    substitution and a child set no elimination."""
    # Vandermonde rows on distinct nodes: every 4 columns are independent
    a = IntegerMatrix.from_rows([[x ** i for x in range(1, 9)] for i in range(4)])
    calls = {
        "nullspace_basis": 0,
        "IntegerMatrix": 0,
        "_ray": 0,
        "_sparse_echelon": 0,
        "_extend": 0,
        "kernel calls outside nullspace_basis": 0,
    }
    inside = []
    real_nullspace = circuits.nullspace_basis
    real_init = IntegerMatrix.__post_init__

    def counted_nullspace(m):
        calls["nullspace_basis"] += 1
        inside.append(True)
        try:
            return real_nullspace(m)
        finally:
            inside.pop()

    def counted_init(self):
        calls["IntegerMatrix"] += 1
        real_init(self)

    def counted(name):
        real = getattr(matrices, name)

        def wrapper(*args):
            calls[name] += 1
            calls["kernel calls outside nullspace_basis"] += not inside
            return real(*args)

        # the walk may reach a kernel routine through either module
        monkeypatch.setattr(matrices, name, wrapper)
        monkeypatch.setattr(circuits, name, wrapper, raising=False)

    monkeypatch.setattr(circuits, "nullspace_basis", counted_nullspace)
    monkeypatch.setattr(IntegerMatrix, "__post_init__", counted_init)
    counted("_ray")
    counted("_sparse_echelon")
    real_extend = circuits._extend

    def counted_extend(*args):
        calls["_extend"] += 1
        return real_extend(*args)

    monkeypatch.setattr(circuits, "_extend", counted_extend)
    circs = enumerate_circuits(a)
    assert len(circs) == comb(8, 5)  # in general position the circuits are the 5-sets
    assert calls == {
        "nullspace_basis": 1,
        "IntegerMatrix": 0,
        "_ray": 4,  # the nullity: one per nullspace_basis ray
        "_sparse_echelon": 1,  # the one elimination inside nullspace_basis
        # the independent sets of 1 to 4 columns without the last column,
        # sum of C(7, s): a set that ends on it has no column left to test
        "_extend": 98,
        "kernel calls outside nullspace_basis": 0,
    }


def test_circuits_are_elementary_and_primitive():
    rng = random.Random(37)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
        for c in enumerate_circuits(a):
            assert is_elementary(a, c.vector)
            assert tuple(j for j, v in enumerate(c.vector) if v != 0) == c.support
            assert gcd(*c.vector) == 1
            assert c.vector[c.support[0]] > 0


def test_elementary_basis_spans():
    rng = random.Random(41)
    for _ in range(300):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7))
        basis = elementary_basis(a)
        circs = enumerate_circuits(a)
        assert all(c in circs for c in basis)
        nullity = a.cols - rank(a)
        assert len(basis) == nullity
        if basis:
            stacked = IntegerMatrix.from_rows([list(c.vector) for c in basis])
            assert rank(stacked) == nullity


def test_elementary_basis_beyond_enumeration_limit():
    rng = random.Random(43)
    a = random_matrix(rng, 30, 90, lo=-1, hi=1)
    with pytest.raises(EnumerationTooLarge):
        enumerate_circuits(a)
    basis = elementary_basis(a)
    assert len(basis) == 90 - rank(a)
    for c in basis:
        assert is_elementary(a, c.vector)
        assert c.support == tuple(j for j, v in enumerate(c.vector) if v != 0)


# N(A) is the ray of (1, 2, 4); the last pivot of the elimination is 4
SINGLE_RAY = [[2, -1, 0], [0, 2, -1]]


def test_single_ray_is_checked(monkeypatch):
    """No null-space basis vector is returned as a circuit before A.z = 0 is
    checked.  A _ray that adds the last pivot to the first pivot column
    after the real back substitution makes the one basis vector (5, 2, 4);
    unchecked, enumerate_circuits and elementary_basis returned it and
    omega_matrix_upper certified omega_upper = 5/2 with verdict pass."""
    real = matrices._ray

    def ray(rows, pivots, n, f):
        x = real(rows, pivots, n, f)
        x[pivots[0]] += rows[len(pivots) - 1][pivots[-1]]
        return x

    monkeypatch.setattr(matrices, "_ray", ray)
    assert matrices.nullspace_basis(IntegerMatrix.from_rows(SINGLE_RAY)) == [(5, 2, 4)]
    for route in (enumerate_circuits, elementary_basis, omega_matrix_upper):
        with pytest.raises(ArithmeticError) as exc:
            route(IntegerMatrix.from_rows(SINGLE_RAY))
        assert str(exc.value) == "circuit vector on columns {1,2,3} is not a null vector"
    monkeypatch.setattr(matrices, "_ray", real)
    a = IntegerMatrix.from_rows(SINGLE_RAY)
    assert enumerate_circuits(a) == elementary_basis(a) == [Circuit((0, 1, 2), (1, 2, 4))]
