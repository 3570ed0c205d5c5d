"""Minimal-support null vector enumeration against the exhaustive oracle."""

import random

import pytest

from conftest import oracle_circuits, random_matrix
from relmag.circuits import (
    Circuit,
    EnumerationTooLarge,
    elementary_basis,
    enumerate_circuits,
    is_elementary,
)
from relmag.generators import extremal_matrix
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


def test_circuits_are_elementary_and_primitive():
    rng = random.Random(37)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
        for c in enumerate_circuits(a):
            assert is_elementary(a, c.vector)
            assert tuple(j for j, v in enumerate(c.vector) if v != 0) == c.support


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
