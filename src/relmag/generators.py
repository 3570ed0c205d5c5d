"""Extremal chain instances attaining the magnitude bounds exactly.

The chain system k x_i - x_{i+1} = 0 (i = 1..n-1) has infinity norm
k + 1, rank n - 1 and a single null ray (1, k, ..., k^(n-1)), so its
relative magnitude k^(n-1) meets the bound (norm - 1)^rank with
equality.  With x_1 = 1 prepended it is the sharp instance for the
k^(n-1) solution bound.
"""

from relmag.matrices import IntegerMatrix
from relmag.systems import MAX_VARIABLES, System, SumEquation, UnitEquation


def _check_params(k: int, n: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2, got %d" % k)
    if not 2 <= n <= MAX_VARIABLES:
        raise ValueError("n must be in 2..%d, got %d" % (MAX_VARIABLES, n))


def extremal_matrix(k: int, n: int) -> IntegerMatrix:
    """The (n-1) x n chain matrix with rows k x_i - x_{i+1}."""
    _check_params(k, n)
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = k
        row[i + 1] = -1
        rows.append(row)
    return IntegerMatrix.from_rows(rows)


def extremal_system(k: int, n: int) -> System:
    """The sharp system x_1 = 1, k x_i - x_{i+1} = 0."""
    _check_params(k, n)
    equations = [UnitEquation(var=1, sign=1)]
    for i in range(1, n):
        equations.append(SumEquation(terms=((k, i), (-1, i + 1))))
    return System(k=k, nvars=n, equations=tuple(equations))


def extremal_dsl(k: int, n: int) -> str:
    """DSL text of the sharp system, one term per variable with its
    coefficient, e.g. ``2x1-x2=0``."""
    return extremal_system(k, n).to_text()
