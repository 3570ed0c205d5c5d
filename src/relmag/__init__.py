"""Exact-arithmetic certification of solution relative magnitudes.

Computes the relative magnitude omega of null vectors of integer matrices,
certifies the per-instance bound omega <= (norm - 1)^rank, and solves
unit-coefficient constraint systems with full determinant-bound verification.
All arithmetic is exact; nothing is ever rounded.  Matrices, determinants
and circuits are Python ints.  A system's solution is carried, from the
elimination to the certificate and into the reports, as integers y over
one common denominator t (x = y / t, as in Cramer's rule); each x_i is
written in lowest terms only when a report is printed.
"""

from relmag.matrices import (
    IntegerMatrix,
    MatrixError,
    NonSquareError,
    determinant,
    infinity_norm,
    nullspace_basis,
    rank,
)
from relmag.circuits import Circuit, enumerate_circuits, elementary_basis
from relmag.magnitude import MagnitudeCertificate, omega_matrix_upper
from relmag.systems import System, parse_system, reduce_system, solve_and_certify
from relmag.generators import extremal_matrix, extremal_dsl

__all__ = [
    "IntegerMatrix",
    "MatrixError",
    "NonSquareError",
    "determinant",
    "infinity_norm",
    "nullspace_basis",
    "rank",
    "Circuit",
    "enumerate_circuits",
    "elementary_basis",
    "MagnitudeCertificate",
    "omega_matrix_upper",
    "System",
    "parse_system",
    "reduce_system",
    "solve_and_certify",
    "extremal_matrix",
    "extremal_dsl",
]
