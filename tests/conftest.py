"""Shared helpers: independent oracles and random instance generators."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import relmag.detbounds
import relmag.systems
from relmag.circuits import Circuit
from relmag.matrices import (
    IntegerMatrix,
    MatrixError,
    NonSquareError,
    _signed_maximal_minors,
    _solve_augmented,
    _sparse_echelon,
    determinant,
    nullspace_basis,
    rank,
)
from relmag.systems import (
    MAX_VARIABLES,
    AllHomogeneousError,
    Assembled,
    Equation,
    ParseError,
    ReductionError,
    ReductionTrace,
    SumEquation,
    System,
    SystemError_,
    UnitEquation,
    UnsolvableSystemError,
    _overweight_message,
    _select_equations,
)


def oracle_circuits(a: IntegerMatrix) -> list[Circuit]:
    """Exhaustive 2^n-subset circuit oracle.

    For every column subset I, the subset is a circuit support iff the
    null space of the column submatrix is a single ray whose generator
    has no zero coordinate.  Deliberately brute force; used only to
    cross-check the fast enumeration.
    """
    n = a.cols
    out = []
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = column_submatrix(a, idx)
            basis = nullspace_basis(sub)
            if len(basis) != 1 or any(v == 0 for v in basis[0]):
                continue
            vec = [0] * n
            for pos, j in enumerate(idx):
                vec[j] = basis[0][pos]
            out.append(Circuit(support=idx, vector=primitive_vector(vec)))
    out.sort(key=lambda c: c.support)
    return out


def column_submatrix(a: IntegerMatrix, cols) -> IntegerMatrix:
    """The columns cols of a, in that order."""
    cols = tuple(cols)
    return IntegerMatrix(tuple(tuple(row[j] for j in cols) for row in a.entries))


def apply(a: IntegerMatrix, x):
    """Return A.x as a tuple (entries of x may be int or Fraction)."""
    if len(x) != a.cols:
        raise MatrixError("vector length mismatch")
    return tuple(sum(e * v for e, v in zip(row, x)) for row in a.entries)


def is_elementary(a: IntegerMatrix, x) -> bool:
    """True iff x is a null vector of minimal support.

    Decided by the rank test: the column submatrix on supp(x) must have
    rank |supp(x)| - 1, which makes its null space the single ray through
    x restricted to its support.
    """
    x = [Fraction(v) for v in x]
    if len(x) != a.cols:
        raise ValueError("vector length mismatch")
    if all(v == 0 for v in x):
        raise ValueError("zero vector is not elementary")
    if any(v != 0 for v in apply(a, x)):
        raise ValueError("vector is not in the null space")
    sup = tuple(j for j, v in enumerate(x) if v != 0)
    return rank(column_submatrix(a, sup)) == len(sup) - 1


def omega_vector(x) -> Fraction:
    """max |x_i| over all coordinates / min |x_i| over nonzero ones.

    Entries are ints or Fractions, compared as they are; only the
    quotient is built as a Fraction.
    """
    vals = [abs(v) for v in x]
    nonzero = [v for v in vals if v]
    if not nonzero:
        raise ValueError("relative magnitude of the zero vector is undefined")
    return Fraction(max(vals)) / min(nonzero)


def restricted(c) -> tuple[int, ...]:
    """A circuit's nonzero coordinates, in support order."""
    return tuple(c.vector[j] for j in c.support)


def omega_upper(cert) -> Fraction:
    """A MagnitudeCertificate's bound omega_hi / omega_lo as a Fraction."""
    return Fraction(cert.omega_hi, cert.omega_lo)


def dense_bareiss_step(rows: list[list[int]], r: int, c: int, prev: int) -> None:
    """Reference Bareiss step: every row below the pivot is updated, also
    one with a zero in column c, which is rescaled by p / prev.  This is
    the dense form of the lazy step in matrices._sparse_echelon, kept to
    check it, and the step circuits._extend takes on copies of the rows.
    """
    prow = rows[r]
    p = prow[c]
    n = len(prow)
    for i in range(r + 1, len(rows)):
        row = rows[i]
        f = row[c]
        if f:
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        elif p != prev:
            for j in range(c + 1, n):
                row[j] = row[j] * p // prev


def dense_echelon(rows: list[list[int]]) -> tuple[list[int], int]:
    """Reference fraction-free echelon form, in place, by dense_bareiss_step;
    same pivot choice and return value as matrices._sparse_echelon."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        dense_bareiss_step(rows, r, c, prev)
        pivots.append(c)
        prev = rows[r][c]
        r += 1
    return pivots, sign


def dense_back_substitute(rows: list[list[int]], pivots: list[int], x: list[int]) -> None:
    """Reference for the back substitution of matrices._ray on dense
    echelon rows, in place: fill in x at the pivot columns so that every
    echelon row annihilates x.  It takes any integer values at the free
    columns and rescales all of x by an integer factor where a pivot does
    not divide its row's partial sum, so x is fixed up to scale only:
    compare it with the package's in canonical form."""
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        p = row[c]
        s = sum(row[j] * x[j] for j in range(c + 1, len(x)) if row[j] and x[j])
        if s % p:
            g = gcd(s, p)
            q = p // g
            for j in range(len(x)):
                x[j] *= q
            x[c] = -s // g
        else:
            x[c] = -s // p


def dict_rows(rows) -> list[dict[int, int]]:
    """Dense rows as the {column: value} rows of their nonzeros."""
    return [{j: e for j, e in enumerate(row) if e} for row in rows]


def dense_solve_augmented(rows: list[list[int]]):
    """Reference for matrices._solve_augmented on the dense augmented rows
    [A | b], in place: dense_echelon and dense_back_substitute, with the
    same return value."""
    n = len(rows[0]) - 1
    pivots, sign = dense_echelon(rows)
    if n in pivots:
        return None
    # [A | b] . (y, -t) = 0 gives A . (y / t) = b
    y = [0] * n + [-1]
    dense_back_substitute(rows, pivots, y)
    g = gcd(*y)
    if y[n] > 0:
        g = -g
    t = -y.pop() // g
    return pivots, [v // g for v in y], t, sign


def dense_signed_maximal_minors(rows: list[list[int]], n: int) -> list[int]:
    """Reference for matrices._signed_maximal_minors on the dense
    (n-1) x n rows B, in place, on dense_echelon, with its own exact
    division in place of dense_back_substitute's rescaling."""
    pivots, sign = dense_echelon(rows)
    if len(pivots) < n - 1:
        return [0] * n
    f = n * (n - 1) // 2 - sum(pivots)  # the one column without a pivot
    z = [0] * n
    z[f] = sign * rows[-1][pivots[-1]] if pivots else 1
    for r in range(n - 2, -1, -1):
        c = pivots[r]
        row = rows[r]
        s = sum(row[j] * z[j] for j in range(c + 1, n) if row[j])
        z[c], rest = divmod(-s, row[c])
        if rest:
            raise ArithmeticError("maximal minor of column %d is not integral" % c)
    return [-v for v in z] if f % 2 else z


def transpose(a: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(tuple(zip(*a.entries)))


def delete_row_col(a: IntegerMatrix, i: int, j: int) -> IntegerMatrix:
    """a without its row i and its column j."""
    return IntegerMatrix(tuple(
        tuple(e for c, e in enumerate(row) if c != j)
        for r, row in enumerate(a.entries) if r != i
    ))


def replace_column(a: IntegerMatrix, j: int, col) -> IntegerMatrix:
    """a with its column j replaced by the integer column col."""
    return IntegerMatrix.from_rows(
        row[:j] + (v,) + row[j + 1:] for row, v in zip(a.entries, col, strict=True)
    )


def primitive_vector(x) -> tuple[int, ...]:
    """Canonical primitive integer form of a nonzero rational vector: scaled
    by the lcm of the denominators, divided by the gcd, and signed so that
    the first nonzero entry is positive.  Independent of
    matrices._primitive, the integer-only form the package uses."""
    x = [Fraction(v) for v in x]
    den = lcm(*(v.denominator for v in x))
    ints = [int(v * den) for v in x]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class SingularMatrixError(MatrixError):
    """cramer_solve was given a singular matrix."""


def cramer_solve(a: IntegerMatrix, b) -> tuple[Fraction, ...]:
    """Solve the square system A.x = b by Cramer's rule, n + 1 separate
    determinants: x_i = det A_i / det A, A_i being A with column i
    replaced by b, after a rational b is scaled to integers."""
    det_a = determinant(a)
    if det_a == 0:
        raise SingularMatrixError("matrix is singular")
    b = [Fraction(v) for v in b]
    den = lcm(*(v.denominator for v in b))
    col = [int(v * den) for v in b]
    return tuple(
        Fraction(determinant(replace_column(a, i, col)), den * det_a) for i in range(a.cols)
    )


def solve_square(a: IntegerMatrix, b) -> tuple[tuple[int, ...], int] | None:
    """Solve A.x = b through matrices._solve_augmented, the kernel that
    systems.solve_assembled and the reduction run.

    A rational b is scaled to integers by its common denominator den
    first, so _solve_augmented returns den x = y / t.  Returns x in the
    same canonical form, (y', t') with x = y' / t', t' > 0 and
    gcd(t', y') = 1, or None when A is singular: fewer than n pivots, or
    b outside the column space.
    """
    b = [Fraction(v) for v in b]
    den = lcm(*(v.denominator for v in b))
    rows = dict_rows(list(row) + [int(v * den)] for row, v in zip(a.entries, b))
    solved = _solve_augmented(rows, a.cols)
    if solved is None or len(solved[0]) < a.cols:
        return None
    _, y, t = solved
    g = gcd(t * den, *y)
    return tuple(v // g for v in y), t * den // g


def as_fractions(y, t) -> tuple[Fraction, ...]:
    """The rational vector y / t."""
    return tuple(Fraction(v, t) for v in y)


def solution(report) -> tuple[Fraction, ...]:
    """A SolveReport's solution y / t of the original system as Fractions."""
    return as_fractions(report.y, report.t)


def format_rational(x) -> str:
    """Render an int or Fraction as "p/q" with q > 0 and gcd(p, q) = 1, or
    "p" when q = 1; both types keep their value in lowest terms.  The
    Fraction route that matrices.format_ratio replaced, kept verbatim as
    its reference."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def count_fractions(monkeypatch) -> list:
    """Record the arguments of every Fraction built from now on, by any
    module.  Fraction.__new__ is the one way in: Fraction arithmetic needs
    a Fraction to start from."""
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


def reduced_solution(trace: ReductionTrace) -> tuple[Fraction, ...]:
    """The reduced solution reduced_y / den as Fractions."""
    return as_fractions(trace.reduced_y, trace.den)


def reconstruct(trace: ReductionTrace) -> tuple[Fraction, ...]:
    """The reduced solution mapped back to a full original solution, over
    Fractions, by replaying the reduction backwards (rename, sign flip,
    merges, zeroings): the route by which the package once found the
    solution it now keeps as trace.y, and the oracle the tests compare
    trace.y with."""
    inverse = {new: old for old, new in trace.rename.items()}
    vals = {}
    for idx, val in enumerate(reduced_solution(trace), start=1):
        vals[inverse[idx]] = val
    if trace.unit_sign_flipped:
        u = trace.kept_unit[0]
        vals[u] = -vals[u]
    for j, sgn, keep in reversed(trace.merges):
        vals[j] = sgn * vals[keep]
    for v in trace.zeroed_solved + trace.zeroed_free:
        vals[v] = Fraction(0)
    return tuple(vals[i] for i in range(1, len(trace.y) + 1))


def reference_solve_augmented(rows: list[dict[int, int]], n: int):
    """matrices._solve_augmented as it was when it also returned the sign
    of the row permutation: (pivots, y, t, sign), and for square
    nonsingular A, det A = sign * rows[n - 1][n - 1] after the call.  Its
    back substitution is its own, independent of matrices._ray:
    it starts from y_n = -1 and rescales all of y where a pivot does not
    divide a row's partial sum."""
    pivots, sign = _sparse_echelon(rows, n + 1)
    if pivots and pivots[-1] == n:
        return None
    # [A | b] . (y, -t) = 0 gives A . (y / t) = b
    y = [0] * n + [-1]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        p = rows[r][c]
        s = sum(v * y[j] for j, v in rows[r].items())
        if s % p:
            g = gcd(s, p)
            y = [v * (p // g) for v in y]
            y[c] = -s // g
        else:
            y[c] = -s // p
    g = gcd(*y)
    if y[n] > 0:
        g = -g
    t = -y.pop() // g
    return pivots, [v // g for v in y], t, sign


# the largest n at which reference_solve_assembled also takes the signed
# maximal minors
_CRAMER_CROSSCHECK_LIMIT = 10


def reference_solve_assembled(asm: Assembled):
    """systems.solve_assembled as it was before it checked the reduction's
    solution: it solves A x = e_1 again, from one elimination of [A | e_1],
    and returns (y, t, det A, per-column det A_i) with y / t in canonical
    form, so the check and this solve must return the same integers.  Its
    det A comes from that elimination, and for n <= 10 it compares the
    numerators with the signed maximal minors, so a sign or scale error
    common to all the minors, which the single route of solve_assembled
    cannot see, shows here."""
    n = asm.n
    rows = [dict(pairs) for pairs in asm.rows]
    # the elimination works in place: copy rows 2..n first
    rest = [row.copy() for row in rows[1:]] if n <= _CRAMER_CROSSCHECK_LIMIT else None
    rows[0][n] = 1  # the right-hand side e_1
    solved = reference_solve_augmented(rows, n)
    if solved is None or len(solved[0]) < n:
        raise ReductionError("assembled matrix is singular")
    _, y, t, sign = solved
    det_a = sign * rows[n - 1][n - 1]
    det_ai = []
    for yi in y:
        num, rem = divmod(yi * det_a, t)
        if rem:
            raise ReductionError("non-integer Cramer numerator")
        det_ai.append(num)
    if rest is not None:
        minors = _signed_maximal_minors(rest, n)
        if minors != det_ai or minors[asm.column_of[1]] != det_a:
            raise ReductionError("Cramer and elimination solutions disagree")
    return tuple(y), t, det_a, tuple(det_ai)


def gauss_jordan_solve(a, b) -> tuple[Fraction, ...] | None:
    """Solve the square system A.x = b by Gauss-Jordan elimination over
    Fractions, or return None when A is singular.

    Independent of the fraction-free kernel in relmag.matrices; used only
    to cross-check the integer solve.
    """
    n = len(a)
    rows = [[Fraction(e) for e in row] + [Fraction(v)] for row, v in zip(a, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c][c]
        rows[c] = [e / p for e in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [e - f * q for e, q in zip(rows[i], rows[c])]
    return tuple(row[n] for row in rows)


def random_matrix(rng: random.Random, m: int, n: int, lo: int = -3, hi: int = 3) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def random_system(rng: random.Random, kmax: int = 4, nmax: int = 10) -> System:
    """A random unit-coefficient system; may or may not be solvable.

    Mixes unit equations, chain-type equations (k x_b = +/- x_a) and
    general signed sums within the coefficient weight limit k + 1.
    """
    k = rng.randint(2, kmax)
    n = rng.randint(2, nmax)
    eqs = [UnitEquation(var=rng.randint(1, n), sign=rng.choice((1, -1)))]
    for _ in range(rng.randint(1, n + 2)):
        roll = rng.random()
        if roll < 0.1:
            eqs.append(UnitEquation(var=rng.randint(1, n), sign=rng.choice((1, -1))))
        elif roll < 0.45:
            a, b = rng.sample(range(1, n + 1), 2)
            eqs.append(SumEquation(terms=((k, b), (rng.choice((1, -1)), a))))
        else:
            nterms = rng.randint(2, min(3, n, k + 1))
            vars_ = rng.sample(range(1, n + 1), nterms)
            budget = k + 1
            terms = []
            for i, v in enumerate(vars_):
                c = rng.randint(1, budget - (nterms - i - 1))
                budget -= c
                terms.append((c * rng.choice((1, -1)), v))
            eqs.append(SumEquation(terms=tuple(terms)))
    return System(k=k, nvars=n, equations=tuple(eqs))


def dense_rows(asm) -> tuple[tuple[int, ...], ...]:
    """The rows of an assembled system as dense n-tuples, from its
    (column, value) pairs."""
    out = []
    for pairs in asm.rows:
        row = [0] * asm.n
        for c, e in pairs:
            row[c] = e
        out.append(tuple(row))
    return tuple(out)


def continuant(diag, off) -> int:
    """Determinant of the symmetric tridiagonal matrix with diagonal diag
    and off-diagonal off, by the three-term recurrence
    f_j = d_j f_(j-1) - e_(j-1)^2 f_(j-2) (Muir's continuant)."""
    prev, cur = 1, diag[0]
    for d, e in zip(diag[1:], off):
        prev, cur = cur, d * cur - e * e * prev
    return cur


def build_chain_block(family: str, t: int, k: int, signs=None) -> IntegerMatrix:
    """The explicit t x t tridiagonal block (t >= 1): diagonal k^2+1,
    except the last entry k^2 in family C and the first entry 1 in
    family D; off-diagonal entries signs[i] * k (all +k by default)."""
    if t < 1:
        raise ValueError("cannot build a 0 x 0 matrix; det is 1 by convention")
    signs = signs or (1,) * (t - 1)
    diag = [k * k + 1] * t
    if family == "C":
        diag[-1] = k * k
    elif family == "D":
        diag[0] = 1
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        rows[i][i] = diag[i]
        if i + 1 < t:
            rows[i][i + 1] = signs[i] * k
            rows[i + 1][i] = signs[i] * k
    return IntegerMatrix.from_rows(rows)


def determinant_cofactor(m: IntegerMatrix) -> int:
    """Determinant via Laplace expansion along the first row.

    Independent of the elimination route; zero entries are skipped, so
    sparse (e.g. tridiagonal) matrices expand quickly.
    """
    if m.rows != m.cols:
        raise NonSquareError("determinant requires a square matrix")
    rows = m.entries

    def expand(top: int, cols: tuple[int, ...]) -> int:
        if len(cols) == 1:
            return rows[top][cols[0]]
        total = 0
        sign = 1
        for pos, c in enumerate(cols):
            e = rows[top][c]
            if e != 0:
                rest = cols[:pos] + cols[pos + 1 :]
                total += sign * e * expand(top + 1, rest)
            sign = -sign
        return total

    return expand(0, tuple(range(m.cols)))


def cofactor_grid(t_max: int, k: int) -> int:
    """Compare detbounds.det_closed_form, as it is at the call, with the
    cofactor expansion of every chain block of family B, C and D, size
    1..t_max and off-diagonal sign pattern, at one k; returns the number
    of blocks.  A mismatch fails an assertion naming the block."""
    det_closed_form = relmag.detbounds.det_closed_form
    blocks = 0
    for t in range(1, t_max + 1):
        for signs in product((1, -1), repeat=t - 1):
            for family in "BCD":
                actual = determinant_cofactor(build_chain_block(family, t, k, signs))
                assert actual == det_closed_form(family, t, k), (family, t, k, signs)
                blocks += 1
    return blocks


def vanishing_to(t_max: int) -> dict:
    """(K - 1)(Q - K)(Q - K^2)...(Q - K^t_max), a polynomial {(i, j): c}
    in K and Q as in detbounds.CLOSED_FORMS.  Added to a numerator there,
    it leaves the closed form at every k and every size t <= t_max as it
    was (at k = 1 at every t, the K-derivative of the product being 0
    there), and changes it at every larger t for every k >= 2."""
    poly = {(1, 0): 1, (0, 0): -1}
    for s in range(1, t_max + 1):
        out = {}
        for (i, j), c in poly.items():
            for key, d in (((i, j + 1), c), ((i + s, j), -c)):
                out[key] = out.get(key, 0) + d
        poly = out
    return poly


def mutate_closed_form(monkeypatch, family: str, extra: dict) -> None:
    """Add the polynomial extra to the family's numerator in
    detbounds.CLOSED_FORMS, until the test ends."""
    form = dict(relmag.detbounds.CLOSED_FORMS[family])
    for key, c in extra.items():
        form[key] = form.get(key, 0) + c
    monkeypatch.setitem(relmag.detbounds.CLOSED_FORMS, family, form)


def chain_block(a, rows) -> tuple[list[int], list[int]]:
    """Diagonal and off-diagonal of the chain block of G = A' A'^T, read
    off the dense rows a as inner products."""
    diag = [sum(e * e for e in a[r]) for r in rows]
    off = [sum(e * f for e, f in zip(a[r], a[s])) for r, s in zip(rows, rows[1:])]
    return diag, off


def cut_chain_minor(a, rows, cols, p: int) -> int:
    """Reference chain block minor of W_i = G - c_i c_i^T, i = cols[p], on
    the dense rows a: the downdate by column i is applied entry by entry,
    and the determinant taken by one continuant of the whole downdated
    block, O(t) per column."""
    i = cols[p]
    diag, off = chain_block(a, rows)
    for j, r in enumerate(rows):
        diag[j] -= a[r][i] ** 2
        if j + 1 < len(rows):
            off[j] -= a[r][i] * a[rows[j + 1]][i]
    return continuant(diag, off)


def hadamard_fischer_check(w: IntegerMatrix, blocks):
    """Dense check that det W <= the product of its principal block minors.

    w is a Gram matrix U U^T, hence positive semidefinite, so the inequality
    is a theorem and a False result indicates a bug.  blocks must partition
    range(w.rows), else ValueError.  Returns (holds, det W, product,
    minors), minors in block order, every determinant by Bareiss.
    """
    if sorted(i for block in blocks for i in block) != list(range(w.rows)):
        raise ValueError("blocks do not partition the indices of W")
    lhs = determinant(w)
    minors = tuple(
        determinant(IntegerMatrix.from_rows([[w.entries[i][j] for j in block] for i in block]))
        for block in blocks
    )
    rhs = prod(minors)
    return lhs <= rhs, lhs, rhs, minors


def corrupt_cramer_check(monkeypatch, kind: str) -> None:
    """Make the one elimination of systems.solve_assembled return one wrong
    Cramer numerator, moved one away from zero (so a det A of -1 does not
    become the 0 of a singular matrix).

    "numerator": det A_i at the column after the unit column u (mod n), so
    Cramer's identity det A_i t = y_i det A fails at that column alone.
    "det_a": det A_u, which is det A, so the identity fails at every
    column but u.
    """
    real_minors = relmag.systems._signed_maximal_minors
    real_assemble = relmag.systems.assemble
    unit_column = []

    def assemble(system):
        asm = real_assemble(system)
        unit_column.append(asm.column_of[1])
        return asm

    def minors(rows, n):
        d = real_minors(rows, n)
        u = unit_column[-1]
        i = u if kind == "det_a" else (u + 1) % n
        d[i] += 1 if d[i] >= 0 else -1
        return d

    monkeypatch.setattr(relmag.systems, "assemble", assemble)
    monkeypatch.setattr(relmag.systems, "_signed_maximal_minors", minors)


def halving_dsl(n: int) -> str:
    """The chain x_1 = 1, 2 x_(i+1) = x_i of n variables: x_i = 1 / 2^(i-1),
    so the solution is y / t with t = 2^(n-1)."""
    return "k=2; x1=1; " + "; ".join("2x%d-x%d=0" % (i + 1, i) for i in range(1, n))


def corrupt_first_pivot_row(monkeypatch) -> None:
    """Make matrices._sparse_echelon add 1 to the first row's entry in the
    last column after it eliminates, so that back substitution over that
    row leaves a remainder."""
    real = relmag.matrices._sparse_echelon

    def corrupted(rows, n):
        out = real(rows, n)
        rows[0][n - 1] += 1
        return out

    monkeypatch.setattr(relmag.matrices, "_sparse_echelon", corrupted)


def corrupt_reduced_solution(monkeypatch, index: int) -> None:
    """Make systems.reduce_system return a trace whose reduced_y[index] is
    off by one, after the reduction's own checks have passed it."""
    real = relmag.systems.reduce_system

    def reduce_system(system):
        reduced, trace = real(system)
        y = list(trace.reduced_y)
        y[index] += 1
        return reduced, trace._replace(reduced_y=tuple(y))

    monkeypatch.setattr(relmag.systems, "reduce_system", reduce_system)


def corrupt_expansion(monkeypatch, var: int, delta: int) -> None:
    """Make systems.reduce_system return a trace whose solution of the
    original system, trace.y, has y_var (1-based) off by delta, after the
    reduction's own checks have passed it."""
    real = relmag.systems.reduce_system

    def reduce_system(system):
        reduced, trace = real(system)
        y = list(trace.y)
        y[var - 1] += delta
        return reduced, trace._replace(y=tuple(y))

    monkeypatch.setattr(relmag.systems, "reduce_system", reduce_system)


def corrupt_reduction_solve(monkeypatch, values: dict[int, int]) -> None:
    """Make the reduction's solve, systems._solve_augmented, return
    x_v = values[v] for each variable v given, counted as a pivot."""
    real = relmag.systems._solve_augmented

    def solve(rows, n):
        pivots, y, t = real(rows, n)
        y = list(y)
        for v, value in values.items():
            y[v] = value * t
        return sorted(set(pivots) | set(values)), y, t

    monkeypatch.setattr(relmag.systems, "_solve_augmented", solve)


def corrupt_reduced_size(monkeypatch) -> None:
    """Make every step of systems.solve_and_certify after its solve see an
    assembled system of one column fewer, so the bound k^(n-1) is taken at
    the wrong size n.  assemble returns asm._replace(n=asm.n - 1), and the
    solve runs on the true Assembled, rebuilt from it."""
    real_assemble = relmag.systems.assemble
    real_solve = relmag.systems.solve_assembled

    def assemble(system):
        asm = real_assemble(system)
        return asm._replace(n=asm.n - 1)

    def solve_assembled(asm, reduced_y, den):
        return real_solve(asm._replace(n=asm.n + 1), reduced_y, den)

    monkeypatch.setattr(relmag.systems, "assemble", assemble)
    monkeypatch.setattr(relmag.systems, "solve_assembled", solve_assembled)


# ---------------------------------------------------------------------------
# the statement parser that parse_system was before its token scan

_K_HEADER = re.compile(r"k\s*=\s*(\d+)\s*$")
_COEFVAR = re.compile(r"(\d+)\s*\*?\s*x\s*(\d+)")
_VAR = re.compile(r"x\s*(\d+)")
_NUM = re.compile(r"(\d+)")


def _reference_parse_side(s: str, line_no: int, col_base: int):
    """Parse one side of an equation into (constant, [(coeff, var), ...],
    column of its first constant term or None)."""
    const = 0
    const_col = None
    terms: list[tuple[int, int]] = []
    pos = 0
    pending: int | None = None
    seen_term = False
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        ch = s[pos]
        if ch in "+-":
            if pending is not None:
                raise ParseError("unexpected sign", line_no, col_base + pos)
            pending = 1 if ch == "+" else -1
            pos += 1
            continue
        if seen_term and pending is None:
            raise ParseError("expected '+' or '-'", line_no, col_base + pos)
        sign = pending if pending is not None else 1
        m = _COEFVAR.match(s, pos) or _VAR.match(s, pos)
        if m:
            coeff = int(m.group(1)) if m.lastindex == 2 else 1
            var = int(m.group(m.lastindex))
            if coeff == 0:
                raise ParseError("zero coefficient", line_no, col_base + pos)
            if var < 1:
                raise ParseError("variable indices start at 1", line_no, col_base + pos)
            if var > MAX_VARIABLES:
                raise ParseError(
                    "variable index %d exceeds the limit %d" % (var, MAX_VARIABLES),
                    line_no,
                    col_base + pos,
                )
            terms.append((sign * coeff, var))
        else:
            m = _NUM.match(s, pos)
            if not m:
                raise ParseError("expected term", line_no, col_base + pos)
            const += sign * int(m.group(1))
            const_col = col_base + pos if const_col is None else const_col
        pos = m.end()
        pending = None
        seen_term = True
    if pending is not None:
        raise ParseError("dangling sign", line_no, col_base + len(s))
    if not seen_term:
        raise ParseError("empty expression", line_no, col_base)
    return const, terms, const_col


def reference_parse_system(text: str) -> System:
    """The system DSL parser as it was before the token scan, kept verbatim
    as the reference that test_systems.TestScan compares parse_system with.

    Grammar: optional ``k=<int>`` header (default 2); statements separated
    by ';' or newlines; equations ``xI = 1``, ``xI = -1``,
    ``+-xI +- xJ ... = 0`` and the sugar ``xI + xJ = xK``.  Coefficients
    like ``3x1`` abbreviate repeated unit terms.  Variable indices run
    from 1 to MAX_VARIABLES.
    """
    text = text.replace("−", "-")
    k = 2
    equations: list[Equation] = []
    statement_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        offset = 0
        for chunk in line.split("#", 1)[0].split(";"):
            stripped = chunk.strip()
            if stripped:
                statement_no += 1
                col = offset + chunk.index(stripped[0])
                m = _K_HEADER.match(stripped)
                if m:
                    if statement_no != 1:
                        raise ParseError("k header must be the first statement", line_no, col)
                    k = int(m.group(1))
                    if k < 2:
                        raise ParseError("k must be >= 2", line_no, col)
                else:
                    eq = _reference_parse_equation(stripped, line_no, col)
                    if isinstance(eq, SumEquation) and eq.weight() > k + 1:
                        raise ParseError(_overweight_message(eq, k), line_no, col)
                    equations.append(eq)
            offset += len(chunk) + 1
    if not equations:
        raise ParseError("no equations", 1, 0)
    maxvar = max(
        (e.var if isinstance(e, UnitEquation) else max(v for _, v in e.terms))
        for e in equations
    )
    return System(k=k, nvars=maxvar, equations=tuple(equations))


def _reference_parse_equation(s: str, line_no: int, col_base: int) -> Equation:
    sides = s.split("=")
    if len(sides) != 2:
        raise ParseError("equation needs exactly one '='", line_no, col_base)
    lconst, lterms, lcol = _reference_parse_side(sides[0], line_no, col_base)
    rconst, rterms, rcol = _reference_parse_side(sides[1], line_no, col_base + len(sides[0]) + 1)
    const = lconst - rconst
    terms = lterms + [(-c, v) for c, v in rterms]
    if not terms:
        raise ParseError("equation has no variables", line_no, col_base)
    if const == 0:
        return SumEquation(terms=tuple(terms))
    if len(terms) == 1 and abs(terms[0][0]) == 1 and abs(const) == 1:
        coeff, var = terms[0]
        return UnitEquation(var=var, sign=-const * coeff)
    if abs(const) > 1:
        col = rcol if lcol is None else lcol
        raise ParseError("right-hand side must be 0, 1 or -1", line_no, col)
    raise ParseError("a right-hand side of +-1 needs a single term +-xI", line_no, col_base)


# ---------------------------------------------------------------------------
# System validation, the reduction and its solution checks as they were
# before each of them read every equation in one plain loop, kept as the
# reference that test_systems.TestReductionOracle compares them with


def unit_equations(system: System) -> list[UnitEquation]:
    return [e for e in system.equations if isinstance(e, UnitEquation)]


def sum_equations(system: System) -> list[SumEquation]:
    return [e for e in system.equations if isinstance(e, SumEquation)]


def combined(eq: SumEquation) -> dict[int, int]:
    """The terms of eq with each variable's coefficients added up, those
    that add up to zero left out."""
    d: dict[int, int] = {}
    for c, v in eq.terms:
        d[v] = d.get(v, 0) + c
    return {v: c for v, c in d.items() if c != 0}


def reference_validate(k: int, nvars: int, equations) -> None:
    """The checks of System.__init__, kept verbatim on the fields of a
    System, which they raise SystemError_ on."""
    if k < 2:
        raise SystemError_("k must be >= 2, got %d" % k)
    if nvars < 1:
        raise SystemError_("system needs at least one variable")
    if nvars > MAX_VARIABLES:
        raise SystemError_(
            "system has %d variables, limit is %d" % (nvars, MAX_VARIABLES)
        )
    for eq in equations:
        if isinstance(eq, UnitEquation):
            if eq.sign not in (1, -1):
                raise SystemError_("unit equation sign must be +-1")
            if not 1 <= eq.var <= nvars:
                raise SystemError_("variable x%d out of range" % eq.var)
        else:
            if not eq.terms:
                raise SystemError_("empty homogeneous equation")
            for c, v in eq.terms:
                if c == 0:
                    raise SystemError_("zero coefficient")
                if not 1 <= v <= nvars:
                    raise SystemError_("variable x%d out of range" % v)
            if eq.weight() > k + 1:
                raise SystemError_(_overweight_message(eq, k))


def reference_check_solution(system: System, x, den: int = 1) -> bool:
    """Exact check of the candidate solution x / den (1-based values in x).

    Every equation but the unit ones is homogeneous, so only a unit
    equation reads den: it holds when x_var = sign * den.
    """
    for eq in system.equations:
        if isinstance(eq, UnitEquation):
            if x[eq.var - 1] != eq.sign * den:
                return False
        else:
            if sum(c * x[v - 1] for c, v in eq.terms) != 0:
                return False
    return True


def reference_reduce_system(system: System) -> tuple[System, ReductionTrace]:
    """systems.reduce_system as it was, verbatim but for the helpers
    above, with reference_solve_augmented for its solve, so that it shares
    no back substitution with the package: reduce to an equivalent square
    system with unique nonzero solution.

    Steps: fold extra unit equations into differences; zero out free
    variables; drop zero-valued variables; merge variables equal up to
    sign; cancel opposite terms; keep an independent equation set; absorb
    the unit sign.  The reduced system has first equation x_1 = 1, every
    solution coordinate nonzero, pairwise distinct absolute values, and
    every homogeneous equation with at least two variables.  The maximum
    absolute coordinate value is preserved.  The steps read the solution
    as integers y over one denominator t: zero, equal and opposite values
    of y are those of x = y / t.
    """
    k = system.k
    units = unit_equations(system)
    if not units:
        raise AllHomogeneousError("no unit equation; the zero vector solves the system")

    # step 1: keep one unit equation, turn the others into differences
    uvar, usign = units[0].var, units[0].sign
    converted: list[tuple[int, int]] = []
    eqs: list[dict[int, int]] = []
    for ue in units[1:]:
        if ue.var == uvar:
            if ue.sign != usign:
                raise UnsolvableSystemError("system is unsolvable")
            continue
        eqs.append({ue.var: 1, uvar: -ue.sign * usign})
        converted.append((ue.var, ue.sign))
    cancelled: list[SumEquation] = []
    for se in sum_equations(system):
        d = combined(se)
        if sum(abs(c) for c in d.values()) < se.weight():
            cancelled.append(se)
        if d:
            eqs.append(d)

    # steps 2-4 collect one substitution `target`: a free (step 2) or
    # zero-valued (step 3) variable maps to None, one equal up to sign to
    # a kept variable (step 4: keep the smallest index, preferring the unit
    # variable) to (kept, sign)
    rows = [{uvar: 1, system.nvars + 1: usign}]
    rows.extend(d.copy() for d in eqs)
    solved = reference_solve_augmented(rows, system.nvars + 1)
    if solved is None:
        raise UnsolvableSystemError("system is unsolvable")
    pivots, y, den, _ = solved
    values = {v: y[v] for v in pivots}
    zeroed_free = tuple(v for v in range(1, system.nvars + 1) if v not in values)
    target: dict[int, tuple[int, int] | None] = dict.fromkeys(zeroed_free)
    zeroed_solved = tuple(sorted(v for v in values if values[v] == 0))
    for v in zeroed_solved:
        target[v] = None
        del values[v]
    groups: dict[int, list[int]] = {}
    for v in sorted(values):
        groups.setdefault(abs(values[v]), []).append(v)
    merges: list[tuple[int, int, int]] = []
    for key in sorted(groups):
        grp = groups[key]
        keep = uvar if uvar in grp else grp[0]
        for j in grp:
            if j != keep:
                sgn = 1 if values[j] == values[keep] else -1
                merges.append((j, sgn, keep))
                target[j] = (keep, sgn)
    for j, _, _ in merges:
        del values[j]
    # apply it once, cancelling opposite terms as it goes (step 5); a kept
    # variable is never a target
    for d in eqs:
        for v in [v for v in d if v in target]:
            c = d.pop(v)
            if target[v] is not None:
                keep, sgn = target[v]
                nc = d.get(keep, 0) + sgn * c
                if nc:
                    d[keep] = nc
                else:
                    del d[keep]
    eqs = [d for d in eqs if d]
    if any(len(d) == 1 for d in eqs):
        raise ReductionError("single-variable homogeneous equation survived steps 2-4")
    for d in eqs:
        if sum(abs(c) for c in d.values()) > k + 1:
            raise ReductionError("coefficient weight exceeded k+1 after merging")
    active = set(values)

    # select an independent equation set: unit row + n-1 homogeneous rows
    n = len(active)
    selected = _select_equations(uvar, eqs, active)
    dropped = len(eqs) - len(selected)
    if len(selected) != n - 1:
        raise ReductionError("could not select %d independent equations" % (n - 1))
    # step 6 (sign absorption): make the unit equation x = +1
    flipped = usign == -1
    if flipped:
        for d in selected:
            if uvar in d:
                d[uvar] = -d[uvar]
        values[uvar] = den

    # final rename: unit variable first, the rest ascending
    others = sorted(v for v in active if v != uvar)
    rename = {uvar: 1}
    for i, v in enumerate(others, start=2):
        rename[v] = i
    reduced_y = [0] * n
    for v in active:
        reduced_y[rename[v] - 1] = values[v]
    equations: list[Equation] = [UnitEquation(var=1, sign=1)]
    for d in selected:
        terms = tuple(sorted(((c, rename[v]) for v, c in d.items()), key=lambda t: t[1]))
        equations.append(SumEquation(terms=terms))
    reduced = System(k=k, nvars=n, equations=tuple(equations))
    trace = ReductionTrace(
        kept_unit=(uvar, usign),
        converted_units=tuple(converted),
        cancelled=tuple(cancelled),
        zeroed_free=zeroed_free,
        zeroed_solved=zeroed_solved,
        merges=tuple(merges),
        dropped_dependent=dropped,
        unit_sign_flipped=flipped,
        rename=rename,
        y=tuple(y[1:]),
        reduced_y=tuple(reduced_y),
        den=den,
    )
    reference_check_reduced(reduced, trace)
    return reduced, trace


def reference_check_reduced(reduced: System, trace: ReductionTrace) -> None:
    """Machine-check the reduced-system postconditions."""
    y = trace.reduced_y
    if not reference_check_solution(reduced, y, trace.den):
        raise ReductionError("reduced solution does not satisfy the reduced system")
    if 0 in y:
        raise ReductionError("reduced solution has a zero coordinate")
    absvals = [abs(v) for v in y]
    if len(set(absvals)) != len(absvals):
        raise ReductionError("reduced solution has coincident absolute values")
    first = reduced.equations[0]
    if not (isinstance(first, UnitEquation) and first.var == 1 and first.sign == 1):
        raise ReductionError("reduced system does not start with x1 = 1")
    for eq in reduced.equations[1:]:
        if not isinstance(eq, SumEquation) or len(eq.terms) < 2:
            raise ReductionError("reduced homogeneous equation with fewer than 2 variables")
        vars_ = [v for _, v in eq.terms]
        if len(set(vars_)) != len(vars_):
            raise ReductionError("duplicate variable in reduced equation")
