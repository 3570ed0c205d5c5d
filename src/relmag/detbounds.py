"""Determinant bounds backing the magnitude certification.

The closed-form determinants of the tridiagonal chain blocks, written
once as a table of integer polynomials in K = k^2 and Q = K^t that
det_closed_form evaluates and verify_recurrences proves, as identities
in K and Q, for every size t and every k; the coefficient norm bounds
for residual equations; and the per-column certification chain
x_i^2 <= det W_i <= k^(2(n-1)) for assembled systems, one loop for
every column, the single column of n = 1 included.  The certification
eliminates no matrix and reads A through its nonzero (column, value)
pairs: det U_i = +-det A_i, the Cramer numerator from the solve,
det W_i = det U_i^2, each chain block minor of W_i is one product of a
prefix and a suffix continuant, computed once per chain and checked
against its closed form, and each residual block minor is a squared row
norm less one square; their Hadamard-Fischer product bounds det W_i.
All checks are integer-exact: the solution arrives as integers y over
one denominator t, x = y / t, and the report keeps them so; its text
writes each x_i and the maximum in lowest terms.
"""

from __future__ import annotations

from typing import NamedTuple

from relmag.matrices import _decimal, format_ratio


class LemmaViolationError(AssertionError):
    """A proved determinant identity or bound failed; must never fire."""


# each chain-block closed form times K - 1, as an integer polynomial
# {(i, j): c}, the sum of the terms c K^i Q^j, in K = k^2 and Q = K^t: the
# one table that det_closed_form evaluates and verify_recurrences proves
CLOSED_FORMS = {
    "B": {(1, 1): 1, (0, 0): -1},  # K Q - 1
    "C": {(1, 1): 1, (0, 1): -1},  # K Q - Q
    "D": {(1, 0): 1, (0, 0): -1},  # K - 1
}


def det_closed_form(family: str, t: int, k: int) -> int:
    """Closed-form determinant of a t x t block of the family, the same
    for every off-diagonal sign pattern: B_t = 1 + K + ... + K^t,
    C_t = K^t and D_t = 1, K = k^2, and 1 at size 0.

    Its CLOSED_FORMS numerator at Q = K^t, divided by K - 1.  Every
    numerator vanishes at K = Q = 1, so at K = 1 the quotient is the
    numerator's derivative in K there, the sum of c (i + t j).
    """
    K = k * k
    num = 0
    for (i, j), c in CLOSED_FORMS[family].items():
        num += c * (i + t * j if K == 1 else K ** (i + t * j))
    return num if K == 1 else num // (K - 1)


def _add(*polys):
    """The sum of polynomials {(i, j): c} in K and Q, zero terms dropped,
    so that two polynomials are equal exactly when their dicts are."""
    out = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _mul(p, r):
    return _add(*({(i + a, j + b): c * d} for (i, j), c in p.items() for (a, b), d in r.items()))


def _shift(p, s, q=1):
    """p with Q replaced by K^s Q^q: at size t + s for q = 1, at t = s for q = 0."""
    return _add(*({(i + s * j, q * j): c} for (i, j), c in p.items()))


class RecurrenceReport(NamedTuple):
    base_cases: int
    recurrences: int


def verify_recurrences() -> RecurrenceReport:
    """Prove the CLOSED_FORMS table by induction on t: for every size
    t >= 1 and every k >= 1, the quotient that det_closed_form evaluates
    is the determinant of the t x t block of each family.

    The t x t block of family B, C or D has diagonal K + 1, K = k^2,
    except a last entry K in C and a first entry 1 in D, and off-diagonal
    entries +-k.  A tridiagonal determinant reads an off-diagonal entry
    only through its square (+-k)^2 = K, so one check covers every sign
    pattern.  Expanding along the last row (B, C) or the first row (D),

        B_t = (K + 1) B_(t-1) - K B_(t-2),
        C_t = K B_(t-1) - K B_(t-2),
        D_t = B_(t-1) - K B_(t-2),

    for t >= 3, so the closed forms are the determinants at every t once
    they hold at t = 1, 2 and satisfy the recurrences.  Times K - 1, each
    is an equality of integer polynomials in K and Q, checked term by term:

    - each numerator's coefficients sum to 0: it vanishes at K = Q = 1;
    - each base case: K - 1 times the 1 x 1 or 2 x 2 determinant, d_1 or
      d_1 d_2 - K, of the block entries is the numerator at Q = K^t;
    - each recurrence, at Q = K^(t-2): the numerator of the family at
      K^2 Q is the recurrence's combination of those of B at K Q and Q.

    Identities in K and Q hold at every t and K; as the numerators vanish
    at K = Q = 1, their K-derivatives at K = 1 are the same statements
    for the K = 1 quotients.  The table is read directly, never through
    det_closed_form.  A failed equality raises LemmaViolationError.
    """
    one, K, minus_K = {(0, 0): 1}, {(1, 0): 1}, {(1, 0): -1}
    K_plus_1, K_minus_1 = _add(K, one), _add(K, {(0, 0): -1})
    base = recurrences = 0
    for family in "BCD":
        if sum(CLOSED_FORMS[family].values()):
            raise LemmaViolationError(
                "closed form of det %s_t times K - 1 is not 0 at K = 1" % family)
        for t in (1, 2):
            diag = [K_plus_1] * t
            if family == "C":
                diag[-1] = K
            elif family == "D":
                diag[0] = one
            det = diag[0] if t == 1 else _add(_mul(diag[0], diag[1]), minus_K)
            if _mul(K_minus_1, det) != _shift(CLOSED_FORMS[family], t, 0):
                raise LemmaViolationError(
                    "closed form of det %s_%d is not the determinant of its block" % (family, t))
            base += 1
    b = CLOSED_FORMS["B"]
    for family, first in (("B", K_plus_1), ("C", K), ("D", one)):
        if _shift(CLOSED_FORMS[family], 2) != _add(_mul(first, _shift(b, 1)), _mul(minus_K, b)):
            raise LemmaViolationError("closed form of det %s_t fails its recurrence" % family)
        recurrences += 1
    return RecurrenceReport(base_cases=base, recurrences=recurrences)


def enumerate_residual_multisets(k: int) -> list[tuple[int, ...]]:
    """All residual-equation coefficient multisets for a given k.

    Nonincreasing tuples of 2..k+1 positive coefficients with total at
    most k+1, excluding the k-to-1 chain pattern {k, 1}.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, cap: int):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        if len(prefix) == k + 1:
            return
        for c in range(min(cap, remaining), 0, -1):
            prefix.append(c)
            rec(prefix, remaining - c, c)
            prefix.pop()

    for first in range(k + 1, 0, -1):
        rec([first], k + 1 - first, first)
    return [m for m in out if sorted(m) != sorted((k, 1))]


class CoefficientBoundReport(NamedTuple):
    k: int
    multisets_checked: int
    bound: int


def verify_coefficient_bounds(k: int) -> CoefficientBoundReport:
    """Exhaustively check the residual coefficient norm bounds for one k.

    Every admissible multiset must satisfy sum c^2 <= min(k^2-1,
    (k-1)^2+4), and with any one coefficient deleted the rest must
    satisfy sum c^2 <= (k-1)^2+1.  Both bounds must be attained, the
    first by the stated extremal multiset.  Violations raise
    LemmaViolationError, so a returned report has every check passed.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    bound = min(k * k - 1, (k - 1) ** 2 + 4)
    deletion_bound = (k - 1) ** 2 + 1
    equality = False
    deletion_equality = False
    multisets = enumerate_residual_multisets(k)
    for m in multisets:
        norm_sq = sum(c * c for c in m)
        if norm_sq > bound:
            raise LemmaViolationError(
                "coefficients %s have norm %d > %d (k=%d)" % (m, norm_sq, bound, k)
            )
        if norm_sq == bound:
            equality = True
        for drop in set(m):
            rest = norm_sq - drop * drop
            if rest > deletion_bound:
                raise LemmaViolationError(
                    "coefficients %s minus %d have norm %d > %d (k=%d)"
                    % (m, drop, rest, deletion_bound, k)
                )
            if rest == deletion_bound:
                deletion_equality = True
    # the known extremal multiset must be present; it is tight by
    # arithmetic: (k-1)^2 + 4 <= k^2 - 1 iff k >= 3, and at k = 2 the
    # bound is 3 = 1 + 1 + 1
    witness = (1, 1, 1) if k == 2 else (k - 1, 2)
    if witness not in multisets:
        raise LemmaViolationError("extremal multiset %s missing (k=%d)" % (witness, k))
    if not equality or not deletion_equality:
        raise LemmaViolationError("equality cases not attained (k=%d)" % k)
    return CoefficientBoundReport(k=k, multisets_checked=len(multisets), bound=bound)


class ColumnCertificate(NamedTuple):
    index: int  # 1-based column
    case: int  # 1 = cuts a chain, 2 = meets residual rows only, 0 = neither (n = 1)
    y_i: int  # x_i = y_i / t, t of the CertificationReport
    det_w: int
    det_u: int
    hf_product: int
    ok: bool

    def to_line(self, bound: int, t: int) -> str:
        return "i=%d case=%d x=%s detW=%d bound=%d %s" % (
            self.index,
            self.case,
            format_ratio(self.y_i, t),
            self.det_w,
            bound,
            "OK" if self.ok else "FAIL",
        )


class CertificationReport(NamedTuple):
    n: int
    k: int
    bound: int  # k^(2(n-1))
    entries: tuple[ColumnCertificate, ...]
    t: int  # common denominator of the x_i = y_i / t, t > 0
    max_y: int  # max |y_i|
    sharp: bool

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_dict(self) -> dict:
        t = self.t
        return {
            "n": self.n,
            "k": self.k,
            "bound": self.bound,
            "columns": [
                {
                    "i": e.index,
                    "case": e.case,
                    "x": format_ratio(e.y_i, t),
                    "det_w": e.det_w,
                    "det_u": e.det_u,
                    "hf_product": e.hf_product,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
            "max_abs": format_ratio(self.max_y, t),
            "sharp": self.sharp,
            "all_ok": self.all_ok,
        }

    def to_text(self) -> str:
        lines = [e.to_line(self.bound, self.t) for e in self.entries]
        lines.append(
            "certification: max=%s sharp=%s %s"
            % (
                format_ratio(self.max_y, self.t),
                "yes" if self.sharp else "no",
                "OK" if self.all_ok else "FAIL",
            )
        )
        return "\n".join(lines)


def _chain_tridiagonal(a, rows, cols):
    """Diagonal and off-diagonal of the chain block of G = A' A'^T, and
    the entries (u_j, v_j) of chain row j at cols[j] and cols[j+1].

    Row j of the chain must hold exactly two nonzero pairs, at cols[j] and
    cols[j+1]; then rows j and j+1 share only column cols[j+1], rows
    further apart share none, and the block is tridiagonal.
    """
    ends = []
    for j, r in enumerate(rows):
        row = a[r]
        if not (len(row) == 2 and row[0][0] == cols[j] and row[1][0] == cols[j + 1]
                and row[0][1] and row[1][1]):
            raise RuntimeError(
                "chain row %d is not supported on columns %d, %d" % (r, cols[j], cols[j + 1])
            )
        ends.append((row[0][1], row[1][1]))
    diag = [u * u + v * v for u, v in ends]
    off = [v * u for (_, v), (u, _) in zip(ends, ends[1:])]
    return diag, off, ends


def _chain_minors(a, rows, cols, k: int):
    """det B_t of one chain block, and its minor in W_i for i = cols[p],
    p = 0..t, each checked against its closed form.

    The prefix continuants f_j (leading j x j block) and the suffix
    continuants g_j (rows j..t-1) follow Muir's three-term recurrence,
    f_j = d_(j-1) f_(j-1) - e_(j-2)^2 f_(j-2), and both f_t and g_0 must
    equal det B_t.  c_i meets the chain in row p-1, which ends at column
    i with entry v_(p-1), and in row p, which starts there with entry
    u_p.  The downdate W_i = G - c_i c_i^T lowers those two diagonal
    entries by v_(p-1)^2 and u_p^2 and sets the off-diagonal entry
    between them to zero, so the block splits, and its minor is L_p R_p
    with L_p = f_p - v_(p-1)^2 f_(p-1) (L_0 = 1) and
    R_p = g_p - u_p^2 g_(p+1) (R_t = 1).  It must equal
    det C_p det D_(t-p) = k^(2p) * 1, else LemmaViolationError.
    """
    diag, off, ends = _chain_tridiagonal(a, rows, cols)
    t = len(rows)
    f = [1, diag[0]]
    for j in range(1, t):
        f.append(diag[j] * f[j] - off[j - 1] ** 2 * f[j - 1])
    g = [1, diag[-1]]  # g_t, g_(t-1), ..., g_0: reversed below
    for j in range(t - 2, -1, -1):
        g.append(diag[j] * g[-1] - off[j] ** 2 * g[-2])
    g.reverse()
    det_b = det_closed_form("B", t, k)
    if f[t] != det_b or g[0] != det_b:
        raise LemmaViolationError(
            "chain block at rows %d..%d has det %s (prefix) and %s (suffix), "
            "closed form det B_%d says %s"
            % (rows[0], rows[-1], _decimal(f[t]), _decimal(g[0]), t, _decimal(det_b))
        )
    k2 = k * k
    expected = 1  # det C_p = k^(2p) and det D_q = 1, by a running product
    minors = []
    for p in range(t + 1):
        left = f[p] - ends[p - 1][1] ** 2 * f[p - 1] if p else 1
        right = g[p] - ends[p][0] ** 2 * g[p + 1] if p < t else 1
        minor = left * right
        if minor != expected:
            raise LemmaViolationError(
                "column %d cuts a chain block with det %s, closed form det C_%d det D_%d says %s"
                % (cols[p] + 1, _decimal(minor), p, t - p, _decimal(expected))
            )
        minors.append(minor)
        expected *= k2
    return det_b, minors


def certify_solution_bound(asm, y, t: int, det_ai) -> CertificationReport:
    """Run the per-column certification x_i^2 <= det W_i <= k^(2(n-1)).

    asm is an assembled square system (unit row first, chain blocks,
    residual rows), x = y / t its exact solution, as integers y over the
    denominator t > 0 of the reduction, and det_ai the Cramer numerators
    det A_i = x_i det A; y and det_ai are as returned by
    systems.solve_assembled.  x_i^2 <= det W_i
    is tested as y_i^2 <= det W_i t^2.  U_i is A without its first row
    and column i, and W_i = U_i U_i^T = G - c_i c_i^T, with G = A' A'^T,
    A' the rows 2..n of A and c_i column i of A'.  No matrix is eliminated:

    - det U_i = (-1)^i det A_i (0-based i): det A_i expanded along its
      column i, which is e_1;
    - det W_i = det U_i^2 (Cauchy-Binet, U_i being square);
    - each chain block of W_i is tridiagonal.  Per chain, the prefix and
      suffix continuants are computed once; det B_t, the minor when column
      i misses the chain, is their last and first term, and the minor
      when i is the chain's column p (tail first) is the product of one
      prefix and one suffix term, downdated at the cut (_chain_minors).
      Each must equal its closed form, det B_t or det C_p det D_q, else
      LemmaViolationError;
    - each residual block is 1 x 1, the squared row norm less a_ri^2.

    The Hadamard-Fischer product of these minors bounds det W_i.  It is
    formed once for a column that cuts nothing and, per column, the
    factors that column i changes (its chain's det B_t and the norms of
    the residual rows holding x_i, found through a column index) are
    divided out and their minors multiplied in.  The work is linear in
    the nonzeros of A, up to big-integer arithmetic.  Case 1 columns cut
    a chain block, case 2 columns meet residual rows only, and case 0
    columns meet neither, which only the single column of n = 1 does: its
    U_1 is empty and det U_1 = det W_1 = 1 by the empty-product convention.
    """
    n, k = asm.n, asm.k
    bound = k ** (2 * (n - 1))
    a = asm.rows
    # base: the Hadamard-Fischer product for a column that cuts nothing,
    # every chain's det B_t times every residual row's squared norm
    base = 1
    cut_by = {}  # column -> (det B_t of its chain, its minor in W_i, k^(2t))
    for rows, cols in zip(asm.chain_rows, asm.chain_cols):
        det_b, minors = _chain_minors(a, rows, cols, k)
        base *= det_b
        cap = k ** (2 * len(rows))
        cut_by.update((c, (det_b, m, cap)) for c, m in zip(cols, minors))
    met_by = {}  # column -> [(a_ri, squared norm of row r)] over residual rows r
    for r in asm.type3_rows:
        norm = sum(e * e for _, e in a[r])
        base *= norm
        for c, e in a[r]:
            if e:
                met_by.setdefault(c, []).append((e, norm))
    t2 = t * t
    entries = []
    for i, yi in enumerate(y):
        det_u = -det_ai[i] if i % 2 else det_ai[i]
        det_w = det_u * det_u
        # replace the factors of base that W_i changes: every factor is
        # >= 1 (a chain block equals its closed form, a residual row
        # has a nonzero entry), so the division is exact
        removed = replaced = 1
        met = met_by.get(i, ())
        for e, norm in met:
            removed *= norm
            replaced *= norm - e * e
        if i in cut_by:
            case = 1
            det_b, minor, cap = cut_by[i]
            removed *= det_b
            replaced *= minor
            # the cut chain's principal minor is det C_p det D_q <= k^(2t)
            ok = minor <= cap
        else:
            case = 2 if met else 0
            # every residual row containing x_i has its diagonal entry bounded
            ok = all(norm - e * e <= (k - 1) ** 2 + 1 <= k * k - 2 for e, norm in met)
        hf_product = base // removed * replaced
        ok = ok and yi * yi <= det_w * t2 and det_w <= hf_product and det_w <= bound
        entries.append(ColumnCertificate(i + 1, case, yi, det_w, det_u, hf_product, ok))
    max_y = max(abs(v) for v in y)
    return CertificationReport(
        n=n,
        k=k,
        bound=bound,
        entries=tuple(entries),
        t=t,
        max_y=max_y,
        sharp=max_y == k ** (n - 1) * t,
    )
