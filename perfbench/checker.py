"""Independent check of every output, run outside the timed region.

Nothing here calls relmag.  Solutions are evaluated exactly against the
generated equations; a rejection is confirmed by comparing the rank of the
coefficient matrix with that of the augmented matrix (sympy); circuits are
recomputed as the minimal dependent column sets, found with this module's
own integer elimination; the omega certificate is recomputed from the
circuits.  Each check returns None when the output is right, else a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import gcd

from workloads import MatrixSpec, SystemSpec


def check(spec: SystemSpec | MatrixSpec, output: str) -> str | None:
    try:
        doc = json.loads(output)
    except ValueError:
        return "output is not JSON"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if "error" in doc:
        return "raised %s: %s" % (doc["error"], doc.get("message"))
    if isinstance(spec, SystemSpec):
        if "rejected" in doc:
            return None if not _solvable(spec) else "solvable system was rejected"
        return _check_solution(spec, doc)
    return _check_omega(spec, doc)


# ---------------------------------------------------------------------------
# systems


def _solvable(spec: SystemSpec) -> bool:
    """rank [A] == rank [A | b], over QQ with sympy's DomainMatrix."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = spec.nvars
    rows = []
    for terms, rhs in spec.equations:
        row = [0] * (n + 1)
        for c, v in terms:
            row[v - 1] += c
        row[n] = rhs
        rows.append(row)
    augmented = DomainMatrix.from_list(rows, QQ)
    return augmented[:, :n].rank() == augmented.rank()


def _check_solution(spec: SystemSpec, doc: dict) -> str | None:
    k = spec.k
    if doc.get("k") != k or doc.get("trivial") is not False:
        return "wrong k or trivial flag"
    x = {int(name[1:]): Fraction(v) for name, v in doc["solution"].items()}
    for terms, rhs in spec.equations:
        if any(v not in x for _, v in terms):
            return "solution misses a variable"
        if sum(c * x[v] for c, v in terms) != rhs:
            return "solution fails an equation"
    max_abs = max(abs(v) for v in x.values())
    n = doc["n"]
    if n < 1 or doc["bound"] != k ** (n - 1):
        return "bound is not k^(n-1)"
    if Fraction(doc["max_abs"]) != max_abs or not doc["bound_ok"] or max_abs > doc["bound"]:
        return "max |x_i| exceeds or misreports the bound"
    if doc["sharp"] != (max_abs == doc["bound"]):
        return "sharp flag is wrong"
    if spec.expect_max is not None and max_abs != spec.expect_max:
        return "max |x_i| is not k^(n-1) on an extremal instance"
    cert = doc["certification"]
    if cert is None or cert.get("all_ok") is not True:
        return "certification missing or not all_ok"
    if cert["n"] != n or cert["k"] != k or cert["bound"] != k ** (2 * (n - 1)):
        return "certification header is wrong"
    if len(cert["columns"]) != n or Fraction(cert["max_abs"]) != max_abs:
        return "certification does not cover the reduced solution"
    magnitudes = {abs(v) for v in x.values()}
    for col in cert["columns"]:
        xi = Fraction(col["x"])
        det_w, det_u = col["det_w"], col["det_u"]
        if not (
            col["ok"]
            and abs(xi) in magnitudes
            and xi * xi <= det_w <= cert["bound"]
            and det_w == det_u * det_u
            and det_w <= col["hf_product"]
            and abs(xi * doc["det_a"]) == abs(det_u)
        ):
            return "certificate column %d fails x^2 <= det W <= k^(2(n-1))" % col["i"]
    return None


# ---------------------------------------------------------------------------
# matrices


def int_rank(rows: list[list[int]]) -> int:
    """Rank by cross-multiplying integer elimination (no division)."""
    rows = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        p = rows[rk]
        for i in range(rk + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [p[c] * a - f * b for a, b in zip(rows[i], p)]
        rk += 1
    return rk


def _columns(rows, idx) -> list[list[int]]:
    return [[row[j] for j in idx] for row in rows]


def circuit_supports(rows) -> list[tuple[int, ...]]:
    """All minimal dependent column sets, by increasing size.

    A set is dependent iff its column rank is below its size; scanning by
    size and skipping supersets of sets already found leaves exactly the
    minimal ones.  No circuit has more than rank + 1 columns.
    """
    n = len(rows[0])
    found: list[tuple[int, ...]] = []
    masks: list[int] = []
    for size in range(1, min(n, int_rank(rows) + 1) + 1):
        for idx in combinations(range(n), size):
            mask = sum(1 << j for j in idx)
            if any(m & mask == m for m in masks):
                continue
            if int_rank(_columns(rows, idx)) < size:
                found.append(idx)
                masks.append(mask)
    return found


def _omega(vector, support) -> Fraction:
    mags = [abs(vector[j]) for j in support]
    return Fraction(max(mags), min(mags))


def _check_omega(spec: MatrixSpec, doc: dict) -> str | None:
    rows = spec.rows
    n = len(rows[0])
    circs = doc["circuits"]
    supports = []
    for c in circs:
        sup = tuple(j - 1 for j in c["support"])
        v = c["vector"]
        if len(v) != n or tuple(j for j in range(n) if v[j]) != sup:
            return "circuit vector does not match its support"
        if any(sum(a * b for a, b in zip(row, v)) for row in rows):
            return "circuit is not a null vector"
        g = 0
        for e in v:
            g = gcd(g, e)
        if g != 1 or v[sup[0]] < 0:
            return "circuit vector is not primitive and canonical"
        if int_rank(_columns(rows, sup)) != len(sup) - 1:
            return "circuit support has rank != |I| - 1"
        supports.append(sup)
    if sorted(supports) != sorted(circuit_supports(rows)):
        return "circuit list is not the set of all circuits"
    cert = doc["omega"]
    rk = int_rank(rows)
    norm = max(sum(abs(e) for e in row) for row in rows)
    if cert["verdict"] is not True or cert["rank"] != rk or cert["nullity"] != n - rk:
        return "certificate verdict, rank or nullity is wrong"
    if cert["norm"] != norm or cert["exact"] != (n - rk == 1):
        return "certificate norm or exactness is wrong"
    if not circs:
        if cert["omega_upper"] != "0" or rk != n:
            return "omega of a full-rank matrix is not 0"
        return None
    omegas = [_omega(c["vector"], s) for c, s in zip(circs, supports)]
    best = min(omegas)
    t = min(len(s) for s in supports)
    if Fraction(cert["omega_upper"]) != best:
        return "omega_upper is not the minimum over the circuits"
    w = cert["witness"]
    if w not in circs or _omega(w["vector"], [j - 1 for j in w["support"]]) != best:
        return "witness is not a circuit attaining omega_upper"
    if cert["min_support"] != t:
        return "min_support is wrong"
    if norm >= 3:
        if cert["theorem_bound"] != (norm - 1) ** rk or cert["support_bound"] != (norm - 1) ** (t - 1):
            return "theorem or support bound is wrong"
        if not best <= (norm - 1) ** (t - 1) <= (norm - 1) ** rk:
            return "omega exceeds (norm-1)^(t-1)"
    elif any(o != 1 for o in omegas):
        return "a norm <= 2 matrix has a circuit with omega != 1"
    if cert["sharp"] != (cert["theorem_bound"] is not None and best == cert["theorem_bound"]):
        return "sharp flag is wrong"
    return None


# ---------------------------------------------------------------------------
# self-test


def count_failed(specs, outputs) -> int:
    return sum(check(s, o) is not None for s, o in zip(specs, outputs))


def _with(output: str, change) -> str:
    doc = json.loads(output)
    change(doc)
    return json.dumps(doc, indent=2)


def _flip_first_sign(doc):
    name, value = next((n, v) for n, v in doc["solution"].items() if Fraction(v) != 0)
    doc["solution"][name] = str(-Fraction(value))


def _omega_plus_one(doc):
    doc["omega"]["omega_upper"] = str(Fraction(doc["omega"]["omega_upper"]) + 1)


def selftest(system: SystemSpec, solved: str, matrix: MatrixSpec, omega: str):
    """Plant four wrong outputs beside their correct versions and count.

    solved and omega are correct outputs for the solvable system and the
    matrix.  Returns (planted, failed among the planted, failed among the
    correct); a sound checker gives (4, 4, 0).
    """
    planted = [
        _with(solved, _flip_first_sign),
        _with(omega, lambda d: d["circuits"].pop()),
        _with(omega, _omega_plus_one),
        json.dumps({"rejected": "unsolvable", "message": "system is unsolvable"}),
    ]
    specs = [system, matrix, matrix, system]
    correct = [solved, omega, omega, solved]
    return len(planted), count_failed(specs, planted), count_failed(specs, correct)
