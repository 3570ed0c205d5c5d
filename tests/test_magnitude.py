"""Relative magnitude of vectors and certified matrix bounds."""

import random
from fractions import Fraction

import pytest

from conftest import omega_upper, omega_vector, oracle_circuits, random_matrix, restricted
from relmag import circuits, matrices
from relmag.circuits import EnumerationTooLarge, enumerate_circuits
from relmag.generators import extremal_matrix
from relmag.magnitude import MagnitudeCertificate, omega_matrix_upper
from relmag.matrices import IntegerMatrix, infinity_norm, nullspace_basis, rank


class TestOmegaVector:
    def test_examples(self):
        assert omega_vector([Fraction(1, 2), 3, -6]) == 12
        assert omega_vector([1, 1, 1]) == 1
        assert omega_vector([0, 2, -4]) == 2  # zeros ignored in the min only
        assert omega_vector([5]) == 1

    def test_zero_vector_undefined(self):
        with pytest.raises(ValueError):
            omega_vector([0, 0])
        with pytest.raises(ValueError):
            omega_vector([Fraction(0), 0])

    def test_int_and_fraction_inputs_agree(self):
        rng = random.Random(45)
        for _ in range(200):
            x = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            if not any(x):
                continue
            w = omega_vector(x)
            assert type(w) is Fraction
            assert w == omega_vector([Fraction(v) for v in x])

    def test_invariances(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 6)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            if all(v == 0 for v in x):
                continue
            w = omega_vector(x)
            assert w >= 1
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert omega_vector([scale * v for v in x]) == w
            assert omega_vector([-v for v in x]) == w
            shuffled = x[:]
            rng.shuffle(shuffled)
            assert omega_vector(shuffled) == w


class TestOmegaMatrix:
    def test_full_rank_zero(self):
        cert = omega_matrix_upper(IntegerMatrix.from_rows([[1, 0], [0, 1]]))
        assert omega_upper(cert) == 0
        assert cert.exact and cert.verdict
        assert cert.witness is None

    def test_chain_family_exact(self):
        for k in (2, 3, 5):
            for n in (2, 3, 4, 5):
                cert = omega_matrix_upper(extremal_matrix(k, n))
                assert cert.exact
                assert omega_upper(cert) == k ** (n - 1)
                assert cert.norm == k + 1
                assert cert.rank == n - 1
                assert cert.theorem_bound == k ** (n - 1)
                assert cert.sharp
                assert cert.verdict

    def test_all_ones_row(self):
        cert = omega_matrix_upper(IntegerMatrix.from_rows([[1, 1, 1]]))
        assert omega_upper(cert) == 1
        assert not cert.exact  # nullity 2: circuit minimum is an upper bound
        assert cert.min_support == 2
        assert cert.verdict

    def test_min_support(self):
        chain = omega_matrix_upper(IntegerMatrix.from_rows([[2, -1, 0], [0, 2, -1]]))
        assert chain.min_support == 3
        assert omega_matrix_upper(IntegerMatrix.from_rows([[1, 0], [0, 1]])).min_support is None

    def test_checks_hold_randomized(self):
        rng = random.Random(47)
        for _ in range(300):
            a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
            cert = omega_matrix_upper(a)
            assert cert.verdict, cert.to_text()
            if cert.nullity > 0:
                assert omega_upper(cert) >= 1
                if cert.norm >= 3:
                    assert omega_upper(cert) <= (cert.norm - 1) ** cert.rank

    def test_serialization(self):
        cert = omega_matrix_upper(extremal_matrix(2, 3))
        d = cert.to_dict()
        assert d["omega_upper"] == "4"
        assert d["sharp"] is True
        assert "witness" in d and d["verdict"] is True
        assert "omega_upper=4" in cert.to_text()


class TestSmallNorm:
    """For norm <= 2 the certificate checks that every circuit has ratio 1."""

    def test_zero_matrix(self):
        cert = omega_matrix_upper(IntegerMatrix.from_rows([[0, 0]]))
        assert omega_upper(cert) == 1  # every singleton column is a circuit of ratio 1
        assert dict(cert.checks)["small_norm_all_circuits_unit"]

    def test_dichotomy_examples(self):
        cert = omega_matrix_upper(IntegerMatrix.from_rows([[1, 1], [1, -1]]))
        assert omega_upper(cert) == 0 and cert.nullity == 0 and cert.verdict
        cert = omega_matrix_upper(IntegerMatrix.from_rows([[1, -1, 0], [0, 1, -1]]))
        assert omega_upper(cert) == 1
        assert dict(cert.checks)["small_norm_all_circuits_unit"]
        assert cert.theorem_bound is None and cert.support_bound is None

    def test_dichotomy_randomized(self):
        rng = random.Random(53)
        checked = 0
        while checked < 300:
            a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5), lo=-1, hi=1)
            if infinity_norm(a) > 2:
                continue
            cert = omega_matrix_upper(a)
            assert cert.verdict, cert.to_text()
            assert omega_upper(cert) in (0, 1)
            if cert.nullity:
                assert dict(cert.checks)["small_norm_all_circuits_unit"]
            checked += 1


def _fraction_certificate(a):
    """The certificate from its definition, in Fractions: omega_vector of
    every circuit, the first minimum as witness, each bound compared as a
    rational, and the rank from its own elimination.  The bound is kept as
    the witness's max and min |x|, whose ratio is that minimum."""
    norm, rk = infinity_norm(a), rank(a)
    nullity = a.cols - rk
    if nullity == 0:
        return MagnitudeCertificate(
            0, 1, True, None, norm, rk, 0, None,
            (norm - 1) ** rk if norm >= 3 else None, None, False,
            (("zero_iff_full_rank", True),),
        )
    circs = enumerate_circuits(a)
    omegas = [omega_vector(restricted(c)) for c in circs]
    best = min(omegas)
    t = min(len(c.support) for c in circs)
    checks = [("omega_ge_1", best >= 1)]
    theorem_bound = support_bound = None
    if norm >= 3:
        theorem_bound = (norm - 1) ** rk
        support_bound = (norm - 1) ** (t - 1)
        checks += [
            ("omega_le_support_bound", best <= support_bound),
            ("support_bound_le_theorem_bound", support_bound <= theorem_bound),
            ("every_circuit_le_support_power",
             all(w <= (norm - 1) ** (len(c.support) - 1) for c, w in zip(circs, omegas))),
        ]
    else:
        checks.append(("small_norm_all_circuits_unit", all(w == 1 for w in omegas)))
    witness = circs[omegas.index(best)]
    mags = [abs(v) for v in restricted(witness)]
    assert Fraction(max(mags), min(mags)) == best
    return MagnitudeCertificate(
        max(mags), min(mags), nullity == 1, witness, norm, rk, nullity, t,
        theorem_bound, support_bound, theorem_bound is not None and best == theorem_bound,
        tuple(checks),
    )


def test_integer_certificate_matches_fraction_oracle():
    """omega_matrix_upper's integer cross-multiplication gives the same
    certificate, witness and verdicts as Fraction arithmetic over
    omega_vector, on random matrices of at most 4x8."""
    rng = random.Random(67)
    seen = {"small_norm": 0, "large_norm": 0, "nullity_ge_2": 0, "tied_minimum": 0, "sharp": 0}
    for trial in range(600):
        m, n = rng.randint(1, 4), rng.randint(2, 8)
        bound = (1, 1, 2, 3)[trial % 4]
        a = random_matrix(rng, m, n, lo=-bound, hi=bound)
        cert = omega_matrix_upper(a)
        assert cert == _fraction_certificate(a), a.entries
        assert type(cert.omega_hi) is type(cert.omega_lo) is int
        if cert.nullity:
            seen["small_norm" if cert.norm <= 2 else "large_norm"] += 1
            seen["nullity_ge_2"] += cert.nullity >= 2
            omegas = [omega_vector(restricted(c)) for c in enumerate_circuits(a)]
            seen["tied_minimum"] += omegas.count(omega_upper(cert)) > 1
            seen["sharp"] += cert.sharp
    assert all(count >= 5 for count in seen.values()), seen


def test_one_elimination_per_matrix(monkeypatch):
    """omega_matrix_upper eliminates A once: the rank is the column count
    minus the length of the null-space basis that the circuit walk starts
    from."""
    rng = random.Random(47)
    cases = [
        IntegerMatrix.from_rows([[x ** i for x in range(1, 9)] for i in range(4)]),
        IntegerMatrix.from_rows([[1, 0], [0, 1]]),
        extremal_matrix(3, 4),
    ] + [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6)) for _ in range(20)]
    ranks = [rank(a) for a in cases]
    calls = 0
    real = matrices._sparse_echelon

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(matrices, "_sparse_echelon", counted)
    for a, rk in zip(cases, ranks):
        calls = 0
        cert = omega_matrix_upper(a)
        assert calls == 1
        assert (cert.rank, cert.nullity) == (rk, a.cols - rk)


VANDERMONDE = [[x ** i for x in range(1, 9)] for i in range(4)]


# nullity 5 > rank + 1 = 4: enumerate_circuits walks
VANDERMONDE_3X8 = VANDERMONDE[:3]


def _count_passes(monkeypatch, rows):
    """The calls made by omega_matrix_upper then enumerate_circuits on one
    matrix of these rows, then by enumerate_circuits on an equal matrix
    parsed afresh: (calls after the first two, calls after all three)."""
    calls = {"_sparse_echelon": 0, "_extend": 0, "_extend_whole": 0, "_support": 0, "comb": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(matrices, "_sparse_echelon")
    for name in ("_extend", "_extend_whole", "_support", "comb"):
        counted(circuits, name)
    a = IntegerMatrix.from_rows(rows)
    cert = omega_matrix_upper(a)
    circs = enumerate_circuits(a)
    first = dict(calls)
    assert cert.witness in circs and omega_matrix_upper(a) == cert
    assert enumerate_circuits(IntegerMatrix.from_rows(rows)) == circs
    return first, calls


def test_omega_and_circuits_walk_once(monkeypatch):
    """omega_matrix_upper then enumerate_circuits on one matrix eliminate,
    walk, and find the null-space support and count the candidate
    supports once (the second call runs the guard on the count kept beside
    the circuit list); an equal matrix parsed afresh pays all of it again."""
    first, calls = _count_passes(monkeypatch, VANDERMONDE_3X8)
    # one _support per basis vector, one comb per support size 1..rank + 1
    assert first == {"_sparse_echelon": 1, "_extend": 63, "_extend_whole": 0, "_support": 5, "comb": 4}
    assert calls == {"_sparse_echelon": 2, "_extend": 126, "_extend_whole": 0, "_support": 10, "comb": 8}


def test_omega_and_circuits_dual_once(monkeypatch):
    """The same on the dual route: one elimination, one dual enumeration,
    and one count, of the support sizes 1..nullity - 1."""
    first, calls = _count_passes(monkeypatch, VANDERMONDE)
    assert first == {"_sparse_echelon": 1, "_extend": 0, "_extend_whole": 27, "_support": 4, "comb": 3}
    assert calls == {"_sparse_echelon": 2, "_extend": 0, "_extend_whole": 54, "_support": 8, "comb": 6}


def test_guard_runs_on_every_call(monkeypatch):
    """A walk kept on the matrix does not lift the candidate guard."""
    monkeypatch.setattr(circuits, "CANDIDATE_LIMIT", 10)
    a = IntegerMatrix.from_rows(VANDERMONDE)
    assert len(enumerate_circuits(a, allow_large=True)) == 56
    with pytest.raises(EnumerationTooLarge):
        enumerate_circuits(a)
    with pytest.raises(EnumerationTooLarge):
        omega_matrix_upper(a)


def test_results_are_fresh_copies():
    """Mutating a returned basis or circuit list leaves the next result as
    it was."""
    a = IntegerMatrix.from_rows(VANDERMONDE)
    basis, circs = nullspace_basis(a), enumerate_circuits(a)
    want_basis, want_circs = basis[:], circs[:]
    basis.clear()
    circs.reverse()
    circs.pop()
    assert nullspace_basis(a) == want_basis
    assert enumerate_circuits(a) == want_circs


def test_memo_is_not_part_of_the_value():
    """==, hash and repr see the entries only, not what the matrix keeps."""
    a, b = IntegerMatrix.from_rows(VANDERMONDE), IntegerMatrix.from_rows(VANDERMONDE)
    omega_matrix_upper(a)
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "IntegerMatrix(entries=%r)" % (a.entries,)


def test_failed_walk_keeps_nothing(monkeypatch):
    """A walk that raises stores no circuit list: once the fault is gone,
    the same matrix walks again and gets the right circuits."""
    real = circuits._extend

    def extend(rows, r, piv, c, prev):
        ext = real(rows, r, piv, c, prev)
        ext[r] = ext[r][:c + 1] + [ext[r][c + 1] + 1] + ext[r][c + 2:]
        return ext

    # nullity 3 > rank + 1 = 2: the walk
    a = IntegerMatrix.from_rows([[1, 2, 3, 4]])
    monkeypatch.setattr(circuits, "_extend", extend)
    with pytest.raises(ArithmeticError, match="is not a null vector"):
        enumerate_circuits(a)
    monkeypatch.setattr(circuits, "_extend", real)
    assert [c.vector for c in enumerate_circuits(a)] == [
        (2, -1, 0, 0), (3, 0, -1, 0), (4, 0, 0, -1), (0, 3, -2, 0), (0, 2, 0, -1), (0, 0, 4, -3)]


def test_failed_dual_keeps_nothing(monkeypatch):
    """The same on the dual route, with a step that doubles the last row
    after its pivot column."""
    real = circuits._extend_whole

    def extend_whole(rows, r, piv, c, prev):
        ext = real(rows, r, piv, c, prev)
        ext[-1] = ext[-1][:c + 1] + [2 * e for e in ext[-1][c + 1:]]
        return ext

    # nullity 3 <= rank + 1 = 3: the dual route, with one step before the last
    a = IntegerMatrix.from_rows([[1, 2, 3, 4, 5], [2, 3, 5, 7, 11]])
    monkeypatch.setattr(circuits, "_extend_whole", extend_whole)
    with pytest.raises(ArithmeticError, match="is not a null vector"):
        enumerate_circuits(a)
    monkeypatch.setattr(circuits, "_extend_whole", real)
    circs = enumerate_circuits(a)
    assert len(circs) == 10 and circs == oracle_circuits(a)
