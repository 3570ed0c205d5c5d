"""Relative magnitude of vectors and certified matrix bounds."""

import random
from fractions import Fraction

import pytest

from conftest import omega_upper, omega_vector, random_matrix
from relmag import matrices
from relmag.circuits import enumerate_circuits
from relmag.generators import extremal_matrix
from relmag.magnitude import MagnitudeCertificate, omega_matrix_upper
from relmag.matrices import IntegerMatrix, infinity_norm, rank


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
    omegas = [omega_vector(c.restricted()) for c in circs]
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
    mags = [abs(v) for v in witness.restricted()]
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
            omegas = [omega_vector(c.restricted()) for c in enumerate_circuits(a)]
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
