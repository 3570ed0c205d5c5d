"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is exact (zero tolerance) and carries a wall-clock
budget.  Run with ``pytest -v tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

from conftest import (
    omega_upper,
    omega_vector,
    oracle_circuits,
    random_matrix,
    random_system,
    reduced_solution,
    solution,
)
from relmag.circuits import enumerate_circuits
from relmag.generators import extremal_matrix, extremal_system
from relmag.magnitude import omega_matrix_upper
from relmag.matrices import IntegerMatrix, infinity_norm, rank
from relmag.systems import UnsolvableSystemError, check_solution, solve_and_certify
from relmag.detbounds import verify_coefficient_bounds, verify_recurrences


def _report(num, label, ok, elapsed, budget, detail):
    line = "criterion %d (%s): %s in %.2fs (budget %ds) - %s" % (
        num, label, "PASS" if ok and elapsed < budget else "FAIL", elapsed, budget, detail,
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_sharpness_of_magnitude_bound():
    start = time.monotonic()
    checked = 0
    ok = True
    for k in range(2, 7):
        for n in range(2, 11):
            cert = omega_matrix_upper(extremal_matrix(k, n))
            expected = k ** (n - 1)
            ok = ok and (
                cert.exact
                and omega_upper(cert) == expected
                and cert.norm == k + 1
                and cert.rank == n - 1
                and cert.theorem_bound == expected
                and cert.sharp
                and cert.verdict
            )
            checked += 1
    _report(1, "sharp homogeneous family", ok, time.monotonic() - start, 5,
            "%d (k, n) pairs, omega = (norm-1)^rank exactly" % checked)


def test_criterion_2_sharpness_of_solution_bound():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 33):
        rep = solve_and_certify(extremal_system(2, n), certify=False)
        ok = ok and Fraction(rep.max_y, rep.t) == 2 ** (n - 1) == rep.bound and rep.sharp
        checked += 1
    for k in range(2, 7):
        for n in range(2, 17):
            rep = solve_and_certify(extremal_system(k, n), certify=False)
            ok = ok and Fraction(rep.max_y, rep.t) == k ** (n - 1) == rep.bound and rep.sharp
            checked += 1
    _report(2, "sharp system family", ok, time.monotonic() - start, 5,
            "%d systems, max |x_i| = k^(n-1) exactly" % checked)


def test_criterion_3_chain_block_determinants():
    start = time.monotonic()
    matrices = 0
    for k in range(1, 8):
        rep = verify_recurrences(10, k)  # raises on any mismatch
        matrices += rep.matrices_checked
    expected = 7 * 3 * sum(2 ** (t - 1) for t in range(1, 11))
    _report(3, "block determinant identities", matrices == expected,
            time.monotonic() - start, 60,
            "%d matrices, closed form == cofactor expansion" % matrices)


def test_criterion_4_coefficient_bounds():
    start = time.monotonic()
    multisets = 0
    ok = True
    for k in range(2, 9):
        rep = verify_coefficient_bounds(k)  # raises on any violation
        multisets += rep.multisets_checked
        ok = ok and rep.bound == min(k * k - 1, (k - 1) ** 2 + 4)
    _report(4, "coefficient norm bounds", ok, time.monotonic() - start, 1,
            "%d multisets for k <= 8, equality cases attained" % multisets)


def test_criterion_5_certification_fuzz():
    start = time.monotonic()
    rng = random.Random(20260501)
    solved = 0
    ok = True
    while solved < 1000:
        system = random_system(rng, kmax=4, nmax=10)
        try:
            rep = solve_and_certify(system)
        except UnsolvableSystemError:
            continue
        if rep.trivial:
            continue
        sound = (
            rep.certification.all_ok
            and check_solution(system, rep.y, rep.t)
            and max(abs(v) for v in solution(rep))
            == max(abs(v) for v in reduced_solution(rep.trace))
            and Fraction(rep.max_y, rep.t) <= rep.bound
        )
        ok = ok and sound
        solved += 1
    _report(5, "solution-bound certification fuzz", ok, time.monotonic() - start, 120,
            "%d solvable systems fully certified, reductions sound" % solved)


@lru_cache(maxsize=1)
def _small_norm_corpus():
    out = []
    for m in (1, 2):
        for n in (1, 2, 3, 4):
            for entries in product((-1, 0, 1), repeat=m * n):
                a = IntegerMatrix.from_rows(
                    [list(entries[i * n:(i + 1) * n]) for i in range(m)]
                )
                if infinity_norm(a) <= 2:
                    out.append(a)
    return out


def test_criterion_6_small_norm_dichotomy():
    start = time.monotonic()
    corpus = _small_norm_corpus()
    ok = True
    nontrivial = 0
    for a in corpus:
        cert = omega_matrix_upper(a)
        ok = ok and cert.verdict and omega_upper(cert) in (0, 1)
        if cert.nullity:
            # the verdict includes the check that every circuit has omega 1
            ok = ok and dict(cert.checks).get("small_norm_all_circuits_unit") is True
            nontrivial += 1
    _report(6, "small-norm dichotomy", ok, time.monotonic() - start, 60,
            "%d matrices exhaustive, every circuit of the %d with a nontrivial "
            "null space omega=1" % (len(corpus), nontrivial))


def test_criterion_7_elementary_vector_bound():
    start = time.monotonic()
    rng = random.Random(20260502)
    checked = 0
    ok = True
    while checked < 10000:
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
        norm = infinity_norm(a)
        if norm < 3:
            continue
        circs = enumerate_circuits(a)
        for c in circs:
            w = omega_vector(c.restricted())
            ok = ok and w <= (norm - 1) ** (len(c.support) - 1)
        if circs:
            t = min(len(c.support) for c in circs)
            best = min(omega_vector(c.restricted()) for c in circs)
            ok = ok and best <= (norm - 1) ** (t - 1) <= (norm - 1) ** rank(a)
        checked += 1
    _report(7, "elementary vector bound", ok, time.monotonic() - start, 120,
            "%d random matrices, every circuit within (norm-1)^(|I|-1)" % checked)


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    total = 0
    for a in _small_norm_corpus():
        if enumerate_circuits(a) != oracle_circuits(a):
            mismatches += 1
        total += 1
    rng = random.Random(20260503)
    for _ in range(1000):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 10))
        if enumerate_circuits(a) != oracle_circuits(a):
            mismatches += 1
        total += 1
    _report(8, "enumeration vs exhaustive oracle", mismatches == 0,
            time.monotonic() - start, 120,
            "%d matrices compared, %d discrepancies" % (total, mismatches))
