"""Determinant closed forms, Hadamard-Fischer, coefficient bounds."""

import random

import pytest
from conftest import (
    build_chain_block,
    chain_block,
    continuant,
    cut_chain_minor,
    delete_row_col,
    dense_rows,
    determinant_cofactor,
    hadamard_fischer_check,
    mutate_closed_form,
    random_system,
    vanishing_to,
)

import relmag.detbounds
import relmag.matrices
from relmag.detbounds import (
    ColumnCertificate,
    LemmaViolationError,
    _chain_minors,
    certify_solution_bound,
    det_closed_form,
    enumerate_residual_multisets,
    verify_coefficient_bounds,
    verify_recurrences,
)
from relmag.generators import extremal_dsl, extremal_system
from relmag.matrices import IntegerMatrix, determinant
from relmag.systems import (
    UnsolvableSystemError,
    assemble,
    parse_system,
    reduce_system,
    solve_assembled,
)


class TestChainBlocks:
    def test_build_small(self):
        b2 = build_chain_block("B", 2, 2)
        assert b2.entries == ((5, 2), (2, 5))
        c2 = build_chain_block("C", 2, 2)
        assert c2.entries == ((5, 2), (2, 4))
        d2 = build_chain_block("D", 2, 2)
        assert d2.entries == ((1, 2), (2, 5))

    def test_build_rejects_empty_block(self):
        with pytest.raises(ValueError) as exc:
            build_chain_block("B", 0, 2)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "cannot build a 0 x 0 matrix; det is 1 by convention"

    def test_closed_forms_small(self):
        assert det_closed_form("B", 1, 2) == 5
        assert det_closed_form("B", 2, 2) == 21
        assert det_closed_form("C", 2, 2) == 16
        assert det_closed_form("D", 3, 5) == 1
        # size-0 blocks have determinant 1 by convention
        for fam in "BCD":
            assert det_closed_form(fam, 0, 3) == 1

    def test_k1_branch(self):
        for t in range(1, 8):
            assert det_closed_form("B", t, 1) == t + 1
            assert determinant(build_chain_block("B", t, 1)) == t + 1

    def test_sign_pattern_independence(self):
        assert determinant(build_chain_block("B", 3, 3, (1, 1))) == determinant(
            build_chain_block("B", 3, 3, (1, -1))
        )

    def test_closed_form_matches_cofactor(self):
        for k in (1, 2, 4):
            for t in range(1, 7):
                for fam in "BCD":
                    assert determinant_cofactor(build_chain_block(fam, t, k)) == (
                        det_closed_form(fam, t, k)
                    )

    def test_verify_recurrences(self):
        rep = verify_recurrences()
        assert rep == (6, 3)  # 3 families x 2 sizes; one recurrence per family
        assert rep._asdict() == {"base_cases": 6, "recurrences": 3}

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rejects_closed_form_wrong_for_large_t(self, monkeypatch, family, k):
        """A numerator changed by a multiple of (Q - K)...(Q - K^10), which
        no block up to t = 10 can see, fails the induction.  For k >= 2 the
        closed form is wrong from t = 11 on.  At k = 1 every closed form is
        linear in t, so no change can hide up to t = 10 and show later:
        this one never shows there, and the table still fails, being no
        identity in K."""
        before = [det_closed_form(family, t, k) for t in range(1, 12)]
        mutate_closed_form(monkeypatch, family, vanishing_to(10))
        after = [det_closed_form(family, t, k) for t in range(1, 12)]
        blocks = [determinant(build_chain_block(family, t, k)) for t in range(1, 11)]
        assert after[:10] == before[:10] == blocks
        assert (after[10] != before[10]) == (k > 1)
        with pytest.raises(LemmaViolationError) as exc:
            verify_recurrences()
        assert str(exc.value) == "closed form of det %s_t fails its recurrence" % family

    @pytest.mark.parametrize("t", [1, 2])
    def test_rejects_wrong_base_case(self, monkeypatch, t):
        """C changed by (K - 1)(Q - K^(3-t)): wrong at size t, right at
        the other base size and, times K - 1, still 0 at K = Q = 1."""
        mutate_closed_form(monkeypatch, "C", {(1, 1): 1, (0, 1): -1, (4 - t, 0): -1, (3 - t, 0): 1})
        assert det_closed_form("C", t, 3) == 9 ** t + (-1) ** t * 72
        assert det_closed_form("C", 3 - t, 3) == 9 ** (3 - t)
        with pytest.raises(LemmaViolationError) as exc:
            verify_recurrences()
        assert str(exc.value) == "closed form of det C_%d is not the determinant of its block" % t

    def test_rejects_b_plus_one(self, monkeypatch):
        """B_t + 1, the numerator plus K - 1, satisfies the B recurrence
        at every t and every k; the base cases reject it.  Certification
        evaluates the same table, so it moves too, and a certified solve
        fails."""
        mutate_closed_form(monkeypatch, "B", {(1, 0): 1, (0, 0): -1})
        assert [det_closed_form("B", t, 1) for t in range(40)] == list(range(2, 42))
        assert det_closed_form("B", 2, 2) == 22
        with pytest.raises(LemmaViolationError) as exc:
            verify_recurrences()
        assert str(exc.value) == "closed form of det B_1 is not the determinant of its block"
        with pytest.raises(LemmaViolationError, match="closed form det B_3 says 86"):
            certify_solution_bound(*_certify_args(extremal_system(2, 4)))

    def test_rejects_c_off_by_k_to_the_t(self, monkeypatch):
        """C_t + K^t, the numerator plus (K - 1) Q."""
        mutate_closed_form(monkeypatch, "C", {(1, 1): 1, (0, 1): -1})
        assert [det_closed_form("C", t, 3) for t in range(6)] == [2 * 9 ** t for t in range(6)]
        with pytest.raises(LemmaViolationError) as exc:
            verify_recurrences()
        assert str(exc.value) == "closed form of det C_1 is not the determinant of its block"

    def test_rejects_numerator_not_zero_at_k_1(self, monkeypatch):
        """A numerator that does not vanish at K = Q = 1 has no K = 1
        value as its derivative; it is rejected before any identity."""
        mutate_closed_form(monkeypatch, "D", {(0, 0): 1})
        with pytest.raises(LemmaViolationError) as exc:
            verify_recurrences()
        assert str(exc.value) == "closed form of det D_t times K - 1 is not 0 at K = 1"


class TestHadamardFischer:
    """The dense check in conftest that certification is compared against."""

    def test_simple_partition(self):
        # U = [[1,1,0],[0,1,1]] gives W = [[2,1],[1,2]], det 3 <= 2*2
        u = IntegerMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        holds, lhs, rhs, minors = hadamard_fischer_check(u.gram(), ((0,), (1,)))
        assert holds and lhs == 3 and rhs == 4 and minors == (2, 2)

    def test_single_block_is_equality(self):
        u = IntegerMatrix.from_rows([[2, 1], [1, -3]])
        holds, lhs, rhs, minors = hadamard_fischer_check(u.gram(), ((0, 1),))
        assert holds and lhs == rhs and minors == (lhs,)

    def test_partition_validation(self):
        w = IntegerMatrix.from_rows([[1, 0], [0, 1]]).gram()
        with pytest.raises(ValueError):
            hadamard_fischer_check(w, ((0,),))  # misses index 1
        with pytest.raises(ValueError):
            hadamard_fischer_check(w, ((0,), (0, 1)))  # overlap


class TestCoefficientBounds:
    def test_enumeration_small(self):
        ms = enumerate_residual_multisets(2)
        assert set(ms) == {(1, 1), (1, 1, 1)}

    def test_chain_pattern_excluded(self):
        for k in range(2, 7):
            assert all(sorted(m) != sorted((k, 1)) for m in enumerate_residual_multisets(k))

    def test_verify_bounds(self):
        for k in range(2, 9):
            rep = verify_coefficient_bounds(k)
            assert rep.bound == min(k * k - 1, (k - 1) ** 2 + 4)

    def test_verify_bounds_rejects_k_below_2(self):
        with pytest.raises(ValueError) as exc:
            verify_coefficient_bounds(1)
        assert type(exc.value) is ValueError and str(exc.value) == "k must be >= 2"

    def _without(self, monkeypatch, dropped):
        real = enumerate_residual_multisets
        monkeypatch.setattr(
            relmag.detbounds, "enumerate_residual_multisets",
            lambda k: [m for m in real(k) if m != dropped],
        )

    def test_missing_extremal_multiset(self, monkeypatch):
        # (2, 2) is the only multiset at k = 3 with norm 8, the bound
        self._without(monkeypatch, (2, 2))
        with pytest.raises(LemmaViolationError, match=r"extremal multiset \(2, 2\) missing"):
            verify_coefficient_bounds(3)

    def _with(self, monkeypatch, extra):
        real = enumerate_residual_multisets
        monkeypatch.setattr(
            relmag.detbounds, "enumerate_residual_multisets", lambda k: real(k) + [extra],
        )

    def test_norm_bound_exceeded(self, monkeypatch):
        # the k-to-1 chain pattern, which the enumeration leaves out
        self._with(monkeypatch, (3, 1))
        with pytest.raises(LemmaViolationError) as exc:
            verify_coefficient_bounds(3)
        assert str(exc.value) == "coefficients (3, 1) have norm 10 > 8 (k=3)"

    def test_deletion_bound_exceeded(self, monkeypatch):
        # weight 6 > k + 1 = 5; norm 12 is within 13, but less a 1 it is 11 > 10
        self._with(monkeypatch, (3, 1, 1, 1))
        with pytest.raises(LemmaViolationError) as exc:
            verify_coefficient_bounds(4)
        assert str(exc.value) == "coefficients (3, 1, 1, 1) minus 1 have norm 11 > 10 (k=4)"

    def test_deletion_equality_not_attained(self, monkeypatch):
        # (2, 1, 1) less a 1 is the only deletion at k = 3 reaching 5, the bound
        self._without(monkeypatch, (2, 1, 1))
        with pytest.raises(LemmaViolationError, match="equality cases not attained"):
            verify_coefficient_bounds(3)

    def test_bound_interplay(self):
        # the inequalities the certification chain relies on
        for k in range(2, 12):
            assert (k - 1) ** 2 + 1 <= k * k - 2
            assert (k * k - 1) ** 2 > k * k * (k * k - 2)

    def test_cut_chain_minor_bound(self):
        # det C_p * det D_q <= k^(2t) whenever p + q = t
        for k in (2, 3, 5):
            for t in range(1, 7):
                for p in range(t + 1):
                    q = t - p
                    prod = det_closed_form("C", p, k) * det_closed_form("D", q, k)
                    assert prod <= k ** (2 * t)


# two chains x1 -> x2 -> x3 and x4 -> x5 -> x6 joined by a residual row;
# x7 occurs in a residual row only, so its column is case 2
MULTI_CHAIN = "k=3; x1=1; 3x2=x1; 3x3=x2; 3x5=x4; 3x6=x5; x4-x1-x2-x3=0; x7-x1-x3=0"


def _certify_args(system):
    """(asm, y, t, det A_i): the arguments certify_solution_bound takes."""
    reduced, trace = reduce_system(system)
    asm = assemble(reduced)
    y, _, det_ai = solve_assembled(asm, trace.reduced_y, trace.den)
    return asm, y, trace.den, det_ai


class TestCertification:
    def _assembled(self, text):
        return _certify_args(parse_system(text))

    def test_sharp_chain_all_case1(self):
        args = self._assembled(extremal_dsl(2, 4))
        rep = certify_solution_bound(*args)
        assert rep.all_ok and rep.sharp
        assert rep.bound == 2 ** 6
        assert all(e.case == 1 for e in rep.entries)
        assert all(e.det_w == e.det_u * e.det_u for e in rep.entries)

    def test_mixed_cases(self):
        args = self._assembled("k=3; x1=1; 3x2=x1; 3x4=x3; x3-x1-x1=0")
        rep = certify_solution_bound(*args)
        assert rep.all_ok
        cases = {e.case for e in rep.entries}
        assert cases == {1}  # every column cuts one of the two chains

    def test_case2_column(self):
        # x4 appears only in residual equations, so its column is case 2
        args = self._assembled("k=3; x1=1; 3x2=x1; x1+x2-x4=0")
        rep = certify_solution_bound(*args)
        assert rep.all_ok
        assert 2 in {e.case for e in rep.entries}

    def test_n1_convention(self):
        args = self._assembled("k=2; x1=1; x2=1")
        rep = certify_solution_bound(*args)
        # U_1 is empty, so det U_1 = det W_1 = 1, and x1 meets no other row
        assert rep.n == 1 and rep.all_ok and rep.entries == (
            ColumnCertificate(index=1, case=0, y_i=1, det_w=1, det_u=1, hf_product=1, ok=True),
        )

    def test_serialization(self):
        args = self._assembled(extremal_dsl(2, 3))
        rep = certify_solution_bound(*args)
        d = rep.to_dict()
        assert d["all_ok"] is True and d["bound"] == 16
        assert len(d["columns"]) == 3
        assert "certification: max=4 sharp=yes OK" in rep.to_text()

    def test_chain_structure_enforced(self):
        asm, y, t, det_ai = _certify_args(extremal_system(2, 4))
        rows = list(asm.rows)
        for bad in (
            ((1, 2), (3, -1)),  # the second chain row skips chain column 2
            ((1, 2), (2, -1), (3, 1)),  # a third pair
            ((1, 2), (2, 0)),  # a zero-valued pair
        ):
            rows[2] = bad
            with pytest.raises(RuntimeError, match="not supported on columns 1, 2"):
                certify_solution_bound(asm._replace(rows=tuple(rows)), y, t, det_ai)
        rows[2] = ((1, 2), (2, -2))  # the right support, but no longer a B_3 block
        with pytest.raises(LemmaViolationError, match="closed form det B_3"):
            certify_solution_bound(asm._replace(rows=tuple(rows)), y, t, det_ai)

    def test_no_gram_or_determinant(self, monkeypatch):
        """Certification eliminates no matrix: it reads det U_i from the solve."""
        calls = []
        real_gram = IntegerMatrix.gram
        monkeypatch.setattr(IntegerMatrix, "gram", lambda m: calls.append("gram") or real_gram(m))
        monkeypatch.setattr(
            relmag.matrices, "determinant", lambda m: calls.append("determinant") or determinant(m)
        )
        real_echelon = relmag.matrices._sparse_echelon
        monkeypatch.setattr(
            relmag.matrices, "_sparse_echelon",
            lambda *args: calls.append("_sparse_echelon") or real_echelon(*args),
        )
        for text in (extremal_dsl(2, 6), "k=3; x1=1; 3x2=x1; x1+x2-x4=0", MULTI_CHAIN):
            args = self._assembled(text)
            calls.clear()
            rep = certify_solution_bound(*args)
            assert rep.n > 1 and rep.all_ok and calls == []

    def test_chain_minors_match_continuant_reference(self):
        """Every chain's O(1)-per-column minors equal the old per-column
        route, one continuant of the downdated block, and both equal
        det C_p det D_(t-p); det B_t equals the continuant of the whole block."""
        systems = [extremal_system(k, t + 1) for k in (2, 3, 4) for t in range(1, 41)]
        systems.append(parse_system(MULTI_CHAIN))
        rng = random.Random(13)
        systems += [random_system(rng) for _ in range(400)]
        chains = positions = 0
        for system in systems:
            try:
                reduced, _ = reduce_system(system)
            except UnsolvableSystemError:
                continue
            asm = assemble(reduced)
            a = dense_rows(asm)
            for rows, cols in zip(asm.chain_rows, asm.chain_cols):
                t = len(rows)
                det_b, minors = _chain_minors(asm.rows, rows, cols, asm.k)
                assert det_b == continuant(*chain_block(a, rows))
                assert det_b == det_closed_form("B", t, asm.k)
                assert len(minors) == t + 1
                for p in range(t + 1):
                    assert minors[p] == cut_chain_minor(a, rows, cols, p) == (
                        det_closed_form("C", p, asm.k)
                        * det_closed_form("D", t - p, asm.k)
                    )
                    positions += 1
                chains += 1
        assert chains > 200 and positions > 2500

    def test_linear_cost(self, monkeypatch):
        """Certification takes one closed form per chain, not two per
        column, and the assembled rows hold only the nonzeros of A."""
        calls = []
        real = det_closed_form
        monkeypatch.setattr(
            relmag.detbounds, "det_closed_form",
            lambda *args: calls.append(args) or real(*args),
        )
        args = _certify_args(extremal_system(2, 1024))
        rep = certify_solution_bound(*args)
        assert rep.all_ok and rep.sharp
        assert len(calls) <= len(args[0].chain_rows) == 1
        n = 4096
        asm = assemble(extremal_system(2, n))
        assert sum(len(row) for row in asm.rows) == 2 * n - 1

    def test_matches_dense_gram(self):
        """Every column agrees with a dense U_i and W_i = U_i U_i^T.

        det U_i, with its sign, is the Bareiss determinant of U_i, and
        det W_i, the block-minor product and the Hadamard-Fischer verdict are
        hadamard_fischer_check's on the dense W_i.
        """
        systems = [extremal_system(k, n) for k in (2, 3, 4) for n in range(2, 17)]
        systems.append(parse_system(MULTI_CHAIN))
        rng = random.Random(4)
        systems += [random_system(rng) for _ in range(300)]
        checked = 0
        cases = set()
        for system in systems:
            try:
                asm, y, t, det_ai = _certify_args(system)
            except UnsolvableSystemError:
                continue
            if asm.n == 1:
                continue
            rep = certify_solution_bound(asm, y, t, det_ai)
            blocks = [[r - 1 for r in rows] for rows in asm.chain_rows]
            blocks += [[r - 1] for r in asm.type3_rows]
            for i, entry in enumerate(rep.entries):
                u = delete_row_col(IntegerMatrix(dense_rows(asm)), 0, i)
                holds, det_w, hf_product, _ = hadamard_fischer_check(u.gram(), blocks)
                assert entry.det_u == determinant(u)
                assert entry.det_w == det_w
                assert entry.hf_product == hf_product
                assert (entry.det_w <= entry.hf_product) == holds
                assert entry.case in (1, 2)  # case 0 is the n = 1 column only
                cases.add((len(asm.chain_rows) > 1, entry.case))
                checked += 1
        assert checked > 400
        # case-2 columns and columns cutting one of several chains both occur
        assert {(True, 1), (True, 2)} <= cases
