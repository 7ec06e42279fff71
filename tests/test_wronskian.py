import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qoper.cartan import TwistZ, WeylWord, cartan_matrix, enumerate_weyl
from qoper.polynomials import Poly, RatFun, poly_roots, q_shift
from qoper.qq import (DegenerateInstance, QQInstance, QQSolution,
                      resonance_check, solve_bethe)
from qoper.backlund import full_qq_system
import qoper.wronskian as wr
from qoper.wronskian import (MinorSpec, RatMatrix, _coroot_diag, _index_rows,
                             _lift_matrix, _minor, _twist_diagonal,
                             build_miura_A, build_wronskian,
                             check_fundamental_relation, check_lewis_carroll,
                             check_shifted_minor_relation,
                             check_wronskian_equations, d_exponents, evaluate,
                             fundamental_relation_residual, gauss_decompose,
                             generalized_minor, lewis_carroll_residual,
                             lift_products, miura_from_wronskian,
                             miura_plucker_blocks, miura_trivializer,
                             s_lambda_inverse, sample_bundle, type_a_bundle,
                             weyl_twist)

PANEL = [0.77 + 0.31j, -1.1 + 0.6j, 2.2 - 0.3j, 0.4 + 1.3j, -0.6 - 0.9j]


def a1_solved(q=1.0 / 3.0, zeta=2.0):
    cd = cartan_matrix("A", 1)
    inst = QQInstance(cd, q, TwistZ((zeta,)), (Poly([-1.0, 1.0]),), (1,))
    sol = solve_bethe(inst, seeds=10, seed=1)[0]
    return inst, sol


def a2_solved(q=0.2, zetas=(2.0, 3.0)):
    cd = cartan_matrix("A", 2)
    inst = QQInstance(cd, q, TwistZ(zetas),
                      (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
    sol = solve_bethe(inst, seeds=40, tol=1e-11, seed=3)[0]
    return inst, sol


def a3_solved():
    cd = cartan_matrix("A", 3)
    inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0, 5.0)),
                      (Poly([-1.0, 1.0]), Poly([-2.0, 1.0]), Poly([-3.0, 1.0])),
                      (1, 1, 1))
    sol = solve_bethe(inst, seeds=8, tol=1e-11, seed=1)[0]
    return inst, sol


def sampled(inst, sol):
    """The bundle of a solved instance, evaluated on the sample panel."""
    return sample_bundle(type_a_bundle(inst, sol))


def unsolved(rank, ordering=None):
    """A type-A instance for the lift checks, which need no solution."""
    cd = cartan_matrix("A", rank)
    if ordering is not None:
        cd = cd.with_ordering(ordering)
    lambdas = tuple(Poly([-(k + 1.0) - 0.3j * k, 1.0]) for k in range(rank))
    return QQInstance(cd, 0.2, TwistZ((2.0, 3.0, 5.0)[:rank]), lambdas,
                      (1,) * rank)


def collected_lift(inst):
    """R collected: the bare permutation lift, then the torus factors
    Lambda_{i_l}(q^{l-1} z)^{d_l} with d from d_exponents."""
    n = inst.rank + 1
    order = inst.cartan.ordering
    acc = RatMatrix.identity(n)
    for node in order:
        acc = acc @ _lift_matrix(n, node, inverse=True)
    for l, row in enumerate(d_exponents(inst.cartan).d):
        lam = RatFun(q_shift(inst.lambdas[order[l] - 1], inst.q ** l))
        for m, e in enumerate(row):
            for _ in range(abs(e)):
                acc = acc @ _coroot_diag(n, order[m], lam if e > 0 else lam.inv())
    return acc


def random_unimodular(n, rng, exact=False):
    """Product of unit-triangular polynomial matrices: det = 1."""
    def poly():
        if exact:
            return RatFun(Poly([int(rng.integers(-3, 4)) for _ in range(2)]))
        return RatFun(Poly(rng.standard_normal(2) + 1j * rng.standard_normal(2)))

    def unit(lowside):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(RatFun.one())
                elif (i > j) == lowside and abs(i - j) == 1:
                    row.append(poly())
                else:
                    row.append(RatFun.zero())
            rows.append(row)
        return RatMatrix(rows)

    return unit(True) @ unit(False) @ unit(True)


class TestLiftExponents:
    def test_diagonal_ones(self):
        for t, r in (("A", 3), ("B", 3), ("G", 2)):
            exps = d_exponents(cartan_matrix(t, r))
            assert all(exps.d[l][l] == 1 for l in range(r))

    def test_a3_standard_mirror(self):
        # ascending composition: position l carries sum_{j >= l} coroots
        exps = d_exponents(cartan_matrix("A", 3))
        want = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
        assert exps.d == want

    def test_a2_reversed_matches_paper_table(self):
        # reading the ordering backwards produces the lower-triangular
        # all-ones table quoted for the standard reading elsewhere
        cd = cartan_matrix("A", 2).with_ordering((2, 1))
        exps = d_exponents(cd)
        # position 0 = node 2: d = coroot_2 + coroot_1; position 1 = node 1
        assert exps.d == ((1, 1), (0, 1))


class TestSLambdaInverse:
    def test_sl2_matrix(self):
        inst, _ = a1_solved()
        R = s_lambda_inverse(inst)
        lam = inst.lambdas[0]
        for x in PANEL:
            m = R.eval(x)
            want = np.array([[0, 1 / complex(lam(x))],
                             [-complex(lam(x)), 0]])
            assert np.abs(m - want).max() < 1e-12 * (1 + np.abs(want).max())

    def test_sl3_unit_lambda_cyclic(self):
        # Lambda == 1 is outside the instance contract, so emulate by
        # evaluating at a root-free point and checking the cyclic pattern
        inst, _ = a2_solved()
        R = s_lambda_inverse(inst)
        m = R.eval(0.77 + 0.31j)
        # single nonzero entry per column, cycling 1 -> 2 -> 3 -> 1
        for j, want_i in ((0, 1), (1, 2), (2, 0)):
            col = m[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert list(nz) == [want_i]

    def test_internal_consistency_runs(self):
        # the solved A2 instance, standard and reversed ordering: the
        # interleaved product agrees with the collected form
        inst, sol = a2_solved()
        flipped = QQInstance(inst.cartan.with_ordering((2, 1)), inst.q,
                             inst.twist, inst.lambdas, inst.degrees)
        for case in (inst, flipped):
            R, C = s_lambda_inverse(case), collected_lift(case)
            for x in PANEL:
                want = C.eval(x)
                assert np.abs(R.eval(x) - want).max() <= \
                    1e-10 * (1 + np.abs(want).max())

    def test_matches_collected_form_every_ordering(self):
        # the interleaved product equals the collected form; a mismatch
        # means a broken sign convention
        for rank in (1, 2, 3):
            for ordering in itertools.permutations(range(1, rank + 1)):
                inst = unsolved(rank, ordering)
                R, C = s_lambda_inverse(inst), collected_lift(inst)
                for x in PANEL:
                    want = C.eval(x)
                    assert np.abs(R.eval(x) - want).max() <= \
                        1e-10 * (1 + np.abs(want).max()), ordering

    def test_column_scalars_closed_form(self):
        # standard ordering: gamma_k = (-1)^k prod_{j<=k} Lambda_j(q^{k-1} z),
        # the one nonzero entry of S_k's first column
        for rank in (1, 2, 3):
            inst = unsolved(rank)
            S = lift_products(s_lambda_inverse(inst), inst.q)
            for k in range(1, rank + 1):
                col = [e for e in (S[k][r, 0] for r in range(S[k].n))
                       if not e.is_zero()]
                assert len(col) == 1, (rank, k)
                gamma = col[0]
                closed = Poly([(-1) ** k])
                for j in range(1, k + 1):
                    closed = closed * q_shift(inst.lambdas[j - 1],
                                              inst.q ** (k - 1))
                assert (gamma - RatFun(closed)).is_zero(1e-8), (rank, k)

    def test_lift_products_match_numeric_products(self):
        # S_k(x) = R(x) R(qx) ... R(q^{k-1} x) for every ordering
        for rank in (2, 3):
            for ordering in itertools.permutations(range(1, rank + 1)):
                inst = unsolved(rank, ordering)
                R = s_lambda_inverse(inst)
                S = lift_products(R, inst.q)
                assert len(S) == rank + 1
                qc = complex(inst.q)
                for x in PANEL:
                    want = np.eye(rank + 1, dtype=complex)
                    for k, Sk in enumerate(S):
                        got = Sk.eval(x)
                        assert np.abs(got - want).max() <= \
                            1e-10 * (1 + np.abs(want).max()), (ordering, k)
                        want = want @ R.eval(qc ** k * x)


class TestBuildWronskian:
    def test_sl2_matrix_entries(self):
        # [[Q+, -zeta Lam^-1 Q+(qz)], [Q-, -zeta^-1 Lam^-1 Q-(qz)]]:
        # the displayed classical matrix up to the documented sign and
        # twist-inversion conventions
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        z, q = 2.0, complex(inst.q)
        lam, qp, qm = inst.lambdas[0], sol.qplus[0], sol.qminus[0]
        for x in PANEL:
            lv = complex(lam(x))
            want = np.array([
                [complex(qp(x)), -z * complex(qp(q * x)) / lv],
                [complex(qm(x)), -(1 / z) * complex(qm(q * x)) / lv]])
            assert np.abs(W.eval(x) - want).max() < 1e-9 * (1 + np.abs(want).max())

    def test_sl2_nonsolution_det(self):
        # Q+ = Q- = 1 is not a solution: det = Lam^-1 (zeta - zeta^-1)
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 1.0 / 3.0, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (0,))
        sol = QQSolution((Poly.one(),), (Poly.one(),))
        W = build_wronskian(inst, sol)
        for x in PANEL:
            want = (2.0 - 0.5) / complex(inst.lambdas[0](x))
            assert abs(np.linalg.det(W.eval(x)) - want) < 1e-10 * (1 + abs(want))

    def test_sl2_solved_det_is_one(self):
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        for x in PANEL:
            assert abs(np.linalg.det(W.eval(x)) - 1.0) <= 1e-9

    def test_sl3_solved_det_is_one(self):
        inst, sol = a2_solved()
        W = build_wronskian(inst, sol)
        for x in PANEL:
            assert abs(np.linalg.det(W.eval(x)) - 1.0) <= 1e-9

    def test_accepts_full_qq_table(self):
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        W = build_wronskian(inst, fq)
        assert abs(np.linalg.det(W.eval(0.3 + 0.2j)) - 1.0) <= 1e-9


class TestGeneralizedMinor:
    def test_identity_matrix(self):
        cd = cartan_matrix("A", 2)
        M = RatMatrix.identity(3)
        e = WeylWord.identity()
        for i in (1, 2):
            assert abs(complex(generalized_minor(M, MinorSpec(e, e, i), cd)(0.5)) - 1) < 1e-14

    def test_sl2_wronskian_entries(self):
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        e = WeylWord.identity()
        s1 = WeylWord((1,))
        top = generalized_minor(W, MinorSpec(e, e, 1), inst.cartan)
        bot = generalized_minor(W, MinorSpec(s1, e, 1), inst.cartan)
        for x in PANEL:
            assert abs(complex(top(x)) - complex(sol.qplus[0](x))) < 1e-9
            assert abs(complex(bot(x)) - complex(sol.qminus[0](x))) < 1e-9

    def test_minor_dictionary_shifted(self):
        # Delta_{u om_i, om_i}(W(z)) with u = w^{-1} is proportional to the
        # Backlund table entry for w evaluated at q^{i-1} z (the minor-side
        # action is inverse to the word composition of the steps); for
        # i = 1 the proportionality constant is 1 on minimal-length rows
        from qoper.cartan import word_inverse
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        W = build_wronskian(inst, sol)
        qc = complex(inst.q)
        e = WeylWord.identity()
        for w in enumerate_weyl(inst.cartan):
            for i in (1, 2):
                entry = fq.entry(w, inst.cartan)
                assert entry is not None
                table_poly = entry[i - 1]
                minor = generalized_minor(
                    W, MinorSpec(word_inverse(w), e, i), inst.cartan)
                vals = []
                for x in PANEL:
                    tv = complex(table_poly(qc ** (i - 1) * x))
                    mv = complex(minor(x))
                    vals.append(mv / tv)
                spread = max(abs(v - vals[0]) for v in vals)
                assert spread <= 1e-7 * (1 + abs(vals[0])), (w.letters, i)
                if i == 1 and len(w) == 0:
                    assert abs(vals[0] - 1.0) < 1e-9


class TestWronskianEquations:
    def test_sl2(self):
        rep = check_wronskian_equations(sampled(*a1_solved()))
        assert rep.passed
        labels = [it["label"] for it in rep.items]
        assert "k=0 i=1" in labels and "k=1 i=1" in labels

    def test_sl3_all_windowed(self):
        rep = check_wronskian_equations(sampled(*a2_solved()))
        assert rep.passed
        ks = {it["label"].split()[0] for it in rep.items}
        assert ks == {"k=0", "k=1", "k=2"}
        assert all(it["value"] <= 1e-8 for it in rep.items)

    def test_negative_control(self):
        b = type_a_bundle(*a2_solved())
        rng = np.random.default_rng(8)
        M = RatMatrix([[RatFun(Poly(rng.standard_normal(2)))
                        for _ in range(3)] for _ in range(3)])
        rep = check_wronskian_equations(sample_bundle(replace(b, W=M)))
        assert not rep.passed

    def test_point_left_on_a_pole_is_a_failed_check(self):
        # W has poles near two panel points that no nudge leaves: the
        # sample keeps one witness per stuck point and the equations hold
        # on the other points
        b = type_a_bundle(*a2_solved())
        stuck = [wr.PANEL[3], wr.PANEL[11]]

        class PolarW(RatMatrix):
            def eval(self, z):
                if any(abs(z - x) < 0.1 for x in stuck):
                    raise ZeroDivisionError("zero denominator")
                return super().eval(z)

        s = sample_bundle(replace(b, W=PolarW(b.W.entries)))
        assert s.stuck == tuple(f"{x} after 4 nudges: zero denominator"
                                for x in stuck)
        assert len(s.points) == len(wr.PANEL) - 2
        assert s.W.shape == (3, 18, 3, 3) and s.A.shape == (18, 3, 3)
        rep = check_wronskian_equations(s)
        assert rep.passed and len(rep.items) == 5


class TestShiftedMinorRelation:
    def test_sl2_both_rows(self):
        inst, sol = a1_solved()
        words = enumerate_weyl(inst.cartan)
        got = check_shifted_minor_relation(sampled(inst, sol), 1, words)
        assert len(got) == len(words) == 2
        assert max(got) <= 1e-9

    def test_sl3_full_orbit(self):
        inst, sol = a2_solved()
        s = sampled(inst, sol)
        words = enumerate_weyl(inst.cartan)
        for i in (1, 2):
            got = check_shifted_minor_relation(s, i, words)
            assert len(got) == len(words) == 6
            assert max(got) <= 1e-8


class TestFundamentalRelation:
    def test_identity_matrix(self):
        cd = cartan_matrix("A", 2)
        M = RatMatrix.identity(3)
        e = WeylWord.identity()
        for i in (1, 2):
            resid = check_fundamental_relation(M, e, e, i, cd)
            assert all(abs(complex(resid(x))) < 1e-12 for x in PANEL[:3])

    def test_random_unimodular(self):
        rng = np.random.default_rng(5)
        for n in (3, 4):
            cd = cartan_matrix("A", n - 1)
            M = random_unimodular(n, rng)
            words = enumerate_weyl(cd)
            for i in range(1, n):
                si = WeylWord((i,))
                from qoper.cartan import word_length
                ok_words = [w for w in words
                            if word_length(w * si, cd) == word_length(w, cd) + 1]
                for u in ok_words[:3]:
                    for v in ok_words[:3]:
                        r = fundamental_relation_residual(
                            evaluate(M, PANEL[:3]), u, v, i, cd)
                        assert r <= 1e-9, (n, i, u.letters, v.letters)

    def test_solved_wronskian_is_qq(self):
        inst, sol = a2_solved()
        W = build_wronskian(inst, sol)
        e = WeylWord.identity()
        for i in (1, 2):
            r = fundamental_relation_residual(evaluate(W, PANEL), e, e, i,
                                              inst.cartan)
            assert r <= 1e-9

    def test_length_precondition(self):
        cd = cartan_matrix("A", 2)
        M = RatMatrix.identity(3)
        s1 = WeylWord((1,))
        with pytest.raises(ValueError, match="length condition"):
            check_fundamental_relation(M, s1, s1, 1, cd)


class TestLewisCarroll:
    def test_identity_3x3(self):
        M = RatMatrix.identity(3)
        resid = check_lewis_carroll(M, 2)
        assert resid.num.is_zero()

    def test_random_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = RatMatrix([[RatFun(Poly([int(rng.integers(-4, 5))
                                         for _ in range(3)]))
                            for _ in range(4)] for _ in range(4)])
            for i in (2, 3, 4):
                assert check_lewis_carroll(M, i).num.is_zero()

    def test_exact_det_stays_integer(self):
        # polynomial entries keep the denominator 1 and int coefficients
        rng = np.random.default_rng(5)
        M = RatMatrix([[RatFun(Poly([int(rng.integers(-5, 6))
                                     for _ in range(3)]))
                        for _ in range(4)] for _ in range(4)])
        d = M.det()
        assert d.den.coeffs == (1,) and d.den.exact
        assert d.num.degree > 0
        assert all(type(c) is int for c in d.num.coeffs)

    def test_random_float(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            M = RatMatrix([[RatFun(Poly(rng.standard_normal(3)
                                        + 1j * rng.standard_normal(3)))
                            for _ in range(4)] for _ in range(4)])
            for i in (2, 3, 4):
                assert lewis_carroll_residual(evaluate(M, PANEL[:2]), i) < 1e-9

    def test_sl3_wronskian(self):
        # rational entries inflate symbolic coefficients, so the identity
        # on the Wronskian is certified by sampling
        inst, sol = a2_solved()
        W = build_wronskian(inst, sol)
        assert lewis_carroll_residual(evaluate(W, PANEL), 2) < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_lewis_carroll(RatMatrix.identity(2), 2)


class TestGaussDecompose:
    def test_identity(self):
        L, D, U = gauss_decompose(RatMatrix.identity(3))
        for M in (L, D, U):
            for i in range(3):
                for j in range(3):
                    want = 1.0 if i == j else 0.0
                    assert abs(complex(M[i, j](0.3)) - want) < 1e-14

    def test_antidiagonal_fails(self):
        M = RatMatrix([[RatFun.zero(), RatFun.one()],
                       [RatFun.one(), RatFun.zero()]])
        with pytest.raises(DegenerateInstance, match="principal minor 1"):
            gauss_decompose(M)

    def test_exact_reconstruction(self):
        rng = np.random.default_rng(6)
        M = RatMatrix([[RatFun(Poly([int(rng.integers(1, 5)),
                                     int(rng.integers(-3, 4))]))
                        for _ in range(3)] for _ in range(3)])
        try:
            L, D, U = gauss_decompose(M)
        except DegenerateInstance:
            pytest.skip("random matrix hit a vanishing minor")
        R = L @ D @ U
        for i in range(3):
            for j in range(3):
                diff = R[i, j] - M[i, j]
                assert diff.num.is_zero()

    def test_sl2_wronskian_h11(self):
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        _, D, _ = gauss_decompose(W)
        for x in PANEL:
            assert abs(complex(D[0, 0](x)) - complex(sol.qplus[0](x))) < 1e-9

    def test_big_cell_membership(self):
        # nonvanishing minors put the solved Wronskian in the big double
        # cell: decomposition succeeds on W and on its w0 flip
        from qoper.cartan import longest_element
        inst, sol = a2_solved()
        W = build_wronskian(inst, sol)
        gauss_decompose(W)
        W0, _ = weyl_twist(W, longest_element(inst.cartan), inst)
        gauss_decompose(W0)


class TestMiura:
    def test_build_miura_a_sl2(self):
        # Q+ = 1, Lambda = z: A = [[1/zeta, 0], [z, zeta]]
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 0.25, TwistZ((2.0,)), (Poly([0.0, 1.0]),), (0,))
        sol = QQSolution((Poly.one(),), (Poly.one(),))
        A = build_miura_A(inst, sol)
        for x in PANEL:
            want = np.array([[0.5, 0.0], [x, 2.0]])
            assert np.abs(A.eval(x) - want).max() < 1e-12 * (1 + abs(x))

    def test_reconstruction_sl2(self):
        rep = miura_from_wronskian(sampled(*a1_solved()))
        assert rep.passed

    def test_reconstruction_sl3(self):
        rep = miura_from_wronskian(sampled(*a2_solved()))
        assert rep.passed
        for it in rep.items:
            assert it["value"] is None or it["value"] <= 1e-8

    def test_small_diagonal_ratio_is_measured_on_its_own(self):
        # v = 1 and Z = diag(100, 0.01 + 1e-6, 1) against the Cartan ratios
        # (100, 0.01, 1): the error of 1e-6 on the small ratio fails the
        # 1e-7 bound, however large the other ratios are
        s = sampled(*a2_solved())
        eye = np.eye(3, dtype=complex)[None]
        z = np.array([100.0, 0.01 + 1e-6, 1.0], dtype=complex)
        s = replace(s, points=s.points[:1], W=np.stack([eye] * 3), v=eye,
                    vq=eye, A=np.diag(z)[None], g=np.array([[0.01, 1.0]]), z=z)
        rep = miura_from_wronskian(s)
        bad = [it for it in rep.items if not it["pass"]]
        assert [it["label"] for it in bad] == ["Cartan connection on the diagonal"]
        assert bad[0]["value"] == pytest.approx(1e-6 / 1.010001, rel=1e-6)

    def test_trivial_instance_diagonal(self):
        # m = 0 everywhere: Cartan part is constant (1/zeta, zeta)
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 0.25, TwistZ((3.0,)), (Poly([1.0, 1.0]),), (0,))
        sol = QQSolution((Poly.one(),), (Poly([-1.0 / (3 - 0.25 / 3)]),))
        A = build_miura_A(inst, sol)
        for x in PANEL[:2]:
            m = A.eval(x)
            assert abs(m[0, 0] - 1 / 3.0) < 1e-12
            assert abs(m[1, 1] - 3.0) < 1e-12


class TestPluckerBlocks:
    def test_sl2_defining(self):
        rep = miura_plucker_blocks(sampled(*a1_solved()), 1)
        assert rep.passed

    def test_sl3_both(self):
        s = sampled(*a2_solved())
        for i in (1, 2):
            assert miura_plucker_blocks(s, i).passed

    def test_negative_control(self):
        b = type_a_bundle(*a2_solved())
        rng = np.random.default_rng(12)
        bad = RatMatrix([[RatFun(Poly(rng.standard_normal(2)))
                          if i >= j else RatFun.zero()
                          for j in range(3)] for i in range(3)])
        rep = miura_plucker_blocks(sample_bundle(replace(b, A=bad)), 1)
        assert not rep.passed
        assert rep.items[0]["value"] > 1e-3


class TestWeylTwist:
    def test_identity(self):
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        W2, tw = weyl_twist(W, WeylWord.identity(), inst)
        for x in PANEL[:2]:
            assert np.abs(W2.eval(x) - W.eval(x)).max() < 1e-12
        assert tw.zetas == inst.twist.zetas

    def test_sl2_row_swap_passes_checks(self):
        inst, sol = a1_solved(q=0.2)
        W = build_wronskian(inst, sol)
        W2, tw = weyl_twist(W, WeylWord((1,)), inst)
        # rows swapped with the lift sign: new row 1 = -old row 2
        for x in PANEL[:3]:
            m, m2 = W.eval(x), W2.eval(x)
            assert np.abs(m2[0] + m[1]).max() < 1e-10
            assert np.abs(m2[1] - m[0]).max() < 1e-10
        b = type_a_bundle(inst.with_twist(tw), sol)
        rep = check_wronskian_equations(sample_bundle(replace(b, W=W2)))
        assert rep.passed

    def test_double_twist_sign(self):
        inst, sol = a1_solved()
        W = build_wronskian(inst, sol)
        W2, tw = weyl_twist(W, WeylWord((1, 1)), inst)
        # the lift squares to -1
        for x in PANEL[:2]:
            assert np.abs(W2.eval(x) + W.eval(x)).max() < 1e-10
        assert all(abs(complex(a) - complex(b)) < 1e-12
                   for a, b in zip(tw.zetas, inst.twist.zetas))


class TestTypeABundle:
    def test_objects_match_standalone_builds(self):
        inst, sol = a2_solved()
        b = type_a_bundle(inst, sol)
        v = miura_trivializer(inst, sol)
        for x in PANEL:
            assert np.array_equal(b.W.eval(x), build_wronskian(inst, sol).eval(x))
            assert np.array_equal(b.v.eval(x), v.eval(x))
            assert np.array_equal(b.A.eval(x), build_miura_A(inst, sol).eval(x))
            assert np.array_equal(b.R.eval(x), s_lambda_inverse(inst).eval(x))
            for Sk, want in zip(b.S, lift_products(b.R, inst.q)):
                assert np.array_equal(Sk.eval(x), want.eval(x))

    def test_rank_one_trivializer_refusal_deferred(self):
        # W needs no trivializer at rank one: the refusal surfaces in the
        # Miura reconstruction, after the Wronskian checks
        inst, sol = a1_solved()
        bad = QQSolution((Poly([sol.qplus[0].coeffs[0] + 1e-2, 1.0]),), sol.qminus)
        b = type_a_bundle(inst, bad)
        assert b.v is None
        with pytest.raises(DegenerateInstance, match="trivializer"):
            miura_from_wronskian(sample_bundle(b))


def minor_at(Mv, rows, cols):
    """One minor of one evaluated matrix: the per-point reference."""
    return np.linalg.det(Mv[np.ix_(rows, cols)])


def gap(l, r):
    """|l - r| / (1 + max(|l|, |r|)) at one point."""
    return abs(l - r) / (1.0 + max(abs(l), abs(r)))


def shifted_minor_per_point(b, w, i, points):
    """check_shifted_minor_relation, one point and one minor at a time."""
    inst = b.inst
    qc, n = complex(inst.q), inst.rank + 1
    rows = _index_rows(w, i, inst.cartan)
    rowset = {r + 1 for r in rows}
    weight = 1.0 + 0.0j
    for j in range(1, inst.rank + 1):
        e = (j in rowset) - (j + 1 in rowset)
        if e:
            weight *= complex(inst.zetas()[j - 1]) ** e
    sets = list(itertools.combinations(range(n), i))
    worst = 0.0
    for x in map(complex, points):
        Rm = b.R.eval(x)
        img = np.array([minor_at(Rm, rs, list(range(i))) for rs in sets])
        k = int(np.argmax(np.abs(img)))
        lhs = minor_at(b.W.eval(x), rows, sets[k])
        rhs = weight * minor_at(b.W.eval(qc * x), rows, tuple(range(i))) / img[k]
        worst = max(worst, gap(lhs, rhs))
    return worst


def plucker_per_point(b, i, points):
    """miura_plucker_blocks' residual, one point and one minor at a time."""
    inst, A, v = b.inst, b.A, b.v
    n, qc = inst.rank + 1, complex(inst.q)
    plane = (tuple(range(i, n)), tuple(sorted([i - 1] + list(range(i + 1, n)))))
    Z = np.diag(np.array(_twist_diagonal(inst), dtype=complex))

    def blk(Mv):
        return np.array([[minor_at(Mv, rs, cs) for cs in plane] for rs in plane])

    def size(M):  # one abs per entry: numpy's vector abs rounds differently
        return max(abs(e) for e in M.ravel())

    worst = 0.0
    for x in map(complex, points):
        Ai = blk(A.eval(x))
        rhs = blk(np.linalg.inv(v.eval(qc * x))) @ blk(Z) \
            @ np.linalg.inv(blk(np.linalg.inv(v.eval(x))))
        scale = 1.0 + max(size(Ai), size(rhs))
        worst = max(worst, size(Ai - rhs) / scale)
    return worst


def fundamental_per_point(M, i, data, points):
    """fundamental_relation_residual at u = v = e, one point at a time."""
    e, si = WeylWord.identity(), WeylWord((i,))
    top, low = _index_rows(e, i, data), _index_rows(si, i, data)
    worst = 0.0
    for x in map(complex, points):
        Mv = M.eval(x)
        t1 = minor_at(Mv, top, top) * minor_at(Mv, low, low)
        t2 = minor_at(Mv, low, top) * minor_at(Mv, top, low)
        rhs = 1.0 + 0.0j
        for j in range(1, data.rank + 1):
            if j != i and data.a(j, i):
                rows = _index_rows(e, j, data)
                rhs *= minor_at(Mv, rows, rows) ** -data.a(j, i)
        scale = 1.0 + max(abs(t1), abs(t2), abs(rhs))
        worst = max(worst, abs(t1 - t2 - rhs) / scale)
    return worst


class TestPanelMinors:
    """Minors of a whole panel from one det equal the per-point ones bit
    for bit, and so do the residuals built from them."""

    def test_stacked_det_is_bit_identical(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = 1 + trial % 5
            size = n + int(rng.integers(0, 2))
            M = rng.standard_normal((7, size, size)) \
                + 1j * rng.standard_normal((7, size, size))
            rows = sorted(rng.choice(size, n, replace=False).tolist())
            cols = sorted(rng.choice(size, n, replace=False).tolist())
            got = _minor(M, rows, cols)
            assert got.tolist() == [minor_at(m, rows, cols) for m in M]

    def test_shifted_minor_relation(self):
        s = sampled(*a3_solved())
        words = enumerate_weyl(s.bundle.inst.cartan)
        for i in (1, 2, 3):
            got = check_shifted_minor_relation(s, i, words)
            want = [shifted_minor_per_point(s.bundle, w, i, s.points)
                    for w in words]
            assert got == want, i

    def test_plucker_blocks(self):
        s = sampled(*a3_solved())
        for i in (1, 2, 3):
            got = miura_plucker_blocks(s, i).items[0]["value"]
            assert got == plucker_per_point(s.bundle, i, s.points), i

    def test_fundamental_relation(self):
        inst, sol = a3_solved()
        W = type_a_bundle(inst, sol).W
        e = WeylWord.identity()
        for i in (1, 2, 3):
            got = fundamental_relation_residual(evaluate(W, PANEL), e, e, i,
                                                inst.cartan)
            assert got == fundamental_per_point(W, i, inst.cartan, PANEL), i


class TestMiuraPoles:
    def test_root_of_qplus_is_nudged(self, monkeypatch):
        # a panel point on a root of Q+_1 is moved off it, once for every
        # object, and the Miura checks pass there
        inst, sol = a2_solved()
        root = complex(poly_roots(sol.qplus[0])[0])
        monkeypatch.setattr(wr, "PANEL", np.array([root] + PANEL[:2]))
        s = sampled(inst, sol)
        assert s.stuck == () and len(s.points) == 3
        assert s.points[0] == root * (1.013 + 0.007j)
        assert list(s.points[1:]) == PANEL[:2]
        rep = miura_from_wronskian(s)
        assert rep.passed
        assert [it["label"] for it in rep.items][0] == \
            "first column matches trivializer"

    def test_retries_exhausted_is_a_failed_check(self, monkeypatch):
        # the Cartan connection raises at every point: the sample has one
        # witness per panel point, in panel order, and no point left
        def always_on_a_pole(*args, **kw):
            raise ZeroDivisionError("zero denominator")

        b = type_a_bundle(*a2_solved())
        monkeypatch.setattr(wr, "cartan_connection", always_on_a_pole)
        s = sample_bundle(b)
        assert s.stuck == tuple(f"{x} after 4 nudges: zero denominator"
                                for x in wr.PANEL)
        assert s.points.shape == (0,) and s.W.shape == (3, 0, 3, 3)
        assert s.v.shape == s.vq.shape == (0, 3, 3) and s.g.shape == (0, 2)
        # with no point left, no check passes
        for rep in (check_wronskian_equations(s), miura_from_wronskian(s),
                    miura_plucker_blocks(s, 1)):
            assert rep.items and not any(it["pass"] for it in rep.items)
        assert check_shifted_minor_relation(s, 1, [WeylWord.identity()]) \
            == [float("inf")]
        e = WeylWord.identity()
        assert fundamental_relation_residual(s.W[0], e, e, 1, b.inst.cartan) \
            == float("inf")


class TestSampleBundle:
    def test_values_match_the_bundle(self):
        inst, sol = a2_solved()
        b = type_a_bundle(inst, sol)
        s = sample_bundle(b)
        qc = complex(inst.q)
        assert s.stuck == () and list(s.points) == list(wr.PANEL)
        for p, x in enumerate(map(complex, s.points)):
            for k in range(3):
                assert np.array_equal(s.W[k, p], b.W.eval(qc ** k * x))
                assert np.array_equal(s.S[k, p], b.S[k].eval(x))
            assert np.array_equal(s.A[p], b.A.eval(x))
            assert np.array_equal(s.v[p], b.v.eval(x))
            assert np.array_equal(s.vq[p], b.v.eval(qc * x))
        assert np.array_equal(s.z, [0.5, 2.0 / 3.0, 3.0])

    def test_rank_one_without_trivializer(self):
        inst, sol = a1_solved()
        bad = QQSolution((Poly([sol.qplus[0].coeffs[0] + 1e-2, 1.0]),), sol.qminus)
        s = sample_bundle(type_a_bundle(inst, bad))
        assert s.v is None and s.vq is None
        assert check_wronskian_equations(s).items


@st.composite
def non_resonant_a(draw):
    """A random A1 or A2 instance in the standard ordering: q, the zetas and
    the roots of each Lambda_i (degree one) drawn, each Q+_i of degree one."""
    rank = draw(st.sampled_from([1, 2]))
    q = draw(st.floats(0.15, 0.45))
    zetas = draw(st.lists(st.floats(1.5, 6.0), min_size=rank, max_size=rank))
    roots = draw(st.lists(st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                             allow_infinity=False),
                          min_size=rank, max_size=rank))
    return QQInstance(cartan_matrix("A", rank), q, TwistZ(tuple(zetas)),
                      tuple(Poly([-r, 1.0]) for r in roots), (1,) * rank)


class TestRandomInstances:
    """Every solution solve_bethe finds on a random non-resonant A1 or A2
    instance passes the whole sampled battery, with det W = 1 to 1e-10."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(non_resonant_a())
    def test_sampled_battery_passes(self, inst):
        from qoper.cli import Report, run_wronskian_suite
        assume(resonance_check(inst).passed)
        sols = solve_bethe(inst, seeds=20, seed=1)
        assume(sols)
        for sol in sols:
            rep = Report("wronskian", {})
            run_wronskian_suite(inst, sol, rep)
            checks = rep.doc["checks"]
            assert [c for c in checks if not c["pass"]] == [], inst
            det = [c for c in checks if c["check"] == "wronskian-det"]
            assert det[0]["sup_residual"] <= 1e-10
