import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qoper.cartan import TwistZ, cartan_matrix, enumerate_weyl
from qoper.polynomials import Poly, RatFun, poly_roots, q_shift
from qoper.qq import (DegenerateInstance, QQInstance, QQSolution,
                      resonance_check, solve_bethe)
from qoper.backlund import full_qq_system
from qoper.cli import parse_instance
import qoper.wronskian as wr
from qoper.wronskian import (RatMatrix, _minor, _twist_diagonal,
                             build_miura_A, build_wronskian,
                             check_lewis_carroll, det_residual, lift_products,
                             miura_from_wronskian, miura_trivializer,
                             s_lambda_inverse, sample_bundle, type_a_bundle)
from constructions import (collected_lift, column_index_set,
                           compound_equation_residuals,
                           d_exponents, dense_lift_products,
                           dense_staggered_lift, densify, entry,
                           fundamental_per_point, gauss_decompose,
                           longest_element, plucker_per_point, replace,
                           shifted_minor_per_point, weyl_twist, word_inverse,
                           word_length)
from sampled_solver import sampled_trivializer_numerators

PANEL = [0.77 + 0.31j, -1.1 + 0.6j, 2.2 - 0.3j, 0.4 + 1.3j, -0.6 - 0.9j]
A2_SOLVED = Path(__file__).resolve().parent.parent / "instances" \
    / "a2_solved.json"


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
        R = densify(s_lambda_inverse(inst))
        lam = inst.lambdas[0]
        for x in PANEL:
            m = np.array(R.eval(x))
            want = np.array([[0, 1 / complex(lam(x))],
                             [-complex(lam(x)), 0]])
            assert np.abs(m - want).max() < 1e-12 * (1 + np.abs(want).max())

    def test_sl3_unit_lambda_cyclic(self):
        # Lambda == 1 is outside the instance contract, so emulate by
        # evaluating at a root-free point and checking the cyclic pattern
        inst, _ = a2_solved()
        R = densify(s_lambda_inverse(inst))
        m = np.array(R.eval(0.77 + 0.31j))
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
            R, C = densify(s_lambda_inverse(case)), collected_lift(case)
            for x in PANEL:
                want = np.array(C.eval(x))
                assert np.abs(np.array(R.eval(x)) - want).max() <= \
                    1e-10 * (1 + np.abs(want).max())

    def test_matches_collected_form_every_ordering(self):
        # the interleaved product equals the collected form; a mismatch
        # means a broken sign convention
        for rank in (1, 2, 3):
            for ordering in itertools.permutations(range(1, rank + 1)):
                inst = unsolved(rank, ordering)
                R, C = densify(s_lambda_inverse(inst)), collected_lift(inst)
                for x in PANEL:
                    want = np.array(C.eval(x))
                    assert np.abs(np.array(R.eval(x)) - want).max() <= \
                        1e-10 * (1 + np.abs(want).max()), ordering

    def test_column_scalars_closed_form(self):
        # standard ordering: gamma_k = (-1)^k prod_{j<=k} Lambda_j(q^{k-1} z),
        # the one nonzero entry of S_k's first column
        for rank in (1, 2, 3):
            inst = unsolved(rank)
            S = lift_products(s_lambda_inverse(inst), inst.q)
            for k in range(1, rank + 1):
                gamma = S[k][0][1]
                closed = Poly([(-1) ** k])
                for j in range(1, k + 1):
                    closed = closed * q_shift(inst.lambdas[j - 1],
                                              inst.q ** (k - 1))
                gap = gamma - RatFun(closed)
                assert gap.num.norm() <= 1e-8 * (1.0 + gap.den.norm()), \
                    (rank, k)

    def test_lift_products_match_numeric_products(self):
        # S_k(x) = R(x) R(qx) ... R(q^{k-1} x) for every ordering
        for rank in (2, 3):
            for ordering in itertools.permutations(range(1, rank + 1)):
                inst = unsolved(rank, ordering)
                R = s_lambda_inverse(inst)
                S = lift_products(R, inst.q)
                R = densify(R)
                assert len(S) == rank + 1
                qc = complex(inst.q)
                for x in PANEL:
                    want = np.eye(rank + 1, dtype=complex)
                    for k, Sk in enumerate(S):
                        got = np.array(densify(Sk).eval(x))
                        assert np.abs(got - want).max() <= \
                            1e-10 * (1 + np.abs(want).max()), (ordering, k)
                        want = want @ np.array(R.eval(qc ** k * x))


class TestBuildWronskian:
    def test_sl2_matrix_entries(self):
        # [[Q+, -zeta Lam^-1 Q+(qz)], [Q-, -zeta^-1 Lam^-1 Q-(qz)]]:
        # the displayed classical matrix up to the documented sign and
        # twist-inversion conventions
        inst, sol = a1_solved()
        W = type_a_bundle(inst, sol).W
        z, q = 2.0, complex(inst.q)
        lam, qp, qm = inst.lambdas[0], sol.qplus[0], sol.qminus[0]
        for x in PANEL:
            lv = complex(lam(x))
            want = np.array([
                [complex(qp(x)), -z * complex(qp(q * x)) / lv],
                [complex(qm(x)), -(1 / z) * complex(qm(q * x)) / lv]])
            assert np.abs(np.array(W.eval(x)) - want).max() < 1e-9 * (1 + np.abs(want).max())

    def test_sl2_nonsolution_det(self):
        # Q+ = Q- = 1 is not a solution: det = Lam^-1 (zeta - zeta^-1)
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 1.0 / 3.0, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (0,))
        sol = QQSolution((Poly.one(),), (Poly.one(),))
        W = type_a_bundle(inst, sol).W
        for x in PANEL:
            want = (2.0 - 0.5) / complex(inst.lambdas[0](x))
            assert abs(np.linalg.det(np.array(W.eval(x))) - want) < 1e-10 * (1 + abs(want))

    def test_sl2_solved_det_is_one(self):
        inst, sol = a1_solved()
        W = type_a_bundle(inst, sol).W
        for x in PANEL:
            assert abs(np.linalg.det(np.array(W.eval(x))) - 1.0) <= 1e-9

    def test_sl3_solved_det_is_one(self):
        inst, sol = a2_solved()
        W = type_a_bundle(inst, sol).W
        for x in PANEL:
            assert abs(np.linalg.det(np.array(W.eval(x))) - 1.0) <= 1e-9

    def test_accepts_full_qq_table(self):
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        W = type_a_bundle(*entry(fq, (), inst.cartan)).W
        assert abs(np.linalg.det(np.array(W.eval(0.3 + 0.2j))) - 1.0) <= 1e-9


class TestGeneralizedMinor:
    def test_identity_matrix(self):
        cd = cartan_matrix("A", 2)
        M = RatMatrix.identity(3)
        e = ()
        for i in (1, 2):
            rows = column_index_set(e, i, cd)[1]
            assert abs(_minor(M.eval(0.5), rows, rows) - 1) < 1e-14

    def test_sl2_wronskian_entries(self):
        inst, sol = a1_solved()
        W = type_a_bundle(inst, sol).W
        cols = column_index_set((), 1, inst.cartan)[1]
        bottom = column_index_set((1,), 1, inst.cartan)[1]
        for x in PANEL:
            Wx = W.eval(x)
            assert abs(_minor(Wx, cols, cols) - complex(sol.qplus[0](x))) < 1e-9
            assert abs(_minor(Wx, bottom, cols) - complex(sol.qminus[0](x))) < 1e-9

    def test_minor_dictionary_shifted(self):
        # Delta_{u om_i, om_i}(W(z)) with u = w^{-1} is proportional to the
        # Backlund table entry for w evaluated at q^{i-1} z (the minor-side
        # action is inverse to the word composition of the steps); for
        # i = 1 the proportionality constant is 1 on minimal-length rows
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        W = type_a_bundle(inst, sol).W
        qc = complex(inst.q)
        e = ()
        for w in enumerate_weyl(inst.cartan):
            for i in (1, 2):
                _, sol_w = entry(fq, w, inst.cartan)
                table_poly = sol_w.qplus[i - 1]
                rows = column_index_set(word_inverse(w), i, inst.cartan)[1]
                cols = column_index_set(e, i, inst.cartan)[1]
                vals = []
                for x in PANEL:
                    tv = complex(table_poly(qc ** (i - 1) * x))
                    vals.append(_minor(W.eval(x), rows, cols) / tv)
                spread = max(abs(v - vals[0]) for v in vals)
                assert spread <= 1e-7 * (1 + abs(vals[0])), (w, i)
                if i == 1 and len(w) == 0:
                    assert abs(vals[0] - 1.0) < 1e-9


class TestWronskianEquations:
    def test_sl2(self):
        res = compound_equation_residuals(type_a_bundle(*a1_solved()), PANEL)
        assert max(res.values()) <= 1e-8
        assert set(res) == {(1, 1)}

    def test_sl3_all_windowed(self):
        res = compound_equation_residuals(type_a_bundle(*a2_solved()), PANEL)
        ks = {k for k, i in res}
        assert ks == {1, 2}
        assert all(v <= 1e-8 for v in res.values())

    def test_negative_control(self):
        b = type_a_bundle(*a2_solved())
        rng = np.random.default_rng(8)
        M = RatMatrix([[RatFun(Poly(rng.standard_normal(2)))
                        for _ in range(3)] for _ in range(3)])
        res = compound_equation_residuals(replace(b, W=M), PANEL)
        assert not max(res.values()) <= 1e-8

    def test_point_left_on_a_pole_is_a_failed_check(self):
        # W has poles near two panel points that no nudge leaves: the
        # sample keeps one witness per stuck point and det W = 1 holds on
        # the other points
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
        assert len(s.W) == len(s.A) == 18
        assert det_residual(s) <= 1e-8


def failing_minor_nodes(b) -> set:
    """The nodes i at which some k = 1 minor identity of b fails 1e-8."""
    words = enumerate_weyl(b.inst.cartan)
    return {i for i in range(1, b.inst.rank + 1)
            if not max(shifted_minor_per_point(b, w, i, PANEL)
                       for w in words) <= 1e-8}


class TestCompoundForm:
    """W(q^k z) nu_i = Z^k W(z) S_k(z) nu_i as minor identities and in the
    compound-matrix form."""

    def test_forms_agree(self, seed1_verify_inputs):
        shipped = parse_instance(json.loads(A2_SOLVED.read_text()))[:2]
        for inst, sol in (shipped, seed1_verify_inputs["a3_m111"]):
            b = type_a_bundle(inst, sol)
            assert max(compound_equation_residuals(b, PANEL).values()) <= 1e-8
            assert failing_minor_nodes(b) == set()

    def test_both_forms_flag_the_same_equations(self, seed1_verify_inputs):
        # under the ordering (3, 2, 1) the transports fill the columns in
        # the order 1, 4, 3, 2, so each equation whose column set holds
        # the wrapped column 2 is no identity there
        b = type_a_bundle(*seed1_verify_inputs["a3_ord321"])
        res = compound_equation_residuals(b, PANEL)
        assert {key for key, v in res.items() if not v <= 1e-8} \
            == {(1, 2), (1, 3), (2, 2)}
        assert failing_minor_nodes(b) == {2, 3}

    def test_verify_passes_every_check_under_ordering_321(
            self, seed1_verify_paths, capsys):
        # R staggered by the heights of the ordering (3, 2, 1) makes det W
        # = 1, so the report of that ordering has no failing check
        from qoper.cli import main
        assert main(["verify", "--instance",
                     seed1_verify_paths["a3_ord321"]]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert "wronskian-det" in [c["check"] for c in checks]
        assert [c["check"] for c in checks if not c["pass"]] == []


class TestUnimodularEveryOrdering:
    """det W = 1 for every ordering of A2 and A3: the benchmark generator's
    own solver solves its a2_m21 and a3_m111 draws under each ordering, at
    a seed that no other test or measurement reads."""

    SEED = 6151

    @pytest.mark.parametrize("ordering", [
        o for rank in (2, 3) for o in itertools.permutations(range(1, rank + 1))],
        ids=lambda o: "".join(map(str, o)))
    def test_det_is_one(self, gen, ordering):
        family = {2: "a2_m21", 3: "a3_m111"}[len(ordering)]
        rng = np.random.default_rng([self.SEED, len(ordering)])
        for _ in range(20):
            d = gen.draw(family, rng)
            system = gen.QQSystem("A", d.r, ordering, d.m, d.lambdas,
                                  d.zetas, d.q)
            solution = gen.solve_system(system, rng)
            if solution is not None:
                break
        assert solution is not None, f"no solvable draw under {ordering}"
        inst, sol = parse_instance(
            gen.instance_doc(system, family, self.SEED, solution))[:2]
        gap = det_residual(sample_bundle(type_a_bundle(inst, sol)))
        assert gap <= 1e-12, \
            f"ordering {ordering}, h = {wr.heights(ordering)}: |det W - 1| = {gap:.3g}"


class TestShiftedMinorRelation:
    def test_sl2_both_rows(self):
        b = type_a_bundle(*a1_solved())
        words = enumerate_weyl(b.inst.cartan)
        got = [shifted_minor_per_point(b, w, 1, PANEL) for w in words]
        assert len(got) == 2 and max(got) <= 1e-9

    def test_sl3_full_orbit(self):
        b = type_a_bundle(*a2_solved())
        words = enumerate_weyl(b.inst.cartan)
        for i in (1, 2):
            got = [shifted_minor_per_point(b, w, i, PANEL) for w in words]
            assert len(got) == 6 and max(got) <= 1e-8


class TestFundamentalRelation:
    def test_identity_matrix(self):
        cd = cartan_matrix("A", 2)
        M = RatMatrix.identity(3)
        for i in (1, 2):
            assert fundamental_per_point(M, i, cd, PANEL[:3]) < 1e-12

    def test_random_unimodular(self):
        rng = np.random.default_rng(5)
        for n in (3, 4):
            cd = cartan_matrix("A", n - 1)
            M = random_unimodular(n, rng)
            words = enumerate_weyl(cd)
            for i in range(1, n):
                si = (i,)
                ok_words = [w for w in words
                            if word_length(w + si, cd) == word_length(w, cd) + 1]
                for u in ok_words[:3]:
                    for v in ok_words[:3]:
                        r = fundamental_per_point(M, i, cd, PANEL[:3], u, v)
                        assert r <= 1e-9, (n, i, u, v)

    def test_solved_wronskian_is_qq(self):
        inst, sol = a2_solved()
        W = type_a_bundle(inst, sol).W
        for i in (1, 2):
            assert fundamental_per_point(W, i, inst.cartan, PANEL) <= 1e-9


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
                assert max(check_lewis_carroll(RatMatrix(M.eval(x)), i)
                           for x in PANEL[:2]) < 1e-9

    def test_sl3_wronskian(self):
        # rational entries inflate symbolic coefficients, so the identity
        # on the Wronskian is certified by sampling
        inst, sol = a2_solved()
        W = type_a_bundle(inst, sol).W
        assert max(check_lewis_carroll(RatMatrix(W.eval(x)), 2)
                   for x in PANEL) < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_lewis_carroll(RatMatrix.identity(2), 2)


def cofactor_det(rows):
    """Plain first-row cofactor expansion of a list of RatFun rows, or of
    complex rows, every minor expanded anew."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    values = isinstance(rows[0][0], complex)
    acc = 0j if values else RatFun.zero()
    for j in range(n):
        a = rows[0][j]
        if (a == 0) if values else a.is_zero():
            continue
        term = a * cofactor_det([[r[c] for c in range(n) if c != j]
                                 for r in rows[1:]])
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def bits(f):
    """Every coefficient with its type, -0.0 told from 0.0."""
    return repr(f) if isinstance(f, complex) else \
        repr((f.num.coeffs, f.den.coeffs))


def random_matrix(n, rng, exact):
    def entry():
        if exact:
            if rng.random() < 0.3:
                return RatFun.zero()
            return RatFun(Poly([int(rng.integers(-4, 5)) for _ in range(3)]))
        return RatFun(Poly(rng.standard_normal(3)
                           + 1j * rng.standard_normal(3)))
    return RatMatrix([[entry() for _ in range(n)] for _ in range(n)])


class TestMinorTable:
    @pytest.mark.parametrize("entries, kind", [
        ([[1.5, 0], [0, 2]], "float"),
        ([[RatFun.one(), 0], [0, RatFun.one()]], "int"),
        ([[Poly([1]), "1"], [Poly([0]), Poly([1])]], "str")])
    def test_other_or_mixed_entries_refused(self, entries, kind):
        # a float entry was wrapped as RatFun(1.5): det() then raised
        # AttributeError and eval() TypeError, far from the construction
        with pytest.raises(TypeError, match=f"RatMatrix entry of type {kind}:"):
            RatMatrix(entries)

    def test_poly_entry_is_made_a_ratfun(self):
        M = RatMatrix([[Poly([2]), Poly([0, 1])], [Poly([1]), Poly([3])]])
        assert all(type(e) is RatFun for row in M.entries for e in row)
        det = M.det()
        assert det.num.coeffs == (6, -1) and det.den.coeffs == (1,)

    def test_exact_det_equals_plain_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            M = random_matrix(5, rng, exact=True)
            assert any(e.is_zero() for row in M.entries for e in row)
            assert bits(M.det()) == bits(cofactor_det(M.entries))

    def test_float_det_is_bit_identical(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            M = random_matrix(4, rng, exact=False)
            assert bits(M.det()) == bits(cofactor_det(M.entries))
            # the float battery's input: plain complex values, some zero
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m[rng.random((4, 4)) < 0.3] = 0
            V = RatMatrix(m.tolist())
            assert any(e == 0 for row in V.entries for e in row)
            assert bits(V.det()) == bits(cofactor_det(V.entries))

    def test_dense_3x3_det_calls_det_at_every_level(self, monkeypatch):
        # perfbench's tracer counts wronskian.RatMatrix.det: the top call,
        # its three 2x2 minors and their two 1x1 minors each
        sizes, det = [], RatMatrix.det

        def counted(self):
            sizes.append(self.n)
            return det(self)
        monkeypatch.setattr(RatMatrix, "det", counted)
        RatMatrix([[Poly([k + 3 * j + 1]) for k in range(3)]
                   for j in range(3)]).det()
        assert sorted(sizes) == [1] * 6 + [2] * 3 + [3]

    def test_submatrix_of_submatrix(self):
        M = random_matrix(5, np.random.default_rng(13), exact=True)
        M.det()
        nested = M.submatrix([0, 4, 2, 3], [1, 2, 3, 4]).submatrix(
            [1, 2, 3], [0, 2, 3])
        direct = M.submatrix([4, 2, 3], [1, 3, 4])
        assert bits(nested.det()) == bits(direct.det())
        # row order is part of the key: a swap flips the sign
        swapped = M.submatrix([2, 4, 3], [1, 3, 4])
        assert bits(swapped.det()) == bits(-direct.det())
        assert bits(direct.det()) == bits(cofactor_det(direct.entries))

    def test_each_minor_expanded_once(self):
        M = random_matrix(4, np.random.default_rng(14), exact=True)
        d = M.det()
        assert M.det() is d
        sub = M.submatrix([1, 2, 3], [0, 1, 3])
        assert sub.det() is M.submatrix([1, 2, 3], [0, 1, 3]).det()

    def test_stored_cofactor_is_read_without_a_view(self, monkeypatch):
        # once every cofactor of the first row is in the table, det M
        # expands the top level alone
        M = random_matrix(4, np.random.default_rng(17), exact=True)
        for j in range(4):
            M.submatrix([1, 2, 3], [c for c in range(4) if c != j]).det()
        sizes, det = [], RatMatrix.det

        def counted(self):
            sizes.append(self.n)
            return det(self)
        monkeypatch.setattr(RatMatrix, "det", counted)
        assert bits(M.det()) == bits(cofactor_det(M.entries))
        assert sizes == [4]

    def test_int_det_is_the_polynomial_det_at_a_point(self):
        # the exact battery's step: the int matrix of values at B = 2**31
        # has the polynomial determinant's value at B, and so has each
        # Dodgson residual, 0
        rng = np.random.default_rng(18)
        B = 2**31
        for _ in range(5):
            M = random_matrix(4, rng, exact=True)
            assert any(e.is_zero() for row in M.entries for e in row)
            V = RatMatrix([[e.num(B) for e in row] for row in M.entries])
            assert all(type(e) is int for row in V.entries for e in row)
            d = M.det()
            assert d.den.coeffs == (1,)
            assert V.det() == d.num(B) and type(V.det()) is int
            for i in (2, 3, 4):
                resid = check_lewis_carroll(V, i)
                assert type(resid) is int and resid == 0

    @pytest.mark.parametrize("exact", [True, False])
    def test_lewis_carroll_on_shared_matrix(self, exact):
        rng = np.random.default_rng(15)
        n = 5 if exact else 4
        M = random_matrix(n, rng, exact)
        shared = [check_lewis_carroll(M, i) for i in range(2, n + 1)]
        fresh = [check_lewis_carroll(RatMatrix(M.entries), i)
                 for i in range(2, n + 1)]
        assert [bits(f) for f in shared] == [bits(f) for f in fresh]

    def test_complex_det(self):
        # the values of a matrix at a point use the same expansion and table
        rng = np.random.default_rng(16)
        for _ in range(5):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            m[rng.random((5, 5)) < 0.3] = 0
            M = RatMatrix(m.tolist())
            want = np.linalg.det(m)
            assert abs(M.det() - want) <= 1e-12 * (1 + abs(want))
            rows, cols = [1, 2, 3, 4], [0, 2, 3, 4]
            assert M.submatrix(rows, cols).det() is \
                M.submatrix(rows, cols).det()

    def test_entries_are_read_only(self):
        M = RatMatrix.identity(3)
        with pytest.raises(TypeError):
            M.entries[0][1] = RatFun.one()
        with pytest.raises(TypeError):
            M.entries[0] = (RatFun.one(),) * 3


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
        W = type_a_bundle(inst, sol).W
        _, D, _ = gauss_decompose(W)
        for x in PANEL:
            assert abs(complex(D[0, 0](x)) - complex(sol.qplus[0](x))) < 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_sample_gate(self, k):
        # miura_from_wronskian's gate: Delta_k of W(x) vanishes at every
        # sample point, here by a zero corner or by two proportional rows
        s = sampled(*a2_solved())

        def spoiled(M):
            rows = [list(row) for row in M]
            if k == 1:
                rows[0][0] = 0j
            else:
                rows[1][:2] = [3.0 * e for e in rows[0][:2]]
            return tuple(map(tuple, rows))

        with pytest.raises(DegenerateInstance,
                           match=f"principal minor {k} vanishes"):
            miura_from_wronskian(replace(s, W=[spoiled(M) for M in s.W]))
        assert miura_from_wronskian(s) <= 1e-8

    def test_big_cell_membership(self):
        # nonvanishing minors put the solved Wronskian in the big double
        # cell: decomposition succeeds on W and on its w0 flip
        inst, sol = a2_solved()
        W = type_a_bundle(inst, sol).W
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
            assert np.abs(np.array(A.eval(x)) - want).max() < 1e-12 * (1 + abs(x))

    def test_product_keeps_small_entries_at_large_q(self):
        # at q = 1e20 the factors' entries span many orders of magnitude,
        # and A keeps every entry of its Miura shape
        doc = json.loads(A2_SOLVED.read_text())
        inst, sol, _ = parse_instance({**doc, "q": 1e20})
        A = build_miura_A(inst, sol)
        for r in range(3):
            for c in range(3):
                if c > r:
                    assert A[r, c].is_zero(), (r, c)
                elif r - c <= 1:
                    assert not A[r, c].is_zero(), (r, c)

    def test_reconstruction_sl2(self):
        assert miura_from_wronskian(sampled(*a1_solved())) <= 1e-8

    def test_reconstruction_sl3(self):
        assert miura_from_wronskian(sampled(*a2_solved())) <= 1e-8

    def test_trivial_instance_diagonal(self):
        # m = 0 everywhere: Cartan part is constant (1/zeta, zeta)
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 0.25, TwistZ((3.0,)), (Poly([1.0, 1.0]),), (0,))
        sol = QQSolution((Poly.one(),), (Poly([-1.0 / (3 - 0.25 / 3)]),))
        A = build_miura_A(inst, sol)
        for x in PANEL[:2]:
            m = np.array(A.eval(x))
            assert abs(m[0, 0] - 1 / 3.0) < 1e-12
            assert abs(m[1, 1] - 3.0) < 1e-12


def numerator_gaps(inst, sol):
    """{(i, j): relative gap} between miura_trivializer's numerators u_ij
    and the sampled reference's; the degrees must agree."""
    A = build_miura_A(inst, sol)
    v = miura_trivializer(inst, sol, A, _twist_diagonal(inst))
    want = sampled_trivializer_numerators(inst, sol, A)
    qplus = [Poly.one()] + list(sol.qplus)
    gaps = {}
    for (i, j), u in want.items():
        if i > j:
            got, ref = v.entries[i - 1][j - 1].num, RatFun(u, qplus[j - 1]).num
            assert got.degree == ref.degree, (i, j)
            gaps[(i, j)] = max(abs(a - b) for a, b in
                               zip(got.coeffs, ref.coeffs)) / ref.norm()
    return gaps


# entry (4, 2) of this A3 instance's trivializer has a degree-2 numerator;
# the right side of its cleared equation has coefficients up to 3.2e9 and a
# top one of 8.0e-3: without that coefficient the degree would read 1
A3_M121 = {
    "lie_type": "A", "rank": 3, "ordering": [1, 2, 3], "q": [0.2, 0.0],
    "degrees": [1, 2, 1],
    "zetas": [[2.0633331397038597, 0.024380529987802588],
              [3.2556113419612447, -0.4797348356359198],
              [4.948524183422966, -1.3435037075500929]],
    "lambdas": [
        {"coeffs": [[-0.9591755873612966, 0.20792421085993684], [1.0, 0.0]]},
        {"coeffs": [[-1.8664577226491008, 0.11444087997149777], [1.0, 0.0]]},
        {"coeffs": [[-3.1727439154831645, 0.23004286972741683], [1.0, 0.0]]}],
    "solution": {
        "qplus": [
            [[-0.7784992696206934, 0.014766150041248993], [1.0, 0.0]],
            [[-16.975703693365176, -16.743150938371116],
             [28.722751301176135, 20.427126239900073], [1.0, 0.0]],
            [[-0.6299959795921172, 0.029363645331233326], [1.0, 0.0]]],
        "qminus": [
            [[-175.8511493011051, 13.36230958454666],
             [209.88581710676337, -11.10981283341553],
             [0.3694049336532372, -0.07064099574397485]],
            [[1.3299237472856116, -0.0079204236401575],
             [-1.9764224637450254, 0.3356728472662759]],
            [[-12.70295495014419, -23.25199268766399],
             [23.01896069838655, 31.39175276342732],
             [0.9607993120203702, 0.270780650879984]]]}}


class TestTrivializerNumerators:
    """miura_trivializer's coefficient-space solves against the sampled
    reference solver."""

    @pytest.mark.parametrize("ordering", list(itertools.permutations((1, 2)))
                             + list(itertools.permutations((1, 2, 3))),
                             ids=lambda o: "".join(map(str, o)))
    def test_match_sampled_reference(self, ordering):
        rank = len(ordering)
        rng = np.random.default_rng(list(ordering))
        checked = 0
        for draw in range(2):
            zetas = tuple(z * np.exp(0.3j * rng.standard_normal())
                          for z in (2.0, 3.0, 5.0)[:rank])
            lambdas = tuple(Poly([complex(*rng.standard_normal(2)), 1.0])
                            for _ in range(rank))
            inst = QQInstance(cartan_matrix("A", rank).with_ordering(ordering),
                              0.2, TwistZ(zetas), lambdas, (1,) * rank)
            assert resonance_check(inst) == []
            for sol in solve_bethe(inst, seeds=20, seed=draw):
                gaps = numerator_gaps(inst, sol)
                assert len(gaps) == rank * (rank + 1) // 2
                assert max(gaps.values()) <= 1e-10, gaps
                checked += 1
        assert checked >= 2

    def test_a3_m121_keeps_its_top_coefficient(self):
        inst, sol, _ = parse_instance(A3_M121)
        v = type_a_bundle(inst, sol).v
        assert v.entries[3][1].num.degree == 2
        assert numerator_gaps(inst, sol)[(4, 2)] <= 1e-10


class TestPluckerBlocks:
    def test_sl2_defining(self):
        assert plucker_per_point(type_a_bundle(*a1_solved()), 1, PANEL) <= 1e-8

    def test_sl3_both(self):
        b = type_a_bundle(*a2_solved())
        for i in (1, 2):
            assert plucker_per_point(b, i, PANEL) <= 1e-8

    def test_negative_control(self):
        b = type_a_bundle(*a2_solved())
        rng = np.random.default_rng(12)
        bad = RatMatrix([[RatFun(Poly(rng.standard_normal(2)))
                          if i >= j else RatFun.zero()
                          for j in range(3)] for i in range(3)])
        assert plucker_per_point(replace(b, A=bad), 1, PANEL) > 1e-3


class TestWeylTwist:
    def test_identity(self):
        inst, sol = a1_solved()
        W = type_a_bundle(inst, sol).W
        W2, tw = weyl_twist(W, (), inst)
        for x in PANEL[:2]:
            assert np.abs(np.array(W2.eval(x)) - np.array(W.eval(x))).max() < 1e-12
        assert tw.zetas == inst.twist.zetas

    def test_sl2_row_swap_passes_checks(self):
        inst, sol = a1_solved(q=0.2)
        W = type_a_bundle(inst, sol).W
        W2, tw = weyl_twist(W, (1,), inst)
        # rows swapped with the lift sign: new row 1 = -old row 2
        for x in PANEL[:3]:
            m, m2 = np.array(W.eval(x)), np.array(W2.eval(x))
            assert np.abs(m2[0] + m[1]).max() < 1e-10
            assert np.abs(m2[1] - m[0]).max() < 1e-10
        b = type_a_bundle(inst.with_twist(tw), sol)
        res = compound_equation_residuals(replace(b, W=W2), PANEL)
        assert max(res.values()) <= 1e-8

    def test_double_twist_sign(self):
        inst, sol = a1_solved()
        W = type_a_bundle(inst, sol).W
        W2, tw = weyl_twist(W, (1, 1), inst)
        # the lift squares to -1
        for x in PANEL[:2]:
            assert np.abs(np.array(W2.eval(x)) + np.array(W.eval(x))).max() < 1e-10
        assert all(abs(complex(a) - complex(b)) < 1e-12
                   for a, b in zip(tw.zetas, inst.twist.zetas))


class TestMonomialTransports:
    """R is a signed permutation times torus factors, so R and each
    transport S_k, stored as one (row, entry) pair per column, are the
    dense products of their factors, however small the scale of Lambda."""

    @staticmethod
    def instances(scale):
        for rank in (1, 2, 3, 4):
            lambdas = tuple(Poly([(-(k + 1.0) - 0.3j * k) * scale, scale])
                            for k in range(rank))
            for ordering in itertools.permutations(range(1, rank + 1)):
                yield QQInstance(
                    cartan_matrix("A", rank).with_ordering(ordering), 0.2,
                    TwistZ((2.0, 3.0, 5.0, 7.0)[:rank]), lambdas,
                    (1,) * rank)

    @pytest.mark.parametrize("scale", [1.0, 1e-11])
    def test_one_entry_per_column_every_ordering(self, scale):
        for inst in self.instances(scale):
            ordering = inst.cartan.ordering
            S = lift_products(s_lambda_inverse(inst), inst.q)
            dense = dense_lift_products(dense_staggered_lift(inst), inst.q)
            assert len(S) == len(dense) == inst.rank + 1
            for k, (Sk, Dk) in enumerate(zip(S, dense)):
                for c, (r, g) in enumerate(Sk):
                    nonzero = [a for a in range(Dk.n)
                               if not Dk[a, c].is_zero()]
                    assert nonzero == [r], (ordering, k, c)
                    assert (g.num, g.den) == (Dk[r, c].num, Dk[r, c].den), \
                        (ordering, k, c)
            # the first columns of S_0, ..., S_r land in distinct rows,
            # so the transports fill every column of W
            rows = sorted(Sk[0][0] for Sk in S)
            assert rows == list(range(inst.rank + 1)), ordering


class TestTypeABundle:
    def test_objects_match_standalone_builds(self):
        inst, sol = a2_solved()
        b = type_a_bundle(inst, sol)
        R, z, A = s_lambda_inverse(inst), _twist_diagonal(inst), build_miura_A(inst, sol)
        S = lift_products(R, inst.q)
        v = miura_trivializer(inst, sol, A, z)
        W = build_wronskian(inst, sol, S, v, z)
        assert b.z == z
        for x in PANEL:
            assert np.array_equal(b.W.eval(x), W.eval(x))
            assert np.array_equal(b.v.eval(x), v.eval(x))
            assert np.array_equal(b.A.eval(x), A.eval(x))
            assert np.array_equal(densify(b.S[1]).eval(x),
                                  densify(R).eval(x))
            for Sk, want in zip(b.S, S):
                assert np.array_equal(densify(Sk).eval(x),
                                      densify(want).eval(x))

    def test_rank_one_trivializer_refusal_deferred(self, monkeypatch):
        # W needs no trivializer at rank one: the refusal surfaces in the
        # Miura reconstruction, after the Wronskian checks, from the one
        # trivializer solve the bundle made
        inst, sol = a1_solved()
        bad = QQSolution((Poly([sol.qplus[0].coeffs[0] + 1e-2, 1.0]),), sol.qminus)
        calls = []

        def counted(*args, _fn=wr.miura_trivializer, **kw):
            calls.append(args)
            return _fn(*args, **kw)
        monkeypatch.setattr(wr, "miura_trivializer", counted)
        b = type_a_bundle(inst, bad)
        assert b.v is None
        with pytest.raises(DegenerateInstance, match="trivializer"):
            miura_from_wronskian(sample_bundle(b))
        assert len(calls) == 1


class TestPanelMinors:
    """Every minor comes from one Gaussian elimination, which agrees with
    numpy's LU determinant; on a solved A3 bundle the identities that hold
    by construction hold on the whole panel."""

    def test_minor_matches_numpy_det(self):
        rng = np.random.default_rng(0)
        for trial in range(400):
            n = 2 + trial % 4
            size = n + int(rng.integers(0, 2))
            m = rng.standard_normal((size, size)) \
                + 1j * rng.standard_normal((size, size))
            if trial % 3 == 0:  # exact zeros, as in the lifts and transports
                m[rng.random((size, size)) < 0.3] = 0
            rows = sorted(rng.choice(size, n, replace=False).tolist())
            cols = sorted(rng.choice(size, n, replace=False).tolist())
            want = np.linalg.det(m[np.ix_(rows, cols)])
            got = _minor(tuple(map(tuple, m.tolist())), rows, cols)
            assert abs(got - want) <= 1e-13 * (1 + abs(want)), (n, trial)

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(1)
        for n in range(1, 6):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            want = np.linalg.solve(a, b)
            got = np.array(wr._solve(a.tolist(), b.tolist()))
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())
        with pytest.raises(DegenerateInstance, match="singular"):
            wr._solve([[1.0 + 0j, 2.0 + 0j], [2.0 + 0j, 4.0 + 0j]],
                      [[1.0 + 0j], [0j]])

    def test_shifted_minor_relation(self):
        b = type_a_bundle(*a3_solved())
        for w in enumerate_weyl(b.inst.cartan):
            for i in (1, 2, 3):
                assert shifted_minor_per_point(b, w, i, wr.PANEL) <= 1e-12, (w, i)

    def test_plucker_blocks(self):
        b = type_a_bundle(*a3_solved())
        for i in (1, 2, 3):
            assert plucker_per_point(b, i, wr.PANEL) <= 1e-12, i

    def test_fundamental_relation(self):
        inst, sol = a3_solved()
        W = type_a_bundle(inst, sol).W
        for i in (1, 2, 3):
            assert fundamental_per_point(W, i, inst.cartan, wr.PANEL) <= 1e-12, i

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_shifted_minor_relation_a4(self, k):
        # the float polynomials that build W keep every coefficient
        from test_qq import a4_solved
        inst, sols = a4_solved()
        b = type_a_bundle(inst, sols[k])
        assert max(shifted_minor_per_point(b, w, i, wr.PANEL) for i in range(1, 5)
                   for w in enumerate_weyl(inst.cartan)) <= 1e-11


class TestMiuraPoles:
    def test_root_of_qplus_is_nudged(self, monkeypatch):
        # a panel point on a root of Q+_1, or within tau of it where no
        # denominator is exactly zero, is moved off it, once for every
        # object, and the Miura check passes there
        inst, sol = a2_solved()
        root = complex(poly_roots(sol.qplus[0])[0])
        near = root * (1 + 1e-13)
        monkeypatch.setattr(wr, "PANEL", [root, near] + PANEL[:1])
        s = sampled(inst, sol)
        assert s.stuck == () and len(s.points) == 3
        assert s.points[:2] == [x * (1.013 + 0.007j) for x in (root, near)]
        assert s.points[2] == PANEL[0]
        assert miura_from_wronskian(s) <= 1e-8

    def test_retries_exhausted_is_a_failed_check(self, monkeypatch):
        # every matrix raises at every point: the sample has one witness
        # per panel point, in panel order, and no point left
        def always_on_a_pole(*args, **kw):
            raise ZeroDivisionError("zero denominator")

        b = type_a_bundle(*a2_solved())
        monkeypatch.setattr(wr.RatMatrix, "eval", always_on_a_pole)
        s = sample_bundle(b)
        assert s.stuck == tuple(f"{x} after 4 nudges: zero denominator"
                                for x in wr.PANEL)
        assert s.points == s.W == s.A == s.v == s.vq == []
        # with no point left, the Miura check does not pass
        assert miura_from_wronskian(s) == float("inf")


class TestSampleBundle:
    def test_values_match_the_bundle(self):
        inst, sol = a2_solved()
        b = type_a_bundle(inst, sol)
        s = sample_bundle(b)
        qc = complex(inst.q)
        assert s.stuck == () and s.points == wr.PANEL
        for p, x in enumerate(s.points):
            assert s.W[p] == b.W.eval(x)
            assert s.A[p] == b.A.eval(x)
            assert s.v[p] == b.v.eval(x)
            assert s.vq[p] == b.v.eval(qc * x)
        assert s.z == [0.5, 2.0 / 3.0, 3.0]

    def test_overflowing_value_raises_nonfinite(self):
        # 1e308 x^5 leaves double range on |x| = 1.13: the sample refuses
        # the value instead of carrying an inf into the checks
        from qoper.polynomials import NonFinite
        b = type_a_bundle(*a2_solved())
        huge = RatFun(Poly([0.0] * 5 + [1e308]))
        W = RatMatrix([[huge if (i, j) == (1, 2) else e
                        for j, e in enumerate(row)]
                       for i, row in enumerate(b.W.entries)])
        with pytest.raises(NonFinite):
            sample_bundle(replace(b, W=W))

    def test_rank_one_without_trivializer(self):
        inst, sol = a1_solved()
        bad = QQSolution((Poly([sol.qplus[0].coeffs[0] + 1e-2, 1.0]),), sol.qminus)
        s = sample_bundle(type_a_bundle(inst, bad))
        assert s.v is None and s.vq is None
        assert len(s.W) == len(s.A) == len(wr.PANEL)


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
        from qoper.cli import Report
        from qoper.instance import run_wronskian_suite
        assume(not resonance_check(inst))
        sols = solve_bethe(inst, seeds=20, seed=1)
        assume(sols)
        for sol in sols:
            rep = Report("wronskian")
            run_wronskian_suite(inst, sol, rep)
            checks = rep.doc["checks"]
            assert [c for c in checks if not c["pass"]] == [], inst
            det = [c for c in checks if c["check"] == "wronskian-det"]
            assert det[0]["sup_residual"] <= 1e-10
