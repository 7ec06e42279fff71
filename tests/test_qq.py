import cmath
import collections
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qoper import newton, qq
from qoper.cartan import TwistZ, cartan_matrix, reflect_twist
from qoper.polynomials import Poly, q_distinct
from qoper.qq import (DegenerateInstance, QQInstance, QQSolution,
                      _bethe_kernel, _resonant_power, bethe_residual,
                      nondegenerate, q_collisions, qq_residual, qq_rhs,
                      resonance_check, solve_bethe, solve_q_minus,
                      twist_ratio, xi_factors)
from qoper.newton import _roots_to_qplus, dual_degree, short_side
from qoper.backlund import apply_word, backlund_step
from qoper.wronskian import build_miura_A
from qoper.cli import parse_instance
from sampled_solver import solve_poly_q_difference

A2_GENERIC = Path(__file__).resolve().parent.parent / "instances" / "a2_generic.json"


def a1_instance(zeta=2.0, q=1.0 / 3.0, lam=None, m=1, K=None):
    cd = cartan_matrix("A", 1)
    lam = lam if lam is not None else Poly([-1.0, 1.0])
    return QQInstance(cd, q, TwistZ((zeta,)), (lam,), (m,), K=K)


def a2_instance(q=0.2, zetas=(2.0, 3.0),
                lams=(Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), m=(1, 1), K=None):
    cd = cartan_matrix("A", 2)
    return QQInstance(cd, q, TwistZ(tuple(zetas)), tuple(lams), tuple(m),
                      K=K)


class TestXiFactors:
    def test_a1(self):
        inst = a1_instance(zeta=5.0)
        xit, xi = xi_factors(inst, 1)
        assert abs(xit - 5.0) < 1e-14 and abs(xi - 0.2) < 1e-14

    def test_a2_standard(self):
        inst = a2_instance(zetas=(2.0, 3.0))
        pairs = [xi_factors(inst, i) for i in (1, 2)]
        assert abs(pairs[0][0] - 2.0 / 3.0) < 1e-14   # z1 z2^{-1}
        assert abs(pairs[0][1] - 0.5) < 1e-14         # z1^{-1}
        assert abs(pairs[1][0] - 3.0) < 1e-14         # z2
        assert abs(pairs[1][1] - 2.0 / 3.0) < 1e-14   # z2^{-1} z1

    def test_unit_twist(self):
        inst = a2_instance(zetas=(1.0, 1.0))
        for xit, xi in (xi_factors(inst, i) for i in (1, 2)):
            assert abs(xit - 1) < 1e-14 and abs(xi - 1) < 1e-14


class TestQQResidual:
    def test_constructed_zero(self):
        z, q = 2.0, 1.0 / 3.0
        lam = Poly([0.0, z * q - 1 / z])
        inst = a1_instance(zeta=z, q=q, lam=lam)
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly([1.0]),))
        res = qq_residual(inst, sol)
        assert res[0].is_zero()

    def test_int_zeta_exact_zero(self):
        # int zeta and q: xi = zeta^{-1} is the float 0.5, and every
        # value the residual forms is a dyadic rational, so it is exact
        z, q = 2, 3
        lam = Poly([-13 * z + 13 / z, z * q - 1 / z])
        inst = a1_instance(zeta=z, q=q, lam=lam)
        sol = QQSolution((Poly([-13, 1]),), (Poly([1]),))
        assert qq_residual(inst, sol)[0].is_zero()

    def test_constructed_nonzero(self):
        z, q = 2.0, 1.0 / 3.0
        inst = a1_instance(zeta=z, q=q, lam=Poly([0.0, 1.0]))
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly([1.0]),))
        res = qq_residual(inst, sol)[0]
        # residual = (zq - 1/z - 1) z
        assert abs(res.coeffs[1] - (z * q - 1 / z - 1)) < 1e-12

    def test_zero_qminus(self):
        inst = a1_instance()
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly.zero(),))
        res = qq_residual(inst, sol)[0]
        rhs = qq_rhs(inst, sol.qplus, 1)
        assert (res + rhs).is_zero()

    def test_antisymmetry_at_unit_twist(self):
        # with all zeta = 1 the left side flips sign under Q+ <-> Q-
        inst = a2_instance(zetas=(1.0, 1.0))
        qp = [Poly([-0.3, 1.0]), Poly([0.7, 1.0])]
        qm = [Poly([2.0, 5.0]), Poly([1.5])]
        from qoper.polynomials import q_shift
        for i in (1, 2):
            xit, xi = xi_factors(inst, i)
            lhs = (qm[i - 1] * q_shift(qp[i - 1], inst.q)).scale(xit) \
                - (q_shift(qm[i - 1], inst.q) * qp[i - 1]).scale(xi)
            swapped = (qp[i - 1] * q_shift(qm[i - 1], inst.q)).scale(xit) \
                - (q_shift(qp[i - 1], inst.q) * qm[i - 1]).scale(xi)
            assert (lhs + swapped).is_zero()


class TestResonance:
    def test_pass(self):
        assert resonance_check(a1_instance(zeta=2.0, q=3.0, K=3)) == []

    def test_constructed_resonance(self):
        # zeta^2 = q exactly: fails at k = 1
        inst = a1_instance(zeta=2.0, q=4.0, K=3)
        assert resonance_check(inst) == ["node 1"]
        assert _resonant_power(inst, twist_ratio(inst, 1), 3) == 1

    def test_unit_twist_fails(self):
        inst = a2_instance(zetas=(1.0, 1.0), K=2)
        assert resonance_check(inst) == ["node 1", "node 2"]
        assert [_resonant_power(inst, twist_ratio(inst, j), 2)
                for j in (1, 2)] == [0, 0]

    def test_window_is_k_and_derived_instances_keep_it(self):
        inst = a2_instance(K=5)
        derived = inst.with_twist(TwistZ((3.0, 5.0)), (0, 2))
        assert (derived.K, derived.tau, derived.window) == (5, inst.tau, 5)
        # unset, the window follows the degrees: 2 max m + max deg Lambda
        assert a2_instance().with_twist(inst.twist, (0, 2)).window == 5
        assert a2_instance(m=(0, 0)).window == 1
        with pytest.raises(ValueError, match="window K must be >= 1"):
            a2_instance(K=0)


class TestSolveQMinus:
    def test_a1_constructed(self):
        z, q = 2.0, 1.0 / 3.0
        inst = a1_instance(zeta=z, q=q, lam=Poly([0.0, z * q - 1 / z]))
        qm = solve_q_minus(inst, [Poly([0.0, 1.0])], 1)
        assert qm.degree == 0 and abs(qm.coeffs[0] - 1.0) < 1e-9

    def test_resonant_refusal(self):
        inst = a1_instance(zeta=2.0, q=4.0)
        with pytest.raises(DegenerateInstance, match="resonant"):
            solve_q_minus(inst, [Poly([0.0, 1.0])], 1)

    def test_a2_roundtrip(self):
        inst = a2_instance()
        sols = solve_bethe(inst, seeds=30, tol=1e-11, seed=3)
        assert sols
        sol = sols[0]
        for i in (1, 2):
            qm = solve_q_minus(inst, sol.qplus, i)
            probe = QQSolution(sol.qplus,
                               tuple(qm if j == i - 1 else sol.qminus[j]
                                     for j in range(2)))
            assert max(r.norm() for r in qq_residual(inst, probe)) < 1e-9


# the roots of Q+_1..Q+_4 of three Bethe solutions of a4_solved's instance,
# as solve_bethe(inst, seeds=40) found them with its batched numpy Newton
A4_ROOTS = [
    (-0.6260588870760628 - 4.465977301429454e-26j,
     0.9262359612695296 + 2.3815591243928597e-25j,
     0.6291056971712102 + 1.0763064506440748e-25j,
     0.06415213458745782 + 3.478484810447949e-25j),
    (0.6708386580165205 + 2.3739341845485743e-23j,
     0.48623965049471746 + 2.5011343158959122e-23j,
     -0.27492203347990474 - 1.8253841160142185e-22j,
     0.7137455319600382 - 9.53332167105098e-24j),
    (0.768599658006127 - 0.12913500670578607j,
     0.6140615873106122 - 0.19194146959617098j,
     0.6005684912086193 - 0.01616158480959332j,
     0.06144241558760075 - 0.0015416991662159688j)]


@functools.lru_cache(maxsize=None)
def a4_solved():
    """Lambda_i = z - i, zeta = (2, 3, 5, 7), q = 0.2, m = (1, 1, 1, 1) and
    three of its Bethe solutions: Q+ from A4_ROOTS, Q- by solve_q_minus,
    as the solver completes them."""
    inst = QQInstance(cartan_matrix("A", 4), 0.2, TwistZ((2.0, 3.0, 5.0, 7.0)),
                      tuple(Poly([-float(i), 1.0]) for i in range(1, 5)),
                      (1, 1, 1, 1))
    sols = []
    for roots in A4_ROOTS:
        qplus = _roots_to_qplus(inst, roots)
        qminus = [solve_q_minus(inst, qplus, i) for i in range(1, 5)]
        sols.append(QQSolution(tuple(qplus), tuple(qminus)))
    return inst, tuple(sols)


def random_instance(lie_type, rank, degrees, rng):
    """A seeded draw of zeta, q and Lambda; non-resonant by construction."""
    cd = cartan_matrix(lie_type, rank)
    zetas = TwistZ(tuple(complex(2 + 2 * rng.random(), 0.3 * rng.standard_normal())
                         for _ in range(rank)))
    q = complex(0.2 + 0.2 * rng.random(), 0.05 * rng.standard_normal())
    lams = tuple(Poly.from_roots([complex(*rng.standard_normal(2))
                                  for _ in range(2)])
                 for _ in range(rank))
    inst = QQInstance(cd, q, zetas, lams, degrees)
    assert resonance_check(inst) == []
    return inst


def sampled_q_minus(inst, qplus, i):
    """Q-_i by the sampled minimal-degree solver, the reference."""
    xit, xi = (complex(x) for x in xi_factors(inst, i))
    rhs, qp, qc = qq_rhs(inst, qplus, i), qplus[i - 1], complex(inst.q)
    bound = inst.degrees[i - 1] + max(l.degree for l in inst.lambdas) + 2
    return solve_poly_q_difference(
        lambda z: xit * complex(qp(qc * z)), lambda z: -xi * complex(qp(z)),
        lambda z: complex(rhs(z)), qc, bound, tol=inst.tau)


class TestCoefficientSpaceQMinus:
    @pytest.mark.parametrize("lie_type,rank,degrees", [
        ("A", 1, (1,)), ("A", 1, (2,)), ("A", 2, (1, 1)), ("B", 2, (1, 1)),
        ("G", 2, (1, 1))])
    def test_matches_sampled_solver(self, lie_type, rank, degrees):
        rng = np.random.default_rng(rank * 10 + sum(degrees))
        checked = 0
        for draw in range(3):
            inst = random_instance(lie_type, rank, degrees, rng)
            for sol in solve_bethe(inst, seeds=40, seed=draw):
                for i in range(1, rank + 1):
                    got = solve_q_minus(inst, sol.qplus, i)
                    want = sampled_q_minus(inst, sol.qplus, i)
                    assert got.degree == want.degree
                    err = max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs))
                    assert err <= 1e-10 * want.norm()
                    checked += 1
        assert checked >= 3

    def test_a4_far_root(self):
        # a degree-5 Q- with a root near 1989.86: the right side's top
        # coefficient q^3 sits next to coefficients of order 1e8, and it
        # alone gives the right side, and so Q-, its degree
        inst, sols = a4_solved()
        _, end, _ = apply_word(inst, sols[1], (3, 4, 1, 2, 3))
        qm = end.qminus[1]
        assert qm.degree == 5
        assert any(abs(r - 1989.86) < 0.01 for r in qm.roots())

    def test_resonance_window_follows_the_equation(self):
        # the equation fixes d = deg rhs - deg Q+ and the window |k| <= d + 2:
        # with Q+ = z, zeta^2 = q^5 lies outside the window of d = 0 and
        # solves, and inside that of d = 3, where deg Lambda = 4, it refuses
        z, q = 0.5 ** 2.5, 0.5
        inst = a1_instance(zeta=z, q=q, lam=Poly([0.0, z * q - 1 / z]))
        qm = solve_q_minus(inst, [Poly([0.0, 1.0])], 1)
        assert qm.degree == 0 and abs(qm.coeffs[0] - 1.0) < 1e-9
        wide = a1_instance(zeta=z, q=q, lam=Poly([0.0, 0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateInstance,
                           match=r"resonant twist at node 1: prod zeta\^a = q\^5"):
            solve_q_minus(wide, [Poly([0.0, 1.0])], 1)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_resonance_within_the_window_refuses(self, k):
        # d = 0: every q^k with |k| <= 2 is a resonance the solve refuses
        q = 0.5
        z = q ** (k / 2)
        inst = a1_instance(zeta=z, q=q, lam=Poly([0.0, z * q - 1 / z]))
        with pytest.raises(DegenerateInstance,
                           match=f"resonant twist at node 1: prod zeta\\^a = q\\^{k}"):
            solve_q_minus(inst, [Poly([0.0, 1.0])], 1)

    def test_right_side_below_q_plus_refuses(self):
        # deg rhs = 1 < deg Q+ = 2: no polynomial Q- has a negative degree
        inst = a1_instance(m=2)
        with pytest.raises(DegenerateInstance,
                           match=r"no polynomial Q- exists at node 1 "
                                 r"\(deg rhs - deg Q\+ = -1\)"):
            solve_q_minus(inst, [Poly([0.1, 0.0, 1.0])], 1)


class TestA4RightSide:
    """The last step of the Backlund walk along (1, 2, 3, 2) from the A4
    solutions, at node 1, leaves node 2 a right side Lambda_2 Q+_1 Q+_3(qz)
    of degree 7: its top coefficient q^3 sits next to coefficients of
    order 1e6 to 1e9.  The CLI's backlund-step check reads the largest
    qq_residual norm of each step against 1 + the largest qq_rhs norm."""

    @staticmethod
    def last_step(k):
        inst, sols = a4_solved()
        _, _, records = apply_word(inst, sols[k], (1, 2, 3, 2))
        assert [r.node for r in records] == [2, 3, 2, 1]
        return records[-1]

    def test_rhs_has_the_degree_of_its_factors(self):
        rec = self.last_step(1)
        qplus = rec.solution.qplus
        rhs = qq_rhs(rec.instance, qplus, 2)
        assert [p.degree for p in qplus] == [3, 3, 3, 1]
        assert rhs.degree == 1 + qplus[0].degree + qplus[2].degree
        assert abs(rhs.leading() - 0.2 ** 3) <= 1e-15
        assert rhs.norm() > 1e8

    def test_step_within_the_bound(self):
        # with the top coefficient q^3 kept, the step's residual is rounding
        rec = self.last_step(2)
        resid = max(r.norm() for r in qq_residual(rec.instance, rec.solution))
        assert 0 < resid <= 1e-8

    def test_rounding_of_a_large_right_side(self):
        # solution 1 would fail an absolute 1e-8 bound by rounding alone:
        # its node-2 residual is a few ulps of right-side coefficients of
        # 7e8, which is why the CLI scales the bound by the right side
        rec = self.last_step(1)
        resid = qq_residual(rec.instance, rec.solution)
        rhs = qq_rhs(rec.instance, rec.solution.qplus, 2)
        assert max(r.norm() for r in resid) == resid[1].norm() > 1e-8
        assert resid[1].norm() <= 1e-14 * rhs.norm()


class TestBetheResidual:
    def test_closed_form_root(self):
        z, q, a = 2.0, 1.0 / 3.0, 1.0
        wstar = a * (z * z * q - 1) / (z * z - 1)
        inst = a1_instance(zeta=z, q=q, lam=Poly([-a, 1.0]))
        res = bethe_residual(inst, [Poly([-wstar, 1.0])])
        assert abs(res[0][2]) < 1e-12

    def test_closed_form_root_of_a_tiny_lambda(self):
        # Lambda = 1e-11 (z - 1): |Lambda(w/q)| is below tau, but not below
        # tau times the size of Lambda's coefficients at w/q, so the root
        # is no degenerate configuration
        z, q, eps = 2.0, 0.3, 1e-11
        wstar = (z * q - 1 / z) / (z - 1 / z)
        inst = a1_instance(zeta=z, q=q, lam=Poly([-eps, eps]))
        res = bethe_residual(inst, [Poly([-wstar, 1.0])])
        assert abs(res[0][2]) < 1e-12

    def test_perturbed_root(self):
        z, q = 2.0, 1.0 / 3.0
        wstar = (z * z * q - 1) / (z * z - 1)
        inst = a1_instance(zeta=z, q=q)
        res = bethe_residual(inst, [Poly([-(wstar + 1.0), 1.0])])
        assert abs(res[0][2]) > 1e-2

    def test_pole_is_error(self):
        # root at q * (root of Lambda): Lambda(q^{-1} w) = 0
        z, q = 2.0, 1.0 / 3.0
        inst = a1_instance(zeta=z, q=q, lam=Poly([-1.0, 1.0]))
        with pytest.raises(DegenerateInstance, match="degenerate root"):
            bethe_residual(inst, [Poly([-q, 1.0])])


class TestSolveBethe:
    def test_a1_closed_form(self):
        inst = a1_instance()
        sols = solve_bethe(inst, seeds=12, tol=1e-10, seed=1)
        assert len(sols) == 1
        root = -sols[0].qplus[0].coeffs[0]
        assert abs(root - 1.0 / 9.0) <= 1e-10

    def test_m_zero(self):
        inst = a1_instance(m=0)
        sols = solve_bethe(inst, seeds=5, seed=0)
        assert len(sols) == 1
        assert sols[0].qplus[0] == Poly.one()
        assert max(r.norm() for r in qq_residual(inst, sols[0])) < 1e-9

    def test_a2_residuals(self):
        inst = a2_instance(lams=(Poly([-1.0, 1.0]), Poly([-1.0, 1.0])))
        sols = solve_bethe(inst, seeds=40, tol=1e-10, seed=5)
        assert sols
        for sol in sols:
            assert max(r.norm() for r in qq_residual(inst, sol)) <= 1e-8
            assert max(abs(b[2]) for b in bethe_residual(inst, sol.qplus)) <= 1e-8

    def test_solutions_keep_the_judged_polynomials(self, monkeypatch):
        # each Q+ is built once, from the sorted roots, and judged by
        # bethe_residual; the solution keeps those polynomials, whose
        # roots are then known
        judged = []

        def recording(inst, qplus, _fn=qq.bethe_residual):
            judged.append(qplus)
            return _fn(inst, qplus)
        monkeypatch.setattr(qq, "bethe_residual", recording)
        sols = solve_bethe(a2_instance(), seeds=25, seed=9)
        assert sols
        for sol in sols:
            assert any(all(p is c for p, c in zip(sol.qplus, qplus))
                       for qplus in judged)
            assert all(p.roots_known for p in sol.qplus)

    def test_determinism(self):
        inst = a2_instance()
        s1 = solve_bethe(inst, seeds=25, seed=9)
        s2 = solve_bethe(inst, seeds=25, seed=9)
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            for p, q_ in zip(a.qplus, b.qplus):
                assert all(abs(x - y) < 1e-13 for x, y in zip(p.coeffs, q_.coeffs))


class TestNondegenerate:
    def test_solved_instance_passes(self):
        # q = 1/5 keeps the Bethe root away from q-multiples of the
        # Lambda root (the q = 1/3, zeta = 2 textbook instance has
        # root = q^2 exactly and is deliberately not generic)
        inst = a1_instance(q=0.2)
        sol = solve_bethe(inst, seeds=10, seed=1)[0]
        assert nondegenerate(inst, sol) == []

    def test_shared_root_fails(self):
        # Q+ and Lambda share the root 1: q_distinct names it at k = 0
        inst = a1_instance(lam=Poly([-1.0, 1.0]))
        sol = QQSolution((Poly([-1.0, 1.0]),), (Poly([2.0, 2.0]),))
        assert nondegenerate(inst, sol) == ["Q+_1 vs Lambda_1"]
        assert q_distinct(sol.qplus[0], inst.lambdas[0], inst.q,
                          inst.window, inst.tau) == (False, (1, 1, 0))

    def test_unit_twist_fails_resonance(self):
        inst = a2_instance(zetas=(1.0, 1.0))
        sol = QQSolution((Poly([-0.3, 1.0]), Poly([0.4, 1.0])),
                         (Poly([1.0]), Poly([1.0])))
        assert nondegenerate(inst, sol) == ["resonance"]

    def test_q_collisions(self):
        # a zero polynomial fails, a constant one has no zeros, and
        # 0.2 = q * 1 collides in the window
        inst = a1_instance(q=0.2, K=3)
        one, zero = Poly([1.0]), Poly([0.0])
        lin, near = Poly([-1.0, 1.0]), Poly([-0.2, 1.0])
        pairs = [("zero", zero, lin), ("constant", one, lin),
                 ("collide", near, lin), ("apart", Poly([-7.0, 1.0]), lin)]
        assert q_collisions(inst, pairs) == ["zero", "collide"]


class TestCartanConnection:
    """g(z) = zeta Q+(qz) / Q+(z) sits on the diagonal of the A1 Miura
    connection A = diag(1/g, g) (I + phi f)."""

    def test_constant_q(self):
        inst = a1_instance(m=0)
        sol = QQSolution((Poly.one(),), (Poly([1.0]),))
        assert abs(build_miura_A(inst, sol)[1, 1](0.7) - 2.0) < 1e-14

    def test_linear_q(self):
        inst = a1_instance()
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly([1.0]),))
        A = build_miura_A(inst, sol)
        assert abs(A[1, 1](1.0) - 2.0 / 3.0) < 1e-14  # zeta * q
        assert abs(A[0, 0](1.0) - 3.0 / 2.0) < 1e-14

    def test_pole(self):
        inst = a1_instance()
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly([1.0]),))
        with pytest.raises(ZeroDivisionError):
            build_miura_A(inst, sol).eval(0.0)


class TestOrderingCovariance:
    def test_a2_orderings_equinumerous_and_consistent(self):
        # The two orderings name different Coxeter elements, hence
        # genuinely different systems; the solution sets are not equal as
        # polynomial tuples (checked numerically), but both systems are
        # solvable with the same count and each output passes its own
        # residual battery.
        base = a2_instance(lams=(Poly([-1.0, 1.0]), Poly([-1.0, 1.0])))
        flipped = QQInstance(base.cartan.with_ordering((2, 1)), base.q,
                             base.twist, base.lambdas, base.degrees)
        s1 = solve_bethe(base, seeds=80, tol=1e-11, seed=2)
        s2 = solve_bethe(flipped, seeds=80, tol=1e-11, seed=4)
        assert s1 and s2
        assert len(s1) == len(s2)
        for inst, sols in ((base, s1), (flipped, s2)):
            for s in sols:
                assert max(r.norm() for r in qq_residual(inst, s)) <= 1e-8


class TestInstanceValidation:
    def test_constant_lambda_rejected(self):
        cd = cartan_matrix("A", 1)
        with pytest.raises(ValueError, match="nonconstant"):
            QQInstance(cd, 0.5, TwistZ((2.0,)), (Poly([1.0]),), (1,))

    def test_monicity_enforced(self):
        with pytest.raises(ValueError, match="monic"):
            QQSolution((Poly([1.0, 2.0]),), (Poly([1.0]),))


def scalar_bethe_system(inst, roots):
    """Reference: the two sides of the cleared-denominator Bethe system,
    one point at a time.

    Builds every Q+ as a Poly from its roots and evaluates it by Horner,
    as the solver did before the batched kernel.
    """
    qplus = _roots_to_qplus(inst, roots)
    qc = complex(inst.q)
    a = inst.cartan.a
    order = list(inst.cartan.ordering)
    lvals, rvals = [], []
    k = 0
    for i in range(1, inst.rank + 1):
        pos = order.index(i)
        m = inst.degrees[i - 1]
        qp = qplus[i - 1]
        lam = inst.lambdas[i - 1]
        for t in range(m):
            w = roots[k + t]
            lhs = complex(qp(qc * w))
            for j in range(1, inst.rank + 1):
                e = a(j, i)
                if e:
                    lhs *= complex(inst.twist.zetas[j - 1]) ** e
            lterm = lhs * complex(lam(w / qc))
            rterm = complex(qp(w / qc)) * complex(lam(w))
            for j in order[pos + 1:]:
                e = -a(j, i)
                if e:
                    lterm *= complex(qplus[j - 1](w)) ** e
                    rterm *= complex(qplus[j - 1](qc * w)) ** e
            for j in order[:pos]:
                e = -a(j, i)
                if e:
                    lterm *= complex(qplus[j - 1](w / qc)) ** e
                    rterm *= complex(qplus[j - 1](w)) ** e
            lvals.append(lterm)
            rvals.append(rterm)
        k += m
    return np.array(lvals, dtype=complex), np.array(rvals, dtype=complex)


def instance(lie_type, rank, degrees, lam_degrees, ordering=None, q=0.2,
             zetas=(2.0, 3.0, 5.0), seed=0):
    rng = np.random.default_rng(seed)
    cd = cartan_matrix(lie_type, rank)
    if ordering:
        cd = cd.with_ordering(ordering)
    lams = tuple(Poly.from_roots(list(rng.standard_normal(d)
                                      + 1j * rng.standard_normal(d)), 1.0 + 0.5j)
                 for d in lam_degrees)
    return QQInstance(cd, q, TwistZ(tuple(zetas[:rank])), lams, tuple(degrees))


KERNEL_CASES = {
    "A1 deg Lambda 6": instance("A", 1, (3,), (6,)),
    "A2": instance("A", 2, (2, 1), (1, 2)),
    "A2 ordering (2,1)": instance("A", 2, (2, 1), (1, 2), ordering=(2, 1)),
    "A3 ordering (3,2,1)": instance("A", 3, (1, 2, 1), (1, 1, 2),
                                    ordering=(3, 2, 1)),
    "B2": instance("B", 2, (2, 1), (1, 1)),
    "G2": instance("G", 2, (1, 2), (2, 1)),
}


class TestBetheKernel:
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_matches_scalar_reference(self, name):
        # the kernel's sides are the cleared sides divided by the root w
        # they are taken at, so their ratio is the cleared sides' ratio
        inst = KERNEL_CASES[name]
        n = sum(inst.degrees)
        rng = np.random.default_rng(1)
        pts = 1.5 * (rng.standard_normal((20, n))
                     + 1j * rng.standard_normal((20, n)))
        for x in pts:
            L, R = _bethe_kernel(inst)([complex(w) for w in x])
            assert len(L) == len(R) == n
            lref, rref = scalar_bethe_system(inst, x)
            for l, r, lr, rr, w in zip(L, R, lref, rref, x):
                assert abs(l / r - lr / rr) <= 1e-13 * abs(lr / rr)
                assert abs(l - lr / w) <= 1e-13 * abs(lr / w)
                assert abs(r - rr / w) <= 1e-13 * abs(rr / w)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_bethe_residual_matches_scalar_reference(self, name):
        # at random monic Q+, each residual is lterm/rterm + 1 at its root
        inst = KERNEL_CASES[name]
        rng = np.random.default_rng(2)
        for _ in range(3):
            qplus = [Poly.from_roots(list(1.5 * (rng.standard_normal(m)
                                                 + 1j * rng.standard_normal(m))))
                     for m in inst.degrees]
            got = bethe_residual(inst, qplus)
            lterm, rterm = scalar_bethe_system(
                inst, np.array([w for _, w, _ in got]))
            for (_, _, res), ref in zip(got, lterm / rterm + 1):
                assert abs(res - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_bethe_residual_matches_numpy_columns(self, name):
        # the kernel is plain arithmetic on its root columns: run on numpy
        # columns, whose products may round differently, it agrees with
        # bethe_residual's Python numbers
        inst = KERNEL_CASES[name]
        rng = np.random.default_rng(3)
        for _ in range(3):
            qplus = [Poly.from_roots(list(1.5 * (rng.standard_normal(m)
                                                 + 1j * rng.standard_normal(m))))
                     for m in inst.degrees]
            got = bethe_residual(inst, qplus)
            cols = [np.array([w]) for _, w, _ in got]  # one seed per column
            L, R = _bethe_kernel(inst)(cols)
            for (_, _, res), l, r in zip(got, L, R):
                ref = l[0] / r[0] + 1
                assert abs(res - ref) <= 1e-13 * (1 + abs(ref))

    @staticmethod
    def central_jacobian(sides, x, h):
        """Reference: the Jacobian of L + R by central differences."""
        cols = []
        for j in range(len(x)):
            up, down = list(x), list(x)
            up[j] += h
            down[j] -= h
            fu, fd = ([l + r for l, r in zip(*sides(y))] for y in (up, down))
            cols.append([(a - b) / (2 * h) for a, b in zip(fu, fd)])
        return [list(row) for row in zip(*cols)]

    def assert_jacobian_matches(self, sides, x):
        L, R, J = sides(x, True)
        assert (L, R) == sides(x)  # the same products, bit for bit
        ref = self.central_jacobian(sides, x, 1e-5 * (1 + max(map(abs, x))))
        for row, rrow in zip(J, ref):
            scale = max(map(abs, rrow))
            assert scale > 0
            for a, b in zip(row, rrow):
                assert abs(a - b) <= 1e-6 * scale
        return L, R, J

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_jacobian_matches_central_differences(self, name):
        inst = KERNEL_CASES[name]
        sides = _bethe_kernel(inst)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = 1.5 * (rng.standard_normal(sum(inst.degrees))
                       + 1j * rng.standard_normal(sum(inst.degrees)))
            self.assert_jacobian_matches(sides, [complex(w) for w in x])

    @pytest.mark.parametrize("name, k, t, shift", [
        ("A1 deg Lambda 6", 0, 1, "q"),     # x_t = q x_k, own roots
        ("A2", 0, 2, "1"),                  # x_t = x_k, node 2 after node 1
        ("G2", 1, 0, "1/q"),                # x_t = x_k / q, node 1 before 2
    ])
    def test_jacobian_at_a_q_string_zero(self, name, k, t, shift):
        # a factor of L_k is exactly 0 there, so L_k is: a derivative that
        # divides by each factor would divide by 0
        inst = KERNEL_CASES[name]
        qc = complex(inst.q)
        rng = np.random.default_rng(5)
        x = [complex(w) for w in 1.5 * (rng.standard_normal(sum(inst.degrees))
                                        + 1j * rng.standard_normal(sum(inst.degrees)))]
        x[t] = {"q": qc * x[k], "1": x[k], "1/q": x[k] / qc}[shift]
        L, _, J = self.assert_jacobian_matches(_bethe_kernel(inst), x)
        assert L[k] == 0
        assert all(cmath.isfinite(v) for row in J for v in row)

    def test_overflowing_seeds_are_dropped_and_counted(self):
        # seeds spread like Lambda's root, 1e9: Q+(w), a product of 40
        # such factors, overflows at every seed
        inst = a1_instance(lam=Poly([-1e9, 1.0]), m=40)
        stats = {}
        assert solve_bethe(inst, seeds=4, seed=0, stats=stats) == []
        assert stats["nonfinite"] == stats["seeds"] == 4
        assert stats["newton_iterations"] == 0

    def test_singular_jacobians_are_dropped_and_counted(self, monkeypatch):
        # second equation constant for |x1| < 3, where a seed of spread 3
        # starts with probability 1 - exp(-1/2): a zero row in J there
        def kernel(inst):
            def sides(x, jacobian=False):
                flat = abs(x[1]) < 3
                L, R = [x[0] ** 2 - 1, 1 if flat else x[1] - 4], [0j, 0j]
                if not jacobian:
                    return L, R
                return L, R, [[2 * x[0], 0j], [0j, 0j if flat else 1 + 0j]]
            return sides

        monkeypatch.setattr(qq, "_bethe_kernel", kernel)
        stats = {}
        solve_bethe(a2_instance(), seeds=20, seed=0, stats=stats)
        assert 0 < stats["singular"] < 20
        assert stats["converged"] == 20 - stats["singular"]
        assert stats["nonfinite"] == stats["out_of_iterations"] == 0


class TestSolveBetheGolden:
    """The shipped a2_generic solve, pinned to the per-seed scalar solver's
    output as a set: which seed finds a solution depends on the seed stream."""

    QPLUS_ROOTS = [(-0.3459128490668868, 0.2567365545262281),
                   (0.6381381296463663, 0.4428682619321466),
                   (0.04043192023187954, -0.0011284732346378114)]
    QMINUS = [((4.453200658237208, 5.9999999999999964),
               (1.1548675969371047, 2.142857142857142)),
              ((-4.164003760542274, 6.000000000000007),
               (-1.235075047623732, 2.1428571428571432)),
              ((0.16746272175537785, 6.000000000000002),
               (30.710459551526995, 2.142857142857144))]

    def test_solutions_as_a_set(self):
        inst, _, extras = parse_instance(json.loads(A2_GENERIC.read_text()))
        stats = {}
        sols = solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                           seed=extras["seed"], stats=stats)
        assert len(sols) == 3
        for roots, qminus in zip(self.QPLUS_ROOTS, self.QMINUS):
            sol, = [s for s in sols
                    if all(abs(p.coeffs[0] + r) <= 1e-10
                           for p, r in zip(s.qplus, roots))]
            assert all(p.degree == 1 for p in sol.qplus)
            for p, cs in zip(sol.qminus, qminus):
                assert len(p.coeffs) == len(cs)
                assert all(abs(c - d) <= 1e-10 * (1 + abs(d))
                           for c, d in zip(p.coeffs, cs))
        assert stats["seeds"] == 40 and stats["accepted"] == 3
        assert stats["seeds"] == (stats["converged"] + stats["nonfinite"]
                                  + stats["singular"] + stats["out_of_iterations"]
                                  + stats["degenerate"])
        assert stats["converged"] + stats["out_of_iterations"] == (
            stats["rejected_residual"] + stats["duplicates"]
            + stats["rejected_qq"] + stats["accepted"])
        assert 0 < stats["worst_bethe_residual"] <= extras["bethe_tol"]
        assert 0 < stats["max_newton_iterations"] <= 80


# the gen.py seed-2 a2_m21 `solve` input of the benchmark, copied by hand
A2_M21 = {
    "version": 1, "lie_type": "A", "rank": 2, "ordering": [1, 2],
    "q": [0.2, 0.0], "degrees": [2, 1], "seed": 1785709704,
    "zetas": [[2.0951544030606764, 0.43705225812323295],
              [2.9204098200037736, 0.21472112924469308]],
    "lambdas": [{"coeffs": [[-1.0927020870312052, -0.041528910223232185],
                            [1.0, 0.0]]},
                {"coeffs": [[-1.8854519902488636, -0.01750256865962474],
                            [1.0, 0.0]]}],
    "tolerances": {"bethe_tol": 1e-10, "tau": 1e-10}}


# the gen.py seed-1 g2_m11 `solve` input of the benchmark, copied by hand
G2_M11 = {
    "version": 1, "lie_type": "G", "rank": 2, "ordering": [1, 2],
    "q": [0.2, 0.0], "degrees": [1, 1], "seed": 1840849742,
    "zetas": [[1.8004637934087688, 0.45737802120857535],
              [3.0969063223497786, 0.7399829158202333]],
    "lambdas": [{"coeffs": [[-1.2400784800735007, 0.23757937720503997],
                            [1.0, 0.0]]},
                {"coeffs": [[-1.8767134823278522, 0.12568261990497726],
                            [1.0, 0.0]]}],
    "tolerances": {"bethe_tol": 1e-10, "tau": 1e-10}}


class TestDividedKernel:
    """Newton on the kernel's divided sides: a lone root at w = 0 is no
    zero of them, and no seed creeps there.  Two roots that share a
    factor and meet at 0 are a common zero of both sides: a seed that
    reaches it is stopped and counted as degenerate."""

    @staticmethod
    def solve(doc, monkeypatch):
        """The direct solve (no walk from the short side of the orbit)
        with the CLI's seeds and tolerance, and every Newton result."""
        inst, _, extras = parse_instance(doc)
        candidates, stats = [], collections.Counter()
        real = newton._newton

        def recording(*args):
            x = real(*args)
            if x is not None:
                candidates.append(x)
            return x

        monkeypatch.setattr(newton, "_newton", recording)
        sols = newton._multistart(inst, 40, extras["bethe_tol"],
                                  extras["seed"], stats)
        return inst, [s for s, _ in sols], stats, candidates

    def test_no_candidate_at_zero(self, monkeypatch):
        # at the undivided sides, 24 of these 40 seeds ended at w = 0
        doc = json.loads((A2_GENERIC.parent / "a1_closed_form.json").read_text())
        _, sols, _, candidates = self.solve(doc, monkeypatch)
        assert len(sols) == 1 and len(candidates) == 40
        assert min(abs(w) for x in candidates for w in x) > 1e-6

    def test_no_seed_runs_to_the_cap(self, monkeypatch):
        # at the undivided sides, 22 of the 40 seeds crept towards w = 0
        # and ran all 80 iterations.  What is left at 0 is the common zero
        # of both roots there, where Q+_2(w) and Q+_2(qw) vanish together:
        # the 7 seeds that converged to it are stopped on the way
        _, sols, stats, candidates = self.solve(
            json.loads(A2_GENERIC.read_text()), monkeypatch)
        assert len(sols) == 3
        assert stats["out_of_iterations"] == 0 and stats["degenerate"] == 7
        assert len(candidates) == stats["converged"] == 33
        for x in candidates:
            near = [abs(w) <= 1e-6 for w in x]
            assert all(near) or not any(near)

    # the roots of Q+_1 and Q+_2 of each solution
    G2_QPLUS_ROOTS = [
        (-0.09581017059189635 + 0.11182825205878881j,
         0.01753041925044561 - 0.011255149099517284j),
        (0.3216479368055901 - 0.2924480332816578j,
         0.0630171494687261 - 0.14776183766610912j),
        (0.45269295358377193 + 0.09372128963345654j,
         0.12765521642145794 + 0.11456647291684227j),
        (0.6769487390082068 - 0.12586587805368812j,
         0.38637030407643985 - 0.03299887100562657j),
        (-0.5087471933359543 + 0.24278164309903957j,
         0.3083248571477874 - 0.004846792148976405j)]

    def test_g2_common_zero_is_stopped(self, monkeypatch):
        # 23 of these 40 seeds ran all 80 iterations towards the common
        # zero at 0 of both roots, a multiple zero through the neighbour
        # power 3; now each stops there, and the solutions are unchanged
        _, sols, stats, candidates = self.solve(G2_M11, monkeypatch)
        assert stats["out_of_iterations"] == 0 and stats["degenerate"] == 23
        assert len(candidates) == stats["converged"] == 17
        assert len(sols) == len(self.G2_QPLUS_ROOTS) == 5
        for roots in self.G2_QPLUS_ROOTS:
            sol, = [s for s in sols
                    if all(abs(p.coeffs[0] + r) <= 1e-10
                           for p, r in zip(s.qplus, roots))]
            assert all(p.degree == 1 for p in sol.qplus)

    def test_a2_m21_finds_its_solution(self, monkeypatch):
        # the census of this input is 1; the undivided sides found none
        inst, sols, _, _ = self.solve(A2_M21, monkeypatch)
        assert len(sols) == 1
        assert max(r.norm() for r in qq_residual(inst, sols[0])) <= 1e-8

    def test_a_zero_of_f_with_a_singular_jacobian_converges(self, monkeypatch):
        # one of these seeds ends on the family where a root of Q+_1
        # equals the root of Q+_2 and the other root of Q+_1 is that root
        # over q: L + R is at rounding level there, 1e-17, and the exact
        # Jacobian is singular.  No step is needed, so the seed counts as
        # converged, and the scored filter refuses it, as the others there
        inst, _, extras = parse_instance(A2_M21)
        singular, solve_linear = [], newton.solve_linear

        def spy(rows):  # the rows of [J | -F], eliminated in place
            minus_f = [row[-1] for row in rows]
            step = solve_linear(rows)
            if step is None:
                singular.append(max(map(abs, minus_f)))
            return step

        monkeypatch.setattr(newton, "solve_linear", spy)
        stats = collections.Counter()
        sols = newton._multistart(inst, 40, extras["bethe_tol"],
                                  extras["seed"], stats)
        assert len(singular) == 1 and singular[0] < 1e-15
        assert stats["singular"] == stats["nonfinite"] == 0
        assert len(sols) == 1

    def test_one_seed_gives_one_solution_list(self):
        inst, _, extras = parse_instance(A2_M21)
        runs = [[(tuple(p.coeffs for p in s.qplus),
                  tuple(p.coeffs for p in s.qminus))
                 for s in solve_bethe(inst, seeds=40, seed=extras["seed"])]
                for _ in range(2)]
        assert runs[0] and runs[0] == runs[1]


def least_by_rule(inst):
    """The short side by its definition: over the degrees that steps
    reach, breadth first, the least by (sum, word length, word), each
    degree vector with the first word that reaches it; words list the
    steps first step first.  ((), m) when some step reaches a negative
    degree."""
    first, frontier = {inst.degrees: ()}, [inst.degrees]
    while frontier:
        nxt = []
        for m in frontier:  # in lexicographic order of their words
            for i in range(1, inst.rank + 1):
                d = dual_degree(inst, m, i)
                if d < 0:
                    return (), inst.degrees
                v = m[:i - 1] + (d,) + m[i:]
                if v not in first:
                    first[v] = first[m] + (i,)
                    nxt.append(v)
        frontier = nxt
    m = min(first, key=lambda v: (sum(v), len(first[v]), first[v]))
    return first[m], m


class TestShortSide:
    """solve_bethe solves at the least sum of degrees in the orbit of the
    Backlund steps m_i -> m'_i = deg Lambda_i + sum_{j != i} (-a_ji) m_j
    - m_i, and walks each solution back."""

    @pytest.mark.parametrize("lie_type, rank", [("A", 2), ("A", 3),
                                                ("B", 2), ("G", 2)])
    def test_matches_the_rule(self, lie_type, rank):
        for lam in itertools.product((1, 2, 3), repeat=rank):
            for m in itertools.product(range(6 if rank == 2 else 4),
                                       repeat=rank):
                inst = instance(lie_type, rank, m, lam)
                assert short_side(inst) == least_by_rule(inst), (lam, m)

    @pytest.mark.parametrize("lie_type, m, word, least", [
        # both nodes lower the sum at the start: the lower node steps first
        ("B", (3, 4), (1, 2, 1, 2), (0, 0)),
        # m'_i reads column i of the Cartan matrix (a_ji): row i (a_ij)
        # picks (2, 1) and (2,) here
        ("B", (2, 2), (1, 2), (1, 1)),
        ("G", (2, 2), (1,), (1, 2)),
        ("G", (3, 3), (1, 2), (1, 1)),
        ("G", (1, 2), (), (1, 2))])
    def test_b2_g2_words(self, lie_type, m, word, least):
        assert short_side(instance(lie_type, 2, m, (1, 1))) == (word, least)

    def test_a_negative_degree_solves_directly(self):
        # m = 40 > deg Lambda: the step at node 1 reaches m' = -39
        assert short_side(a1_instance(lam=Poly([-1e9, 1.0]), m=40)) == (
            (), (40,))

    @pytest.mark.parametrize("doc", [A2_M21, G2_M11,
                                     dict(G2_M11, lie_type="B")])
    def test_degree_formula_is_the_q_minus_and_step_degree(self, doc):
        inst, _, extras = parse_instance(doc)
        sols = solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                           seed=extras["seed"])
        assert sols
        for sol in sols:
            for i in range(1, inst.rank + 1):
                d = dual_degree(inst, inst.degrees, i)
                assert d == sol.qminus[i - 1].degree
                assert d == backlund_step(inst, sol, i)[0].degrees[i - 1]

    @pytest.mark.parametrize("lie_type, degrees, word, count", [
        ("G", (2, 1), [1, 2], 1), ("B", (2, 2), [1, 2], 4),
        ("G", (3, 3), [1, 2], 5)])
    def test_walked_solutions_solve_the_instance(self, lie_type, degrees,
                                                 word, count):
        # the direct solve finds none of these at 40 seeds
        inst, _, extras = parse_instance(dict(G2_M11, lie_type=lie_type,
                                              degrees=list(degrees)))
        stats = {}
        sols = solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                           seed=extras["seed"], stats=stats)
        assert stats["word"] == word and len(sols) == count
        scale = 1 + max(l.norm() for l in inst.lambdas)
        for sol in sols:
            assert tuple(p.degree for p in sol.qplus) == degrees
            assert max(r.norm() for r in qq_residual(inst, sol)) <= 1e-8 * scale
            assert nondegenerate(inst, sol) == []

    def test_worst_residual_is_that_of_the_returned_solutions(self):
        # B2 m = (2, 2) runs Newton at m' = (1, 1); the families found there
        # are not what the telemetry reports on
        inst, _, extras = parse_instance(dict(G2_M11, lie_type="B",
                                              degrees=[2, 2]))
        stats, residuals = {}, []
        sols = solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                           seed=extras["seed"], stats=stats,
                           residuals=residuals)
        assert stats["word"] == [1, 2] and len(sols) == 4
        assert stats["worst_bethe_residual"] == max(
            abs(r[2]) for br, _ in residuals for r in br)
        assert stats["rejected_qq"] == 0

    def test_a_resonance_on_the_way_solves_directly(self):
        # zeta_1 zeta_2 = q: the twist passes the resonance check, but the
        # twist reflected along (1, 2) has ratio q^-1 at node 2, where the
        # Q- solve of the one family at m' = (0, 0) refuses.  The direct
        # solve finds the instance's solution, and solve_bethe returns it
        inst, _, extras = parse_instance(dict(A2_M21, zetas=[[2.0, 0.0],
                                                             [0.1, 0.0]]))
        assert short_side(inst) == ((1, 2), (0, 0))
        assert resonance_check(inst) == []
        twist = inst.twist
        for letter in (1, 2):
            twist = reflect_twist(twist, letter, inst.cartan)
        # in the window 1 of the degrees m' = (0, 0)
        assert resonance_check(inst.with_twist(twist, (0, 0))) == ["node 2"]
        stats = {}
        sols = solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                           seed=extras["seed"], stats=stats)
        direct = newton._multistart(inst, 40, extras["bethe_tol"],
                                    extras["seed"], collections.Counter())
        assert stats["word"] == [] and stats["solved_degrees"] == [2, 1]
        assert len(sols) == len(direct) == 1
        assert [p.coeffs for p in sols[0].qplus + sols[0].qminus] == [
            p.coeffs for p in direct[0][0].qplus + direct[0][0].qminus]

    def test_a_refused_step_on_the_way_solves_directly(self):
        # Lambda = (z - 1)(z + 5/7), zeta = 2, q = 0.2: the one family at
        # m' = 0 has Q-_1 = 0 at z = 1, a zero of Lambda_1, so the step
        # back to m = 2 is refused and the instance is solved as it is
        inst = a1_instance(zeta=2.0, q=0.2, lam=Poly.from_roots([1.0, -5 / 7]),
                           m=2)
        assert short_side(inst) == ((1,), (0,))
        stats = {}
        solve_bethe(inst, seeds=40, tol=1e-10, seed=0, stats=stats)
        assert stats["word"] == [] and stats["solved_degrees"] == [2]
        assert stats["seeds"] == 40
