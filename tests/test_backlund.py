import json
from pathlib import Path

import numpy as np
import pytest

from qoper import backlund, polynomials
from qoper.cartan import (TwistZ, canonical_form, cartan_matrix,
                          enumerate_weyl, reflect_twist)
from qoper.polynomials import Poly
from qoper.qq import (DegenerateInstance, QQInstance, QQSolution, check_scale,
                      nondegenerate, qq_residual, qq_rhs, resonance_check,
                      solve_bethe, solve_q_minus)
from qoper.backlund import (_step_nondegeneracy, apply_word, backlund_step,
                            full_qq_system)
from qoper.cli import parse_instance
from constructions import entry, mu_gauge, twist_along_word

A2_SOLVED = Path(__file__).resolve().parent.parent / "instances" \
    / "a2_solved.json"


def a1_solved(q=0.2, zeta=2.0):
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


def random_solved(rank, rng):
    """Solutions of a seeded non-resonant type-A instance of m_i = 1."""
    cd = cartan_matrix("A", rank)
    zetas = TwistZ(tuple(complex(2 + 2 * rng.random(), 0.3 * rng.standard_normal())
                         for _ in range(rank)))
    q = complex(0.2 + 0.2 * rng.random(), 0.05 * rng.standard_normal())
    lams = tuple(Poly([complex(*rng.standard_normal(2)), 1.0]) for _ in range(rank))
    inst = QQInstance(cd, q, zetas, lams, (1,) * rank)
    assert resonance_check(inst) == []
    return inst, solve_bethe(inst, seeds=20, tol=1e-11)


def reflected(inst, i):
    """The twist a step at node i moves to."""
    return reflect_twist(inst.twist, i, inst.cartan)


def rel_gap(p1, p2):
    """The largest coefficient gap of p1 and p2, relative to the largest
    coefficient of p2."""
    assert p1.degree == p2.degree
    gap = max(abs(complex(a) - complex(b)) for a, b in zip(p1.coeffs, p2.coeffs))
    return gap / p2.norm()


def poly_close(p1, p2, tol=1e-9):
    if p1.degree != p2.degree:
        return False
    return all(abs(complex(a) - complex(b)) <= tol * (1 + abs(complex(b)))
               for a, b in zip(p1.coeffs, p2.coeffs))


class TestMuGauge:
    def test_all_unit(self):
        cd = cartan_matrix("A", 2)
        sol = QQSolution((Poly.one(), Poly.one()), (Poly.one(), Poly.one()))
        assert abs(mu_gauge(sol, cd, 1, 0.37) - 1.0) < 1e-14

    def test_a1_value(self):
        cd = cartan_matrix("A", 1)
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly.one(),))
        assert abs(mu_gauge(sol, cd, 1, 2.0) - 0.5) < 1e-14

    def test_pole(self):
        cd = cartan_matrix("A", 1)
        sol = QQSolution((Poly([0.0, 1.0]),), (Poly.one(),))
        with pytest.raises(ZeroDivisionError):
            mu_gauge(sol, cd, 1, 0.0)


class TestBacklundStep:
    def test_a1_swap(self):
        inst, sol = a1_solved()
        ninst, nsol, rec = backlund_step(inst, sol, 1)
        assert abs(complex(ninst.twist.zetas[0]) - 0.5) < 1e-12
        assert poly_close(nsol.qplus[0], sol.qminus[0].monic())
        assert max(r.norm() for r in qq_residual(ninst, nsol)) <= 1e-9

    def test_involution(self):
        inst, sol = a2_solved()
        for i in (1, 2):
            i1, s1, _ = backlund_step(inst, sol, i)
            i2, s2, _ = backlund_step(i1, s1, i)
            assert all(abs(complex(a) - complex(b)) < 1e-9
                       for a, b in zip(i2.twist.zetas, inst.twist.zetas))
            for p1, p2 in zip(s2.qplus, sol.qplus):
                assert poly_close(p1, p2)
            for p1, p2 in zip(s2.qminus, sol.qminus):
                assert poly_close(p1, p2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_random_involution(self, rank):
        rng = np.random.default_rng(40 + rank)
        steps = 0
        for _ in range(3):
            inst, sols = random_solved(rank, rng)
            for sol in sols:
                for i in range(1, rank + 1):
                    i2, s2, _ = apply_word(inst, sol, (i, i))
                    assert all(abs(complex(a) - complex(b)) < 1e-9
                               for a, b in zip(i2.twist.zetas, inst.twist.zetas))
                    for p1, p2 in zip(s2.qplus, sol.qplus):
                        assert poly_close(p1, p2)
                    steps += 2
        assert steps >= 6

    def test_keeps_the_q_minus_of_nodes_off_the_step(self):
        inst, sol = a3_solved()
        ninst, nsol, rec = backlund_step(inst, sol, 1)
        # Q-_1 is the old Q+_1 rescaled; only the neighbour's is solved
        assert rec.solved == (2,)
        assert rec.instance is ninst and rec.solution is nsol
        assert nsol.qminus[2] is sol.qminus[2]
        # bit-equal to solving it again: the third equation did not change
        assert nsol.qminus[2].coeffs == solve_q_minus(ninst, nsol.qplus, 3).coeffs
        assert nsol.qminus[1].coeffs == solve_q_minus(ninst, nsol.qplus, 2).coeffs
        assert rel_gap(nsol.qminus[0], solve_q_minus(ninst, nsol.qplus, 1)) \
            <= 1e-12

    def test_refusal_carries_the_steps_before_it(self):
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 0.2, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (1,))
        sol = QQSolution((Poly([-3.0, 1.0]),), (Poly([-1.0, 1.0]),))
        stats = {}
        with pytest.raises(DegenerateInstance, match="refused") as info:
            apply_word(inst, sol, (1,), stats=stats)
        assert info.value.records == []
        assert stats["steps"] == 0 and stats["refusals"] == 1

    def test_degenerate_refusal(self):
        # force a shared root between Q- and Lambda
        cd = cartan_matrix("A", 1)
        inst = QQInstance(cd, 0.2, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (1,))
        sol = QQSolution((Poly([-3.0, 1.0]),), (Poly([-1.0, 1.0]),))
        assert _step_nondegeneracy(inst, sol, 1, reflected(inst, 1)) == [
            "Q-_1 vs Lambda_1"]
        # the reason names the condition that failed
        with pytest.raises(DegenerateInstance,
                           match="^backlund step at node 1 refused: "
                                 "Q-_1 vs Lambda_1$"):
            backlund_step(inst, sol, 1)

    def test_unit_twist_failure_lists(self):
        # the shipped a2_solved with zeta = (1, 1): every twist ratio is
        # q^0, so only the resonance conditions fail, and both steps refuse
        doc = json.loads(A2_SOLVED.read_text())
        doc["zetas"] = [[1.0, 0.0], [1.0, 0.0]]
        inst, sol, _ = parse_instance(doc)
        assert nondegenerate(inst, sol) == ["resonance"]
        for i in (1, 2):
            assert _step_nondegeneracy(inst, sol, i, reflected(inst, i)) == [
                "reflected twist resonant"]
            with pytest.raises(DegenerateInstance,
                               match="refused: reflected twist resonant$"):
                backlund_step(inst, sol, i)


def g2_far_window():
    """A hand-built G2 system at q = 1e25 whose own degrees (1, 1) keep
    every power a normal float, max deg Lambda + 3 sum m + 4 = 12, but
    whose Q-_2 has degree 10: the step at node 2 raises Q+_2 to degree 10,
    and the node-1 solve's window d + 2 = 13 to q^13 = 1e325."""
    inst = QQInstance(cartan_matrix("G", 2), 1e25, TwistZ((2.0, 3.0)),
                      (Poly.from_roots([0.3, -0.7]),
                       Poly.from_roots([1.1, 0.5 + 0.6j])), (1, 1))
    sol = QQSolution((Poly.from_roots([0.9]), Poly.from_roots([-0.4])),
                     (Poly.from_roots([1.7]),
                      Poly.from_roots([2.0 + 0.3j * k for k in range(10)])))
    return inst, sol


class TestWindowBeyondDoubleRange:
    def test_instance_itself_is_in_range(self):
        inst, _ = g2_far_window()
        check_scale(inst)

    def test_step_is_refused(self):
        inst, sol = g2_far_window()
        with pytest.raises(OverflowError):
            complex(inst.q) ** 13
        with pytest.raises(DegenerateInstance,
                           match="backlund step at node 2: q: .* to the "
                                 "power 39 leaves the float range"):
            backlund_step(inst, sol, 2)

    def test_walk_records_the_refusal(self):
        inst, sol = g2_far_window()
        fq = full_qq_system(inst, sol)
        assert fq.refusals
        refused, = [r for r in fq.refusals if r["word"] == (2,)]
        assert refused["node"] == 2 and "float range" in refused["reason"]


def rank2_solved(lie_type):
    """A solution of a B2 or G2 system of m = (1, 1)."""
    inst = QQInstance(cartan_matrix(lie_type, 2), 0.2, TwistZ((2.0, 3.0)),
                      (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
    return inst, solve_bethe(inst, seeds=20, seed=1)[0]


class TestSwap:
    """A step at node i takes the old Q+_i times -l xi_i / xi~'_i as the
    new Q-_i instead of solving for it."""

    @pytest.mark.parametrize("fixture, size", [
        (a2_solved, 6), (a3_solved, 24), (lambda: rank2_solved("B"), 8),
        (lambda: rank2_solved("G"), 12)])
    def test_is_the_solved_q_minus(self, monkeypatch, fixture, size):
        # at every step of the full table; G2 reaches Q- of degree 7
        inst, sol = fixture()
        real, gaps = backlund.backlund_step, []

        def recording(*args, **kw):
            ninst, nsol, rec = real(*args, **kw)
            solved = solve_q_minus(ninst, nsol.qplus, rec.node)
            gaps.append(rel_gap(nsol.qminus[rec.node - 1], solved))
            return ninst, nsol, rec

        monkeypatch.setattr(backlund, "backlund_step", recording)
        fq = full_qq_system(inst, sol)
        assert len(fq.table) == size and not fq.refusals
        assert len(gaps) == size - 1 and max(gaps) <= 1e-12

    def test_resonance_beyond_the_window_is_refused(self):
        # A1, Lambda = z - 1, m = 1, zeta = q^(-3/2): the step at node 1
        # reflects the twist ratio to zeta^-2 = q^3, outside the window
        # K = 1 of the step's conditions but inside the window m + 2 = 3 of
        # the new Q-_1, which is then not unique
        q = 0.2
        inst = QQInstance(cartan_matrix("A", 1), q, TwistZ((q ** -1.5,)),
                          (Poly([-1.0, 1.0]),), (1,), K=1)
        sol, = solve_bethe(inst, seeds=10, seed=1)
        assert _step_nondegeneracy(inst, sol, 1, reflected(inst, 1)) == []
        reason = ("resonant twist at node 1: prod zeta^a = q^3, the Q- solve "
                  "is not unique")
        with pytest.raises(DegenerateInstance) as info:
            backlund_step(inst, sol, 1)
        assert str(info.value) == reason
        fq = full_qq_system(inst, sol)
        assert fq.refusals == [{"word": (1,), "node": 1, "reason": reason}]


def exact_form(inst, sol):
    """The twist, degrees and Q+ and Q- coefficients of a solved system as
    one string: equal strings are equal bit for bit, signed zeros too."""
    return repr((inst.twist.zetas, inst.degrees,
                 [p.coeffs for p in sol.qplus], [p.coeffs for p in sol.qminus]))


@pytest.fixture(scope="module")
def walked(seed1_verify_inputs):
    """(instance, solution, full table) of the shipped a2_solved and of the
    seed-1 a3_m111, a3_ord321, b2_m11 and g2_m11 inputs, by name."""
    inputs = {"a2_solved": parse_instance(json.loads(A2_SOLVED.read_text()))[:2]}
    for name in ("a3_m111", "a3_ord321", "b2_m11", "g2_m11"):
        inputs[name] = seed1_verify_inputs[name]
    return {name: (inst, sol, full_qq_system(inst, sol))
            for name, (inst, sol) in inputs.items()}


class TestFullQQSystem:
    def test_identity_entry(self):
        inst, sol = a1_solved()
        fq = full_qq_system(inst, sol)
        ident_inst, ident_sol = entry(fq, (), inst.cartan)
        assert ident_inst is inst and ident_sol is sol

    def test_a1_two_entries(self):
        inst, sol = a1_solved()
        fq = full_qq_system(inst, sol)
        assert len(fq.table) == 2 and not fq.refusals
        _, sol1 = entry(fq, (1,), inst.cartan)
        assert poly_close(sol1.qplus[0], sol.qminus[0].monic())

    def test_a2_path_independence(self):
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        assert len(fq.table) == 6 and not fq.refusals
        ia, sa, _ = apply_word(inst, sol, (1, 2, 1))
        ib, sb, _ = apply_word(inst, sol, (2, 1, 2))
        for i in range(2):
            assert poly_close(sa.qplus[i], sb.qplus[i], tol=1e-8)
        assert all(abs(complex(a) - complex(b)) < 1e-10
                   for a, b in zip(ia.twist.zetas, ib.twist.zetas))
        # and the table's w0 entry matches both
        _, s_w0 = entry(fq, (1, 2, 1), inst.cartan)
        for i in range(2):
            assert poly_close(s_w0.qplus[i], sa.qplus[i], tol=1e-8)

    def test_entries_are_the_walks_along_their_words(self, walked):
        # each entry is apply_word along its reduced word, bit for bit
        for name, (inst, sol, fq) in walked.items():
            words = enumerate_weyl(inst.cartan)
            assert len(fq.table) == len(words) and not fq.refusals, name
            for word in words:
                winst, wsol, _ = apply_word(inst, sol, word)
                assert exact_form(*entry(fq, word, inst.cartan)) \
                    == exact_form(winst, wsol), (name, word)

    @pytest.mark.parametrize("rank, words", [
        (2, [((1, 2, 1), (2, 1, 2))]),
        (3, [((1, 2, 1), (2, 1, 2)), ((2, 3, 2), (3, 2, 3)), ((1, 3), (3, 1)),
             ((1, 2, 1, 3, 2, 1), (3, 2, 3, 1, 2, 3))])])
    def test_random_path_independence(self, rank, words):
        # two reduced words of one Weyl element reach the same Q+ and twist
        rng = np.random.default_rng(70 + rank)
        compared = 0
        for _ in range(2):
            inst, sols = random_solved(rank, rng)
            for sol in sols:
                for u, v in words:
                    assert canonical_form(u, inst.cartan) \
                        == canonical_form(v, inst.cartan)
                    ia, sa, _ = apply_word(inst, sol, u)
                    ib, sb, _ = apply_word(inst, sol, v)
                    for pa, pb in zip(sa.qplus, sb.qplus):
                        assert poly_close(pa, pb, tol=1e-10), (u, v)
                    assert all(abs(complex(a) - complex(b)) <= 1e-10
                               for a, b in zip(ia.twist.zetas, ib.twist.zetas))
                    compared += 1
        assert compared >= 2 * len(words)

    def test_stats(self, monkeypatch):
        inst, sol = a3_solved()
        found = []
        real = polynomials.poly_roots
        monkeypatch.setattr(polynomials, "poly_roots",
                            lambda p: found.append(p) or real(p))
        stats = {}
        fq = full_qq_system(inst, sol, stats=stats)
        assert stats["steps"] == len(fq.table) - 1
        assert stats["refusals"] == len(fq.refusals)
        assert stats["qminus_swapped"] == stats["steps"]
        assert stats["qminus_solved"] + stats["qminus_reused"] \
            + stats["qminus_swapped"] == 3 * stats["steps"]
        # a step at node 1 or 3 keeps the Q- of the node at the far end
        assert stats["qminus_reused"] > 0
        # each polynomial's roots are found once, and all are counted
        assert stats["roots_computed"] == len(found) > 0
        assert len({id(p) for p in found}) == len(found)

    def test_twist_tracking(self):
        inst, sol = a2_solved()
        fq = full_qq_system(inst, sol)
        for word in enumerate_weyl(inst.cartan):
            want = twist_along_word(inst.twist, word, inst.cartan)
            got = entry(fq, word, inst.cartan)[0].twist
            assert all(abs(complex(a) - complex(b)) < 1e-10
                       for a, b in zip(got.zetas, want.zetas))

    def test_every_entry_solves_its_system(self, walked):
        # the stored Q+ and Q- as they are, held to the bound of
        # backlund-step: rounding relative to the right sides
        for name, (_, _, fq) in walked.items():
            for winst, wsol in fq.table.values():
                resid = max(r.norm() for r in qq_residual(winst, wsol))
                scale = 1 + max(qq_rhs(winst, wsol.qplus, i).norm()
                                for i in range(1, winst.rank + 1))
                assert resid <= 1e-8 * scale, name
