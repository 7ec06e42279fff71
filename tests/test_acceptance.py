"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s); failures
surface as ordinary assertion errors.  Solved fixtures are session-scoped
so the stated runtime budgets apply to the work each criterion adds.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qoper.cartan import TwistZ, cartan_matrix, enumerate_weyl
from qoper.polynomials import Poly, RatFun
from qoper.qq import (DegenerateInstance, QQInstance, QQSolution,
                      bethe_residual, qq_residual, solve_bethe)
from qoper.backlund import apply_word, backlund_step
from qoper.wronskian import (RatMatrix, check_lewis_carroll,
                             miura_from_wronskian, sample_bundle,
                             type_a_bundle)
from constructions import (column_index_set, compound_equation_residuals,
                           gauss_decompose, plucker_per_point, replace,
                           word_length)

ROOT = Path(__file__).resolve().parent.parent
PANEL20 = list(1.11 * np.exp(2j * np.pi * np.linspace(0.03, 0.97, 20)))


def report(n, label, elapsed, budget):
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {budget}s) - {label}")
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"


@pytest.fixture(scope="module")
def a1_closed():
    cd = cartan_matrix("A", 1)
    inst = QQInstance(cd, 1.0 / 3.0, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (1,))
    sol = solve_bethe(inst, seeds=12, tol=1e-12, seed=1)[0]
    return inst, sol


@pytest.fixture(scope="module")
def a2_solved():
    cd = cartan_matrix("A", 2)
    inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0)),
                      (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
    sol = solve_bethe(inst, seeds=40, tol=1e-11, seed=3)[0]
    return inst, sol


def test_01_sl2_closed_form_root():
    t0 = time.time()
    cd = cartan_matrix("A", 1)
    inst = QQInstance(cd, 1.0 / 3.0, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (1,))
    sols = solve_bethe(inst, seeds=12, tol=1e-12, seed=1)
    assert len(sols) == 1
    root = complex(-sols[0].qplus[0].coeffs[0])
    want = (4.0 / 3.0 - 1.0) / 3.0  # (zeta^2 q - 1)/(zeta^2 - 1)
    assert abs(root - want) <= 1e-10
    assert abs(want - 1.0 / 9.0) < 1e-15
    report(1, "SL(2) closed-form Bethe root w = 1/9", time.time() - t0, 1.0)


def test_02_qq_bethe_bijection():
    t0 = time.time()
    cd1 = cartan_matrix("A", 1)
    lam6 = Poly.from_roots([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    for m in (1, 2, 3):
        inst = QQInstance(cd1, 0.17, TwistZ((1.9,)), (lam6,), (m,))
        sols = solve_bethe(inst, seeds=30, tol=1e-10, seed=m)
        assert sols, f"no A1 solutions found at m={m}"
        for sol in sols:
            qz = max(r.norm() for r in qq_residual(inst, sol))
            bz = max(abs(b[2]) for b in bethe_residual(inst, sol.qplus))
            assert qz <= 1e-8 and bz <= 1e-8

    cd2 = cartan_matrix("A", 2)
    inst2 = QQInstance(cd2, 0.2, TwistZ((2.0, 3.0)),
                       (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
    sols2 = solve_bethe(inst2, seeds=40, tol=1e-10, seed=3)
    assert sols2
    good = sols2[0]
    for sol in sols2:
        qz = max(r.norm() for r in qq_residual(inst2, sol))
        bz = max(abs(b[2]) for b in bethe_residual(inst2, sol.qplus))
        assert qz <= 1e-8 and bz <= 1e-8

    # a perturbed solution fails both residuals
    pq = list(good.qplus)
    pq[0] = Poly([pq[0].coeffs[0] + 1e-3, 1.0])
    perturbed = QQSolution(tuple(pq), good.qminus)
    qz = max(r.norm() for r in qq_residual(inst2, perturbed))
    bz = max(abs(b[2]) for b in bethe_residual(inst2, perturbed.qplus))
    assert qz > 1e-8 and bz > 1e-8
    report(2, "QQ and Bethe residuals vanish together, perturbation fails both",
           time.time() - t0, 10.0)


def test_03_sl2_unimodular(a1_closed):
    t0 = time.time()
    inst, sol = a1_closed
    W = type_a_bundle(inst, sol).W
    worst = max(abs(np.linalg.det(np.array(W.eval(x))) - 1.0) for x in PANEL20)
    assert worst <= 1e-9

    # non-solution control: Q+ = Q- = 1 gives det = Lambda^-1 (z - 1/z) != 1
    cd = cartan_matrix("A", 1)
    ctrl_inst = QQInstance(cd, 1.0 / 3.0, TwistZ((2.0,)), (Poly([-1.0, 1.0]),), (0,))
    ctrl = QQSolution((Poly.one(),), (Poly.one(),))
    Wc = type_a_bundle(ctrl_inst, ctrl).W
    dets = [np.linalg.det(np.array(Wc.eval(x))) for x in PANEL20]
    assert min(abs(d - 1.0) for d in dets) > 1e-2
    report(3, "det W = 1 on solved SL(2), fails on the control",
           time.time() - t0, 1.0)


def test_04_sl3_wronskian_equations(a2_solved):
    t0 = time.time()
    res = compound_equation_residuals(type_a_bundle(*a2_solved), PANEL20)
    ks = sorted({k for k, i in res})
    assert ks == [1, 2]
    assert max(res.values()) <= 1e-8
    report(4, "SL(3) transport equations hold for k = 1, 2",
           time.time() - t0, 5.0)


def test_05_lewis_carroll():
    t0 = time.time()
    rng = np.random.default_rng(17)
    for _ in range(100):
        M = RatMatrix([[RatFun(Poly([int(rng.integers(-5, 6))
                                     for _ in range(3)]))
                        for _ in range(4)] for _ in range(4)])
        resid = check_lewis_carroll(M, int(rng.integers(2, 5)))
        assert resid.num.is_zero(), "exact-mode Dodgson residual must vanish"
    worst = 0.0
    for _ in range(20):
        M = RatMatrix([[RatFun(Poly(rng.standard_normal(3)
                                    + 1j * rng.standard_normal(3)))
                        for _ in range(4)] for _ in range(4)])
        for i in (2, 3, 4):
            for x in (0.73 + 0.21j, -0.91 + 0.44j):
                worst = max(worst, check_lewis_carroll(
                    RatMatrix(M.eval(x)), i))
    assert worst <= 1e-10
    report(5, "Dodgson identity exact on 100 integer matrices, "
              f"float residual {worst:.1e}", time.time() - t0, 5.0)


def test_06_fundamental_relation(a2_solved):
    t0 = time.time()
    rng = np.random.default_rng(23)
    pts = [0.67 + 0.41j, -1.21 + 0.33j, 0.35 - 0.85j]

    def unit_tri(n, lowside):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(RatFun.one())
                elif (i > j) == lowside and abs(i - j) == 1:
                    row.append(RatFun(Poly(rng.standard_normal(2)
                                           + 1j * rng.standard_normal(2))))
                else:
                    row.append(RatFun.zero())
            rows.append(row)
        return RatMatrix(rows)

    def battery(M, data):
        n = data.rank + 1
        words = enumerate_weyl(data)
        worst = 0.0
        evals = {x: np.array(M.eval(x)) for x in pts}
        sets = {}

        def rows(w, i):
            key = (w, i)
            if key not in sets:
                sets[key] = column_index_set(w, i, data)[1]
            return sets[key]

        def minor(Mv, u, v, i):
            return np.linalg.det(Mv[np.ix_(rows(u, i), rows(v, i))])

        for i in range(1, n):
            admissible = []
            for w in words:
                wsi = w + (i,)
                if word_length(wsi, data) == word_length(w, data) + 1:
                    admissible.append((w, wsi))
            for (u, usi) in admissible:
                for (v, vsi) in admissible:
                    for x in pts:
                        Mv = evals[x]
                        t1 = minor(Mv, u, v, i) * minor(Mv, usi, vsi, i)
                        t2 = minor(Mv, usi, v, i) * minor(Mv, u, vsi, i)
                        rhs = 1.0 + 0.0j
                        for j in range(1, data.rank + 1):
                            if j == i:
                                continue
                            e = -data.a(j, i)
                            if e:
                                rhs *= minor(Mv, u, v, j) ** e
                        scale = 1.0 + max(abs(t1), abs(t2), abs(rhs))
                        worst = max(worst, abs(t1 - t2 - rhs) / scale)
        return worst

    worst = 0.0
    for n in (3, 4):
        data = cartan_matrix("A", n - 1)
        for _ in range(10):
            M = unit_tri(n, True) @ unit_tri(n, False) @ unit_tri(n, True)
            worst = max(worst, battery(M, data))
    inst, sol = a2_solved
    W = type_a_bundle(inst, sol).W
    worst = max(worst, battery(W, inst.cartan))
    assert worst <= 1e-9
    report(6, f"minor exchange relation, worst residual {worst:.1e}",
           time.time() - t0, 10.0)


def test_07_backlund_involution_and_w0(a2_solved):
    t0 = time.time()
    inst, sol = a2_solved
    for i in (1, 2):
        i1, s1, _ = backlund_step(inst, sol, i)
        i2, s2, _ = backlund_step(i1, s1, i)
        assert max(abs(complex(a) - complex(b))
                   for a, b in zip(i2.twist.zetas, inst.twist.zetas)) <= 1e-9
        for got, want in zip(s2.qplus + s2.qminus, sol.qplus + sol.qminus):
            assert got.degree == want.degree
            assert max(abs(complex(a) - complex(b))
                       for a, b in zip(got.coeffs, want.coeffs)) <= 1e-9
    _, sa, _ = apply_word(inst, sol, (1, 2, 1))
    _, sb, _ = apply_word(inst, sol, (2, 1, 2))
    for i in range(2):
        pa, pb = sa.qplus[i].monic(), sb.qplus[i].monic()
        assert pa.degree == pb.degree
        assert max(abs(complex(a) - complex(b))
                   for a, b in zip(pa.coeffs, pb.coeffs)) <= 1e-8
    report(7, "Backlund double step is the identity; the two w0 words agree",
           time.time() - t0, 10.0)


def test_08_miura_reconstruction(a1_closed, a2_solved):
    t0 = time.time()
    for inst, sol in (a1_closed, a2_solved):
        gap = miura_from_wronskian(sample_bundle(type_a_bundle(inst, sol)))
        assert gap <= 1e-8
    report(8, "Wronskian and product Miura connections agree entrywise",
           time.time() - t0, 5.0)


def test_09_gauss_iff():
    t0 = time.time()
    # int entries; the quotients by the pivots are float
    good = RatMatrix([[RatFun(Poly([2, 1])), RatFun(Poly([1])), RatFun.zero()],
                      [RatFun(Poly([1])), RatFun(Poly([3])), RatFun(Poly([1]))],
                      [RatFun.zero(), RatFun(Poly([1])), RatFun(Poly([2]))]])
    L, D, U = gauss_decompose(good)
    R = L @ D @ U
    for i in range(3):
        for j in range(3):
            diff = R[i, j] - good[i, j]
            assert diff.num.norm() <= 1e-12 * (1 + diff.den.norm())
    bad = RatMatrix([[RatFun.zero(), RatFun.one()],
                     [RatFun.one(), RatFun.zero()]])
    with pytest.raises(DegenerateInstance, match="principal minor 1"):
        gauss_decompose(bad)
    # vanishing second principal minor, nonzero first
    bad2 = RatMatrix([[RatFun.one(), RatFun.one()],
                      [RatFun.one(), RatFun.one()]])
    with pytest.raises(DegenerateInstance, match="principal minor 2"):
        gauss_decompose(bad2)
    report(9, "Gaussian decomposition exists iff principal minors are nonzero",
           time.time() - t0, 1.0)


def test_10_plucker_blocks(a2_solved):
    t0 = time.time()
    b = type_a_bundle(*a2_solved)
    for i in (1, 2):
        assert plucker_per_point(b, i, PANEL20) <= 1e-8
    rng = np.random.default_rng(31)
    bad = RatMatrix([[RatFun(Poly(rng.standard_normal(2)))
                      if i >= j else RatFun.zero()
                      for j in range(3)] for i in range(3)])
    assert plucker_per_point(replace(b, A=bad), 1, PANEL20) > 1e-3
    report(10, "rank-two block twist identity holds, control fails",
           time.time() - t0, 5.0)


def test_11_cli_determinism(tmp_path):
    t0 = time.time()
    inst_file = ROOT / "instances" / "a2_generic.json"
    outs = []
    for k in (1, 2):
        out = tmp_path / f"rep{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qoper.cli", "solve",
             "--instance", str(inst_file), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(out.read_text()))
    assert outs[0]["digest"] == outs[1]["digest"]
    report(11, "solve reports are byte-identical under a fixed seed",
           time.time() - t0, 10.0)
