"""The QQ-system and Bethe ansatz core.

An instance fixes a finite type with an ordering of the nodes, a dilation
parameter q, twist parameters zeta_i, singularity polynomials Lambda_i and
target degrees m_i.  The functional equations solved and verified here are

    xi~_i Q-_i(z) Q+_i(qz) - xi_i Q-_i(qz) Q+_i(z)
        = Lambda_i(z) prod_{j after i} Q+_j(qz)^{-a_ji}
                      prod_{j before i} Q+_j(z)^{-a_ji},

one per node, where "before/after" refer to positions in the instance
ordering and the twist factors are

    xi~_i = zeta_i prod_{j after i} zeta_j^{a_ji},
    xi_i  = zeta_i^{-1} prod_{j before i} zeta_j^{-a_ji}.

Evaluating the i-th equation at the roots of Q+_i eliminates Q-_i and
yields the Bethe equations, a square polynomial system in the roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cartan import CartanData, TwistZ, WeylWord, canonical_form
from .polynomials import (TAU, Poly, close, poly_roots, q_shift,
                          solve_poly_q_difference)


class DegenerateInstance(ValueError):
    """Raised when an operation's nondegeneracy precondition fails."""


@dataclass(frozen=True)
class QQInstance:
    cartan: CartanData
    q: complex
    twist: TwistZ
    lambdas: tuple
    degrees: tuple
    tau: float = TAU

    def __post_init__(self):
        r = self.cartan.rank
        if len(self.lambdas) != r or len(self.degrees) != r:
            raise ValueError("need one Lambda and one degree per node")
        for lam in self.lambdas:
            if lam.degree < 1:
                raise ValueError("every Lambda_i must be nonconstant")
        if complex(self.q) == 0:
            raise ValueError("q must be nonzero")
        if any(m < 0 for m in self.degrees):
            raise ValueError("degrees must be nonnegative")
        if self.twist.rank != r:
            raise ValueError("twist rank mismatch")

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def zetas(self) -> list:
        return list(self.twist.zetas)

    def default_window(self) -> int:
        """Resonance window: 2 max(m_i) + max deg Lambda."""
        return 2 * max(self.degrees, default=0) + max(l.degree for l in self.lambdas)

    def with_twist(self, twist: TwistZ) -> "QQInstance":
        return QQInstance(self.cartan, self.q, twist, self.lambdas,
                          self.degrees, self.tau)


@dataclass(frozen=True)
class QQSolution:
    qplus: tuple
    qminus: tuple

    def __post_init__(self):
        for p in self.qplus:
            if p.is_zero():
                raise ValueError("Q+ components must be nonzero")
            if not close(p.leading(), 1.0):
                raise ValueError("Q+ components must be monic")

    @property
    def rank(self) -> int:
        return len(self.qplus)


@dataclass
class FullQQSystem:
    """Q+ polynomials indexed by Weyl group elements, plus their twists.

    ``table[key][i]`` is the monic i-th Q+ of the system twisted by the
    element with canonical form ``key``; ``words`` maps the key back to a
    reduced word.  Refusals along the exploration are recorded rather than
    raised, and ``generic`` reports whether the whole group was covered.
    """

    base: QQSolution
    table: dict = field(default_factory=dict)
    twists: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    refusals: list = field(default_factory=list)
    generic: bool = True

    def entry(self, word: WeylWord, cartan: CartanData):
        return self.table.get(canonical_form(word, cartan))


def _ordered_positions(inst: QQInstance):
    """Nodes listed by position in the instance ordering."""
    return list(inst.cartan.ordering)


def xi_factors(inst: QQInstance):
    """Twist factor pairs (xi~_i, xi_i) for every node i = 1..r."""
    zetas = inst.zetas()
    order = _ordered_positions(inst)
    a = inst.cartan.a
    out = []
    for i in range(1, inst.rank + 1):
        pos = order.index(i)
        before = order[:pos]
        after = order[pos + 1:]
        xit = zetas[i - 1]
        for j in after:
            e = a(j, i)
            if e:
                xit = xit * zetas[j - 1] ** e
        xi = 1 / zetas[i - 1]
        for j in before:
            e = -a(j, i)
            if e:
                xi = xi * zetas[j - 1] ** e
        out.append((xit, xi))
    return out


def qq_rhs(inst: QQInstance, qplus: Sequence[Poly], i: int) -> Poly:
    """Right side of the i-th equation: Lambda_i times neighbor products."""
    order = _ordered_positions(inst)
    pos = order.index(i)
    a = inst.cartan.a
    rhs = inst.lambdas[i - 1]
    for j in order[pos + 1:]:
        e = -a(j, i)
        if e:
            rhs = rhs * q_shift(qplus[j - 1], inst.q) ** e
    for j in order[:pos]:
        e = -a(j, i)
        if e:
            rhs = rhs * qplus[j - 1] ** e
    return rhs


def qq_residual(inst: QQInstance, sol: QQSolution) -> list[Poly]:
    """One residual polynomial per node; all zero iff the system is solved."""
    pairs = xi_factors(inst)
    out = []
    for i in range(1, inst.rank + 1):
        xit, xi = pairs[i - 1]
        qp = sol.qplus[i - 1]
        qm = sol.qminus[i - 1]
        lhs = (qm * q_shift(qp, inst.q)).scale(xit) - (q_shift(qm, inst.q) * qp).scale(xi)
        out.append(lhs - qq_rhs(inst, sol.qplus, i))
    return out


@dataclass
class CheckReport:
    name: str
    passed: bool
    items: list = field(default_factory=list)

    def add(self, label, ok, witness=None, value=None):
        self.items.append({"label": label, "pass": bool(ok),
                           "witness": witness, "value": value})
        if not ok:
            self.passed = False


def resonance_check(inst: QQInstance, K: Optional[int] = None) -> CheckReport:
    """Verify prod_i zeta_i^{a_ij} avoids integer powers q^k, |k| <= K.

    Failure at k = 0 means the twist is not regular semisimple; failure at
    other k signals a resonance that breaks uniqueness of the Q- solves.
    """
    if K is None:
        K = inst.default_window()
    if K < 1:
        raise ValueError("window K must be >= 1")
    zetas = inst.zetas()
    a = inst.cartan.a
    qc = complex(inst.q)
    rep = CheckReport("resonance", True)
    for j in range(1, inst.rank + 1):
        val = 1.0 + 0.0j
        for i in range(1, inst.rank + 1):
            e = a(i, j)
            if e:
                val *= complex(zetas[i - 1]) ** e
        bad = None
        for k in range(-K, K + 1):
            if close(val, qc**k, inst.tau):
                bad = k
                break
        rep.add(f"node {j}", bad is None, witness=bad, value=val)
    return rep


def solve_q_minus(inst: QQInstance, qplus: Sequence[Poly], i: int,
                  degree_bound: Optional[int] = None) -> Poly:
    """Unique minimal-degree polynomial Q-_i solving the i-th equation.

    The equation is linear in Q-_i once all Q+_j are fixed; it is sampled
    at generic points and solved coefficient-wise, increasing the degree
    until the system becomes consistent.  Non-resonance of the twist at
    node i (prod_j zeta_j^{a_ji} avoiding small powers of q) guarantees
    uniqueness of the bounded-degree solution and is checked first.
    """
    if degree_bound is None:
        degree_bound = inst.degrees[i - 1] + max(l.degree for l in inst.lambdas) + 2
    ratio = 1.0 + 0.0j
    for j in range(1, inst.rank + 1):
        e = inst.cartan.a(j, i)
        if e:
            ratio *= complex(inst.zetas()[j - 1]) ** e
    qc0 = complex(inst.q)
    for k in range(-(degree_bound + 2), degree_bound + 3):
        if close(ratio, qc0**k, inst.tau):
            raise DegenerateInstance(
                f"resonant twist at node {i}: prod zeta^a = q^{k}, "
                "the Q- solve is not unique")
    xit, xi = xi_factors(inst)[i - 1]
    rhs_poly = qq_rhs(inst, qplus, i)
    qp = qplus[i - 1]
    qc = complex(inst.q)
    sol = solve_poly_q_difference(
        alpha=lambda z: complex(xit) * complex(qp(qc * z)),
        beta=lambda z: -complex(xi) * complex(qp(z)),
        rhs=lambda z: complex(rhs_poly(z)),
        q=qc, max_degree=degree_bound, tol=inst.tau)
    if sol is None:
        raise DegenerateInstance(
            f"no polynomial Q- exists at node {i} with degree <= {degree_bound}")
    return sol


def _bethe_sides(inst: QQInstance, qplus: Sequence[Poly], i: int, w: complex):
    """(LHS, RHS-without-minus) of the i-th Bethe equation at root w."""
    qc = complex(inst.q)
    a = inst.cartan.a
    order = _ordered_positions(inst)
    pos = order.index(i)
    qp = qplus[i - 1]
    lam = inst.lambdas[i - 1]
    den_l = complex(qp(w / qc))
    den_lam = complex(lam(w / qc))
    if abs(den_lam) <= inst.tau * (1 + lam.norm()):
        raise DegenerateInstance(
            f"degenerate root configuration: Lambda_{i}(q^-1 w) = 0 at w = {w}")
    if abs(den_l) <= inst.tau * (1 + qp.norm()):
        raise DegenerateInstance(
            f"degenerate root configuration: Q+_{i}(q^-1 w) = 0 at w = {w}")
    lhs = complex(qp(qc * w)) / den_l
    for j in range(1, inst.rank + 1):
        e = a(j, i)
        if e:
            lhs *= complex(inst.zetas()[j - 1]) ** e
    num = complex(lam(w))
    den = den_lam
    for j in order[pos + 1:]:
        e = -a(j, i)
        if e:
            num *= complex(qplus[j - 1](qc * w)) ** e
            den *= complex(qplus[j - 1](w)) ** e
    for j in order[:pos]:
        e = -a(j, i)
        if e:
            num *= complex(qplus[j - 1](w)) ** e
            den *= complex(qplus[j - 1](w / qc)) ** e
    return lhs, num / den


def bethe_residual(inst: QQInstance, qplus: Sequence[Poly]) -> list:
    """Per-root residuals LHS/RHS + 1; zero at a Bethe solution.

    Returns a list of (node, root, residual) triples over every root of
    every Q+_i, roots extracted numerically.
    """
    out = []
    for i in range(1, inst.rank + 1):
        qp = qplus[i - 1]
        if qp.degree != inst.degrees[i - 1]:
            raise ValueError(f"Q+_{i} must have exact degree {inst.degrees[i - 1]}")
        if qp.degree == 0:
            continue
        for w in poly_roots(qp.to_float()):
            lhs, rhs = _bethe_sides(inst, qplus, i, w)
            out.append((i, w, lhs / rhs + 1.0))
    return out


def _roots_to_qplus(inst: QQInstance, roots: np.ndarray) -> list[Poly]:
    out = []
    k = 0
    for i in range(inst.rank):
        m = inst.degrees[i]
        out.append(Poly.from_roots(list(roots[k:k + m])))
        k += m
    return out


def _bethe_system_value(inst: QQInstance, roots: np.ndarray) -> np.ndarray:
    """Cleared-denominator Bethe equations as a square complex system."""
    qplus = _roots_to_qplus(inst, roots)
    qc = complex(inst.q)
    a = inst.cartan.a
    order = _ordered_positions(inst)
    vals = []
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
                    lhs *= complex(inst.zetas()[j - 1]) ** e
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
            vals.append(lterm + rterm)
        k += m
    return np.array(vals, dtype=complex)


def solve_bethe(inst: QQInstance, seeds: int = 40, tol: float = 1e-10,
                seed: int = 0, max_iter: int = 80) -> list[QQSolution]:
    """Multi-start Newton solver for the Bethe system.

    Unknowns are the roots of the Q+ polynomials.  Converged root vectors
    are kept when every Bethe residual is below ``tol``; duplicates are
    removed by comparing sorted root multisets.  Each surviving Q+ family
    is completed to a QQSolution by the linear Q- solves, and solutions
    whose QQ residual exceeds 10 tol are dropped.
    """
    total = sum(inst.degrees)
    if total == 0:
        qplus = [Poly.one() for _ in range(inst.rank)]
        qminus = [solve_q_minus(inst, qplus, i) for i in range(1, inst.rank + 1)]
        return [QQSolution(tuple(qplus), tuple(qminus))]

    rng = np.random.default_rng(seed)
    lam_roots = []
    for lam in inst.lambdas:
        lam_roots.extend(poly_roots(lam.to_float()))
    spread = 1.0 + max(abs(r) for r in lam_roots)

    found: list[np.ndarray] = []
    for _ in range(seeds):
        x = spread * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
        ok = True
        for _ in range(max_iter):
            try:
                F = _bethe_system_value(inst, x)
            except (ZeroDivisionError, OverflowError):
                ok = False
                break
            J = np.zeros((total, total), dtype=complex)
            h = 1e-7 * (1.0 + np.abs(x).max())
            for j in range(total):
                dx = np.zeros(total, dtype=complex)
                dx[j] = h
                J[:, j] = (_bethe_system_value(inst, x + dx) - F) / h
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                ok = False
                break
            x = x + step
            if np.abs(step).max() < 1e-14 * (1.0 + np.abs(x).max()):
                break
        if not ok:
            continue
        try:
            qplus = _roots_to_qplus(inst, x)
            resid = bethe_residual(inst, qplus)
        except (DegenerateInstance, ValueError, ArithmeticError):
            continue
        if resid and max(abs(r[2]) for r in resid) > tol:
            continue
        blockkey = []
        k = 0
        for m in inst.degrees:
            blockkey.append(tuple(np.sort_complex(x[k:k + m])))
            k += m
        if any(_same_blocks(blockkey, other) for other in found):
            continue
        found.append(blockkey)

    solutions = []
    for blockkey in found:
        roots = np.array([w for block in blockkey for w in block], dtype=complex)
        qplus = _roots_to_qplus(inst, roots)
        try:
            qminus = [solve_q_minus(inst, qplus, i) for i in range(1, inst.rank + 1)]
        except DegenerateInstance:
            continue
        sol = QQSolution(tuple(qplus), tuple(qminus))
        residuals = qq_residual(inst, sol)
        if max(r.norm() for r in residuals) <= 10 * tol * (1 + max(
                l.norm() for l in inst.lambdas)):
            solutions.append(sol)
    return solutions


def _same_blocks(a, b, tol: float = 1e-7) -> bool:
    for ba, bb in zip(a, b):
        if len(ba) != len(bb):
            return False
        for x, y in zip(ba, bb):
            if abs(x - y) > tol * (1 + abs(x)):
                return False
    return True


def nondegenerate(inst: QQInstance, sol: QQSolution,
                  K: Optional[int] = None) -> CheckReport:
    """Nondegeneracy battery for a candidate solution.

    For every node j, the zeros of Q+_j and Q-_j must be q-distinct from
    each other, and both must be q-distinct from the zeros of Lambda_k for
    every k linked to j in the Cartan matrix (including k = j, so the
    rank-one case is not vacuous).  On top of that the twist must pass the
    resonance check; monicity of Q+ is enforced on construction.
    """
    from .polynomials import q_distinct
    if K is None:
        K = inst.default_window()
    rep = CheckReport("nondegenerate", True)
    res = resonance_check(inst, K)
    rep.add("resonance", res.passed, witness=[it for it in res.items if not it["pass"]])
    a = inst.cartan.a
    r = inst.rank

    def distinct(tag, p1, p2):
        if p1.is_zero() or p2.is_zero():
            rep.add(tag, False, witness="zero polynomial")
            return
        if p1.degree < 1 or p2.degree < 1:
            rep.add(tag, True)
            return
        ok, witness = q_distinct(p1.to_float(), p2.to_float(), inst.q, K, inst.tau)
        rep.add(tag, ok, witness=witness)

    for j in range(1, r + 1):
        distinct(f"Q+_{j} vs Q-_{j}", sol.qplus[j - 1], sol.qminus[j - 1])
        for k in range(1, r + 1):
            if a(j, k) == 0:
                continue
            distinct(f"Q+_{j} vs Lambda_{k}", sol.qplus[j - 1], inst.lambdas[k - 1])
            distinct(f"Q-_{j} vs Lambda_{k}", sol.qminus[j - 1], inst.lambdas[k - 1])
    return rep


def cartan_connection(inst: QQInstance, sol: QQSolution, z: complex) -> list[complex]:
    """Diagonal connection entries g_i(z) = zeta_i Q+_i(qz) / Q+_i(z)."""
    qc = complex(inst.q)
    out = []
    for i in range(inst.rank):
        qp = sol.qplus[i]
        den = complex(qp(z))
        if abs(den) <= inst.tau * (1 + qp.norm()):
            raise ZeroDivisionError(f"Q+_{i + 1} vanishes at the sample point {z}")
        out.append(complex(inst.zetas()[i]) * complex(qp(qc * z)) / den)
    return out
