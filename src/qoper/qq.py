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

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cartan import CartanData, TwistZ, WeylWord, canonical_form
from .polynomials import (TAU, Poly, close, ensure_finite, q_shift,
                          solve_q_difference)


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


def _neighbours(inst: QQInstance, i: int):
    """(after, before): the nodes j linked to node i that follow and that
    precede it in the instance ordering, each as a pair (j, e = -a_ji)."""
    order = inst.cartan.ordering
    pos = order.index(i)
    a = inst.cartan.a
    return ([(j, -a(j, i)) for j in order[pos + 1:] if a(j, i)],
            [(j, -a(j, i)) for j in order[:pos] if a(j, i)])


def xi_factors(inst: QQInstance):
    """Twist factor pairs (xi~_i, xi_i) for every node i = 1..r."""
    zetas = inst.zetas()
    out = []
    for i in range(1, inst.rank + 1):
        after, before = _neighbours(inst, i)
        xit = zetas[i - 1]
        for j, e in after:
            xit = xit * zetas[j - 1] ** -e
        xi = 1 / zetas[i - 1]
        for j, e in before:
            xi = xi * zetas[j - 1] ** e
        out.append((xit, xi))
    return out


def twist_product(inst: QQInstance, i: int) -> complex:
    """prod_j zeta_j^{a_ji} for node i, accumulated in node order."""
    zetas = inst.twist.zetas
    val = 1.0 + 0.0j
    for j in range(1, inst.rank + 1):
        e = inst.cartan.a(j, i)
        if e:
            val *= complex(zetas[j - 1]) ** e
    return val


def qq_rhs(inst: QQInstance, qplus: Sequence[Poly], i: int) -> Poly:
    """Right side of the i-th equation: Lambda_i times the neighbour
    factors Q+_j(qz)^e for j after i and Q+_j(z)^e for j before i,
    e = -a_ji."""
    after, before = _neighbours(inst, i)
    rhs = inst.lambdas[i - 1]
    for j, e in after:
        rhs = rhs * q_shift(qplus[j - 1], inst.q) ** e
    for j, e in before:
        rhs = rhs * qplus[j - 1] ** e
    return rhs


def qq_residual(inst: QQInstance, sol: QQSolution) -> list[Poly]:
    """One residual polynomial per node, left side minus right side.

    Exact input gives zero polynomials iff the system is solved; float
    input keeps the rounding error of every coefficient, so the residual's
    ``norm()`` is small but, in general, nonzero.
    """
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
    rep = CheckReport("resonance", True)
    for j in range(1, inst.rank + 1):
        val = twist_product(inst, j)
        bad = _resonant_power(inst, val, K)
        rep.add(f"node {j}", bad is None, witness=bad, value=val)
    return rep


def _resonant_power(inst: QQInstance, val: complex, K: int) -> Optional[int]:
    """The first k in -K..K with val = q^k to tau, or None."""
    qc = complex(inst.q)
    return next((k for k in range(-K, K + 1) if close(val, qc**k, inst.tau)),
                None)


def solve_q_minus(inst: QQInstance, qplus: Sequence[Poly], i: int,
                  degree_bound: Optional[int] = None) -> Poly:
    """Unique minimal-degree polynomial Q-_i solving the i-th equation.

    The equation is linear in Q-_i once all Q+_j are fixed.  Non-resonance
    of the twist at node i (prod_j zeta_j^{a_ji} = xi~_i / xi_i avoiding
    small powers of q) is checked first; it guarantees uniqueness, and it
    keeps the top coefficient lc (xi~_i q^{d+} - xi_i q^d) of the left
    side nonzero, so deg Q-_i = d = deg rhs - d+, with rhs = qq_rhs.  The
    coefficients of Q-_i then solve one linear system, by
    solve_q_difference with a(z) = xi~_i Q+_i(qz) and b(z) = -xi_i Q+_i(z).
    """
    if degree_bound is None:
        degree_bound = inst.degrees[i - 1] + max(l.degree for l in inst.lambdas) + 2
    k = _resonant_power(inst, twist_product(inst, i), degree_bound + 2)
    if k is not None:
        raise DegenerateInstance(f"resonant twist at node {i}: prod zeta^a = "
                                 f"q^{k}, the Q- solve is not unique")
    qc = complex(inst.q)
    xit, xi = (complex(x) for x in xi_factors(inst)[i - 1])
    p, rhs = qplus[i - 1], qq_rhs(inst, qplus, i)
    if rhs.degree - p.degree <= degree_bound:
        sol = solve_q_difference(q_shift(p, qc).scale(xit).coeffs,
                                 p.scale(-xi).coeffs, rhs.coeffs, qc,
                                 tol=inst.tau)
        if sol is not None:
            return sol
    raise DegenerateInstance(
        f"no polynomial Q- exists at node {i} with degree <= {degree_bound}")


def _roots_to_qplus(inst: QQInstance, roots: Sequence) -> list[Poly]:
    out = []
    k = 0
    for i in range(inst.rank):
        m = inst.degrees[i]
        out.append(Poly.from_roots(list(roots[k:k + m])))
        k += m
    return out


def _bethe_kernel(inst: QQInstance, prod=math.prod):
    """The two sides of the cleared-denominator Bethe system.

    The returned function takes x, the roots of Q+_1, ..., Q+_r end to end
    as a list of n = sum m_i columns, each a numpy array over seeds (all
    of one shape) or one Python complex, and returns the lists (L, R) of
    n columns of the same kind.  At the t-th root w of Q+_i, with
    e = -a_ji,

        L = prod_j zeta_j^{a_ji} Q+_i(qw) Lambda_i(w/q)
              prod_{j after i} Q+_j(w)^e prod_{j before i} Q+_j(w/q)^e,
        R = Q+_i(w/q) Lambda_i(w)
              prod_{j after i} Q+_j(qw)^e prod_{j before i} Q+_j(w)^e.

    The i-th Bethe equation is L/R = -1: Newton solves L + R = 0, and
    ``bethe_residual`` reports L/R + 1.  Each Q+_j(y) is ``prod`` of the
    list of factors (y - x_k) over the columns k of its roots; no
    polynomial is built.  The numpy callers pass a product that rounds as
    ``math.prod`` does on Python numbers (see ``_multistart``).
    """
    qc = complex(inst.q)
    blocks, end = [], 0
    for m in inst.degrees:
        blocks.append(range(end, end + m))
        end += m
    nodes = []
    for i in range(1, inst.rank + 1):
        if not inst.degrees[i - 1]:
            continue
        lam = [complex(c) for c in reversed(inst.lambdas[i - 1].coeffs)]
        nodes.append((i, twist_product(inst, i), lam, *_neighbours(inst, i)))

    def sides(x: list):
        def qplus(j, y):
            return prod([y - x[k] for k in blocks[j - 1]])

        def lam_at(lam, y):
            acc = lam[0]
            for c in lam[1:]:
                acc = acc * y + c
            return acc

        L, R = [None] * len(x), [None] * len(x)
        for i, twist, lam, after, before in nodes:
            for k in blocks[i - 1]:
                w = x[k]
                up, down = qc * w, w / qc
                lterm = qplus(i, up) * twist * lam_at(lam, down)
                rterm = qplus(i, down) * lam_at(lam, w)
                for j, e in after:
                    lterm = lterm * qplus(j, w) ** e
                    rterm = rterm * qplus(j, up) ** e
                for j, e in before:
                    lterm = lterm * qplus(j, down) ** e
                    rterm = rterm * qplus(j, w) ** e
                L[k], R[k] = lterm, rterm
        return L, R

    return sides


def bethe_residual(inst: QQInstance, qplus: Sequence[Poly]) -> list:
    """Per-root residuals L/R + 1 of the kernel's two sides; zero at a
    Bethe solution (see ``_bethe_kernel``).

    Returns a list of (node, root, residual) triples over every root of
    every Q+_i, roots extracted numerically.  A root w raises
    DegenerateInstance when Lambda_i(w/q) or Q+_i(w/q) vanishes to tau,
    or when a side is exactly 0; a side that is not finite raises
    NonFinite, and a power of a factor that overflows OverflowError.
    """
    roots = []
    for i, (qp, m) in enumerate(zip(qplus, inst.degrees), start=1):
        if qp.degree != m:
            raise ValueError(f"Q+_{i} must have exact degree {m}")
        roots.append(qp.roots() if m else ())
    L, R = _bethe_kernel(inst)([w for rs in roots for w in rs])
    qc = complex(inst.q)
    out = []
    for i, rs in enumerate(roots, start=1):
        qp, lam = qplus[i - 1], inst.lambdas[i - 1]
        for w in rs:
            if abs(complex(lam(w / qc))) <= inst.tau * (1 + lam.norm()):
                raise DegenerateInstance(f"degenerate root configuration: "
                                         f"Lambda_{i}(q^-1 w) = 0 at w = {w}")
            if abs(complex(qp(w / qc))) <= inst.tau * (1 + qp.norm()):
                raise DegenerateInstance(f"degenerate root configuration: "
                                         f"Q+_{i}(q^-1 w) = 0 at w = {w}")
            k = len(out)
            lhs, rhs = ensure_finite(L[k]), ensure_finite(R[k])
            for side, val in (("right", rhs), ("left", lhs)):
                if val == 0:
                    raise DegenerateInstance(f"degenerate root configuration: "
                                             f"{side} side 0 at w = {w}")
            out.append((i, w, lhs / rhs + 1.0))
    return out


def _solve_each(J, b):
    """Solutions y[s] of J[s] y[s] = b[s], and a mask of the nonsingular J[s]."""
    import numpy as np
    try:
        return np.linalg.solve(J, b[..., None])[..., 0], np.ones(len(b), bool)
    except np.linalg.LinAlgError:  # some J[s] is singular: solve one by one
        y = np.zeros_like(b)
        ok = np.ones(len(b), bool)
        for s in range(len(b)):
            try:
                y[s] = np.linalg.solve(J[s], b[s])
            except np.linalg.LinAlgError:
                ok[s] = False
        return y, ok


def _newton(sides, x, max_iter: int, tally: dict):
    """Run Newton's method on L + R = 0 from every row of x at once.

    Each iteration evaluates the two ``sides`` at every live iterate and
    at its n forward-difference neighbours (step h = 1e-7 (1 + max|x|)
    per row) in one call, and solves for every step in one batched solve.
    A row leaves the batch when its step falls below 1e-14 (1 + max|x|),
    when its values stop being finite, or when its Jacobian is singular.
    Returns the final iterates of the rows that converged or ran out of
    iterations, in row order, as the rows of one array.
    """
    import numpy as np
    rows = np.arange(len(x))
    final = {}
    eye = np.eye(x.shape[1])
    for it in range(1, max_iter + 1):
        if not rows.size:
            break
        h = 1e-7 * (1.0 + np.abs(x).max(axis=1))[:, None, None]
        pts = np.concatenate([x[:, None], x[:, None] + h * eye], axis=1)
        L, R = sides([pts[..., k] for k in range(len(eye))])
        V = np.stack([l + r for l, r in zip(L, R)], axis=-1)
        finite = np.isfinite(V).all(axis=(1, 2))
        tally["nonfinite"] += int(rows.size - finite.sum())
        rows, x, V, h = rows[finite], x[finite], V[finite], h[finite]
        F = V[:, 0]
        J = np.swapaxes((V[:, 1:] - F[:, None]) / h, 1, 2)
        step, ok = _solve_each(J, -F)
        tally["singular"] += int(rows.size - ok.sum())
        rows, x, step = rows[ok], x[ok] + step[ok], step[ok]
        if rows.size:
            tally["newton_iterations"] += int(rows.size)
            tally["max_newton_iterations"] = it
        done = np.abs(step).max(axis=1) < 1e-14 * (1.0 + np.abs(x).max(axis=1))
        tally["converged"] += int(done.sum())
        final.update(zip(rows[done].tolist(), x[done]))
        rows, x = rows[~done], x[~done]
    tally["out_of_iterations"] += int(rows.size)
    final.update(zip(rows.tolist(), x))
    return np.array([final[r] for r in sorted(final)],
                    dtype=complex).reshape(-1, len(eye))


def solve_bethe(inst: QQInstance, seeds: int = 40, tol: float = 1e-10,
                seed: int = 0, max_iter: int = 80,
                stats: Optional[dict] = None) -> list[QQSolution]:
    """Multi-start Newton solver for the Bethe system.

    Unknowns are the roots of the Q+ polynomials.  Seed s starts from
    spread (g + i g'), with g then g' two standard normal draws of the
    ``seed`` stream and spread 1 + max |root of Lambda|.  All seeds advance
    together on the cleared-denominator system (see ``_newton``).  The
    root vectors that converged or ran out of iterations are kept when
    every Bethe residual is below ``tol``; duplicates are removed by
    comparing sorted root multisets, keeping seed order.  Each surviving
    Q+ family is completed to a QQSolution by the linear Q- solves, and
    solutions whose QQ residual exceeds 10 tol are dropped.

    When ``stats`` is given it receives the solver's counts: seeds tried,
    converged, nonfinite, singular, out_of_iterations, rejected_residual,
    duplicates, rejected_qq (Q- solve or QQ residual) and accepted; the
    total and maximum Newton iterations of a seed; and the worst Bethe
    residual of an accepted solution.
    """
    tally = dict.fromkeys(
        ("seeds", "converged", "nonfinite", "singular", "out_of_iterations",
         "rejected_residual", "duplicates", "rejected_qq", "accepted",
         "newton_iterations", "max_newton_iterations"), 0)
    tally["worst_bethe_residual"] = 0.0
    if sum(inst.degrees) == 0:
        qplus = [Poly.one() for _ in range(inst.rank)]
        qminus = [solve_q_minus(inst, qplus, i) for i in range(1, inst.rank + 1)]
        solutions = [QQSolution(tuple(qplus), tuple(qminus))]
    else:
        solutions = _multistart(inst, seeds, tol, seed, max_iter, tally)
    tally["accepted"] = len(solutions)
    if stats is not None:
        stats.update(tally)
    return solutions


def _multistart(inst, seeds, tol, seed, max_iter, tally) -> list[QQSolution]:
    """The body of ``solve_bethe`` for sum m_i > 0.

    Every Newton result is scored in one kernel call, by the largest
    |L/R + 1| over its roots; only those within ``tol`` are built into
    Q+ polynomials and checked by ``bethe_residual``, whose residuals
    are the ones kept.
    """
    import numpy as np
    total = sum(inst.degrees)
    rng = np.random.default_rng(seed)
    spread = 1.0 + max(abs(r) for lam in inst.lambdas for r in lam.roots())
    tally["seeds"] = seeds = max(seeds, 0)
    draws = rng.standard_normal((seeds, 2, total))

    def prod(factors):
        """math.prod on arrays, rounded as on Python numbers: numpy's
        elementwise complex multiply may fuse a multiply and an add, and
        its reduction over a stacked last axis does not."""
        if len(factors) < 2:
            return math.prod(factors)
        return np.prod(np.stack(factors, -1), -1)

    kernel = _bethe_kernel(inst, prod)
    with np.errstate(all="ignore"):  # overflow is caught as non-finite values
        candidates = _newton(kernel, spread * (draws[:, 0] + 1j * draws[:, 1]),
                             max_iter, tally)
        L, R = kernel([candidates[:, k] for k in range(total)])
        scores = np.abs(np.stack(L, -1) / np.stack(R, -1) + 1.0).max(axis=1)

    found = []
    for x, score in zip(candidates, scores):
        worst = np.inf
        if score <= tol:
            try:
                worst = max(abs(r[2]) for r in
                            bethe_residual(inst, _roots_to_qplus(inst, x)))
            except (DegenerateInstance, ValueError, ArithmeticError):
                pass
        if not worst <= tol:  # NaN included
            tally["rejected_residual"] += 1
            continue
        blockkey = [tuple(np.sort_complex(x[k - m:k]))
                    for k, m in zip(np.cumsum(inst.degrees), inst.degrees)]
        if any(_same_blocks(blockkey, other) for other, _ in found):
            tally["duplicates"] += 1
            continue
        found.append((blockkey, worst))

    solutions = []
    for blockkey, worst in found:
        roots = np.array([w for block in blockkey for w in block], dtype=complex)
        qplus = _roots_to_qplus(inst, roots)
        try:
            qminus = [solve_q_minus(inst, qplus, i) for i in range(1, inst.rank + 1)]
        except DegenerateInstance:
            tally["rejected_qq"] += 1
            continue
        sol = QQSolution(tuple(qplus), tuple(qminus))
        residuals = qq_residual(inst, sol)
        if max(r.norm() for r in residuals) <= 10 * tol * (1 + max(
                l.norm() for l in inst.lambdas)):
            solutions.append(sol)
            tally["worst_bethe_residual"] = max(tally["worst_bethe_residual"], worst)
        else:
            tally["rejected_qq"] += 1
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
        ok, witness = q_distinct(p1, p2, inst.q, K, inst.tau)
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
    zetas = inst.twist.zetas
    out = []
    for i in range(inst.rank):
        qp = sol.qplus[i]
        den = complex(qp(z))
        if abs(den) <= inst.tau * (1 + qp.norm()):
            raise ZeroDivisionError(f"Q+_{i + 1} vanishes at the sample point {z}")
        out.append(complex(zetas[i]) * complex(qp(qc * z)) / den)
    return out
