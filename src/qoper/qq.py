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
import sys
from typing import Optional, Sequence

from .cartan import CartanData, TwistZ, ValueObject, twist_monomial
from .polynomials import (TAU, Poly, close, ensure_finite, q_distinct,
                          q_shift, solve_q_difference, value_scale)


# |log x| below which x and 1/x are both normal floats
_LOG_NORMAL = min(math.log(sys.float_info.max), -math.log(sys.float_info.min))
# the largest power of q an instance may call for (see check_scale)
_MAX_POWER = 1000


class DegenerateInstance(ValueError):
    """Raised when an operation's nondegeneracy precondition fails."""


class QQInstance(ValueObject):
    __slots__ = ("cartan", "q", "twist", "lambdas", "degrees", "tau")

    def __init__(self, cartan: CartanData, q: complex, twist: TwistZ,
                 lambdas: tuple, degrees: tuple, tau: float = TAU):
        self.cartan, self.q, self.twist = cartan, q, twist
        self.lambdas, self.degrees, self.tau = lambdas, degrees, tau
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

    def default_window(self) -> int:
        """Resonance window: 2 max(m_i) + max deg Lambda."""
        return 2 * max(self.degrees, default=0) + max(l.degree for l in self.lambdas)

    def with_twist(self, twist: TwistZ) -> "QQInstance":
        return QQInstance(self.cartan, self.q, twist, self.lambdas,
                          self.degrees, self.tau)


class QQSolution(ValueObject):
    __slots__ = ("qplus", "qminus")

    def __init__(self, qplus: tuple, qminus: tuple):
        self.qplus, self.qminus = qplus, qminus
        for p in self.qplus:
            if p.is_zero():
                raise ValueError("Q+ components must be nonzero")
            if not close(p.leading(), 1.0):
                raise ValueError("Q+ components must be monic")


def _neighbours(inst: QQInstance, i: int):
    """(after, before): the nodes j linked to node i that follow and that
    precede it in the instance ordering, each as a pair (j, e = -a_ji)."""
    order = inst.cartan.ordering
    pos = order.index(i)
    a = inst.cartan.a
    return ([(j, -a(j, i)) for j in order[pos + 1:] if a(j, i)],
            [(j, -a(j, i)) for j in order[:pos] if a(j, i)])


def check_scale(inst: QQInstance, K: Optional[int] = None):
    """Raise ValueError when a power of q or zeta formed at the instance's
    degrees leaves double range: top = max(K, max deg Lambda + 3 sum m_i
    + 4) bounds the window K, each right side's degree d (a_ji >= -3) and
    Q- window d + 2.  top is capped, since Newton's work grows with the
    cube of the degrees.  ``backlund_step`` checks the degrees each step
    moves to (a G2 walk reaches windows of 21 against 12)."""
    top = max(K or 0, max(l.degree for l in inst.lambdas) + 3 * sum(inst.degrees) + 4)
    if top > _MAX_POWER:
        raise ValueError(f"degrees and tolerances.K call for powers up to "
                         f"q^{top}; at most q^{_MAX_POWER} is supported")
    for where, x in [("q", inst.q)] + [("zetas", z) for z in inst.twist.zetas]:
        if top * abs(math.log(abs(complex(x)))) > _LOG_NORMAL:
            raise ValueError(f"{where}: {complex(x)} to the power {top} "
                             "leaves the float range")


def twist_ratio(inst: QQInstance, i: int):
    """xi~_i / xi_i = prod_j zeta_j^{a_ji}, from column i of the Cartan
    matrix: the value the resonance checks hold against powers of q."""
    return twist_monomial(inst.twist.zetas,
                          [row[i - 1] for row in inst.cartan.cartan])


def xi_factors(inst: QQInstance, i: int):
    """The twist factors (xi~_i, xi_i) of node i (see the module
    docstring)."""
    after, before = _neighbours(inst, i)
    up, down = [0] * inst.rank, [0] * inst.rank
    up[i - 1], down[i - 1] = 1, -1
    for j, e in after:
        up[j - 1] = -e
    for j, e in before:
        down[j - 1] = e
    return (twist_monomial(inst.twist.zetas, up),
            twist_monomial(inst.twist.zetas, down))


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
    out = []
    for i in range(1, inst.rank + 1):
        xit, xi = xi_factors(inst, i)
        qp = sol.qplus[i - 1]
        qm = sol.qminus[i - 1]
        lhs = (qm * q_shift(qp, inst.q)).scale(xit) - (q_shift(qm, inst.q) * qp).scale(xi)
        out.append(lhs - qq_rhs(inst, sol.qplus, i))
    return out


def resonance_check(inst: QQInstance, K: Optional[int] = None) -> list:
    """The labels "node j" of the nodes j whose prod_i zeta_i^{a_ij} is
    an integer power q^k, |k| <= K; empty when the twist passes.

    Failure at k = 0 means the twist is not regular semisimple; failure at
    other k signals a resonance that breaks uniqueness of the Q- solves.
    """
    if K is None:
        K = inst.default_window()
    if K < 1:
        raise ValueError("window K must be >= 1")
    return [f"node {j}" for j in range(1, inst.rank + 1)
            if _resonant_power(inst, twist_ratio(inst, j), K) is not None]


def _resonant_power(inst: QQInstance, val: complex, K: int) -> Optional[int]:
    """The first k in -K..K with val = q^k to tau, or None."""
    qc = complex(inst.q)
    return next((k for k in range(-K, K + 1) if close(val, qc**k, inst.tau)),
                None)


def check_q_minus_unique(inst: QQInstance, i: int, d: int):
    """Refuse (DegenerateInstance) a resonance q^k at node i with
    |k| <= d + 2: a Q-_i of degree d is then not unique."""
    k = _resonant_power(inst, twist_ratio(inst, i), d + 2)
    if k is not None:
        raise DegenerateInstance(f"resonant twist at node {i}: prod zeta^a = "
                                 f"q^{k}, the Q- solve is not unique")


def solve_q_minus(inst: QQInstance, qplus: Sequence[Poly], i: int) -> Poly:
    """The unique polynomial Q-_i solving the i-th equation.

    The equation is linear in Q-_i once all Q+_j are fixed, and fixes
    deg Q-_i = d = deg rhs - deg Q+_i, rhs = qq_rhs: the left side's top
    coefficient lc (xi~_i q^{d+} - xi_i q^d) vanishes only when
    prod_j zeta_j^{a_ji} = xi~_i / xi_i is a power of q.  Refuses
    (DegenerateInstance) for d < 0, for a resonance q^k with |k| <= d + 2,
    which breaks uniqueness, or when no polynomial solves the equation, a
    linear system for the coefficients of Q-_i: solve_q_difference with
    a(z) = xi~_i Q+_i(qz) and b(z) = -xi_i Q+_i(z).
    """
    p, rhs = qplus[i - 1], qq_rhs(inst, qplus, i)
    d = rhs.degree - p.degree
    if d >= 0:
        check_q_minus_unique(inst, i, d)
    qc = complex(inst.q)
    xit, xi = (complex(x) for x in xi_factors(inst, i))
    sol = solve_q_difference(q_shift(p, qc).scale(xit).coeffs,
                             p.scale(-xi).coeffs, rhs.coeffs, qc, tol=inst.tau)
    if sol is None:  # always for d < 0
        raise DegenerateInstance(f"no polynomial Q- exists at node {i} "
                                 f"(deg rhs - deg Q+ = {d})")
    return sol


def _blocks(inst: QQInstance, x: Sequence) -> list:
    """x cut into the blocks of Q+_1, ..., Q+_r, m_i entries each."""
    out, end = [], 0
    for m in inst.degrees:
        out.append(x[end:end + m])
        end += m
    return out


def _root_links(inst: QQInstance) -> list:
    """The block and link structure of the root vector x, the roots of
    Q+_1, ..., Q+_r end to end: per root, its index k, its node i, the
    other roots of its block, and the blocks of the nodes j linked to i
    as (block, e = -a_ji, whether j follows i in the ordering)."""
    blocks, out = _blocks(inst, range(sum(inst.degrees))), []
    for i in range(1, inst.rank + 1):
        after, before = _neighbours(inst, i)
        links = ([(blocks[j - 1], e, True) for j, e in after]
                 + [(blocks[j - 1], e, False) for j, e in before])
        for k in blocks[i - 1]:
            out.append((k, i, [t for t in blocks[i - 1] if t != k], links))
    return out


def _bethe_kernel(inst: QQInstance):
    """The two sides of the cleared-denominator Bethe system, each divided
    by the root it is taken at, and on request their exact Jacobian.

    The returned function takes x, the roots of Q+_1, ..., Q+_r end to end
    as a list of n = sum m_i complex numbers, and returns the lists (L, R)
    of n values.  At the t-th root w = x_k of Q+_i, with e = -a_ji,

        L = (q - 1) prod_j zeta_j^{a_ji} Q+_i^(k)(qw) Lambda_i(w/q)
              prod_{j after i} Q+_j(w)^e prod_{j before i} Q+_j(w/q)^e,
        R = (1/q - 1) Q+_i^(k)(w/q) Lambda_i(w)
              prod_{j after i} Q+_j(qw)^e prod_{j before i} Q+_j(w)^e,

    where Q+_i^(k)(y) = Q+_i(y) / (y - w) leaves the own root out: the
    factors (qw - w) of Q+_i(qw) and (w/q - w) of Q+_i(w/q) are replaced
    by their constants q - 1 and 1/q - 1.  So L and R are the cleared
    sides divided by w, and a lone root at w = 0 is no spurious zero of
    both.  Two roots of a ``newton._shared_factor_pairs`` pair that meet
    at 0 still are: the factor of the other root vanishes in both sides.  The
    i-th Bethe equation is L/R = -1: Newton solves L + R = 0, and
    ``bethe_residual`` reports L/R + 1.  Each Q+_j(y) is the product of
    the factors (y - x_t) over the roots of its block; no polynomial is
    built.

    Called with ``jacobian`` true, the function returns (L, R, J), J the
    n rows of d(L_k + R_k)/dx_t, from the same loop by the product rule:
    each factor's derivative in w and in its root x_t times the side's
    other factors, the products before the factor (kept on the way
    forward) times those after it (taken on the way back).  No factor is
    divided out, so one that is exactly 0, as at a q-string x_t = q x_k,
    leaves J finite.
    """
    qc = complex(inst.q)
    # up_s and down_s are the derivatives of qw and w/q in w
    up_s, down_s, down_c = qc, 1 / qc, 1 / qc - 1
    # per node: the constant of L, and Lambda_i highest coefficient first
    consts = [((qc - 1) * twist_ratio(inst, i),
               [complex(c) for c in reversed(lam.coeffs)])
              for i, lam in enumerate(inst.lambdas, start=1)]
    roots = [(k, own, *consts[i - 1], links)
             for k, i, own, links in _root_links(inst)]
    n = len(roots)

    def sides(x: list, jacobian: bool = False):
        L, R, J = [], [], []
        for k, own, up_c, lam, links in roots:
            w = x[k]
            up, down = qc * w, w / qc
            lterm, rterm = up_c, down_c
            # the sides before each factor, for the backward pass
            pre = []
            for t in own:
                pre.append((lterm, rterm))
                lterm *= up - x[t]
                rterm *= down - x[t]
            lam_down = lam_w = lam[0]
            dlam_down = dlam_w = 0.0
            for c in lam[1:]:
                dlam_down = dlam_down * down + lam_down
                dlam_w = dlam_w * w + lam_w
                lam_down = lam_down * down + c
                lam_w = lam_w * w + c
            pre.append((lterm, rterm))
            lterm *= lam_down
            rterm *= lam_w
            for block, e, follows in links:
                lpt, rpt = (w, up) if follows else (down, w)
                lq = rq = 1.0
                for t in block:
                    lq *= lpt - x[t]
                    rq *= rpt - x[t]
                pre.append((lterm, rterm, lq, rq))
                lterm *= lq ** e
                rterm *= rq ** e
            L.append(lterm)
            R.append(rterm)
            if not jacobian:
                continue
            # backward: la and ra are the products of the factors after
            # the current one, so each side without that factor is its
            # prefix times la (ra)
            row = [0j] * n
            la = ra = 1.0
            dw = 0j
            for block, e, follows in reversed(links):
                lp, rp, lq, rq = pre.pop()
                lg, rg = lp * la, rp * ra
                if e > 1:
                    lg *= e * lq ** (e - 1)
                    rg *= e * rq ** (e - 1)
                la *= lq ** e
                ra *= rq ** e
                lpt, rpt, ls, rs = ((w, up, 1.0, up_s) if follows
                                    else (down, w, down_s, 1.0))
                for t in block:  # the block's product without (y - x_t)
                    lh, rh = lg, rg
                    for u in block:
                        if u != t:
                            lh *= lpt - x[u]
                            rh *= rpt - x[u]
                    dw += lh * ls + rh * rs
                    row[t] -= lh + rh
            lp, rp = pre.pop()
            dw += lp * la * dlam_down * down_s + rp * ra * dlam_w
            la *= lam_down
            ra *= lam_w
            for t in reversed(own):
                lp, rp = pre.pop()
                lh, rh = lp * la, rp * ra
                la *= up - x[t]
                ra *= down - x[t]
                dw += lh * up_s + rh * down_s
                row[t] -= lh + rh
            row[k] = dw
            J.append(row)
        return (L, R, J) if jacobian else (L, R)

    return sides


def bethe_residual(inst: QQInstance, qplus: Sequence[Poly]) -> list:
    """Per-root residuals L/R + 1 of the kernel's two sides; zero at a
    Bethe solution (see ``_bethe_kernel``).

    Returns a list of (node, root, residual) triples over every root of
    every Q+_i, roots extracted numerically.  A root w raises
    DegenerateInstance when Lambda_i(w/q) or Q+_i(w/q) vanishes, its
    modulus at most tau times its ``value_scale`` (a backward error that
    a common factor of the coefficients leaves alone), or when a side is
    exactly 0; a side that is not finite raises NonFinite, and a power of
    a factor that overflows OverflowError.
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
            for name, p in ((f"Lambda_{i}", lam), (f"Q+_{i}", qp)):
                if abs(complex(p(w / qc))) <= inst.tau * value_scale(
                        p.coeffs, w / qc):
                    raise DegenerateInstance(f"degenerate root configuration: "
                                             f"{name}(q^-1 w) = 0 at w = {w}")
            k = len(out)
            lhs, rhs = ensure_finite(L[k]), ensure_finite(R[k])
            for side, val in (("right", rhs), ("left", lhs)):
                if val == 0:
                    raise DegenerateInstance(f"degenerate root configuration: "
                                             f"{side} side 0 at w = {w}")
            out.append((i, w, lhs / rhs + 1.0))
    return out


def solve_bethe(inst: QQInstance, seeds: int = 40, tol: float = 1e-10,
                seed: int = 0, stats: Optional[dict] = None,
                residuals: Optional[list] = None) -> list[QQSolution]:
    """Multi-start Newton solver for the Bethe system, on the short side
    of the Weyl orbit (``newton.short_side``, ``newton._walked``; at
    m' = 0 no Newton runs), or on the instance as it is
    (``newton._multistart``) when it is there already or a family fails
    on the walk back.  Only this function loads the ``newton`` module.

    When ``stats`` is given it receives the solver's counts: seeds tried,
    converged, nonfinite, singular, out_of_iterations, degenerate (stopped
    at the common zero), rejected_residual, duplicates, rejected_qq (Q-
    solve or QQ residual) and accepted; the total and maximum Newton
    iterations of a seed; the worst Bethe residual of an accepted
    solution; the word walked back and the degrees solved at
    (solved_degrees).  When ``residuals`` is given it receives, for each
    returned solution in order, the pair (``bethe_residual``'s triples,
    largest ``qq_residual`` norm) that accepted it.
    """
    from .newton import solve
    return solve(inst, seeds, tol, seed, stats, residuals)


def q_collisions(inst: QQInstance, pairs, K: int) -> list:
    """The labels of the (label, p1, p2) pairs whose zeros are not
    q-distinct in the window K: a zero polynomial fails, a constant one
    has no zeros, and the rest go to ``q_distinct``."""
    return [label for label, p1, p2 in pairs
            if p1.is_zero() or p2.is_zero()
            or (p1.degree >= 1 and p2.degree >= 1
                and not q_distinct(p1, p2, inst.q, K, inst.tau)[0])]


def nondegenerate(inst: QQInstance, sol: QQSolution,
                  K: Optional[int] = None) -> list:
    """Nondegeneracy battery for a candidate solution: the labels of the
    conditions that fail, empty when it passes.

    The twist must pass the resonance check ("resonance").  For every
    node j, the zeros of Q+_j and Q-_j must be q-distinct from each other,
    and both must be q-distinct from the zeros of Lambda_k for every k
    linked to j in the Cartan matrix (including k = j, so the rank-one
    case is not vacuous).  Monicity of Q+ is enforced on construction.
    """
    if K is None:
        K = inst.default_window()
    failed = ["resonance"] if resonance_check(inst, K) else []
    a = inst.cartan.a
    pairs = []
    for j in range(1, inst.rank + 1):
        qp, qm = sol.qplus[j - 1], sol.qminus[j - 1]
        pairs.append((f"Q+_{j} vs Q-_{j}", qp, qm))
        for k in range(1, inst.rank + 1):
            if a(j, k):
                lam = inst.lambdas[k - 1]
                pairs += [(f"Q+_{j} vs Lambda_{k}", qp, lam),
                          (f"Q-_{j} vs Lambda_{k}", qm, lam)]
    return failed + q_collisions(inst, pairs, K)
