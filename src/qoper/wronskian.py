"""Type A realization: q-Wronskian matrices, generalized minors, and the
Miura connection.

Conventions fixed by internal consistency: det W = 1 and the agreement of
the two Miura constructions, which every type-A report checks, and the
difference equations, which the test suite checks:

* Simple-reflection lifts are the SL(2)-embedded matrices with
  s_i : e_i -> e_{i+1}, e_{i+1} -> -e_i, so each lift has determinant one
  and squares to -1 on its block.
* The twist matrix is Z = prod_i zeta_i^{-alpha_i^vee}, i.e. the diagonal
  (1/zeta_1, zeta_1/zeta_2, ..., zeta_r).
* The Coxeter-lift with regular singularities is the "staggered" matrix

      R(z) = prod_{l=1..r} s_{i_l}^{-1} Lambda_{i_l}(q^{l-1} z)^{alpha^vee_{i_l}}

  (positions l in the instance ordering, left to right).  The q-shifted
  arguments inside R resolve the column-argument ambiguity of the closed
  Wronskian form: they are forced by unimodularity of the Wronskian.
* The Wronskian columns obey W(q^k z) nu_i = Z^k W(z) S_k(z) nu_i on the
  i-th fundamental vector, with the transport
  S_k(z) = R(z) R(qz) ... R(q^{k-1}z), while the transported wedge window
  i + k <= h does not wrap around.  These hold by construction:
  lift_products makes S_{k+m}(z) = S_k(z) S_m(q^k z) exact, and
  build_wronskian defines column tgt(k) as Z^{-k} col_1(q^k z) / gamma_k(z).
  So no report reads them.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

# perfbench's tracer finds RatMatrix and check_lewis_carroll in this module,
# then wraps each module's binding of the same function: cli's battery too
from .minors import RatMatrix, check_lewis_carroll
from .polynomials import (Poly, RatFun, off_pole, q_shift, solve_linear,
                          solve_q_difference, triangularize)
from .qq import DegenerateInstance, QQInstance, QQSolution


def _coroot_diag(n: int, i: int, f: RatFun) -> RatMatrix:
    """Diagonal matrix f^{alpha_i^vee} = diag(..., f, 1/f, ...)."""
    rows = []
    for a in range(n):
        row = [RatFun.zero()] * n
        if a == i - 1:
            row[a] = f
        elif a == i:
            row[a] = f.inv()
        else:
            row[a] = RatFun.one()
        rows.append(row)
    return RatMatrix(rows)


def _twist_diagonal(inst: QQInstance) -> list:
    """Z's diagonal (1/z1, z1/z2, ..., zr), complex.

    Each entry is the quotient z_{a-1} / z_a, which rounds differently
    from twist_monomial's product z_{a-1} z_a^{-1}.
    """
    zs = [1, *inst.twist.zetas, 1]
    return [complex(num) / complex(den) for num, den in zip(zs, zs[1:])]


def _compose(M: tuple, N: tuple) -> tuple:
    """The product M N of monomial matrices, each stored as its (row,
    entry) pairs, one per column: (M N)[c] = (M[r] row, M[r] entry g)."""
    return tuple((M[r][0], M[r][1] * g) for r, g in N)


def s_lambda_inverse(inst: QQInstance) -> tuple:
    """The staggered Coxeter lift R(z), a monomial matrix stored as its n
    (row, entry) pairs: 0-based column c sends e_c to entry e_row.  It is
    the interleaved product of the lifts of s_{i_l}^{-1} with the torus
    factors Lambda_{i_l}(q^{l-1}z)^{coroot}; each such pair is the
    identity but at the columns i-1, i: (i, -Lambda), (i-1, 1/Lambda).
    R equals the bare permutation lift times prod_l
    Lambda_{i_l}(q^{l-1}z)^{d_l}, d_l = s_{i_r} ... s_{i_{l+1}}
    (alpha^vee_{i_l}) (``d_exponents`` in the tests); the test suite
    checks that agreement, which pins the sign convention.
    """
    if not inst.cartan.is_type_a:
        raise DegenerateInstance("the Wronskian realization requires type A")
    acc = identity = tuple((c, RatFun.one()) for c in range(inst.rank + 1))
    for l, node in enumerate(inst.cartan.ordering):
        lam = RatFun(q_shift(inst.lambdas[node - 1], inst.q**l))
        factor = list(identity)
        factor[node - 1], factor[node] = (node, -lam), (node - 1, lam.inv())
        acc = _compose(acc, factor)
    return acc


def lift_products(R: tuple, q) -> tuple:
    """The transports S_0, ..., S_{n-1} of the staggered lift R:
    S_k(z) = R(z) R(qz) ... R(q^{k-1} z), with S_0 the identity, each
    stored as R is, one (row, entry) pair per column."""
    S = [tuple((c, RatFun.one()) for c in range(len(R)))]
    for k in range(1, len(R)):
        S.append(_compose(S[-1], [(r, g.shift(q ** (k - 1))) for r, g in R]))
    return tuple(S)


# -- the Miura trivializer ---------------------------------------------

def build_miura_A(inst: QQInstance, sol: QQSolution) -> RatMatrix:
    """The Miura q-connection as an ordered product of (r+1)x(r+1) factors.

    A(z) = prod_j [zeta_j Q+_j(qz)/Q+_j(z)]^{-coroot_j}
                  (I + (Lambda_j(z) Q+_j(z) / (zeta_j Q+_j(qz))) f_j),

    with f_j the subdiagonal matrix unit; the exponential of a nilpotent
    single-entry matrix truncates after the linear term.  The product runs
    over the instance ordering.
    """
    if not inst.cartan.is_type_a:
        raise DegenerateInstance("build_miura_A requires type A")
    n = inst.rank + 1
    qc = inst.q
    zs = inst.twist.zetas
    acc = RatMatrix.identity(n)
    for node in inst.cartan.ordering:
        qp = sol.qplus[node - 1]
        zqp = q_shift(qp, qc).scale(zs[node - 1])  # zeta Q+(qz)
        diag = _coroot_diag(n, node, RatFun(zqp, qp).inv())
        phi = RatFun(inst.lambdas[node - 1] * qp, zqp)
        expf = RatMatrix([[phi if (a, c) == (node, node - 1)
                           else RatFun.one() if a == c else RatFun.zero()
                           for c in range(n)] for a in range(n)])
        acc = acc @ diag @ expf
    return acc


def miura_trivializer(inst: QQInstance, sol: QQSolution, A: RatMatrix,
                      z: list) -> RatMatrix:
    """Lower-triangular v(z) with A(z) = v(qz)^{-1} Z v(z).

    Entries are v_ij = u_ij / Q+_{j-1}(z) with polynomial numerators; the
    diagonal is (Q+_1, Q+_2/Q+_1, ..., 1/Q+_r).  Entry (i, j) of
    v(qz) A(z) = Z v(z) is v_ij(qz) A_jj(z) + sum_{k>j} v_ik(qz) A_kj(z) =
    Z_ii v_ij(z); times Q+_{j-1}(z), A_jj's denominator, Q+_{j-1}(qz) and
    the tail sum's denominator (the product of its terms' denominators) it
    is a q-difference equation for u_ij, solved by solve_q_difference,
    columns from the inside out.  Its coefficients are Poly products, and
    the tail sum skips the A_kj that are exactly zero.  No solution
    signals a degenerate (resonant) twist.  ``A`` is the connection from
    build_miura_A and ``z`` Z's diagonal from _twist_diagonal.
    """
    n = inst.rank + 1
    qc = complex(inst.q)
    qplus = [Poly.one()] + list(sol.qplus) + [Poly.one()]  # Q+_0 = Q+_{r+1} = 1

    u = {(i, i): qplus[i] for i in range(1, n + 1)}
    for i in range(2, n + 1):
        zii = complex(z[i - 1])
        for j in range(i - 1, 0, -1):
            # the tail sum num / den of u_ik(qz) A_kj(z) / Q+_{k-1}(qz)
            num, den = Poly.zero(), Poly.one()
            for k in range(j + 1, i + 1):
                akj = A.entries[k - 1][j - 1]
                if not akj.num.is_zero():
                    tnum = akj.num * q_shift(u[(i, k)], qc)
                    tden = akj.den * q_shift(qplus[k - 1], qc)
                    num, den = num * tden + tnum * den, den * tden
            ajj = A.entries[j - 1][j - 1]
            qj, qjq = qplus[j - 1], q_shift(qplus[j - 1], qc)
            got = solve_q_difference((-zii * (ajj.den * qjq * den)).coeffs,
                                     (ajj.num * qj * den).coeffs,
                                     (-(num * ajj.den * qj * qjq)).coeffs,
                                     qc, tol=inst.tau)
            if got is None:
                raise DegenerateInstance(
                    f"Miura trivializer entry ({i},{j}) has no polynomial "
                    "solution (resonant or degenerate twist)")
            u[(i, j)] = got

    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j > i:
                row.append(RatFun.zero())
            elif j == i:
                row.append(RatFun(qplus[i], qplus[i - 1]))
            else:
                row.append(RatFun(u[(i, j)], qplus[j - 1]))
        rows.append(row)
    return RatMatrix(rows)


def build_wronskian(inst: QQInstance, sol: QQSolution, S: tuple,
                    v: Optional[RatMatrix], z: list) -> RatMatrix:
    """Generalized q-Wronskian of a solved instance (type A).

    The first column holds the omega_1 orbit polynomials: Q+_1 and Q-_1 at
    rank one, above it the numerators of v's first column (denominators
    Q+_0 = 1).  Each transport S_k sends e_1 to gamma_k e_tgt(k), the
    (row, entry) pair of its first column; column tgt(k) of W is

        col_tgt(z) = Z^{-k} col_1(q^k z) / gamma_k(z).

    For the standard ordering gamma_k = (-1)^k prod_{j<=k} Lambda_j(q^{k-1} z)
    (a closed form the test suite checks).  The matrix is unimodular
    whenever the input solves the QQ-system.  ``S`` holds lift_products
    of the staggered lift, ``v`` the trivializer (None only at rank one)
    and ``z`` Z's diagonal.
    """
    if not inst.cartan.is_type_a:
        raise DegenerateInstance("build_wronskian requires type A")
    n = inst.rank + 1
    col1 = ([sol.qplus[0], sol.qminus[0]] if n == 2
            else [row[0].num for row in v.entries])

    cols = {0: [RatFun(p) for p in col1]}
    for k in range(1, n):
        tgt, gamma = S[k][0]
        ginv = gamma.inv()
        cols[tgt] = [RatFun(q_shift(p, inst.q**k)) * (z[i] ** (-k)) * ginv
                     for i, p in enumerate(col1)]
    return RatMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


class TypeABundle:
    """A solved type-A instance with everything the type-A checks read:
    the transports S = lift_products(R, q) of the staggered lift R (so R
    is S[1]), each a tuple of (row, entry) pairs, one per column, Z's
    diagonal z, the Miura pair (A, v) and W, each built once.

    ``v`` is None only at rank one when the trivializer has no solution:
    W does not need it there, ``refusal`` keeps the trivializer's message,
    and miura_from_wronskian raises it.
    """

    __slots__ = ("inst", "sol", "S", "z", "A", "v", "W", "refusal")

    def __init__(self, inst: QQInstance, sol: QQSolution, S: tuple, z: list,
                 A: RatMatrix, v: Optional[RatMatrix], W: RatMatrix,
                 refusal: Optional[str]):
        self.inst, self.sol, self.S, self.z = inst, sol, S, z
        self.A, self.v, self.W, self.refusal = A, v, W, refusal


def type_a_bundle(inst: QQInstance, sol: QQSolution) -> TypeABundle:
    """Build S (from R), z, A, v (fed by that A and z) and W (fed by v, S
    and z) once."""
    S = lift_products(s_lambda_inverse(inst), inst.q)
    z = _twist_diagonal(inst)
    A = build_miura_A(inst, sol)
    v = refusal = None
    try:
        v = miura_trivializer(inst, sol, A, z)
    except DegenerateInstance as exc:
        if inst.rank > 1:
            raise
        refusal = str(exc)
    W = build_wronskian(inst, sol, S, v, z)
    return TypeABundle(inst, sol, S, z, A, v, W, refusal)


# the sample panel of every float type-A check: 20 points on |x| = 1.13
PANEL = [1.13 * cmath.exp(2j * math.pi * t)
         for t in [0.05 + k * (0.9 / 19) for k in range(19)] + [0.95]]


class TypeASample:
    """A bundle evaluated on PANEL, each object once per point.

    Every field holds plain Python values, one per point of ``points``: the
    panel points, each nudged off the poles of all the objects together and
    off the roots of every Q+_i.  A matrix value is a tuple of rows of
    complex numbers, as RatMatrix.eval gives it.  ``W`` holds W(x), ``A``
    A(x), ``v`` and ``vq`` v(x) and v(qx) (None without a trivializer), and
    ``z`` Z's diagonal.  Every value is finite: one that is not raises
    NonFinite.  ``stuck`` has one witness per panel point that stayed on a
    pole; such a point has no values.
    """

    def __init__(self, bundle: TypeABundle, points: list, stuck: tuple,
                 W: list, A: list, v: Optional[list], vq: Optional[list],
                 z: list):
        self.bundle, self.points, self.stuck = bundle, points, stuck
        self.W, self.A, self.v, self.vq, self.z = W, A, v, vq, z


def sample_bundle(b: TypeABundle) -> TypeASample:
    """Evaluate the bundle on PANEL; see TypeASample."""
    inst = b.inst
    qc = complex(inst.q)

    def at(x):
        mats = [b.W.eval(x), b.A.eval(x)]
        if b.v is not None:
            mats += [b.v.eval(x), b.v.eval(qc * x)]
        # A and v divide by the Q+_i: a point this close to a root is a pole
        for i, qp in enumerate(b.sol.qplus):
            if abs(complex(qp(x))) <= inst.tau * (1 + qp.norm()):
                raise ZeroDivisionError(
                    f"Q+_{i + 1} vanishes at the sample point {x}")
        return mats

    points, stuck, values = [], [], []
    for x0 in PANEL:
        try:
            x, mats = off_pole(at, x0)
        except ZeroDivisionError as err:
            stuck.append(f"{x0} after 4 nudges: {err}")
            continue
        points.append(x)
        values.append(mats)
    W, A = [mats[0] for mats in values], [mats[1] for mats in values]
    v = vq = None
    if b.v is not None:
        v, vq = [mats[2] for mats in values], [mats[3] for mats in values]
    return TypeASample(b, points, tuple(stuck), W, A, v, vq,
                       [complex(e) for e in b.z])


# -- the checks ----------------------------------------------------------

def _minor(M, rows, cols) -> complex:
    """The minor on rows x cols (0-based) of a matrix of values."""
    return triangularize([[M[r][c] for c in cols] for r in rows], len(rows))


def _solve(a, b) -> list:
    """X with a X = b, a square and both matrices of values given as
    sequences of rows; a singular a raises DegenerateInstance."""
    x = solve_linear([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if x is None:
        raise DegenerateInstance("singular matrix at a sample point")
    return [list(xs) for xs in zip(*x)]


def _rel_gap(lhs, rhs) -> float:
    """Relative residual of a relation lhs = rhs sampled at points: the
    largest |lhs - rhs| / (1 + max of the two sides' moduli).

    Each argument holds one vector (a sequence of numbers) per point; over
    a vector's entries the numerator and the scale each take their largest
    value first.  An empty sample gives inf, so it fails every bound, and a
    value that is not finite gives NaN.
    """
    worst = float("-inf")
    for ls, rs in zip(lhs, rhs):
        gaps, sizes = [], []
        for l, r in zip(ls, rs):
            gaps.append(abs(l - r))
            sizes += [abs(l), abs(r)]
        if not math.isfinite(sum(sizes)):
            return float("nan")
        worst = max(worst, max(gaps) / (1.0 + max(sizes)))
    return worst if worst >= 0 else float("inf")


def det_residual(s: TypeASample) -> float:
    """The largest |det W(x) - 1| over the sample: 0 for a unimodular W;
    NaN when a determinant is not finite."""
    gaps = [abs(_minor(M, range(len(M)), range(len(M))) - 1.0) for M in s.W]
    return float("nan") if any(g != g for g in gaps) else max(gaps)


def _leading_minor_vanishes(M, k: int) -> bool:
    """|Delta_k(M)| <= 1e-8 times the Hadamard bound of M's leading k x k
    block, the product of its rows' norms."""
    hadamard = math.prod(math.hypot(*map(abs, row[:k])) for row in M[:k])
    return abs(_minor(M, range(k), range(k))) <= 1e-8 * hadamard


def miura_from_wronskian(s: TypeASample) -> float:
    """The relative entrywise gap between the Miura connection rebuilt from
    the trivializer, A(z) = v(qz)^{-1} Z v(z) solved at each sample point,
    and the product connection A of build_miura_A.

    The nondegeneracy gate comes first: W has a Gaussian decomposition iff
    every leading principal minor Delta_k is a nonzero function, and the
    gate raises DegenerateInstance when some Delta_k, k < n, of W(x)
    vanishes at every sample point, |Delta_k(x)| <= 1e-8 times the
    Hadamard bound of the k x k block (Delta_n = det W is wronskian-det's
    to judge).  A sample without points skips the gate.  Without a
    trivializer (rank one) the trivializer's refusal is raised, and a
    singular v(qx) raises DegenerateInstance too.  The lower-triangular
    shape and the diagonal Q+_i/Q+_{i-1} of v, and W's first column, hold
    by construction (miura_trivializer, build_wronskian), so nothing here
    reads them.
    """
    for k in range(1, len(s.z)):
        if s.points and all(_leading_minor_vanishes(M, k) for M in s.W):
            raise DegenerateInstance(
                f"no Gaussian decomposition: principal minor {k} vanishes")
    if s.v is None:
        raise DegenerateInstance(s.bundle.refusal)
    Am = [_solve(vq, [[c * e for e in row] for c, row in zip(s.z, v)])
          for v, vq in zip(s.v, s.vq)]
    return _rel_gap([[e for row in M for e in row] for M in Am],
                    [[e for row in M for e in row] for M in s.A])
