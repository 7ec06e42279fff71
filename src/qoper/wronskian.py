"""Type A realization: q-Wronskian matrices, generalized minors, and the
Miura connection.

Conventions fixed by internal consistency (det = 1, the difference
equations, and agreement of the two Miura constructions):

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
* The Wronskian columns obey W(q^k z) nu = Z^k W(z) R(z) R(qz) ... R(q^{k-1}z) nu
  for k = 0..h-1, realized on the i-th fundamental vector through i-th
  compound matrices whenever the transported wedge window i + k <= h does
  not wrap around.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cartan import (CartanData, WeylWord, column_index_set,
                     twist_along_word, word_length)
from .polynomials import (Poly, RatFun, is_exact, off_pole, q_shift,
                          solve_poly_q_difference)
from .qq import (CheckReport, DegenerateInstance, FullQQSystem, QQInstance,
                 QQSolution, cartan_connection)


class RatMatrix:
    """Square matrix of rational functions."""

    def __init__(self, entries):
        self.entries = [[e if isinstance(e, RatFun) else RatFun(e)
                         for e in row] for row in entries]
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("RatMatrix must be square")
        self.n = n

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[RatFun.one() if i == j else RatFun.zero()
                           for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def eval(self, z) -> np.ndarray:
        return np.array([[complex(e(z)) for e in row] for row in self.entries])

    def shift(self, q) -> "RatMatrix":
        return RatMatrix([[e.shift(q) for e in row] for row in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = RatFun.zero()
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RatMatrix(out)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def det(self) -> RatFun:
        """Determinant by cofactor expansion (intended for small n)."""
        n = self.n
        if n == 1:
            return self.entries[0][0]
        acc = RatFun.zero()
        for j in range(n):
            a = self.entries[0][j]
            if a.is_zero():
                continue
            sub = self.submatrix(range(1, n), [c for c in range(n) if c != j])
            term = a * sub.det()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc


@dataclass(frozen=True)
class MinorSpec:
    u: WeylWord
    v: WeylWord
    i: int


@dataclass(frozen=True)
class LiftExponents:
    """Coroot exponent table d[l][j] attached to the ordering positions.

    Row l (0-based) gives the coroot vector carried by Lambda_{i_{l+1}}
    after all lifts are collected to the left; d[l][l'] is the coefficient
    of the coroot of the node at position l'.  The diagonal is always 1.
    """

    ordering: tuple
    d: tuple


def d_exponents(cartan: CartanData) -> LiftExponents:
    """Exponents from commuting torus factors past the remaining lifts.

    With the lifts collected on the left, the Lambda at ordering position
    l picks up the coweight w_{i_r} ... w_{i_{l+1}} (alpha^vee_{i_l}),
    computed exactly by integer reflections.  For the type A ordering
    (1, ..., r) this gives d_l = sum_{j >= l} alpha^vee_j; reading the
    ordering backwards reproduces the mirrored table d_l = sum_{j <= l}.
    """
    r = cartan.rank
    order = cartan.ordering
    rows = []
    for l in range(r):
        node = order[l]
        vec = [0] * r
        vec[node - 1] = 1
        # innermost reflection (position l+1) acts first
        for m in range(l + 1, r):
            j = order[m]
            pairing = sum(cartan.a(k + 1, j) * vec[k] for k in range(r))
            vec[j - 1] -= pairing
        rows.append(tuple(vec[order[m] - 1] for m in range(r)))
    for l in range(r):
        if rows[l][l] != 1:
            raise AssertionError("lift exponent diagonal must be 1")
    return LiftExponents(order, tuple(rows))


def _lift_matrix(n: int, i: int, inverse: bool = False) -> RatMatrix:
    """Defining-representation lift of s_i: e_i -> e_{i+1}, e_{i+1} -> -e_i."""
    m = [[Fraction(1) if a == b else Fraction(0) for b in range(n)]
         for a in range(n)]
    m[i - 1][i - 1] = Fraction(0)
    m[i][i] = Fraction(0)
    if inverse:
        m[i - 1][i] = Fraction(1)
        m[i][i - 1] = Fraction(-1)
    else:
        m[i][i - 1] = Fraction(1)
        m[i - 1][i] = Fraction(-1)
    return RatMatrix([[RatFun.from_scalar(c) for c in row] for row in m])


def lift_of_word(word: WeylWord, cartan: CartanData) -> RatMatrix:
    """Matrix lift of a Weyl word (type A defining representation)."""
    n = cartan.rank + 1
    acc = RatMatrix.identity(n)
    for letter in word.letters:
        acc = acc @ _lift_matrix(n, letter)
    return acc


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
    """Z's diagonal (1/z1, z1/z2, ..., zr), exact when the zetas are."""
    zs = [1] + inst.zetas() + [1]
    return [Fraction(num) / Fraction(den) if is_exact(num) and is_exact(den)
            else complex(num) / complex(den) for num, den in zip(zs, zs[1:])]


def s_lambda_inverse(inst: QQInstance) -> RatMatrix:
    """The staggered Coxeter lift R(z): the interleaved product of lift
    matrices and torus factors Lambda_{i_l}(q^{l-1}z)^{coroot}.

    It equals the bare permutation lift times prod_l
    Lambda_{i_l}(q^{l-1}z)^{d_l} with d from d_exponents; the test suite
    checks that agreement, which pins the sign convention.
    """
    if not inst.cartan.is_type_a:
        raise DegenerateInstance("the Wronskian realization requires type A")
    n = inst.rank + 1
    acc = RatMatrix.identity(n)
    for l, node in enumerate(inst.cartan.ordering):
        lam = q_shift(inst.lambdas[node - 1], inst.q**l)
        acc = acc @ _lift_matrix(n, node, inverse=True) \
            @ _coroot_diag(n, node, RatFun(lam))
    return acc


def lift_products(R: RatMatrix, q) -> tuple:
    """The transports S_0, ..., S_{n-1} of the staggered lift R:
    S_k(z) = R(z) R(qz) ... R(q^{k-1} z), with S_0 the identity."""
    S = [RatMatrix.identity(R.n)]
    for k in range(1, R.n):
        S.append(S[-1] @ R.shift(q ** (k - 1)))
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
    zs = inst.zetas()
    acc = RatMatrix.identity(n)
    for node in inst.cartan.ordering:
        qp = sol.qplus[node - 1]
        g = RatFun(q_shift(qp, qc).scale(zs[node - 1]), qp)
        diag = _coroot_diag(n, node, g.inv())
        phi = RatFun(inst.lambdas[node - 1] * qp,
                     q_shift(qp, qc).scale(zs[node - 1]))
        expf = RatMatrix.identity(n)
        expf.entries[node][node - 1] = phi
        acc = acc @ diag @ expf
    return acc


def miura_trivializer(inst: QQInstance, sol: QQSolution,
                      A: Optional[RatMatrix] = None) -> RatMatrix:
    """Lower-triangular v(z) with A(z) = v(qz)^{-1} Z v(z).

    Entries are v_ij = u_ij / Q+_{j-1}(z) with polynomial numerators; the
    diagonal is (Q+_1, Q+_2/Q+_1, ..., 1/Q+_r) and each strictly-lower
    numerator solves a scalar polynomial q-difference equation driven by
    the connection's bidiagonal entries, column by column from the inside
    out.  Failures signal a degenerate (resonant) twist.  ``A`` is the
    connection from build_miura_A, built here when not given.
    """
    if A is None:
        A = build_miura_A(inst, sol)
    n = inst.rank + 1
    qc = inst.q
    zs = [1] + inst.zetas() + [1]  # zeta_0 = zeta_{r+1} = 1
    qplus = [Poly.one()] + list(sol.qplus) + [Poly.one()]  # Q+_0 = Q+_{r+1} = 1

    max_deg = (max(p.degree for p in sol.qplus) + 1) * inst.rank \
        + max(l.degree for l in inst.lambdas) * inst.rank + 4

    u = {}
    for i in range(1, n + 1):
        u[(i, i)] = qplus[i]
    for i in range(2, n + 1):
        zii = complex(zs[i - 1]) / complex(zs[i])
        for j in range(i - 1, 0, -1):
            # entry equation: v_ij(qz) A_jj(z) + sum_{k>j} v_ik(qz) A_kj(z)
            #               = Z_ii v_ij(z),  with v_ik = u_ik / Q+_{k-1}
            ajj = A.entries[j - 1][j - 1]
            tail = [(A.entries[k - 1][j - 1], u[(i, k)], qplus[k - 1])
                    for k in range(j + 1, i + 1)
                    if not A.entries[k - 1][j - 1].is_zero()]
            qjm1 = qplus[j - 1]

            def alpha(z, _z=zii, _q=qjm1):
                return -_z / complex(_q(z))

            def beta(z, _a=ajj, _q=qjm1, _qc=qc):
                return complex(_a(z)) / complex(_q(_qc * z))

            def rhs(z, _tail=tail, _qc=qc):
                acc = 0j
                for entry, unum, qden in _tail:
                    acc -= complex(unum(_qc * z)) * complex(entry(z)) \
                        / complex(qden(_qc * z))
                return acc

            got = solve_poly_q_difference(alpha, beta, rhs, qc, max_deg,
                                          tol=inst.tau)
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


def wronskian_first_column(inst: QQInstance, sol: QQSolution,
                           v: Optional[RatMatrix] = None) -> list[Poly]:
    """Polynomials of the Wronskian's first column (the omega_1 orbit).

    Row 1 is Q+_1 and row 2 is Q-_1 exactly as solved; the deeper rows are
    the iterated Backlund partners with the normalization dictated by the
    twist equation, read off the trivializer ``v`` (solved when not
    given).  For rank 1 no solves are needed.
    """
    if inst.rank == 1:
        return [sol.qplus[0], sol.qminus[0]]
    if v is None:
        v = miura_trivializer(inst, sol)
    col = []
    for i in range(inst.rank + 1):
        e = v.entries[i][0]
        if e.den.degree != 0:
            raise AssertionError("first-column entries must be polynomial")
        col.append(e.num.scale(Fraction(1) / e.den.coeffs[0]))
    return col


def build_wronskian(inst: QQInstance, source, S: Optional[tuple] = None,
                    v: Optional[RatMatrix] = None) -> RatMatrix:
    """Generalized q-Wronskian of a solved instance (type A).

    ``source`` is a QQSolution or a FullQQSystem (its base solution is
    used).  The first column holds the orbit polynomials.  R is a
    monomial matrix, so the first column of each transport S_k has one
    nonzero entry gamma_k, in row tgt(k); column tgt(k) of W is

        col_tgt(z) = Z^{-k} col_1(q^k z) / gamma_k(z).

    For the standard ordering gamma_k = (-1)^k prod_{j<=k} Lambda_j(q^{k-1} z)
    (a closed form the test suite checks).  The matrix is unimodular
    whenever the input solves the QQ-system.  ``S`` (lift_products of the
    staggered lift) and ``v`` (the trivializer) are built here when not
    given.
    """
    sol = source.base if isinstance(source, FullQQSystem) else source
    if not inst.cartan.is_type_a:
        raise DegenerateInstance("build_wronskian requires type A")
    n = inst.rank + 1
    col1 = wronskian_first_column(inst, sol, v)
    if S is None:
        S = lift_products(s_lambda_inverse(inst), inst.q)
    Z = _twist_diagonal(inst)

    cols: dict[int, list[RatFun]] = {0: [RatFun(p) for p in col1]}
    for k in range(1, n):
        nz = [i for i in range(n) if not S[k].entries[i][0].is_zero()]
        if len(nz) != 1:
            raise AssertionError("transport image must be a single basis vector")
        shifted = [RatFun(q_shift(p, inst.q**k)) for p in col1]
        ginv = S[k].entries[nz[0]][0].inv()
        cols[nz[0]] = [shifted[i] * (Z[i] ** (-k)) * ginv for i in range(n)]

    if len(cols) != n:
        raise AssertionError("transports failed to fill every column")
    return RatMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


@dataclass(frozen=True, eq=False)
class TypeABundle:
    """A solved type-A instance with everything the type-A checks read:
    the staggered lift R, its transports S = lift_products(R, q), the
    Miura pair (A, v) and W, each built once.

    ``v`` is None only at rank one when the trivializer has no solution:
    W does not need it there, and miura_from_wronskian raises the refusal.
    """

    inst: QQInstance
    sol: QQSolution
    R: RatMatrix
    S: tuple
    A: RatMatrix
    v: Optional[RatMatrix]
    W: RatMatrix


def type_a_bundle(inst: QQInstance, sol: QQSolution) -> TypeABundle:
    """Build R, S (from R), A, v (fed by that A) and W (fed by v and S)
    once."""
    R = s_lambda_inverse(inst)
    S = lift_products(R, inst.q)
    A = build_miura_A(inst, sol)
    try:
        v = miura_trivializer(inst, sol, A=A)
    except DegenerateInstance:
        if inst.rank > 1:
            raise
        v = None
    W = build_wronskian(inst, sol, S=S, v=v)
    return TypeABundle(inst, sol, R, S, A, v, W)


# the sample panel of every float type-A check
PANEL = 1.13 * np.exp(2j * np.pi * np.linspace(0.05, 0.95, 20))


@dataclass(frozen=True, eq=False)
class TypeASample:
    """A bundle evaluated on PANEL, each object once per point.

    Axis 0 of every array runs over ``points``: the panel points, each
    nudged off the poles of all the objects together.  ``W[k]`` holds
    W(q^k x) for k = 0..h-1 and ``S[k]`` the transport S_k(x), so R(x) is
    ``S[1]``; ``v`` and ``vq`` hold v(x) and v(qx) (None without a
    trivializer), ``g`` the Cartan connection g_i(x), i = 1..r, and ``z``
    Z's diagonal.  ``stuck`` has one witness per panel point that stayed
    on a pole; such a point is in no array.
    """

    bundle: TypeABundle
    points: np.ndarray
    stuck: tuple
    W: np.ndarray
    S: np.ndarray
    A: np.ndarray
    v: Optional[np.ndarray]
    vq: Optional[np.ndarray]
    g: np.ndarray
    z: np.ndarray


def sample_bundle(b: TypeABundle) -> TypeASample:
    """Evaluate the bundle on PANEL; see TypeASample."""
    inst, n = b.inst, b.inst.rank + 1
    qc = complex(inst.q)

    def at(x):
        mats = [b.W.eval(qc**k * x) for k in range(n)]
        mats += [Sk.eval(x) for Sk in b.S] + [b.A.eval(x)]
        if b.v is not None:
            mats += [b.v.eval(x), b.v.eval(qc * x)]
        return mats, cartan_connection(inst, b.sol, x)

    points, stuck, values, conn = [], [], [], []
    # Python complex points: a pole raises ZeroDivisionError, not a warning
    for x0 in map(complex, PANEL):
        try:
            x, (mats, g) = off_pole(at, x0)
        except ZeroDivisionError as err:
            stuck.append(f"{x0} after 4 nudges: {err}")
            continue
        points.append(x)
        values.append(mats)
        conn.append(g)
    count = 2 * n + 1 + (2 if b.v is not None else 0)
    per_object = np.array(values, dtype=complex).reshape(
        len(points), count, n, n).swapaxes(0, 1)
    v, vq = per_object[2 * n + 1:] if b.v is not None else (None, None)
    return TypeASample(
        b, np.array(points, dtype=complex), tuple(stuck), per_object[:n],
        per_object[n:2 * n], per_object[2 * n], v, vq,
        np.array(conn, dtype=complex).reshape(len(points), inst.rank),
        np.array(_twist_diagonal(inst), dtype=complex))


# -- minors and identities ---------------------------------------------

def _index_rows(w: WeylWord, i: int, data: CartanData) -> list[int]:
    """The 0-based row set of w(omega_i), i.e. of w({1..i}), sorted."""
    return [r - 1 for r in sorted(column_index_set(w, i, data))]


def evaluate(M: RatMatrix, points) -> np.ndarray:
    """M at every point, stacked: shape (P, n, n)."""
    return np.array([M.eval(x) for x in points]).reshape(-1, M.n, M.n)


def _minor(Mv: np.ndarray, rows, cols):
    """Minors of an evaluated matrix, or of every matrix of a stack
    (..., n, n), all from one det.

    ``rows`` and ``cols`` hold 0-based indices along their last axis; any
    leading axes they have broadcast and ask for one minor each, so the
    result has the stack's shape followed by theirs.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    return np.linalg.det(Mv[..., rows[..., :, None], cols[..., None, :]])


def _rel_gap(*terms) -> float:
    """Relative residual of a relation t_1 + t_2 + ... = 0 sampled at
    points: the largest |t_1 + t_2 + ...| / (1 + max_k |t_k|), so a
    relation l = r is measured as |l - r| / (1 + max(|l|, |r|)) with
    terms (l, -r).

    Axis 0 of every term runs over the points; over any further axes (the
    entries of a vector or a matrix) the numerator and the scale each take
    their largest value first.  An empty sample gives inf, so it fails
    every bound.
    """
    entries = tuple(range(1, terms[0].ndim))

    def size(t):  # |t| rounded as Python's abs rounds it
        m = np.hypot(t.real, t.imag)
        return m.max(axis=entries) if entries else m

    scale = 1.0 + functools.reduce(np.maximum, map(size, terms))
    gap = size(sum(terms[1:], terms[0])) / scale
    return float(gap.max()) if gap.size else float("inf")


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, rounded as one complex product at a time
    rounds (numpy's vector loop may fuse a multiply and an add)."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def generalized_minor(M: RatMatrix, spec: MinorSpec, data: CartanData) -> RatFun:
    """Minor over rows u({1..i}) and columns v({1..i}), indices sorted.

    Row and column sets are taken in increasing order; signs follow from
    that convention together with the fixed lifts.
    """
    return M.submatrix(_index_rows(spec.u, spec.i, data),
                       _index_rows(spec.v, spec.i, data)).det()


def check_fundamental_relation(M: RatMatrix, u: WeylWord, v: WeylWord, i: int,
                               data: CartanData) -> RatFun:
    """Residual of the bilinear minor exchange relation at node i.

    Requires the length conditions l(u s_i) = l(u) + 1 and the same for v;
    the relation holds identically for every unimodular matrix of rational
    functions, so a nonzero residual flags either det != 1 or broken input.
    """
    si = WeylWord((i,))
    if word_length(u * si, data) != word_length(u, data) + 1:
        raise ValueError(f"length condition fails for u = {u.letters} at node {i}")
    if word_length(v * si, data) != word_length(v, data) + 1:
        raise ValueError(f"length condition fails for v = {v.letters} at node {i}")
    usi, vsi = u * si, v * si
    t1 = generalized_minor(M, MinorSpec(u, v, i), data) \
        * generalized_minor(M, MinorSpec(usi, vsi, i), data)
    t2 = generalized_minor(M, MinorSpec(usi, v, i), data) \
        * generalized_minor(M, MinorSpec(u, vsi, i), data)
    rhs = RatFun.one()
    for j in range(1, data.rank + 1):
        if j == i:
            continue
        e = -data.a(j, i)
        if e:
            m = generalized_minor(M, MinorSpec(u, v, j), data)
            for _ in range(e):
                rhs = rhs * m
    return t1 - t2 - rhs


def fundamental_relation_residual(Mv: np.ndarray, u: WeylWord, v: WeylWord,
                                  i: int, data: CartanData) -> float:
    """Relative residual of the minor exchange relation on a stack Mv of
    evaluated matrices (points, n, n).

    Numeric companion to check_fundamental_relation, and the CLI's float
    check: minors are determinants of the evaluated matrices, so nothing
    symbolic is built.  The length condition is not checked.
    """
    si = WeylWord((i,))
    ru, rv, rus, rvs = (_index_rows(w, i, data) for w in (u, v, u * si, v * si))
    a, b, c, d = (_minor(Mv, rows, cols)
                  for rows, cols in ((ru, rv), (rus, rvs), (rus, rv), (ru, rvs)))
    rhs = np.ones(len(Mv), dtype=complex)
    for j in range(1, data.rank + 1):
        if j != i and data.a(j, i):
            rhs = _times(rhs, _minor(Mv, _index_rows(u, j, data),
                                     _index_rows(v, j, data)) ** -data.a(j, i))
    return _rel_gap(_times(a, b), -_times(c, d), -rhs)


def check_lewis_carroll(M: RatMatrix, i: int) -> RatFun:
    """Dodgson condensation residual M^1_1 M^2_i - M^1_i M^2_1 - M^12_1i det M.

    M^a_b removes row a and column b; M^12_1i removes rows {1,2} and
    columns {1,i}.  The residual vanishes identically for every square
    matrix with n >= 3 and 2 <= i <= n (exactly in rational mode).
    """
    n = M.n
    if n < 3:
        raise ValueError("needs a matrix of size at least 3")
    if not 2 <= i <= n:
        raise ValueError("column index out of range")

    def minor(drop_rows, drop_cols):
        rows = [r for r in range(n) if r not in drop_rows]
        cols = [c for c in range(n) if c not in drop_cols]
        return M.submatrix(rows, cols).det()

    lhs = minor({0}, {0}) * minor({1}, {i - 1}) - minor({0}, {i - 1}) * minor({1}, {0})
    return lhs - minor({0, 1}, {0, i - 1}) * M.det()


def lewis_carroll_residual(Mv: np.ndarray, i: int) -> float:
    """Relative residual of the Dodgson identity on a stack Mv of
    evaluated matrices (points, n, n).

    Numeric companion to check_lewis_carroll, and the CLI's float check:
    minors are determinants of the evaluated matrices, so the residual
    measures rounding, which the float trim would empty from a symbolic
    residual, and no symbolic coefficients grow.
    """
    n = Mv.shape[-1]
    if n < 3 or not 2 <= i <= n:
        raise ValueError("need n >= 3 and 2 <= i <= n")

    def keep(*drop):
        return [k for k in range(n) if k not in drop]

    a, b, c, d, e = (_minor(Mv, keep(*rows), keep(*cols)) for rows, cols in
                     (((0,), (0,)), ((1,), (i - 1,)), ((0,), (i - 1,)),
                      ((1,), (0,)), ((0, 1), (0, i - 1))))
    return _rel_gap(_times(a, b), -_times(c, d), -_times(e, np.linalg.det(Mv)))


def check_wronskian_equations(s: TypeASample) -> CheckReport:
    """Residuals of the transport equations for k = 0..h-1.

    Checks W(q^k z) nu_i = Z^k W(z) S_k(z) nu_i on the sample, with the
    i-th fundamental vector realized through i-th compound matrices.  The
    pair (i, k) participates while the transported wedge stays inside the
    coordinate window, i + k <= h; the k = 0 equations are trivial.
    """
    inst = s.bundle.inst
    h = len(s.W)  # the Coxeter number of A_r is r + 1
    rep = CheckReport("wronskian-equations", True)
    for k in range(h):
        rhs = (s.z**k)[:, None] * s.W[0] @ s.S[k]
        for i in range(1, min(inst.rank, h - k) + 1):
            val = _rel_gap(_compound_top_column(s.W[k], i),
                           -_compound_top_column(rhs, i))
            rep.add(f"k={k} i={i}", val <= max(inst.tau, 1e-8) * 10, value=val)
    return rep


def _compound_top_column(M: np.ndarray, i: int) -> np.ndarray:
    """First column of the i-th compound: wedge minors against cols 1..i,
    row sets in lexicographic order along the last axis, of M or of every
    matrix of a stack (..., n, n)."""
    rows = list(itertools.combinations(range(M.shape[-1]), i))
    return _minor(M, rows, range(i))


def _wedge_image(Rm: np.ndarray, i: int):
    """(columns, scalars) of the single wedge that R's i-th compound maps
    the top wedge e_1 ^ ... ^ e_i to, for a stack Rm of evaluations of R;
    the scalars hold one value per matrix."""
    img = _compound_top_column(Rm, i)
    big = np.abs(img) > 1e-12 * (1 + np.abs(img).max(axis=-1, keepdims=True))
    nz = np.nonzero(big[0])[0]
    if len(nz) != 1 or (big != big[0]).any():
        raise AssertionError("lift compound image is not a single wedge")
    return list(itertools.combinations(range(Rm.shape[-1]), i))[nz[0]], img[:, nz[0]]


def check_shifted_minor_relation(s: TypeASample, i: int,
                                 words: Sequence[WeylWord]) -> list[float]:
    """Residuals of the one-step minor shift relation at node i, one per
    word w of ``words``:

    Delta_{w om_i, c om_i}(W(z)) =
        (-1)^i [prod_j zeta_j^{<coroot_j, w om_i>}] F_i(z)
        Delta_{w om_i, om_i}(W(qz)),

    where the shifted column set and the factor F_i(z)^{-1} = L_i(z) are
    read off the i-th compound of the staggered lift; for the standard
    ordering L_i(z) = prod_{j<=i} Lambda_j(q^{j-1} z).  Each residual is
    the relative residual on the sample, and each side's minors for every
    word and point come from one det.
    """
    inst = s.bundle.inst
    if not len(s.points):
        return [float("inf")] * len(words)
    tgt_cols, scalars = _wedge_image(s.S[1], i)
    rows = [_index_rows(w, i, inst.cartan) for w in words]
    lhs = _minor(s.W[0], rows, tgt_cols)  # (points, words)
    shifted = _minor(s.W[1], rows, range(i))
    return [_rel_gap(lhs[:, k],
                     -(_times(_zeta_weight(inst, rs), shifted[:, k]) / scalars))
            for k, rs in enumerate(rows)]


def _zeta_weight(inst: QQInstance, rows) -> complex:
    """prod_j zeta_j^{<coroot_j, w om_i>}, where <coroot_j, w om_i> is
    [j in w om_i] - [j+1 in w om_i]; ``rows`` holds w om_i 0-based."""
    weight = 1.0 + 0.0j
    for j, zeta in enumerate(inst.zetas()):  # zeta of node j + 1
        e = (j in rows) - (j + 1 in rows)
        if e:
            weight *= complex(zeta) ** e
    return weight


def gauss_decompose(M: RatMatrix):
    """LDU factorization M = n_minus h n_plus with unipotent outer factors.

    Exists iff every leading principal minor is a nonzero rational
    function; on failure reports the first index whose minor vanishes.
    """
    n = M.n
    work = [[M.entries[i][j] for j in range(n)] for i in range(n)]
    lower = [[RatFun.one() if i == j else RatFun.zero() for j in range(n)]
             for i in range(n)]
    upper = [[RatFun.one() if i == j else RatFun.zero() for j in range(n)]
             for i in range(n)]
    diag = [RatFun.one()] * n
    for k in range(n):
        piv = work[k][k]
        if piv.is_zero():
            raise DegenerateInstance(
                f"no Gaussian decomposition: principal minor {k + 1} vanishes")
        diag[k] = piv
        for i2 in range(k + 1, n):
            lower[i2][k] = work[i2][k] / piv
        for j2 in range(k + 1, n):
            upper[k][j2] = work[k][j2] / piv
        for i2 in range(k + 1, n):
            for j2 in range(k + 1, n):
                work[i2][j2] = work[i2][j2] - work[i2][k] * work[k][j2] / piv
    return (RatMatrix(lower),
            RatMatrix([[diag[i] if i == j else RatFun.zero() for j in range(n)]
                       for i in range(n)]),
            RatMatrix(upper))


def miura_from_wronskian(s: TypeASample) -> CheckReport:
    """Reconstruct the Miura connection from Wronskian data and verify it.

    Requires gauss_decompose to succeed on W (the nondegeneracy gate).
    The connection is A(z) = v(qz)^{-1} Z v(z) with v the lower-triangular
    trivializer determined by the Wronskian's first column, solved at
    each sample point; it is checked to (a) be lower triangular of Miura
    shape, (b) carry the Cartan connection zeta_i Q+_i(qz)/Q+_i(z) on its
    diagonal ratios, and (c) agree entrywise with the bundle's product
    connection A on the sample.  Without a trivializer (rank one) the
    trivializer's refusal is raised.
    """
    b = s.bundle
    gauss_decompose(b.W)  # the iff gate; raises on vanishing principal minors
    if s.v is None:
        miura_trivializer(b.inst, b.sol, A=b.A)  # raises the refusal
    Am = np.linalg.solve(s.vq, s.z[:, None] * s.v)
    ones = np.ones((len(s.g), 1))
    g = np.hstack([ones, s.g, ones])  # g_0 = g_{r+1} = 1
    rep = CheckReport("miura-reconstruction", True)
    # the vector checks take each entry at each point as its own sample
    col_err = _rel_gap(s.W[0][..., 0].ravel(), -s.v[..., 0].ravel())
    tri_err = _rel_gap(Am, -np.tril(Am))
    diag_err = _rel_gap(np.diagonal(Am, axis1=1, axis2=2).ravel(),
                        -(g[:, :-1] / g[:, 1:]).ravel())
    ent_err = _rel_gap(Am, -s.A)
    rep.add("first column matches trivializer", col_err <= 1e-7, value=col_err)
    rep.add("oper shape (lower triangular)", tri_err <= 1e-8, value=tri_err)
    rep.add("Cartan connection on the diagonal", diag_err <= 1e-7, value=diag_err)
    rep.add("matches the product construction", ent_err <= 1e-8, value=ent_err)
    return rep


def miura_plucker_blocks(s: TypeASample, i: int) -> CheckReport:
    """Rank-two block check in the i-th fundamental realization.

    The representation with lowest weight -omega_i is the (r+1-i)-th
    exterior power of the defining one; the invariant plane is spanned by
    the lowest wedge u1 = e_{i+1} ^ ... ^ e_{r+1} and u2 = e_i . u1.  The
    2x2 blocks of the compound matrices of A, v and Z must satisfy
    A_i(z) = vt_i(qz) Z_i vt_i(z)^{-1} where vt = v^{-1}; Z_i is the same
    block of the compound of Z = diag(z).
    """
    n = len(s.z)
    plane = np.array([list(range(i, n)), sorted([i - 1] + list(range(i + 1, n)))])

    def blk(Mv):
        """The (u1, u2) blocks of the (n-i)-th compound of a stack Mv."""
        return _minor(Mv, plane[:, None], plane[None, :])

    rhs = blk(np.linalg.inv(s.vq)) @ blk(np.diag(s.z)) \
        @ np.linalg.inv(blk(np.linalg.inv(s.v)))
    worst = _rel_gap(blk(s.A), -rhs)
    rep = CheckReport(f"miura-plucker block i={i}", True)
    rep.add("block twist identity", worst <= 1e-8, value=worst)
    return rep


def weyl_twist(W: RatMatrix, w: WeylWord, inst: QQInstance):
    """Left-multiply by the lift of w; the result is twisted by w(Z).

    Returns (W', new_twist); the lift is a signed permutation matrix whose
    square on each block is -1 (tracked by the caller through the sign of
    the lift itself).
    """
    lw = lift_of_word(w, inst.cartan)
    new_twist = twist_along_word(inst.twist, w, inst.cartan)
    return lw @ W, new_twist
