"""Constructions that only the tests use: Coxeter data, Weyl-word
inverses, positive roots, lengths and longest elements, the full QQ
table's entry at a word, twists along a word, the lift exponent table,
matrix lifts of Weyl words, the staggered lift and its transports as
dense matrix products (interleaved and collected) and the dense form of
a monomial one, the Backlund gauge parameter, the symbolic Gaussian
decomposition, the rows of type-A generalized minors, the identities
of the type-A bundle that hold by construction (the Wronskian's difference equations as minor identities
and in compound-matrix form, the minor exchange relation and the Miura
Plucker blocks), and a field-wise copy of the type-A bundle and sample.
The tests hold them to the paper's formulas; no command runs them.
"""

import inspect
import itertools
from typing import NamedTuple

import numpy as np

from qoper.cartan import (CartanData, CartanError, TwistZ, canonical_form,
                          enumerate_weyl, reflect_twist, word_action)
from qoper.minors import RatMatrix
from qoper.polynomials import TAU, Poly, RatFun, q_shift
from qoper.qq import DegenerateInstance, QQInstance, QQSolution
from qoper.wronskian import _coroot_diag, _minor, _rel_gap, heights


def longest_element(data: CartanData) -> tuple:
    return enumerate_weyl(data)[-1]


def _reflect_root(beta: tuple, i: int, data: CartanData) -> tuple:
    """s_i(beta) = beta - <beta, alpha_i^vee> alpha_i in simple-root
    coordinates, with <alpha_j, alpha_i^vee> = a_ij."""
    pair = sum(b * data.a(i, j) for j, b in enumerate(beta, start=1))
    return tuple(b - pair * (j == i) for j, b in enumerate(beta, start=1))


def positive_roots(data: CartanData) -> list:
    """The positive roots in simple-root coordinates, from the Cartan
    matrix alone: the simple roots closed under the simple reflections,
    keeping the roots without a negative coordinate."""
    r = data.rank
    roots = {tuple(int(j == i) for j in range(r)) for i in range(r)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in range(1, r + 1):
            image = _reflect_root(beta, i, data)
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return sorted(beta for beta in roots if min(beta) >= 0)


def coxeter_number(data: CartanData) -> int:
    """h = 2 |Phi+| / r, from positive_roots."""
    return 2 * len(positive_roots(data)) // data.rank


def word_length(word: tuple, data: CartanData) -> int:
    """Coxeter length of the element the word spells: the number of
    positive roots it sends to negative ones, rightmost letter first."""
    count = 0
    for beta in positive_roots(data):
        for letter in reversed(word):
            beta = _reflect_root(beta, letter, data)
        count += min(beta) < 0
    return count


def word_inverse(word: tuple) -> tuple:
    return tuple(reversed(word))


def entry(fq, word: tuple, cartan: CartanData):
    """The (instance, solution) of a full QQ table at the element the
    word spells."""
    return fq.table[canonical_form(word, cartan)]


def twist_along_word(Z: TwistZ, word: tuple, data: CartanData) -> TwistZ:
    """w(Z) for w given by the word, rightmost letter applied first."""
    for letter in reversed(word):
        Z = reflect_twist(Z, letter, data)
    return Z


class LiftExponents(NamedTuple):
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


def lift_matrix(n: int, i: int, sign: int = 1) -> RatMatrix:
    """Defining-representation lift of s_i: e_i -> e_{i+1}, e_{i+1} -> -e_i;
    with sign -1 the lift of s_i^{-1}: e_i -> -e_{i+1}, e_{i+1} -> e_i."""
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    m[i - 1][i - 1] = m[i][i] = 0
    m[i][i - 1] = sign
    m[i - 1][i] = -sign
    return RatMatrix([[RatFun(Poly([c])) for c in row] for row in m])


def dense_staggered_lift(inst: QQInstance) -> RatMatrix:
    """R(z) as the dense product of its factors, s_{i_l}^{-1} and
    Lambda_{i_l}(q^{h(i_l)}z)^{coroot} in the instance ordering, h from
    ``heights``."""
    n = inst.rank + 1
    h = heights(inst.cartan.ordering)
    acc = RatMatrix.identity(n)
    for node in inst.cartan.ordering:
        lam = q_shift(inst.lambdas[node - 1], inst.q ** h[node - 1])
        acc = acc @ lift_matrix(n, node, -1) \
            @ _coroot_diag(n, node, RatFun(lam))
    return acc


def dense_lift_products(R: RatMatrix, q) -> list:
    """S_k(z) = R(z) R(qz) ... R(q^{k-1} z), k = 0..n-1, as dense
    products of a dense R."""
    S = [RatMatrix.identity(R.n)]
    for k in range(1, R.n):
        shifted = RatMatrix([[e.shift(q ** (k - 1)) for e in row]
                             for row in R.entries])
        S.append(S[-1] @ shifted)
    return S


def collected_lift(inst: QQInstance) -> RatMatrix:
    """R collected: the bare permutation lift, then the torus factors
    Lambda_{i_l}(q^{h(i_l)} z)^{d_l} with d from d_exponents and h from
    ``heights``."""
    n = inst.rank + 1
    order = inst.cartan.ordering
    h = heights(order)
    acc = RatMatrix.identity(n)
    for node in order:
        acc = acc @ lift_matrix(n, node, -1)
    for l, row in enumerate(d_exponents(inst.cartan).d):
        lam = RatFun(q_shift(inst.lambdas[order[l] - 1],
                             inst.q ** h[order[l] - 1]))
        for m, e in enumerate(row):
            for _ in range(abs(e)):
                acc = acc @ _coroot_diag(n, order[m],
                                         lam if e > 0 else lam.inv())
    return acc


def densify(M: tuple, values=None):
    """The dense form of a monomial matrix M, stored as its (row, entry)
    pairs, one per column: a RatMatrix, or with ``values`` (the entries
    at one point, one per column) the rows of values there."""
    n = len(M)
    out = [[RatFun.zero() if values is None else 0j] * n for _ in range(n)]
    for c, (r, g) in enumerate(M):
        out[r][c] = g if values is None else values[c]
    return RatMatrix(out) if values is None else tuple(map(tuple, out))


def lift_of_word(word: tuple, cartan: CartanData) -> RatMatrix:
    """Matrix lift of a Weyl word (type A defining representation)."""
    n = cartan.rank + 1
    acc = RatMatrix.identity(n)
    for letter in word:
        acc = acc @ lift_matrix(n, letter)
    return acc


def weyl_twist(W: RatMatrix, w: tuple, inst: QQInstance):
    """Left-multiply by the lift of w; the result is twisted by w(Z).

    Returns (W', new_twist); the lift is a signed permutation matrix whose
    square on each block is -1 (tracked by the caller through the sign of
    the lift itself).
    """
    lw = lift_of_word(w, inst.cartan)
    new_twist = twist_along_word(inst.twist, w, inst.cartan)
    return lw @ W, new_twist


def mu_gauge(sol: QQSolution, cartan: CartanData, i: int, z: complex,
             tol: float = TAU) -> complex:
    """Gauge parameter mu_i(z) = prod_{j!=i} Q+_j(z)^{-a_ji} / (Q+_i Q-_i)(z)."""
    qp = sol.qplus[i - 1]
    qm = sol.qminus[i - 1]
    vp, vm = complex(qp(z)), complex(qm(z))
    if abs(vp) <= tol * (1 + qp.norm()):
        raise ZeroDivisionError(f"Q+_{i} vanishes at z = {z}")
    if abs(vm) <= tol * (1 + qm.norm()):
        raise ZeroDivisionError(f"Q-_{i} vanishes at z = {z}")
    num = 1.0 + 0.0j
    for j in range(1, len(sol.qplus) + 1):
        if j == i:
            continue
        e = -cartan.a(j, i)
        if e:
            num *= complex(sol.qplus[j - 1](z)) ** e
    return num / (vp * vm)


def _pivot_vanishes(f: RatFun) -> bool:
    """f is exactly zero, or a float f whose numerator is at most TAU
    times 1 + the norm of its denominator."""
    return f.is_zero() or (not f.num.exact
                           and f.num.norm() <= TAU * (1.0 + f.den.norm()))


def gauss_decompose(M: RatMatrix):
    """LDU factorization M = n_minus h n_plus with unipotent outer factors.

    Exists iff every leading principal minor is a nonzero rational
    function; on failure reports the first index whose minor vanishes
    (``_pivot_vanishes``).  A quotient by a pivot whose numerator is not
    monic divides, so even an int matrix may give float factors, each
    carrying the rounding of its pivot; on an A4 Wronskian the
    coefficients overflow.
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
        if _pivot_vanishes(piv):
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


def column_index_set(w: tuple, i: int, data: CartanData) -> tuple:
    """The weight w(omega_i), which indexes the minors Delta_{w omega_i, .},
    and in type A its rows S = w({1, ..., i}) of 1..r+1, sorted and 0-based.

    S is read off the weight: coordinate j of w(omega_i) is
    [j in S] - [j+1 in S], so the sum of coordinates j..r is
    [j in S] - [r+1 in S], and |S| = i fixes [r+1 in S].
    """
    if not data.is_type_a:
        raise CartanError("index sets via minors are defined only in type A")
    if not 1 <= i <= data.rank:
        raise ValueError(f"fundamental index {i} out of range")
    n = data.rank + 1
    weight = word_action(w, tuple(int(j == i) for j in range(1, n)), data)
    tails = [sum(weight[j:]) for j in range(n)]
    last = (i - sum(tails)) // n  # [r+1 in S]
    return weight, tuple(j for j, t in enumerate(tails) if t + last)


def shifted_minor_per_point(b, w, i, points) -> float:
    """The transport equation W(qz) nu_i = Z W(z) R(z) nu_i of a type-A
    bundle on the minor with rows w(omega_i), one point and one minor at a
    time: Delta_{w om_i, om_i}(W(qx)) = [prod of Z_a over a in w om_i]
    Delta_{w om_i, T}(W(x)) Delta_{T, om_i}(R(x)), T the rows that R sends
    columns 1..i to.  The largest relative gap over points."""
    inst = b.inst
    qc, n = complex(inst.q), inst.rank + 1
    rows = column_index_set(w, i, inst.cartan)[1]
    rowset = {r + 1 for r in rows}
    weight = 1.0 + 0.0j
    for j in range(1, inst.rank + 1):
        e = (j in rowset) - (j + 1 in rowset)
        if e:
            weight *= complex(inst.twist.zetas[j - 1]) ** e
    sets = list(itertools.combinations(range(n), i))
    worst = 0.0
    for x in points:
        Rm = densify(b.S[1]).eval(x)
        img = [_minor(Rm, rs, list(range(i))) for rs in sets]
        k = max(range(len(sets)), key=lambda t: abs(img[t]))
        lhs = _minor(b.W.eval(x), rows, sets[k])
        rhs = weight * _minor(b.W.eval(qc * x), rows, tuple(range(i))) / img[k]
        worst = max(worst, abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
    return worst


def _compound_top_column(M, i: int) -> list:
    """First column of the i-th compound of a matrix of values: its
    minors against columns 1..i, row sets in lexicographic order."""
    return [_minor(M, rows, range(i))
            for rows in itertools.combinations(range(len(M)), i)]


def compound_equation_residuals(b, points) -> dict:
    """{(k, i): the relative residual of W(q^k x) nu_i = Z^k W(x) S_k(x)
    nu_i} of a type-A bundle, for k >= 1 and i + k <= h = r + 1, with nu_i
    realized through i-th compound matrices: the first compound columns of
    W(q^k x) and of the product Z^k W(x) S_k(x), each evaluated from the
    bundle at ``points``."""
    h, qc = b.inst.rank + 1, complex(b.inst.q)
    z = np.array([complex(e) for e in b.z])[:, None]
    out = {}
    for k in range(1, h):
        lhs = [b.W.eval(qc ** k * x) for x in points]
        rhs = [(z ** k * np.array(b.W.eval(x))
                @ np.array(densify(b.S[k]).eval(x))).tolist() for x in points]
        for i in range(1, h - k + 1):
            out[k, i] = _rel_gap([_compound_top_column(M, i) for M in lhs],
                                 [_compound_top_column(M, i) for M in rhs])
    return out


def fundamental_per_point(M, i, data, points, u=(), v=()) -> float:
    """The minor exchange relation of a matrix M at (u, v),

        D(u, v, i) D(us_i, vs_i, i) - D(us_i, v, i) D(u, vs_i, i)
            = prod_{j != i} D(u, v, j)^{-a_ji},

    D(u, v, i) the minor with rows u(omega_i) and columns v(omega_i), one
    point at a time; the largest relative residual.  It needs
    l(u s_i) = l(u) + 1 and the same for v, and holds for det M = 1."""
    def rows(w, j):
        return column_index_set(w, j, data)[1]

    si = (i,)
    worst = 0.0
    for x in points:
        Mv = M.eval(x)
        t1 = _minor(Mv, rows(u, i), rows(v, i)) \
            * _minor(Mv, rows(u + si, i), rows(v + si, i))
        t2 = _minor(Mv, rows(u + si, i), rows(v, i)) \
            * _minor(Mv, rows(u, i), rows(v + si, i))
        rhs = 1.0 + 0.0j
        for j in range(1, data.rank + 1):
            if j != i and data.a(j, i):
                rhs *= _minor(Mv, rows(u, j), rows(v, j)) ** -data.a(j, i)
        scale = 1.0 + max(abs(t1), abs(t2), abs(rhs))
        worst = max(worst, abs(t1 - t2 - rhs) / scale)
    return worst


def plucker_per_point(b, i, points) -> float:
    """The rank-two block twist identity of a type-A bundle in the i-th
    fundamental realization, one point at a time.

    The representation with lowest weight -omega_i is the (r+1-i)-th
    exterior power of the defining one; the plane spanned by the lowest
    wedge u1 = e_{i+1} ^ ... ^ e_{r+1} and u2 = e_i . u1 is invariant under
    every lower-triangular factor.  The 2x2 blocks of the compound matrices
    must satisfy A_i(x) = vt_i(qx) Z_i vt_i(x)^{-1} with vt = v^{-1}.  The
    largest relative gap over points."""
    inst, A, v = b.inst, b.A, b.v
    n, qc = inst.rank + 1, complex(inst.q)
    plane = (tuple(range(i, n)), tuple(sorted([i - 1] + list(range(i + 1, n)))))
    Z = np.diag([complex(e) for e in b.z])

    def blk(Mv):
        return np.array([[_minor(Mv, rs, cs) for cs in plane] for rs in plane])

    worst = 0.0
    for x in points:
        Ai = blk(A.eval(x))
        rhs = blk(np.linalg.inv(v.eval(qc * x))) @ blk(Z) \
            @ np.linalg.inv(blk(np.linalg.inv(v.eval(x))))
        scale = 1.0 + max(np.abs(Ai).max(), np.abs(rhs).max())
        worst = max(worst, np.abs(Ai - rhs).max() / scale)
    return worst


def replace(obj, **changes):
    """A new object of obj's class from its constructor arguments, read
    off obj's attributes of the same names, with ``changes`` applied."""
    names = inspect.signature(type(obj)).parameters
    return type(obj)(**{n: changes.get(n, getattr(obj, n)) for n in names})
