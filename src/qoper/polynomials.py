"""Univariate polynomials and rational functions over complex scalars.

Coefficients are Python complex/float numbers (the default, double
precision) or Python ``int`` values, kept as ints: the exact mode of the
identity battery, closed under the ring operations.  A division
(``monic``, a ``RatFun`` denominator's normalisation) turns int
coefficients into floats.  All ring operations are generic over the
scalar type; only root extraction and least-squares solving require
floating point.

Polynomials are stored lowest degree first.  The zero polynomial has an
empty coefficient tuple and degree -1 by convention.

Matrices of these functions, their minors and the Dodgson check are in
``minors``, which loads this module only for a rational entry, so
``qoper identities`` never compiles it.  No part of this module uses
numpy: ``poly_roots`` is the Aberth-Ehrlich iteration,
``solve_q_difference`` solves by Householder QR, and ``triangularize``
and ``solve_linear`` are Gaussian elimination.

A polynomial drops exact zero top coefficients only, so a float
polynomial keeps every nonzero coefficient, however small: its degree is
that of the products and shifts that made it, and a residual polynomial
keeps its rounding noise.  ``Poly.is_zero`` and ``RatFun.is_zero`` are
exact; "numerically zero" is the caller's verdict, on a scale it knows.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Iterable, Sequence

from .minors import horner

#: Default comparison tolerance.  Comparisons are relative with scale
#: ``(1 + magnitude)`` throughout the package.
TAU = 1e-10


def close(a, b, tol: float = TAU) -> bool:
    """Relative comparison with scale 1 + max magnitude."""
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


class NonFinite(ValueError):
    """An inf or NaN scalar: from finite input, an overflowed result."""


def ensure_finite(x) -> complex:
    cx = complex(x)
    if not cmath.isfinite(cx):
        raise NonFinite(f"non-finite scalar: {cx}")
    return cx


class Poly:
    """Univariate polynomial, coefficients lowest degree first.

    Immutable.  Trailing coefficients that are exactly zero are dropped
    on construction, in either mode; every other coefficient stays.
    ``roots()`` finds the roots once and keeps them.
    """

    __slots__ = ("coeffs", "exact", "_roots")

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        exact = all(type(c) is int for c in cs)
        if not exact:
            cs = [ensure_finite(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.exact = exact
        self._roots = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def from_roots(roots: Sequence, leading=1.0) -> "Poly":
        p = Poly([leading])
        for r in roots:
            p = p * Poly([-r, 1])
        return p

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, z):
        acc = 0 if (self.exact and type(z) is int) else 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                     for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "Poly":
        """c times this polynomial; for c != 0 it keeps the roots found."""
        out = Poly([c * ck for ck in self.coeffs])
        if c and out.degree == self.degree:
            out._roots = self._roots
        return out

    def monic(self) -> "Poly":
        """Rescale so the leading coefficient is 1, keeping the roots
        found."""
        lc = self.leading()
        out = Poly([c / lc for c in self.coeffs])
        out._roots = self._roots
        return out

    def norm(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs), default=0.0)

    def roots(self) -> tuple:
        """poly_roots of this polynomial, found on the first call only."""
        if self._roots is None:
            self._roots = tuple(poly_roots(self))
        return self._roots

    @property
    def roots_known(self) -> bool:
        """True once roots() has found the roots."""
        return self._roots is not None


_POLY_ONE = Poly.one()


def _times(a: Poly, b: Poly) -> Poly:
    """a * b, skipping a factor that is the exact constant 1."""
    if b.exact and b.coeffs == (1,):
        return a
    if a.exact and a.coeffs == (1,):
        return b
    return a * b


def q_shift(p: Poly, q) -> Poly:
    """Return p(qz): coefficient c_k picks up a factor q**k.

    The substitution z -> qz is the basic dilation the whole theory is
    built on; it is a ring morphism, inverted by shifting with 1/q.
    """
    if complex(q) == 0:
        raise ValueError("q must be nonzero")
    out = []
    f = 1 if (p.exact and type(q) is int) else ensure_finite(q) / ensure_finite(q)
    qk = f  # q**0, in the matching domain
    for c in p.coeffs:
        out.append(c * qk)
        qk = qk * q
    return Poly(out)


def poly_roots(p: Poly) -> list[complex]:
    """All roots with multiplicity, by the Aberth-Ehrlich iteration (see
    ``_aberth``).

    The roots are polished with two Newton steps; every returned root r
    has |p(r)| <= 1e-8 max(1 + max|c_k|, sum |c_k||r|^k).
    """
    if p.degree < 1:
        raise ValueError("root extraction needs degree >= 1")
    cs = [complex(c) for c in p.coeffs]
    lc = cs[-1]
    roots = _aberth([ensure_finite(c / lc) for c in cs])
    dcs = [k * cs[k] for k in range(1, len(cs))]
    polished = []
    for r in roots:
        for _ in range(2):
            d = horner(dcs, r)
            if abs(d) > 1e-14:
                r = r - horner(cs, r) / d
        polished.append(ensure_finite(r))
    # a far root is accurate when its backward error |p(r)| / sum |c_k||r|^k
    # is small, even if |p(r)| itself exceeds the coefficient scale
    base = 1.0 + max(map(abs, cs))
    for r in polished:
        res = abs(horner(cs, r))
        if not res <= 1e-8 * max(base, value_scale(cs, r)):
            raise ArithmeticError(
                f"root polishing failed: residual {res:.3e} at {r}")
    return sorted(polished, key=lambda w: (round(w.real, 12), round(w.imag, 12)))


def value_scale(coeffs, z) -> float:
    """sum_k |c_k| |z|^k over coefficients lowest degree first: the size of
    p(z) that rounding in its evaluation is relative to, so |p(z)| over it
    is the backward error of z as a root."""
    return horner([abs(c) for c in coeffs], abs(z))


def _aberth(cs: list) -> list[complex]:
    """The roots of the monic polynomial with coefficients cs, lowest
    degree first, by the Aberth-Ehrlich iteration (Bini, "Numerical
    computation of polynomial zeros by means of Aberth's method", Numer.
    Algorithms 1996).

    The starting points lie on one circle per edge of the Newton polygon,
    the upper convex hull of the points (k, log|c_k|), whose radius is the
    geometric mean root modulus that edge gives; a zero c_0, ..., c_{s-1}
    puts s roots at 0 exactly.  Each sweep moves every root z_k in turn by
    p/p' / (1 - p/p' sum_{j != k} 1/(z_k - z_j)) and freezes it once
    |p(z_k)| is at the rounding level of sum |c_j||z_k|^j, or its step at
    that of |z_k|, for at most 200 sweeps.
    """
    n = len(cs) - 1
    acs = [abs(c) for c in cs]
    zeros = next(k for k, a in enumerate(acs) if a)
    hull = []
    for k in range(zeros, n + 1):
        if not acs[k]:
            continue
        pt = (k, math.log(acs[k]))
        # pop points on or below the chord from the one before to pt
        while len(hull) >= 2 and (
                (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
                <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    z = [0j] * zeros
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        radius = math.exp((l0 - l1) / (k1 - k0))
        for j in range(k1 - k0):
            z.append(cmath.rect(radius, 2 * math.pi * (j / (k1 - k0) + k0 / n)
                                + 0.7))
    dcs = [k * cs[k] for k in range(1, n + 1)]
    eps = sys.float_info.epsilon
    live = range(zeros, n)
    for _ in range(200):
        still = []
        for k in live:
            zk = z[k]
            pv = horner(cs, zk)
            if abs(pv) <= 4 * eps * horner(acs, abs(zk)):
                continue
            den = horner(dcs, zk) - pv * sum(
                1 / (zk - zj) for zj in z if zj != zk)
            step = pv / den if den else (1 + abs(zk)) * 1e-8
            z[k] = zk - step
            if abs(step) > eps * abs(z[k]):
                still.append(k)
        if not still:
            break
        live = still
    return z


def q_distinct(p1: Poly, p2: Poly, q, K: int, tol: float = TAU):
    """Check that no root of p1 equals q**k times a root of p2, |k| <= K.

    Returns (True, None) when the root sets are q-distinct within the
    window, else (False, (z1, z2, k)) with a violating triple.
    Constant polynomials have no roots and are trivially q-distinct.
    """
    if p1.is_zero() or p2.is_zero():
        raise ValueError("q_distinct requires nonzero polynomials")
    if K < 1:
        raise ValueError("K must be >= 1")
    r1 = p1.roots() if p1.degree >= 1 else ()
    r2 = p2.roots() if p2.degree >= 1 else ()
    qc = complex(q)
    powers = [(k, qc**k) for k in range(-K, K + 1)]
    for z1 in r1:
        for z2 in r2:
            for k, qk in powers:
                if abs(z1 - qk * z2) <= tol * (1.0 + abs(z2)):
                    return False, (z1, z2, k)
    return True, None


def off_pole(f, x):
    """(x', f(x')) for the first x' = x (1.013+0.007i)^k, k = 0..4, that is
    not on a pole of f, i.e. where f raises no ZeroDivisionError.

    A point that stays on a pole after four nudges re-raises the last
    ZeroDivisionError.
    """
    for _ in range(4):
        try:
            return x, f(x)
        except ZeroDivisionError:
            x = x * (1.013 + 0.007j)
    return x, f(x)


def solve_q_difference(a, b, c, q, tol: float = TAU):
    """Polynomial f with a(z) f(z) + b(z) f(qz) = c(z), or None.

    a, b and c are coefficient sequences, lowest degree first, such as
    the ``coeffs`` of a Poly: their lengths give
    deg f = len(c) - max(len(a), len(b)), true unless the left side's top
    coefficient cancels (for len(a) == len(b), unless
    a_top + b_top q^(deg f) = 0).  Column k of the linear system holds
    a(z) z^k + q^k b(z) z^k; its least-squares solution (``_least_squares``)
    is accepted when its residual is at most max(tol, 1e-9) (1 + max|c|).
    None means no polynomial solves the equation, or that the system's
    columns are exactly dependent.  A solution or residual that leaves
    double range raises NonFinite.
    """
    a, b, c = ([complex(x) for x in seq] for seq in (a, b, c))
    d = len(c) - max(len(a), len(b))
    if d < 0:
        return None
    qc = complex(q)
    cols = []
    for k in range(d + 1):
        col = [0j] * len(c)
        for t, x in enumerate(a):
            col[k + t] = x
        qk = qc**k
        for t, x in enumerate(b):
            col[k + t] += x * qk
        cols.append(col)
    sol = _least_squares(cols, c)
    if sol is None:
        return None
    f = Poly(sol)
    resid = max(abs(sum(col[r] * x for col, x in zip(cols, sol)) - c[r])
                for r in range(len(c)))
    ensure_finite(resid)
    if resid > max(tol, 1e-9) * (1.0 + max(map(abs, c))):
        return None
    return f


def _least_squares(cols: list, rhs: list):
    """The x minimizing |sum_k x_k cols[k] - rhs| over complex vectors, by
    Householder QR (Golub and Van Loan, *Matrix Computations*, section
    5.3), or None when R has an exact zero on its diagonal: some column is
    in the span of those before it.

    The m x n matrix (m >= n) is given by its columns.  Reflector k is
    I - tau u u^H with u_0 = 1 and tau = (alpha + |x_0|) / alpha, alpha
    the norm of the column's part x from row k down; it maps x to
    -(x_0 / |x_0|) alpha e_1.  No entry is squared, so no step leaves
    double range before the data does.
    """
    cols = [list(col) for col in cols]
    y = list(rhs)
    m, n = len(y), len(cols)
    diag = []
    for k in range(n):
        x = cols[k]
        alpha = math.hypot(*(abs(e) for e in x[k:]))
        if not alpha:
            return None
        ax0 = abs(x[k])
        phase = x[k] / ax0 if ax0 else 1.0
        v0 = phase * (ax0 + alpha)
        u = [1.0] + [e / v0 for e in x[k + 1:]]
        tau = (alpha + ax0) / alpha
        for w in cols[k + 1:] + [y]:
            s = tau * (w[k] + sum(ui.conjugate() * wi
                                  for ui, wi in zip(u[1:], w[k + 1:])))
            for i in range(k, m):
                w[i] -= s * u[i - k]
        diag.append(-phase * alpha)
    x = [0j] * n
    for k in reversed(range(n)):
        x[k] = (y[k] - sum(cols[j][k] * x[j] for j in range(k + 1, n))) \
            / diag[k]
    return x


def triangularize(m: list, n: int) -> complex:
    """Gaussian elimination with partial pivoting, in place, on the rows m
    (lists of values) over their first n columns, applied to every column;
    returns the determinant of the leading n x n part, and stops at a zero
    pivot, returning 0.

    Every float minor, inverse and linear solve of the package (the type-A
    sample's checks and each Newton step of the Bethe solver) reads off
    this one routine; unlike a cofactor expansion it stays at rounding
    level on a unimodular matrix with large entries.
    """
    width = len(m[0]) if m else 0
    det = 1.0 + 0j
    for k in range(n):
        p, big = k, abs(m[k][k])
        for r in range(k + 1, n):
            if abs(m[r][k]) > big:
                p, big = r, abs(m[r][k])
        if not big:
            return 0j
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        row = m[k]
        det *= row[k]
        for r in range(k + 1, n):
            mr = m[r]
            f = mr[k] / row[k]
            if f:
                for c in range(k + 1, width):
                    mr[c] -= f * row[c]
    return det


def solve_linear(m: list):
    """The columns of X with a X = b from the rows m of [a | b], a square,
    eliminated in place; None when elimination meets a zero pivot."""
    n = len(m)
    triangularize(m, n)
    if not all(m[k][k] for k in range(n)):
        return None
    cols = []
    for c in range(n, len(m[0])):  # back-substitution, one column at a time
        col = [0] * n
        for k in range(n - 1, -1, -1):
            row = m[k]
            e = row[c]
            for r in range(k + 1, n):
                e = e - row[r] * col[r]
            col[k] = e / row[k]
        cols.append(col)
    return cols


class RatFun:
    """Ratio of two polynomials; denominator normalized to leading 1.

    A polynomial has the exact denominator 1, and sums and products of
    such functions skip it: they add or multiply the numerators only.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _POLY_ONE
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        elif num.is_zero():
            den = _POLY_ONE
        else:
            lc = den.coeffs[-1]
            # a leading 1 needs no division, unless the denominator is
            # float and the division has to make an exact numerator float
            if lc != 1 or (num.exact and not den.exact):
                num = Poly([c / lc for c in num.coeffs])
                den = Poly([c / lc for c in den.coeffs])
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly.zero())

    @staticmethod
    def one() -> "RatFun":
        return RatFun(Poly.one())

    def __call__(self, z):
        den = self.den(z)
        if den == 0:
            # one message for every scalar type; a numpy scalar point, as
            # the tests pass, would give inf with a warning instead
            raise ZeroDivisionError("rational function evaluated at a pole")
        return self.num(z) / den

    def is_zero(self) -> bool:
        """True when the numerator has no coefficients."""
        return not self.num.coeffs

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(_times(self.num, other.den) + _times(other.num, self.den),
                      _times(self.den, other.den))

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return RatFun(_times(self.num, other.num),
                          _times(self.den, other.den))
        return RatFun(self.num.scale(other), self.den)

    def __rmul__(self, other) -> "RatFun":
        return self * other

    def inv(self) -> "RatFun":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        return self * other.inv()

    def shift(self, q) -> "RatFun":
        return RatFun(q_shift(self.num, q), q_shift(self.den, q))

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"
