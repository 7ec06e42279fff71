"""Minors of a square matrix and the Dodgson check on them.

``RatMatrix`` holds rational functions or values (complex numbers or
ints); ``check_lewis_carroll`` is the Dodgson condensation residual on
its minors, and ``lewis_carroll_bits`` the power of 2 at which an int
polynomial matrix's residual is 0 exactly when it is 0 as a polynomial.
``qoper identities`` runs only this module: both its batteries evaluate
their drawn coefficient lists with ``horner``.

Importing this module loads no other qoper module.  Each path that
handles a rational entry (a ``RatFun``, or a ``Poly`` made one) imports
``polynomials`` where it runs; int and complex entries never reach one.
"""

from __future__ import annotations

import math
from typing import Sequence


def horner(coeffs, z):
    """The polynomial with coefficients lowest degree first, at z.

    The sum starts at 0 * z, so int coefficients give an int at an int
    point; once a nonzero top coefficient is in, this is the loop
    ``Poly.__call__`` runs, and it gives the same number."""
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class RatMatrix:
    """Square matrix of rational functions (a Poly entry is made one) or of
    values: complex numbers (such a matrix at a point) or ints (an int
    polynomial matrix at an int point), never mixed.  Immutable.

    A submatrix is a view over the entries and the table of minors of the
    matrix it was cut from: it keeps only its row and column indices into
    them, the table's key, so det() expands each minor once.
    """

    def __init__(self, entries):
        rows = tuple(map(tuple, entries))
        if not all(isinstance(e, (complex, int)) for row in rows for e in row):
            from .polynomials import Poly, RatFun
            bad = [e for r in rows for e in r if not isinstance(e, (Poly, RatFun))]
            if bad:
                raise TypeError(f"RatMatrix entry of type {type(bad[0]).__name__}"
                                ": expected all int/complex or all Poly/RatFun")
            rows = tuple(tuple(RatFun(e) if isinstance(e, Poly) else e
                               for e in row) for row in rows)
        self.entries = rows
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("RatMatrix must be square")
        self.n = n
        self._minors = {}
        self._table = self.entries
        self._rows = self._cols = tuple(range(n))

    def __getattr__(self, name):  # only a view lacks entries: read them
        if name != "entries":
            raise AttributeError(name)
        return tuple(tuple(self._table[i][j] for j in self._cols)
                     for i in self._rows)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        from .polynomials import RatFun
        return RatMatrix([[RatFun.one() if i == j else RatFun.zero()
                           for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def eval(self, z) -> tuple:
        """The values at z, rows of complex numbers; a value that is not
        finite raises NonFinite."""
        from .polynomials import ensure_finite
        return tuple(tuple(ensure_finite(e(z)) for e in row)
                     for row in self.entries)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        from .polynomials import RatFun
        cols = tuple(zip(*other.entries))
        return RatMatrix([[sum((a * b for a, b in zip(row, col)
                                if not (a.is_zero() or b.is_zero())),
                               RatFun.zero()) for col in cols]
                          for row in self.entries])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMatrix":
        """The view on rows x cols: no entry is copied or checked."""
        sub = object.__new__(RatMatrix)
        sub._table, sub._minors = self._table, self._minors
        sub._rows = tuple(map(self._rows.__getitem__, rows))
        sub._cols = tuple(map(self._cols.__getitem__, cols))
        sub.n = len(sub._rows)
        return sub

    def det(self):
        """Determinant by cofactor expansion along the first row (intended
        for small n); each minor is expanded once, into the shared table,
        and a cofactor already there is read without cutting its view.
        A RatFun for rational entries, a value of the entries' type for
        values: ints and complex numbers take the same path."""
        n, rows, cols = self.n, self._rows, self._cols
        top = self._table[rows[0]]
        if n == 1:
            return top[cols[0]]
        table = self._minors
        key = (rows, cols)
        if key in table:
            return table[key]
        values = isinstance(top[cols[0]], (complex, int))
        if values:
            acc = type(top[cols[0]])()  # 0 or 0j
        else:
            from .polynomials import RatFun
            acc = RatFun.zero()
        for j in range(n):
            a = top[cols[j]]
            if (a == 0) if values else a.is_zero():
                continue
            minor = table.get((rows[1:], cols[:j] + cols[j + 1:]))
            if minor is None:
                minor = self.submatrix(range(1, n),
                                       [c for c in range(n) if c != j]).det()
            term = a * minor
            acc = acc + (term if j % 2 == 0 else -term)
        table[key] = acc
        return acc


def check_lewis_carroll(M: RatMatrix, i: int):
    """Dodgson condensation residual M^1_1 M^2_i - M^1_i M^2_1 - M^12_1i det M.

    M^a_b removes row a and column b; M^12_1i removes rows {1,2} and
    columns {1,i}.  It vanishes for every square matrix with n >= 3 and
    2 <= i <= n, exactly for int polynomial entries (a RatFun residual)
    and for int entries (an int residual, returned as it is).  For
    complex entries the result is |ab - cd - e det M| / (1 + max of the
    three terms' moduli).
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

    terms = (minor({0}, {0}) * minor({1}, {i - 1}),
             minor({0}, {i - 1}) * minor({1}, {0}),
             minor({0, 1}, {0, i - 1}) * M.det())
    resid = terms[0] - terms[1] - terms[2]
    if isinstance(resid, complex):
        return abs(resid) / (1.0 + max(map(abs, terms)))
    return resid


def lewis_carroll_bits(n: int, h: int) -> int:
    """The k for which 2**k exceeds every coefficient of the Dodgson
    residual of an n x n matrix of int polynomials, each of L1 norm at
    most h: then that residual vanishes exactly when its value at
    z = 2**k does (Kronecker substitution).

    A minor of size m is a sum of m! products of m entries, of L1 norm at
    most m! h^m, so the residual's L1 norm, and with it each coefficient,
    is at most (2 ((n-1)!)^2 + (n-2)! n!) h^(2n-2).  Below 2**k, a
    nonzero P with lowest coefficient c_j has P(2**k) / 2**(jk) = c_j
    mod 2**k, and 0 < |c_j| < 2**k, so P(2**k) != 0.
    """
    f = math.factorial
    return ((2 * f(n - 1) ** 2 + f(n - 2) * f(n)) * h ** (2 * n - 2)).bit_length()
