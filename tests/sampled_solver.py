"""The sampled q-difference solver, kept as the tests' reference.

qoper solves every polynomial q-difference equation in coefficient space
(``qoper.polynomials.solve_q_difference``).  The solver here reaches the
same polynomials by another route: it samples the equation at random
points and raises a trial degree until the least-squares system is
consistent.  The tests compare Q- and the Miura trivializer's numerators
against it.
"""

import numpy as np

from qoper.polynomials import TAU, Poly, off_pole


def solve_poly_q_difference(alpha, beta, rhs, q, max_degree: int,
                            tol: float = TAU, seed: int = 7):
    """Minimal-degree polynomial f with alpha(z) f(z) + beta(z) f(qz) = rhs(z).

    alpha, beta, rhs are callables evaluating scalar functions.  The
    equation is sampled at generic points and solved for the coefficients
    of f by least squares, increasing the trial degree until the system is
    consistent.  A sample point on a pole (a callable raising
    ZeroDivisionError) is nudged by off_pole; a point that stays on one
    makes the trial degree fail.  Returns None when no polynomial of
    degree <= max_degree satisfies the equation.
    """
    qc = complex(q)
    rng = np.random.default_rng(seed)
    for d in range(max_degree + 1):
        npts = d + 8
        pts = 1.1 * np.exp(2j * np.pi * rng.random(npts))
        M = np.zeros((npts, d + 1), dtype=complex)
        b = np.zeros(npts, dtype=complex)
        ok = True
        for s, x in enumerate(pts):
            try:
                x, (av, bv, rv) = off_pole(
                    lambda y: (complex(alpha(y)), complex(beta(y)),
                               complex(rhs(y))), x)
            except ZeroDivisionError:
                ok = False
                break
            for k in range(d + 1):
                M[s, k] = av * x**k + bv * (qc * x) ** k
            b[s] = rv
        if not ok:
            continue
        sol, *_ = np.linalg.lstsq(M, b, rcond=None)
        scale = 1.0 + np.abs(b).max(initial=0.0)
        if np.abs(M @ sol - b).max(initial=0.0) <= max(tol, 1e-9) * scale:
            return Poly(list(sol))
    return None


def sampled_trivializer_numerators(inst, sol, A) -> dict:
    """The numerators u_ij, i > j, of the Miura trivializer of the
    connection A, each entry equation sampled and solved in turn; None for
    an entry with no polynomial solution (and the entries after it)."""
    n, qc = inst.rank + 1, complex(inst.q)
    zs = [1, *inst.twist.zetas, 1]
    qplus = [Poly.one()] + list(sol.qplus) + [Poly.one()]
    max_deg = (max(p.degree for p in sol.qplus) + 1) * inst.rank \
        + max(l.degree for l in inst.lambdas) * inst.rank + 4
    u = {(i, i): qplus[i] for i in range(1, n + 1)}
    for i in range(2, n + 1):
        zii = complex(zs[i - 1]) / complex(zs[i])
        for j in range(i - 1, 0, -1):
            ajj = A.entries[j - 1][j - 1]
            tail = [(A.entries[k - 1][j - 1], u[(i, k)], qplus[k - 1])
                    for k in range(j + 1, i + 1)
                    if not A.entries[k - 1][j - 1].is_zero()]
            qjm1 = qplus[j - 1]

            def alpha(z, _q=qjm1):
                return -zii / complex(_q(z))

            def beta(z, _a=ajj, _q=qjm1):
                return complex(_a(z)) / complex(_q(qc * z))

            def rhs(z, _tail=tail):
                return -sum(complex(unum(qc * z)) * complex(entry(z))
                            / complex(qden(qc * z))
                            for entry, unum, qden in _tail)

            u[(i, j)] = solve_poly_q_difference(alpha, beta, rhs, qc,
                                                max_deg, tol=inst.tau)
            if u[(i, j)] is None:
                return u
    return u
