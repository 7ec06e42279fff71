"""Seeded instance generator for the qoper benchmark.

Draws twist parameters zeta_i and singularity roots of Lambda_i for a fixed
list of families and writes qoper instance files (schema version 1).  The
`verify` workload needs solved instances; they are solved here by a small
numpy Newton solver on the QQ-system coefficients that shares no code with
qoper, so the files depend only on the seed and never on the program under
test: two commits of qoper verify byte-identical inputs.

No draw is rejected because of anything qoper says.  A draw is redrawn
only when this module's own solver finds no nondegenerate solution.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

# a[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering (same convention as qoper)
CARTAN = {
    ("A", 1): [[2]],
    ("A", 2): [[2, -1], [-1, 2]],
    ("A", 3): [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    ("B", 2): [[2, -2], [-1, 2]],
    ("G", 2): [[2, -3], [-1, 2]],
}

# name -> (lie_type, rank, ordering, degrees, Lambda degrees, base zetas, q)
FAMILIES = {
    "a1_deg6_m3": ("A", 1, (1,), (3,), (6,), (2.0,), 0.2),
    "a1_far_root": ("A", 1, (1,), (2,), (2,), (2.0,), 0.2),
    "a2_m21": ("A", 2, (1, 2), (2, 1), (1, 1), (2.0, 3.0), 0.2),
    "a3_m111": ("A", 3, (1, 2, 3), (1, 1, 1), (1, 1, 1), (2.0, 3.0, 5.0), 0.2),
    "a3_m121": ("A", 3, (1, 2, 3), (1, 2, 1), (1, 1, 1), (2.0, 3.0, 5.0), 0.2),
    "a3_ord321": ("A", 3, (3, 2, 1), (1, 1, 1), (1, 1, 1), (2.0, 3.0, 5.0), 0.2),
    "b2_m11": ("B", 2, (1, 2), (1, 1), (1, 1), (2.0, 3.0), 0.2),
    "g2_m11": ("G", 2, (1, 2), (1, 1), (1, 1), (2.0, 3.0), 0.2),
}

SOLVE_FAMILIES = ("a1_deg6_m3", "a1_far_root", "a2_m21", "a3_m111",
                  "a3_ord321", "b2_m11", "g2_m11")
VERIFY_FAMILIES = ("a2_m21", "a3_m111", "a3_m121", "a3_ord321", "b2_m11",
                   "g2_m11")


# -- polynomial helpers (coefficient arrays, lowest degree first) --------

def _from_roots(roots):
    p = np.array([1.0 + 0j])
    for r in roots:
        p = np.convolve(p, np.array([-r, 1.0]))
    return p


def _shift(p, q):
    return p * q ** np.arange(len(p))


def _sub(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[:len(a)] += a
    out[:len(b)] -= b
    return out


def _pow(p, e):
    out = np.array([1.0 + 0j])
    for _ in range(e):
        out = np.convolve(out, p)
    return out


# -- the QQ-system, written out from its definition ----------------------

class QQSystem:
    """Twist factors, right sides and residual of one drawn instance."""

    def __init__(self, lie_type, rank, ordering, degrees, lambdas, zetas, q):
        self.a = CARTAN[(lie_type, rank)]
        self.r = rank
        self.order = list(ordering)
        self.m = list(degrees)
        self.lambdas = lambdas
        self.zetas = zetas
        self.q = q
        self.xi = []
        self.d = []
        for i in range(rank):
            pos = self.order.index(i + 1)
            after = [j - 1 for j in self.order[pos + 1:]]
            before = [j - 1 for j in self.order[:pos]]
            xit = zetas[i] * np.prod([zetas[j] ** self.a[j][i] for j in after])
            xi = np.prod([zetas[j] ** -self.a[j][i] for j in before]) / zetas[i]
            self.xi.append((xit, xi, after, before))
            rhs_deg = len(lambdas[i]) - 1 + sum(-self.a[j][i] * self.m[j]
                                               for j in range(rank) if j != i)
            self.d.append(rhs_deg - self.m[i])

    def rhs(self, qplus, i):
        xit, xi, after, before = self.xi[i]
        out = self.lambdas[i]
        for j in after:
            out = np.convolve(out, _pow(_shift(qplus[j], self.q), -self.a[j][i]))
        for j in before:
            out = np.convolve(out, _pow(qplus[j], -self.a[j][i]))
        return out

    def residual(self, qplus, qminus):
        parts = []
        for i in range(self.r):
            xit, xi, _, _ = self.xi[i]
            lhs = _sub(xit * np.convolve(qminus[i], _shift(qplus[i], self.q)),
                       xi * np.convolve(_shift(qminus[i], self.q), qplus[i]))
            parts.append(_sub(lhs, self.rhs(qplus, i)))
        return np.concatenate(parts)

    # unknowns: the m_i lower coefficients of monic Q+_i, then the d_i + 1
    # coefficients of Q-_i; one equation per coefficient of each residual
    def unpack(self, u):
        qplus, qminus, k = [], [], 0
        for i in range(self.r):
            qplus.append(np.append(u[k:k + self.m[i]], 1.0))
            k += self.m[i]
        for i in range(self.r):
            qminus.append(u[k:k + self.d[i] + 1])
            k += self.d[i] + 1
        return qplus, qminus

    def value(self, u):
        return self.residual(*self.unpack(u))

    def qminus_given(self, qplus):
        """Least-squares Q- for fixed Q+ (the equations are linear in Q-)."""
        out = []
        for i in range(self.r):
            xit, xi, _, _ = self.xi[i]
            n = self.d[i] + 1
            cols = []
            for k in range(n):
                e = np.zeros(n, dtype=complex)
                e[k] = 1.0
                cols.append(_sub(xit * np.convolve(e, _shift(qplus[i], self.q)),
                                 xi * np.convolve(_shift(e, self.q), qplus[i])))
            M = np.array(cols).T
            rhs = self.rhs(qplus, i)
            b = np.zeros(M.shape[0], dtype=complex)
            b[:len(rhs)] = rhs
            out.append(np.linalg.lstsq(M, b, rcond=None)[0])
        return out


def _newton(system, u, max_iter=60):
    n = len(u)
    for _ in range(max_iter):
        F = system.value(u)
        h = 1e-7 * (1.0 + np.abs(u).max())
        J = np.empty((len(F), n), dtype=complex)
        for k in range(n):
            du = np.zeros(n, dtype=complex)
            du[k] = h
            J[:, k] = (system.value(u + du) - F) / h
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        u = u + step
        if np.abs(u).max() > 1e8:
            return None
        if np.abs(step).max() < 1e-15 * (1.0 + np.abs(u).max()):
            break
    return u


def _q_distinct(r1, r2, q, K=8, tol=1e-6):
    for z1 in r1:
        for z2 in r2:
            for k in range(-K, K + 1):
                if abs(z1 - q ** k * z2) <= tol * (1.0 + abs(z2)):
                    return False
    return True


def solve_system(system, rng, starts=200):
    """First nondegenerate solution reached from seeded starts, or None."""
    lam_roots = np.concatenate([np.roots(l[::-1]) for l in system.lambdas])
    spread = 1.0 + np.abs(lam_roots).max()
    for _ in range(starts):
        qplus = []
        for m in system.m:
            radius = spread * np.exp(rng.uniform(-2.0, 2.0, m))
            qplus.append(_from_roots(radius * np.exp(2j * np.pi * rng.random(m))))
        qminus = system.qminus_given(qplus)
        u0 = np.concatenate([p[:-1] for p in qplus] + qminus)
        u = _newton(system, u0)
        if u is None:
            continue
        qp, qm = system.unpack(u)
        scale = 1.0 + max(np.abs(l).max() for l in system.lambdas)
        if np.abs(system.value(u)).max() > 1e-11 * scale * (1 + np.abs(u).max()):
            continue
        if _nondegenerate(system, qp, qm):
            return qp, qm
    return None


def _nondegenerate(system, qplus, qminus):
    """This module's own test: Q- of full degree, no root at 0, the roots of
    each Q+ pairwise q-distinct, and Q+, Q- q-distinct from each other and
    from every linked Lambda."""
    roots_p = [np.roots(p[::-1]) for p in qplus]
    roots_m = [np.roots(p[::-1]) if len(p) > 1 else np.array([]) for p in qminus]
    roots_l = [np.roots(l[::-1]) for l in system.lambdas]
    if any(abs(p[-1]) < 1e-8 for p in qminus):
        return False
    if any(np.abs(r).min(initial=1.0) < 1e-6 for r in roots_p + roots_m):
        return False
    for j in range(system.r):
        rp = roots_p[j]
        if any(not _q_distinct(rp[k:k + 1], rp[k + 1:], system.q)
               for k in range(len(rp))):
            return False
        if not _q_distinct(rp, roots_m[j], system.q):
            return False
        for k in range(system.r):
            if system.a[j][k] and not (_q_distinct(rp, roots_l[k], system.q)
                                       and _q_distinct(roots_m[j], roots_l[k], system.q)):
                return False
    return True


# -- reading, drawing and writing instances -------------------------------

def parse_scalar(v) -> complex:
    """A scalar in any form the instance schema accepts."""
    if isinstance(v, str):
        return complex(float(Fraction(v)))
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def system_from_doc(doc) -> QQSystem:
    lambdas = []
    for lam in doc["lambdas"]:
        if "coeffs" in lam:
            lambdas.append(np.array([parse_scalar(c) for c in lam["coeffs"]]))
        else:
            lambdas.append(parse_scalar(lam["leading"]) * _from_roots(
                [parse_scalar(c) for c in lam["roots"]]))
    rank = doc["rank"]
    return QQSystem(doc["lie_type"], rank,
                    doc.get("ordering", range(1, rank + 1)), doc["degrees"],
                    lambdas, [parse_scalar(z) for z in doc["zetas"]],
                    parse_scalar(doc["q"]))


def qq_residual(system, qplus, qminus) -> float:
    """Largest QQ residual coefficient relative to the right sides' size."""
    qplus = [np.asarray(p, dtype=complex) for p in qplus]
    qminus = [np.asarray(p, dtype=complex) for p in qminus]
    scale = 1.0 + max(np.abs(system.rhs(qplus, i)).max() for i in range(system.r))
    return float(np.abs(system.residual(qplus, qminus)).max() / scale)


def _scalar(c):
    c = complex(c)
    return [float(c.real), float(c.imag)]


def _poly_json(p):
    return [_scalar(c) for c in p]


def draw(family, rng):
    """One draw of zeta and Lambda roots for a family, as a QQSystem."""
    lie, rank, ordering, degrees, lam_degs, base_zetas, q = FAMILIES[family]
    zetas = [z * (1 + rng.uniform(-0.1, 0.1)) * np.exp(1j * rng.uniform(-0.3, 0.3))
             for z in base_zetas]
    lambdas = []
    for k, deg in enumerate(lam_degs):
        if family == "a1_far_root":
            # Lambda = (z-1)(z-2) moved by at most 0.05 per root
            roots = np.array([1.0, 2.0]) + rng.uniform(-0.05, 0.05, 2)
        elif deg == 1:
            # Lambda_k = z - k as in the shipped instances, root moved by <= 0.25
            roots = k + 1.0 + rng.uniform(-0.25, 0.25, 1) \
                + 1j * rng.uniform(-0.25, 0.25, 1)
        else:
            roots = rng.uniform(0.6, 2.5, deg) * np.exp(2j * np.pi * rng.random(deg))
        lambdas.append(_from_roots(roots))
    return QQSystem(lie, rank, ordering, degrees, lambdas, zetas, q)


def instance_doc(system, family, seed, solution=None):
    lie, rank = FAMILIES[family][0], FAMILIES[family][1]
    doc = {
        "version": 1, "lie_type": lie, "rank": rank,
        "ordering": list(system.order),
        "q": _scalar(system.q),
        "zetas": [_scalar(z) for z in system.zetas],
        "lambdas": [{"coeffs": _poly_json(l)} for l in system.lambdas],
        "degrees": list(system.m),
        "tolerances": {"tau": 1e-10, "bethe_tol": 1e-10},
        "seed": seed,
    }
    if solution is not None:
        qp, qm = solution
        doc["solution"] = {"qplus": [_poly_json(p) for p in qp],
                           "qminus": [_poly_json(p) for p in qm]}
    return doc


def generate(seed: int, outdir: str, families, solved: bool) -> list[str]:
    """Write one instance file per family; returns the paths in order."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for n, family in enumerate(families):
        rng = np.random.default_rng([seed, n])
        for _ in range(20):
            system = draw(family, rng)
            solution = solve_system(system, rng) if solved else None
            if not solved or solution is not None:
                break
        else:
            raise RuntimeError(f"no solvable draw for {family} at seed {seed}")
        doc = instance_doc(system, family, int(rng.integers(1, 2**31)), solution)
        path = os.path.join(outdir, f"{family}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths
