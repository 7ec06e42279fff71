"""The multi-start Newton solver behind ``qq.solve_bethe``.

Only ``solve`` loads this module: ``verify``, ``wronskian`` and
``backlund`` run the QQ-system's residuals and Q- solves, not its solver.
The Q- solves and residuals are called through the ``qq`` module, so
that a wrapper installed there sees the solver's calls too.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Optional, Sequence

from . import qq
from .cartan import reflect_twist
from .polynomials import Poly, solve_linear


# A seed stops once both roots of a shared-factor pair lie within this
# multiple of the seed scale of 0: the common zero there is no solution
_COMMON_ZERO = 1e-6
_NEWTON_STEPS = 80  # the most Newton steps a seed takes


def dual_degree(inst: qq.QQInstance, degrees: Sequence[int], i: int) -> int:
    """m'_i = deg Lambda_i + sum_{j != i} (-a_ji) m_j - m_i at the degrees
    m: deg qq_rhs - deg Q+_i, the degree of the Q-_i that solve_q_minus
    finds and of the Q+_i that a Backlund step at i moves to."""
    a = inst.cartan.a
    return (inst.lambdas[i - 1].degree + degrees[i - 1]
            - sum(a(j, i) * m for j, m in enumerate(degrees, start=1)))


def short_side(inst: qq.QQInstance):
    """(word, m'): the unique least sum of degrees that Backlund steps
    m_i -> ``dual_degree`` reach, by the first of the shortest words
    (first step first, stepping at the lowest node that lowers the sum);
    ((), m) when a step on the way reaches a negative degree."""
    word, m = (), tuple(inst.degrees)
    while (i := next((i for i in range(1, inst.rank + 1)
                      if dual_degree(inst, m, i) < m[i - 1]), 0)):
        d = dual_degree(inst, m, i)
        if d < 0:
            return (), tuple(inst.degrees)
        word, m = word + (i,), m[:i - 1] + (d,) + m[i:]
    return word, m


def _roots_to_qplus(inst: qq.QQInstance, roots: Sequence) -> list[Poly]:
    return [Poly.from_roots(block) for block in qq._blocks(inst, roots)]


def _shared_factor_pairs(inst: qq.QQInstance) -> list:
    """The pairs (k, t), k < t, of roots whose difference is a factor of
    the kernel's sides at both: two roots of one block, or one root each
    of two linked blocks.  Where both roots of a pair are 0, both sides
    vanish (see ``qq._bethe_kernel``)."""
    return [(k, t) for k, _, own, links in qq._root_links(inst)
            for t in own + [t for block, _, _ in links for t in block]
            if k < t]


def _newton(sides, x: list, tally: dict, pairs: list, floor: float):
    """Newton's method on L + R = 0 from the root vector x, a list of
    complex numbers.

    Each iteration makes one ``sides`` call at x, which also returns the
    exact Jacobian J of L + R, appends -F = -(L + R) to the rows of J and
    takes the step from one elimination of [J | -F] in place
    (``solve_linear``).  Returns the iterate at which the step fell below
    small = 1e-14 (1 + max|x|), or the last one after _NEWTON_STEPS
    steps.  A singular J allows no step; x is returned as converged when
    it needs none, every |L + R|_k being at most small max_t |J_kt| (J
    taken again), as where seeds land on a family of degenerate roots
    (A2 with m = (2, 1)).  Returns None when a value or a Jacobian
    entry stops being finite, J is singular otherwise, or a step ends
    with both roots of one of the ``pairs`` within ``floor`` of 0, the
    common zero of the sides (``_shared_factor_pairs``).  Each outcome,
    and each step, is counted in ``tally``.
    """
    for it in range(1, _NEWTON_STEPS + 1):
        try:  # a power of a factor that overflows raises
            L, R, J = sides(x, True)
            F = [l + r for l, r in zip(L, R)]
            for row, f in zip(J, F):  # the rows of [J | -F]
                row.append(-f)
            # a finite sum has finite entries; each is tested only otherwise
            finite = (cmath.isfinite(sum(map(sum, J)))
                      or all(all(map(cmath.isfinite, row)) for row in J))
        except OverflowError:
            finite = False
        if not finite:
            tally["nonfinite"] += 1
            return None
        cols = solve_linear(J)
        if cols is None:
            J = sides(x, True)[2]  # the elimination overwrote J
            small = 1e-14 * (1.0 + max(map(abs, x)))
            if all(abs(f) <= small * max(map(abs, row))
                   for f, row in zip(F, J)):
                tally["converged"] += 1
                return x
            tally["singular"] += 1
            return None
        x = [a + d for a, d in zip(x, cols[0])]
        tally["newton_iterations"] += 1
        tally["max_newton_iterations"] = max(tally["max_newton_iterations"], it)
        if any(abs(x[k]) <= floor and abs(x[t]) <= floor for k, t in pairs):
            tally["degenerate"] += 1
            return None
        small = 1e-14 * (1.0 + max(map(abs, x)))
        if all(abs(d) < small for d in cols[0]):  # False on a NaN step
            tally["converged"] += 1
            return x
    tally["out_of_iterations"] += 1
    return x


def solve(inst: qq.QQInstance, seeds: int, tol: float, seed: int,
          stats: Optional[dict], residuals: Optional[list]) -> list:
    """``qq.solve_bethe``, whose docstring describes it."""
    tally = dict.fromkeys(
        ("seeds", "converged", "nonfinite", "singular", "out_of_iterations",
         "degenerate", "rejected_residual", "duplicates", "rejected_qq",
         "accepted", "newton_iterations", "max_newton_iterations"), 0)
    word, degrees = short_side(inst)
    accepted = None
    if word:
        accepted = _walked(inst, word, degrees, seeds, tol, seed, tally)
    if accepted is None:
        word, degrees = (), inst.degrees
        accepted = _multistart(inst, seeds, tol, seed, tally)
    tally.update(accepted=len(accepted), worst_bethe_residual=max(
        (abs(r[2]) for _, (br, _) in accepted for r in br), default=0.0),
        word=list(word), solved_degrees=list(degrees))
    if stats is not None:
        stats.update(tally)
    if residuals is not None:
        residuals.extend(pair for _, pair in accepted)
    return [sol for sol, _ in accepted]


def _walked(inst, word, degrees, seeds, tol, seed, tally) -> Optional[list]:
    """The direct solve at the degrees m' and the twist reflected along
    word, each solution walked back by ``backlund.apply_word`` and held to
    the gates of the direct solve on inst.  None, tally untouched, when a
    family fails on the way, since a solution of inst may lie behind it."""
    from .backlund import apply_word
    twist = inst.twist
    for letter in word:
        twist = reflect_twist(twist, letter, inst.cartan)
    short = qq.QQInstance(inst.cartan, inst.q, twist, inst.lambdas, degrees,
                          inst.tau)
    count = dict(tally)
    sols = _multistart(short, seeds, tol, seed, count)
    try:
        found = [_bethe_gate(inst, apply_word(short, sol, word)[1].qplus, tol,
                             count) for sol, _ in sols]
    except qq.DegenerateInstance:  # a refused step
        return None
    accepted = [] if None in found else _complete(inst, found, tol, count)
    if count["rejected_qq"] or len(accepted) < len(sols):
        return None
    tally.update(count)
    return accepted


def _multistart(inst, seeds, tol, seed, tally) -> list:
    """The direct solve.  Unknowns are the roots of the Q+ polynomials,
    n = sum m_i of them.  Seed s starts from spread (g + i g'), where g
    and g' are vectors of n standard normal draws each, g first, from
    ``random.Random(seed)``, and spread is 1 + max |root of Lambda|.  Each
    seed runs Newton on its own on the kernel's divided sides and their
    exact Jacobian (see ``qq._bethe_kernel`` and ``_newton``), and stops
    early at the sides' common zero: both roots of a
    ``_shared_factor_pairs`` pair within 1e-6 spread of 0.  A root vector
    that converged or ran out of iterations is kept when one kernel call
    scores every |L/R + 1| within ``tol`` and no family found before has
    the same sorted root blocks; its Q+ polynomials, built from those
    blocks, go through ``_bethe_gate``.  With sum m_i = 0 no seed runs,
    and the one family is Q+_i = 1.  ``_complete`` completes the
    families by the Q- solves.
    """
    total = sum(inst.degrees)
    rng = random.Random(seed)
    spread = 1.0 + max(abs(r) for lam in inst.lambdas for r in lam.roots())
    tally["seeds"] = seeds = max(seeds, 0) if total else 0
    kernel = qq._bethe_kernel(inst)
    pairs, floor = _shared_factor_pairs(inst), _COMMON_ZERO * spread

    def scored(x) -> bool:
        try:
            return all(abs(l / r + 1.0) <= tol for l, r in zip(*kernel(x)))
        except (OverflowError, ZeroDivisionError):
            return False

    keys, found = [], [] if total else [(_roots_to_qplus(inst, []), [])]
    for _ in range(seeds):
        re = [rng.gauss(0.0, 1.0) for _ in range(total)]
        im = [rng.gauss(0.0, 1.0) for _ in range(total)]
        x = _newton(kernel, [spread * complex(a, b) for a, b in zip(re, im)],
                    tally, pairs, floor)
        if x is None:
            continue
        if not scored(x):
            tally["rejected_residual"] += 1
            continue
        key = [tuple(sorted(block, key=lambda w: (w.real, w.imag)))
               for block in qq._blocks(inst, x)]
        if any(_same_blocks(key, k) for k in keys):
            tally["duplicates"] += 1
            continue
        family = _bethe_gate(inst, [Poly.from_roots(b) for b in key], tol,
                             tally)
        if family:
            keys.append(key)
            found.append(family)
    return _complete(inst, found, tol, tally)


def _bethe_gate(inst, qplus, tol, tally):
    """(qplus, Bethe triples) when the worst ``bethe_residual`` of the
    family is within tol, else None (rejected_residual)."""
    worst, br = math.inf, None
    try:
        br = qq.bethe_residual(inst, qplus)
        worst = max(abs(r[2]) for r in br)
    except (qq.DegenerateInstance, ValueError, ArithmeticError):
        pass
    if not worst <= tol:  # NaN included
        tally["rejected_residual"] += 1
        return None
    return qplus, br


def _complete(inst, found, tol, tally) -> list:
    """The families (qplus, Bethe triples) found, completed by their Q-
    solves; one that refuses, or whose QQ residual exceeds
    10 tol (1 + max |Lambda|), is dropped (rejected_qq).  Returns
    (solution, (Bethe triples, largest QQ residual norm)) pairs."""
    accepted = []
    for qplus, br in found:
        try:
            qminus = [qq.solve_q_minus(inst, qplus, i)
                      for i in range(1, inst.rank + 1)]
        except qq.DegenerateInstance:
            tally["rejected_qq"] += 1
            continue
        sol = qq.QQSolution(tuple(qplus), tuple(qminus))
        qqres = max(r.norm() for r in qq.qq_residual(inst, sol))
        if qqres <= 10 * tol * (1 + max(l.norm() for l in inst.lambdas)):
            accepted.append((sol, (br, qqres)))
        else:
            tally["rejected_qq"] += 1
    return accepted


def _same_blocks(a, b) -> bool:
    """Root blocks a and b agree root by root within 1e-7 (1 + |root|)."""
    for ba, bb in zip(a, b):
        if len(ba) != len(bb):
            return False
        for x, y in zip(ba, bb):
            if abs(x - y) > 1e-7 * (1 + abs(x)):
                return False
    return True
