"""Backlund transformations and the full QQ-system over the Weyl group.

A single step at node i swaps Q+_i with (the monic rescaling of) Q-_i,
reflects the twist by s_i, takes the old Q+_i times a constant as the new
Q-_i, solves the Q-_j of the neighbours of i for the new system, and
leaves every other Q+_j and Q-_j untouched.  Iterating steps along reduced
words gives each Weyl group element w its solved system: the twist w(Z)
and the families Q+^{w,i} and Q-^{w,i}.  Two reduced words of the same
element must reach the same system, which is the computable face of the
consistency of the full system.
"""

from __future__ import annotations

from .cartan import TwistZ, canonical_form, enumerate_weyl, reflect_twist
from .qq import (DegenerateInstance, QQInstance, QQSolution,
                 check_q_minus_unique, check_scale, q_collisions,
                 resonance_check, solve_q_minus, xi_factors)


class BacklundStepRecord:
    """One step at ``node``: the system and solution it produced, and the
    neighbours of the node whose Q- it solved anew (Q-_node is the old
    Q+_node rescaled, and the others were kept)."""

    __slots__ = ("node", "instance", "solution", "solved")

    def __init__(self, node: int, instance: QQInstance, solution: QQSolution,
                 solved: tuple):
        self.node, self.solved = node, solved
        self.instance, self.solution = instance, solution


class FullQQSystem:
    """The solved system of each Weyl group element the walk reached.

    ``table[key]`` is the (QQInstance, QQSolution) of the element with
    canonical form ``key``: its twist w(Z), degrees, monic Q+ and Q-.  The
    identity maps to the input pair.  Refusals along the walk are recorded
    rather than raised; the whole group was covered when ``refusals`` is
    empty.
    """

    __slots__ = ("table", "refusals")

    def __init__(self):
        self.table, self.refusals = {}, []


def _step_nondegeneracy(inst: QQInstance, sol: QQSolution, i: int,
                        twist: TwistZ) -> list:
    """Preconditions for swapping at node i: the labels of those that
    fail, empty when the step may go ahead.

    The roots of Q-_i must be q-distinct from those of Lambda_k whenever
    a_ik != 0 and from those of Q+_j for adjacent j != i, and ``twist``,
    the twist reflected by s_i, must remain non-resonant so the new Q-
    solves stay unique.  Both judgements use the instance's ``window``.
    """
    qm, a = sol.qminus[i - 1], inst.cartan.a
    pairs = ([(f"Q-_{i} vs Lambda_{k}", qm, inst.lambdas[k - 1])
              for k in range(1, inst.rank + 1) if a(i, k)]
             + [(f"Q-_{i} vs Q+_{j}", qm, sol.qplus[j - 1])
                for j in range(1, inst.rank + 1) if j != i and a(j, i)])
    failed = q_collisions(inst, pairs)
    if resonance_check(inst.with_twist(twist)):
        failed.append("reflected twist resonant")
    return failed


def _swapped_q_minus(inst: QQInstance, sol: QQSolution,
                     work_inst: QQInstance, i: int):
    """The new Q-_i of the step at node i from (inst, sol) to work_inst.

    The i-th equation is antisymmetric in (Q+_i, Q-_i) up to its twist
    factors, so the new Q-_i is the old Q+_i times -l xi_i / xi~'_i: l is
    the leading coefficient of the old Q-_i, xi_i is taken before the
    step and xi~'_i after it (``xi_factors``).  Refuses as
    ``solve_q_minus`` does for a resonance in the window m_i + 2 of its
    degree m_i.
    """
    old = sol.qplus[i - 1]
    check_q_minus_unique(work_inst, i, old.degree)
    return old.scale(-(complex(sol.qminus[i - 1].leading())
                       * complex(xi_factors(inst, i)[1])
                       / complex(xi_factors(work_inst, i)[0])))


def backlund_step(inst: QQInstance, sol: QQSolution, i: int):
    """One Backlund transformation at node i.

    Returns (new_instance, new_solution, record); the new instance keeps
    K.  Refuses (raises DegenerateInstance) when the step's nondegeneracy
    conditions fail in the instance's ``window``, naming them.
    The new Q-_i is the old Q+_i rescaled (``_swapped_q_minus``), and
    only the Q-_j of the neighbours j of i are solved again: the step
    changes zeta_i and Q+_i alone, and the j-th equation involves them
    only when a_ij != 0, so every other Q-_j is kept as it is.  The step
    also refuses when the degrees and twist it moves to fail
    ``check_scale``.
    """
    twist = reflect_twist(inst.twist, i, inst.cartan)
    failed = _step_nondegeneracy(inst, sol, i, twist)
    if failed:
        raise DegenerateInstance(f"backlund step at node {i} refused: "
                                 + ", ".join(failed))
    qplus = list(sol.qplus)
    qplus[i - 1] = sol.qminus[i - 1].monic()
    work_inst = inst.with_twist(twist, tuple(p.degree for p in qplus))
    try:
        check_scale(work_inst)
    except ValueError as exc:
        raise DegenerateInstance(f"backlund step at node {i}: {exc}") from exc
    qminus = list(sol.qminus)
    solved = tuple(j for j in range(1, inst.rank + 1)
                   if j != i and inst.cartan.a(i, j))
    for j in range(1, inst.rank + 1):  # a refusal names the lowest node
        if j == i:
            qminus[i - 1] = _swapped_q_minus(inst, sol, work_inst, i)
        elif j in solved:
            qminus[j - 1] = solve_q_minus(work_inst, qplus, j)
    new_sol = QQSolution(tuple(qplus), tuple(qminus))
    return work_inst, new_sol, BacklundStepRecord(i, work_inst, new_sol,
                                                  solved)


def _polys(inst: QQInstance, sol: QQSolution):
    return (*inst.lambdas, *sol.qplus, *sol.qminus)


def _with_roots(polys) -> set:
    """ids of the distinct root tuples found for polys: a rescaled
    polynomial shares its original's (``Poly.monic``, ``Poly.scale``)."""
    return {id(p.roots()) for p in polys if p.roots_known}


def _walk_stats(inst, sol, records, refusals: int, rooted_before: set) -> dict:
    """Counts of a walk from (inst, sol): steps taken, Q- solved, swapped
    (one per step) and kept, root sets the walk found, and refused
    steps."""
    polys = [p for r in records for p in _polys(r.instance, r.solution)]
    return {"steps": len(records), "refusals": refusals,
            "qminus_solved": sum(len(r.solved) for r in records),
            "qminus_swapped": len(records),
            "qminus_reused": sum(inst.rank - 1 - len(r.solved)
                                 for r in records),
            "roots_computed": len(_with_roots([*_polys(inst, sol), *polys])
                                  - rooted_before)}


def apply_word(inst: QQInstance, sol: QQSolution, word: tuple,
               stats: dict | None = None):
    """Iterate backlund_step along a word, rightmost letter first.

    The result corresponds to the element the word spells; records of the
    individual steps are returned in application order.  A refusal is
    raised with the records of the steps before it as ``exc.records``.
    ``stats``, when given, receives the counts of the walk (see
    full_qq_system).
    """
    rooted = _with_roots(_polys(inst, sol))
    records = []
    cur_inst, cur_sol = inst, sol
    try:
        for letter in reversed(word):
            cur_inst, cur_sol, rec = backlund_step(cur_inst, cur_sol, letter)
            records.append(rec)
    except DegenerateInstance as exc:
        exc.records = records
        if stats is not None:
            stats.update(_walk_stats(inst, sol, records, 1, rooted))
        raise
    if stats is not None:
        stats.update(_walk_stats(inst, sol, records, 0, rooted))
    return cur_inst, cur_sol, records


def full_qq_system(inst: QQInstance, sol: QQSolution,
                   stats: dict | None = None) -> FullQQSystem:
    """Breadth-first exploration of the Weyl group by Backlund steps.

    Each element's system is one step from that of its parent, the
    element its word without the leftmost letter spells, read from the
    table.  A refusal on an edge is recorded and the affected element is
    skipped, leaving a partial table and a nonempty ``refusals`` instead
    of raising.  ``stats``, when given, receives the counts of the walk:
    steps taken, refusals, Q- solved anew, swapped and kept
    (qminus_solved, qminus_swapped, qminus_reused), and roots_computed,
    the root sets the walk had to find.
    """
    cartan = inst.cartan
    out = FullQQSystem()
    out.table[canonical_form((), cartan)] = (inst, sol)
    rooted = _with_roots(_polys(inst, sol))
    records = []
    for word in enumerate_weyl(cartan)[1:]:  # by length, after the identity
        # walk up from the element obtained by dropping the leftmost letter
        parent = out.table.get(canonical_form(word[1:], cartan))
        if parent is None:
            out.refusals.append({"word": word, "reason": "parent missing"})
            continue
        try:
            ninst, nsol, rec = backlund_step(*parent, word[0])
        except DegenerateInstance as exc:
            out.refusals.append({"word": word, "node": word[0],
                                 "reason": str(exc)})
            continue
        records.append(rec)
        out.table[canonical_form(word, cartan)] = (ninst, nsol)
    if stats is not None:
        stats.update(_walk_stats(inst, sol, records, len(out.refusals), rooted))
    return out
