"""Backlund transformations and the full QQ-system over the Weyl group.

A single step at node i swaps Q+_i with (the monic rescaling of) Q-_i,
reflects the twist by s_i, recomputes Q-_i and the Q-_j of the neighbours
of i for the new system, and leaves every other Q+_j and Q-_j untouched.  Iterating steps along reduced words populates
the table {Q+^{w,i}} indexed by Weyl group elements; two reduced words of
the same element must produce the same table entry, which is the
computable face of the consistency of the full system.
"""

from __future__ import annotations

from typing import Optional

from .cartan import canonical_form, enumerate_weyl, reflect_twist
from .qq import (DegenerateInstance, QQInstance, QQSolution, check_scale,
                 q_collisions, resonance_check, solve_q_minus)


class BacklundStepRecord:
    """One step at ``node``: the system and solution it produced, and the
    nodes whose Q- it solved anew (the others were kept)."""

    __slots__ = ("node", "instance", "solution", "solved")

    def __init__(self, node: int, instance: QQInstance, solution: QQSolution,
                 solved: tuple):
        self.node, self.solved = node, solved
        self.instance, self.solution = instance, solution


class FullQQSystem:
    """Q+ polynomials indexed by Weyl group elements, plus their twists.

    ``table[key][i]`` is the monic i-th Q+ of the system twisted by the
    element with canonical form ``key``; ``words`` maps the key back to a
    reduced word.  Refusals along the exploration are recorded rather than
    raised; the whole group was covered when ``refusals`` is empty.  Every
    field but ``base`` starts empty.
    """

    __slots__ = ("base", "table", "twists", "words", "refusals")

    def __init__(self, base: QQSolution):
        self.base = base
        self.table, self.twists, self.words = {}, {}, {}
        self.refusals = []


def _step_nondegeneracy(inst: QQInstance, sol: QQSolution, i: int,
                        K: Optional[int] = None) -> list:
    """Preconditions for swapping at node i: the labels of those that
    fail, empty when the step may go ahead.

    The roots of Q-_i must be q-distinct from those of Lambda_k whenever
    a_ik != 0 and from those of Q+_j for adjacent j != i, and the reflected
    twist must remain non-resonant so the new Q- solve stays unique.
    """
    if K is None:
        K = inst.default_window()
    qm, a = sol.qminus[i - 1], inst.cartan.a
    pairs = ([(f"Q-_{i} vs Lambda_{k}", qm, inst.lambdas[k - 1])
              for k in range(1, inst.rank + 1) if a(i, k)]
             + [(f"Q-_{i} vs Q+_{j}", qm, sol.qplus[j - 1])
                for j in range(1, inst.rank + 1) if j != i and a(j, i)])
    failed = q_collisions(inst, pairs, K)
    reflected = inst.with_twist(reflect_twist(inst.twist, i, inst.cartan))
    if resonance_check(reflected, K):
        failed.append("reflected twist resonant")
    return failed


def backlund_step(inst: QQInstance, sol: QQSolution, i: int,
                  K: Optional[int] = None):
    """One Backlund transformation at node i.

    Returns (new_instance, new_solution, record).  Refuses (raises
    DegenerateInstance) when the step's nondegeneracy conditions fail,
    naming the failed conditions in the reason.
    Only Q-_i and the Q-_j of the neighbours j of i are solved again: the
    step changes zeta_i and Q+_i alone, and the j-th equation involves
    them only when a_ij != 0, so every other Q-_j is kept as it is.  The
    step also refuses when the degrees and twist it moves to fail
    ``check_scale``.
    """
    failed = _step_nondegeneracy(inst, sol, i, K)
    if failed:
        raise DegenerateInstance(f"backlund step at node {i} refused: "
                                 + ", ".join(failed))
    qplus = list(sol.qplus)
    qplus[i - 1] = sol.qminus[i - 1].monic()
    new_twist = reflect_twist(inst.twist, i, inst.cartan)
    work_inst = QQInstance(inst.cartan, inst.q, new_twist, inst.lambdas,
                           tuple(p.degree for p in qplus), inst.tau)
    try:
        check_scale(work_inst, K)
    except ValueError as exc:
        raise DegenerateInstance(f"backlund step at node {i}: {exc}") from exc
    qminus = list(sol.qminus)
    solved = tuple(j for j in range(1, inst.rank + 1)
                   if j == i or inst.cartan.a(i, j))
    for j in solved:
        qminus[j - 1] = solve_q_minus(work_inst, qplus, j)
    new_sol = QQSolution(tuple(qplus), tuple(qminus))
    return work_inst, new_sol, BacklundStepRecord(i, work_inst, new_sol,
                                                  solved)


def _polys(inst: QQInstance, sol: QQSolution):
    return (*inst.lambdas, *sol.qplus, *sol.qminus)


def _with_roots(polys) -> set:
    """ids of the distinct polynomials whose roots have been found."""
    return {id(p) for p in polys if p.roots_known}


def _walk_stats(inst, sol, records, refusals: int, rooted_before: set) -> dict:
    """Counts of a walk from (inst, sol): steps taken, Q- solved and kept,
    polynomials whose roots the walk found, and refused steps."""
    polys = [p for r in records for p in _polys(r.instance, r.solution)]
    return {"steps": len(records), "refusals": refusals,
            "qminus_solved": sum(len(r.solved) for r in records),
            "qminus_reused": sum(inst.rank - len(r.solved) for r in records),
            "roots_computed": len(_with_roots([*_polys(inst, sol), *polys])
                                  - rooted_before)}


def apply_word(inst: QQInstance, sol: QQSolution, word: tuple,
               K: Optional[int] = None, stats: Optional[dict] = None):
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
            cur_inst, cur_sol, rec = backlund_step(cur_inst, cur_sol, letter, K)
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
                   K: Optional[int] = None,
                   stats: Optional[dict] = None) -> FullQQSystem:
    """Breadth-first exploration of the Weyl group by Backlund steps.

    Every element gets its (monic) Q+ family and twist; a refusal on an
    edge is recorded and the affected element is skipped, leaving a partial
    table and a nonempty ``refusals`` instead of raising.  ``stats``, when
    given, receives the counts of the walk: steps taken, refusals, Q-
    solved anew and kept (qminus_solved, qminus_reused), and
    roots_computed, the polynomials whose roots the walk had to find.
    """
    cartan = inst.cartan
    words = enumerate_weyl(cartan)
    out = FullQQSystem(base=sol)
    id_key = canonical_form((), cartan)
    out.table[id_key] = tuple(sol.qplus)
    out.twists[id_key] = inst.twist
    out.words[id_key] = ()
    state = {id_key: (inst, sol)}
    rooted = _with_roots(_polys(inst, sol))
    records = []

    for word in words[1:]:  # by length, after the identity
        key = canonical_form(word, cartan)
        # walk up from the element obtained by dropping the leftmost letter
        pkey = canonical_form(word[1:], cartan)
        if pkey not in state:
            out.refusals.append({"word": word, "reason": "parent missing"})
            continue
        pinst, psol = state[pkey]
        letter = word[0]
        try:
            ninst, nsol, rec = backlund_step(pinst, psol, letter, K)
        except DegenerateInstance as exc:
            out.refusals.append({"word": word, "node": letter,
                                 "reason": str(exc)})
            continue
        records.append(rec)
        state[key] = (ninst, nsol)
        out.table[key] = tuple(nsol.qplus)
        out.twists[key] = ninst.twist
        out.words[key] = word
    if stats is not None:
        stats.update(_walk_stats(inst, sol, records, len(out.refusals), rooted))
    return out
