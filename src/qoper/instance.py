"""The instance file format and the four commands that read one: solve,
verify, backlund and wronskian.

Instance files are strict JSON (unknown keys, NaN, Infinity, non-finite
numbers and booleans in numeric fields rejected); complex scalars are
serialized as [re, im] pairs and polynomials lowest degree first.

This module is apart from ``cli``, the front door, because each call of
the program compiles every module it loads when no bytecode is cached, and
``identities`` reads no instance: it compiles ``cli`` and ``minors`` only.
``cli`` loads this module when an instance command runs, and no module
imports ``cli``: under ``python -m qoper.cli`` it is ``__main__``, and an
import would compile it a second time, with a second ``InputError``.

cartan, polynomials, qq, backlund and wronskian load inside the functions
that run them: perfbench's tracer counts calls through the bindings of
those modules and of ``cli``, never through this one's.
"""

from __future__ import annotations

import json
import math

from . import SCHEMA_VERSION, InputError, _positive

_INSTANCE_KEYS = {"version", "lie_type", "rank", "ordering", "q", "zetas",
                  "lambdas", "degrees", "tolerances", "seed", "solution"}
_TOL_KEYS = {"tau", "bethe_tol", "K"}
_LAMBDA_KEYS_C = {"coeffs"}
_LAMBDA_KEYS_R = {"roots", "leading"}
_SOLUTION_KEYS = {"qplus", "qminus"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_scalar(v, where: str) -> complex:
    pair = isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
    if not (pair or _is_number(v) or isinstance(v, str)):
        raise InputError(f"{where}: expected number, [re, im], or decimal string")
    try:
        if isinstance(v, str):
            from fractions import Fraction  # for "p/q" strings only
            c = complex(float(Fraction(v)))
        else:
            c = complex(*v) if pair else complex(v)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{where}: cannot parse scalar {v!r}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InputError(f"{where}: scalar {v!r} is not finite")
    return c


def _parse_number(v, where: str) -> float:
    """float(v); booleans and non-finite values fail."""
    try:
        if not isinstance(v, bool):
            x = float(v)
            if math.isfinite(x):
                return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{where}: expected a finite number, got {v!r}")


def _parse_int(v, where: str) -> int:
    """v itself when it is a JSON integer; a boolean, a float or a string
    is refused, not truncated."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputError(f"{where}: expected an integer, got {v!r}")


def _expect(v, kind, where: str):
    """v itself when it is a kind (list or dict), else an InputError."""
    if not isinstance(v, kind):
        what = "a list" if kind is list else "an object"
        raise InputError(f"{where}: expected {what}, got {v!r}")
    return v


def _reject_constant(name: str):
    raise InputError(f"{name} is not valid in an instance file")


def _emit_scalar(c: complex) -> list:
    return [float(c.real), float(c.imag)]


def _emit_polys(polys) -> list:
    """Each polynomial as its list of [re, im] coefficients."""
    return [[_emit_scalar(complex(c)) for c in p.coeffs] for p in polys]


def _full_qq_summary(fq) -> dict:
    """Table size, genericity, and each refused element as a JSON object:
    its word, the node of the refused step (null when the element's parent
    is missing) and the reason."""
    return {"size": len(fq.table), "generic": not fq.refusals,
            "refusals": [{"word": list(r["word"]), "node": r.get("node"),
                          "reason": r["reason"]} for r in fq.refusals]}


def _parse_poly(obj, where: str) -> Poly:
    from .polynomials import Poly
    if not isinstance(obj, dict):
        raise InputError(f"{where}: polynomial must be an object")
    keys = set(obj)
    if keys == _LAMBDA_KEYS_C:
        return Poly([_parse_scalar(c, where)
                     for c in _expect(obj["coeffs"], list, where)])
    if keys == _LAMBDA_KEYS_R:
        roots = [_parse_scalar(c, where) for c in _expect(obj["roots"], list, where)]
        lead = _parse_scalar(obj["leading"], where)
        return Poly.from_roots(roots, lead)
    raise InputError(f"{where}: expected keys {{coeffs}} or {{roots, leading}},"
                     f" got {sorted(keys)}")


def parse_instance(doc: dict):
    """Strict-schema parse of an instance file into (QQInstance, QQSolution
    or None, extras)."""
    from .cartan import TwistZ, cartan_matrix
    from .polynomials import Poly
    from .qq import QQInstance, QQSolution, check_scale
    if not isinstance(doc, dict):
        raise InputError("instance file must hold a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise InputError(f"unknown keys in instance file: {sorted(unknown)}")
    version = doc.get("version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {version!r}")
    for key in ("lie_type", "rank", "q", "zetas", "lambdas", "degrees"):
        if key not in doc:
            raise InputError(f"missing required key {key!r}")

    # the lengths bound the rank before cartan_matrix builds a rank x rank table
    rank = _parse_int(doc["rank"], "rank")
    for key in ("zetas", "lambdas", "degrees"):
        if len(_expect(doc[key], list, key)) != rank:
            raise InputError(f"{key}: rank {doc['rank']!r} needs one entry "
                             f"per node, got {len(doc[key])}")
    cartan = cartan_matrix(doc["lie_type"], rank)
    if "ordering" in doc:
        cartan = cartan.with_ordering(
            [_parse_int(x, "ordering")
             for x in _expect(doc["ordering"], list, "ordering")])
    q = _parse_scalar(doc["q"], "q")
    zetas = TwistZ(tuple(_parse_scalar(z, "zetas")
                         for z in _expect(doc["zetas"], list, "zetas")))
    lambdas = tuple(_parse_poly(l, f"lambdas[{k}]")
                    for k, l in enumerate(_expect(doc["lambdas"], list, "lambdas")))
    degrees = tuple(_parse_int(m, "degrees")
                    for m in _expect(doc["degrees"], list, "degrees"))

    tols = _expect(doc.get("tolerances", {}), dict, "tolerances")
    if set(tols) - _TOL_KEYS:
        raise InputError(f"unknown tolerance keys: {sorted(set(tols) - _TOL_KEYS)}")
    tau = _positive(_parse_number(tols.get("tau", 1e-10), "tolerances.tau"),
                    "tolerances.tau")
    if tau >= 1:  # every relative comparison would pass
        raise InputError(f"tolerances.tau: expected a number below 1, got {tau!r}")
    bethe_tol = _positive(_parse_number(tols.get("bethe_tol", 1e-10),
                                        "tolerances.bethe_tol"),
                          "tolerances.bethe_tol")
    K = (_positive(_parse_int(tols["K"], "tolerances.K"), "tolerances.K")
         if "K" in tols else None)

    inst = QQInstance(cartan, q, zetas, lambdas, degrees, tau)
    check_scale(inst, K)

    solution = None
    if "solution" in doc:
        sdoc = _expect(doc["solution"], dict, "solution")
        if set(sdoc) != _SOLUTION_KEYS:
            raise InputError(f"solution needs exactly the keys qplus and qminus,"
                             f" got {sorted(sdoc)}")

        def polys(key):
            where = f"solution.{key}"
            return tuple(
                Poly([_parse_scalar(c, where) for c in _expect(p, list, where)])
                for p in _expect(sdoc[key], list, where))
        qplus, qminus = polys("qplus"), polys("qminus")
        if not len(qplus) == len(qminus) == inst.rank:
            raise InputError("solution: need one qplus and one qminus per node")
        for i, (p, m) in enumerate(zip(qplus, degrees), start=1):
            if p.degree != m:
                raise InputError(f"solution.qplus[{i - 1}] has degree "
                                 f"{p.degree}, but degrees gives {m}")
        solution = QQSolution(qplus, qminus)

    seed = _parse_int(doc.get("seed", 0), "seed")
    if seed < 0:
        raise InputError(f"seed: expected a nonnegative integer, got {seed}")
    extras = {"bethe_tol": bethe_tol, "K": K, "seed": seed}
    return inst, solution, extras


def echo_instance(inst: QQInstance, extras: dict, solution=None) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "lie_type": inst.cartan.lie_type,
        "rank": inst.cartan.rank,
        "ordering": list(inst.cartan.ordering),
        "q": _emit_scalar(complex(inst.q)),
        "zetas": [_emit_scalar(complex(z)) for z in inst.twist.zetas],
        "lambdas": [{"coeffs": cs} for cs in _emit_polys(inst.lambdas)],
        "degrees": list(inst.degrees),
        "tolerances": {"tau": inst.tau, "bethe_tol": extras["bethe_tol"],
                       **({"K": extras["K"]} if extras["K"] else {})},
        "seed": extras["seed"],
    }
    if solution is not None:
        doc["solution"] = {"qplus": _emit_polys(solution.qplus),
                           "qminus": _emit_polys(solution.qminus)}
    return doc


# -- the commands ----------------------------------------------------------
# Each runs as run(args, rep, parse): rep is cli's Report and parse is
# cli.parse_instance, passed in since this module cannot import cli.

def _solution_entry(inst, sol, K, residuals=None):
    """(report entry, failed nondegeneracy conditions) of one solution;
    nondegeneracy is judged in the resonance window K.  ``residuals`` is
    the pair (``bethe_residual``'s triples, largest ``qq_residual`` norm)
    when the solver has computed it, and is computed here otherwise."""
    from .qq import DegenerateInstance, bethe_residual, nondegenerate, qq_residual
    if residuals is None:
        qqres = max(r.norm() for r in qq_residual(inst, sol))
        try:
            br = bethe_residual(inst, sol.qplus)
        except DegenerateInstance as exc:
            br, bres, roots = None, float("inf"), [str(exc)]
    else:
        br, qqres = residuals
    if br is not None:
        bres = max((abs(b[2]) for b in br), default=0.0)
        roots = [_emit_scalar(b[1]) for b in br]
    nd = nondegenerate(inst, sol, K)
    return {
        "qplus": _emit_polys(sol.qplus),
        "qminus": _emit_polys(sol.qminus),
        "bethe_roots": roots,
        "max_qq_residual": float(qqres),
        "max_bethe_residual": float(bres),
        "nondegenerate": not nd,
    }, nd


def _open_instance(args, rep, parse):
    """Parse the --instance file, echo it in the report: (inst, sol, extras)."""
    try:
        with open(args.instance, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read the instance file: {exc}")
    try:
        inst, sol, extras = parse(doc)
    except ValueError as exc:  # also the domain checks of the types
        raise InputError(str(exc)) from exc
    rep.doc["instance"] = echo_instance(inst, extras, sol)
    return inst, sol, extras


def run_solve(args, rep, parse):
    """--tol and --seed default to the instance's bethe_tol and seed."""
    from .qq import resonance_check, solve_bethe
    if args.tol is not None:
        _positive(args.tol, "--tol")
    _positive(args.seeds, "--seeds")
    inst, _, extras = _open_instance(args, rep, parse)
    tol = extras["bethe_tol"] if args.tol is None else args.tol
    seed = extras["seed"] if args.seed is None else args.seed
    res = resonance_check(inst, extras["K"])
    rep.check("resonance", 0.0, not res, witnesses=res)
    stats, residuals = {}, []
    sols = solve_bethe(inst, seeds=args.seeds, tol=tol, seed=seed, stats=stats,
                       residuals=residuals)
    rep.telemetry["solver"] = stats
    for sol, pair in zip(sols, residuals):
        rep.doc["solutions"].append(
            _solution_entry(inst, sol, extras["K"], pair)[0])
    if not sols:
        why = ("no seed gave a solution" if sum(inst.degrees) else
               "no seed ran (every degree is 0); Q+ = 1 was rejected")
        rep.check("solver", 0.0, True, witnesses=[f"{why}; empty solution set"])


def run_verify(args, rep, parse):
    from .backlund import full_qq_system
    inst, sol, extras = _open_instance(args, rep, parse)
    if sol is None:
        raise InputError("verify requires a solution block in the instance file")
    entry, nd = _solution_entry(inst, sol, extras["K"])
    rep.doc["solutions"].append(entry)
    qqres, bres = entry["max_qq_residual"], entry["max_bethe_residual"]
    scale = 1 + max(l.norm() for l in inst.lambdas)
    rep.check("qq-residual", qqres, qqres <= 1e-8 * scale)
    rep.check("bethe-residual", bres, bres <= 1e-8 * scale)
    rep.check("nondegenerate", 0.0, not nd, witnesses=nd)
    stats = rep.telemetry["backlund"] = {}
    rep.doc["full_qq"] = _full_qq_summary(
        full_qq_system(inst, sol, K=extras["K"], stats=stats))
    if not inst.cartan.is_type_a:
        rep.skip("wronskian-suite", "type A only")
        return
    run_wronskian_suite(inst, sol, rep)


def run_wronskian(args, rep, parse):
    inst, sol, _ = _open_instance(args, rep, parse)
    if sol is None:
        raise InputError("wronskian requires a solution block in the instance file")
    if not inst.cartan.is_type_a:
        raise InputError("wronskian requires a type A instance")
    run_wronskian_suite(inst, sol, rep)


def run_wronskian_suite(inst, sol, rep):
    """The type-A battery: det W = 1 and the Miura connection rebuilt from
    the trivializer.  The transports of R, (A, v) and W are built once, in
    one bundle, and evaluated once on one sample panel; every float check
    is Python arithmetic on those values."""
    from .qq import DegenerateInstance
    from .wronskian import (det_residual, miura_from_wronskian,
                            sample_bundle, type_a_bundle)
    try:
        b = type_a_bundle(inst, sol)
    except (DegenerateInstance, ZeroDivisionError) as exc:
        rep.check("wronskian-build", float("inf"), False, witnesses=[str(exc)])
        return
    s = sample_bundle(b)
    for witness in s.stuck:
        rep.check("sample point off the poles", float("inf"), False,
                  witnesses=[witness])
    if not s.points:
        return
    dres = det_residual(s)
    rep.check("wronskian-det", dres, dres <= 1e-8)
    try:
        gap = miura_from_wronskian(s)
    except DegenerateInstance as exc:
        rep.check("miura-reconstruction", float("inf"), False,
                  witnesses=[str(exc)])
        return
    rep.check("miura: matches the product construction", gap, gap <= 1e-8)


def run_backlund(args, rep, parse):
    from .backlund import apply_word, full_qq_system
    from .qq import DegenerateInstance, qq_residual, qq_rhs
    inst, sol, extras = _open_instance(args, rep, parse)
    if sol is None:
        raise InputError("backlund requires a solution block in the instance file")
    word = args.word
    for l in word:
        if not 1 <= l <= inst.rank:
            raise InputError(f"word letter {l} out of range 1..{inst.rank}")
    stats = rep.telemetry["backlund"] = {}
    try:
        cur_inst, cur_sol, records = apply_word(inst, sol, word, extras["K"], stats)
        refusal = None
    except DegenerateInstance as exc:
        records, refusal = exc.records, exc
    for step_no, rec in enumerate(records, start=1):
        # judged against the step's right sides, whose coefficients grow
        # along the walk: the residual is rounding relative to them
        resid = max(r.norm() for r in qq_residual(rec.instance, rec.solution))
        scale = 1 + max(qq_rhs(rec.instance, rec.solution.qplus, i).norm()
                        for i in range(1, rec.instance.rank + 1))
        rep.check("backlund-step", resid, resid <= 1e-8 * scale,
                  k_or_word=str(rec.node))
        rep.doc["solutions"].append({
            "step": step_no, "node": rec.node,
            "zetas": [_emit_scalar(complex(z)) for z in rec.instance.twist.zetas],
            "qplus": _emit_polys(rec.solution.qplus),
            "qminus": _emit_polys(rec.solution.qminus)})
    if refusal is not None:
        letter = word[len(word) - 1 - len(records)]
        rep.check("backlund-step", float("inf"), False,
                  k_or_word=str(letter), witnesses=[str(refusal)])
        return
    # involution verdict when the word is its own inverse
    if word and word == word[::-1] and len(word) % 2 == 0:
        dz = max(abs(complex(a) - complex(b))
                 for a, b in zip(cur_inst.twist.zetas, inst.twist.zetas))
        dq = 0.0
        for p1, p2 in zip(cur_sol.qplus, sol.qplus):
            dq = max(dq, max(abs(complex(a) - complex(b))
                             for a, b in zip(p1.coeffs, p2.coeffs)))
        rep.check("involution", max(dz, dq), max(dz, dq) <= 1e-9,
                  k_or_word=".".join(map(str, word)))
    if args.full_table:
        table_stats = {}
        fq = full_qq_system(inst, sol, K=extras["K"], stats=table_stats)
        for key, val in table_stats.items():
            stats[key] += val
        rep.doc["full_qq"] = _full_qq_summary(fq)
        rep.check("full-qq-generic", 0.0, not fq.refusals)
