"""Batch front door: instance files in, machine-readable reports out.

Subcommands: solve, verify, backlund, wronskian, identities.  Instance
files are strict JSON (unknown keys, NaN, Infinity, non-finite numbers
and booleans in numeric fields rejected); complex scalars are serialized
as [re, im] pairs and polynomials lowest degree first.  Reports are
reproducible: the digest hashes the canonical JSON without timings and
telemetry.

Exit codes: 0 all checks pass; 1 checks ran with failures; 2 input error;
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .cartan import TwistZ, WeylWord, cartan_matrix, enumerate_weyl
from .polynomials import Poly, RatFun
from .qq import (DegenerateInstance, QQInstance, QQSolution, bethe_residual,
                 nondegenerate, qq_residual, resonance_check, solve_bethe)

# backlund and wronskian are imported inside the subcommands that run them:
# `solve` loads neither, `identities` no backlund, B2/G2 `verify` no wronskian.


def __getattr__(name):
    # perfbench/selftest.py reads qoper.cli.build_wronskian to check that its
    # tracer restores the binding; wronskian loads only when it is asked for.
    if name == "build_wronskian":
        from .wronskian import build_wronskian
        return build_wronskian
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SCHEMA_VERSION = 1

_INSTANCE_KEYS = {"version", "lie_type", "rank", "ordering", "q", "zetas",
                  "lambdas", "degrees", "tolerances", "seed", "solution"}
_TOL_KEYS = {"tau", "bethe_tol", "K"}
_LAMBDA_KEYS_C = {"coeffs"}
_LAMBDA_KEYS_R = {"roots", "leading"}
_SOLUTION_KEYS = {"qplus", "qminus"}
# |log x| below which x and 1/x are both normal floats
_LOG_NORMAL = min(math.log(sys.float_info.max), -math.log(sys.float_info.min))
# the largest power of q an instance may call for (see _check_scale)
_MAX_POWER = 1000


class InputError(ValueError):
    pass


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_scalar(v, where: str) -> complex:
    pair = isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
    if not (pair or _is_number(v) or isinstance(v, str)):
        raise InputError(f"{where}: expected number, [re, im], or decimal string")
    try:
        if isinstance(v, str):
            c = complex(float(Fraction(v)))
        else:
            c = complex(*v) if pair else complex(v)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{where}: cannot parse scalar {v!r}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InputError(f"{where}: scalar {v!r} is not finite")
    return c


def _parse_number(v, where: str, kind=float):
    """kind(v) for kind int or float; booleans and non-finite values fail."""
    try:
        if not isinstance(v, bool):
            x = kind(v)
            if math.isfinite(x):
                return x
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise InputError(f"{where}: expected {what}, got {v!r}")


def _positive(x, where: str):
    """x when it is positive and finite (not NaN), else an InputError: a
    tolerance, seed count or trial count of zero or less accepts nothing."""
    if not 0 < x < math.inf:
        raise InputError(f"{where}: expected a positive finite number, "
                         f"got {x!r}")
    return x


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


def _parse_poly(obj, where: str) -> Poly:
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
    """Strict-schema parse of an instance file into (QQInstance, extras)."""
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
    rank = _parse_number(doc["rank"], "rank", int)
    for key in ("zetas", "lambdas", "degrees"):
        if len(_expect(doc[key], list, key)) != rank:
            raise InputError(f"{key}: rank {doc['rank']!r} needs one entry "
                             f"per node, got {len(doc[key])}")
    cartan = cartan_matrix(doc["lie_type"], rank)
    if "ordering" in doc:
        cartan = cartan.with_ordering(
            [_parse_number(x, "ordering", int)
             for x in _expect(doc["ordering"], list, "ordering")])
    q = _parse_scalar(doc["q"], "q")
    zetas = TwistZ(tuple(_parse_scalar(z, "zetas")
                         for z in _expect(doc["zetas"], list, "zetas")))
    lambdas = tuple(_parse_poly(l, f"lambdas[{k}]")
                    for k, l in enumerate(_expect(doc["lambdas"], list, "lambdas")))
    degrees = tuple(_parse_number(m, "degrees", int)
                    for m in _expect(doc["degrees"], list, "degrees"))

    tols = _expect(doc.get("tolerances", {}), dict, "tolerances")
    if set(tols) - _TOL_KEYS:
        raise InputError(f"unknown tolerance keys: {sorted(set(tols) - _TOL_KEYS)}")
    tau = _positive(_parse_number(tols.get("tau", 1e-10), "tolerances.tau"),
                    "tolerances.tau")
    bethe_tol = _positive(_parse_number(tols.get("bethe_tol", 1e-10),
                                        "tolerances.bethe_tol"),
                          "tolerances.bethe_tol")
    K = (_positive(_parse_number(tols["K"], "tolerances.K", int), "tolerances.K")
         if "K" in tols else None)

    inst = QQInstance(cartan, q, zetas, lambdas, degrees, tau)
    _check_scale(inst, K)

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

    seed = _parse_number(doc.get("seed", 0), "seed", int)
    if seed < 0:
        raise InputError(f"seed: expected a nonnegative integer, got {seed}")
    extras = {"bethe_tol": bethe_tol, "K": K, "seed": seed}
    return inst, solution, extras


def _check_scale(inst: QQInstance, K):
    """Refuse an instance whose exponents or scalars leave double range.

    The run forms powers q^k and zeta^k with |k| below the resonance window
    K and below max deg Lambda + 3 sum(degrees) + 4, which bounds the degree
    of a right side (a_ji >= -3) and the window solve_q_minus checks.  That
    exponent is capped, since Newton's work grows with the cube of the
    degrees, and each power must be a normal float."""
    top = max(K or 0, max(l.degree for l in inst.lambdas)
              + 3 * sum(inst.degrees) + 4)
    if top > _MAX_POWER:
        raise InputError(f"degrees and tolerances.K call for powers up to "
                         f"q^{top}; at most q^{_MAX_POWER} is supported")
    for where, x in [("q", inst.q)] + [("zetas", z) for z in inst.twist.zetas]:
        if top * abs(math.log(abs(complex(x)))) > _LOG_NORMAL:
            raise InputError(f"{where}: {complex(x)} to the power {top} "
                             "leaves the float range")


def echo_instance(inst: QQInstance, extras: dict, solution=None) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "lie_type": inst.cartan.lie_type,
        "rank": inst.cartan.rank,
        "ordering": list(inst.cartan.ordering),
        "q": _emit_scalar(complex(inst.q)),
        "zetas": [_emit_scalar(complex(z)) for z in inst.twist.zetas],
        "lambdas": [{"coeffs": [_emit_scalar(complex(c)) for c in l.coeffs]}
                    for l in inst.lambdas],
        "degrees": list(inst.degrees),
        "tolerances": {"tau": inst.tau, "bethe_tol": extras["bethe_tol"],
                       **({"K": extras["K"]} if extras["K"] else {})},
        "seed": extras["seed"],
    }
    if solution is not None:
        doc["solution"] = {
            "qplus": [[_emit_scalar(complex(c)) for c in p.coeffs]
                      for p in solution.qplus],
            "qminus": [[_emit_scalar(complex(c)) for c in p.coeffs]
                       for p in solution.qminus],
        }
    return doc


# -- report assembly ----------------------------------------------------

class Report:
    def __init__(self, command: str, instance_echo: dict):
        self.doc = {"version": SCHEMA_VERSION, "command": command,
                    "instance": instance_echo, "checks": [],
                    "solutions": [], "full_qq": None}
        self.telemetry = {}
        self.t0 = time.time()
        self.failed = False

    def check(self, name, sup_residual, ok, k_or_word="", i="", witnesses=None):
        val = float(sup_residual)
        if val != val or val in (float("inf"), float("-inf")):
            val = 1e300  # keep every numeric field finite and JSON-portable
        self.doc["checks"].append({
            "check": name, "k_or_word": str(k_or_word), "i": str(i),
            "sup_residual": val, "pass": bool(ok),
            "witnesses": witnesses or []})
        if not ok:
            self.failed = True

    def skip(self, name, reason):
        self.doc["checks"].append({
            "check": name, "k_or_word": "", "i": "", "sup_residual": 0.0,
            "pass": True, "witnesses": [f"skipped: {reason}"]})

    def finish(self) -> dict:
        body = dict(self.doc)
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
        body["digest"] = digest
        body["timings"] = {"seconds": round(time.time() - self.t0, 6)}
        body["telemetry"] = self.telemetry
        return body


def _emit(report_doc: dict, fmt: str, out):
    if fmt == "json":
        out.write(json.dumps(report_doc, sort_keys=True, indent=1) + "\n")
    else:
        out.write("check,k_or_word,i,sup_residual,pass\n")
        for c in report_doc["checks"]:
            out.write(f"{c['check']},{c['k_or_word']},{c['i']},"
                      f"{c['sup_residual']:.3e},{int(c['pass'])}\n")


def _solution_entry(inst, sol, K):
    """(report entry, QQ residual, Bethe residual, nondegenerate report)
    of one solution; nondegeneracy is judged in the resonance window K."""
    resid = qq_residual(inst, sol)
    qqres = max(r.norm() for r in resid)
    try:
        br = bethe_residual(inst, sol.qplus)
        bres = max((abs(b[2]) for b in br), default=0.0)
        roots = [_emit_scalar(b[1]) for b in br]
    except DegenerateInstance as exc:
        bres = float("inf")
        roots = [str(exc)]
    nd = nondegenerate(inst, sol, K)
    return {
        "qplus": [[_emit_scalar(complex(c)) for c in p.coeffs] for p in sol.qplus],
        "qminus": [[_emit_scalar(complex(c)) for c in p.coeffs] for p in sol.qminus],
        "bethe_roots": roots,
        "max_qq_residual": float(qqres),
        "max_bethe_residual": float(bres),
        "nondegenerate": nd.passed,
    }, qqres, bres, nd


def run_solve(inst, extras, args, rep: Report):
    res = resonance_check(inst, extras["K"])
    rep.check("resonance", 0.0, res.passed,
              witnesses=[it["label"] for it in res.items if not it["pass"]])
    stats = {}
    sols = solve_bethe(inst, seeds=args.seeds, tol=args.tol, seed=args.seed,
                       stats=stats)
    rep.telemetry["solver"] = stats
    scale = 1 + max(l.norm() for l in inst.lambdas)
    for sol in sols:
        entry, qqres, bres, _ = _solution_entry(inst, sol, extras["K"])
        rep.doc["solutions"].append(entry)
        rep.check("qq-residual", qqres, qqres <= 10 * args.tol * scale)
        rep.check("bethe-residual", bres, bres <= args.tol * 10)
    if not sols:
        rep.check("solver", 0.0, True,
                  witnesses=["no seed converged; empty solution set"])


def run_verify(inst, sol, extras, args, rep: Report):
    from .backlund import full_qq_system
    if sol is None:
        raise InputError("verify requires a solution block in the instance file")
    entry, qqres, bres, nd = _solution_entry(inst, sol, extras["K"])
    rep.doc["solutions"].append(entry)
    scale = 1 + max(l.norm() for l in inst.lambdas)
    rep.check("qq-residual", qqres, qqres <= 1e-8 * scale)
    rep.check("bethe-residual", bres, bres <= 1e-8 * scale)
    rep.check("nondegenerate", 0.0, nd.passed,
              witnesses=[it["label"] for it in nd.items if not it["pass"]])
    stats = rep.telemetry["backlund"] = {}
    fq = full_qq_system(inst, sol, K=extras["K"], stats=stats)
    rep.doc["full_qq"] = {"size": len(fq.table), "generic": fq.generic,
                          "refusals": [str(r) for r in fq.refusals]}
    if not inst.cartan.is_type_a:
        rep.skip("wronskian-suite", "type A only")
        return
    run_wronskian_suite(inst, sol, rep)


def run_wronskian_suite(inst, sol, rep: Report):
    """The type-A battery.  R, its transports, (A, v) and W are built
    once, in one bundle, and evaluated once on one sample panel; every
    float check is array arithmetic on those values."""
    from .wronskian import (check_shifted_minor_relation,
                            check_wronskian_equations,
                            fundamental_relation_residual,
                            miura_from_wronskian, miura_plucker_blocks,
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
    if not len(s.points):
        return
    dres = float(np.abs(np.linalg.det(s.W[0]) - 1.0).max())
    rep.check("wronskian-det", dres, dres <= 1e-8)
    for it in check_wronskian_equations(s).items:
        k, i = it["label"].split()
        rep.check("wronskian-equation", it["value"], it["pass"],
                  k_or_word=k.split("=")[1], i=i.split("=")[1])
    words = enumerate_weyl(inst.cartan)
    for i in range(1, inst.rank + 1):
        for w, r in zip(words, check_shifted_minor_relation(s, i, words)):
            rep.check("shifted-minor", r, r <= 1e-8,
                      k_or_word=".".join(map(str, w.letters)) or "e", i=i)
    wid = WeylWord.identity()
    for i in range(1, inst.rank + 1):
        val = fundamental_relation_residual(s.W[0], wid, wid, i, inst.cartan)
        rep.check("fundamental-relation", val, val <= 1e-8, i=i)
    try:
        for it in miura_from_wronskian(s).items:
            rep.check(f"miura: {it['label']}", it["value"], it["pass"])
        for i in range(1, inst.rank + 1):
            pb = miura_plucker_blocks(s, i)
            rep.check("miura-plucker-block", pb.items[0]["value"],
                      pb.passed, i=i)
    except DegenerateInstance as exc:
        rep.check("miura-reconstruction", float("inf"), False,
                  witnesses=[str(exc)])


def run_backlund(inst, sol, extras, args, rep: Report):
    from .backlund import apply_word, full_qq_system
    if sol is None:
        raise InputError("backlund requires a solution block in the instance file")
    letters = [int(x) for x in args.word.split(",") if x.strip()]
    for l in letters:
        if not 1 <= l <= inst.rank:
            raise InputError(f"word letter {l} out of range 1..{inst.rank}")
    word = WeylWord(tuple(letters))
    stats = rep.telemetry["backlund"] = {}
    try:
        cur_inst, cur_sol, records = apply_word(inst, sol, word, extras["K"], stats)
        refusal = None
    except DegenerateInstance as exc:
        records, refusal = exc.records, exc
    for step_no, rec in enumerate(records, start=1):
        resid = max(r.norm() for r in qq_residual(rec.instance, rec.solution))
        rep.check("backlund-step", resid, resid <= 1e-8, k_or_word=str(rec.node))
        rep.doc["solutions"].append({
            "step": step_no, "node": rec.node,
            "zetas": [_emit_scalar(complex(z)) for z in rec.instance.twist.zetas],
            "qplus": [[_emit_scalar(complex(c)) for c in p.coeffs]
                      for p in rec.solution.qplus],
            "qminus": [[_emit_scalar(complex(c)) for c in p.coeffs]
                       for p in rec.solution.qminus]})
    if refusal is not None:
        letter = word.letters[len(word.letters) - 1 - len(records)]
        rep.check("backlund-step", float("inf"), False,
                  k_or_word=str(letter), witnesses=[str(refusal)])
        return
    # involution verdict when the word is its own inverse
    if letters and letters == letters[::-1] and len(letters) % 2 == 0:
        dz = max(abs(complex(a) - complex(b))
                 for a, b in zip(cur_inst.twist.zetas, inst.twist.zetas))
        dq = 0.0
        for p1, p2 in zip(cur_sol.qplus, sol.qplus):
            dq = max(dq, max(abs(complex(a) - complex(b))
                             for a, b in zip(p1.coeffs, p2.coeffs)))
        rep.check("involution", max(dz, dq), max(dz, dq) <= 1e-9,
                  k_or_word=args.word.replace(",", "."))
    if args.full_table:
        table_stats = {}
        fq = full_qq_system(inst, sol, K=extras["K"], stats=table_stats)
        for key, val in table_stats.items():
            stats[key] += val
        rep.doc["full_qq"] = {"size": len(fq.table), "generic": fq.generic,
                              "refusals": [str(r) for r in fq.refusals]}
        rep.check("full-qq-generic", 0.0, fq.generic)


def run_identities(args, rep: Report):
    """Universal determinant identity battery on random matrices."""
    from .wronskian import (RatMatrix, check_lewis_carroll, evaluate,
                            lewis_carroll_residual)
    rng = np.random.default_rng(args.seed)
    worst_lc = 0.0
    exact_ok = True
    for trial in range(args.trials):
        n = 4
        if args.exact:
            M = RatMatrix([[RatFun(Poly([int(rng.integers(-5, 6))
                                         for _ in range(3)]))
                            for _ in range(n)] for _ in range(n)])
            exact_ok = exact_ok and all(check_lewis_carroll(M, i).num.is_zero()
                                        for i in range(2, n + 1))
        else:
            M = RatMatrix([[RatFun(Poly(rng.standard_normal(3)
                                        + 1j * rng.standard_normal(3)))
                            for _ in range(n)] for _ in range(n)])
            Mv = evaluate(M, (0.37 + 0.21j, -1.3 + 0.7j))
            worst_lc = max(worst_lc, *(lewis_carroll_residual(Mv, i)
                                       for i in range(2, n + 1)))
    if args.exact:
        rep.check("lewis-carroll (exact)", 0.0, exact_ok)
    else:
        rep.check("lewis-carroll", worst_lc, worst_lc <= 1e-10)


def _seed_arg(text: str) -> int:
    if not text.lstrip("+").isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qoper", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("--instance", required=True)
        p.add_argument("--tol", type=float, default=None,
                       help="Bethe tolerance (default: the instance's "
                            "tolerances.bethe_tol)")
        p.add_argument("--seeds", type=int, default=40)
        p.add_argument("--seed", type=_seed_arg, default=None)
        p.add_argument("--exact", action="store_true",
                       help="exact-rational mode (identity batteries)")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("solve", help="find Bethe/QQ solutions"))
    common(sub.add_parser("verify", help="verify a provided solution"))
    pb = sub.add_parser("backlund", help="apply Backlund steps along a word")
    common(pb)
    pb.add_argument("--word", required=True)
    pb.add_argument("--full-table", action="store_true")
    common(sub.add_parser("wronskian", help="build the Wronskian and run checks"))
    pi = sub.add_parser("identities", help="determinant identity battery")
    common(pi, needs_instance=False)
    pi.add_argument("--trials", type=int, default=20)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":  # the only reader of --tol and --seeds
            if args.tol is not None:
                _positive(args.tol, "--tol")
            _positive(args.seeds, "--seeds")
        if args.command == "identities":
            _positive(args.trials, "--trials")
            if args.seed is None:
                args.seed = 0
            rep = Report("identities", {})
            run_identities(args, rep)
        else:
            with open(args.instance) as fh:
                try:
                    doc = json.load(fh, parse_constant=_reject_constant)
                except json.JSONDecodeError as exc:
                    raise InputError(f"malformed JSON: {exc}")
            try:
                inst, sol, extras = parse_instance(doc)
            except ValueError as exc:  # also the domain checks of the types
                raise InputError(str(exc)) from exc
            if args.seed is None:
                args.seed = extras["seed"]
            if args.tol is None:
                args.tol = extras["bethe_tol"]
            rep = Report(args.command, echo_instance(inst, extras, sol))
            if args.command == "solve":
                run_solve(inst, extras, args, rep)
            elif args.command == "verify":
                run_verify(inst, sol, extras, args, rep)
            elif args.command == "backlund":
                run_backlund(inst, sol, extras, args, rep)
            elif args.command == "wronskian":
                if sol is None:
                    raise InputError(
                        "wronskian requires a solution block in the instance file")
                if not inst.cartan.is_type_a:
                    raise InputError("wronskian requires a type A instance")
                run_wronskian_suite(inst, sol, rep)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3

    body = rep.finish()
    if args.out:
        with open(args.out, "w") as fh:
            _emit(body, args.format, fh)
    else:
        _emit(body, args.format, sys.stdout)
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
