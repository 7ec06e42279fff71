"""Batch front door: instance files in, machine-readable reports out.

Subcommands: solve, verify, backlund, wronskian, identities.  The first
four read an instance file, strict JSON in the format of qoper.instance,
which holds them and loads only when one runs; identities reads none.
Reports are reproducible: the digest hashes the canonical JSON without
timings and telemetry.

Exit codes: 0 all checks pass; 1 checks ran with failures; 2 input error.
No command loads argparse, or OpenSSL for the digest's sha256.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

try:  # hashlib's builtin fallback: the same sha256 without loading OpenSSL
    from _sha256 import sha256  # Python 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from . import SCHEMA_VERSION, InputError, _positive
from .minors import RatMatrix, check_lewis_carroll, horner, lewis_carroll_bits

# instance, polynomials, cartan, qq, backlund and wronskian load inside the
# functions that run them: `identities` loads only cli and minors, `solve`
# backlund only to walk back from the short side.  No command loads numpy,
# and only a string scalar loads fractions.


def __getattr__(name):
    # perfbench/selftest.py reads qoper.cli.build_wronskian to check that its
    # tracer restores the binding; wronskian loads only when it is asked for.
    if name == "build_wronskian":
        from .wronskian import build_wronskian
        return build_wronskian
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_instance(doc: dict):
    """qoper.instance.parse_instance: (QQInstance, QQSolution or None,
    extras).  The instance commands parse through this binding, which
    perfbench's tracer wraps."""
    from .instance import parse_instance
    return parse_instance(doc)


def _instance_command(name: str):
    """The runner of instance command name, qoper.instance's run_<name>,
    which loads when the command runs."""
    def run(args, rep):
        from . import instance
        getattr(instance, f"run_{name}")(args, rep, parse_instance)
    return run


# -- report assembly ----------------------------------------------------

class Report:
    def __init__(self, command: str):
        self.doc = {"version": SCHEMA_VERSION, "command": command,
                    "instance": {}, "checks": [],
                    "solutions": [], "full_qq": None}
        self.telemetry = {}
        self.t0 = time.time()

    def check(self, name, sup_residual, ok, k_or_word="", witnesses=None):
        val = float(sup_residual)
        if val != val or val in (float("inf"), float("-inf")):
            val = 1e300  # keep every numeric field finite and JSON-portable
        self.doc["checks"].append({
            "check": name, "k_or_word": str(k_or_word), "i": "",
            "sup_residual": val, "pass": bool(ok),
            "witnesses": witnesses or []})

    def skip(self, name, reason):
        self.doc["checks"].append({
            "check": name, "k_or_word": "", "i": "", "sup_residual": 0.0,
            "pass": True, "witnesses": [f"skipped: {reason}"]})

    def finish(self) -> dict:
        body = dict(self.doc)
        body["digest"] = sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
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


def run_identities(args, rep: Report):
    """Universal determinant identity battery on random matrices: the
    Dodgson residual for every column index, of int polynomial entries in
    exact mode and of complex values at two points in float mode.

    Exact mode decides each polynomial identity with one int residual: it
    evaluates the matrix at z = 2**k, k from ``lewis_carroll_bits``, so
    that the residual's value there is 0 exactly when the residual is.  A
    failing battery reports the largest |residual| and names the first
    failing (trial, i) pairs."""
    import random
    _positive(args.trials, "--trials")
    n = 4
    rng = random.Random(args.seed)
    telemetry = {"seed": args.seed, "trials": args.trials, "exact": args.exact,
                 "residuals": args.trials * (n - 1)}
    if args.exact:
        terms, bound = 3, 5  # coefficients per entry, each in [-bound, bound]
        k = telemetry["kronecker_bits"] = lewis_carroll_bits(n, terms * bound)
        worst, failed = 0, []
        for trial in range(args.trials):
            M = RatMatrix([[horner([rng.randint(-bound, bound)
                                    for _ in range(terms)], 1 << k)
                            for _ in range(n)] for _ in range(n)])
            for i in range(2, n + 1):
                resid = abs(check_lewis_carroll(M, i))
                if resid:
                    worst = max(worst, resid)
                    failed.append(f"trial {trial}, i {i}")
        rep.check("lewis-carroll (exact)", float(worst), not failed,
                  witnesses=failed[:5])
    else:
        worst_lc = 0.0
        for trial in range(args.trials):
            coeffs = [[[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                        for _ in range(3)] for _ in range(n)]
                      for _ in range(n)]
            values = [RatMatrix([[horner(cs, z) for cs in row] for row in coeffs])
                      for z in (0.37 + 0.21j, -1.3 + 0.7j)]
            for i in range(2, n + 1):
                worst_lc = max(worst_lc, *(check_lewis_carroll(Mz, i)
                                           for Mz in values))
        rep.check("lewis-carroll", worst_lc, worst_lc <= 1e-10)
    # every column index of every matrix; float takes the worse of two points
    rep.telemetry["identities"] = telemetry


def _seed_arg(text: str) -> int:
    if not text.removeprefix("+").isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _word_arg(text: str) -> tuple:
    """The letters of --word, each a decimal integer, comma-separated;
    an empty or blank word is the identity."""
    letters = text.split(",") if text.strip() else []
    if not all(l.strip().isdecimal() for l in letters):
        raise ValueError(f"expected comma-separated node numbers, got {text!r}")
    return tuple(int(l) for l in letters)


# Each command's runner, summary and flags, a flag as (kind, default): default
# ... marks a required flag, kind bool a switch, and other kinds parse its text.
_OUTPUT = {"--out": (str, None), "--format": (str, "json")}
_INSTANCE = {"--instance": (str, ...), **_OUTPUT}
COMMANDS = {
    "solve": (_instance_command("solve"), "find Bethe/QQ solutions", {
        **_INSTANCE, "--tol": (float, None), "--seeds": (int, 40),
        "--seed": (_seed_arg, None)}),
    "verify": (_instance_command("verify"), "verify a provided solution",
               _INSTANCE),
    "backlund": (_instance_command("backlund"),
                 "apply Backlund steps along a word", {**_INSTANCE,
        "--word": (_word_arg, ...), "--full-table": (bool, False)}),
    "wronskian": (_instance_command("wronskian"),
                  "build the Wronskian and run checks", _INSTANCE),
    "identities": (run_identities, "determinant identity battery", {
        "--seed": (_seed_arg, 0), "--exact": (bool, False), "--trials": (int, 20),
        **_OUTPUT})}


def _usage(name: str) -> str:
    """The command, its flags (the optional ones in brackets) and summary."""
    words = [f"qoper {name}"]
    for flag, (kind, default) in COMMANDS[name][2].items():
        word = flag if kind is bool else f"{flag} {flag[2:].upper()}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words) + f"\n    {COMMANDS[name][1]}"


def _fail(message: str):
    print(f"qoper: error: {message}", file=sys.stderr)  # argparse's wording
    raise SystemExit(2)


def parse_args(argv: list) -> SimpleNamespace:
    """The command, its runner and its flags' values, defaults filled in.  No
    flag may be abbreviated; -h or --help prints the help and exits 0."""
    name = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        print(_usage(name) if name in COMMANDS else
              __doc__ + "\n" + "\n".join(map(_usage, COMMANDS)))
        raise SystemExit(0)
    if name not in COMMANDS:
        _fail(f"argument command: expected one of {', '.join(COMMANDS)}")
    run, _, flags = COMMANDS[name]
    given, words = {}, iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        kind = flags.get(flag, (None,))[0]
        if kind is None or (eq and kind is bool):
            _fail(f"unrecognized arguments: {word}")
        if not (eq or kind is bool) and (text := next(words, "--")).startswith("--"):
            _fail(f"argument {flag}: expected one argument")
        try:
            given[flag] = True if kind is bool else kind(text)
        except ValueError as exc:
            _fail(f"argument {flag}: {exc}")
    missing = [f for f, (_, d) in flags.items() if d is ... and f not in given]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, run=run, **{
        f[2:].replace("-", "_"): given.get(f, d) for f, (_, d) in flags.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.format not in ("json", "csv"):
            raise InputError(f"--format: expected json or csv, got {args.format!r}")
        if args.out:  # refused before the run, not after it
            if os.path.isdir(args.out):
                raise InputError(f"cannot write --out: {args.out} is a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise InputError(f"cannot write --out: the directory of "
                                 f"{args.out} does not exist")
        rep = Report(args.command)
        args.run(args, rep)
    except (ValueError, OverflowError) as exc:
        # InputError, CartanError (group too large), or a NonFinite or
        # OverflowError: finite input, but the run left double range
        from .cartan import CartanError
        from .polynomials import NonFinite
        if isinstance(exc, (NonFinite, OverflowError)):
            print(f"input error: the instance overflows double precision: "
                  f"{exc}", file=sys.stderr)
        elif isinstance(exc, (InputError, CartanError)):
            print(f"input error: {exc}", file=sys.stderr)
        else:
            raise
        return 2

    body = rep.finish()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _emit(body, args.format, fh)
        except OSError as exc:
            print(f"input error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        _emit(body, args.format, sys.stdout)
    return 1 if any(not c["pass"] for c in rep.doc["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main())
