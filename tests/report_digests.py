"""Report digests of a fixed set of qoper runs, one line per report.

    python tests/report_digests.py [--seeds N ...] [--against PATH]

Run from the repository root.  The set covers every command on the
shipped instances, the benchmark generator's solve and verify inputs at
each seed (``verify``, ``wronskian`` and ``backlund --full-table`` on the
verify inputs), and ``identities`` in both modes at each seed.  Two more
runs cover the flag defaults: ``solve`` on ``a2_generic`` with
``--seed 7 --tol 1e-9`` in place of the instance's seed and tolerance,
and ``identities`` on its default ``--seed``.  Three cover failing
verdicts: ``solve``, ``verify`` and ``backlund`` on ``a2_solved`` with
the twist zeta = (1, 1), resonant at every node, so the resonance and
nondegeneracy checks fail and every Backlund step is refused.  Each line
reads ``command input exit digest``, with ``-`` for the digest of a run
that wrote no report and the exception's name for the exit of a run that
raised one.

The inputs are written to a temporary directory: the generated ones by
``perfbench/gen.py``, the only benchmark module imported, and the
unit-twist copy of ``a2_solved`` by this script.  ``--against PATH`` runs the same
inputs through the qoper of the checkout at PATH as well, and lists the
lines that differ between the two; the exit code is 0 either way, so a
change that moves digests on purpose can list them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("a1_closed_form", "a2_generic", "a2_solved")

# runs the jobs read from stdin through qoper.cli.main, in one process
CHILD = r"""
import contextlib, io, json, sys
from qoper.cli import main
for label, argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a result to compare too
            rc = type(exc).__name__
    try:
        digest = json.loads(out.getvalue())["digest"]
    except (ValueError, KeyError, TypeError):
        digest = "-"
    print(label, rc, digest, flush=True)
"""


def _word(rank: int) -> str:
    """A walk that visits every node: 1, 1,2,1 or 1,2,...,r."""
    return {1: "1", 2: "1,2,1"}.get(rank, ",".join(map(str, range(1, rank + 1))))


def _instance_jobs(path: str, label: str, commands) -> list:
    """The runs of ``commands`` on one input; one without a solution is
    only solved."""
    with open(path) as fh:
        doc = json.load(fh)
    if "solution" not in doc:
        commands = [c for c in commands if c == "solve"]
    extra = {"backlund": ["--word", _word(doc["rank"]), "--full-table"]}
    return [(f"{cmd} {label}", [cmd, "--instance", path] + extra.get(cmd, []))
            for cmd in commands]


def jobs(seeds, workdir: str) -> list:
    """(label, argv) of every run; generated inputs go under ``workdir``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import gen

    out = []
    for name in SHIPPED:
        path = os.path.join(ROOT, "instances", f"{name}.json")
        out += _instance_jobs(path, f"instances/{name}",
                              ("solve", "verify", "wronskian", "backlund"))
    out += [("solve-flags instances/a2_generic",
             ["solve", "--instance", os.path.join(ROOT, "instances", "a2_generic.json"),
              "--seed", "7", "--tol", "1e-9"]),
            ("identities no-seed", ["identities"])]
    with open(os.path.join(ROOT, "instances", "a2_solved.json")) as fh:
        doc = json.load(fh)
    doc["zetas"] = [[1.0, 0.0], [1.0, 0.0]]
    path = os.path.join(workdir, "a2_unit_twist.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out += _instance_jobs(path, "unit-twist/a2_solved",
                          ("solve", "verify", "backlund"))
    for seed in seeds:
        for kind, families, commands in (
                ("solve", gen.SOLVE_FAMILIES, ("solve",)),
                ("verify", gen.VERIFY_FAMILIES,
                 ("verify", "wronskian", "backlund"))):
            tag = f"seed{seed}-{kind}"
            paths = gen.generate(seed, os.path.join(workdir, tag), families,
                                 solved=kind == "verify")
            for path in paths:
                label = f"{tag}/{os.path.basename(path)[:-5]}"
                out += _instance_jobs(path, label, commands)
        for cmd, mode in (("identities", []), ("identities-exact", ["--exact"])):
            out.append((f"{cmd} seed{seed}",
                        ["identities", "--seed", str(seed)] + mode))
    return out


def run(checkout: str, job_list: list) -> list:
    """One line ``label exit digest`` per job, from the qoper in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          input=json.dumps(job_list), capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    if len(lines) != len(job_list):
        raise RuntimeError(f"{checkout}: {len(lines)} reports for "
                           f"{len(job_list)} runs\n{proc.stderr}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--against", metavar="PATH",
                    help="another checkout to run the same set in")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        job_list = jobs(args.seeds, workdir)
        here = run(ROOT, job_list)
        for line in here:
            print(line)
        if args.against:
            there = run(os.path.abspath(args.against), job_list)
            changed = [(a, b) for a, b in zip(there, here) if a != b]
            print(f"{len(changed)} of {len(here)} reports differ from "
                  f"{args.against}")
            for a, b in changed:
                print(f"- {a}\n+ {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
