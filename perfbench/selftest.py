"""Fast smoke test of the benchmark: each workload once, and the tracer.

    python3 perfbench/selftest.py      # from the repository root

Each workload runs with one cheap invocation instead of its full list.  The
test checks the result shapes against BENCHMARK.json, the failure
accounting, that the generated inputs are reproducible and exact, that
the tracer counts and times recursion as documented and restores qoper
afterwards, and that the benchmark refuses to run without the program.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread pins before numpy loads
import gen
import tracer

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
WORK = os.path.join(run.OUT_DIR, "selftest")


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def test_inputs():
    a = gen.generate(5, os.path.join(WORK, "a"), gen.VERIFY_FAMILIES, solved=True)
    b = gen.generate(5, os.path.join(WORK, "b"), gen.VERIFY_FAMILIES, solved=True)
    same = all(open(x, "rb").read() == open(y, "rb").read() for x, y in zip(a, b))
    check(same, "same seed gives byte-identical verify inputs")
    worst = 0.0
    for path in a:
        doc = json.load(open(path))
        sol = doc["solution"]
        worst = max(worst, gen.qq_residual(
            gen.system_from_doc(doc),
            [[complex(*c) for c in p] for p in sol["qplus"]],
            [[complex(*c) for c in p] for p in sol["qminus"]]))
    check(worst < 1e-11, f"generated solutions solve the QQ-system ({worst:.1e})")


def test_timed(workload, pick):
    files, calls, systems = run.build_workload(workload, 0, os.path.join(WORK, workload))
    calls = [pick(calls)]
    files = files[:1]
    tally, metrics, details, _ = run.timed_run(workload, 0, files, calls,
                                               systems, WORK)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    check({k: u for k, (_, u) in metrics.items()} == spec,
          f"{workload}: end-to-end metrics match BENCHMARK.json")
    check(not tally.summary()["wrong"] and all(v > 0 for v, _ in metrics.values()),
          f"{workload}: outputs correct and metrics nonzero")


def test_accounting():
    report = json.dumps({"digest": "d", "checks": [
        {"check": "qq-residual", "pass": True},
        {"check": "fundamental-relation", "i": 2, "pass": False}]})
    verdict = run.check_report("verify", "v", 1, report, "", {})
    check(verdict[:2] == (None, None),
          "exit 1 with a false check is a verdict, not an error")
    check(run.check_report("verify", "v", 0, report, "", {})[1] is not None,
          "exit 0 with a false check is wrong output")
    crash = run.check_report("verify", "v", 1, report,
                             "Traceback (most recent call last):\nZeroDivisionError", {})
    check(crash[0] is not None, "a traceback is an error")
    check(run.check_report("verify", "v", 2, "", "", {})[0] == "exit 2",
          "exit 2 is an error")
    tally = run.Tally()
    tally.add("v", *verdict)
    tally.add("v", *crash)
    s = tally.summary()
    check((s["attempted"], s["errors"], s["failed"]) == (2, 1, 2),
          "errors are the result line's failed; fail_rate also counts exit 1")


def test_tracer():
    sys.path.insert(0, run.SRC_DIR)
    import qoper.cli
    import qoper.polynomials as poly
    import qoper.wronskian as wr
    originals = (qoper.cli.main, wr.RatMatrix.det, poly.Poly.__init__,
                 wr.build_wronskian, qoper.cli.build_wronskian)
    files, calls, systems = run.build_workload("verify", 0, os.path.join(WORK, "trace"))
    tally, layer, _ = run.traced_run("verify", 0, files[:1], calls[:1],
                                     systems, WORK)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    check({k: run.layer_unit(k) for k in layer} == spec,
          "traced run reports exactly the per-layer metrics of BENCHMARK.json")
    check(not tally.summary()["wrong"], "traced digests equal the CLI digests")
    check(layer["wronskian.s_lambda_inverse.calls"] > 0
          and layer["cli.main.calls"] == 1
          and layer["polynomials.poly_new.exact"] > 0,
          "spans and counters fire in every namespace")
    now = (qoper.cli.main, wr.RatMatrix.det, poly.Poly.__init__,
           wr.build_wronskian, qoper.cli.build_wronskian)
    check(all(a is b for a, b in zip(originals, now)), "uninstall restores qoper")

    tr = tracer.Tracer()
    tr.install()
    try:
        M = wr.RatMatrix([[poly.Poly([k + 3 * j + 1]) for k in range(3)]
                          for j in range(3)])
        M.det()
    finally:
        tr.uninstall()
    snap = tr.snapshot()
    # a dense 3x3 cofactor expansion: 1 + 3 + 3*2 calls
    check(snap["wronskian.RatMatrix.det.calls"] == 10,
          "recursive det: every level counted as a call")
    check(snap["wronskian.RatMatrix.det.total_s"]
          == snap["wronskian.RatMatrix.det.self_s"] > 0,
          "recursive det: only the outermost call is timed")


def test_without_program():
    bare = os.path.join(WORK, "bare")
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.BENCH_DIR, name),
                        os.path.join(bare, "perfbench"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=120)
    check(p.returncode != 0 and not p.stdout.strip(),
          "refuses to run without the program")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    test_inputs()
    test_accounting()
    test_timed("solve", lambda calls: calls[0])
    test_timed("verify", lambda calls: calls[0])
    test_timed("identities",
               lambda calls: ("identities:exact",
                              ["identities", "--exact", "--trials", "2",
                               "--seed", "0"]))
    test_tracer()
    test_without_program()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
