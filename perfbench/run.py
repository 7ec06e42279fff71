"""qoper benchmark: closed-loop CLI workloads plus a traced per-layer replay.

    python3 perfbench/run.py --workload solve|verify|identities \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs the workload's
``python -m qoper.cli`` invocations one after another, each starting after
the previous one has exited, and repeats the whole pass until ``--seconds``
have gone by (at least two passes, so report digests can be compared).
Every child runs pinned to one CPU, and its time is rescaled by the host
speed that reference work measures next to it (see HostSpeed).  Every
report is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays the
same invocations in this process through ``qoper.cli.main``, alternating
untraced and traced replays, and reports the per-layer metrics.  Details
of every run go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads pinned to 1 here and in every child, before numpy loads
THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC_DIR = os.path.join(ROOT, "src")

WORKLOADS = ("solve", "verify", "identities")
SETUP_SAMPLES_PER_PASS = 2
MIN_PASSES = 2
MIN_TRACE_PAIRS = 3
CALL_TIMEOUT_S = 60.0
TRACE_BUDGET_S = 140.0
# nominal times of the two references; timings are rescaled to this speed
REF_LOOP_S = 0.045
REF_CHILD_S = 0.20

# imports qoper.cli and parses the given instance files, nothing else
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import qoper.cli as cli
import_s = time.perf_counter() - t0
for path in sys.argv[1:]:
    with open(path) as fh:
        cli.parse_instance(json.load(fh))
print(json.dumps({"import_s": import_s}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- workloads -------------------------------------------------------------

def build_workload(workload: str, seed: int, indir: str):
    """(instance files parsed at set-up, [(label, argv), ...], {label: system})."""
    systems = {}
    if workload == "identities":
        seed_arg = ["--seed", str(seed)]
        # sized like acceptance criterion 5: ~100 exact and 60 float residuals
        return [], [("identities:exact", ["identities", "--exact", "--trials",
                                          "34"] + seed_arg),
                    ("identities:float", ["identities", "--trials", "20"]
                     + seed_arg)], systems
    if workload == "solve":
        shipped = ["a1_closed_form", "a2_generic"]
        generated = gen.generate(seed, indir, gen.SOLVE_FAMILIES, solved=False)
    else:
        shipped = ["a2_solved"]
        generated = gen.generate(seed, indir, gen.VERIFY_FAMILIES, solved=True)
    files = [os.path.join("instances", f"{name}.json") for name in shipped]
    files += [os.path.relpath(p, ROOT) for p in generated]
    calls = []
    for path in files:
        label = f"{workload}:{os.path.basename(path)[:-5]}"
        with open(path) as fh:
            systems[label] = gen.system_from_doc(json.load(fh))
        calls.append((label, [workload, "--instance", path]))
    return files, calls, systems


# -- checking one report ---------------------------------------------------

def check_report(workload, label, rc, stdout, stderr, systems):
    """(error, wrong, report): why the call did not complete, why its output is wrong.

    An error is a call that gives no usable report: an exit code other than
    0 or 1, a traceback, or a report that does not parse.  Exit 1 with a
    report is the program's verdict that some check failed; the call itself
    completed.  Wrong output is a report whose exit code disagrees with its
    checks, or that fails a check this benchmark can confirm independently.
    """
    error = None
    if rc not in (0, 1):
        error = f"exit {rc}"
    if "Traceback (most recent call last)" in stderr:
        error = "traceback: " + stderr.strip().splitlines()[-1][:200]
    if rc not in (0, 1):
        return error, None, None
    try:
        report = json.loads(stdout)
        checks, _ = report["checks"], report["digest"]
    except (ValueError, KeyError, TypeError) as exc:
        return error or "unreadable report", f"unreadable report: {exc}", None
    if (rc == 1) != bool(failing_checks(report)):
        return error, f"exit {rc} disagrees with the checks", report
    names = {c["check"]: c["pass"] for c in checks}
    if workload == "identities":
        if not checks or failing_checks(report):
            return error, "a Lewis-Carroll identity check failed", report
    elif workload == "verify":
        # the input solution is exact by construction (gen.py checks it)
        if names.get("qq-residual") is not True:
            return error, "qq-residual rejected a true solution", report
    else:
        system = systems[label]
        for sol in report["solutions"]:
            qp = [[complex(*c) for c in p] for p in sol["qplus"]]
            qm = [[complex(*c) for c in p] for p in sol["qminus"]]
            res = gen.qq_residual(system, qp, qm)
            if not res <= 1e-7:
                return error, f"reported solution has QQ residual {res:.2e}", report
    return error, None, report


def failing_checks(report) -> list:
    return [c["check"] + (f" i={c['i']}" if c.get("i") else "")
            + (f" w={c['k_or_word']}" if c.get("k_or_word") else "")
            for c in report["checks"] if c.get("pass") is False]


# -- child processes ---------------------------------------------------------

def child_env():
    return dict(os.environ, PYTHONPATH=SRC_DIR)  # THREAD_VARS are already set


def run_child(argv, stdout_path, stderr_path):
    """Run one child to completion: (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss / 1024.0


def pin_to_one_cpu():
    """Run this process and every child on one CPU of those allowed.

    The reference loop then measures the speed of the core that runs the
    program.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_loop():
    """Fixed pure-Python work of the kinds qoper does: ints, Fractions, dicts."""
    s = 0
    for i in range(150000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 1500):
        f += Fraction(i, i + 1)
        if f.denominator > 10 ** 6:
            f = Fraction(f.numerator % 97, 7)
    d = {(i, i % 13): [i] for i in range(25000)}
    return s, f, len(d)


class HostSpeed:
    """Rescales child timings to a host of nominal speed.

    The host's speed drifts by tens of percent over seconds to minutes, and
    it moves the program and fixed reference work alike.  Two references run
    after every child: reference_loop() in this process, which tracks
    compute, and a fresh interpreter that imports numpy, which tracks
    start-up.  The speed factor of a child is the geometric mean of the two
    reference times, each over its nominal value, averaged over the
    references just before and just after it.  The child's time is divided
    by that factor.
    """

    def __init__(self, scratch):
        self.out = os.path.join(scratch, "reference.out")
        reference_loop()  # warm-up
        self._time_child()
        self.loop_s, self.child_s = [], []
        self.samples = [self._factor()]

    def _time_child(self):
        dt, rc, _ = run_child([sys.executable, "-c", "import numpy"],
                              self.out, self.out)
        if rc != 0:
            raise BenchError("the reference interpreter failed to import numpy")
        return dt

    def _factor(self):
        t0 = time.perf_counter()
        reference_loop()
        self.loop_s.append(time.perf_counter() - t0)
        self.child_s.append(self._time_child())
        return math.sqrt(self.loop_s[-1] / REF_LOOP_S * self.child_s[-1] / REF_CHILD_S)

    def rescale(self, dt):
        before = self.samples[-1]
        self.samples.append(self._factor())
        return dt / (0.5 * (before + self.samples[-1]))


def setup_sample(files, scratch):
    """One fresh interpreter that imports qoper.cli and parses the files."""
    out, err = os.path.join(scratch, "setup.out"), os.path.join(scratch, "setup.err")
    dt, rc, _ = run_child([sys.executable, "-c", SETUP_CHILD] + files, out, err)
    if rc != 0:
        with open(err) as fh:
            raise BenchError(f"set-up child failed: {fh.read()[-500:]}")
    with open(out) as fh:
        return dt, json.loads(fh.read())["import_s"]


class Tally:
    """Failure and correctness accounting over every invocation of a run.

    ``errors`` are calls that gave no usable report, or a report whose
    digest differs from an earlier run of the same call; they are the
    ``failed`` of the result line.  ``failed`` adds the calls that exited
    1 because the program judged some check false.
    """

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.failed = 0
        self.wrong = []
        self.failures = []
        self.checks = 0
        self.checks_failed = 0
        self.failing = {}
        self.digests = {}

    def add(self, label, error, wrong, report, digest_key=None):
        self.attempted += 1
        bad = []
        if report is not None:
            key = digest_key or label
            first = self.digests.setdefault(key, report["digest"])
            if first != report["digest"]:
                error = error or "digest differs from an earlier run"
                if digest_key:
                    wrong = wrong or "digest differs from the CLI's"
            self.checks += len(report["checks"])
            bad = failing_checks(report)
            self.checks_failed += len(bad)
            if bad:
                self.failing[label] = bad
        if error:
            self.errors += 1
            self.failures.append(f"{label}: {error}")
        if error or bad:
            self.failed += 1
        if wrong:
            self.wrong.append(f"{label}: {wrong}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "errors": self.errors,
                "failed": self.failed,
                "fail_rate": self.failed / max(self.attempted, 1),
                "checks": self.checks, "checks_failed": self.checks_failed,
                "check_fail_rate": self.checks_failed / max(self.checks, 1),
                "failures": sorted(set(self.failures)),
                "wrong": sorted(set(self.wrong)),
                "failing_checks": {k: summarize(v) for k, v in self.failing.items()}}


def summarize(names) -> list:
    counts = {}
    for n in names:
        base = n.split(" w=")[0]
        counts[base] = counts.get(base, 0) + 1
    return [f"{k} (x{v})" if v > 1 else k for k, v in counts.items()]


def cli_pass(workload, calls, systems, scratch, tally, speed=None):
    """One closed-loop pass: ([call seconds], [rescaled seconds], peak RSS MB, reports).

    Rescaled times are only taken when ``speed`` is given.
    """
    times, scaled, rss, reports = [], [], 0.0, {}
    for label, argv in calls:
        stem = os.path.join(scratch, label.replace(":", "-"))
        dt, rc, mb = run_child([sys.executable, "-m", "qoper.cli"] + argv,
                               stem + ".out", stem + ".err")
        if speed is not None:
            scaled.append(speed.rescale(dt))
        with open(stem + ".out") as fh:
            stdout = fh.read()
        with open(stem + ".err") as fh:
            stderr = fh.read()
        error, wrong, report = check_report(workload, label, rc, stdout,
                                            stderr, systems)
        tally.add(label, error, wrong, report)
        times.append(dt)
        rss = max(rss, mb)
        reports[label] = report
    return times, scaled, rss, reports


# -- statistics --------------------------------------------------------------

def timing(samples) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = float(np.percentile(samples, pct))
    return out


# -- the two modes -------------------------------------------------------------

def more(elapsed, done, minimum, seconds, last):
    """Start another round until the minimum is done and half a round no longer fits."""
    return done < minimum or elapsed + 0.5 * last < seconds


def timed_run(workload, seconds, files, calls, systems, scratch):
    tally = Tally()
    setup_sample(files, scratch)  # warm-up: byte-compiles src on a fresh checkout
    speed = HostSpeed(scratch)
    setup_raw, setup_times, walls, rss = [], [], [], []
    per_call = {label: [] for label, _ in calls}
    solutions = None
    t_start = time.perf_counter()
    last = 0.0
    while more(time.perf_counter() - t_start, len(walls), MIN_PASSES, seconds, last):
        t_pass = time.perf_counter()
        for _ in range(SETUP_SAMPLES_PER_PASS):
            dt = setup_sample(files, scratch)[0]
            setup_raw.append(dt)
            setup_times.append(speed.rescale(dt))
        times, scaled, mb, reports = cli_pass(workload, calls, systems, scratch,
                                              tally, speed)
        walls.append(sum(times))
        for (label, _), dt in zip(calls, scaled):
            per_call[label].append(dt)
        rss.append(mb)
        if solutions is None and workload == "solve":
            solutions = sum(len(r["solutions"]) for r in reports.values() if r)
        last = time.perf_counter() - t_pass
    summary = tally.summary()
    call_medians = {label: statistics.median(ts) for label, ts in per_call.items()}
    slowest = max(call_medians, key=call_medians.get)
    metrics = {
        "pass_s": (sum(call_medians.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    details = {
        "pass_s": timing([sum(ts) for ts in zip(*per_call.values())]),
        "setup_s": timing(setup_times),
        "call_s": timing([t for ts in per_call.values() for t in ts]),
        "call_median_s": call_medians,
        "peak_rss_mb": {"median": statistics.median(rss), "max": max(rss)},
        "wall_s": timing(walls), "raw_setup_s": timing(setup_raw),
        "speed_factor": timing(speed.samples),
        "fail_rate": summary["fail_rate"],
        "check_fail_rate": summary["check_fail_rate"],
        "passes": len(walls), "invocations_per_pass": len(calls),
        "samples": {"wall_s": walls, "setup_s": setup_times, "raw_setup_s": setup_raw,
                    "calls": per_call, "speed_factor": speed.samples,
                    "reference_loop_s": speed.loop_s,
                    "reference_child_s": speed.child_s},
    }
    extra = [("max_call_s", call_medians[slowest], "s", f"lower; {slowest}"),
             ("wall_s", statistics.median(walls), "s", "lower; not rescaled"),
             ("fail_rate", summary["fail_rate"], "ratio", "lower"),
             ("check_fail_rate", summary["check_fail_rate"], "ratio", "lower")]
    if solutions is not None:
        details["solutions_found"] = solutions
        extra.append(("solutions_found", solutions, "count", "higher"))
    return tally, metrics, details, extra


def replay(calls, workload, systems, tally, digest_key):
    """Every invocation through qoper.cli.main in this process; seconds taken."""
    import qoper.cli
    t0 = time.perf_counter()
    for label, argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qoper.cli.main(argv)
            except Exception:  # recorded as a failed call, as a traceback would be
                rc = None
                err.write(traceback.format_exc())
        error, wrong, report = check_report(workload, label, rc, out.getvalue(),
                                            err.getvalue(), systems)
        tally.add(label, error, wrong, report, digest_key=f"{label}{digest_key}")
    return time.perf_counter() - t0


def traced_run(workload, seconds, files, calls, systems, scratch):
    import tracer as tracer_mod
    tally = Tally()
    t_start = time.perf_counter()
    import_s = [setup_sample(files, scratch)[1] for _ in range(4)][1:]  # first warms up
    _, _, _, reports = cli_pass(workload, calls, systems, scratch, tally)
    cli_summary = tally.summary()
    # replays must reproduce the CLI's digests exactly
    for label, report in reports.items():
        if report:
            tally.digests[f"{label}#replay"] = report["digest"]
    sys.path.insert(0, SRC_DIR)
    replay(calls, workload, systems, tally, "#replay")  # warm-up
    tr = tracer_mod.Tracer()
    plain, traced, snaps = [], [], []
    while True:
        elapsed, last_pair = time.perf_counter() - t_start, sum(plain[-1:]) + sum(traced[-1:])
        if traced and (elapsed + last_pair > TRACE_BUDGET_S or not more(
                elapsed, len(traced), MIN_TRACE_PAIRS, seconds, last_pair)):
            break
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                tr.reset()
                tr.install()
                try:
                    traced.append(replay(calls, workload, systems, tally, "#replay"))
                finally:
                    tr.uninstall()
                snaps.append(tr.snapshot())
            else:
                plain.append(replay(calls, workload, systems, tally, "#replay"))
    layer = {k: statistics.median(s[k] for s in snaps) for k in snaps[0]}
    seeds_tried = layer["qq.seeds_tried"]
    layer["qq.solution_yield"] = layer["qq.solutions_found"] / seeds_tried if seeds_tried else 0.0
    reached, size = layer.pop("backlund.table_reached"), layer.pop("backlund.table_size")
    layer["backlund.table_fill"] = reached / size if size else 0.0
    layer["cli.import_s"] = statistics.median(import_s)
    layer["cli.fail_rate"] = cli_summary["fail_rate"]
    layer["cli.check_fail_rate"] = cli_summary["check_fail_rate"]
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    details = {"untraced_replay_s": plain, "traced_replay_s": traced,
               "cli_import_s": import_s}
    return tally, layer, details


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith("polynomials.poly_new") or \
            name in ("polynomials.ratfun_new", "qq.seeds_tried",
                     "qq.solutions_found", "backlund.refusals"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


# -- run record ----------------------------------------------------------------

def run_record() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC_DIR)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                src_lines += data.count(b"\n")
                digest.update(name.encode() + data)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "src_sha256": digest.hexdigest(),
            "src_lines": src_lines, "child_env": THREAD_VARS,
            "clients": 1, "loop": "closed"}


def git_commit():
    """HEAD of a git checkout, read from .git directly; None elsewhere."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "qoper", "cli.py")):
        print(f"error: no qoper sources under {SRC_DIR}; run from the "
              "repository root", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(OUT_DIR, tag)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    pin_to_one_cpu()
    try:
        files, calls, systems = build_workload(args.workload, args.seed,
                                               os.path.join(scratch, "inputs"))
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seconds, files, calls, systems, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "run": run_record(),
              "invocations": [argv for _, argv in calls]}
    if args.trace:
        tally, layer, details = result
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(layer.items())}
        for name, m in metrics.items():
            print(f"{args.workload:10s} {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        tally, e2e, details, extra = result
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for name, (value, unit) in e2e.items():
            t = details[name]
            pct = " ".join(f"{k}={v:.4g}" for k, v in t.items()
                           if k.startswith("p"))
            print(f"{args.workload:10s} {name:15s} {value:10.4f} {unit:5s} "
                  f"median n={t.get('n', details['passes'])} {pct}")
        for name, value, unit, note in extra:
            print(f"{args.workload:10s} {name:15s} {value:10.4f} {unit:5s} ({note})")
    summary = tally.summary()
    for label, bad in summary["failing_checks"].items():
        print(f"{args.workload:10s} failing checks on {label}: {', '.join(bad)}")
    for line in summary["failures"] + summary["wrong"]:
        print(f"{args.workload:10s} {line}")
    record.update(summary=summary, details=details, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not summary["wrong"],
                      "attempted": summary["attempted"],
                      "failed": summary["errors"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
