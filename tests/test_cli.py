import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qoper import newton, qq
from qoper import InputError
from qoper.cli import COMMANDS, main, parse_instance
from qoper.instance import echo_instance
from qoper.minors import RatMatrix
from qoper.polynomials import Poly, RatFun

ROOT = Path(__file__).resolve().parent.parent
A1 = ROOT / "instances" / "a1_closed_form.json"
A2 = ROOT / "instances" / "a2_generic.json"
A2_SOLVED = ROOT / "instances" / "a2_solved.json"


# the checks of a type-A verify report, in order; wronskian reports the last two
KEPT_CHECKS = ["qq-residual", "bethe-residual", "nondegenerate",
               "wronskian-det", "miura: matches the product construction"]


def run_cli(args, tmp_path, name="out.json", fmt="json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out), "--format", fmt])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestParsing:
    def test_round_trip_canonical(self):
        doc = json.loads(A2_SOLVED.read_text())
        inst, sol, extras = parse_instance(doc)
        echoed = echo_instance(inst, extras, sol)
        inst2, sol2, extras2 = parse_instance(echoed)
        assert echo_instance(inst2, extras2, sol2) == echoed

    def test_unknown_key_rejected(self):
        doc = json.loads(A1.read_text())
        doc["surprise"] = 1
        with pytest.raises(InputError, match="unknown keys"):
            parse_instance(doc)

    def test_missing_key_rejected(self):
        doc = json.loads(A1.read_text())
        del doc["zetas"]
        with pytest.raises(InputError, match="missing required key"):
            parse_instance(doc)

    def test_fraction_q(self):
        doc = json.loads(A1.read_text())
        inst, _, _ = parse_instance(doc)
        assert abs(complex(inst.q) - 1.0 / 3.0) < 1e-15

    def test_roots_leading_form(self):
        doc = json.loads(A1.read_text())
        doc["lambdas"] = [{"roots": [[1.0, 0.0]], "leading": [1.0, 0.0]}]
        inst, _, _ = parse_instance(doc)
        assert abs(complex(inst.lambdas[0](1.0))) < 1e-14


def run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "qoper.cli"] + args,
                          capture_output=True, text=True)


class TestBadNumbers:
    """Invalid numbers exit 2 with a message, never with a traceback."""

    def check_rejected(self, tmp_path, text):
        f = tmp_path / "bad.json"
        f.write_text(text)
        proc = run_subprocess(["solve", "--instance", str(f)])
        assert proc.returncode == 2
        assert "input error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nan_token(self, tmp_path):
        doc = json.loads(A1.read_text())
        doc["q"] = "@"
        self.check_rejected(tmp_path, json.dumps(doc).replace('"@"', "NaN"))

    def test_overflowing_zeta(self, tmp_path):
        doc = json.loads(A1.read_text())
        doc["zetas"] = ["@"]
        self.check_rejected(tmp_path, json.dumps(doc).replace('"@"', "1e999"))

    def test_boolean_degree(self, tmp_path):
        doc = json.loads(A2.read_text())
        doc["degrees"] = [True, 1]
        self.check_rejected(tmp_path, json.dumps(doc))

    def test_zero_q(self, tmp_path):
        # a domain check of the instance types is an input error too
        doc = json.loads(A1.read_text())
        doc["q"] = 0
        self.check_rejected(tmp_path, json.dumps(doc))


class TestNonListFields:
    """A scalar where a list or object belongs exits 2 with a message."""

    @pytest.mark.parametrize("path, value", [
        ("zetas", 5), ("degrees", 3), ("ordering", 1), ("lambdas", 7),
        ("solution", 3), ("lambdas.0.coeffs", 3), ("solution.qplus", 1)])
    def test_exit_2(self, tmp_path, capsys, path, value):
        doc = json.loads(A2_SOLVED.read_text())
        *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["verify", "--instance", str(f)]) == 2
        assert "input error" in capsys.readouterr().err


# the (command, flag) pairs that no run reads, so the parser refuses them
UNREAD_FLAGS = ([(c, f) for c in ("verify", "wronskian", "backlund")
                 for f in ("--tol", "--seeds", "--seed", "--exact")]
                + [("solve", "--exact"), ("identities", "--tol"),
                   ("identities", "--seeds")])


class TestFuzzFindings:
    """Inputs a fuzz of the CLI crashed on; each now exits 2 with a message."""

    def test_huge_rank_is_refused_before_the_cartan_matrix(self, tmp_path):
        # a rank x rank table of rank 1e308 would exhaust memory; the child's
        # address space is capped so that a regression fails, not the host
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        doc = json.loads(A2_SOLVED.read_text())
        doc["rank"] = 10 ** 308
        f = tmp_path / "rank.json"
        f.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qoper.cli", "solve", "--instance", str(f)],
            capture_output=True, text=True, preexec_fn=cap_memory, timeout=60)
        assert proc.returncode == 2
        assert "input error: zetas" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("key, value, message", [
        ("q", -1e-300, "q:"), ("q", 1e308, "q:"),
        ("zetas", [1e308, 1.0], "zetas:"), ("seed", -1, "seed:"),
        ("degrees", [0, 0], "solution.qplus[0]"),
        ("degrees", [10 ** 308, 1], "degrees and tolerances.K"),
        ("tolerances", {"K": 0}, "tolerances.K"),
        ("tolerances", {"tau": -1}, "tolerances.tau"),
        ("tolerances", {"tau": 0}, "tolerances.tau"),
        ("tolerances", {"bethe_tol": 0}, "tolerances.bethe_tol"),
        ("tolerances", {"bethe_tol": -1e-3}, "tolerances.bethe_tol"),
        ("tolerances", {"tau": 1}, "tolerances.tau"),
        ("tolerances", {"tau": 1e308}, "tolerances.tau"),
        ("q", 1, "q: (1+0j) is a root of unity"),
        ("q", -1, "q: (-1+0j) is a root of unity"),
        ("q", [0, 1], "q: 1j is a root of unity"),
        ("q", [-0.5, 3 ** 0.5 / 2],
         "q: (-0.5+0.8660254037844386j) is a root of unity")])
    def test_exit_2(self, tmp_path, capsys, command, key, value, message):
        doc = json.loads(A2_SOLVED.read_text())
        doc[key] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        seeds = ["--seeds", "3"] if command == "solve" else []
        assert main([command, "--instance", str(f)] + seeds) == 2
        assert f"input error: {message}" in capsys.readouterr().err

    def test_root_of_unity_past_the_window_is_accepted(self):
        # a2_solved's window is top = 1 + 3 * 2 + 4 = 11 powers of q
        import cmath
        doc = json.loads(A2_SOLVED.read_text())
        for order, refused in ((11, True), (12, False)):
            q = cmath.exp(2j * cmath.pi / order)
            doc["q"] = [q.real, q.imag]
            if refused:
                with pytest.raises(ValueError, match=r"q\^11 is within tau"):
                    parse_instance(doc)
            else:
                assert parse_instance(doc)[0].q == q

    @pytest.mark.parametrize("key, value, where", [
        ("rank", 2.7, "rank"), ("rank", "2", "rank"), ("rank", 2.0, "rank"),
        ("degrees", [1.9, 1], "degrees"), ("ordering", [1.2, 2], "ordering"),
        ("seed", 3.9, "seed"), ("tolerances", {"K": 2.5}, "tolerances.K")])
    def test_integer_field_is_not_truncated(self, tmp_path, capsys, key,
                                            value, where):
        # int(2.7) would run a rank-2 instance with exit 0
        doc = json.loads(A2_SOLVED.read_text())
        doc[key] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["verify", "--instance", str(f)]) == 2
        assert (f"input error: {where}: expected an integer, got"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, node, value", [
        ("verify", 0, [1e308, 0]), ("backlund", 0, [1e308, 0]),
        ("wronskian", 0, [1e308, 0]), ("verify", 1, [1, 1e308]),
        ("wronskian", 1, [1, 1e308])])
    def test_huge_lambda_coefficient(self, tmp_path, capsys, command, node,
                                     value):
        # finite in the file, these overflow double precision in the run;
        # of the word 2,1 the step at node 2 solves Q-_1 again, whose right
        # side holds Lambda_1 (the step at node 1 solves no such equation)
        doc = json.loads(A2_SOLVED.read_text())
        doc["lambdas"][node]["coeffs"][1] = value
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        argv = [command, "--instance", str(f)] + \
            (["--word", "2,1"] if command == "backlund" else [])
        assert main(argv) == 2
        assert "input error: the instance overflows double precision" \
            in capsys.readouterr().err

    def test_huge_lambda_at_the_step_node_is_no_solve(self, tmp_path):
        # a step at node 1 swaps Q-_1 in closed form and solves no equation
        # that holds Lambda_1: nothing overflows, and the step's residual
        # shows that the file's solution does not solve its system
        doc = json.loads(A2_SOLVED.read_text())
        doc["lambdas"][0]["coeffs"][1] = [1e308, 0]
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["backlund", "--instance", str(f), "--word", "1"],
                             tmp_path)
        assert code == 1
        step, = json.loads(text)["checks"]
        assert step["check"] == "backlund-step" and not step["pass"]

    @pytest.mark.parametrize("command, node", [("backlund", 1),
                                               ("wronskian", 0)])
    def test_huge_qplus_coefficient(self, tmp_path, capsys, command, node):
        # finite in the file, Q+ overflows double precision past the parser:
        # in the roots of a Backlund step, in the Miura connection
        doc = json.loads(A2_SOLVED.read_text())
        doc["solution"]["qplus"][node][0] = [1e308, 0]
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        argv = [command, "--instance", str(f)] + \
            (["--word", "1"] if command == "backlund" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error: the instance overflows double precision" in err
        assert "Traceback" not in err

    def test_bethe_right_side_zero_is_degenerate(self, tmp_path):
        # a root of Q+_1 on the root of Lambda_1 zeroes that Bethe right side
        doc = json.loads(A2_SOLVED.read_text())
        doc["solution"]["qplus"][0][0] = [-1, 0]
        f = tmp_path / "zero.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 1
        entry, = json.loads(text)["solutions"]
        assert "right side 0" in entry["bethe_roots"][0]

    def test_neighbour_sharing_a_root_is_degenerate(self, tmp_path, capsys):
        # Q+_2 = Q+_1 puts the root of Q+_1 on a root of its neighbour, a
        # factor of the Bethe left side; that was a ZeroDivisionError
        doc = json.loads(A2_SOLVED.read_text())
        doc["solution"]["qplus"][1] = doc["solution"]["qplus"][0]
        f = tmp_path / "shared.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads(text)
        assert "bethe-residual" in [c["check"] for c in rep["checks"]
                                    if not c["pass"]]
        entry, = rep["solutions"]
        assert "degenerate root configuration: left side 0" \
            in entry["bethe_roots"][0]

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--tol", "nan"], "--tol:"),
        (["solve", "--tol", "-1"], "--tol:"),
        (["solve", "--tol", "0"], "--tol:"),
        (["solve", "--seeds", "0"], "--seeds:"),
        (["solve", "--seeds", "-1"], "--seeds:"),
        (["identities", "--trials", "0"], "--trials:")])
    def test_flag_that_accepts_nothing(self, capsys, argv, message):
        # each of these ran to exit 0 with nothing accepted: no solution on
        # an instance with three, and a passing `solver` check
        if argv[0] == "solve":
            argv = argv + ["--instance", str(A2)]
        assert main(argv) == 2
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_flag_the_command_does_not_read(self, command, flag):
        # each of these ran to exit 0 with the flag ignored
        argv = [command] + ([] if command == "identities" else
                            ["--instance", str(A2_SOLVED)]) + \
            (["--word", "1"] if command == "backlund" else [])
        value = [] if flag == "--exact" else ["1"]
        proc = run_subprocess(argv + [flag] + value)
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_each_command_takes_only_the_flags_it_reads(self):
        flags = {name: set(spec[2]) for name, spec in COMMANDS.items()}
        common = {"--instance", "--out", "--format"}
        assert flags == {
            "solve": common | {"--tol", "--seeds", "--seed"},
            "verify": common, "wronskian": common,
            "backlund": common | {"--word", "--full-table"},
            "identities": {"--seed", "--exact", "--trials", "--out", "--format"}}

    @pytest.mark.parametrize("command", ["wronskian", "verify"])
    @pytest.mark.parametrize("q", [1e10, 1e12, 1e15, 1e20])
    def test_large_q_is_a_failed_wronskian_build(self, tmp_path, command, q):
        # a2_solved solves the system for q = 0.2 only: with a huge q the
        # trivializer's q-difference equation (3,2) has no polynomial
        # solution, and the report says so instead of raising
        doc = json.loads(A2_SOLVED.read_text())
        doc["q"] = q
        f = tmp_path / "q.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli([command, "--instance", str(f)], tmp_path)
        assert code == 1
        bad = [c for c in json.loads(text)["checks"] if not c["pass"]]
        assert bad[-1]["check"] == "wronskian-build"
        assert bad[-1]["witnesses"] == [
            "Miura trivializer entry (3,2) has no polynomial solution "
            "(resonant or degenerate twist)"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", str(A2_SOLVED)], ["identities"]])
    def test_negative_seed_flag(self, argv):
        proc = run_subprocess(argv + ["--seed", "-1"])
        assert proc.returncode == 2
        assert "--seed: expected a nonnegative integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        ([], "argument command"),
        (["frobnicate"], "argument command"),
        (["verify"], "the following arguments are required: --instance"),
        (["solve", "--instance", str(A2), "--seeds"], "argument --seeds"),
        (["solve", "--instance", str(A2), "--seeds", "x"], "argument --seeds"),
        (["solve", "--instance", str(A2), "--seeds=x"], "argument --seeds"),
        (["solve", "--instance", str(A2), "--tol", "x"], "argument --tol"),
        (["verify", "--instance", str(A2_SOLVED), "--format", "xml"], "--format"),
        (["backlund", "--instance", str(A2_SOLVED)],
         "the following arguments are required: --word"),
        # no prefix abbreviations, and a switch takes no value
        (["verify", "--inst", str(A2_SOLVED)], "unrecognized arguments: --inst"),
        (["identities", "--exact=1"], "unrecognized arguments: --exact=1")])
    def test_malformed_command_line(self, argv, message):
        proc = run_subprocess(argv)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, commands", [
        (["-h"], list(COMMANDS)), (["--help"], list(COMMANDS)),
        (["solve", "--help"], ["solve"])])
    def test_help_lists_each_flag(self, argv, commands):
        proc = run_subprocess(argv)
        assert proc.returncode == 0 and proc.stderr == ""
        for name in commands:
            line, = [l for l in proc.stdout.splitlines()
                     if l.startswith(f"qoper {name} ")]
            assert set(re.findall(r"--[\w-]+", line)) == set(COMMANDS[name][2])
        assert ("qoper verify" in proc.stdout) == (commands != ["solve"])

    def test_flag_equals_value(self, tmp_path):
        spaced = run_cli(["backlund", "--instance", str(A2_SOLVED),
                          "--word", "1,1"], tmp_path, "spaced.json")
        joined = run_cli(["backlund", f"--instance={A2_SOLVED}", "--word=1,1"],
                         tmp_path, "joined.json")
        assert spaced[0] == joined[0] == 0
        assert json.loads(spaced[1])["digest"] == json.loads(joined[1])["digest"]


# values a fuzz of the instance file draws: the inputs above, wrong types
# and empty containers, plus per field some in-range values that keep a run
# going past the parser
FUZZ_POOL = [-1e-300, 1e308, 10 ** 308, -1, 0, 1, 0.5, 1e-9, "x", "1/3",
             None, True, [], {}, [0, 0], [0], [1, 2, 3], [1e308, 1],
             [[0.2, 0.0]], {"K": 0}, {"K": 10 ** 6}, {"tau": 1e-300},
             {"qplus": [], "qminus": []}]
FUZZ_IN_RANGE = {"lie_type": ["B", "G"], "rank": [2], "ordering": [[2, 1]],
                 "q": [[0.3, 0.1], 3.0], "zetas": [[2.0, 5.0], [-2.0, 3.0]],
                 "degrees": [[1, 0], [2, 1]], "seed": [7],
                 "tolerances": [{"K": 6}, {"bethe_tol": 1e-6}],
                 "lambdas": [[{"coeffs": [1, 0, 1]}, {"roots": [3],
                                                      "leading": 2}]]}
FUZZ_FIELDS = sorted(json.loads(A2_SOLVED.read_text()))


class TestFuzz:
    """Mutated instance files end in a verdict or an input error, never in
    a traceback (exit 0, 1 or 2)."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(FUZZ_FIELDS), min_size=1, max_size=2,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries({
                        k: st.sampled_from(FUZZ_IN_RANGE.get(k, []) + FUZZ_POOL)
                        for k in keys})))
    def test_exit_code_without_traceback(self, tmp_path, mutation):
        doc = {**json.loads(A2_SOLVED.read_text()), **mutation}
        f = tmp_path / "fuzz.json"
        f.write_text(json.dumps(doc))
        for command in (["solve", "--seeds", "3"], ["verify"], ["wronskian"],
                        ["backlund", "--word", "1"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(command + ["--instance", str(f)])
            assert code in (0, 1, 2), (command, mutation)
            assert "Traceback" not in err.getvalue(), (command, mutation)


# paths into a2_solved.json: coefficients, solution entries and tolerances
NESTED_FIELDS = ([("lambdas", k, "coeffs", j) for k in (0, 1) for j in (0, 1)]
                 + [("solution", key, k, j) for key in ("qplus", "qminus")
                    for k in (0, 1) for j in (0, 1)]
                 + [("tolerances", key) for key in ("tau", "bethe_tol", "K")])
NESTED_NUMBERS = [0, 1, -1, 0.5, 3, 1e-9, 1e-300, -1e-300, 1e154, 1e308,
                  -1e308, 10 ** 308]
NESTED_VALUE = st.one_of(
    st.sampled_from(NESTED_NUMBERS),
    st.lists(st.sampled_from(NESTED_NUMBERS), min_size=2, max_size=2),
    st.sampled_from(["x", "1/3", None, True, [], {}, [1, 2, 3], [[1, 0]]]))


def mutate(doc, path, value):
    """A copy of the instance document with the field at path set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestNestedFuzz:
    """Mutated coefficients, solution entries and tolerances end in a
    verdict or an input error, never in a traceback (exit 0, 1 or 2)."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from(NESTED_FIELDS), NESTED_VALUE),
                    min_size=1, max_size=2, unique_by=lambda pv: pv[0]))
    @example([(("lambdas", 0, "coeffs", 1), [1e308, 0])])
    @example([(("solution", "qplus", 1, 0),  # Q+_2 = Q+_1
               [0.3459128490668868, -7.674392627320678e-25])])
    @example([(("lambdas", 1, "coeffs", 1), [1, 1e308])])
    @example([(("solution", "qminus", 1, 1), [-1e308, -1e308]),
              (("solution", "qminus", 1, 0), [-1e308, 1e308])])
    def test_exit_code_without_traceback(self, tmp_path, mutations):
        doc = json.loads(A2_SOLVED.read_text())
        for path, value in mutations:
            doc = mutate(doc, path, value)
        f = tmp_path / "fuzz.json"
        f.write_text(json.dumps(doc))
        for command in (["verify"], ["solve", "--seeds", "3"],
                        ["backlund", "--word", "1"], ["wronskian"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(command + ["--instance", str(f)])
            assert code in (0, 1, 2), (command, mutations)
            assert "Traceback" not in err.getvalue(), (command, mutations)


class TestInstanceTolerances:
    def test_tol_defaults_to_instance_bethe_tol(self, tmp_path, monkeypatch):
        import qoper.qq as qq
        seen = []
        monkeypatch.setattr(qq, "solve_bethe",
                            lambda inst, **kw: seen.append(kw["tol"]) or [])
        doc = json.loads(A1.read_text())
        doc["tolerances"]["bethe_tol"] = 1e-7
        f = tmp_path / "tol.json"
        f.write_text(json.dumps(doc))
        run_cli(["solve", "--instance", str(f)], tmp_path)
        run_cli(["solve", "--instance", str(f), "--tol", "1e-9"], tmp_path)
        assert seen == [1e-7, 1e-9]

    def test_k_reaches_full_qq_system(self, tmp_path, monkeypatch):
        # every step of the walk, not only its first, starts from an
        # instance that carries the file's K
        import qoper.backlund as bl
        seen = []
        real = bl.backlund_step

        def spy(inst, sol, i):
            seen.append(inst.K)
            return real(inst, sol, i)

        monkeypatch.setattr(bl, "backlund_step", spy)
        doc = json.loads(A2_SOLVED.read_text())
        doc["tolerances"]["K"] = 5
        f = tmp_path / "k.json"
        f.write_text(json.dumps(doc))
        run_cli(["verify", "--instance", str(f)], tmp_path)
        assert seen == [5] * 5  # the A2 table: |W| - 1 steps
        run_cli(["backlund", "--instance", str(f), "--word", "1",
                 "--full-table"], tmp_path)
        assert seen == [5] * (5 + 1 + 5)

    def test_k_judges_every_nondegenerate_verdict(self, tmp_path, monkeypatch):
        # zeta^2 = q^7 (q = 1/3) resonates outside the default window 3 but
        # inside K = 7: the solution entries and the check must both refuse
        import qoper.qq as qq
        from qoper.qq import nondegenerate
        doc = json.loads(A1.read_text())
        doc["zetas"] = [[3.0 ** -3.5, 0.0]]
        doc["tolerances"]["K"] = 7
        f = tmp_path / "k.json"
        f.write_text(json.dumps(doc))
        _, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        sols = json.loads(text)["solutions"]
        assert len(sols) == 1 and sols[0]["nondegenerate"] is False
        doc["solution"] = {"qplus": sols[0]["qplus"], "qminus": sols[0]["qminus"]}
        inst, sol, _ = parse_instance(doc)
        assert inst.K == 7 and "resonance" in nondegenerate(inst, sol)
        no_k = dict(doc, tolerances={"tau": inst.tau})
        assert nondegenerate(*parse_instance(no_k)[:2]) == []  # window 3
        f.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(qq, "nondegenerate",
                            lambda *a: calls.append(a) or nondegenerate(*a))
        _, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        rep = json.loads(text)
        assert rep["solutions"][0]["nondegenerate"] is False
        assert [c["pass"] for c in rep["checks"]
                if c["check"] == "nondegenerate"] == [False]
        assert len(calls) == 1 and calls[0][0].K == 7

    @pytest.mark.parametrize("K, word", [(None, [1]), (1, [1]), (3, [])],
                             ids=["no-K", "K1", "K3"])
    def test_k_judges_the_walk_back(self, tmp_path, K, word):
        # the walk from m' = 0 steps to w = 1/9 = q^2 * 1, a q-shift of
        # Lambda's root: window 3 refuses that step (Q-_1 vs Lambda_1), so
        # solve runs Newton on the instance as it is
        doc = json.loads(A1.read_text())
        if K is not None:
            doc["tolerances"]["K"] = K
        f = tmp_path / "k.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        rep = json.loads(text)
        solver = rep["telemetry"]["solver"]
        assert code == 0 and solver["word"] == word
        assert solver["seeds"] == (40 if K == 3 else 0)
        assert len(rep["solutions"]) == 1
        if K == 3:
            assert rep["solutions"][0]["nondegenerate"] is False


class TestSolve:
    def test_a1_root(self, tmp_path):
        code, text = run_cli(["solve", "--instance", str(A1)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert len(rep["solutions"]) == 1
        root = rep["solutions"][0]["bethe_roots"][0]
        assert abs(complex(root[0], root[1]) - 1.0 / 9.0) <= 1e-10

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", "--instance", str(bad)])
        assert code == 2

    def test_missing_file(self):
        assert main(["solve", "--instance", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("case", ["instance is a directory",
                                      "instance is not UTF-8",
                                      "instance nests too deeply",
                                      "out in a missing directory",
                                      "out is a directory",
                                      "solve out in a missing directory"])
    def test_unreadable_or_unwritable_file(self, tmp_path, capsys, monkeypatch,
                                           case):
        # exit 1 would mean "checks failed"; a file error is an input error,
        # and an --out that cannot be written is refused before any solve
        def solver_ran(*args, **kw):
            raise AssertionError("the solver ran")
        monkeypatch.setattr(qq, "solve_bethe", solver_ran)
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff" + A1.read_bytes())
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        exact = ["identities", "--exact", "--trials", "2", "--out"]
        argv = {"instance is a directory": ["solve", "--instance", str(tmp_path)],
                "instance is not UTF-8": ["solve", "--instance", str(not_utf8)],
                "instance nests too deeply": ["solve", "--instance", str(deep)],
                "out in a missing directory": exact + [str(tmp_path / "no" / "r.json")],
                "out is a directory": exact + [str(tmp_path)],
                "solve out in a missing directory":
                    ["solve", "--instance", str(A1),
                     "--out", str(tmp_path / "no" / "r.json")]}[case]
        assert main(argv) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "no").exists()

    def test_m_zero(self, tmp_path):
        doc = json.loads(A1.read_text())
        doc["degrees"] = [0]
        f = tmp_path / "m0.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["solutions"][0]["qplus"] == [[[1.0, 0.0]]]

    @pytest.mark.parametrize("zeta", [1.0, 0.2 ** 0.5])
    def test_m_zero_resonant(self, tmp_path, capsys, zeta):
        # zeta^2 = q^0 or q^1: the Q- solve of Q+ = 1 refuses, so no
        # solution is found and the resonance check fails
        doc = json.loads(A1.read_text())
        doc.update(degrees=[0], q=0.2, zetas=[zeta])
        f = tmp_path / "m0.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads(text)
        assert rep["solutions"] == []
        assert [c["pass"] for c in rep["checks"]
                if c["check"] == "resonance"] == [False]
        assert rep["telemetry"]["solver"]["rejected_qq"] == 1
        assert rep["telemetry"]["solver"]["seeds"] == 0
        assert [c["witnesses"] for c in rep["checks"] if c["check"] == "solver"] == [
            ["no seed ran (every degree is 0); Q+ = 1 was rejected; "
             "empty solution set"]]

    def test_empty_set_witness_claims_no_count(self, tmp_path):
        # Lambda a q-string of 6 roots and m = 3, already the least degree
        # of its orbit: seeds converge, but the residual filter rejects
        # every one, so the witness says only that no seed gave a solution
        q = 0.2
        f = tmp_path / "q_string.json"
        f.write_text(json.dumps({
            "version": 1, "lie_type": "A", "rank": 1, "q": q, "zetas": [2.0],
            "lambdas": [{"roots": [q**k for k in range(6)], "leading": 1.0}],
            "degrees": [3]}))
        code, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["solutions"] == []
        solver = rep["telemetry"]["solver"]
        assert solver["word"] == [] and solver["converged"] > 0
        assert [c["witnesses"] for c in rep["checks"] if c["check"] == "solver"] == [
            ["no seed gave a solution; empty solution set"]]

    def test_determinism(self, tmp_path):
        c1, t1 = run_cli(["solve", "--instance", str(A2)], tmp_path, "r1.json")
        c2, t2 = run_cli(["solve", "--instance", str(A2)], tmp_path, "r2.json")
        assert c1 == c2 == 0
        d1 = json.loads(t1)
        d2 = json.loads(t2)
        assert d1["digest"] == d2["digest"]

    def test_digest_excludes_timings_and_telemetry(self, tmp_path):
        code, text = run_cli(["solve", "--instance", str(A1)], tmp_path)
        body = json.loads(text)
        solver = body["telemetry"]["solver"]
        # m = 1 steps at node 1 to m' = deg Lambda - m = 0: no seed runs
        assert solver["seeds"] == 0
        assert solver["word"] == [1] and solver["solved_degrees"] == [0]
        assert solver["accepted"] == len(body["solutions"]) == 1
        digest = body.pop("digest")
        del body["timings"], body["telemetry"]
        assert digest == hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("argv", [
        ["verify", "--instance", str(A2_SOLVED)],
        ["backlund", "--instance", str(A2_SOLVED), "--word", "1,2"],
        ["wronskian", "--instance", str(A2_SOLVED)],
        ["identities", "--trials", "2"], ["identities", "--exact", "--trials", "2"]])
    def test_digest_is_hashlib_sha256(self, tmp_path, argv):
        # cli hashes with the builtin sha256 that hashlib falls back to;
        # the test above checks a solve report
        body = json.loads(run_cli(argv, tmp_path)[1])
        digest = body.pop("digest")
        del body["timings"], body["telemetry"]
        assert digest == hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()


class TestVerify:
    def test_solved_passes(self, tmp_path):
        code, text = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert all(c["pass"] for c in rep["checks"])

    def test_perturbed_fails(self, tmp_path):
        doc = json.loads(A2_SOLVED.read_text())
        doc["solution"]["qplus"][0][0][0] += 1e-3
        f = tmp_path / "perturbed.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 1
        rep = json.loads(text)
        bad = {c["check"] for c in rep["checks"] if not c["pass"]}
        assert "qq-residual" in bad and "bethe-residual" in bad

    @pytest.mark.parametrize("command", ["wronskian", "verify"])
    def test_tiny_lambda_runs_the_wronskian_checks(self, tmp_path, command):
        # Lambda = 1e-11 (z - 1), solved exactly by Q+ = z - a and Q- = c:
        # R's one entry in row 2 is Lambda itself, so W is built and det
        # W = 1 holds, and the Bethe root is no degenerate configuration;
        # the Gaussian gate stops at Delta_1 (det W is wronskian-det's),
        # so every check passes
        q, zeta, eps = 0.3, 2.0, 1e-11
        c = eps / (zeta * q - 1 / zeta)
        a = (zeta * q - 1 / zeta) / (zeta - 1 / zeta)
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps({
            "version": 1, "lie_type": "A", "rank": 1, "q": q,
            "zetas": [zeta], "lambdas": [{"coeffs": [-eps, eps]}],
            "degrees": [1], "solution": {"qplus": [[-a, 1.0]],
                                         "qminus": [[c]]}}))
        code, text = run_cli([command, "--instance", str(f)], tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        for name in ("wronskian-det", "miura: matches the product construction"):
            got = [ch for ch in checks if ch["check"] == name]
            assert got and all(ch["pass"] for ch in got), name
        bad = [ch["check"] for ch in checks if not ch["pass"]]
        assert bad == []

    def test_solved_a3_passes(self, tmp_path):
        # det W and the Miura inverse are checked on evaluated matrices, so
        # their residuals stay at rounding level
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        inst = QQInstance(cartan_matrix("A", 3), 0.2, TwistZ((2.0, 3.0, 5.0)),
                          tuple(Poly([-k, 1.0]) for k in (1.0, 2.0, 3.0)),
                          (1, 1, 1))
        sol = solve_bethe(inst, seeds=8, tol=1e-11, seed=1)[0]
        f = tmp_path / "a3.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "seed": 0}, sol)))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        assert [c["check"] for c in checks] == KEPT_CHECKS
        det, miura = (c["sup_residual"] for c in checks[3:])
        assert det <= 1e-12 and miura <= 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_solved_a4_passes(self, tmp_path, k):
        # every check at its fixed bound, on each of the three solutions of
        # Lambda_i = z - i, zeta = (2, 3, 5, 7), q = 0.2, m = (1, 1, 1, 1):
        # the float polynomials that build W keep every coefficient, so the
        # determinant residual stays at rounding level
        from test_qq import a4_solved
        inst, sols = a4_solved()
        assert len(sols) == 3
        f = tmp_path / "a4.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "seed": 0}, sols[k])))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        checks = json.loads(text)["checks"]
        assert code == 0 and all(c["pass"] for c in checks)
        det, = [c["sup_residual"] for c in checks
                if c["check"] == "wronskian-det"]
        assert det <= 1e-11

    def test_qq_residual_is_measured(self, tmp_path):
        # the residual polynomials keep their rounding, so the check reads
        # a nonzero value and moves with a 1e-12 relative change of Q+
        def qq_residual(doc, name):
            f = tmp_path / name
            f.write_text(json.dumps(doc))
            code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
            assert code == 0
            val, = [c["sup_residual"] for c in json.loads(text)["checks"]
                    if c["check"] == "qq-residual"]
            return val

        doc = json.loads(A2_SOLVED.read_text())
        base = qq_residual(doc, "base.json")
        doc["solution"]["qplus"][0][0][0] *= 1 + 1e-12
        moved = qq_residual(doc, "moved.json")
        assert 0 < base <= 1e-14
        assert moved >= 100 * base

    def test_requires_solution(self, tmp_path):
        code = main(["verify", "--instance", str(A2)])
        assert code == 2

    def test_csv_format(self, tmp_path):
        code, text = run_cli(["verify", "--instance", str(A2_SOLVED)],
                             tmp_path, "out.csv", fmt="csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "check,k_or_word,i,sup_residual,pass"
        assert all(len(l.split(",")) == 5 for l in lines[1:])

    def test_builds_each_type_a_object_once(self, tmp_path, monkeypatch):
        import qoper.wronskian as wr
        counts = {}
        for name in ("s_lambda_inverse", "lift_products", "miura_trivializer",
                     "build_miura_A", "build_wronskian"):
            def counted(*args, _fn=getattr(wr, name), _name=name, **kw):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kw)
            monkeypatch.setattr(wr, name, counted)
        code, _ = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        assert counts == {"s_lambda_inverse": 1, "lift_products": 1,
                          "miura_trivializer": 1, "build_miura_A": 1,
                          "build_wronskian": 1}

    def test_evaluates_each_object_once_per_point(self, tmp_path,
                                                  monkeypatch):
        # W(x), A(x), v(x) and v(qx) once per panel point, and nothing else
        import qoper.wronskian as wr
        evals, bundles = {}, []
        ratmatrix_eval, build = wr.RatMatrix.eval, wr.type_a_bundle

        def counted_eval(self, z):
            evals[id(self)] = evals.get(id(self), 0) + 1
            return ratmatrix_eval(self, z)

        def kept(*args):
            bundles.append(build(*args))
            return bundles[-1]

        monkeypatch.setattr(wr.RatMatrix, "eval", counted_eval)
        monkeypatch.setattr(wr, "type_a_bundle", kept)
        code, _ = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        (b,) = bundles
        points = len(wr.PANEL)
        assert evals == {id(b.W): points, id(b.A): points, id(b.v): 2 * points}

    def test_rank_one_trivializer_refusal_reported(self, tmp_path):
        from qoper.qq import solve_bethe
        inst, _, extras = parse_instance(json.loads(A1.read_text()))
        sol = solve_bethe(inst, seeds=40, seed=1)[0]
        doc = echo_instance(inst, extras, sol)
        doc["solution"]["qplus"][0][0][0] += 1e-2
        f = tmp_path / "a1_bad.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 1
        checks = json.loads(text)["checks"]
        assert [c["check"] for c in checks] == KEPT_CHECKS[:4] + [
            "miura-reconstruction"]
        assert "trivializer" in checks[-1]["witnesses"][0]


class TestDefects:
    """A wrong input or a wrong lift fails a check the report keeps."""

    @pytest.mark.parametrize("defect, failing", [
        ("qminus", {"qq-residual"}),
        ("qplus", {"qq-residual", "bethe-residual", "wronskian-build"}),
        ("reversed", {"qq-residual", "bethe-residual", "wronskian-build"})])
    def test_input_defect(self, tmp_path, defect, failing):
        # one Q- or Q+ constant coefficient times 1 + 1e-6, or the ordering
        # reversed with the solution kept: the trivializer refuses a wrong Q+
        doc = json.loads(A2_SOLVED.read_text())
        if defect == "reversed":
            doc["ordering"] = [2, 1]
        else:
            doc["solution"][defect][0][0] = [
                c * (1 + 1e-6) for c in doc["solution"][defect][0][0]]
        f = tmp_path / "defect.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 1
        assert {c["check"] for c in json.loads(text)["checks"]
                if not c["pass"]} == failing

    def test_lift_without_its_q_shift(self, tmp_path, monkeypatch):
        # R with Lambda_2(z) in place of Lambda_2(qz), the one q^l shift of
        # an A2 lift: the transports and W follow R, and det W = 1 fails
        import types
        import qoper.wronskian as wr
        lift = wr.s_lambda_inverse
        monkeypatch.setattr(wr, "s_lambda_inverse", lambda inst: lift(
            types.SimpleNamespace(cartan=inst.cartan, rank=inst.rank,
                                  lambdas=inst.lambdas, q=1)))
        code, text = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 1
        assert [c["check"] for c in json.loads(text)["checks"]
                if not c["pass"]] == ["wronskian-det"]


class TestBacklund:
    def test_single_step(self, tmp_path):
        code, text = run_cli(
            ["backlund", "--instance", str(A2_SOLVED), "--word", "1"], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["solutions"][0]["node"] == 1

    def test_involution_word(self, tmp_path):
        code, text = run_cli(
            ["backlund", "--instance", str(A2_SOLVED), "--word", "1,1"], tmp_path)
        assert code == 0
        rep = json.loads(text)
        inv = [c for c in rep["checks"] if c["check"] == "involution"]
        assert inv and inv[0]["pass"]

    @pytest.mark.parametrize("word, identity", [("1,2,1,2,1,2", True),
                                                ("1,2,1", False)])
    def test_involution_check_follows_the_group(self, tmp_path, word,
                                                identity):
        # (s_1 s_2)^3 = 1 in A2, though the word is no even palindrome
        code, text = run_cli(["backlund", "--instance", str(A2_SOLVED),
                              "--word", word], tmp_path)
        assert code == 0
        inv = [c for c in json.loads(text)["checks"]
               if c["check"] == "involution"]
        assert [(c["k_or_word"], c["pass"]) for c in inv] == (
            [(word.replace(",", "."), True)] if identity else [])

    def test_word_out_of_range(self, tmp_path):
        code = main(["backlund", "--instance", str(A2_SOLVED), "--word", "5"])
        assert code == 2

    @pytest.mark.parametrize("word", ["1,x", "1.5", "1,,2", "1,2,", "x"])
    def test_malformed_word(self, capsys, word):
        # "1,x" and "1.5" raised ValueError from int(), and "1,,2" ran (1, 2)
        with pytest.raises(SystemExit) as exc:
            main(["backlund", "--instance", str(A2_SOLVED), "--word", word])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --word: expected comma-separated node numbers" in err
        assert "Traceback" not in err


    def test_refused_step_stops_the_word(self, tmp_path):
        # Q-_1 shares its root with Lambda_1: the first step is refused
        doc = json.loads(A1.read_text())
        doc["solution"] = {"qplus": [[[-3.0, 0.0], [1.0, 0.0]]],
                           "qminus": [[[-1.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(["backlund", "--instance", str(path),
                              "--word", "1,1"], tmp_path)
        assert code == 1
        rep = json.loads(text)
        assert [(c["check"], c["k_or_word"], c["pass"]) for c in rep["checks"]] \
            == [("backlund-step", "1", False)]
        assert rep["checks"][0]["witnesses"] == [
            "backlund step at node 1 refused: Q-_1 vs Lambda_1"]
        assert rep["telemetry"]["backlund"]["steps"] == 0
        assert rep["telemetry"]["backlund"]["refusals"] == 1

    def test_counts_the_word_and_the_table(self, tmp_path):
        code, text = run_cli(["backlund", "--instance", str(A2_SOLVED),
                              "--word", "1,2", "--full-table"], tmp_path)
        assert code == 0
        counts = json.loads(text)["telemetry"]["backlund"]
        assert counts["steps"] == 2 + 5 and counts["refusals"] == 0
        assert counts["qminus_swapped"] == 7
        assert counts["qminus_solved"] + counts["qminus_reused"] \
            + counts["qminus_swapped"] == 2 * 7


class TestBacklundTelemetry:
    def test_verify_reports_the_walk(self, tmp_path):
        code, text = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        counts = json.loads(text)["telemetry"]["backlund"]
        assert counts["steps"] == 5 and counts["refusals"] == 0
        # every node of A2 neighbours the other: each step swaps the Q- of
        # its node and solves the other
        assert counts["qminus_solved"] == counts["qminus_swapped"] == 5
        assert counts["qminus_reused"] == 0
        assert counts["roots_computed"] > 0

    def test_does_not_move_the_digest(self, tmp_path, monkeypatch):
        import qoper.backlund as bl
        _, plain = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path,
                           "plain.json")
        real = bl.full_qq_system

        def inflated(*args, stats=None, **kw):
            out = real(*args, stats=stats, **kw)
            stats.update(steps=10 ** 6, roots_computed=-1)
            return out

        monkeypatch.setattr(bl, "full_qq_system", inflated)
        _, moved = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path,
                           "moved.json")
        plain, moved = json.loads(plain), json.loads(moved)
        assert plain["telemetry"]["backlund"] != moved["telemetry"]["backlund"]
        assert plain["digest"] == moved["digest"]


def perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return gen


class TestShortSide:
    """The benchmark's a1_far_root and a2_m21 inputs step to m' = 0 and
    are solved there with no Newton."""

    @staticmethod
    def inputs(seed, tmp_path) -> dict:
        """The benchmark's solve inputs at seed, by family name."""
        gen = perfbench_gen()
        return dict(zip(gen.SOLVE_FAMILIES,
                        gen.generate(seed, str(tmp_path), gen.SOLVE_FAMILIES,
                                     solved=False)))

    # gen.py seeds 2001-2020, and 4271, which was not run before this test
    @pytest.mark.parametrize("seed", list(range(2001, 2021)) + [4271])
    def test_each_input_gives_its_solution(self, seed, tmp_path):
        paths = self.inputs(seed, tmp_path)
        for family, word in (("a1_far_root", [1]), ("a2_m21", [1, 2])):
            path = paths[family]
            code, text = run_cli(["solve", "--instance", path], tmp_path)
            rep = json.loads(text)
            assert code == 0 and len(rep["solutions"]) == 1, path
            assert rep["solutions"][0]["max_qq_residual"] <= 1e-8
            solver = rep["telemetry"]["solver"]
            assert solver["word"] == word and solver["seeds"] == 0

    @pytest.mark.parametrize("seed", [2, 3])
    def test_the_direct_solution_is_found(self, seed, tmp_path):
        # the direct solve finds one a2_m21 solution at these seeds; the
        # walk from m' = 0 finds it to 1e-8
        path = self.inputs(seed, tmp_path)["a2_m21"]
        inst, _, extras = parse_instance(json.loads(Path(path).read_text()))
        direct = [s for s, _ in newton._multistart(
            inst, 40, extras["bethe_tol"], extras["seed"], Counter())]
        walked = qq.solve_bethe(inst, seeds=40, tol=extras["bethe_tol"],
                                seed=extras["seed"])
        assert len(direct) == len(walked) == 1
        for p, r in zip(direct[0].qplus + direct[0].qminus,
                        walked[0].qplus + walked[0].qminus):
            assert p.degree == r.degree
            assert all(abs(a - b) <= 1e-8 * (1 + abs(a))
                       for a, b in zip(p.coeffs, r.coeffs))


def gen_g2(tmp_path):
    """The seed-901 G2 m = (1, 1) verify input of perfbench/gen.py."""
    path, = perfbench_gen().generate(901, str(tmp_path), ("g2_m11",),
                                     solved=True)
    return path


class TestStructuredRefusals:
    def test_g2_refusals_are_json_objects(self, tmp_path):
        # G2 with zeta = (2, 8) = (zeta_1, zeta_1^3): s_1 sends the node-2
        # twist product zeta_2^2 / zeta_1^3 to zeta_1^3 / zeta_2 = q^0, so
        # the walk refuses two steps at node 1 and misses six parents;
        # each refusal is an object, not the repr of a Python dict
        doc = json.loads(A2_SOLVED.read_text())
        del doc["solution"]
        doc.update(lie_type="G", zetas=[[2.0, 0.0], [8.0, 0.0]])
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(["solve", "--instance", str(path)], tmp_path,
                             "solved.json")
        sol = json.loads(text)["solutions"][0]
        doc["solution"] = {"qplus": sol["qplus"], "qminus": sol["qminus"]}
        path.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(path)], tmp_path)
        assert code == 0
        full = json.loads(text)["full_qq"]
        assert full["size"] == 4 and not full["generic"]
        refusals = full["refusals"]
        assert len(refusals) == 8
        for r in refusals:
            assert set(r) == {"word", "node", "reason"}
            assert isinstance(r["word"], list) and r["word"]
            assert all(isinstance(letter, int) for letter in r["word"])
            assert r["node"] is None or r["node"] == r["word"][0]
            assert isinstance(r["reason"], str)
        assert [r["word"] for r in refusals if r["node"] is not None] \
            == [[1], [1, 2, 1, 2]]
        assert sum(r["node"] is None for r in refusals) == 6
        assert all(r["reason"] == "parent missing"
                   for r in refusals if r["node"] is None)


class TestG2Table:
    """The Q- degree comes from the equation, so the G2 walk reaches all
    12 Weyl elements; its steps are judged against their right sides."""

    def test_full_table(self, tmp_path):
        code, text = run_cli(["verify", "--instance", gen_g2(tmp_path)],
                             tmp_path)
        assert code == 0
        full = json.loads(text)["full_qq"]
        assert full == {"size": 12, "generic": True, "refusals": []}

    def test_longest_word_passes_every_step(self, tmp_path):
        code, text = run_cli(["backlund", "--instance", gen_g2(tmp_path),
                              "--word", "2,1,2,1,2,1", "--full-table"],
                             tmp_path)
        assert code == 0
        rep = json.loads(text)
        steps = [c for c in rep["checks"] if c["check"] == "backlund-step"]
        assert [c["k_or_word"] for c in steps] == list("121212")
        assert all(c["pass"] for c in rep["checks"])
        assert rep["full_qq"]["size"] == 12

    def test_a4_word_with_a_large_right_side_passes(self, tmp_path):
        # the word (1, 2, 3, 2) from the second A4 solution: its last step
        # reads a node-2 residual above 1e-8, rounding of coefficients 7e8
        from test_qq import a4_solved
        inst, sols = a4_solved()
        f = tmp_path / "a4.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "seed": 0}, sols[1])))
        code, text = run_cli(["backlund", "--instance", str(f),
                              "--word", "1,2,3,2"], tmp_path)
        assert code == 0
        steps = json.loads(text)["checks"]
        assert [(c["check"], c["pass"]) for c in steps] \
            == [("backlund-step", True)] * 4
        assert steps[-1]["sup_residual"] > 1e-8


class TestGroupTooLarge:
    @pytest.mark.parametrize("argv", [["verify"],
                                      ["backlund", "--word", "", "--full-table"]])
    def test_e6_exits_2(self, tmp_path, capsys, argv):
        # |W(E6)| = 51840 is above the Weyl group guard
        doc = {"lie_type": "E", "rank": 6, "q": 0.2,
               "zetas": [2, 3, 5, 7, 11, 13],
               "lambdas": [{"coeffs": [-k, 1]} for k in range(1, 7)],
               "degrees": [0] * 6,
               "solution": {"qplus": [[1]] * 6, "qminus": [[1]] * 6}}
        f = tmp_path / "e6.json"
        f.write_text(json.dumps(doc))
        assert main(argv[:1] + ["--instance", str(f)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert "input error: group too large: |W| = 51840" in err
        assert "Traceback" not in err


class TestWronskianCommand:
    def test_runs_battery(self, tmp_path):
        code, text = run_cli(
            ["wronskian", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        assert [c["check"] for c in checks] == KEPT_CHECKS[3:]
        assert all(c["pass"] for c in checks)

    def test_point_left_on_a_pole_is_a_failed_check(self, tmp_path,
                                                     monkeypatch):
        # two panel points stay on a pole: one failed check each, with the
        # point as witness, and every check passes on the other points
        import qoper.wronskian as wr
        stuck = [complex(wr.PANEL[3]), complex(wr.PANEL[11])]
        ratmatrix_eval = wr.RatMatrix.eval

        def near_a_pole(self, z):
            if any(abs(z - x) < 0.1 for x in stuck):
                raise ZeroDivisionError("zero denominator")
            return ratmatrix_eval(self, z)

        monkeypatch.setattr(wr.RatMatrix, "eval", near_a_pole)
        code, text = run_cli(
            ["wronskian", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 1
        checks = json.loads(text)["checks"]
        bad = [c for c in checks if not c["pass"]]
        assert [c["check"] for c in bad] == ["sample point off the poles"] * 2
        assert [c["witnesses"] for c in bad] == \
            [[f"{x} after 4 nudges: zero denominator"] for x in stuck]
        assert all(c["sup_residual"] == 1e300 for c in bad)
        assert checks[:2] == bad
        assert [c["check"] for c in checks[2:]] == KEPT_CHECKS[3:]

    def test_non_type_a_rejected(self, tmp_path):
        import numpy as np
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        cd = cartan_matrix("B", 2)
        inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        doc = echo_instance(inst, {"bethe_tol": 1e-10, "seed": 7}, sol)
        doc["lie_type"] = "B"
        f = tmp_path / "b2.json"
        f.write_text(json.dumps(doc))
        assert main(["wronskian", "--instance", str(f)]) == 2

    def test_verify_skips_wronskian_for_b2(self, tmp_path):
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        cd = cartan_matrix("B", 2)
        inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        doc = echo_instance(inst, {"bethe_tol": 1e-10, "seed": 7}, sol)
        f = tmp_path / "b2v.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        skipped = [c for c in rep["checks"] if c["check"] == "wronskian-suite"]
        assert skipped and "skipped: type A only" in skipped[0]["witnesses"]


class TestIdentities:
    def test_float_battery(self, tmp_path):
        code, text = run_cli(["identities", "--trials", "5"], tmp_path)
        assert code == 0

    def test_float_residual_is_measured(self, tmp_path):
        # rounding shows in the float residual; it is not trimmed to zero
        code, text = run_cli(["identities", "--trials", "20", "--seed", "1"],
                             tmp_path)
        assert code == 0
        rep = json.loads(text)
        check, = rep["checks"]
        assert check["check"] == "lewis-carroll"
        assert 0 < check["sup_residual"] <= 1e-10
        assert rep["telemetry"]["identities"] == {
            "seed": 1, "trials": 20, "exact": False, "residuals": 60}

    def test_exact_battery(self, tmp_path):
        code, text = run_cli(["identities", "--trials", "5", "--exact"], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["checks"][0]["check"] == "lewis-carroll (exact)"

    @pytest.mark.parametrize("seed, digest", [
        ("1", "f4032c9609fedb0fff136a684312288d"
              "64a702b5d3812584c65e6f88afee857b"),
        ("4271", "fa165529dcc06218879ad31b89c5021d"
                 "e3c9da519a29cdbf667fa6d1ffae11d4")])
    def test_float_battery_digest(self, tmp_path, seed, digest):
        # the worst float residual hangs on every entry's last bit, so the
        # digest pins the values the battery evaluates
        code, text = run_cli(["identities", "--trials", "20", "--seed", seed],
                             tmp_path)
        assert code == 0
        assert json.loads(text)["digest"] == digest

    def test_telemetry_does_not_move_the_digest(self, tmp_path):
        # every exact run passes with residual 0, so runs of other seeds and
        # sizes make the same checks and differ in their telemetry only
        reps = [json.loads(run_cli(["identities", "--exact", "--trials", trials,
                                    "--seed", seed], tmp_path, f"{seed}.json")[1])
                for trials, seed in (("2", "1"), ("3", "2"))]
        assert [r["telemetry"]["identities"] for r in reps] == [
            {"seed": 1, "trials": 2, "exact": True, "residuals": 6,
             "kronecker_bits": 31},
            {"seed": 2, "trials": 3, "exact": True, "residuals": 9,
             "kronecker_bits": 31}]
        assert reps[0]["digest"] == reps[1]["digest"]

    def test_exact_battery_can_fail(self, tmp_path, monkeypatch):
        # a determinant with its second cofactor's sign flipped breaks
        # the identity: the battery fails and names where
        def flipped(self):
            n, e = self.n, self.entries
            if n == 1:
                return e[0][0]
            return sum((-1) ** (j + (j == 1)) * e[0][j]
                       * self.submatrix(range(1, n),
                                        [c for c in range(n) if c != j]).det()
                       for j in range(n))
        monkeypatch.setattr(RatMatrix, "det", flipped)
        code, text = run_cli(["identities", "--exact", "--trials", "3"],
                             tmp_path)
        assert code == 1
        check, = json.loads(text)["checks"]
        assert check["check"] == "lewis-carroll (exact)" and not check["pass"]
        assert check["sup_residual"] > 0
        assert check["witnesses"] == [f"trial {t}, i {i}" for t in range(3)
                                      for i in (2, 3, 4)][:5]

    def test_exact_battery_multiplies_no_polynomials(self, monkeypatch):
        # each residual is int arithmetic on the matrix's values at 2**k,
        # each value Horner's rule on a drawn list: no Poly and no RatFun
        # is made
        def refuse(*args):
            raise AssertionError("polynomial arithmetic in the exact battery")
        monkeypatch.setattr(Poly, "__init__", refuse)
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(RatFun, "__init__", refuse)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["identities", "--exact", "--trials", "5"]) == 0

    def test_float_battery_builds_no_polynomial(self, monkeypatch):
        # the float battery evaluates each drawn list by Horner's rule too
        def refuse(*args):
            raise AssertionError("a Poly in the float battery")
        monkeypatch.setattr(Poly, "__init__", refuse)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["identities", "--trials", "5"]) == 0


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qoper.cli", "identities", "--trials", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_no_module_imports_cli(self):
        # under `python -m qoper.cli`, cli is __main__: an import of cli would
        # compile it again, with a second InputError that main does not catch
        found = []
        for path in sorted((ROOT / "src" / "qoper").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = ("." * node.level) + (node.module or "")
                    names = [base] + [f"{base.rstrip('.')}.{a.name}"
                                      for a in node.names]
                else:
                    continue
                if any(n.lstrip(".") in ("cli", "qoper.cli") for n in names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_module_invocation_runs_cli_once(self):
        # -X importtime names each module imported; cli runs as __main__ and
        # must never be imported as qoper.cli, while verify imports instance
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qoper.cli", "verify",
             "--instance", str(A2_SOLVED)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "qoper.instance" in imported
        assert "qoper.cli" not in imported


# stdlib modules no command needs: numpy's and dataclasses' import cost, and
# argparse (with gettext and locale) and hashlib (with OpenSSL's _hashlib)
UNNEEDED = ("numpy", "dataclasses", "argparse", "gettext", "locale", "hashlib",
            "_hashlib")
# one passing run of each command; backlund walks the whole table too
EVERY_COMMAND = [
    ["solve", "--instance", str(A1)], ["verify", "--instance", str(A2_SOLVED)],
    ["backlund", "--instance", str(A2_SOLVED), "--word", "1", "--full-table"],
    ["wronskian", "--instance", str(A2_SOLVED)],
    ["identities", "--trials", "2"], ["identities", "--exact", "--trials", "2"]]


class TestModulesLoaded:
    """Each command imports only the qoper modules it runs, and none of
    UNNEEDED (dataclasses would bring inspect, ast and dis behind it)."""

    @staticmethod
    @functools.cache
    def bare_modules():
        """The modules `python -c "import sys"` holds: site differs from
        one machine to the next, and what it loads is not counted."""
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; print(*sys.modules)"],
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    @staticmethod
    def loaded_after(argv, module="qoper"):
        """The qoper submodules a fresh interpreter holds after main(argv),
        or after `import module` alone when argv is None, and each module of
        UNNEEDED it holds that a bare interpreter does not: each set
        asserted below leaves those out."""
        code = (f"import sys, {module}\n" if argv is None else
                "import io, contextlib, sys, qoper.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert qoper.cli.main({argv!r}) == 0\n")
        code += ("print(*(m for m in sys.modules\n"
                 f"        if m.startswith('qoper.') or m in {UNNEEDED!r}))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {m.split(".", 1)[-1] for m in proc.stdout.split()
                if m not in TestModulesLoaded.bare_modules()}

    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_no_command_loads_argparse_or_hashlib(self, argv):
        assert not self.loaded_after(argv) & set(UNNEEDED)

    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_no_command_loads_typing(self, argv):
        # without site, which may load typing itself, every typing import
        # left would show
        code = ("import io, contextlib, sys, qoper.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert qoper.cli.main({argv!r}) == 0\n"
                "assert 'typing' not in sys.modules, 'typing loaded'\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_qoper_loads_no_submodule(self):
        assert self.loaded_after(None) == set()

    def test_minors_loads_no_other_module(self):
        # a rational entry loads polynomials where it is handled
        assert self.loaded_after(None, "qoper.minors") == {"minors"}

    def test_polynomials_loads_no_numpy(self):
        # polynomials evaluates by minors' Horner loop
        assert self.loaded_after(None, "qoper.polynomials") == {"polynomials",
                                                              "minors"}

    def test_qq_loads_no_numpy(self):
        assert self.loaded_after(None, "qoper.qq") == {"qq", "cartan",
                                                       "polynomials", "minors"}

    def test_solve(self):
        # Newton runs on Python complex numbers, one seed at a time;
        # a2_generic is at the least degrees of its orbit: no walk
        loaded = self.loaded_after(["solve", "--instance", str(A2)])
        assert loaded == {"cli", "instance", "cartan", "polynomials", "minors",
                          "qq", "newton"}

    def test_solve_walking_back_loads_backlund(self):
        # a1_closed_form is solved at m' = 0 and walked back one step
        loaded = self.loaded_after(["solve", "--instance", str(A1)])
        assert loaded == {"cli", "instance", "cartan", "polynomials", "minors",
                          "qq", "newton", "backlund"}

    @pytest.mark.parametrize("argv, modules", [
        (["verify"], {"backlund", "wronskian"}),
        (["wronskian"], {"wronskian"}),
        (["backlund", "--word", "1"], {"backlund"})])
    def test_instance_commands_load_no_numpy(self, argv, modules):
        loaded = self.loaded_after(argv + ["--instance", str(A2_SOLVED)])
        assert loaded == {"cli", "instance", "cartan", "polynomials", "minors",
                          "qq"} | modules

    def test_identities(self):
        # the float battery runs the exact battery's code on complex values;
        # neither battery reads an instance, so neither compiles `instance`
        loaded = self.loaded_after(["identities", "--trials", "2"])
        assert loaded == {"cli", "minors"}

    def test_exact_identities_load_no_numpy(self):
        # the exact battery is int arithmetic on RatMatrix alone
        loaded = self.loaded_after(["identities", "--exact", "--trials", "2"])
        assert loaded == {"cli", "minors"}

    def test_only_a_string_scalar_loads_fractions(self):
        # the exact domain is int: fractions loads to parse a "p/q" string,
        # as a1_closed_form's q, and for nothing else
        runs = [["identities", "--exact", "--trials", "2"],
                ["verify", "--instance", str(A2_SOLVED)],
                ["solve", "--instance", str(A2)]]
        code = ("import contextlib, io, json, sys, qoper.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    for argv in {runs!r}:\n"
                "        assert qoper.cli.main(argv) == 0, argv\n"
                "assert 'fractions' not in sys.modules\n"
                f"doc = json.load(open({str(A1)!r}))\n"
                "assert qoper.cli.parse_instance(doc)[0].q == 1 / 3\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_wronskian_still_binds_the_exact_names(self):
        # perfbench's tracer resolves its spans wronskian.RatMatrix.det and
        # wronskian.check_lewis_carroll in qoper.wronskian, and wraps cli's
        # binding of the same function, which the battery calls
        import qoper.cli as cli
        import qoper.minors as minors
        import qoper.wronskian as wr
        assert wr.RatMatrix is minors.RatMatrix
        assert wr.check_lewis_carroll is minors.check_lewis_carroll
        assert cli.check_lewis_carroll is minors.check_lewis_carroll

    def test_instance_commands_parse_through_cli(self, monkeypatch):
        # perfbench's tracer counts cli.parse_instance by replacing cli's
        # binding, so every instance command must call through it
        import qoper.cli as cli
        calls, original = [], cli.parse_instance

        def counted(doc):
            calls.append(doc)
            return original(doc)

        monkeypatch.setattr(cli, "parse_instance", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in EVERY_COMMAND:
                main(argv)
        assert len(calls) == 4

    def test_verify_b2(self, tmp_path):
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        inst = QQInstance(cartan_matrix("B", 2), 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        f = tmp_path / "b2.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "seed": 7}, sol)))
        loaded = self.loaded_after(["verify", "--instance", str(f)])
        assert "wronskian" not in loaded and "numpy" not in loaded
