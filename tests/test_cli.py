import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoper.cli import InputError, echo_instance, main, parse_instance

ROOT = Path(__file__).resolve().parent.parent
A1 = ROOT / "instances" / "a1_closed_form.json"
A2 = ROOT / "instances" / "a2_generic.json"
A2_SOLVED = ROOT / "instances" / "a2_solved.json"


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


class TestFuzzFindings:
    """Inputs a fuzz of the CLI crashed on; each now exits 2 with a message."""

    def test_huge_rank_is_refused_before_the_cartan_matrix(self, tmp_path):
        # a rank x rank table of rank 1e308 would exhaust memory; the child's
        # address space is capped so that a regression fails, not the host
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        doc = json.loads(A2_SOLVED.read_text())
        doc["rank"] = 1e308
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
        ("degrees", [1e308, 1], "degrees and tolerances.K"),
        ("tolerances", {"K": 0}, "tolerances.K"),
        ("tolerances", {"tau": -1}, "tolerances.tau"),
        ("tolerances", {"tau": 0}, "tolerances.tau"),
        ("tolerances", {"bethe_tol": 0}, "tolerances.bethe_tol"),
        ("tolerances", {"bethe_tol": -1e-3}, "tolerances.bethe_tol")])
    def test_exit_2(self, tmp_path, capsys, command, key, value, message):
        doc = json.loads(A2_SOLVED.read_text())
        doc[key] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main([command, "--instance", str(f), "--seeds", "3"]) == 2
        assert f"input error: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["verify", "wronskian", "backlund"])
    def test_solver_flags_are_not_read_elsewhere(self, tmp_path, command):
        # only `solve` reads --tol and --seeds, so no other command refuses
        # the values that `solve` does
        argv = [command, "--instance", str(A2_SOLVED), "--tol", "0",
                "--seeds", "0"] + (["--word", "1"] if command == "backlund" else [])
        assert run_cli(argv, tmp_path)[0] == 0

    @pytest.mark.parametrize("command", ["wronskian", "verify"])
    @pytest.mark.parametrize("q", [1e10, 1e20])
    def test_large_q_is_a_failed_wronskian_build(self, tmp_path, command, q):
        # the Miura factor of a huge q divides by a polynomial that the
        # float trim has zeroed; that was a ZeroDivisionError traceback
        doc = json.loads(A2_SOLVED.read_text())
        doc["q"] = q
        f = tmp_path / "q.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli([command, "--instance", str(f)], tmp_path)
        assert code == 1
        bad = [c for c in json.loads(text)["checks"] if not c["pass"]]
        assert bad[-1]["check"] == "wronskian-build"
        assert bad[-1]["witnesses"] == ["inverting zero rational function"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", str(A2_SOLVED)], ["identities"]])
    def test_negative_seed_flag(self, argv):
        proc = run_subprocess(argv + ["--seed", "-1"])
        assert proc.returncode == 2
        assert "--seed: expected a nonnegative integer" in proc.stderr
        assert "Traceback" not in proc.stderr


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
        for command in (["solve"], ["verify"], ["wronskian"],
                        ["backlund", "--word", "1"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(command + ["--instance", str(f), "--seeds", "3"])
            assert code in (0, 1, 2), (command, mutation)
            assert "Traceback" not in err.getvalue(), (command, mutation)


class TestInstanceTolerances:
    def test_tol_defaults_to_instance_bethe_tol(self, tmp_path, monkeypatch):
        import qoper.cli as cli
        seen = []
        monkeypatch.setattr(cli, "solve_bethe",
                            lambda inst, **kw: seen.append(kw["tol"]) or [])
        doc = json.loads(A1.read_text())
        doc["tolerances"]["bethe_tol"] = 1e-7
        f = tmp_path / "tol.json"
        f.write_text(json.dumps(doc))
        run_cli(["solve", "--instance", str(f)], tmp_path)
        run_cli(["solve", "--instance", str(f), "--tol", "1e-9"], tmp_path)
        assert seen == [1e-7, 1e-9]

    def test_k_reaches_full_qq_system(self, tmp_path, monkeypatch):
        import qoper.backlund as bl
        seen = []
        real = bl.full_qq_system

        def spy(inst, sol, **kw):
            seen.append(kw.get("K"))
            return real(inst, sol, **kw)

        monkeypatch.setattr(bl, "full_qq_system", spy)
        doc = json.loads(A2_SOLVED.read_text())
        doc["tolerances"]["K"] = 5
        f = tmp_path / "k.json"
        f.write_text(json.dumps(doc))
        run_cli(["verify", "--instance", str(f)], tmp_path)
        run_cli(["backlund", "--instance", str(f), "--word", "1",
                 "--full-table"], tmp_path)
        assert seen == [5, 5]

    def test_k_judges_every_nondegenerate_verdict(self, tmp_path, monkeypatch):
        # zeta^2 = q^7 (q = 1/3) resonates outside the default window 3 but
        # inside K = 7: the solution entries and the check must both refuse
        import qoper.cli as cli
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
        assert nondegenerate(inst, sol).passed  # the default window misses it
        f.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(cli, "nondegenerate",
                            lambda *a: calls.append(a) or nondegenerate(*a))
        _, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        rep = json.loads(text)
        assert rep["solutions"][0]["nondegenerate"] is False
        assert [c["pass"] for c in rep["checks"]
                if c["check"] == "nondegenerate"] == [False]
        assert len(calls) == 1 and calls[0][2] == 7


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

    def test_m_zero(self, tmp_path):
        doc = json.loads(A1.read_text())
        doc["degrees"] = [0]
        f = tmp_path / "m0.json"
        f.write_text(json.dumps(doc))
        code, text = run_cli(["solve", "--instance", str(f)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["solutions"][0]["qplus"] == [[[1.0, 0.0]]]

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
        assert solver["seeds"] == 40
        assert solver["accepted"] == len(body["solutions"]) == 1
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

    def test_solved_a3_passes(self, tmp_path):
        # the fundamental relation and the Miura inverse are checked on
        # evaluated matrices, so their residuals stay at rounding level
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        from qoper.polynomials import Poly
        inst = QQInstance(cartan_matrix("A", 3), 0.2, TwistZ((2.0, 3.0, 5.0)),
                          tuple(Poly([-k, 1.0]) for k in (1.0, 2.0, 3.0)),
                          (1, 1, 1))
        sol = solve_bethe(inst, seeds=8, tol=1e-11, seed=1)[0]
        f = tmp_path / "a3.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "K": None, "seed": 0}, sol)))
        code, text = run_cli(["verify", "--instance", str(f)], tmp_path)
        assert code == 0
        checks = json.loads(text)["checks"]
        fund = [c["sup_residual"] for c in checks
                if c["check"] == "fundamental-relation"]
        assert len(fund) == 3 and max(fund) <= 1e-12
        miura, = [c["sup_residual"] for c in checks
                  if c["check"] == "miura: matches the product construction"]
        assert miura <= 1e-10

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
        # W at x, qx and q^2 x (h = 3), every S_k, A, v(x), v(qx) and the
        # Cartan connection once per panel point, and nothing else
        import qoper.wronskian as wr
        evals, bundles, connections = {}, [], []
        ratmatrix_eval, build = wr.RatMatrix.eval, wr.type_a_bundle
        connection = wr.cartan_connection

        def counted_eval(self, z):
            evals[id(self)] = evals.get(id(self), 0) + 1
            return ratmatrix_eval(self, z)

        def kept(*args):
            bundles.append(build(*args))
            return bundles[-1]

        def counted_connection(*args):
            connections.append(args[-1])
            return connection(*args)

        monkeypatch.setattr(wr.RatMatrix, "eval", counted_eval)
        monkeypatch.setattr(wr, "type_a_bundle", kept)
        monkeypatch.setattr(wr, "cartan_connection", counted_connection)
        code, _ = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        (b,) = bundles
        points = len(wr.PANEL)
        want = {id(b.W): 3 * points, id(b.A): points, id(b.v): 2 * points}
        want.update({id(Sk): points for Sk in b.S})
        assert evals == want
        assert len(connections) == points

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
        assert "shifted-minor" in {c["check"] for c in checks}
        assert checks[-1]["check"] == "miura-reconstruction"
        assert "trivializer" in checks[-1]["witnesses"][0]

    def test_internal_inconsistency_exits_3(self, tmp_path, monkeypatch):
        import qoper.wronskian as wr

        def broken(*args, **kw):
            raise AssertionError("lift compound image is not a single wedge")

        monkeypatch.setattr(wr, "check_shifted_minor_relation", broken)
        assert main(["verify", "--instance", str(A2_SOLVED)]) == 3


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

    def test_word_out_of_range(self, tmp_path):
        code = main(["backlund", "--instance", str(A2_SOLVED), "--word", "5"])
        assert code == 2


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
        assert "refused" in rep["checks"][0]["witnesses"][0]
        assert rep["telemetry"]["backlund"]["steps"] == 0
        assert rep["telemetry"]["backlund"]["refusals"] == 1

    def test_counts_the_word_and_the_table(self, tmp_path):
        code, text = run_cli(["backlund", "--instance", str(A2_SOLVED),
                              "--word", "1,2", "--full-table"], tmp_path)
        assert code == 0
        counts = json.loads(text)["telemetry"]["backlund"]
        assert counts["steps"] == 2 + 5 and counts["refusals"] == 0
        assert counts["qminus_solved"] + counts["qminus_reused"] == 2 * 7


class TestBacklundTelemetry:
    def test_verify_reports_the_walk(self, tmp_path):
        code, text = run_cli(["verify", "--instance", str(A2_SOLVED)], tmp_path)
        counts = json.loads(text)["telemetry"]["backlund"]
        assert counts["steps"] == 5 and counts["refusals"] == 0
        # every node of A2 neighbours the other: each step solves both Q-
        assert counts["qminus_solved"] == 10 and counts["qminus_reused"] == 0
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


class TestWronskianCommand:
    def test_runs_battery(self, tmp_path):
        code, text = run_cli(
            ["wronskian", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 0
        rep = json.loads(text)
        names = {c["check"] for c in rep["checks"]}
        assert "wronskian-det" in names and "shifted-minor" in names

    def test_point_left_on_a_pole_is_a_failed_check(self, tmp_path,
                                                     monkeypatch):
        # two panel points stay on a pole: one failed check each, with the
        # point as witness, and every check passes on the other points
        import qoper.wronskian as wr
        stuck = [complex(wr.PANEL[3]), complex(wr.PANEL[11])]
        connection = wr.cartan_connection

        def near_a_pole(inst, sol, z):
            if any(abs(z - x) < 0.1 for x in stuck):
                raise ZeroDivisionError("zero denominator")
            return connection(inst, sol, z)

        monkeypatch.setattr(wr, "cartan_connection", near_a_pole)
        code, text = run_cli(
            ["wronskian", "--instance", str(A2_SOLVED)], tmp_path)
        assert code == 1
        checks = json.loads(text)["checks"]
        bad = [c for c in checks if not c["pass"]]
        assert [c["check"] for c in bad] == ["sample point off the poles"] * 2
        assert [c["witnesses"] for c in bad] == \
            [[f"{x} after 4 nudges: zero denominator"] for x in stuck]
        assert all(c["sup_residual"] == 1e300 for c in bad)
        assert len(checks) > 20 and checks[:2] == bad

    def test_non_type_a_rejected(self, tmp_path):
        import numpy as np
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        from qoper.polynomials import Poly
        cd = cartan_matrix("B", 2)
        inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        doc = echo_instance(inst, {"bethe_tol": 1e-10, "K": None, "seed": 7}, sol)
        doc["lie_type"] = "B"
        f = tmp_path / "b2.json"
        f.write_text(json.dumps(doc))
        assert main(["wronskian", "--instance", str(f)]) == 2

    def test_verify_skips_wronskian_for_b2(self, tmp_path):
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        from qoper.polynomials import Poly
        cd = cartan_matrix("B", 2)
        inst = QQInstance(cd, 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        doc = echo_instance(inst, {"bethe_tol": 1e-10, "K": None, "seed": 7}, sol)
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
        check, = json.loads(text)["checks"]
        assert check["check"] == "lewis-carroll"
        assert 0 < check["sup_residual"] <= 1e-10

    def test_exact_battery(self, tmp_path):
        code, text = run_cli(["identities", "--trials", "5", "--exact"], tmp_path)
        assert code == 0
        rep = json.loads(text)
        assert rep["checks"][0]["check"] == "lewis-carroll (exact)"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qoper.cli", "identities", "--trials", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0


class TestModulesLoaded:
    """Each command imports only the qoper modules it runs."""

    @staticmethod
    def loaded_after(argv):
        """The qoper submodules a fresh interpreter holds after main(argv),
        or after `import qoper` alone when argv is None."""
        code = ("import sys, qoper\n" if argv is None else
                "import io, contextlib, sys, qoper.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert qoper.cli.main({argv!r}) == 0\n")
        code += "print(*(m for m in sys.modules if m.startswith('qoper.')))"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {m.split(".", 1)[1] for m in proc.stdout.split()}

    def test_import_qoper_loads_no_submodule(self):
        assert self.loaded_after(None) == set()

    def test_solve(self):
        loaded = self.loaded_after(["solve", "--instance", str(A1)])
        assert loaded == {"cli", "cartan", "polynomials", "qq"}

    def test_identities(self):
        assert "backlund" not in self.loaded_after(["identities", "--trials", "2"])

    def test_verify_b2(self, tmp_path):
        from qoper.cartan import TwistZ, cartan_matrix
        from qoper.qq import QQInstance, solve_bethe
        from qoper.polynomials import Poly
        inst = QQInstance(cartan_matrix("B", 2), 0.2, TwistZ((2.0, 3.0)),
                          (Poly([-1.0, 1.0]), Poly([-2.0, 1.0])), (1, 1))
        sol = solve_bethe(inst, seeds=40, seed=7)[0]
        f = tmp_path / "b2.json"
        f.write_text(json.dumps(echo_instance(
            inst, {"bethe_tol": 1e-10, "K": None, "seed": 7}, sol)))
        assert "wronskian" not in self.loaded_after(["verify", "--instance",
                                                     str(f)])
