"""End-to-end tests of the command-line interface against the samples."""

import json

import corpus
from coopverify import (
    AutomatonKind,
    actors,
    kinds,
    parse_automaton,
    parse_cfa,
    validate_kind,
)
from coopverify.cli import main, parse_test_text


def sample(name):
    return str(corpus.sample_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


JSON_KEYS = {"command", "verdict", "exhausted", "config", "files",
             "wall_time_s", "details"}


class TestVerifyCommand:
    def test_01_holds_and_writes_correctness_witness(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--program", sample("p.imp"),
            "--property", sample("prop.aut"), "--out", str(tmp_path))
        assert code == 0
        assert "verdict: true" in out
        assert "exhausted: yes" in out
        witness = parse_automaton((tmp_path / "witness.aut").read_text())
        assert witness.kind is AutomatonKind.CORRECTNESS_WITNESS
        assert validate_kind(witness, corpus.program_p()).ok

    def test_02_violation_and_writes_violation_witness(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--program", sample("p_prime.imp"),
            "--property", sample("prop.aut"), "--out", str(tmp_path))
        assert code == 1
        assert "verdict: false" in out
        assert "evidence:" in out
        witness = parse_automaton((tmp_path / "witness.aut").read_text())
        assert witness.kind is AutomatonKind.VIOLATION_WITNESS

    def test_03_json_shape_and_default_config(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "verify", "--program", sample("p.imp"),
            "--property", sample("prop.aut"), "--out", str(tmp_path))
        assert code == 0
        assert set(payload) == JSON_KEYS
        assert payload["command"] == "verify"
        assert payload["verdict"] == "true"
        assert payload["exhausted"] is True
        assert payload["config"] == {"input_domain": [-8, 8], "max_steps": 500}
        assert payload["files"] == [str(tmp_path / "witness.aut")]
        assert payload["details"]["judgment"]["verdict"] == "holds"
        assert payload["wall_time_s"] >= 0

    def test_04_domain_flags(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "verify", "--program", sample("p.imp"),
            "--property", sample("prop.aut"), "--out", str(tmp_path),
            "--input-min", "-2", "--input-max", "2", "--max-steps", "100")
        assert code == 0
        assert payload["config"] == {"input_domain": [-2, 2], "max_steps": 100}


class TestValidateCommand:
    def test_01_confirmed_violation_exits_false(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "validate", "--program", sample("p_prime.imp"),
            "--property", sample("prop.aut"),
            "--witness", sample("witness_violation.aut"), "--out", str(tmp_path))
        assert code == 1
        assert payload["verdict"] == "false"
        assert payload["details"]["witness_kind"] == "violation-witness"

    def test_02_confirmed_correctness_exits_true(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "validate", "--program", sample("p.imp"),
            "--property", sample("prop.aut"),
            "--witness", sample("witness_correct.aut"), "--out", str(tmp_path))
        assert code == 0
        assert payload["verdict"] == "true"

    def test_03_unconfirmed_claim_exits_unknown(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "validate", "--program", sample("p.imp"),
            "--property", sample("prop.aut"),
            "--witness", sample("witness_violation.aut"), "--out", str(tmp_path))
        assert code == 2
        assert payload["verdict"] == "unknown"
        assert payload["files"] == []


class TestCheckConditionCommand:
    def test_01_correct_condition(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-condition", "--program", sample("p.imp"),
            "--property", sample("prop.aut"), "--condition", sample("cond.aut"))
        assert code == 0
        assert "verdict: holds" in out

    def test_02_unsound_condition(self, capsys, tmp_path):
        bad = tmp_path / "universal.aut"
        bad.write_text(corpus.UNIVERSAL_CONDITION)
        code, payload = run_json(
            capsys, "check-condition", "--program", sample("p_prime.imp"),
            "--property", sample("prop.aut"), "--condition", str(bad))
        assert code == 1
        assert payload["verdict"] == "violated"
        assert payload["details"]["judgment"]["evidence"] is not None


class TestReduceCommand:
    def test_01_writes_reparsable_residual(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "reduce", "--program", sample("p.imp"),
            "--condition", sample("cond.aut"), "--out", str(tmp_path))
        assert code == 0
        assert payload["verdict"] == "ok"
        assert payload["details"]["locations"] == 8
        assert payload["details"]["edges"] == 8
        residual = parse_cfa((tmp_path / "residual.cfa").read_text())
        assert residual.initial == 7
        assert len(residual.edges) == 8


class TestExtractTestCommand:
    def test_01_writes_the_test(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "extract-test", "--program", sample("p_prime.imp"),
            "--property", sample("prop.aut"),
            "--witness", sample("witness_violation.aut"), "--out", str(tmp_path))
        assert code == 0
        assert payload["details"]["inputs"] == [1]
        assert (tmp_path / "extracted.test").read_text() == "1\n"

    def test_02_no_violating_path(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "extract-test", "--program", sample("p.imp"),
            "--property", sample("prop.aut"),
            "--witness", sample("witness_violation.aut"), "--out", str(tmp_path))
        assert code == 1
        assert payload["verdict"] == "no-violating-path"
        assert payload["files"] == []


class TestExecTestCommand:
    def test_01_sample_test_completes(self, capsys):
        code, payload = run_json(
            capsys, "exec-test", "--program", sample("p.imp"),
            "--test", sample("t4.test"), "--property", sample("prop.aut"))
        assert code == 0
        assert payload["verdict"] == "completed"
        assert payload["details"]["final_state"] == {"a": 4, "b": 4, "x": 4}
        assert payload["details"]["violation_observed"] is False

    def test_02_violation_observed(self, capsys, tmp_path):
        test_file = tmp_path / "t1.test"
        test_file.write_text("1\n")
        code, payload = run_json(
            capsys, "exec-test", "--program", sample("p_prime.imp"),
            "--test", str(test_file), "--property", sample("prop.aut"))
        assert code == 1
        assert payload["verdict"] == "violation-observed"
        assert payload["details"]["status"] == "completed"

    def test_03_blocked_execution_is_unknown(self, capsys, tmp_path):
        empty = tmp_path / "empty.test"
        empty.write_text("# no inputs\n")
        code, payload = run_json(
            capsys, "exec-test", "--program", sample("p.imp"), "--test", str(empty))
        assert code == 2
        assert payload["verdict"] == "blocked-no-input"
        assert payload["details"]["consumed_inputs"] == 0


class TestGenTestsCommand:
    def test_01_writes_suite_files(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "gen-tests", "--program", sample("p.imp"),
            "--testgoal", sample("goals.aut"), "--out", str(tmp_path),
            "--input-min", "-2", "--input-max", "2")
        assert code == 0
        assert payload["details"]["suite_size"] == 1
        entry = payload["details"]["tests"][0]
        assert entry["inputs"] == [1]
        assert entry["goals"] == ["qf"]
        assert (tmp_path / "test_000.test").read_text() == "1\n"

    def test_02_written_tests_reload(self, capsys, tmp_path):
        run_cli(capsys, "gen-tests", "--program", sample("p.imp"),
                "--testgoal", sample("goals.aut"), "--out", str(tmp_path),
                "--input-min", "-2", "--input-max", "2")
        assert parse_test_text((tmp_path / "test_000.test").read_text()) == (1,)


class TestCheckKindCommand:
    def test_01_valid_artifacts(self, capsys):
        for flag, name in (("--property", "prop.aut"),
                           ("--witness", "witness_correct.aut"),
                           ("--condition", "cond.aut"),
                           ("--testgoal", "goals.aut")):
            code, out, _ = run_cli(capsys, "check-kind",
                                   "--program", sample("p.imp"), flag, sample(name))
            assert code == 0, name
            assert "verdict: ok" in out

    def test_02_invalid_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_text(
            "automaton bad kind=correctness-witness\n"
            "state s0 init final\n"
            "trans s0 -> s0 otherwise\n"
        )
        code, payload = run_json(capsys, "check-kind",
                                 "--program", sample("p.imp"), "--witness", str(bad))
        assert code == 1
        assert payload["verdict"] == "not-ok"
        assert payload["details"]["violations"]

    def test_03_missing_automaton_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check-kind", "--program", sample("p.imp"))
        assert code == 64
        assert "usage error" in err


class TestParseCommand:
    def test_01_echoes_canonical_program(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--program", sample("p.imp"))
        assert code == 0
        assert out.startswith("cfa\n")
        assert "edge 3 -> 4: a < x" in out

    def test_02_reports_artifact_stats(self, capsys):
        code, payload = run_json(capsys, "parse", "--program", sample("p.imp"),
                                 "--property", sample("prop.aut"))
        assert code == 0
        program_info = payload["details"]["programs"][0]
        assert program_info["locations"] == 7
        assert program_info["variables"] == ["a", "b", "x"]
        automaton_info = payload["details"]["automata"][0]
        assert automaton_info["kind"] == "property"

    def test_03_needs_an_artifact(self, capsys):
        code, _, err = run_cli(capsys, "parse")
        assert code == 64


class TestPipelineCommand:
    def test_01_execution_validation(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "pipeline", "--recipe", sample("execval.coop"),
            "--program", sample("p_prime.imp"), "--property", sample("prop.aut"),
            "--out", str(tmp_path))
        assert code == 1
        assert payload["verdict"] == "violation-observed"
        assert payload["details"]["summary"] == "violation observed by execution"
        assert [s["actor"] for s in payload["details"]["steps"]] == \
            ["verify", "extract_test", "exec_test"]
        assert (tmp_path / "witness.aut").exists()
        assert (tmp_path / "extracted.test").read_text() == "1\n"

    def test_02_reduce_verify_true(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "pipeline", "--recipe", sample("reduce_verify.coop"),
            "--program", sample("p.imp"), "--property", sample("prop.aut"),
            "--condition", sample("cond.aut"), "--out", str(tmp_path))
        assert code == 0
        assert payload["verdict"] == "true"
        residual = parse_cfa((tmp_path / "residual.cfa").read_text())
        assert residual.initial == 7

    def test_03_reduce_verify_false(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "pipeline", "--recipe", sample("reduce_verify.coop"),
            "--program", sample("p_prime.imp"), "--property", sample("prop.aut"),
            "--condition", sample("cond.aut"), "--out", str(tmp_path))
        assert code == 1
        assert payload["verdict"] == "false"


class TestErrorHandling:
    def test_01_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--program", sample("p.imp"),
                             "--property", sample("prop.aut"), "--frobnicate")
        assert code == 64

    def test_02_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--program", sample("p.imp"))
        assert code == 64

    def test_03_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--program", "no_such_file.imp",
                               "--property", sample("prop.aut"))
        assert code == 65
        assert "error" in err

    def test_04_unparsable_artifact(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.aut"
        garbage.write_text("this is not an automaton\n")
        code, _, err = run_cli(capsys, "verify", "--program", sample("p.imp"),
                               "--property", str(garbage))
        assert code == 65

    def test_05_bad_domain_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--program", sample("p.imp"),
                               "--property", sample("prop.aut"),
                               "--input-min", "5", "--input-max", "-5")
        assert code == 64
        assert "usage error" in err

    def test_06_wrong_kind_artifact(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--program", sample("p.imp"),
                               "--property", sample("cond.aut"))
        assert code == 65

    def test_07_deeply_nested_parentheses(self, capsys, tmp_path):
        deep = tmp_path / "deep.imp"
        deep.write_text("int x = " + "(" * 1500 + "1" + ")" * 1500 + ";\n")
        code, _, err = run_cli(capsys, "parse", "--program", str(deep))
        assert code == 65
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_08_long_sum_nests_deeply_when_evaluated(self, capsys, tmp_path):
        sum_text = " + ".join(["x"] * 3000)
        prop = tmp_path / "deep.aut"
        prop.write_text("automaton deep kind=property\n"
                        "state q0 init\nstate qe final\n"
                        "trans q0 -> q0 otherwise\n"
                        f"trans q0 -> qe on (*, *, *) assume {sum_text} < 0\n")
        parse_automaton(prop.read_text())
        program = tmp_path / "x.imp"
        program.write_text("int x = 1;\n")
        code, _, err = run_cli(capsys, "verify", "--program", str(program),
                               "--property", str(prop))
        assert code == 65
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_09_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no such\nthing")
        monkeypatch.setattr(actors, "verify", broken)
        code, out, err = run_cli(capsys, "verify", "--program", sample("p.imp"),
                                 "--property", sample("prop.aut"))
        assert code == 70
        assert out == ""
        assert err.startswith("internal error: RuntimeError: no such thing (at test_cli.py:")
        assert err.count("\n") == 1


def two_guard_cell(tmp_path, terms):
    """A program and a property whose every non-blocking cell is the two
    guards ``x + … + x >= 0`` and ``x + … + x < 0`` (``terms`` summands)."""
    sum_text = " + ".join(["x"] * terms)
    prop = tmp_path / "long.aut"
    prop.write_text("automaton long_guard kind=property\n"
                    "state q0 init\nstate qe final\n"
                    f"trans q0 -> q0 on (*, *, *) assume {sum_text} >= 0\n"
                    f"trans q0 -> qe on (*, *, *) assume {sum_text} < 0\n")
    program = tmp_path / "x.imp"
    program.write_text("int x = input();\nint y = x;\n")
    return ["check-kind", "--program", str(program), "--property", str(prop)]


def without_wall_time(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("wall time:"))


class TestLongGuards:
    def test_01_long_guard_is_enumerated_as_the_reference_does(self, capsys, monkeypatch,
                                                                tmp_path):
        argv = two_guard_cell(tmp_path, 900)
        log = corpus.log_compiles(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "non-blocking: bounded-proved" in out
        assert len(log.trees) == 2 and log.errors == []
        monkeypatch.setattr(kinds, "is_tautology_bounded", corpus.reference_tautology)
        reference = run_cli(capsys, *argv)
        assert (code, without_wall_time(out)) == (reference[0], without_wall_time(reference[1]))

    def test_02_too_long_guard_is_refused_before_compiling(self, capsys, monkeypatch, tmp_path):
        log = corpus.log_compiles(monkeypatch)
        code, out, err = run_cli(capsys, *two_guard_cell(tmp_path, 3000))
        assert code == 65
        assert err == "error: input nested too deeply to process\n"
        assert "Traceback" not in out + err
        assert log.trees == []


class TestSampleFiles:
    def test_01_every_sample_loads(self):
        programs = {"p.imp": 7, "p_prime.imp": 6}
        for name, locations in programs.items():
            program = corpus.program_p() if name == "p.imp" else corpus.program_p_prime()
            assert len(program.locations) == locations

        kinds = {
            "prop.aut": AutomatonKind.PROPERTY,
            "goals.aut": AutomatonKind.TEST_GOAL,
            "cond.aut": AutomatonKind.CONDITION,
            "witness_correct.aut": AutomatonKind.CORRECTNESS_WITNESS,
            "witness_violation.aut": AutomatonKind.VIOLATION_WITNESS,
        }
        for name, kind in kinds.items():
            aut = parse_automaton(corpus.sample_text(name))
            assert aut.kind is kind, name

        assert parse_test_text(corpus.sample_text("t4.test")) == (4,)

    def test_02_recipes_load(self):
        from coopverify.pipeline import parse_recipe
        assert len(parse_recipe(corpus.sample_text("execval.coop")).steps) == 3
        assert len(parse_recipe(corpus.sample_text("reduce_verify.coop")).steps) == 2
