"""End-to-end tests of the command-line interface against the samples."""

import ast
import json
import random
import re
import shlex
import shutil

import pytest

import corpus
from coopverify import (
    AutomatonKind,
    actors,
    parse_automaton,
    parse_cfa,
    validate_kind,
)
from coopverify.cli import build_parser, main, parse_test_text


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


    def test_05_blocking_property_is_an_invalid_artifact(self, capsys, tmp_path):
        """Input 5 doubles to a = 10, outside the input interval, where the
        property's run dies before it can accept."""
        code, out, err = run_cli(capsys, "verify", *blind_spot(tmp_path), "--out", str(tmp_path))
        assert (code, out) == (65, "")
        assert err == ("error: automaton blind_spot violates its kind constraints:\n"
                       "kind property: not ok\n"
                       "  non-blocking: refuted: state q0 blocks edge (2, a = a * 2, 3) "
                       "on {a=10}\n")

    def test_06_unbound_assumption_names_where_it_is_read(self, capsys, tmp_path):
        prop = tmp_path / "reads_b.aut"
        prop.write_text("automaton reads_b kind=property\nstate q0 init\nstate qe final\n"
                        "trans q0 -> qe on (*, *, *) assume b > 3\n"
                        "trans q0 -> q0 otherwise\n")
        program = blind_spot(tmp_path)[1]
        code, out, err = run_cli(capsys, "verify", "--program", program,
                                 "--property", str(prop), "--out", str(tmp_path))
        assert (code, out) == (65, "")
        assert err == ("error: automaton reads_b, state q0, transition q0 -> qe on (*, *, *) "
                       "assume b > 3, edge (0, int a = 0, 1): "
                       "variable 'b' is not bound in the data state\n")

    def test_07_flags_of_one_run_do_not_carry_over(self, capsys, tmp_path):
        """The parser is built once per process; each run still starts from
        the defaults."""
        argv = ("verify", "--program", sample("p.imp"), "--property", sample("prop.aut"),
                "--out", str(tmp_path))
        code, payload = run_json(capsys, *argv, "--input-min", "0", "--max-steps", "90")
        assert (code, payload["config"]) == (0, {"input_domain": [0, 8], "max_steps": 90})
        assert build_parser() is build_parser()
        code, payload = run_json(capsys, *argv)
        assert (code, payload["config"]) == (0, {"input_domain": [-8, 8], "max_steps": 500})


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

    def test_04_unbound_initial_invariant_names_its_state(self, capsys, tmp_path):
        """The initial invariant holds on the empty prefix, where nothing is
        bound yet; reading x there is a kind violation, which names the
        automaton and its initial state."""
        witness = tmp_path / "w.aut"
        witness.write_text(corpus.sample_text("witness_correct.aut").replace(
            "state s0 init\n", "state s0 init inv: x >= 0\n"))
        code, out, err = run_cli(capsys, "validate", "--program", sample("p.imp"),
                                 "--property", sample("prop.aut"), "--witness", str(witness),
                                 "--out", str(tmp_path))
        assert (code, out) == (65, "")
        assert err == ("error: automaton loop_sync violates its kind constraints:\n"
                       "kind correctness-witness: not ok\n"
                       "  [initial-invariant] s0: invariant read on the empty prefix: "
                       "variable 'x' is not bound in the data state\n")


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

    def test_04_blocking_property_is_an_invalid_artifact(self, capsys, tmp_path):
        """Input 5 doubles to a = 10, where the blind-spot property blocks:
        exec-test refuses it as verify does (TestVerifyCommand::test_05)."""
        test_file = tmp_path / "t5.test"
        test_file.write_text("5\n")
        code, out, err = run_cli(capsys, "exec-test", *blind_spot(tmp_path), "--test", str(test_file))
        assert (code, out) == (65, "")
        assert err == ("error: automaton blind_spot violates its kind constraints:\n"
                       "kind property: not ok\n"
                       "  non-blocking: refuted: state q0 blocks edge (2, a = a * 2, 3) "
                       "on {a=10}\n")

    def test_05_test_goal_automaton_is_not_a_property(self, capsys, tmp_path):
        """A test-goal automaton watched as the property is refused, by the
        subcommand and by its one-step recipe, as verify refuses it; before,
        exec-test reported its goal as an observed violation (exit 1)."""
        recipe = tmp_path / "exec.coop"
        recipe.write_text("step exec_test p t phi_b\n")
        flags = ("--program", sample("p.imp"), "--property", sample("goals.aut"),
                 "--test", sample("t4.test"), "--out", str(tmp_path))
        message = "expected a property automaton, got test-goal (loop_entry)\n"
        assert run_cli(capsys, "exec-test", *flags) == (65, "", "error: " + message)
        assert run_cli(capsys, "pipeline", "--recipe", str(recipe), *flags) == \
            (65, "", "error: step 0 (exec_test) failed: " + message)
        assert run_cli(capsys, "verify", *flags[:4])[0] == 65


class TestDeepWitnessRoundTrip:
    """A violation witness of a 3,004-step run through the commands: it
    pins the input and the loop exit, so its text is a few lines."""

    PROGRAM = ("int c = input();\nint i = 0;\nint s = 5;\n"
               "while (i < 1000) {\n  s = s + 3 * i;\n  i++;\n}\n")
    PROPERTY = ("automaton first kind=property\nstate q0 init\nstate qe final\n"
                'trans q0 -> qe on (*, "!(i < 1000)", *) assume c == -3\n'
                "trans q0 -> q0 otherwise\n")

    def test_01_verify_validate_extract_and_execute(self, capsys, tmp_path):
        program, prop = tmp_path / "siblings.imp", tmp_path / "first.aut"
        program.write_text(self.PROGRAM)
        prop.write_text(self.PROPERTY)
        files = ("--program", str(program), "--property", str(prop))
        bounds = ("--input-min", "-3", "--input-max", "0", "--max-steps", "3014")
        code, payload = run_json(capsys, "verify", *files, *bounds, "--out", str(tmp_path))
        assert (code, payload["verdict"]) == (1, "false")
        assert len(payload["details"]["judgment"]["evidence"]) == 3005
        witness = tmp_path / "witness.aut"
        assert len(witness.read_text().splitlines()) <= 12
        with_witness = (*files, "--witness", str(witness), *bounds, "--out", str(tmp_path))
        code, payload = run_json(capsys, "validate", *with_witness)
        assert (code, payload["verdict"]) == (1, "false")
        code, payload = run_json(capsys, "extract-test", *with_witness)
        assert (code, payload["details"]["inputs"]) == (0, [-3])
        code, payload = run_json(capsys, "exec-test", "--program", str(program),
                                 "--property", str(prop), "--max-steps", "3014",
                                 "--test", str(tmp_path / "extracted.test"))
        assert (code, payload["verdict"]) == (1, "violation-observed")


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

    def test_03_one_test_per_input_sequence(self, capsys, tmp_path):
        """Input 1 runs along both branches from location 1, and each branch
        enters its own goal: the suite holds one test covering both."""
        program = tmp_path / "choice.cfa"
        program.write_text("cfa\ninit 0\nedge 0 -> 1: int x = input()\n"
                           "edge 1 -> 2: x > 0\nedge 1 -> 2: true\n")
        goals = tmp_path / "goals.aut"
        goals.write_text("automaton two kind=test-goal\nstate q0 init\n"
                         "state ga final\nstate gb final\n"
                         'trans q0 -> ga on (1, "x > 0", 2)\n'
                         'trans q0 -> gb on (1, "true", 2)\n'
                         "trans q0 -> q0 otherwise\n")
        out = tmp_path / "suite"
        code, payload = run_json(capsys, "gen-tests", "--program", str(program),
                                 "--testgoal", str(goals), "--out", str(out),
                                 "--input-min", "1", "--input-max", "1")
        assert code == 0
        assert [entry["goals"] for entry in payload["details"]["tests"]] == [["ga", "gb"]]
        assert sorted(path.name for path in out.iterdir()) == ["test_000.test"]
        assert (out / "test_000.test").read_text() == "1\n"


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

    def test_04_more_than_one_automaton_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-kind", "--program", sample("p.imp"),
                                 "--property", sample("prop.aut"),
                                 "--witness", sample("cond.aut"))
        assert code == 64
        assert out == ""
        assert err == "usage error: check-kind takes one automaton file, not 2\n"


    def test_05_refutation_is_a_reachable_post_state(self, capsys, tmp_path):
        """Over [-20, 20] the blind-spot property first blocks on reading 9;
        after the first edge a is always 0, so {a=9} is no post-state of it."""
        code, out, _ = run_cli(capsys, "check-kind", *blind_spot(tmp_path),
                               "--input-min", "-20", "--input-max", "20")
        assert code == 1
        assert without_wall_time(out) == (
            "verdict: not-ok\nkind property: not ok\n"
            "  non-blocking: refuted: state q0 blocks edge (1, a = input(), 2) on {a=9}")

    def test_06_max_steps_bounds_the_search(self, capsys, tmp_path):
        """The blind spot's block is the third step."""
        for steps, code in (("2", 0), ("3", 1)):
            got, payload = run_json(capsys, "check-kind", *blind_spot(tmp_path),
                                    "--max-steps", steps)
            assert (got, payload["config"]["max_steps"]) == (code, int(steps))

    def test_07_unbound_initial_invariant_is_not_ok(self, capsys, tmp_path):
        """The witness that ``validate`` refuses for reading x on the empty
        prefix fails its kind check too."""
        witness = tmp_path / "w.aut"
        witness.write_text(corpus.sample_text("witness_correct.aut").replace(
            "state s0 init\n", "state s0 init inv: x >= 0\n"))
        code, payload = run_json(capsys, "check-kind", "--program", sample("p.imp"),
                                 "--witness", str(witness))
        assert code == 1
        assert payload["verdict"] == "not-ok"
        assert [v["constraint"] for v in payload["details"]["violations"]] == ["initial-invariant"]

    def test_08_json_keeps_the_refutation(self, capsys, tmp_path):
        """The JSON details name the block that the text prints: state, edge
        and post-state; a property that does not block has no refutation."""
        code, payload = run_json(capsys, "check-kind", *blind_spot(tmp_path))
        assert code == 1
        assert payload["details"]["non_blocking"] == "refuted"
        assert payload["details"]["refutation"] == {
            "state": "q0", "edge": [2, "a = a * 2", 3], "post_state": {"a": 10}}
        code, payload = run_json(capsys, "check-kind", "--program", sample("p.imp"),
                                 "--property", sample("prop.aut"))
        assert code == 0
        assert "refutation" not in payload["details"]


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

    def test_04_exhausted_comes_from_the_verdict_step(self, capsys, tmp_path):
        for program, steps, exhausted in (("p.imp", "500", True), ("p.imp", "10", False),
                                          ("p_prime.imp", "500", True)):
            code, payload = run_json(
                capsys, "pipeline", "--recipe", sample("reduce_verify.coop"),
                "--program", sample(program), "--property", sample("prop.aut"),
                "--condition", sample("cond.aut"), "--max-steps", steps,
                "--out", str(tmp_path))
            assert payload["exhausted"] is exhausted, (program, steps)
        code, payload = run_json(
            capsys, "pipeline", "--recipe", sample("execval.coop"),
            "--program", sample("p_prime.imp"), "--property", sample("prop.aut"),
            "--out", str(tmp_path))
        assert payload["verdict"] == "violation-observed"
        assert payload["exhausted"] is None


# Every actor subcommand on samples/, as flag/sample pairs; the flags bind
# the actor's input roles in the order its one-step recipe names them.
ROLE_OF_FLAG = {"--program": "p", "--property": "phi_b", "--testgoal": "phi_t",
                "--witness": "omega", "--condition": "psi", "--test": "t"}
ACTOR_RUNS = (
    ("verify", "verify", (("--program", "p.imp"), ("--property", "prop.aut")), ()),
    ("verify", "verify", (("--program", "p_prime.imp"), ("--property", "prop.aut")), ()),
    ("verify", "verify", (("--program", "p.imp"), ("--property", "prop.aut")),
     ("--max-steps", "10")),
    ("validate", "validate", (("--program", "p.imp"), ("--property", "prop.aut"),
                              ("--witness", "witness_correct.aut")), ()),
    ("validate", "validate", (("--program", "p_prime.imp"), ("--property", "prop.aut"),
                              ("--witness", "witness_violation.aut")), ()),
    ("validate", "validate", (("--program", "p.imp"), ("--property", "prop.aut"),
                              ("--witness", "witness_violation.aut")), ()),
    ("reduce", "reduce", (("--program", "p.imp"), ("--condition", "cond.aut")), ()),
    ("extract-test", "extract_test", (("--program", "p_prime.imp"), ("--property", "prop.aut"),
                                      ("--witness", "witness_violation.aut")), ()),
    ("exec-test", "exec_test", (("--program", "p.imp"), ("--test", "t4.test"),
                                ("--property", "prop.aut")), ()),
    ("exec-test", "exec_test", (("--program", "p.imp"), ("--test", "t4.test")),
     ("--max-steps", "5")),
    ("gen-tests", "gen_tests", (("--program", "p.imp"), ("--testgoal", "goals.aut")),
     ("--input-min", "-2", "--input-max", "2")),
)


def actor_argv(command, flags, extra, out):
    argv = [command, "--out", str(out), *extra]
    for flag, name in flags:
        argv += [flag, sample(name)]
    return argv


def one_step_recipe(tmp_path, actor, flags):
    recipe = tmp_path / f"{actor}.coop"
    recipe.write_text(f"step {actor} {' '.join(ROLE_OF_FLAG[flag] for flag, _ in flags)}\n")
    return str(recipe)


def written(directory):
    """Name -> bytes of every file written under ``directory``."""
    if not directory.exists():
        return {}
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestActorSubcommands:
    def test_01_each_written_file_is_reported_once(self, capsys, tmp_path):
        """One ``wrote <path>`` line per written file (gen-tests also names
        each file in its suite listing, which is not a ``wrote`` line)."""
        for index, (command, _, flags, extra) in enumerate(ACTOR_RUNS):
            out_dir = tmp_path / str(index)
            code, out, err = run_cli(capsys, *actor_argv(command, flags, extra, out_dir))
            assert err == "", command
            files = [str(out_dir / name) for name in written(out_dir)]
            wrote = [line[len("wrote "):] for line in out.splitlines()
                     if line.startswith("wrote ")]
            assert sorted(wrote) == files, command

    def test_02_subcommand_agrees_with_its_one_step_recipe(self, capsys, tmp_path):
        for index, (command, actor, flags, extra) in enumerate(ACTOR_RUNS):
            cli_out, recipe_out = tmp_path / f"cli{index}", tmp_path / f"recipe{index}"
            cli_code, cli = run_json(capsys, *actor_argv(command, flags, extra, cli_out))
            recipe_code, recipe = run_json(
                capsys, *actor_argv("pipeline", flags, extra, recipe_out),
                "--recipe", one_step_recipe(tmp_path, actor, flags))
            label = (command, flags, extra)
            assert cli_code == recipe_code, label
            assert (cli["verdict"], cli["exhausted"]) == \
                (recipe["verdict"], recipe["exhausted"]), label
            assert written(cli_out) == written(recipe_out), label

    def test_03_no_violating_path_is_a_verdict_only_on_the_subcommand(self, capsys, tmp_path):
        flags = (("--program", "p.imp"), ("--property", "prop.aut"),
                 ("--witness", "witness_violation.aut"))
        code, payload = run_json(capsys, *actor_argv("extract-test", flags, (), tmp_path))
        assert (code, payload["verdict"]) == (1, "no-violating-path")
        code, out, err = run_cli(capsys, *actor_argv("pipeline", flags, (), tmp_path),
                                 "--recipe", one_step_recipe(tmp_path, "extract_test", flags))
        assert (code, out) == (65, "")
        assert err.startswith("error: step 0 (extract_test) failed: ")
        assert not (tmp_path / "extracted.test").exists()


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

    @pytest.mark.parametrize("name, text, where", [
        ("label.imp", "int x = 1;\n" + "9" * 5000 + ": x = 2;\n", "at line 2, column 1"),
        ("const.imp", "int x = 1;\nx = " + "9" * 5000 + ";\n", "at line 2, column 5"),
        ("init.cfa", "cfa\ninit x\nedge 0 -> 1: int x = 1\n", "at line 2"),
        ("loc.cfa", "cfa\ninit 0\nloc x\nedge 0 -> 1: int x = 1\n", "at line 3"),
        ("edge.cfa", "cfa\ninit 0\nedge 0 -> q: int x = 1\n", "at line 3"),
        ("end.aut", "automaton a kind=property\nstate q0 init\nstate qe final\n"
                    "trans q0 -> q0 otherwise\ntrans q0 -> qe on (" + "9" * 5000 + ", *, *)\n",
         "at line 5"),
    ])
    def test_10_bad_integer_field_is_a_positioned_parse_error(self, capsys, tmp_path,
                                                             name, text, where):
        path = tmp_path / name
        path.write_text(text)
        flag = "--property" if name.endswith(".aut") else "--program"
        code, _, err = run_cli(capsys, "parse", flag, str(path))
        assert code == 65
        assert err.startswith("error: expected an integer, found ")
        assert err.rstrip().endswith(where)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, text, message", [
        ("init.cfa", "cfa\ninit 0_0\nedge 0 -> 1: int x = 1\n",
         "expected an integer, found '0_0' at line 2"),
        ("init-words.cfa", "cfa\ninit 0 junk\nedge 0 -> 1: int x = 1\n",
         "expected 'init <location>' at line 2"),
        ("loc.cfa", "cfa\ninit 0\nloc 1_0\nedge 0 -> 1: int x = 1\n",
         "expected an integer, found '1_0' at line 3"),
        ("loc-words.cfa", "cfa\ninit 0\nloc 1 2\nedge 0 -> 1: int x = 1\n",
         "expected 'loc <location>' at line 3"),
        ("source.cfa", "cfa\ninit 0\nedge +0 -> 1: int x = 1\n",
         "expected an integer, found '+0' at line 3"),
        ("target.cfa", "cfa\ninit 0\nedge 0 -> 1_0: int x = 1\n",
         "expected an integer, found '1_0' at line 3"),
        ("edge-words.cfa", "cfa\ninit 0\nedge 0 -> 1 trailing: int x = 1\n",
         "malformed edge header at line 3"),
        ("match-source.cfa", "cfa\ninit 0\nedge 0 -> 1 [match 0_0 -> 1]: int x = 1\n",
         "expected an integer, found '0_0' at line 3"),
        ("match-target.cfa", "cfa\ninit 0\nedge 0 -> 1 [match 0 -> +1]: int x = 1\n",
         "expected an integer, found '+1' at line 3"),
        ("match-words.cfa", "cfa\ninit 0\nedge 0 -> 1 [match 0 -> 1] x: int x = 1\n",
         "malformed match annotation at line 3"),
        ("digits.aut", "automaton a kind=property\nstate q0 init\nstate qe final\n"
                       "trans q0 -> q0 otherwise\ntrans q0 -> qe on (\u0663, *, *)\n",
         "expected an integer, found '\u0663' at line 5"),
        ("header.cfa", "cfa junk words\ninit 0\nedge 0 -> 1: int x = 1\n",
         "expected 'cfa' header at line 1"),
        ("vars.cfa", "cfa\nvars 1_0 +x\ninit 0\nedge 0 -> 1: int x = 1\n",
         "expected a variable name, found '1_0' at line 2"),
        ("vars-sign.cfa", "cfa\nvars x +x\ninit 0\nedge 0 -> 1: int x = 1\n",
         "expected a variable name, found '+x' at line 2"),
        ("vars-keyword.cfa", "cfa\nvars while\ninit 0\nedge 0 -> 1: int x = 1\n",
         "expected a variable name, found 'while' at line 2"),
        ("underscore.test", "1\n1_0\n", "expected an integer, found '1_0' at line 2"),
        ("plus.test", "# inputs\n+4\n", "expected an integer, found '+4' at line 2"),
    ])
    def test_11_integer_fields_are_strict(self, capsys, tmp_path, name, text, message):
        """Integer fields are ASCII ``-?[0-9]+`` and header lines have
        exactly their words; anything else is refused with its line."""
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if name.endswith(".test"):
            argv = ("exec-test", "--program", sample("p.imp"), "--test", str(path))
        else:
            argv = ("parse", "--property" if name.endswith(".aut") else "--program", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (65, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name, text, message", [
        ("character.imp", "int x = 1 @ 2;\n", "unexpected character '@' at line 1, column 11"),
        ("comparison.imp", "int x = input();\nif (x + 1) { x = 2; }\n",
         "expected a comparison operator (found ')') at line 2, column 10"),
        ("statement.imp", "int x = 1;\n;\n",
         "expected a statement (found ';') at line 2, column 1"),
        ("state-id.aut", "automaton a kind=property\nstate  inv: a == 0\n",
         "state line needs a state id at line 2"),
        ("two-inits.aut", "automaton a kind=property\nstate q0 init\nstate q1 init\n",
         "two states marked init at line 3"),
        ("no-init.aut", "automaton a kind=property\nstate q0\nstate q1 final\n",
         "no state marked init"),
        ("undeclared.aut", "automaton a kind=property\nstate q0 init\n"
                           "trans q0 -> q9 on (*, *, *)\n",
         "transition q0 -> q9 on (*, *, *) uses an undeclared state"),
        ("operation.cfa", "cfa\ninit 0\nedge 0 -> 1 int x = 1\n",
         "edge line needs ': <operation>' at line 3"),
        ("line.cfa", "cfa\ninit 0\nedge 0 -> 1: int x = 1\nbogus line\n",
         "unrecognized line 'bogus line' at line 4"),
    ])
    def test_12_malformed_sources_name_their_fault(self, capsys, tmp_path, name, text, message):
        """Each parser refusal exits 65 with one ``error:`` line, positioned
        where the parser knows the line."""
        path = tmp_path / name
        path.write_text(text)
        flag = "--property" if name.endswith(".aut") else "--program"
        assert run_cli(capsys, "parse", flag, str(path)) == (65, "", f"error: {message}\n")


class TestNestingDepth:
    """Too deep a nesting is a parse error at the line being parsed; the
    1500 levels are far past the interpreter's recursion limit, the 100 far
    below it."""

    @staticmethod
    def nested(depth):
        return "(" * depth + "x" + ")" * depth

    def deep_files(self, tmp_path, depth):
        """A program and a property, each nested ``depth`` deep on line 2."""
        program = tmp_path / "deep.imp"
        program.write_text(f"int x = input();\nint y = {self.nested(depth)};\n")
        prop = tmp_path / "deep.aut"
        prop.write_text("automaton deep kind=property\n"
                        f"trans q0 -> qe on (*, *, *) assume {self.nested(depth)} < -100\n"
                        "state q0 init\nstate qe final\ntrans q0 -> q0 otherwise\n")
        return str(program), str(prop)

    @pytest.mark.parametrize("flag", ["--program", "--property"])
    def test_01_too_deep_nesting_names_its_line(self, capsys, tmp_path, flag):
        program, prop = self.deep_files(tmp_path, 1500)
        code, out, err = run_cli(capsys, "parse", flag, program if flag == "--program" else prop)
        assert (code, out) == (65, "")
        assert err.startswith("error: ") and "nested too deeply" in err
        assert re.search(r"at line 2(, column \d+)?$", err.rstrip())
        assert err.count("\n") == 1

    def test_02_moderate_nesting_parses_and_runs(self, capsys, tmp_path):
        program, prop = self.deep_files(tmp_path, 100)
        code, out, _ = run_cli(capsys, "verify", "--program", program, "--property", prop,
                               "--out", str(tmp_path))
        assert code == 0
        assert "verdict: true" in out

    def test_03_too_deep_cfa_edge_operation_names_its_line(self, capsys, tmp_path):
        program = tmp_path / "deep.cfa"
        program.write_text(f"cfa\ninit 0\nedge 0 -> 1: int y = {self.nested(1500)}\n")
        code, out, err = run_cli(capsys, "parse", "--program", str(program))
        assert (code, out) == (65, "")
        assert err.startswith("error: bad operation on edge line: ")
        assert "nested too deeply" in err
        assert re.search(r"at line 3(, column \d+)?$", err.rstrip())
        assert err.count("\n") == 1 and err.count(" at line ") == 1


class TestReadmeQuickStart:
    """Every ``coopverify`` command of the README's fenced blocks runs in a
    directory holding a copy of ``samples/``, in order, and exits with the
    code of the verdict its comment states."""

    EXIT_CODES = {"true": 0, "holds": 0, "ok": 0, "completed": 0, "false": 1,
                  "violated": 1, "violation-observed": 1, "no-violating-path": 1,
                  "unknown": 2}

    @staticmethod
    def commands():
        """(argv, stated verdict or None) of each command, in README order."""
        text = (corpus.SAMPLES.parent / "README.md").read_text(encoding="utf-8")
        found = []
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("coopverify "):
                    found.append([shlex.split(line)[1:], None])
                elif line.startswith("# verdict: ") and found and found[-1][1] is None:
                    found[-1][1] = re.match(r"# verdict: ([\w-]+)", line).group(1)
        return found

    def test_01_every_command_gives_its_stated_verdict(self, capsys, tmp_path, monkeypatch):
        shutil.copytree(corpus.SAMPLES, tmp_path / "samples")
        monkeypatch.chdir(tmp_path)
        commands = self.commands()
        assert len(commands) >= 9
        assert sum(verdict is not None for _, verdict in commands) >= 4
        for argv, verdict in commands:
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 1, 2), (argv, err)
            if verdict is not None:
                assert f"verdict: {verdict}\n" in out, argv
                assert code == self.EXIT_CODES[verdict], argv


def two_guard_cell(tmp_path, terms):
    """A program and a property with no otherwise loop whose two guards,
    ``x + … + x >= 0`` and ``x + … + x < 0`` (``terms`` summands), match
    every edge."""
    sum_text = " + ".join(["x"] * terms)
    prop = tmp_path / "long.aut"
    prop.write_text("automaton long_guard kind=property\n"
                    "state q0 init\nstate qe final\n"
                    f"trans q0 -> q0 on (*, *, *) assume {sum_text} >= 0\n"
                    f"trans q0 -> qe on (*, *, *) assume {sum_text} < 0\n")
    program = tmp_path / "x.imp"
    program.write_text("int x = input();\nint y = x;\n")
    return ["check-kind", "--program", str(program), "--property", str(prop)]


def blind_spot(tmp_path):
    """The --program and --property flags of a property that blocks only on
    values outside the input interval: a = 2 * input() reaches 10."""
    program = tmp_path / "blind.imp"
    program.write_text("int a = 0;\na = input();\na = a * 2;\nint b = 0;\n")
    prop = tmp_path / "blind.aut"
    prop.write_text("automaton blind_spot kind=property\nstate q0 init\nstate qe final\n"
                    "trans q0 -> q0 on (*, *, *) assume a < 9\n"
                    "trans q0 -> qe on (3, *, 4) assume a > 9\n")
    return ["--program", str(program), "--property", str(prop)]


def without_wall_time(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("wall time:"))


class TestLongGuards:
    def test_01_long_guard_is_searched_with_one_compile_per_guard(self, capsys, monkeypatch,
                                                                  tmp_path):
        """The search evaluates each guard on every reached step, from code
        compiled once per guard."""
        log = corpus.log_compiles(monkeypatch)
        code, out, err = run_cli(capsys, *two_guard_cell(tmp_path, 450))
        assert (code, err) == (0, "")
        assert "non-blocking: bounded-proved" in out
        sums = [tree for tree in log.trees
                if sum(isinstance(node, ast.BinOp) for node in ast.walk(tree)) == 449]
        assert len(sums) == 2 and log.errors == []

    def test_02_too_long_guard_is_refused_before_compiling(self, capsys, monkeypatch, tmp_path):
        log = corpus.log_compiles(monkeypatch)
        code, out, err = run_cli(capsys, *two_guard_cell(tmp_path, 3000))
        assert code == 65
        assert err == "error: input nested too deeply to process\n"
        assert "Traceback" not in out + err
        assert log.trees == []

    def test_03_entering_a_final_state_does_not_walk_the_guard(self, capsys, tmp_path):
        """A transition hashes without its assumption, so a run entering a
        final state through a guard of 900 terms, twice test_01's, records
        its entry without recursing through the guard."""
        code, out, err = run_cli(capsys, *two_guard_cell(tmp_path, 900))
        assert (code, err) == (0, "")
        assert "non-blocking: bounded-proved" in out

    def test_04_judgment_enters_a_final_state_through_a_long_guard(self, capsys, tmp_path):
        """As test_03, in a judgment's search: verify finds the violation."""
        check_kind = two_guard_cell(tmp_path, 900)
        prop = tmp_path / "long_final.aut"
        prop.write_text("automaton long_final kind=property\nstate q0 init\nstate qe final\n"
                        f"trans q0 -> qe on (*, *, *) assume {' + '.join(['x'] * 900)} >= 0\n"
                        "trans q0 -> q0 otherwise\n")
        code, out, err = run_cli(capsys, "verify", *check_kind[1:3], "--property", str(prop),
                                 "--out", str(tmp_path))
        assert (code, err) == (1, "")
        assert out.startswith("verdict: false\n")


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


# Subcommand -> the sample bound to each artifact flag it reads.  A mutated
# file replaces the sample under its flag in every subcommand that has that
# flag; check-kind takes one automaton, so its automaton flag is the
# mutated file's own (or ``--property`` when the program is mutated).
FUZZ_READERS = {
    "parse": {},
    "verify": {"--program": "p.imp", "--property": "prop.aut"},
    "validate": {"--program": "p_prime.imp", "--property": "prop.aut",
                 "--witness": "witness_violation.aut"},
    "check-condition": {"--program": "p.imp", "--property": "prop.aut",
                        "--condition": "cond.aut"},
    "reduce": {"--program": "p.imp", "--condition": "cond.aut"},
    "extract-test": {"--program": "p_prime.imp", "--property": "prop.aut",
                     "--witness": "witness_violation.aut"},
    "exec-test": {"--program": "p.imp", "--test": "t4.test", "--property": "prop.aut"},
    "gen-tests": {"--program": "p.imp", "--testgoal": "goals.aut"},
    "check-kind": {"--program": "p.imp"},
    "pipeline": {"--recipe": "execval.coop", "--program": "p_prime.imp",
                 "--property": "prop.aut"},
}
FUZZ_FLAGS = {"parse": set(ROLE_OF_FLAG), "check-kind": set(ROLE_OF_FLAG) - {"--test"},
              "pipeline": set(ROLE_OF_FLAG) | {"--recipe"}}
FUZZ_SAMPLES = {"p.imp": "--program", "p_prime.imp": "--program", "prop.aut": "--property",
                "goals.aut": "--testgoal", "cond.aut": "--condition",
                "witness_correct.aut": "--witness", "witness_violation.aut": "--witness",
                "t4.test": "--test", "execval.coop": "--recipe", "reduce_verify.coop": "--recipe"}
FUZZ_SEED = 1
FUZZ_MUTANTS = 6  # per sample, each fed to every subcommand that reads it
FUZZ_TOKENS = (b"(", b")", b"{", b"}", b";", b"*", b"-", b"\n", b"input()", b"assume ",
               b"otherwise", b"init", b"final", b"trans q0 -> q0 ", b"step ", b"9999999999",
               b"kind=", b"\xff", b"\x00", b"# ")


def mutate(rng, data):
    """Random bytes, or ``data`` with a few bytes, tokens or slices changed."""
    if rng.random() < 0.2:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        choice = rng.randrange(5)
        if choice == 0 and data:
            data[min(at, len(data) - 1)] = rng.randrange(256)
        elif choice == 1:
            del data[at:at + rng.randint(1, 8)]
        elif choice == 2:
            data[at:at] = rng.choice(FUZZ_TOKENS)
        elif choice == 3:
            data[at:at] = data[rng.randrange(len(data) + 1):][:rng.randint(1, 16)]
        else:
            del data[at:]
    return bytes(data)


def fuzz_runs(flag, path, out):
    """The argv of every subcommand that reads ``flag``, with ``path`` under it."""
    for command, samples in FUZZ_READERS.items():
        if flag not in FUZZ_FLAGS.get(command, samples):
            continue
        files = {f: sample(name) for f, name in samples.items()}
        if command == "check-kind" and flag == "--program":
            files["--property"] = sample("prop.aut")
        files[flag] = path
        argv = [command, "--input-min", "-2", "--input-max", "2", "--max-steps", "60",
                "--out", str(out)]
        for f, name in files.items():
            argv += [f, name]
        yield argv


class TestMalformedInputs:
    def test_01_mutated_samples_end_in_a_documented_exit(self, capsys, tmp_path):
        rng = random.Random(FUZZ_SEED)
        seen = set()
        for name, flag in FUZZ_SAMPLES.items():
            original = corpus.sample_path(name).read_bytes()
            for index in range(FUZZ_MUTANTS):
                data = mutate(rng, original)
                path = tmp_path / f"{index}_{name}"
                path.write_bytes(data)
                for argv in fuzz_runs(flag, str(path), tmp_path / "out"):
                    code, out, err = run_cli(capsys, *argv)
                    label = (argv[0], flag, data)
                    assert code in (0, 1, 2, 64, 65), label
                    assert "Traceback" not in out + err, label
                    if code in (64, 65):
                        assert err.strip(), label
                    seen.add(code)
        assert {0, 65} <= seen  # the mutants reach both analysis and refusal
