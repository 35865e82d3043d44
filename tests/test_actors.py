"""Tests for the composable actors: verifier, validator, reducer,
conditional verifier, test extractor/executor/generator."""

import random

import pytest

import coopverify.actors as actors_module
import coopverify.cli as cli_module
import coopverify.engine as engine_module
import coopverify.kinds as kinds_module
import corpus
import generators
from corpus import CFG2
from coopverify import (
    AnalysisConfig,
    ArtifactAutomaton,
    AutomatonKind,
    InvalidArtifact,
    Interval,
    NoViolatingPath,
    Result,
    Verdict,
    accepts,
    check_condition_correct,
    check_correctness_witness,
    check_fulfills,
    check_test_covers,
    check_violation_witness,
    conditional_verify,
    enumerate_paths,
    exec_test,
    extract_test,
    generate_tests,
    parse_automaton,
    parse_cfa,
    parse_predicate,
    parse_program,
    pred_text,
    reduce,
    serialize_automaton,
    validate_kind,
    validate_result,
    verify,
)
from coopverify.actors import (
    STATUS_BLOCKED_ASSUME,
    STATUS_COMPLETED,
    STATUS_NO_INPUT,
    STATUS_STEP_LIMIT,
    TestRecord as Record,
    TestSuite as Suite,
    reduce_with_origin,
)
from coopverify.lang import EMPTY_STATE, ConcretePath, InputOp, PathStep
from reference import (
    all_runs,
    naive_match_path,
    project_residual_path,
    replay_path,
    residual_prefixes,
    uncovered_prefixes,
)


class TestVerify:
    def test_01_violation_produces_single_path_witness(self, p_prime, cfg4):
        bundle = verify(p_prime, corpus.prop(), cfg4)
        assert bundle.result is Result.FALSE
        assert bundle.condition is None
        witness = bundle.witness
        assert witness.kind is AutomatonKind.VIOLATION_WITNESS
        assert sorted(witness.states) == [f"w{i}" for i in range(7)]
        assert witness.initial == "w0"
        assert witness.finals == frozenset({"w6"})
        # The chain retraces the smallest violating run of p': x = 1, one
        # loop iteration that never increments b, then the exit branch.
        patterns = [
            (t.pattern.source, t.pattern.target)
            for i in range(6)
            for t in witness.explicit_from(f"w{i}")
        ]
        assert patterns == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3), (3, 6)]
        first = witness.explicit_from("w0")[0]
        assert pred_text(first.assumption) == "x == 1"
        assert bundle.judgment.verdict is Verdict.VIOLATED
        assert tuple(bundle.judgment.evidence.inputs()) == (1,)

    def test_02_violation_witness_is_kind_valid_and_replays(self, p_prime, cfg4):
        bundle = verify(p_prime, corpus.prop(), cfg4)
        assert validate_kind(bundle.witness, p_prime, cfg4).ok
        replay = check_violation_witness(p_prime, corpus.prop(), bundle.witness, cfg4)
        assert replay.verdict is Verdict.HOLDS

    def test_03_success_produces_invariant_witness(self, p, cfg4):
        bundle = verify(p, corpus.prop(), cfg4)
        assert bundle.result is Result.TRUE
        witness = bundle.witness
        assert witness.kind is AutomatonKind.CORRECTNESS_WITNESS
        assert sorted(witness.states) == [f"s{i}" for i in range(7)]
        assert witness.finals == frozenset()
        assert pred_text(witness.invariant("s0")) == "true"
        loop_head = (
            "a == b && a >= 0 && a <= 4 && b >= 0 && b <= 4"
            " && x >= -4 && x <= 4"
        )
        assert pred_text(witness.invariant("s3")) == loop_head
        assert pred_text(witness.invariant("s6")) == loop_head

    def test_04_correctness_witness_is_kind_valid_and_replays(self, p, cfg4):
        bundle = verify(p, corpus.prop(), cfg4)
        assert validate_kind(bundle.witness, p, cfg4).ok
        replay = check_correctness_witness(p, corpus.prop(), bundle.witness, cfg4)
        assert replay.verdict is Verdict.HOLDS

    def test_05_truncated_search_is_unknown_without_witness(self, p):
        tight = AnalysisConfig(Interval(-4, 4), 2)
        bundle = verify(p, corpus.prop(), tight)
        assert bundle.result is Result.UNKNOWN
        assert bundle.witness is None
        assert bundle.judgment.verdict is Verdict.UNKNOWN
        assert not bundle.judgment.exhausted

    def test_06_rejects_non_property(self, p, cfg4):
        with pytest.raises(InvalidArtifact):
            verify(p, corpus.cond(), cfg4)


class TestValidateResult:
    def test_01_confirms_false_claim(self, p_prime, cfg4):
        bundle = validate_result(p_prime, corpus.prop(), corpus.witness_violation(), cfg4)
        assert bundle.result is Result.FALSE
        assert bundle.witness.kind is AutomatonKind.VIOLATION_WITNESS
        assert bundle.judgment.verdict is Verdict.HOLDS
        assert tuple(bundle.judgment.evidence.inputs()) == (1,)

    def test_02_confirms_true_claim(self, p, cfg4):
        bundle = validate_result(p, corpus.prop(), corpus.witness_correct(), cfg4)
        assert bundle.result is Result.TRUE
        assert bundle.witness.kind is AutomatonKind.CORRECTNESS_WITNESS
        assert bundle.judgment.verdict is Verdict.HOLDS

    def test_03_unconfirmed_violation_claim_is_unknown(self, p, cfg4):
        # p has no violating path, so the witness confirms nothing.
        bundle = validate_result(p, corpus.prop(), corpus.witness_violation(), cfg4)
        assert bundle.result is Result.UNKNOWN
        assert bundle.witness is None

    def test_04_unconfirmed_correctness_claim_is_unknown(self, p_prime, cfg4):
        bundle = validate_result(p_prime, corpus.prop(), corpus.witness_correct(), cfg4)
        assert bundle.result is Result.UNKNOWN
        assert bundle.witness is None

    def test_05_rejects_other_witness_kinds(self, p, cfg4):
        with pytest.raises(InvalidArtifact):
            validate_result(p, corpus.prop(), corpus.cond(), cfg4)

    def test_06_agrees_with_verify_on_corpus(self, p, p_prime, cfg4):
        for program in (p, p_prime):
            claimed = verify(program, corpus.prop(), cfg4)
            echoed = validate_result(program, corpus.prop(), claimed.witness, cfg4)
            assert echoed.result is claimed.result


class TestReduce:
    def test_01_residual_structure_for_sample_condition(self, p):
        reduction = reduce_with_origin(p, corpus.cond())
        residual = reduction.residual
        assert residual.initial == 7
        assert residual.locations == frozenset({1, 2, 3, 4, 5, 6, 7, 8})
        assert reduction.mid_locations == frozenset({8})
        assert len(residual.edges) == 8

        entry = residual.edges_from(7)
        assert len(entry) == 1
        assert entry[0].op.text == "int x = input()"
        # Match labels keep the original endpoints so artifact patterns
        # written against p still apply to the residual.
        assert (entry[0].match_src, entry[0].match_tgt) == (0, 1)

        split = residual.edges_from(8)
        assert len(split) == 1
        assert split[0].target == 1
        assert split[0].op.text == "!(x <= 0)"

    def test_02_untouched_suffix_is_copied_verbatim(self, p):
        reduction = reduce_with_origin(p, corpus.cond())
        originals = {(e.source, e.target): e for e in p.edges}
        copied = [e for e in reduction.residual.edges if e.source in range(1, 7)]
        assert len(copied) == 6
        for edge in copied:
            assert edge is originals[(edge.source, edge.target)]
            assert reduction.origin[edge] is edge

    def test_03_projection_drops_split_edges(self, p, cfg4):
        reduction = reduce_with_origin(p, corpus.cond())
        result = enumerate_paths(reduction.residual, cfg4.input_domain, cfg4.max_steps)
        input_edge = p.edges_from(0)[0]
        for path in result.paths:
            projected = project_residual_path(reduction, path)
            if path.final_location in reduction.mid_locations:
                # Stuck at the split: the consumed input belongs to a
                # covered continuation, so nothing residual remains.
                assert projected == ()
                continue
            assert projected[0][0] is input_edge
            assert all(edge in reduction.origin.values() for edge, _ in projected)

    def test_04_covered_inputs_get_stuck_at_the_split(self, p, cfg4):
        residual = reduce(p, corpus.cond())
        result = enumerate_paths(residual, cfg4.input_domain, cfg4.max_steps)
        stuck = [path for path in result.paths if path.final_location == 8]
        assert sorted(path.final_state["x"] for path in stuck) == [-4, -3, -2, -1, 0]

    def test_05_unmatched_condition_copies_program(self, p, cfg4):
        reduction = reduce_with_origin(p, parse_automaton(corpus.UNREACHABLE_CONDITION))
        assert residual_prefixes(p, parse_automaton(corpus.UNREACHABLE_CONDITION), cfg4) \
            == uncovered_prefixes(p, parse_automaton(corpus.UNREACHABLE_CONDITION), cfg4)
        assert len(reduction.residual.edges) == len(p.edges)
        assert reduction.mid_locations == frozenset()

    def test_06_instantly_final_condition_leaves_nothing(self, p):
        residual = reduce(p, parse_automaton(corpus.INSTANT_CONDITION))
        assert residual.edges == ()
        assert len(residual.locations) == 1

    def test_07_residual_behavior_is_the_uncovered_behavior(self, p, p_prime, cfg4):
        conditions = (
            corpus.cond(),
            parse_automaton(corpus.UNREACHABLE_CONDITION),
            parse_automaton(corpus.UNIVERSAL_CONDITION),
            parse_automaton(corpus.INSTANT_CONDITION),
        )
        checked = 0
        for program in (p, p_prime):
            for cond in conditions:
                left = residual_prefixes(program, cond, cfg4)
                right = uncovered_prefixes(program, cond, cfg4)
                assert left == right, cond.name
                checked += 1
        assert checked == 8

    def test_08_rejects_non_condition(self, p):
        with pytest.raises(InvalidArtifact):
            reduce(p, corpus.goals())


class TestConditionalVerify:
    def test_01_success_extends_the_condition(self, p, cfg4):
        bundle = conditional_verify(p, corpus.prop(), corpus.cond(), cfg4)
        assert bundle.result is Result.TRUE
        out = bundle.condition
        assert out.kind is AutomatonKind.CONDITION
        assert sorted(out.states) == ["c0", "c1"]
        assert out.finals == frozenset({"c1"})
        move = out.explicit_from("c0")[0]
        assert (move.pattern.source, move.pattern.target) == (0, 1)
        assert move.pattern.op_text == "int x = input()"
        assert pred_text(move.assumption) == "x <= 0 || x >= -4 && x <= 4"

    def test_02_output_condition_covers_every_explored_path(self, p, cfg4):
        bundle = conditional_verify(p, corpus.prop(), corpus.cond(), cfg4)
        assert validate_kind(bundle.condition, p, cfg4).ok
        result = enumerate_paths(p, cfg4.input_domain, cfg4.max_steps)
        assert all(accepts(bundle.condition, path) for path in result.paths)

    def test_03_output_condition_is_sound(self, p, cfg4):
        bundle = conditional_verify(p, corpus.prop(), corpus.cond(), cfg4)
        judgment = check_condition_correct(p, corpus.prop(), bundle.condition, cfg4)
        assert judgment.verdict is Verdict.HOLDS

    def test_04_violation_in_the_residual(self, p_prime, cfg4):
        bundle = conditional_verify(p_prime, corpus.prop(), corpus.cond(), cfg4)
        assert bundle.result is Result.FALSE
        assert bundle.condition is None
        # The witness speaks about the residual: its first pattern carries
        # the match labels of the original input edge.
        first = bundle.witness.explicit_from(bundle.witness.initial)[0]
        assert (first.pattern.source, first.pattern.target) == (0, 1)
        assert pred_text(first.assumption) == "x == 1"

    def test_05_already_universal_condition_is_echoed(self, p, cfg4):
        cond = parse_automaton(corpus.INSTANT_CONDITION)
        bundle = conditional_verify(p, corpus.prop(), cond, cfg4)
        assert bundle.result is Result.TRUE
        assert bundle.condition is cond

    def test_06_multiple_input_edges_yield_no_condition(self, cfg4):
        program = parse_program("int x = input();\nint y = input();\nint a = 0;\n")
        prop = parse_automaton(
            "automaton far kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            "trans q0 -> qe on (9, \"z = 0\", 10)\n"
            "trans q0 -> q0 otherwise\n"
        )
        cond = parse_automaton(corpus.UNREACHABLE_CONDITION)
        bundle = conditional_verify(program, prop, cond, cfg4)
        assert bundle.result is Result.TRUE
        assert bundle.condition is None

    def test_07_repeating_loop_keeps_the_output_condition(self):
        """The residual loops forever on every input.  The product search
        meets the repeating configuration and ends exhausted, so every input
        is verified; a path enumeration would run into the step bound and
        give no output condition at all."""
        program = parse_program("int x = input(); int y = 0; while (y < 1) { y = y; }")
        cond = parse_automaton(
            "automaton nonpositive kind=condition\nstate q0 init\nstate q1 final\n"
            'trans q0 -> q1 on (0, "int x = input()", 1) assume x <= 0\n')
        prop = parse_automaton(
            "automaton big_exit kind=property\nstate q0 init\nstate qe final\n"
            'trans q0 -> qe on (*, "!(y < 1)", *) assume x > 100\n'
            "trans q0 -> q0 otherwise\n")
        cfg = AnalysisConfig(Interval(-3, 3), 50)
        bundle = conditional_verify(program, prop, cond, cfg)
        assert bundle.result is Result.TRUE and bundle.judgment.exhausted
        (move,) = bundle.condition.explicit_from("c0")
        assert pred_text(move.assumption) == "x <= 0 || x >= -3 && x <= 3"
        assert check_condition_correct(program, prop, bundle.condition, cfg).verdict \
            is Verdict.HOLDS

    def test_08_verified_inputs_are_the_enumerated_ones(self):
        """Where the residual's paths can be enumerated within the step
        bound, the output condition accepts an input value on the first
        edge exactly when the input condition did or some residual path
        reads it first."""
        rng = random.Random(9182)
        cfg = AnalysisConfig(Interval(-2, 2), 60)
        checked = 0
        for _ in range(400):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program)
            cond = generators.random_condition(rng, program)
            input_edges = [e for e in program.edges if isinstance(e.op, InputOp)]
            bundle = conditional_verify(program, prop, cond, cfg)
            if (bundle.result is not Result.TRUE or len(input_edges) != 1
                    or input_edges[0].source != program.initial):
                continue
            residual = reduce(program, cond)
            result = enumerate_paths(residual, cfg.input_domain, cfg.max_steps)
            assert not result.truncated
            verified = {path.inputs()[0] for path in result.paths if path.inputs()}
            (edge,) = input_edges
            for value in cfg.input_domain:
                first = ConcretePath((PathStep(EMPTY_STATE, program.initial, None),
                                      PathStep(EMPTY_STATE.bind(edge.op.target, value),
                                               edge.target, edge)))
                before = naive_match_path(cond, first).accepted
                after = (bundle.condition is not None
                         and naive_match_path(bundle.condition, first).accepted)
                assert after == (before or value in verified)
            checked += 1
        assert checked > 20


class TestExtractTest:
    def test_01_extracts_smallest_violating_inputs(self, p_prime, cfg4):
        inputs = extract_test(p_prime, corpus.prop(), corpus.witness_violation(), cfg4)
        assert inputs == (1,)

    def test_02_no_violating_path_raises(self, p, cfg4):
        with pytest.raises(NoViolatingPath, match="yields no violating path"):
            extract_test(p, corpus.prop(), corpus.witness_violation(), cfg4)

    def test_03_missing_witness_raises(self, p, cfg4):
        with pytest.raises(NoViolatingPath, match="no violation witness"):
            extract_test(p, corpus.prop(), None, cfg4)

    def test_04_input_free_program_gives_empty_test(self, cfg4):
        program = parse_program("int a = 0;\nint b = 1;\n")
        prop = parse_automaton(
            "automaton mism kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            "trans q0 -> qe on (1, \"int b = 1\", 2) assume a != b\n"
            "trans q0 -> q0 otherwise\n"
        )
        witness = parse_automaton(
            "automaton anywhere kind=violation-witness\n"
            "state w0 init final\n"
            "trans w0 -> w0 otherwise\n"
        )
        assert extract_test(program, prop, witness, cfg4) == ()


class TestExecTest:
    def test_01_completed_run_without_violation(self, p, cfg4):
        report = exec_test(p, (4,), corpus.prop(), cfg4.max_steps)
        assert report.status == STATUS_COMPLETED
        assert report.consumed == 1
        assert report.violation_observed is False
        assert report.trace.final_location == 6
        assert dict(report.trace.final_state) == {"a": 4, "b": 4, "x": 4}

    def test_02_completed_run_with_violation(self, p_prime, cfg4):
        report = exec_test(p_prime, (1,), corpus.prop(), cfg4.max_steps)
        assert report.status == STATUS_COMPLETED
        assert report.violation_observed is True
        assert dict(report.trace.final_state) == {"a": 1, "b": 0, "x": 1}

    def test_03_violation_flag_tracks_the_property(self, p_prime, cfg4):
        report = exec_test(p_prime, (0,), corpus.prop(), cfg4.max_steps)
        assert report.status == STATUS_COMPLETED
        assert report.violation_observed is False

    def test_04_no_property_means_no_flag(self, p, cfg4):
        report = exec_test(p, (4,), max_steps=cfg4.max_steps)
        assert report.status == STATUS_COMPLETED
        assert report.violation_observed is None

    def test_05_empty_test_blocks_at_the_input(self, p):
        report = exec_test(p, ())
        assert report.status == STATUS_NO_INPUT
        assert report.consumed == 0
        assert report.trace.final_location == 0
        assert len(report.trace.steps) == 1

    def test_06_unsatisfiable_assume_blocks(self):
        program = parse_cfa(
            "cfa\ninit 0\nedge 0 -> 1: int a = 0\nedge 1 -> 2: a > 0\n"
        )
        report = exec_test(program, ())
        assert report.status == STATUS_BLOCKED_ASSUME
        assert report.trace.final_location == 1

    def test_07_step_limit(self):
        program = parse_program("int a = 0;\nwhile (a >= 0) {\n  a++;\n}\n")
        report = exec_test(program, (), max_steps=10)
        assert report.status == STATUS_STEP_LIMIT
        assert len(report.trace.steps) == 11

    def test_08_extra_inputs_are_left_unconsumed(self, p):
        report = exec_test(p, (2, 5, 5))
        assert report.status == STATUS_COMPLETED
        assert report.consumed == 1

    def test_09_trace_replays_on_the_program(self, p, p_prime):
        for program, inputs in ((p, (3,)), (p_prime, (2,))):
            report = exec_test(program, inputs)
            assert replay_path(program, report.trace)


class TestGenerateTests:
    def test_01_single_goal_suite(self, p):
        suite = generate_tests(p, corpus.goals(), CFG2)
        assert [t.inputs for t in suite.tests] == [(1,)]
        record = suite.tests[0]
        assert record.generator == "generate_tests"
        assert {entry.state for entry in record.goals} == {"qf"}

    def test_02_two_goal_suite_in_exploration_order(self, p):
        goals = parse_automaton(corpus.TWO_GOALS)
        suite = generate_tests(p, goals, CFG2)
        assert [t.inputs for t in suite.tests] == [(-2,), (1,)]
        covered = {entry.state for entry in suite.covered_goals()}
        assert covered == {"qa", "qb"}

    def test_03_each_test_passes_the_coverage_judgment(self, p):
        for goals in (corpus.goals(), parse_automaton(corpus.TWO_GOALS)):
            suite = generate_tests(p, goals, CFG2)
            for record in suite.tests:
                verdict, entries = check_test_covers(p, record.inputs, goals, CFG2)
                assert verdict.verdict is Verdict.HOLDS
                assert entries == record.goals

    def test_04_unreachable_goals_give_empty_suite(self, p):
        suite = generate_tests(p, parse_automaton(corpus.UNREACHABLE_GOALS), CFG2)
        assert suite.tests == ()

    def test_05_suite_covers_all_reachable_goal_states(self, p):
        goals = parse_automaton(corpus.TWO_GOALS)
        suite = generate_tests(p, goals, CFG2)
        result = enumerate_paths(p, CFG2.input_domain, CFG2.max_steps)
        reachable = set()
        for path in result.paths:
            for run in all_runs(goals, path):
                reachable |= {state for _, state in run if state in goals.finals}
        achieved = {entry.state for entry in suite.covered_goals()}
        assert achieved == reachable

    def test_06_duplicate_inputs_rejected(self):
        a = Record((1,), "g", frozenset())
        b = Record((1,), "h", frozenset())
        with pytest.raises(ValueError):
            Suite((a, b))

    def test_07_random_programs_suites_are_consistent(self):
        rng = random.Random(7301)
        for _ in range(6):
            program = generators.random_program(rng)
            goals = generators.random_test_goal(rng, program)
            suite = generate_tests(program, goals, CFG2)
            seen = set()
            for record in suite.tests:
                assert record.inputs not in seen
                seen.add(record.inputs)
                verdict, entries = check_test_covers(program, record.inputs, goals, CFG2)
                assert verdict.verdict is Verdict.HOLDS
                assert entries == record.goals
                assert record.goals


class TestCooperation:
    def test_01_condition_plus_residual_proof_implies_fulfillment(self, p, p_prime, cfg4):
        """A correct condition and a verified residual prove the program."""
        conditions = (corpus.cond(), parse_automaton(corpus.UNREACHABLE_CONDITION))
        prop = corpus.prop()
        exercised = 0
        for program in (p, p_prime):
            for cond in conditions:
                cond_ok = check_condition_correct(program, prop, cond, cfg4)
                residual = conditional_verify(program, prop, cond, cfg4)
                if cond_ok.verdict is Verdict.HOLDS and residual.result is Result.TRUE:
                    direct = check_fulfills(program, prop, cfg4)
                    assert direct.verdict is Verdict.HOLDS
                    exercised += 1
        assert exercised >= 1

    def test_02_extracted_test_reproduces_the_violation(self, p_prime, cfg4):
        bundle = verify(p_prime, corpus.prop(), cfg4)
        inputs = extract_test(p_prime, corpus.prop(), bundle.witness, cfg4)
        report = exec_test(p_prime, inputs, corpus.prop(), cfg4.max_steps)
        assert report.status == STATUS_COMPLETED
        assert report.violation_observed is True

    def test_03_witnesses_round_trip_through_the_validator(self, p, p_prime, cfg4):
        for program, expected in ((p, Result.TRUE), (p_prime, Result.FALSE)):
            bundle = verify(program, corpus.prop(), cfg4)
            confirmed = validate_result(program, corpus.prop(), bundle.witness, cfg4)
            assert confirmed.result is expected


class TestOneExploration:
    """verify and validate_result explore through the judgments' search: one
    product run decides the verdict and yields the witness, and each
    automaton's kind is checked once.  Neither re-checks the witness it
    hands back; the gates test_03 and test_04 check every emitted and
    re-derived witness by its own judgment instead."""

    @staticmethod
    def _count(monkeypatch, name, modules) -> list:
        """Record the arguments of every call of ``name``, through the
        binding in each of ``modules`` (the first holds the original)."""
        calls = []
        original = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    @classmethod
    def _count_runs(cls, monkeypatch) -> list:
        return cls._count(monkeypatch, "run_product", (engine_module, actors_module))

    def test_01_validating_an_equal_witness_explores_once(self, p, cfg4, monkeypatch):
        emitted = verify(p, corpus.prop(), cfg4).witness
        calls = self._count_runs(monkeypatch)
        for witness in (emitted, parse_automaton(serialize_automaton(emitted))):
            calls.clear()
            bundle = validate_result(p, corpus.prop(), witness, cfg4)
            assert bundle.result is Result.TRUE
            assert bundle.witness == witness
            assert len(calls) == 1

    def test_02_verify_explores_once(self, p, p_prime, cfg4, monkeypatch):
        calls = self._count_runs(monkeypatch)
        for program in (p, p_prime):
            calls.clear()
            verify(program, corpus.prop(), cfg4)
            assert len(calls) == 1

    def test_03_rederived_correctness_witness_is_the_verified_one(self, p, cfg4):
        """Every witness verify emits holds by its own judgment and equals
        itself read back from its text, and validating it re-derives an
        equal one.  A generated correctness witness that validates yields a
        different re-derived witness, which holds by its own judgment too."""
        claimed = verify(p, corpus.prop(), cfg4)
        echoed = validate_result(p, corpus.prop(), claimed.witness, cfg4)
        assert serialize_automaton(echoed.witness) == serialize_automaton(claimed.witness)
        rng = random.Random(8086)
        given_rng = random.Random(4004)
        goalless = parse_automaton(corpus.GOALLESS_PROPERTY)
        configs = (CFG2, AnalysisConfig(Interval(0, 2), 200))
        seen = {Result.TRUE: 0, Result.FALSE: 0}
        rederived = 0
        for index in range(300):
            program = generators.random_program(rng)
            # the goalless property always holds, so it yields correctness
            # witnesses; generated properties mostly yield violation ones
            prop = goalless if index % 2 else generators.random_property(rng, program)
            given = generators.random_correctness_witness(given_rng, program)
            for config in configs:
                claimed = verify(program, prop, config)
                if claimed.witness is not None:
                    assert _judged(program, prop, claimed.witness, config) is Verdict.HOLDS
                    parsed = parse_automaton(serialize_automaton(claimed.witness))
                    assert parsed == claimed.witness
                    seen[claimed.result] += 1
                    echoed = validate_result(program, prop, parsed, config)
                    assert echoed.result is claimed.result
                    assert echoed.witness == claimed.witness
                echoed = validate_result(program, prop, given, config)
                if echoed.result is Result.TRUE:
                    assert echoed.witness != given
                    assert _judged(program, prop, echoed.witness, config) is Verdict.HOLDS
                    rederived += 1
        assert min(seen.values()) >= 200
        assert rederived >= 200

    @pytest.mark.parametrize("result", [Result.TRUE, Result.FALSE])
    def test_04_deep_witnesses_hold(self, result):
        """The generated programs stay under 200 steps; a counting loop of
        300 rounds takes 904, on one input where the property holds, or on
        four sibling inputs of which the first violates it."""
        n, low = 300, -2
        steps = 3 * n + 4
        if result is Result.TRUE:
            read, limit = "n", "n"
            guard, config = f"s != {n * (n - 1) // 2}", AnalysisConfig(Interval(n, n), steps)
        else:
            read, limit = "c", str(n)
            guard, config = f"c == {low}", AnalysisConfig(Interval(low, low + 3), steps)
        program = parse_program(f"int {read} = input();\nint i = 0;\nint s = 0;\n"
                                f"while (i < {limit}) {{\n  s = s + i;\n  i++;\n}}\n")
        prop = parse_automaton(
            "automaton deep kind=property\nstate q0 init\nstate qe final\n"
            f'trans q0 -> qe on (*, "!(i < {limit})", *) assume {guard}\n'
            "trans q0 -> q0 otherwise\n")
        claimed = verify(program, prop, config)
        assert claimed.result is result and claimed.judgment.exhausted
        assert _judged(program, prop, claimed.witness, config) is Verdict.HOLDS
        parsed = parse_automaton(serialize_automaton(claimed.witness))
        echoed = validate_result(program, prop, parsed, config)
        assert echoed.result is result
        assert echoed.witness == claimed.witness

    def test_05_validating_a_different_witness_explores_once(self, p, cfg4, monkeypatch):
        given = corpus.witness_correct()
        calls = self._count_runs(monkeypatch)
        bundle = validate_result(p, corpus.prop(), given, cfg4)
        assert bundle.result is Result.TRUE
        assert bundle.witness != given
        assert len(calls) == 1

    def test_06_each_kind_is_checked_once(self, p, p_prime, cfg4, monkeypatch):
        """One kind check per verify (the property), two per validate_result
        (the property and the witness), of either witness kind."""
        checks = self._count(monkeypatch, "validate_kind",
                             (kinds_module, engine_module, actors_module, cli_module))
        for program, sample in ((p, corpus.witness_correct()),
                                (p_prime, corpus.witness_violation())):
            checks.clear()
            emitted = verify(program, corpus.prop(), cfg4).witness
            assert [args[0].kind for args in checks] == [AutomatonKind.PROPERTY]
            for witness in (emitted, sample):
                checks.clear()
                assert validate_result(program, corpus.prop(), witness, cfg4).witness is not None
                assert [args[0].kind for args in checks] == [AutomatonKind.PROPERTY,
                                                             witness.kind]


def _judged(program, prop, witness, config) -> Verdict:
    """The verdict of the witness's own judgment."""
    if witness.kind is AutomatonKind.VIOLATION_WITNESS:
        return check_violation_witness(program, prop, witness, config).verdict
    return check_correctness_witness(program, prop, witness, config).verdict
