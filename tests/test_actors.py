"""Tests for the composable actors: verifier, validator, reducer,
conditional verifier, test extractor/executor/generator."""

import collections
import random

import pytest

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
    build_test_case_automaton,
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
from coopverify.automata import EdgePattern, Transition, make_automaton
from coopverify.lang import (EMPTY_STATE, CFAEdge, ConcretePath, InputOp, PathStep, assume_op,
                             make_cfa)
from coopverify.predicates import TRUE
from reference import (
    all_runs,
    brute_force_oracle,
    naive_match_path,
    project_residual_path,
    reference_exec,
    reference_trace_block,
    replay_path,
    residual_prefixes,
    residual_program_path,
    uncovered_prefixes,
)


class TestVerify:
    def test_01_violation_produces_decision_witness(self, p_prime, cfg4):
        bundle = verify(p_prime, corpus.prop(), cfg4)
        assert bundle.result is Result.FALSE
        assert bundle.condition is None
        witness = bundle.witness
        assert witness.kind is AutomatonKind.VIOLATION_WITNESS
        assert sorted(witness.states) == ["w0", "w1", "w2"]
        assert witness.initial == "w0"
        assert witness.finals == frozenset({"w2"})
        # The witness pins the decisions of the smallest violating run of p':
        # the input x = 1, then a loop on the edges of one loop round that
        # never increments b, then the exit branch into the final state.
        moves = [(t.source, t.target, t.pattern.source, t.pattern.target)
                 for t in witness.transitions]
        assert moves == [("w0", "w1", 0, 1), ("w1", "w1", 1, 2), ("w1", "w1", 2, 3),
                         ("w1", "w1", 3, 4), ("w1", "w1", 4, 3), ("w1", "w2", 3, 6)]
        first = witness.explicit_from("w0")[0]
        assert pred_text(first.assumption) == "x == 1"
        assert bundle.judgment.verdict is Verdict.VIOLATED
        assert tuple(bundle.judgment.evidence.inputs()) == (1,)

    def test_02_violation_witness_is_kind_valid_and_replays(self, p_prime, cfg4):
        bundle = verify(p_prime, corpus.prop(), cfg4)
        assert validate_kind(bundle.witness, p_prime, cfg4.input_domain).ok
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
        # x is dead after the loop, so the exit keeps no fact over it
        assert pred_text(witness.invariant("s6")) == \
            "a == b && a >= 0 && a <= 4 && b >= 0 && b <= 4"

    def test_04_correctness_witness_is_kind_valid_and_replays(self, p, cfg4):
        bundle = verify(p, corpus.prop(), cfg4)
        assert validate_kind(bundle.witness, p, cfg4.input_domain).ok
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


def covering_by_otherwise(*guards):
    """A condition on ``samples/p.imp`` whose otherwise transition enters
    its final state, so the input edge is covered for every valuation of
    ``guards``, each the assumption of an explicit transition into the final
    state.  The text format allows only otherwise self-loops, so it is built
    directly."""
    pattern = EdgePattern(0, "int x = input()", 1)
    explicit = [Transition("q0", "qf", pattern, parse_predicate(g)) for g in guards]
    return make_automaton("covering", AutomatonKind.CONDITION, ["q0", "qf"], "q0", ["qf"],
                          explicit + [Transition("q0", "qf", None, TRUE, otherwise=True)])


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

    @pytest.mark.parametrize("rich", (False, True), ids=("simple", "rich"))
    def test_09_generated_residuals_keep_exactly_the_uncovered_paths(self, rich):
        """The reducer's contract on generated programs and conditions:
        complete residual paths, mapped back to program edges, are the
        program's complete paths that the condition does not accept, and a
        residual path stuck at a helper location is accepted once its
        trailing operation is counted."""
        rng = random.Random(7315 if rich else 7314)
        domain, max_steps = Interval(-2, 2), 60
        stuck = split = 0
        for _ in range(300):
            program = generators.random_program(rng)
            cond = generators.random_condition(rng, program, rich=rich)
            reduction = reduce_with_origin(program, cond)
            programs = enumerate_paths(program, domain, max_steps)
            # an operation and the assume edge after it take two residual steps
            residuals = enumerate_paths(reduction.residual, domain, 2 * max_steps)
            assert not programs.truncated and not residuals.truncated
            complete = set()
            for path in residuals.paths:
                mapped = residual_program_path(reduction, program, path)
                if path.final_location in reduction.mid_locations:
                    assert naive_match_path(cond, mapped).accepted
                    stuck += 1
                elif not program.edges_from(mapped.final_location):
                    complete.add(mapped)
            assert complete == {path for path in programs.paths
                                if not naive_match_path(cond, path).accepted}
            split += bool(reduction.mid_locations)
        assert split > 50 and stuck > 300

    def test_10_edge_covered_on_every_valuation_is_dropped(self, p):
        """Taking the input edge enters the final state whether ``x > 0``
        holds or not, so the residual keeps no edge at all."""
        cond = covering_by_otherwise("x > 0")
        assert validate_kind(cond, p).ok
        reduction = reduce_with_origin(p, cond)
        assert reduction.residual.edges == ()
        assert reduction.residual.locations == {reduction.residual.initial}
        assert reduction.origin == {} and reduction.mid_locations == frozenset()

    def test_11_true_guard_is_no_guard(self, p, cfg4):
        """An unguarded input transition always fires, so its edge is not
        split on ``true`` and ``!(true)``: the residual has no infeasible
        branch into a copy of the program, only the split on the guarded
        ``int a = 0``, and its walks are the uncovered ones."""
        cond = parse_automaton(
            "automaton c kind=condition\nstate q0 init\nstate q1\nstate q2 final\n"
            'trans q0 -> q1 on (0, "int x = input()", 1)\n'
            'trans q1 -> q2 on (*, "int a = 0", *) assume x > 5\n')
        reduction = reduce_with_origin(p, cond)
        texts = [e.op.text for e in reduction.residual.edges]
        assert "true" not in texts and "!(true)" not in texts
        assert texts.count("!(x > 5)") == 1
        assert len(reduction.mid_locations) == 1
        assert len(reduction.residual.locations) == 8
        assert residual_prefixes(p, cond, cfg4) == uncovered_prefixes(p, cond, cfg4)


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
        assert validate_kind(bundle.condition, p, cfg4.input_domain).ok
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

    def test_09_one_value_domain_is_one_equation(self, p):
        bundle = conditional_verify(p, corpus.prop(), corpus.cond(),
                                    AnalysisConfig(Interval(3, 3), 200))
        assert bundle.result is Result.TRUE
        (move,) = bundle.condition.explicit_from("c0")
        assert pred_text(move.assumption) == "x <= 0 || x == 3"

    def test_10_otherwise_coverage_gives_a_universal_output_condition(self, p, cfg4):
        """The condition covers the input edge through its otherwise
        transition alone: the residual reads no input, and the output
        condition accepts every input."""
        bundle = conditional_verify(p, corpus.prop(), covering_by_otherwise(), cfg4)
        assert bundle.result is Result.TRUE and bundle.judgment.exhausted
        (move,) = bundle.condition.explicit_from("c0")
        assert move.assumption == TRUE

    def test_11_guarded_otherwise_coverage_keeps_every_input(self, p, cfg4):
        """The otherwise transition covers the inputs the explicit guard
        leaves, so the output condition keeps both and accepts every input
        of the domain, soundly."""
        bundle = conditional_verify(p, corpus.prop(), covering_by_otherwise("x > 0"), cfg4)
        assert bundle.result is Result.TRUE
        (move,) = bundle.condition.explicit_from("c0")
        assert pred_text(move.assumption) == "x > 0 || !(x > 0)"
        judgment = check_condition_correct(p, corpus.prop(), bundle.condition, cfg4)
        assert judgment.verdict is Verdict.HOLDS and judgment.exhausted
        paths = enumerate_paths(p, cfg4.input_domain, cfg4.max_steps).paths
        domain = cfg4.input_domain
        assert {path.inputs() for path in paths} == {(v,) for v in range(domain.lo, domain.hi + 1)}
        assert all(accepts(bundle.condition, path) for path in paths)


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

    def test_10_generated_runs_agree_with_reference(self):
        """400 generated programs, some with one edge of an assume pair
        dropped so that a guard can block, run on up to three inputs and
        sometimes cut at a few steps: trace, status, consumed inputs and the
        property's verdict equal the reference run's, and every status
        occurs."""
        rng = random.Random(2026)
        statuses = set()
        for _ in range(400):
            program = generators.random_program(rng)
            if rng.random() < 0.5:
                program = generators.drop_assumes(rng, program)
            prop = generators.random_property(rng, program)
            inputs = generators.random_inputs(rng)
            max_steps = rng.choice((4, 200))
            report = exec_test(program, inputs, prop, max_steps)
            trace, status, consumed = reference_exec(program, inputs, max_steps)
            assert (report.trace, report.status, report.consumed) == (trace, status, consumed)
            assert report.violation_observed == naive_match_path(prop, trace).accepted
            statuses.add(status)
        assert statuses == {STATUS_COMPLETED, STATUS_NO_INPUT, STATUS_BLOCKED_ASSUME,
                            STATUS_STEP_LIMIT}

    def test_11_blocking_property_is_refused_as_verify_refuses_it(self):
        """Input 5 doubles to a = 10, where the blind-spot property's waiting
        state takes no transition: executing it refuses the property with
        verify's message and report; input 4 runs past the doubling edge."""
        program = parse_program(corpus.BLIND_SPOT_PROGRAM)
        prop = parse_automaton(corpus.BLIND_SPOT_PROPERTY)
        with pytest.raises(InvalidArtifact) as judged:
            verify(program, prop)
        with pytest.raises(InvalidArtifact) as executed:
            exec_test(program, (5,), prop)
        assert str(executed.value) == str(judged.value)
        assert executed.value.report == judged.value.report
        assert str(executed.value).endswith("state q0 blocks edge (2, a = a * 2, 3) on {a=10}")
        assert exec_test(program, (4,), prop).violation_observed is False

    def test_12_generated_blocks_agree_with_reference(self):
        """600 generated properties without otherwise loops, run on random
        inputs: exec_test refuses exactly when a watched state takes no
        transition on an executed step before the property accepts, naming
        the first such state, edge and post-state, and otherwise reports the
        reference's verdict."""
        rng = random.Random(6151)
        outcomes = collections.Counter()
        for _ in range(600):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program, otherwise=False)
            inputs = generators.random_inputs(rng)
            max_steps = rng.choice((4, 200))
            trace, _, _ = reference_exec(program, inputs, max_steps)
            block = reference_trace_block(prop, trace)
            try:
                report = exec_test(program, inputs, prop, max_steps)
            except InvalidArtifact as err:
                refuted = err.report.non_blocking
                assert block is not None
                assert (refuted.state, refuted.edge, refuted.counter_state) == (
                    block[0], block[1], dict(block[2]))
                outcomes["refused"] += 1
            else:
                assert block is None
                assert report.violation_observed == naive_match_path(prop, trace).accepted
                outcomes["observed" if report.violation_observed else "not observed"] += 1
        assert min(outcomes.values()) >= 60 and len(outcomes) == 3, outcomes

    def test_13_blocking_test_goal_automaton_is_run_not_refused(self, p):
        """The non-blocking rule is a property's: a test-goal automaton whose
        initial state takes no transition on the first edge is kind-valid,
        and executing the program with it completes without a violation."""
        goals = parse_automaton("automaton g kind=test-goal\nstate g0 init\n"
                                'state g1 final\ntrans g0 -> g1 on (*, "x > 0", *)\n')
        assert validate_kind(goals, p).ok
        report = exec_test(p, (1,), goals)
        assert (report.status, report.violation_observed) == (STATUS_COMPLETED, False)


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

    def test_08_suites_of_programs_with_choices_pass_their_coverage_check(self):
        """300 programs that may take either branch at some assumes, so one
        input sequence can run along several complete paths, at step bounds
        3, 5, 8 and 60.  Each suite holds distinct input sequences, and each
        test holds by check_test_covers with at least its own goals: that
        check follows every path of the test, where the suite lists the
        goals of its kept paths only, so it may report more."""
        rng = random.Random(4242)
        records = 0
        for _ in range(300):
            program = generators.add_choices(rng, generators.random_program(rng))
            goals = generators.random_test_goal(rng, program)
            for steps in (3, 5, 8, 60):
                config = AnalysisConfig(Interval(-2, 2), steps)
                suite = generate_tests(program, goals, config)
                sequences = suite.input_sequences()
                assert len(set(sequences)) == len(sequences)
                for record in suite.tests:
                    judgment, entries = check_test_covers(program, record.inputs, goals, config)
                    assert judgment.verdict is Verdict.HOLDS
                    assert record.goals <= entries
                    records += 1
        assert records >= 800


class TestGoalSearchStop:
    """generate_tests and check_test_covers stop once every goal entry the
    goal automaton can record is reached; their results must be those of a
    search that explores everything."""

    UNENTERED = ("automaton unentered kind=test-goal\nstate q0 init\nstate qf final\n"
                 "trans q0 -> q0 otherwise\n")

    @staticmethod
    def _full_suite(program, goals, config) -> tuple:
        """The greedy suite of a search that never stops, as (inputs, goals)
        pairs, and its number of visits: every accepted complete path in the
        explorer's order, kept when it reaches a goal no earlier kept path
        reached."""
        candidates = []
        visits = []

        def visit(v):
            visits.append(v.depth)
            if not v.successors and v.final_entries[0]:
                candidates.append((v.path.inputs(), v.final_entries[0]))
            return engine_module.CONTINUE

        engine_module.run_product(program, (goals,), config, visit)
        covered = set()
        kept = []
        for inputs, reached in candidates:
            if reached - covered:
                covered |= reached
                kept.append((inputs, reached))
        return kept, len(visits)

    @staticmethod
    def _full_covers(program, test, goals, config) -> tuple:
        """(verdict, evidence, exhausted), the goals reached, the goals
        reached by the evidence path alone, and the number of visits of a
        coverage search that prunes uncovered prefixes and never stops."""
        found = []
        covered = set()
        visits = []

        def visit(v):
            visits.append(v.depth)
            if not v.frontiers[1]:
                return engine_module.PRUNE
            if not v.successors and v.final_entries[0]:
                if not found:
                    found.append((v.path, v.final_entries[0]))
                covered.update(v.final_entries[0])
            return engine_module.CONTINUE

        case = build_test_case_automaton(test)
        truncated = engine_module.run_product(program, (goals, case), config, visit)
        first = frozenset()
        if found:
            outcome = (Verdict.HOLDS, found[0][0], True)
            first = found[0][1]
        elif truncated:
            outcome = (Verdict.UNKNOWN, None, False)
        else:
            outcome = (Verdict.VIOLATED, None, True)
        return outcome, frozenset(covered), first, len(visits)

    @staticmethod
    def _count_visits(monkeypatch) -> list:
        """Record the depth of every visit of the explorer, through the
        binding in ``engine``, which runs the goal search."""
        visits = []
        original = engine_module.run_product

        def counting(program, automata, config, visit):
            def counted(v):
                visits.append(v.depth)
                return visit(v)
            return original(program, automata, config, counted)

        monkeypatch.setattr(engine_module, "run_product", counting)
        return visits

    def test_01_results_equal_a_full_search(self, monkeypatch):
        """300 generated (program, goals) pairs at step bounds that truncate
        (3, 5, 8) and one that does not (60); two programs in three may take
        either branch at some assumes, so one test can run along several
        complete paths.  Each suite equals the full search's, test for test
        and in order, once the full search's kept paths are grouped by input
        sequence, their goals united, in first-kept order; each coverage
        check, of a random test and of every generated one, equals the full
        search's judgment and goals.  The draws must exercise the stop: it
        must cut visits in both functions, many suites must hold two tests,
        and some coverage checks must reach goals beyond their evidence
        path, so a search that stopped at its first kept test or its first
        evidence would fail.  Some draws must keep two paths of one input
        sequence, which make one test."""
        rng = random.Random(2110)
        visits = self._count_visits(monkeypatch)
        cut_suites = cut_covers = two_tests = later_goals = merged = 0
        for n in range(300):
            if n % 3 == 0:
                program = generators.random_dead_copy_program(rng)
            else:
                program = generators.add_choices(rng, generators.random_program(rng))
            goals = generators.random_test_goal(rng, program)
            inputs = generators.random_inputs(rng)
            for steps in (3, 5, 8, 60):
                config = AnalysisConfig(Interval(-2, 2), steps)
                expected, full_visits = self._full_suite(program, goals, config)
                grouped: dict = {}
                for sequence, reached in expected:
                    grouped[sequence] = grouped.get(sequence, frozenset()) | reached
                tests = list(grouped)
                merged += len(tests) < len(expected)
                visits.clear()
                suite = generate_tests(program, goals, config)
                assert [(t.inputs, t.goals) for t in suite.tests] == list(grouped.items())
                assert len(visits) <= full_visits
                cut_suites += len(visits) < full_visits
                two_tests += len(expected) >= 2
                for test in [inputs] + tests:
                    outcome, covered, first, full_visits = self._full_covers(
                        program, test, goals, config)
                    visits.clear()
                    judgment, entries = check_test_covers(program, test, goals, config)
                    assert (judgment.verdict, judgment.evidence, judgment.exhausted) == outcome
                    assert entries == covered
                    assert len(visits) <= full_visits
                    cut_covers += len(visits) < full_visits
                    later_goals += covered != first
        assert cut_suites >= 250
        assert cut_covers >= 250
        assert two_tests >= 100
        assert later_goals >= 10
        assert merged >= 5

    def test_02_sample_search_stops_at_its_only_goal(self, monkeypatch):
        """samples/p.imp with samples/goals.aut over [-48, 48]: the one goal
        is reached at x = 1, after 204 visits; the full search makes 3,917
        and keeps the same one test."""
        p, goals = corpus.program_p(), corpus.goals()
        config = AnalysisConfig(Interval(-48, 48), 500)
        expected, full_visits = self._full_suite(p, goals, config)
        visits = self._count_visits(monkeypatch)
        suite = generate_tests(p, goals, config)
        assert len(visits) == 204
        assert full_visits == 3917
        assert suite.input_sequences() == [(1,)]
        assert {entry.state for entry in suite.covered_goals()} == {"qf"}
        assert [(t.inputs, t.goals) for t in suite.tests] == expected

    def test_03_goals_without_entries_are_not_searched(self, p, monkeypatch):
        """A final state that no transition enters, and an initial state that
        is not final, give no goal to reach: the suite is empty and the
        coverage check is violated, exhausted even where the step bound
        would truncate, without an exploration."""
        goals = parse_automaton(self.UNENTERED)
        visits = self._count_visits(monkeypatch)
        tight = AnalysisConfig(Interval(-4, 4), 2)
        assert generate_tests(p, goals, tight).tests == ()
        judgment, covered = check_test_covers(p, (1,), goals, tight)
        assert (judgment.verdict, judgment.exhausted, covered) == (Verdict.VIOLATED, True,
                                                                   frozenset())
        assert visits == []

    def test_04_final_initial_state_is_a_goal(self, p, monkeypatch):
        """An initial state that is final records its entry on the empty
        prefix; it is the only goal, so the first accepted complete path
        reaches every goal and the search stops there."""
        goals = parse_automaton("automaton at_start kind=test-goal\nstate q0 init final\n"
                                "state q1\ntrans q0 -> q1 on (*, *, *)\n"
                                "trans q1 -> q1 otherwise\n")
        expected, full_visits = self._full_suite(p, goals, CFG2)
        visits = self._count_visits(monkeypatch)
        suite = generate_tests(p, goals, CFG2)
        assert [(t.inputs, t.goals) for t in suite.tests] == expected
        assert [entry.transition for entry in suite.covered_goals()] == [None]
        assert len(visits) < full_visits


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

    def test_04_generated_cooperations_agree(self):
        """On generated (program, property, condition) triples, half of the
        properties holding: every violation verify finds replays under
        exec_test from the test extracted from its witness, validate_result
        confirms every result with its witness, and verifying the reduced
        program agrees with the conditional verifier."""
        rng = random.Random(4242)
        config = AnalysisConfig(Interval(-2, 2), 50)
        outcomes = collections.Counter()
        for index in range(300):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program, holds=index % 2 == 1,
                                              domain=config.input_domain)
            cond = generators.random_condition(rng, program, rich=index % 3 == 0)
            claimed = verify(program, prop, config)
            if claimed.result is Result.FALSE:
                inputs = extract_test(program, prop, claimed.witness, config)
                assert exec_test(program, inputs, prop, config.max_steps).violation_observed
            assert validate_result(program, prop, claimed.witness, config).result is claimed.result
            residual = verify(reduce(program, cond), prop, config)
            conditional = conditional_verify(program, prop, cond, config)
            assert residual.result is conditional.result
            assert (residual.judgment, residual.witness) == (conditional.judgment,
                                                             conditional.witness)
            outcomes[claimed.result.value] += 1
            outcomes["residual " + residual.result.value] += 1
            # the condition covers every violation verify found
            outcomes["covered"] += (claimed.result is Result.FALSE
                                    and residual.result is Result.TRUE)
        assert min(outcomes["true"], outcomes["false"], outcomes["residual false"]) >= 100, outcomes
        assert outcomes["covered"] >= 5, outcomes


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
        return cls._count(monkeypatch, "run_product", (engine_module,))

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
        holding_rng = random.Random(5150)
        holding_true = 0

        def draws():
            for index in range(300):
                program = generators.random_program(rng)
                # the goalless property always holds, so it yields correctness
                # witnesses; generated properties mostly yield violation ones
                prop = goalless if index % 2 else generators.random_property(rng, program)
                yield program, prop, False
            # then holding properties that read variables, so that the key
            # names and the facts of the correctness witnesses meet
            for _ in range(160):
                program = generators.random_program(holding_rng)
                yield program, generators.random_property(holding_rng, program, holds=True), True

        for program, prop, holding in draws():
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
                    holding_true += holding and claimed.result is Result.TRUE
                echoed = validate_result(program, prop, given, config)
                if echoed.result is Result.TRUE:
                    assert echoed.witness != given
                    assert _judged(program, prop, echoed.witness, config) is Verdict.HOLDS
                    rederived += 1
        assert min(seen.values()) >= 200
        assert rederived >= 200
        assert holding_true >= 100, holding_true

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
        """One structural kind check per verify (the property), two per
        validate_result (the property and the witness), of either witness
        kind; the property's non-blocking is the search's own."""
        checks = self._count(monkeypatch, "structural_report", (kinds_module, engine_module))
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

    def test_07_properties_without_otherwise_explore_once(self, p, p_prime, cfg4, monkeypatch):
        """A property whose waiting state has no otherwise transition is
        watched for blocks by the judgment's own search: one exploration per
        verdict, counted through the bindings of engine and kinds alike,
        whether the property holds, is violated or blocks."""
        holding, violated = corpus.explicit_loop_prop(p), corpus.explicit_loop_prop(p_prime)
        correct = verify(p, holding, cfg4).witness
        universal = parse_automaton(corpus.UNIVERSAL_WITNESS)
        hopeless = parse_automaton(corpus.HOPELESS_WITNESS)
        everything = parse_automaton(corpus.UNIVERSAL_CONDITION)
        blind = parse_program(corpus.BLIND_SPOT_PROGRAM)
        blocks = parse_automaton(corpus.BLIND_SPOT_PROPERTY)
        # accept on the last edge (3, int b = 0, 4), so nothing is pruned
        # before the doubling edge blocks
        after_b = parse_automaton("automaton after_b kind=violation-witness\nstate w0 init\n"
                                  "state w1 final\ntrans w0 -> w1 on (3, *, 4)\n"
                                  "trans w0 -> w0 otherwise\n")
        covers_b = parse_automaton(serialize_automaton(after_b).replace(
            "kind=violation-witness", "kind=condition"))
        expected = [
            (lambda: verify(p, holding, cfg4).result, Result.TRUE),
            (lambda: verify(p_prime, violated, cfg4).result, Result.FALSE),
            (lambda: validate_result(p, holding, correct, cfg4).result, Result.TRUE),
            (lambda: validate_result(p_prime, violated, corpus.witness_violation(),
                                     cfg4).result, Result.FALSE),
            (lambda: check_fulfills(p, holding, cfg4).verdict, Verdict.HOLDS),
            (lambda: check_fulfills(p_prime, violated, cfg4).verdict, Verdict.VIOLATED),
            (lambda: check_correctness_witness(p, holding, correct, cfg4).verdict,
             Verdict.HOLDS),
            (lambda: check_correctness_witness(p_prime, violated, universal, cfg4).verdict,
             Verdict.VIOLATED),
            (lambda: check_violation_witness(p_prime, violated, corpus.witness_violation(),
                                             cfg4).verdict, Verdict.HOLDS),
            (lambda: check_violation_witness(p_prime, violated, hopeless, cfg4).verdict,
             Verdict.VIOLATED),
            (lambda: check_condition_correct(p, holding, corpus.cond(), cfg4).verdict,
             Verdict.HOLDS),
            (lambda: check_condition_correct(p_prime, violated, everything, cfg4).verdict,
             Verdict.VIOLATED),
        ]
        refused = [
            lambda: verify(blind, blocks),
            lambda: validate_result(blind, blocks, universal),
            lambda: validate_result(blind, blocks, after_b),
            lambda: check_fulfills(blind, blocks),
            lambda: check_correctness_witness(blind, blocks, universal),
            lambda: check_violation_witness(blind, blocks, after_b),
            lambda: check_condition_correct(blind, blocks, covers_b),
        ]
        calls = self._count(monkeypatch, "run_product", (engine_module, kinds_module))
        for run, outcome in expected:
            calls.clear()
            assert run() is outcome
            assert len(calls) == 1
        for run in refused:
            calls.clear()
            with pytest.raises(InvalidArtifact) as err:
                run()
            assert "blocks edge (2, a = a * 2, 3)" in str(err.value)
            assert len(calls) == 1

    def test_08_a_judgment_without_a_search_refuses_nothing(self, monkeypatch):
        """The blind-spot property with no final state accepts no path: the
        judgments that answer from that alone explore nothing and refuse
        nothing, while verify still searches, once, and meets the block."""
        blind = parse_program(corpus.BLIND_SPOT_PROGRAM)
        finalless = parse_automaton(corpus.BLIND_SPOT_PROPERTY.replace("state qe final",
                                                                       "state qe"))
        calls = self._count(monkeypatch, "run_product", (engine_module, kinds_module))
        assert check_fulfills(blind, finalless).verdict is Verdict.HOLDS
        assert check_violation_witness(blind, finalless,
                                       corpus.witness_violation()).verdict is Verdict.VIOLATED
        assert check_condition_correct(blind, finalless, corpus.cond()).verdict is Verdict.HOLDS
        assert calls == []
        with pytest.raises(InvalidArtifact):
            verify(blind, finalless)
        assert len(calls) == 1


class TestHoldingProperties:
    """Generated properties that hold, so verify answers true and hands its
    correctness witness on: programs with a dead input copy ``d``, where a
    witness may read what the program never does."""

    def test_01_correctness_witnesses_validate_and_mutants_match_the_oracle(self):
        """verify says true; validating its witness read back from its text
        re-derives the same text; and with one invariant replaced by a
        comparison over one variable (``d`` right after ``d = input()`` in a
        third of them), the witness judgment agrees with whether the mutant
        covers every path."""
        rng = random.Random(1616)
        config = AnalysisConfig(Interval(-1, 1), 200)
        outcomes = {True: 0, False: 0}
        dead_copy_mutants = 0
        for _ in range(300):
            program = generators.random_dead_copy_program(rng)
            prop = generators.random_property(rng, program, holds=True,
                                              domain=config.input_domain)
            claimed = verify(program, prop, config)
            assert claimed.result is Result.TRUE
            text = serialize_automaton(claimed.witness)
            echoed = validate_result(program, prop, parse_automaton(text), config)
            assert echoed.result is Result.TRUE
            assert serialize_automaton(echoed.witness) == text

            mutant = generators.replace_invariant(rng, program, claimed.witness)
            dead_copy_mutants += "d" in mutant.reads - claimed.witness.reads
            covered = (brute_force_oracle(program, [mutant], ["cover"], config)
                       == brute_force_oracle(program, [], [], config))
            judgment = check_correctness_witness(program, prop, mutant, config)
            assert (judgment.verdict is Verdict.HOLDS) == covered
            outcomes[covered] += 1
        assert min(outcomes.values()) >= 50
        assert dead_copy_mutants >= 40


def _judged(program, prop, witness, config) -> Verdict:
    """The verdict of the witness's own judgment."""
    if witness.kind is AutomatonKind.VIOLATION_WITNESS:
        return check_violation_witness(program, prop, witness, config).verdict
    return check_correctness_witness(program, prop, witness, config).verdict


def decision_witness_faults(program, prop, config):
    """The checks of :class:`TestDecisionWitness` that the witness of a
    false verdict of ``verify`` fails, by letter; None for another verdict.

    (a) validating the witness read back from its text confirms false with
    the same evidence and re-derives the same text; (b) ``extract_test``
    gives the evidence's inputs; (c) program x witness alone visits, with a
    non-empty frontier, only prefixes of the evidence, and enters the final
    state only at its end; (d) the witness has no more transitions than the
    evidence has steps."""
    bundle = verify(program, prop, config)
    if bundle.result is not Result.FALSE:
        return None
    evidence, witness = bundle.judgment.evidence, bundle.witness
    text = serialize_automaton(witness)
    faults = set()
    echoed = validate_result(program, prop, parse_automaton(text), config)
    if (echoed.result is not Result.FALSE or echoed.judgment.evidence != evidence
            or serialize_automaton(echoed.witness) != text):
        faults.add("a")
    if extract_test(program, prop, witness, config) != evidence.inputs():
        faults.add("b")
    entered = []

    def visit(v):
        if not v.frontiers[0]:
            return engine_module.PRUNE
        if v.path != ConcretePath(evidence.steps[:v.depth + 1]):
            faults.add("c")
        if v.final_entries[0]:
            entered.append(v.depth)
        return engine_module.CONTINUE

    engine_module.run_product(program, (witness,), config, visit)
    if entered != [evidence.length]:
        faults.add("c")
    if len(witness.transitions) > evidence.length:
        faults.add("d")
    return faults


class TestDecisionWitness:
    """verify's violation witness pins a path's decisions: input values,
    steps out of locations that choose, and the last edge."""

    # 4 steps cut 187 of the 400 searches short; 60 cut only one, which an
    # added choice keeps in its loop
    BOUNDS = (4, 60)

    @staticmethod
    def draws(count=400):
        """Generated programs and properties, every fifth program with
        ``assume true`` choices beside its branches."""
        for seed in range(count):
            rng = random.Random(seed)
            program = generators.random_program(rng)
            if seed % 5 == 0:
                program = generators.add_choices(rng, program)
            yield seed, program, generators.random_property(rng, program)

    def test_01_witnesses_admit_exactly_their_evidence(self):
        """Over 400 generated programs at two step bounds, every false
        verdict's witness passes checks (a) to (d) of
        :func:`decision_witness_faults`."""
        failed = []
        rows = collections.Counter()
        for seed, program, prop in self.draws():
            for bound in self.BOUNDS:
                config = AnalysisConfig(Interval(-2, 2), bound)
                faults = decision_witness_faults(program, prop, config)
                if faults is not None:
                    rows[bound, seed % 5 == 0] += 1
                    if faults:
                        failed.append((seed, bound, sorted(faults)))
        assert failed == []
        # false verdicts at each bound, with and without added choices
        assert min(rows.values()) >= 60

    def test_02_each_decision_rule_is_needed(self):
        """Two runs that only an exact witness confines: one leaves a
        location with an ``assume true`` choice beside its branches once
        each way, the other passes its last edge twice after reading an
        input that the property tests.  Without choices, without the last
        edge's decisions or without the pin, check (c) fails."""
        branching = parse_program("int c = 0;\nwhile (c < 3) {\n  if (c < 0) {\n    c--;\n"
                                  "  } else {\n    c++;\n  }\n}\n")
        choosing = make_cfa(branching.locations, branching.initial,
                            (*branching.edges, CFAEdge(2, assume_op(TRUE), 3)),
                            branching.variables)
        counting = parse_program("int x = input();\nint a = 0;\nwhile (a < 2) {\n  a++;\n}\n")
        config = AnalysisConfig(Interval(-1, 1), 40)
        for program, observed, guard, decisions in (
                (choosing, "c--", "c == 0", ["!(c < 0)", "true", "c--"]),
                (counting, "a++", "a == 2 && x == 0", ["int x = input()", "a++", "a++"])):
            prop = parse_automaton("automaton back kind=property\nstate q0 init\nstate qe final\n"
                                   f'trans q0 -> qe on (*, "{observed}", *) assume {guard}\n'
                                   "trans q0 -> q0 otherwise\n")
            assert decision_witness_faults(program, prop, config) == set()
            witness = verify(program, prop, config).witness
            assert [t.pattern.op_text for t in witness.transitions
                    if t.source != t.target] == decisions
