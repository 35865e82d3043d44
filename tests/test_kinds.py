"""Tests for the structural constraints of the six automaton kinds."""

import dataclasses
import random

import pytest

import corpus
import generators
from coopverify.automata import AutomatonKind, EdgePattern, parse_automaton
from coopverify.kinds import (
    BOUNDED_PROVED,
    PROVED,
    REFUTED,
    NOT_APPLICABLE,
    build_test_case_automaton,
    validate_kind,
)
from coopverify.predicates import CHI, Comparison, Const, Interval

DOM = Interval(-2, 2)


def violated_constraints(report):
    return {v.constraint for v in report.violations}


class TestValidateKind:
    def test_01_property_sample_is_ok(self, p):
        report = validate_kind(corpus.prop(), p, DOM)
        assert report.ok
        assert report.non_blocking.status == BOUNDED_PROVED

    def test_02_correctness_witness_sample_is_ok(self, p):
        report = validate_kind(corpus.witness_correct(), p)
        assert report.ok
        assert report.non_blocking.status == NOT_APPLICABLE

    def test_03_condition_with_escape_from_final(self, p):
        text = corpus.sample_text("cond.aut") + 'trans q1 -> q1 on (1, "int a = 0", 2)\n'
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert violated_constraints(report) == {"no-exit-from-final"}

    def test_04_property_without_otherwise_blocks(self, p):
        """Deleting the waiting loop leaves the input edge with an empty guard
        disjunction, which is falsifiable by the empty state."""
        text = corpus.sample_text("prop.aut").replace("trans q0 -> q0 otherwise\n", "")
        report = validate_kind(parse_automaton(text), p, DOM)
        assert not report.ok
        assert report.non_blocking.status == REFUTED
        assert report.non_blocking.state == "q0"
        blocked = report.non_blocking.edge
        assert (blocked.source, blocked.target) == (0, 1)
        assert report.non_blocking.counter_state == {}

    def test_05_property_needs_domain(self, p):
        with pytest.raises(ValueError):
            validate_kind(corpus.prop(), p)

    def test_06_remaining_samples_are_ok(self, p):
        for aut in (corpus.goals(), corpus.cond(), corpus.witness_violation()):
            assert validate_kind(aut, p, DOM).ok

    def test_07_fully_guarded_property_is_proved_syntactically(self, p):
        """When a guard matches every edge, each cell is the syntactic pair
        guard-or-its-negation and no enumeration is needed.  The sample
        property instead guards only one edge; the remaining cells reduce to
        a bare true, which enumeration confirms, hence bounded-proved."""
        aut = parse_automaton(
            "automaton total kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            'trans q0 -> qe on (*, *, *) assume a != b\n'
            'trans q0 -> q0 otherwise\n')
        report = validate_kind(aut, p, DOM)
        assert report.ok
        assert report.non_blocking.status == PROVED
        aut2 = parse_automaton(
            "automaton split kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            'trans q0 -> qe on (*, *, *) assume a != b\n'
            'trans q0 -> q0 on (*, *, *) assume !(a != b)\n')
        report = validate_kind(aut2, p, DOM)
        assert report.ok
        assert report.non_blocking.status == PROVED

    def test_08_validation_is_idempotent(self, p):
        first = validate_kind(corpus.prop(), p, DOM)
        second = validate_kind(corpus.prop(), p, DOM)
        assert first == second

    def test_09_report_str_mentions_outcome(self, p):
        assert "ok" in str(validate_kind(corpus.prop(), p, DOM))
        text = corpus.sample_text("prop.aut").replace("trans q0 -> q0 otherwise\n", "")
        report = validate_kind(parse_automaton(text), p, DOM)
        assert "refuted" in str(report)


class TestKindMutations:
    """Each mutation breaks exactly the constraint it targets."""

    def test_01_invariant_added_to_property(self, p):
        text = corpus.sample_text("prop.aut").replace(
            "state q0 init", "state q0 init inv: a == b")
        report = validate_kind(parse_automaton(text), p, DOM)
        assert not report.ok
        assert violated_constraints(report) == {"trivial-invariants"}

    def test_02_transition_leaving_condition_final(self, p):
        text = corpus.sample_text("cond.aut") + 'trans q1 -> q0 on (1, "int a = 0", 2)\n'
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert violated_constraints(report) == {"no-exit-from-final"}

    def test_03_assumption_added_to_correctness_witness(self, p):
        text = corpus.sample_text("witness_correct.aut").replace(
            'trans s0 -> s1 on (0, "int x = input()", 1)',
            'trans s0 -> s1 on (0, "int x = input()", 1) assume x >= 0')
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert violated_constraints(report) == {"assumptions-true"}

    def test_04_final_state_added_to_test_case(self, p):
        aut = build_test_case_automaton([4])
        mutated = dataclasses.replace(aut, finals=frozenset({"q1"}))
        report = validate_kind(mutated, p)
        assert not report.ok
        assert "test-shape" in violated_constraints(report)

    def test_05_final_state_added_to_correctness_witness(self, p):
        text = corpus.sample_text("witness_correct.aut").replace(
            "state s6 inv: a == b", "state s6 final inv: a == b")
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert "no-finals" in violated_constraints(report)

    def test_06_invariant_added_to_test_goal(self, p):
        text = corpus.sample_text("goals.aut").replace(
            "state qf final", "state qf final inv: a == 1")
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert violated_constraints(report) == {"trivial-invariants"}


class TestTemplateUse:
    def test_01_template_in_invariant(self, p):
        aut = parse_automaton(
            "automaton bad kind=test-case\n"
            "state q0 init inv: chi == 0\n"
            "trans q0 -> q0 otherwise\n")
        assert "template-use" in violated_constraints(validate_kind(aut, p))

    def test_02_template_assumption_needs_input_pattern(self, p):
        aut = parse_automaton(
            "automaton bad kind=test-goal\n"
            "state q0 init\n"
            "state qf final\n"
            'trans q0 -> qf on (3, "a < x", 4) assume chi == 1\n'
            "trans q0 -> q0 otherwise\n")
        assert "template-use" in violated_constraints(validate_kind(aut, p))

    def test_03_template_word_in_pattern_text(self, p):
        aut = parse_automaton(
            "automaton bad kind=test-goal\n"
            "state q0 init\n"
            "state qf final\n"
            'trans q0 -> qf on (*, "chi = chi + 1", *)\n'
            "trans q0 -> q0 otherwise\n")
        assert "template-use" in violated_constraints(validate_kind(aut, p))

    def test_04_template_with_input_pattern_is_fine(self, p):
        assert validate_kind(build_test_case_automaton([1]), p).ok


class TestBuildTestCase:
    def test_01_single_input_shape(self):
        aut = build_test_case_automaton([4])
        assert aut.kind is AutomatonKind.TEST_CASE
        assert list(aut.states) == ["q0", "q1"]
        assert aut.finals == frozenset()
        chain = aut.explicit_from("q0")
        assert len(chain) == 1
        assert chain[0].pattern == EdgePattern(None, "chi = input()", None)
        assert chain[0].assumption == Comparison("==", CHI, Const(4))
        assert aut.otherwise_at("q0") is not None
        assert aut.otherwise_at("q1") is not None

    def test_02_empty_sequence(self):
        aut = build_test_case_automaton([])
        assert list(aut.states) == ["q0"]
        assert not aut.explicit_from("q0")
        assert aut.otherwise_at("q0") is not None

    def test_03_two_inputs_chain(self):
        aut = build_test_case_automaton([1, 2])
        assert list(aut.states) == ["q0", "q1", "q2"]
        assert aut.explicit_from("q0")[0].assumption == Comparison("==", CHI, Const(1))
        assert aut.explicit_from("q1")[0].assumption == Comparison("==", CHI, Const(2))
        assert not aut.explicit_from("q2")

    def test_04_always_kind_valid(self, p):
        rng = random.Random(301)
        for _ in range(25):
            values = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            assert validate_kind(build_test_case_automaton(values), p).ok


class TestRandomAutomataAreKindValid:
    def test_01_generators_produce_valid_artifacts(self):
        rng = random.Random(515)
        for _ in range(10):
            program = generators.random_program(rng)
            for aut in (generators.random_property(rng, program),
                        generators.random_test_goal(rng, program),
                        generators.random_violation_witness(rng, program),
                        generators.random_correctness_witness(rng, program),
                        generators.random_condition(rng, program)):
                report = validate_kind(aut, program, DOM)
                assert report.ok, f"{aut.name}: {report}"
