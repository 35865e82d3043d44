"""Tests for the structural constraints of the six automaton kinds."""

import collections
import dataclasses
import random
import re

import pytest

import corpus
import generators
from coopverify import automata, kinds
from coopverify.actors import Result, verify
from coopverify.automata import AutomatonKind, EdgePattern, parse_automaton, serialize_automaton
from coopverify.engine import DEFAULT_CONFIG, AnalysisConfig
from coopverify.errors import InvalidArtifact
from coopverify.kinds import (
    BOUNDED_PROVED,
    REFUTED,
    NOT_APPLICABLE,
    build_test_case_automaton,
    validate_kind,
)
from coopverify.lang import ConcreteDataState, InputOp, parse_program
from coopverify.predicates import CHI, Comparison, Const, Interval
from coopverify.product import run_product
from reference import reference_blocks

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
        """Deleting the waiting loop leaves q0 no transition on the input
        edge; the refutation carries the first post-state the search reaches
        there, the smallest input."""
        text = corpus.sample_text("prop.aut").replace("trans q0 -> q0 otherwise\n", "")
        report = validate_kind(parse_automaton(text), p, DOM)
        assert not report.ok
        assert report.non_blocking.status == REFUTED
        assert report.non_blocking.state == "q0"
        blocked = report.non_blocking.edge
        assert (blocked.source, blocked.target) == (0, 1)
        assert report.non_blocking.counter_state == {"x": -2}

    def test_05_property_needs_domain(self, p):
        with pytest.raises(ValueError):
            validate_kind(corpus.prop(), p)

    def test_06_remaining_samples_are_ok(self, p):
        for aut in (corpus.goals(), corpus.cond(), corpus.witness_violation()):
            assert validate_kind(aut, p, DOM).ok

    def test_07_otherwise_everywhere_passes_without_search(self, p, monkeypatch):
        """A non-final state with an otherwise transition never blocks, so
        such a property passes without exploring the program.  Complementary
        guards on every edge never block either, but only the search can
        tell."""
        total = parse_automaton(
            "automaton total kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            'trans q0 -> qe on (*, *, *) assume x != 1\n'
            'trans q0 -> q0 otherwise\n')
        split = parse_automaton(
            "automaton split kind=property\n"
            "state q0 init\n"
            "state qe final\n"
            'trans q0 -> qe on (*, *, *) assume x != 1\n'
            'trans q0 -> q0 on (*, *, *) assume !(x != 1)\n')
        searches = []

        def counting(*args):
            searches.append(args[1][0].name)
            return run_product(*args)

        monkeypatch.setattr(kinds, "run_product", counting)
        for aut in (total, split):
            report = validate_kind(aut, p, DOM)
            assert report.ok
            assert report.non_blocking.status == BOUNDED_PROVED
        assert searches == ["split"]

    def test_08_validation_is_idempotent(self, p):
        first = validate_kind(corpus.prop(), p, DOM)
        second = validate_kind(corpus.prop(), p, DOM)
        assert first == second

    def test_09_report_str_mentions_outcome(self, p):
        assert "ok" in str(validate_kind(corpus.prop(), p, DOM))
        text = corpus.sample_text("prop.aut").replace("trans q0 -> q0 otherwise\n", "")
        report = validate_kind(parse_automaton(text), p, DOM)
        assert "refuted" in str(report)

    @pytest.mark.parametrize("domain", [Interval(-8, 8), Interval(-2, 2)])
    def test_10_sample_reports_match_the_reference_evaluator(self, monkeypatch, domain):
        """Every sample, as itself and relabelled a property, on both
        programs: the same reports when the search evaluates on the
        tree-walking reference evaluator."""
        programs = [corpus.program_p(), corpus.program_p_prime()]
        samples = []
        for path in sorted(corpus.SAMPLES.glob("*.aut")):
            text = path.read_text(encoding="utf-8")
            samples += [parse_automaton(text),
                        parse_automaton(re.sub(r"kind=\S+", "kind=property", text))]
        reports = [str(validate_kind(aut, program, domain))
                   for aut in samples for program in programs]
        monkeypatch.setattr(automata, "evaluate", corpus.reference_evaluate)
        assert reports == [str(validate_kind(aut, program, domain))
                           for aut in samples for program in programs]
        assert reports.count("kind property: ok\n  non-blocking: bounded-proved") == 6
        assert (f"kind property: not ok\n  non-blocking: refuted: state w0 blocks edge "
                f"(0, int x = input(), 1) on {{x={domain.lo}}}") in reports


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


# a = 2 * input() reaches values outside the input interval.
BLIND_SPOT_PROGRAM = "int a = 0;\na = input();\na = a * 2;\nint b = 0;\n"
BLIND_SPOT_PROPERTY = """automaton blind_spot kind=property
state q0 init
state qe final
trans q0 -> q0 on (*, *, *) assume a < 9
trans q0 -> qe on (3, *, 4) assume a > 9
"""


class TestNonBlockingSearch:
    """Non-blocking is decided on the configurations the program reaches
    within the bounds, against ``reference.reference_blocks``."""

    def test_01_generated_properties_agree_with_the_reference(self):
        """Generated properties without an otherwise loop, and generated
        violation witnesses read as properties, whose chain states after the
        first have none either."""
        rng = random.Random(1207)
        config = AnalysisConfig(DOM, 50)
        outcomes = collections.Counter()
        for _ in range(300):
            program = generators.random_program(rng)
            chain = generators.random_violation_witness(rng, program)
            for prop in (generators.random_property(rng, program, otherwise=False),
                         dataclasses.replace(chain, kind=AutomatonKind.PROPERTY)):
                found = validate_kind(prop, program, config.input_domain, config.max_steps)
                blocks = reference_blocks(prop, program, config)
                nb = found.non_blocking
                assert (nb.status == REFUTED) == bool(blocks), (serialize_automaton(prop), blocks)
                assert found.ok == (not blocks)
                if blocks:
                    assert (nb.state, nb.edge, ConcreteDataState(nb.counter_state)) in blocks
                    outcomes["input" if isinstance(nb.edge.op, InputOp) else "other"] += 1
                    outcomes["initial" if nb.state == prop.initial else "later"] += 1
                else:
                    outcomes[nb.status] += 1
        assert min(outcomes[BOUNDED_PROVED], outcomes["input"], outcomes["other"]) >= 40, outcomes
        assert outcomes["later"] >= 15, outcomes

    def test_02_blind_spot_blocks_where_the_program_goes(self):
        """Input 5 gives a = 10: the run dies on the doubling edge, before
        the transition that would have accepted."""
        program = parse_program(BLIND_SPOT_PROGRAM)
        prop = parse_automaton(BLIND_SPOT_PROPERTY)
        report = validate_kind(prop, program, DEFAULT_CONFIG.input_domain)
        assert str(report.non_blocking) == (
            "refuted: state q0 blocks edge (2, a = a * 2, 3) on {a=10}")
        with pytest.raises(InvalidArtifact) as err:
            verify(program, prop)
        assert err.value.report == report

    def test_03_refutation_is_a_reachable_post_state(self):
        """Over [-20, 20] the first block is the input edge reading 9; the
        post-state of the edge before it is always {a=0}."""
        program = parse_program(BLIND_SPOT_PROGRAM)
        prop = parse_automaton(BLIND_SPOT_PROPERTY)
        config = AnalysisConfig(Interval(-20, 20), 50)
        nb = validate_kind(prop, program, config.input_domain, config.max_steps).non_blocking
        assert str(nb) == "refuted: state q0 blocks edge (1, a = input(), 2) on {a=9}"
        assert (nb.state, nb.edge, ConcreteDataState(nb.counter_state)) in reference_blocks(
            prop, program, config)

    def test_04_a_block_beyond_the_step_bound_is_not_seen(self):
        """The doubling edge is the third step: with two steps the check
        passes, and the judgment under the same bounds is unknown."""
        program = parse_program(BLIND_SPOT_PROGRAM)
        prop = parse_automaton(BLIND_SPOT_PROPERTY)
        assert validate_kind(prop, program, DOM, 2).ok
        assert verify(program, prop, AnalysisConfig(DOM, 2)).result is Result.UNKNOWN
        assert not validate_kind(prop, program, Interval(-8, 8), 3).ok

    def test_05_every_watched_state_of_the_frontier_is_checked(self, p):
        """After the input edge the run is in q0 and in q1 at once; q1, not
        the first state of the frontier, blocks two steps later."""
        prop = parse_automaton(
            "automaton forked kind=property\nstate q0 init\nstate q1\nstate qe final\n"
            "trans q0 -> q0 on (*, *, *)\ntrans q0 -> q1 on (0, *, 1)\n"
            "trans q1 -> q1 on (1, *, 2)\n")
        nb = validate_kind(prop, p, DOM).non_blocking
        assert str(nb) == "refuted: state q1 blocks edge (2, int b = 0, 3) on {a=0, b=0, x=-2}"
        assert (nb.state, nb.edge, ConcreteDataState(nb.counter_state)) in reference_blocks(
            prop, p, AnalysisConfig(DOM, 50))
