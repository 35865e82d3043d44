"""Tests for the five judgments, the product explorer, and the oracle they
are checked against."""

import ast
import random
from pathlib import Path

import pytest

import corpus
import generators
import reference
from coopverify.actors import Result, verify
from coopverify.automata import FinalEntry, match_path, parse_automaton
from coopverify.engine import (
    AnalysisConfig,
    DEFAULT_CONFIG,
    Verdict,
    VisitAction,
    check_condition_correct,
    check_correctness_witness,
    check_fulfills,
    check_test_covers,
    check_violation_witness,
    run_product,
)
from coopverify.errors import InvalidArtifact
from coopverify.kinds import build_test_case_automaton
from coopverify.lang import enumerate_paths, parse_program
from coopverify.predicates import Interval
from reference import (
    OracleBudgetExceeded,
    all_runs,
    brute_force_oracle,
    naive_match_path,
)

CFG4 = corpus.CFG4
CFG2 = corpus.CFG2


class TestFulfills:
    def test_01_looping_example_holds(self, p):
        judgment = check_fulfills(p, corpus.prop(), CFG4)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted
        assert judgment.evidence is None

    def test_02_broken_variant_violated_with_minimal_input(self, p_prime):
        judgment = check_fulfills(p_prime, corpus.prop(), CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.exhausted
        assert judgment.evidence.inputs() == (1,)
        assert judgment.evidence.final_location == 6

    def test_03_empty_language_property_holds(self, p_prime):
        aut = parse_automaton(corpus.GOALLESS_PROPERTY)
        judgment = check_fulfills(p_prime, aut, CFG4)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted

    def test_04_truncation_yields_unknown(self, p):
        judgment = check_fulfills(p, corpus.prop(), AnalysisConfig(Interval(-4, 4), 2))
        assert judgment.verdict is Verdict.UNKNOWN
        assert not judgment.exhausted
        assert judgment.evidence is None

    def test_05_violation_survives_truncation(self, p_prime):
        """A found counterexample is definitive even if other prefixes hit
        the bound."""
        judgment = check_fulfills(p_prime, corpus.prop(), AnalysisConfig(Interval(-8, 8), 9))
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.evidence.inputs() == (1,)


class TestCorrectnessWitness:
    def test_01_location_mirror_witness_holds(self, p):
        judgment = check_correctness_witness(p, corpus.prop(), corpus.witness_correct(), CFG4)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted

    def test_02_universal_witness_holds(self, p):
        aut = parse_automaton(corpus.UNIVERSAL_WITNESS)
        judgment = check_correctness_witness(p, corpus.prop(), aut, CFG4)
        assert judgment.verdict is Verdict.HOLDS

    def test_03_broken_variant_violated(self, p_prime):
        """The witness invariants no longer hold once the increments drift
        apart, so its frontier dies on the b-free loop."""
        judgment = check_correctness_witness(p_prime, corpus.prop(),
                                             corpus.witness_correct(), CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.evidence is not None
        assert judgment.evidence.inputs() == (1,)

    def test_04_false_invariant_witness_violated(self, p):
        aut = parse_automaton(
            "automaton impossible kind=correctness-witness\n"
            "state s init inv: false\n"
            "trans s -> s otherwise\n")
        judgment = check_correctness_witness(p, corpus.prop(), aut, CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.evidence.length == 0


class TestViolationWitness:
    def test_01_witness_for_broken_variant_holds(self, p_prime):
        judgment = check_violation_witness(p_prime, corpus.prop(),
                                           corpus.witness_violation(), CFG4)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted
        assert judgment.evidence.inputs() == (1,)

    def test_02_no_violating_path_in_correct_program(self, p):
        judgment = check_violation_witness(p, corpus.prop(),
                                           corpus.witness_violation(), CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.exhausted
        assert judgment.evidence is None

    def test_03_witness_pointing_the_wrong_way(self, p_prime):
        """Violations need a positive input, the witness demands nonpositive."""
        aut = parse_automaton(corpus.HOPELESS_WITNESS)
        judgment = check_violation_witness(p_prime, corpus.prop(), aut, CFG4)
        assert judgment.verdict is Verdict.VIOLATED

    def test_04_final_free_witness_is_vacuously_violated(self, p_prime):
        aut = parse_automaton(
            "automaton empty kind=violation-witness\n"
            "state w0 init\n"
            "trans w0 -> w0 otherwise\n")
        judgment = check_violation_witness(p_prime, corpus.prop(), aut, CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.exhausted


class TestConditionCorrect:
    def test_01_holds_for_looping_example(self, p):
        judgment = check_condition_correct(p, corpus.prop(), corpus.cond(), CFG4)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted

    def test_02_holds_for_broken_variant(self, p_prime):
        """All violating runs need a positive input, outside the condition."""
        judgment = check_condition_correct(p_prime, corpus.prop(), corpus.cond(), CFG4)
        assert judgment.verdict is Verdict.HOLDS

    def test_03_universal_condition_violated_on_broken_variant(self, p_prime):
        aut = parse_automaton(corpus.UNIVERSAL_CONDITION)
        judgment = check_condition_correct(p_prime, corpus.prop(), aut, CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.evidence.inputs() == (1,)

    def test_04_unreachable_condition_holds_everywhere(self, p, p_prime):
        aut = parse_automaton(corpus.UNREACHABLE_CONDITION)
        for program in (p, p_prime):
            assert check_condition_correct(program, corpus.prop(), aut, CFG4).verdict \
                is Verdict.HOLDS


class TestTestCovers:
    def test_01_loop_entry_covered_by_positive_input(self, p):
        judgment, covered = check_test_covers(p, [4], corpus.goals(), corpus.CFG8)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.evidence.inputs() == (4,)
        assert {entry.state for entry in covered} == {"qf"}

    def test_02_zero_input_misses_the_loop(self, p):
        judgment, covered = check_test_covers(p, [0], corpus.goals(), corpus.CFG8)
        assert judgment.verdict is Verdict.VIOLATED
        assert covered == frozenset()

    def test_03_empty_test_starves_the_input_edge(self, p):
        judgment, covered = check_test_covers(p, [], corpus.goals(), CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert covered == frozenset()

    def test_04_goal_free_automaton_covers_nothing(self, p):
        aut = parse_automaton(
            "automaton hollow kind=test-goal\n"
            "state q0 init\n"
            "trans q0 -> q0 otherwise\n")
        judgment, covered = check_test_covers(p, [4], aut, CFG4)
        assert judgment.verdict is Verdict.VIOLATED
        assert covered == frozenset()

    def test_05_both_goals_reported_when_reached(self, p):
        aut = parse_automaton(corpus.TWO_GOALS)
        judgment, covered = check_test_covers(p, [1], aut, CFG2)
        assert judgment.verdict is Verdict.HOLDS
        assert {entry.state for entry in covered} == {"qa"}
        judgment, covered = check_test_covers(p, [0], aut, CFG2)
        assert {entry.state for entry in covered} == {"qb"}


class TestOracle:
    def test_01_clean_program_has_empty_accept_set(self, p):
        assert brute_force_oracle(p, [corpus.prop()], ["accept"], CFG2) == frozenset()

    def test_02_joint_acceptance_minimal_path(self, p_prime):
        paths = brute_force_oracle(p_prime, [corpus.prop(), corpus.witness_violation()],
                                   ["accept", "accept"], CFG2)
        assert paths
        assert min(paths, key=lambda q: q.length).inputs() == (1,)

    def test_03_no_automata_means_all_paths(self, p):
        every = brute_force_oracle(p, [], [], CFG2)
        assert every == frozenset(enumerate_paths(p, CFG2.input_domain, CFG2.max_steps).paths)

    def test_04_mode_validation(self, p):
        with pytest.raises(ValueError):
            brute_force_oracle(p, [corpus.prop()], [], CFG2)
        with pytest.raises(ValueError):
            brute_force_oracle(p, [corpus.prop()], ["observe"], CFG2)

    def test_05_truncation_exceeds_budget(self, p):
        with pytest.raises(OracleBudgetExceeded):
            brute_force_oracle(p, [], [], AnalysisConfig(Interval(5, 5), 3))

    def test_06_cover_mode(self, p):
        covered = brute_force_oracle(p, [build_test_case_automaton([1])], ["cover"], CFG2)
        assert [path.inputs() for path in covered] == [(1,)]

    def test_07_reference_runs_no_engine_code(self):
        """The oracle decides by its own enumeration and its own step.  Were
        it to call the explorer or the automaton step, the differential
        tests against it would confirm the engine by the engine."""
        tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        assert "enumerate_paths" in used and "reference_evaluate" in used
        engine_code = {"run_product", "_search", "step_frontier", "match_path",
                       "initial_frontier", "_taken", "accepts", "covers"}
        assert not used & engine_code


class TestKindEnforcement:
    def test_01_wrong_kind_rejected(self, p):
        with pytest.raises(InvalidArtifact):
            check_fulfills(p, corpus.goals(), CFG4)
        with pytest.raises(InvalidArtifact):
            check_violation_witness(p, corpus.prop(), corpus.witness_correct(), CFG4)

    def test_02_blocking_property_rejected(self, p):
        text = corpus.sample_text("prop.aut").replace("trans q0 -> q0 otherwise\n", "")
        with pytest.raises(InvalidArtifact) as exc:
            check_fulfills(p, parse_automaton(text), CFG4)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_03_condition_with_final_escape_rejected(self, p):
        text = corpus.sample_text("cond.aut") + 'trans q1 -> q1 on (1, "int a = 0", 2)\n'
        with pytest.raises(InvalidArtifact):
            check_condition_correct(p, corpus.prop(), parse_automaton(text), CFG4)


class TestJudgmentReports:
    def test_01_config_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(Interval(-2, 2), 0)
        with pytest.raises(ValueError):
            AnalysisConfig(Interval(2, -2), 10)

    def test_02_config_text(self):
        assert str(AnalysisConfig(Interval(-4, 4), 200)) == "inputs [-4, 4], at most 200 steps"
        assert DEFAULT_CONFIG.input_domain == Interval(-8, 8)
        assert DEFAULT_CONFIG.max_steps == 500

    def test_03_json_shape(self, p_prime):
        judgment = check_fulfills(p_prime, corpus.prop(), CFG4)
        data = judgment.to_json_dict()
        assert set(data) == {"verdict", "exhausted", "config", "evidence"}
        assert data["verdict"] == "violated"
        assert data["config"] == {"input_domain": [-4, 4], "max_steps": 200}
        assert data["evidence"][0] == {"location": 0, "op": None, "state": {}}
        assert data["evidence"][1]["op"] == "int x = input()"
        assert data["evidence"][-1]["state"] == {"a": 1, "b": 0, "x": 1}

    def test_04_json_without_evidence(self, p):
        data = check_fulfills(p, corpus.prop(), CFG4).to_json_dict()
        assert data["evidence"] is None
        assert data["exhausted"] is True

    def test_05_text_form(self, p):
        text = check_fulfills(p, corpus.prop(), CFG4).text()
        assert "verdict: holds" in text
        assert "exhausted: yes" in text
        assert "inputs [-4, 4]" in text


class TestJudgmentProperties:
    def test_01_holds_only_when_exhausted(self, p, p_prime):
        for program in (p, p_prime):
            for cfg in (CFG2, CFG4, corpus.CFG8):
                judgment = check_condition_correct(program, corpus.prop(), corpus.cond(), cfg)
                if judgment.verdict is Verdict.HOLDS:
                    assert judgment.exhausted

    def test_02_evidence_replays_under_match(self, p_prime):
        judgment = check_fulfills(p_prime, corpus.prop(), CFG4)
        assert match_path(corpus.prop(), judgment.evidence).accepted
        witness_judgment = check_violation_witness(p_prime, corpus.prop(),
                                                   corpus.witness_violation(), CFG4)
        assert match_path(corpus.prop(), witness_judgment.evidence).accepted
        assert match_path(corpus.witness_violation(), witness_judgment.evidence).accepted

    def test_03_violation_is_monotone_in_domain(self, p_prime):
        for width in (2, 4, 8):
            cfg = AnalysisConfig(Interval(-width, width), 200)
            assert check_fulfills(p_prime, corpus.prop(), cfg).verdict is Verdict.VIOLATED

    def test_04_engine_agrees_with_oracle_on_random_inputs(self):
        rng = random.Random(8101)
        for _ in range(8):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program)
            witness = generators.random_violation_witness(rng, program)
            cond = generators.random_condition(rng, program)
            expect = not brute_force_oracle(program, [prop], ["accept"], CFG2)
            assert (check_fulfills(program, prop, CFG2).verdict is Verdict.HOLDS) == expect
            expect = bool(brute_force_oracle(program, [prop, witness],
                                             ["accept", "accept"], CFG2))
            assert (check_violation_witness(program, prop, witness, CFG2).verdict
                    is Verdict.HOLDS) == expect
            expect = not brute_force_oracle(program, [prop, cond], ["accept", "accept"], CFG2)
            assert (check_condition_correct(program, prop, cond, CFG2).verdict
                    is Verdict.HOLDS) == expect

    def test_05_covered_goals_match_naive_runs(self, p):
        """The goal entries the product reports are exactly those the naive
        matcher finds on test-covered paths."""
        goals = parse_automaton(corpus.TWO_GOALS)
        for inputs in ((0,), (1,), (2,)):
            _, covered = check_test_covers(p, inputs, goals, CFG2)
            test_case = build_test_case_automaton(inputs)
            expected = set()
            for path in enumerate_paths(p, CFG2.input_domain, CFG2.max_steps).paths:
                if not naive_match_path(test_case, path).covered:
                    continue
                for run in all_runs(goals, path):
                    for transition, state in run:
                        if state in goals.finals:
                            expected.add(FinalEntry(transition, state))
            assert covered == frozenset(expected)


def _edge_property(op_text: str) -> str:
    return ("automaton on_edge kind=property\nstate q0 init\nstate qe final\n"
            f'trans q0 -> qe on (*, "{op_text}", *)\ntrans q0 -> q0 otherwise\n')


class TestConfigurationExploration:
    """The explorer visits configurations, not path prefixes."""

    # c == 0 reaches the join at location 6 after five steps, c == 1 after
    # three, with the same data state {c: 5}; depth-first order takes c == 0
    # first.  The property accepts one step after the join.
    LONG_THEN_SHORT = """\
int c = input();
if (c == 0) {
  c = 5;
  c = 5;
  c = 5;
} else {
  c = 5;
}
int e = 1;
"""

    def test_01_join_reexplored_at_smaller_depth(self):
        """With max_steps 5 the violation is reachable only through the
        shorter prefix, which reaches the join after the longer one did."""
        program = parse_program(self.LONG_THEN_SHORT)
        prop = parse_automaton(_edge_property("int e = 1"))
        config = AnalysisConfig(Interval(0, 1), 5)
        judgment = check_fulfills(program, prop, config)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.evidence.inputs() == (1,)
        assert judgment.evidence.length == 4
        bundle = verify(program, prop, config)
        assert bundle.result is Result.FALSE
        assert bundle.judgment.evidence == judgment.evidence

    def test_02_repeating_loop_configuration_is_exhausted(self):
        """Revisiting a configuration on a cycle is not a truncation."""
        program = parse_program("int t = 0;\nwhile (t < 1) {\n  t = 0;\n}\n")
        prop = parse_automaton(_edge_property("!(t < 1)"))
        judgment = check_fulfills(program, prop, CFG2)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted
        bundle = verify(program, prop, CFG2)
        assert bundle.result is Result.TRUE
        assert bundle.judgment.exhausted

    def test_03_acceptance_inside_repeating_loop_is_found(self):
        program = parse_program("int t = 0;\nwhile (t < 1) {\n  t = 0;\n}\n")
        prop = parse_automaton(_edge_property("t = 0"))
        judgment = check_fulfills(program, prop, CFG2)
        assert judgment.verdict is Verdict.VIOLATED
        assert judgment.exhausted
        assert judgment.evidence.length == 3
        assert verify(program, prop, CFG2).result is Result.FALSE

    def test_04_visits_grow_with_configurations_not_paths(self):
        """Four inputs over |D| = 11 give 14641 complete paths but only 136
        distinct (location, data state) pairs; the visitor is called at most
        twice per distinct configuration."""
        program = parse_program(
            "int i = 0;\nint v = 0;\nwhile (i < 4) {\n  v = input();\n  i++;\n}\n")
        prop = parse_automaton(
            "automaton never kind=property\nstate q0 init\nstate qe final\n"
            'trans q0 -> qe on (*, "i++", *) assume i > 4\ntrans q0 -> q0 otherwise\n')
        config = AnalysisConfig(Interval(-5, 5), 500)
        calls = []
        keys = set()

        def counting_visit(v):
            calls.append(v.depth)
            keys.add((v.location, v.state, v.frontiers, v.final_entries))
            return VisitAction.CONTINUE

        assert run_product(program, (prop,), config, counting_visit) is False
        assert len({(location, state) for location, state, _, _ in keys}) == 136
        assert len(calls) <= 2 * len(keys)
        assert max(calls) == 2 + 4 * 3 + 1  # declarations, four rounds, loop exit

    def test_05_visit_path_matches_configuration(self, p_prime):
        def check(v):
            path = v.path
            assert (path.length, path.final_location, path.final_state) \
                == (v.depth, v.location, v.state)
            return VisitAction.CONTINUE

        run_product(p_prime, (corpus.prop(),), CFG2, check)


class TestVerdictRule:
    """One rule turns a hit and the truncation flag into every verdict: a hit
    violates a universal judgment (definitively only without truncation) and
    makes an existential one hold (definitively regardless); no hit under
    truncation is unknown."""

    TIGHT = AnalysisConfig(Interval(-4, 4), 2)

    # Accepts the first read when it is 4; depth-first order reads -4 first,
    # whose prefix is cut at the step bound before 4 is tried.
    READS_FOUR = """\
automaton reads_four kind=property
state q0 init
state qe final
trans q0 -> qe on (0, "int x = input()", 1) assume x == 4
trans q0 -> q0 otherwise
"""

    FIRST_READ = """\
automaton first_read kind=violation-witness
state w0 init
state w1 final
trans w0 -> w1 on (0, "int x = input()", 1)
"""

    def test_01_no_hit_under_truncation_is_unknown_for_every_judgment(self, p, p_prime):
        prop = corpus.prop()
        judgments = [
            check_fulfills(p, prop, self.TIGHT),
            check_correctness_witness(p, prop, corpus.witness_correct(), self.TIGHT),
            check_violation_witness(p_prime, prop, corpus.witness_violation(), self.TIGHT),
            check_condition_correct(p_prime, prop, corpus.cond(), self.TIGHT),
        ]
        covers, goals = check_test_covers(p, (1,), corpus.goals(), self.TIGHT)
        judgments.append(covers)
        assert goals == frozenset()
        for judgment in judgments:
            assert judgment.verdict is Verdict.UNKNOWN
            assert not judgment.exhausted
            assert judgment.evidence is None

    def test_02_existential_hit_despite_truncation_holds_exhausted(self, p):
        prop = parse_automaton(self.READS_FOUR)
        witness = parse_automaton(self.FIRST_READ)
        judgment = check_violation_witness(p, prop, witness, self.TIGHT)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted
        assert judgment.evidence.inputs() == (4,)

    def test_03_universal_hit_under_truncation_is_violated_not_exhausted(self, p):
        prop = parse_automaton(self.READS_FOUR)
        judgment = check_fulfills(p, prop, self.TIGHT)
        assert judgment.verdict is Verdict.VIOLATED
        assert not judgment.exhausted
        assert judgment.evidence.inputs() == (4,)
        bundle = verify(p, prop, self.TIGHT)
        assert bundle.result is Result.FALSE
        assert bundle.judgment == judgment
