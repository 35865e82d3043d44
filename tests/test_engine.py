"""Tests for the five judgments, the product explorer, and the oracle they
are checked against."""

import ast
import collections
import gc
import random
import weakref
from pathlib import Path

import pytest

import corpus
import generators
import reference
from coopverify import automata as automata_module
from coopverify import lang as lang_module
from coopverify import product as product_module
from coopverify.actors import (Result, conditional_verify, exec_test, generate_tests,
                               validate_result, verify)
from coopverify.automata import FinalEntry, match_path, parse_automaton, serialize_automaton
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
from coopverify.errors import CoopVerifyError, InvalidArtifact
from coopverify.kinds import build_test_case_automaton, validate_kind
from coopverify.lang import enumerate_paths, parse_program
from coopverify.predicates import Interval
from reference import (
    OracleBudgetExceeded,
    all_runs,
    brute_force_oracle,
    naive_match_path,
    reference_start,
    reference_step,
)

CFG4 = corpus.CFG4
CFG2 = corpus.CFG2
CFG1 = AnalysisConfig(Interval(-1, 1), 200)


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

    def test_05_paths_the_condition_cannot_accept_are_not_explored(self, p):
        """The condition dies right after a positive input, so four steps
        complete every path it can accept (x <= 0) and cut only x > 0 paths,
        whose truncation can hide no hit: holds, not unknown."""
        judgment = check_condition_correct(p, corpus.prop(), corpus.cond(),
                                           AnalysisConfig(Interval(-4, 4), 4))
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.exhausted
        # at three steps an x <= 0 path is itself cut
        judgment = check_condition_correct(p, corpus.prop(), corpus.cond(),
                                           AnalysisConfig(Interval(-4, 4), 3))
        assert judgment.verdict is Verdict.UNKNOWN

    def test_06_pruned_check_agrees_with_oracle_and_conditional_verify(self):
        """Generated triples, about half with a holding property: every
        ``holds`` is exhausted, the verdict at a bound no path reaches is the
        oracle's, and a condition that turns ``verify``'s false into
        ``conditional_verify``'s true is rejected."""
        rng = random.Random(4242)
        flipped = 0
        for n in range(300):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program, holds=n % 2 == 0)
            cond = generators.random_condition(rng, program, rich=rng.random() < 0.5)
            for steps in (4, 8, 60):
                cfg = AnalysisConfig(Interval(-2, 2), steps)
                judgment = check_condition_correct(program, prop, cond, cfg)
                if judgment.verdict is Verdict.HOLDS:
                    assert judgment.exhausted
            # cfg and judgment are now those of 60 steps, a bound no path reaches
            joint = brute_force_oracle(program, [prop, cond], ["accept", "accept"], cfg)
            assert (judgment.verdict is Verdict.HOLDS) == (not joint)
            if (conditional_verify(program, prop, cond, cfg).result is Result.TRUE
                    and verify(program, prop, cfg).result is Result.FALSE):
                flipped += 1
                assert judgment.verdict is Verdict.VIOLATED
        assert flipped >= 10


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
                       "initial_frontier", "plan_step", "StepPlan", "accepts", "covers"}
        assert not used & engine_code

    def test_08_holding_property_draw_stops_within_its_budget(self):
        """A holding property learns the values its edges reach from every
        path within 200 steps.  Where choices branch the paths outgrow any
        memory: this draw ran past 20 s unbudgeted, and now stops after
        ``generators.HOLDING_BUDGET`` enumeration steps."""
        rng = random.Random(180)
        program = generators.add_choices(rng, generators.random_dead_copy_program(rng))
        with pytest.raises(OracleBudgetExceeded, match="step budget"):
            generators.random_property(rng, program, holds=True)


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

    def test_04_a_pruned_configuration_still_refuses_its_block(self):
        """The witness pins a = 1 and dies on every other input, so the
        configuration with a = 5 is pruned; its step over the doubling edge
        still blocks the blind-spot property at a = 10, and the property is
        refused rather than the witness judged."""
        witness = parse_automaton(
            "automaton pin1 kind=violation-witness\nstate w0 init\nstate w1\n"
            "state wf final\ntrans w0 -> w0 on (0, *, 1)\n"
            "trans w0 -> w1 on (1, *, 2) assume a == 1\ntrans w1 -> wf on (2, *, 3)\n")
        with pytest.raises(InvalidArtifact) as err:
            check_violation_witness(parse_program(corpus.BLIND_SPOT_PROGRAM),
                                    parse_automaton(corpus.BLIND_SPOT_PROPERTY), witness)
        assert str(err.value).endswith(
            "refuted: state q0 blocks edge (2, a = a * 2, 3) on {a=10}")


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
        """Eight draws of random properties, then eight of holding ones, so
        that check_fulfills is seen to give both verdicts."""
        rng = random.Random(8101)
        fulfills = set()
        for holds in [False] * 8 + [True] * 8:
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program, holds=holds)
            witness = generators.random_violation_witness(rng, program)
            cond = generators.random_condition(rng, program)
            expect = not brute_force_oracle(program, [prop], ["accept"], CFG2)
            verdict = check_fulfills(program, prop, CFG2).verdict
            assert (verdict is Verdict.HOLDS) == expect
            fulfills.add(verdict)
            expect = bool(brute_force_oracle(program, [prop, witness],
                                             ["accept", "accept"], CFG2))
            assert (check_violation_witness(program, prop, witness, CFG2).verdict
                    is Verdict.HOLDS) == expect
            expect = not brute_force_oracle(program, [prop, cond], ["accept", "accept"], CFG2)
            assert (check_condition_correct(program, prop, cond, CFG2).verdict
                    is Verdict.HOLDS) == expect
        assert {Verdict.HOLDS, Verdict.VIOLATED} <= fulfills

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

    @staticmethod
    def _reexplores_after_truncation(program, prop, config) -> bool:
        """Whether the property's search explores a configuration again, at
        a smaller depth, after some configuration was truncated.  Where
        prefixes meet, the search keys a configuration on the variables live
        at its location and those the property reads (see ``run_product``)."""
        depths: dict = {}
        found = cut = False

        def visit(v):
            nonlocal found, cut
            if v.location in program.meeting_locations:
                state = dict(v.state)
                names = sorted(program.live_variables[v.location] | prop.reads)
                key = (v.location, tuple(state.get(name) for name in names), v.frontiers,
                       v.final_entries)
                found |= cut and depths.get(key, v.depth) > v.depth
                depths[key] = v.depth
            cut |= v.truncated
            return VisitAction.CONTINUE

        run_product(program, (prop,), config, visit)
        return found

    def test_06_engine_agrees_with_oracle_at_truncating_bounds(self):
        """300 generated programs, every fifth with choices, at step bounds
        that truncate: by test_04's rules on the hits within the bound (the
        oracle's paths with each prefix the bound cut), check_fulfills,
        check_violation_witness and check_condition_correct find a hit
        exactly where one exists; without one, an unknown (and with it a
        judgment that is not exhausted) appears only where the oracle's
        enumeration was truncated.  A violated universal judgment is not
        exhausted only there either.  Some draws truncate, and some search
        explores a configuration again at a smaller depth after a
        truncation, where a skip would lose the hits beneath it.  Every
        tenth program is a long-then-short join, where that happens by
        construction: an explorer that never explores again misses nine
        hits of this draw, and six or more of the draw of each seed from 1
        to 11."""
        rng = random.Random(10)
        domain = Interval(-1, 1)
        truncated_searches = reexplored = 0
        for n in range(300):
            if n % 10 == 2:
                program, prop = generators.long_then_short_join(rng, domain)
            else:
                program = generators.random_program(rng)
                if n % 5 == 4:
                    program = generators.add_choices(rng, program)
                prop = generators.random_property(rng, program,
                                                  holds=n % 2 == 1 and n % 5 != 4, domain=domain)
            witness = generators.random_violation_witness(rng, program)
            cond = generators.random_condition(rng, program, rich=n % 3 == 0)
            for bound in (3, 5, 8, 60):
                config = AnalysisConfig(domain, bound)
                cut = reference.enumerated(program, config).truncated
                judgments = [
                    (check_fulfills(program, prop, config), True,
                     brute_force_oracle(program, [prop], ["accept"], config, cut=True)),
                    (check_violation_witness(program, prop, witness, config), False,
                     brute_force_oracle(program, [prop, witness], ["accept", "accept"], config,
                                        cut=True)),
                    (check_condition_correct(program, prop, cond, config), True,
                     brute_force_oracle(program, [prop, cond], ["accept", "accept"], config,
                                        cut=True)),
                ]
                for judgment, universal, hits in judgments:
                    truncated_searches += not judgment.exhausted
                    if hits:
                        assert judgment.verdict is (Verdict.VIOLATED if universal
                                                    else Verdict.HOLDS)
                        assert judgment.exhausted or (universal and cut)
                    elif judgment.verdict is Verdict.UNKNOWN:
                        assert cut and not judgment.exhausted
                    else:
                        assert judgment.verdict is (Verdict.HOLDS if universal
                                                    else Verdict.VIOLATED)
                        assert judgment.exhausted
                if cut:
                    reexplored += self._reexplores_after_truncation(program, prop, config)
        assert truncated_searches > 0
        assert reexplored > 0


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

    FANOUT = "int i = 0;\nint v = 0;\nwhile (i < 4) {\n  v = input();\n  i++;\n}\n"
    NEVER = ("automaton never kind=property\nstate q0 init\nstate qe final\n"
             'trans q0 -> qe on (*, "i++", *) assume {guard}\ntrans q0 -> q0 otherwise\n')

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
        twice per distinct configuration.  The property reads v, so v stays
        live at the loop head."""
        program = parse_program(self.FANOUT)
        prop = parse_automaton(self.NEVER.format(guard="i > 4 && v > 5"))
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

    def test_06_dead_variable_is_not_keyed(self):
        """With a property that does not read v, v is dead at the loop head
        and at the target of its input edge: each input edge's eleven
        successors share one key, and the visitor is called once per
        location and value of i, 16 times, not 136."""
        program = parse_program(self.FANOUT)
        prop = parse_automaton(self.NEVER.format(guard="i > 4"))
        calls = []

        def counting_visit(v):
            calls.append((v.location, v.state["i"] if "i" in v.state else None))
            return VisitAction.CONTINUE

        assert run_product(program, (prop,), AnalysisConfig(Interval(-5, 5), 500),
                           counting_visit) is False
        assert len(calls) == len(set(calls)) == 16

    def test_07_analyses_run_once_per_program_and_automaton(self, monkeypatch):
        """Liveness and meeting locations stay on the program and read sets
        on the automata, so a second exploration of the same program and
        automata reads no operation or predicate for its key."""
        program = parse_program(self.FANOUT)
        prop = parse_automaton(self.NEVER.format(guard="i > 4"))
        calls = []
        for module, name in ((lang_module, "op_reads"), (lang_module, "variables_of"),
                             (automata_module, "variables_of")):
            def counting(*args, original=getattr(module, name)):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, name, counting)
        config = AnalysisConfig(Interval(-5, 5), 500)
        for expect_analysis in (True, False):
            calls.clear()
            run_product(program, (prop,), config, lambda v: VisitAction.CONTINUE)
            assert bool(calls) is expect_analysis


    # FANOUT with v read once after its input, so v is live only between
    # v = input() and v = v + 1, and dead at the loop head
    READ_ONCE = FANOUT.replace("i++;", "v = v + 1;\n  i++;")

    def _witnessed(self):
        program = parse_program(self.READ_ONCE)
        prop = parse_automaton(self.NEVER.format(guard="i > 4"))
        config = AnalysisConfig(Interval(-5, 5), 500)
        return program, prop, verify(program, prop, config).witness, config

    def test_08_witness_adds_no_configuration_where_its_reads_are_dead(self):
        """verify's witness reads v after v = input(), where the program
        reads it too; at the loop head no state of the witness can read v
        before the next input overwrites it, so v stays out of the key there
        and the product with the witness makes exactly the property's
        visits."""
        program, prop, witness, config = self._witnessed()
        assert "v" in witness.reads
        visits = []
        for automata in ((prop,), (prop, witness)):
            calls = []
            run_product(program, automata, config,
                        lambda v: calls.append(v) or VisitAction.CONTINUE)
            visits.append(len(calls))
        assert visits[0] == visits[1] == 100

    def test_09_pair_liveness_reads_no_predicate_twice(self, monkeypatch):
        """The read sets of a witness's transitions stay on the witness, so
        a second exploration of a (property, witness) product reads no
        operation or predicate for its key."""
        program, prop, witness, config = self._witnessed()
        calls = []
        for module, name in ((lang_module, "op_reads"), (lang_module, "variables_of"),
                             (automata_module, "variables_of")):
            def counting(*args, original=getattr(module, name)):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, name, counting)
        for expect_analysis in (True, False):
            calls.clear()
            run_product(program, (prop, witness), config, lambda v: VisitAction.CONTINUE)
            assert bool(calls) is expect_analysis

    def test_10_validated_witness_is_not_kept_alive(self):
        """Every validation reads a fresh witness, so nothing the explorer
        computes for one may outlive the call."""
        program, prop, emitted, config = self._witnessed()
        witness = parse_automaton(serialize_automaton(emitted))
        collected = weakref.ref(witness)
        assert validate_result(program, prop, witness, config).result is Result.TRUE
        del witness
        gc.collect()
        assert collected() is None

    def test_11_visit_path_shares_the_trails_steps(self, p):
        """``path`` slices the explorer's trail: reading it twice at the end
        of a run of 3,004 steps gives the same step objects, none rebuilt.
        A visitor that reads ``path`` on every visit (the benchmark's tracer
        does) stays linear in the path's length per visit."""
        ends = []

        def visit(v):
            if not v.successors:
                ends.append((v.path, v.path))
            return VisitAction.CONTINUE

        run_product(p, (), AnalysisConfig(Interval(1000, 1000), 3100), visit)
        ((a, b),) = ends
        assert a.length == b.length == 3004
        assert all(a.steps[k] is b.steps[k] for k in range(len(a.steps)))

    # the benchmark's max family at k = 3: the then-branch m = v is one step
    # longer than the else-branch, so the loop head and the join are reached
    # again at smaller depths after deeper prefixes got there first
    MAX_K3 = ("int i = 0;\nint m = -5;\nint v = 0;\nwhile (i < 3) {\n  v = input();\n"
              "  if (v > m) {\n    m = v;\n  }\n  i++;\n}\n")
    MAX_PROPERTY = ("automaton fanout_bound kind=property\nstate q0 init\nstate qe final\n"
                    'trans q0 -> qe on (*, "!(i < 3)", *) assume m < v\n'
                    "trans q0 -> q0 otherwise\n")
    ROUNDS_GOALS = ("automaton loop_rounds kind=test-goal\nstate g0 init\n"
                    + "".join(f"state g{j} final\n" for j in range(1, 5))
                    + "".join(f'trans g{j} -> g{j + 1} on (*, "i < 3", *)\n' for j in range(4))
                    + "".join(f"trans g{j} -> g{j} otherwise\n" for j in range(5)))

    def test_12_untruncated_search_visits_each_key_once(self):
        """While the step bound cuts nothing, a configuration reached again
        at a smaller depth is not explored again: a counting visitor sees
        each (location, state, frontiers, final entries) once, on the max
        family alone, with its property, with its loop-round goals, and on
        LONG_THEN_SHORT, whose join the shorter prefix reaches second."""
        max_k3 = parse_program(self.MAX_K3)
        long_then_short = parse_program(self.LONG_THEN_SHORT)
        searches = [
            (max_k3, (), AnalysisConfig(Interval(-3, 3), 500)),
            (max_k3, (parse_automaton(self.MAX_PROPERTY),), AnalysisConfig(Interval(-3, 3), 500)),
            (max_k3, (parse_automaton(self.ROUNDS_GOALS),), AnalysisConfig(Interval(-3, 3), 500)),
            (long_then_short, (parse_automaton(_edge_property("int e = 1")),),
             AnalysisConfig(Interval(0, 1), 50)),
        ]
        for program, automata, config in searches:
            keys = []
            depths = []

            def counting_visit(v, keys=keys, depths=depths):
                keys.append((v.location, v.state, v.frontiers, v.final_entries))
                depths.append(v.depth)
                return VisitAction.CONTINUE

            assert run_product(program, automata, config, counting_visit) is False
            assert len(keys) == len(set(keys))
        # LONG_THEN_SHORT's join, location 6, is explored once, by the
        # longer prefix, which the depth-first order takes first
        assert [d for (location, *_), d in zip(keys, depths) if location == 6] == [5]


class TestStepMemo:
    """The explorer plans an automaton's step once per (automaton, frontier,
    edge) and exploration, and after that only runs the plan's guards on
    each post-state, whatever the automaton's kind."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        """The automata passed to ``plan_step`` through the explorer's
        binding, one entry per plan built; ``stepped.ran`` holds the name of
        the automaton of each plan run, one entry per step that evaluates a
        guard."""
        seen = PlanLog()
        real_plan, real_run = product_module.plan_step, automata_module.StepPlan.run

        def planning(aut, frontier, edge):
            seen.append(aut)
            return real_plan(aut, frontier, edge)

        def running(plan, bindings):
            seen.ran.append(plan.aut.name)
            return real_run(plan, bindings)

        monkeypatch.setattr(product_module, "plan_step", planning)
        monkeypatch.setattr(automata_module.StepPlan, "run", running)
        return seen

    @staticmethod
    def _reference(automata, path, folds: dict) -> tuple:
        """Each automaton's (frontier, final entries) after ``path``:
        ``reference_step`` folded over it from the initial frontier.
        ``folds`` keeps the fold after every step object seen, so the fold
        resumes after the longest such prefix of the path."""
        steps = path.steps
        k = len(steps) - 1
        while k >= 0 and folds.get(id(steps[k]), (None,))[0] is not steps[k]:
            k -= 1
        if k < 0:
            configs = tuple(reference_start(a, steps[0].state) for a in automata)
            folds[id(steps[0])] = (steps[0], configs)
            k = 0
        configs = folds[id(steps[k])][1]
        for step in steps[k + 1:]:
            advanced = []
            for a, (fr, en) in zip(automata, configs):
                fr, new = reference_step(a, fr, step.incoming, step.state)
                advanced.append((fr, en | new))
            configs = tuple(advanced)
            folds[id(step)] = (step, configs)
        return configs

    def test_01_every_visit_agrees_with_reference_steps(self, stepped):
        """300 products of a property with each other kind of automaton, and
        one of all seven per ten programs, on generated programs: at every
        visit, each frontier and final-entry set is the reference fold over
        the visit's path."""
        rng = random.Random(2020)
        config = AnalysisConfig(Interval(-1, 1), 40)
        products = steps = 0
        for n in range(50):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program)
            others = (generators.random_property(rng, program, holds=True),
                      generators.random_test_goal(rng, program),
                      build_test_case_automaton(generators.random_inputs(rng)),
                      generators.random_condition(rng, program, rich=n % 2 == 0),
                      generators.random_correctness_witness(rng, program),
                      generators.random_violation_witness(rng, program))
            combos = [(prop, other) for other in others]
            if n % 10 == 0:
                combos.append((prop, *others))
            for automata in combos:
                folds: dict = {}

                def visit(v, automata=automata, folds=folds):
                    nonlocal steps
                    if not v.truncated:
                        steps += len(v.successors) * len(automata)
                    configs = self._reference(automata, v.path, folds)
                    assert v.frontiers == tuple(fr for fr, _ in configs)
                    assert v.final_entries == tuple(en for _, en in configs)
                    return VisitAction.CONTINUE

                run_product(program, automata, config, visit)
                products += 1
        assert products >= 300
        # the memo served some steps, and guards were still evaluated
        assert 0 < len(stepped) < steps
        assert stepped.ran

    COUNT_TO = "int n = input();\nint i = 0;\nwhile (i < n) {\n  i++;\n}\n"
    ROUNDS = AnalysisConfig(Interval(300, 300), 1000)

    def test_02_read_free_steps_are_taken_once(self, stepped):
        """Counting to 300 makes 603 steps: the input, i = 0, 300 loop
        entries, 300 increments and the exit.  The property's frontier is
        {q0} throughout, so the explorer plans one step per edge.  It reads
        i on every increment and nothing on the other edges, so only the
        300 increments run a plan."""
        program = parse_program(self.COUNT_TO)
        prop = parse_automaton(
            "automaton never kind=property\nstate q0 init\nstate qe final\n"
            'trans q0 -> qe on (*, "i++", *) assume i > 1000\ntrans q0 -> q0 otherwise\n')
        visits = []
        run_product(program, (prop,), self.ROUNDS,
                    lambda v: visits.append(v) or VisitAction.CONTINUE)
        assert len(visits) - 1 == 603
        assert len(program.edges) == 5
        assert len(stepped) == 5
        assert stepped.ran == ["never"] * 300

    def test_03_decision_witness_is_planned_once_per_state_and_edge(self, stepped):
        """The memo keeps a violation witness's plans too: the witness of
        the 603-step count to 300 pins the input and the exit and loops on
        the other three edges, and checking it plans one step per (state,
        edge), one per program edge, and only the input step, which pins n,
        runs a plan.  The property, which reads nothing, is planned once per
        edge and never run."""
        program = parse_program(self.COUNT_TO)
        prop = parse_automaton(_edge_property("!(i < n)"))
        witness = verify(program, prop, self.ROUNDS).witness
        assert witness.kind is automata_module.AutomatonKind.VIOLATION_WITNESS
        assert len(witness.transitions) == 5
        stepped.clear()
        stepped.ran.clear()
        judgment = check_violation_witness(program, prop, witness, self.ROUNDS)
        assert judgment.verdict is Verdict.HOLDS
        assert judgment.evidence.length == 603
        assert stepped.count(witness) == len(program.edges)
        assert stepped.count(prop) == len(program.edges)
        assert stepped.ran == [witness.name]

    def test_04_otherwise_into_an_invariant_is_taken_every_time(self, stepped):
        """From ``int a = 0`` on, the witness loops in s1 through otherwise,
        and s1's invariant reads a: the step over ``a = x`` leaves s1 for
        x = -1 and keeps it for x = 0 and 1, from the same frontier over the
        same edge, so its plan is run anew each time."""
        program = parse_program("int x = input();\nint a = 0;\na = x;\nint e = 1;\n")
        witness = parse_automaton(
            "automaton cw kind=correctness-witness\nstate s0 init\nstate s1 inv: a >= 0\n"
            'trans s0 -> s1 on (1, "int a = 0", 2)\ntrans s0 -> s0 otherwise\n'
            "trans s1 -> s1 otherwise\n")
        automata = (parse_automaton(_edge_property("int e = 1")), witness)
        folds: dict = {}
        frontiers = []

        def visit(v):
            configs = self._reference(automata, v.path, folds)
            assert (v.frontiers, v.final_entries) == (tuple(fr for fr, _ in configs),
                                                       tuple(en for _, en in configs))
            frontiers.append((v.location, v.frontiers[1]))
            return VisitAction.CONTINUE

        run_product(program, automata, AnalysisConfig(Interval(-1, 1), 10), visit)
        assert frontiers.count((3, frozenset())) == 1
        assert frontiers.count((3, frozenset({"s1"}))) == 2
        # one plan per (frontier, edge): {s0} over the input and over
        # a = 0, {s1} over a = x and over e = 1, the empty frontier over e = 1
        assert stepped.count(witness) == 5
        # the invariant is read on each step into or within s1, one per
        # input value: three over a = 0 and over a = x, two over e = 1
        assert stepped.ran.count("cw") == 3 + 3 + 2

    # Each guard reads an unbound variable on the step over x = x - 5 only
    # where x is -3, so input 1 (explored first) passes and input 2 raises.
    UNBOUND_PROGRAM = "int x = input();\nx = x - 5;\nint e = 1;\n"
    UNBOUND_GUARDS = {
        "assumption": (
            "state q0 init\nstate qe final\n"
            'trans q0 -> qe on (*, "x = x - 5", *) assume x != -3 || b > 3\n'
            "trans q0 -> q0 otherwise\n",
            'automaton assumption, state q0, transition q0 -> qe on (*, "x = x - 5", *) '
            "assume x != -3 || b > 3, edge (1, x = x - 5, 2): "
            "variable 'b' is not bound in the data state"),
        "invariant": (
            "state q0 init\nstate q1 inv: x != -3 || a > 0\n"
            'trans q0 -> q1 on (*, "x = x - 5", *)\ntrans q0 -> q0 otherwise\n'
            "trans q1 -> q1 otherwise\n",
            'automaton invariant, state q0, transition q0 -> q1 on (*, "x = x - 5", *), '
            "edge (1, x = x - 5, 2): variable 'a' is not bound in the data state"),
        "otherwise": (
            "state q0 init\nstate q1 inv: x != -3 || b > 0\n"
            'trans q0 -> q1 on (*, "int x = input()", *)\ntrans q1 -> q1 otherwise\n',
            "automaton otherwise, state q1, transition q1 -> q1 otherwise, "
            "edge (1, x = x - 5, 2): variable 'b' is not bound in the data state"),
    }

    @pytest.mark.parametrize("guard", sorted(UNBOUND_GUARDS))
    def test_05_unbound_reads_name_where_they_happened(self, stepped, guard):
        """An assumption, a target's invariant and an otherwise target's
        invariant that read an unbound variable raise the same text three
        ways: through a plan the explorer stored and ran on input 1 before
        input 2 reached it, through a violation witness's plan, stored the
        same way, and through a test execution's step of the property."""
        program = parse_program(self.UNBOUND_PROGRAM)
        body, text = self.UNBOUND_GUARDS[guard]
        config = AnalysisConfig(Interval(1, 2), 10)
        built = []
        for kind in ("property", "violation-witness"):
            aut = parse_automaton(f"automaton {guard} kind={kind}\n{body}")
            visited = []
            stepped.clear()
            with pytest.raises(InvalidArtifact) as err:
                run_product(program, (aut,), config,
                            lambda v: visited.append(v.location) or VisitAction.CONTINUE)
            assert str(err.value) == text
            assert visited == [0, 1, 2, 3, 1]
            built.append(len(stepped))
        # the plan over x = x - 5 served both inputs, the witness's as the
        # property's
        assert built[1] == built[0]
        # each exploration ran the failing step's guard on both inputs
        assert stepped.ran.count(guard) >= 4
        with pytest.raises(InvalidArtifact) as err:
            exec_test(program, (2,), parse_automaton(f"automaton {guard} kind=property\n{body}"))
        assert str(err.value) == text


class PlanLog(list):
    """The automata of the step plans built, and in ``ran`` the names of the
    automata of the plans run (see ``TestStepMemo.stepped``)."""

    def __init__(self) -> None:
        super().__init__()
        self.ran: list = []


class TestExecStepMemo:
    """A test execution steps its automaton through ``automata.memo_step``:
    one plan per (frontier, edge) of the run, whatever the automaton's kind,
    and only the plan's guards on each post-state."""

    NEVER = ("state q0 init\nstate qe final\n"
             'trans q0 -> qe on (*, "!(i < n)", *) assume i > 1000\ntrans q0 -> q0 otherwise\n')

    @pytest.fixture
    def stepped(self, monkeypatch):
        """As ``TestStepMemo.stepped``, through the binding ``memo_step``
        calls."""
        seen = PlanLog()
        real_plan, real_run = automata_module.plan_step, automata_module.StepPlan.run

        def planning(aut, frontier, edge):
            seen.append(aut)
            return real_plan(aut, frontier, edge)

        def running(plan, bindings):
            seen.ran.append(plan.aut.name)
            return real_run(plan, bindings)

        monkeypatch.setattr(automata_module, "plan_step", planning)
        monkeypatch.setattr(automata_module.StepPlan, "run", running)
        return seen

    def test_01_each_step_is_planned_once_per_run(self, stepped):
        """Executing the count to 300 takes its 603 steps over the
        program's 5 edges from the frontier {q0}: 5 plans, and only the
        guarded exit step runs one."""
        program = parse_program(TestStepMemo.COUNT_TO)
        prop = parse_automaton(f"automaton never kind=property\n{self.NEVER}")
        report = exec_test(program, (300,), prop, 1000)
        assert (report.status, report.trace.length) == ("completed", 603)
        assert report.violation_observed is False
        assert len(program.edges) == 5
        assert stepped == [prop] * 5
        assert stepped.ran == ["never"]

    def test_02_guards_run_on_every_post_state(self, stepped):
        """A guard on the increment reads i: its one plan runs on each of
        the 300 increments and accepts on the last, so the exit edge is
        never stepped and 4 plans are built."""
        program = parse_program(TestStepMemo.COUNT_TO)
        prop = parse_automaton(
            "automaton last kind=property\nstate q0 init\nstate qe final\n"
            'trans q0 -> qe on (*, "i++", *) assume i >= 300\ntrans q0 -> q0 otherwise\n')
        report = exec_test(program, (300,), prop, 1000)
        assert report.violation_observed is True
        assert stepped == [prop] * 4
        assert stepped.ran == ["last"] * 300

    def test_03_violation_witness_plans_are_kept(self, stepped):
        """The same automaton as a violation witness is stepped as the
        property is: its 603 steps build 5 plans, only the exit step runs
        one, and the verdict is the property's."""
        program = parse_program(TestStepMemo.COUNT_TO)
        witness = parse_automaton(f"automaton never kind=violation-witness\n{self.NEVER}")
        report = exec_test(program, (300,), witness, 1000)
        assert (report.status, report.trace.length) == ("completed", 603)
        assert report.violation_observed is False
        assert stepped == [witness] * 5
        assert stepped.ran == ["never"]

    def test_04_a_new_frontier_gets_its_own_plans(self, stepped):
        """The first increment moves the property from q0 to q1, where the
        loop test reads i: the steps over the loop test and the increment
        are planned once from {q0} and once from {q1}, and the third loop
        test, with i = 2, accepts."""
        program = parse_program(TestStepMemo.COUNT_TO)
        prop = parse_automaton(
            "automaton second kind=property\nstate q0 init\nstate q1\nstate qe final\n"
            'trans q0 -> q1 on (*, "i++", *)\ntrans q1 -> qe on (*, "i < n", *) assume i == 2\n'
            "trans q0 -> q0 otherwise\ntrans q1 -> q1 otherwise\n")
        report = exec_test(program, (300,), prop, 1000)
        assert report.violation_observed is True
        assert stepped == [prop] * 6
        assert stepped.ran == ["second"] * 2

    def test_05_every_kind_agrees_with_the_reference_fold(self):
        """400 generated (program, automaton) pairs of every kind but the
        property (whose runs ``TestExecTest`` checks): the execution's
        verdict is the reference's acceptance of its trace."""
        rng = random.Random(3003)
        kinds = collections.Counter()
        for n in range(400):
            program = generators.random_program(rng)
            aut = (generators.random_test_goal,
                   generators.random_violation_witness,
                   generators.random_correctness_witness,
                   generators.random_condition,
                   lambda rng, program: build_test_case_automaton(generators.random_inputs(rng)),
                   )[n % 5](rng, program)
            inputs = generators.random_inputs(rng)
            report = exec_test(program, inputs, aut, rng.choice((4, 200)))
            assert report.violation_observed == naive_match_path(aut, report.trace).accepted
            kinds[aut.kind, report.violation_observed] += 1
        assert len(kinds) == 8, kinds  # correctness witnesses and test cases never accept


class TestNonBlockingRuleMemo:
    """The explorer applies a property's non-blocking rule through the
    property's own plan memo, and a test execution through its run's memo:
    each (frontier, edge) is planned once, whichever of the rule and the
    step needs it first."""

    BLIND_SPOT = AnalysisConfig(Interval(-8, 8), 500)
    REFUTED = "refuted: state q0 blocks edge (2, a = a * 2, 3) on {a=10}"

    @pytest.fixture
    def stepped(self, monkeypatch):
        """As ``TestStepMemo.stepped``, through both ``plan_step`` bindings,
        the explorer's and ``memo_step``'s."""
        seen = PlanLog()
        real_run = automata_module.StepPlan.run
        for module in (product_module, automata_module):
            def planning(aut, frontier, edge, real_plan=module.plan_step):
                seen.append(aut)
                return real_plan(aut, frontier, edge)

            monkeypatch.setattr(module, "plan_step", planning)

        def running(plan, bindings):
            seen.ran.append(plan.aut.name)
            return real_run(plan, bindings)

        monkeypatch.setattr(automata_module.StepPlan, "run", running)
        return seen

    @staticmethod
    def _verify(program, prop) -> str:
        with pytest.raises(InvalidArtifact) as err:
            verify(program, prop, TestNonBlockingRuleMemo.BLIND_SPOT)
        return str(err.value.report.non_blocking)

    @pytest.mark.parametrize("search, outcome, ran", [
        (_verify, REFUTED, 89),
        (lambda program, prop: str(validate_kind(prop, program, Interval(-8, 8)).non_blocking),
         REFUTED, 89),
        (lambda program, prop: exec_test(program, (4,), prop).violation_observed, False, 8),
    ], ids=["verify", "validate_kind", "exec_test"])
    def test_01_each_watched_step_is_planned_once(self, stepped, search, outcome, ran):
        """The blind-spot property's frontier is {q0} until its block, so
        the rule steps the frontiers the explorer or the run steps: 4 plans
        for the 4 program edges, not 4 more in a memo of the rule's own.
        Each plan still runs once for the rule and once for the step."""
        program = parse_program(corpus.BLIND_SPOT_PROGRAM)
        prop = parse_automaton(corpus.BLIND_SPOT_PROPERTY)
        assert search(program, prop) == outcome
        assert stepped == [prop] * 4
        assert stepped.ran == [prop.name] * ran

    def test_02_the_explorer_refuses_a_blocking_property(self):
        """A visitor that only continues still meets the refusal: every
        product whose automaton 0 is a property applies the rule."""
        program = parse_program(corpus.BLIND_SPOT_PROGRAM)
        prop = parse_automaton(corpus.BLIND_SPOT_PROPERTY)
        with pytest.raises(CoopVerifyError) as err:
            run_product(program, (prop,), self.BLIND_SPOT, lambda v: VisitAction.CONTINUE)
        assert "state q0 blocks edge (2, a = a * 2, 3) on {a=10}" in str(err.value)


class TestDeadVariables:
    """The explorer keys configurations on live variables only; programs with
    a dead input copy must still be judged as every path decides."""

    def test_01_judgments_agree_with_oracle(self):
        """Up to five inputs per path: three values keep the oracle's
        enumeration small.  The first 300 draws take a default property,
        which most programs violate; the 300 after them take a holding one,
        so the keys are checked on holding verdicts and their correctness
        witnesses too."""
        rng = random.Random(1999)
        dead_everywhere = 0
        holding = 0
        for holds in [False] * 300 + [True] * 300:
            program = generators.random_dead_copy_program(rng)
            prop = generators.random_property(rng, program, holds=holds)
            goals = generators.random_test_goal(rng, program)
            vw = generators.random_violation_witness(rng, program)
            cw = generators.random_correctness_witness(rng, program)
            cond = generators.random_condition(rng, program)
            inputs = generators.random_inputs(rng)
            dead_everywhere += "d" not in prop.reads | goals.reads
            every = brute_force_oracle(program, [], [], CFG1)
            bad = brute_force_oracle(program, [prop], ["accept"], CFG1)

            assert (check_fulfills(program, prop, CFG1).verdict is Verdict.HOLDS) == (not bad)
            covered = brute_force_oracle(program, [cw], ["cover"], CFG1)
            assert ((check_correctness_witness(program, prop, cw, CFG1).verdict
                     is Verdict.HOLDS) == (not bad and covered == every))
            admitted = brute_force_oracle(program, [vw], ["accept"], CFG1)
            assert ((check_violation_witness(program, prop, vw, CFG1).verdict
                     is Verdict.HOLDS) == bool(bad & admitted))
            accepted = brute_force_oracle(program, [cond], ["accept"], CFG1)
            assert ((check_condition_correct(program, prop, cond, CFG1).verdict
                     is Verdict.HOLDS) == (not (bad & accepted)))
            case = build_test_case_automaton(inputs)
            joint = brute_force_oracle(program, [goals, case], ["accept", "cover"], CFG1)
            judgment, _ = check_test_covers(program, inputs, goals, CFG1)
            assert (judgment.verdict is Verdict.HOLDS) == bool(joint)

            holding += not bad
            bundle = verify(program, prop, CFG1)
            assert bundle.result is (Result.FALSE if bad else Result.TRUE)
            if bad:
                assert naive_match_path(prop, bundle.judgment.evidence).accepted
            else:
                assert brute_force_oracle(program, [bundle.witness], ["cover"], CFG1) == every

            reachable = {FinalEntry(t, q) for path in every for run in all_runs(goals, path)
                         for t, q in run if q in goals.finals}
            suite = generate_tests(program, goals, CFG1)
            assert suite.covered_goals() == reachable
            for test in suite.tests:
                assert brute_force_oracle(program, [goals, build_test_case_automaton(test.inputs)],
                                          ["accept", "cover"], CFG1)
        assert dead_everywhere >= 100
        assert holding >= 300


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
