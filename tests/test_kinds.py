"""Tests for the structural constraints of the six automaton kinds."""

import collections
import dataclasses
import random
import re

import pytest

import corpus
import generators
from coopverify import automata, kinds, lang, product
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
from coopverify.lang import ConcreteDataState, InputOp, enumerate_paths, parse_program
from coopverify.predicates import CHI, TRUE, Comparison, Const, Interval, Var
from coopverify.product import run_product
from corpus import BLIND_SPOT_PROGRAM, BLIND_SPOT_PROPERTY
from reference import brute_force_oracle, naive_match_path, reference_blocks

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


class TestInitialInvariant:
    """Every run starts on the empty prefix, where nothing is bound, so a
    kind whose invariants need not be trivial has its initial invariant
    evaluated there."""

    @staticmethod
    def witness(invariant):
        return parse_automaton(corpus.sample_text("witness_correct.aut").replace(
            "state s0 init\n", f"state s0 init inv: {invariant}\n"))

    def test_01_unbound_read_is_a_violation(self, p):
        report = validate_kind(self.witness("x >= 0"), p)
        assert not report.ok
        assert [str(v) for v in report.violations] == [
            "[initial-invariant] s0: invariant read on the empty prefix: "
            "variable 'x' is not bound in the data state"]

    def test_02_invariant_evaluated_without_a_read_is_ok(self, p):
        for invariant in ("0 <= 1", "1 > 2", "true || x > 0"):
            assert validate_kind(self.witness(invariant), p).ok, invariant

    def test_03_test_case_initial_invariant(self, p):
        aut = build_test_case_automaton([4])
        mutated = dataclasses.replace(aut, invariants={"q0": Comparison(">", Var("x"), Const(0))})
        assert violated_constraints(validate_kind(mutated, p)) == {"initial-invariant"}


def chain_text(states, chain, otherwise=("q0", "q1")):
    """A test-case automaton's source: its state lines, its explicit
    transitions and an otherwise self-loop at each of ``otherwise``."""
    return ("automaton t kind=test-case\n" + "".join(f"state {q}\n" for q in states)
            + "".join(f"trans {t}\n" for t in chain)
            + "".join(f"trans {q} -> {q} otherwise\n" for q in otherwise))


CHAIN_PATTERN = '(*, "chi = input()", *)'


class TestTestCaseShape:
    """Each ``test-shape`` finding of a malformed test case, with its subject
    and message."""

    @pytest.mark.parametrize("text, findings", [
        (chain_text(["q0 init", "q1 final"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == 1"]),
         ["q1: test cases must have no final states"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == 1"],
                    otherwise=["q0"]),
         ["q1: every state needs an otherwise self-loop"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == 1",
                                        f"q0 -> q1 on {CHAIN_PATTERN} assume chi == 2"]),
         ["q0: chain states take at most one explicit transition",
          "q1: state is not on the chain"]),
        (chain_text(["q0 init", "q1"], ['q0 -> q1 on (0, "chi = input()", *) assume chi == 1']),
         ['q0 -> q1 on (0, "chi = input()", *) assume chi == 1: '
          "chain patterns must leave edge endpoints unconstrained"]),
        (chain_text(["q0 init", "q1"], ['q0 -> q1 on (*, "int a = 0", *)']),
         ['q0 -> q1 on (*, "int a = 0", *): chain transitions must use the input-template pattern',
          'q0 -> q1 on (*, "int a = 0", *): '
          "chain assumptions must pin the input placeholder to one value"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi <= 1"]),
         [f"q0 -> q1 on {CHAIN_PATTERN} assume chi <= 1: "
          "chain assumptions must pin the input placeholder to one value"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume 1 == chi"]),
         [f"q0 -> q1 on {CHAIN_PATTERN} assume 1 == chi: "
          "chain assumptions must pin the input placeholder to one value"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == a"]),
         [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == a: "
          "chain assumptions must pin the input placeholder to one value"]),
        (chain_text(["q0 init", "q1"], [f"q0 -> q1 on {CHAIN_PATTERN} assume chi == 1",
                                        f"q1 -> q0 on {CHAIN_PATTERN} assume chi == 2"]),
         [f"q1 -> q0 on {CHAIN_PATTERN} assume chi == 2: the chain revisits a state"]),
        (chain_text(["q0 init", "q1"], []),
         ["q1: state is not on the chain"]),
    ], ids=["final-state", "no-otherwise", "two-explicit", "bound-endpoints", "not-template",
            "pin-operator", "pin-sides", "pin-variable", "revisit", "off-chain"])
    def test_01_each_finding_names_its_subject(self, p, text, findings):
        report = validate_kind(parse_automaton(text), p)
        assert not report.ok
        assert [v.constraint for v in report.violations] == ["test-shape"] * len(findings)
        assert [f"{v.subject}: {v.message}" for v in report.violations] == findings

    def test_02_otherwise_must_loop(self, p):
        """The text format refuses an otherwise transition that is no
        self-loop, so this one is built directly."""
        pin = Comparison("==", CHI, Const(1))
        aut = automata.make_automaton("t", AutomatonKind.TEST_CASE, ["q0", "q1"], "q0", (), [
            automata.Transition("q0", "q1", EdgePattern(None, "chi = input()", None), pin),
            automata.Transition("q0", "q1", None, TRUE, otherwise=True),
            automata.Transition("q1", "q1", None, TRUE, otherwise=True)])
        report = validate_kind(aut, p)
        assert [str(v) for v in report.violations] == [
            "[test-shape] q0 -> q1 otherwise: otherwise transition must be a self-loop"]


class TestTemplateWalk:
    def test_01_each_non_true_assumption_and_invariant_walked_once(self, monkeypatch):
        """A path-shaped violation witness of a 1,000-round run, one
        transition per step, has 2,004 transitions, all but the input's
        assuming ``true``; the template check walks the one other assumption
        and no ``true`` one."""
        program = corpus.program_p_prime()
        bundle = verify(program, corpus.prop(), AnalysisConfig(Interval(1000, 1000), 3100))
        assert bundle.result is Result.FALSE
        evidence = bundle.judgment.evidence
        states = [f"w{i}" for i in range(evidence.length + 1)]
        transitions = []
        for i, step in enumerate(evidence.steps[1:]):
            edge = step.incoming
            assumption = TRUE
            if isinstance(edge.op, InputOp):
                assumption = Comparison("==", Var(edge.op.target),
                                        Const(step.state[edge.op.target]))
            transitions.append(automata.Transition(
                states[i], states[i + 1],
                EdgePattern(edge.match_src, edge.op.text, edge.match_tgt), assumption))
        path_witness = automata.make_automaton("path_witness", AutomatonKind.VIOLATION_WITNESS,
                                               states, states[0], (states[-1],), transitions)
        walked = []
        real = kinds.mentions_template

        def counting(tree):
            walked.append(tree)
            return real(tree)

        monkeypatch.setattr(kinds, "mentions_template", counting)
        for witness in (path_witness, parse_automaton(serialize_automaton(path_witness))):
            walked.clear()
            assert len(witness.transitions) == 2004
            assert validate_kind(witness, program).ok
            assumptions = [t.assumption for t in witness.transitions
                           if not t.otherwise and t.assumption != TRUE]
            assert not witness.invariants
            assert walked == assumptions and len(walked) == 1


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

    @pytest.mark.parametrize("max_steps", [50, 4])
    def test_07_the_judgment_search_refuses_what_the_reference_sees(self, max_steps):
        """verify applies the non-blocking rule in its own search, so it
        refuses a property only with a real block, and answers false on a
        blocking property that accepts a path before its first block.
        Generated properties without an otherwise loop, half of them
        holding, at a bound that truncates nothing and at one that does;
        the reference runs on every complete path, which 50 steps reach."""
        rng = random.Random(2311)
        complete = AnalysisConfig(DOM, 50)
        config = AnalysisConfig(DOM, max_steps)
        outcomes = collections.Counter()
        for index in range(400):
            program = generators.random_program(rng)
            prop = generators.random_property(rng, program, otherwise=False,
                                              holds=index % 2 == 1, domain=DOM)
            blocks = reference_blocks(prop, program, complete)
            try:
                bundle = verify(program, prop, config)
            except InvalidArtifact as err:
                nb = err.report.non_blocking
                assert (nb.state, nb.edge, ConcreteDataState(nb.counter_state)) in blocks
                outcomes["refused"] += 1
                continue
            if bundle.result is Result.FALSE:
                assert naive_match_path(prop, bundle.judgment.evidence).accepted
                outcomes["false, blocking" if blocks else "false"] += 1
            elif bundle.result is Result.TRUE:
                assert not blocks
                assert not brute_force_oracle(program, [prop], ["accept"], complete)
                outcomes["true"] += 1
            else:
                assert enumerate_paths(program, DOM, max_steps).truncated
                outcomes["unknown"] += 1
        assert outcomes["refused"] >= 40 and outcomes["false, blocking"] >= 40, outcomes
        assert outcomes["true"] >= 20, outcomes

    def test_06_each_configuration_lists_its_steps_once(self, monkeypatch):
        """The check reads the steps the explorer lists for each visit, so
        ``lang.successors`` runs once per configuration visited."""
        calls = collections.Counter()
        original = lang.successors

        def counted(*args):
            calls["successors"] += 1
            return original(*args)

        for module in (lang, product, kinds):
            if getattr(module, "successors", None) is original:
                monkeypatch.setattr(module, "successors", counted)
        explore = kinds.run_product

        def counting_run_product(program, automata, config, visit):
            def counting_visit(v):
                calls["visits"] += 1
                return visit(v)
            return explore(program, automata, config, counting_visit)

        monkeypatch.setattr(kinds, "run_product", counting_run_product)
        report = validate_kind(parse_automaton(BLIND_SPOT_PROPERTY),
                               parse_program(BLIND_SPOT_PROGRAM), DEFAULT_CONFIG.input_domain)
        assert report.non_blocking.status == REFUTED
        assert calls["visits"] > 1 and calls["successors"] == calls["visits"]
