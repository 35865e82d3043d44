"""Tests for artifact automata: patterns, otherwise, matching, text format."""

import collections
import itertools
import random
import re

import pytest

import corpus
import generators
from coopverify import AnalysisConfig, automata, parse_program, verify
from coopverify.automata import (
    ArtifactAutomaton,
    AutomatonKind,
    EdgePattern,
    FinalEntry,
    Transition,
    accepts,
    covers,
    initial_frontier,
    make_automaton,
    match_path,
    parse_automaton,
    serialize_automaton,
    step_frontier,
)
from coopverify.errors import (
    DuplicateOtherwise,
    InvalidArtifact,
    ParseError,
    UnboundTemplate,
    UndefinedVariable,
    UnknownKind,
)
from coopverify.kinds import build_test_case_automaton
from coopverify.lang import (
    EMPTY_STATE,
    CFAEdge,
    ConcreteDataState,
    ConcretePath,
    InputOp,
    PathStep,
    enumerate_paths,
)
from coopverify.predicates import Interval, TRUE, parse_predicate
from reference import (
    all_runs,
    naive_match_path,
    reference_moves,
    reference_pattern_text,
    reference_serialize,
    reference_step,
    reference_transition_text,
)


def empty_path(cfa):
    return ConcretePath((PathStep(EMPTY_STATE, cfa.initial, None),))


def path_with_inputs(cfa, inputs, domain=Interval(-4, 4)):
    for path in enumerate_paths(cfa, domain, 200).paths:
        if path.inputs() == tuple(inputs):
            return path
    raise AssertionError(f"no maximal path with inputs {inputs}")


class TestEdgePattern:
    def test_01_concrete_pattern(self, p):
        pattern = EdgePattern(3, "a < x", 4)
        assert pattern.matches(corpus.program_p().edges[3])
        assert [pattern.matches(e) for e in p.edges].count(True) == 1

    def test_02_wildcards(self, p):
        assert all(EdgePattern(None, None, None).matches(e) for e in p.edges)
        assert [EdgePattern(3, None, None).matches(e) for e in p.edges].count(True) == 2

    def test_03_matching_uses_original_labels(self, p):
        """Relabeled edges (as produced by program transformations) still
        match patterns written against the original locations."""
        original = p.edges[0]
        moved = CFAEdge(7, original.op, 8, match_source=0, match_target=1)
        assert EdgePattern(0, original.op.text, 1).matches(moved)
        assert not EdgePattern(7, original.op.text, 8).matches(moved)

    def test_04_input_template_detection(self):
        assert EdgePattern(None, "chi = input()", None).is_input_template
        assert not EdgePattern(None, "int x = input()", None).is_input_template
        assert not EdgePattern(None, None, None).is_input_template

    def test_05_spacing_does_not_change_what_matches(self, p):
        def matched(pattern):
            return [pattern.matches(e) for e in p.edges]

        canonical = matched(EdgePattern(None, "a < x", None))
        assert canonical.count(True) == 1
        for text in ("a<x", "  a <  x ", "a\t<\nx"):
            assert matched(EdgePattern(None, text, None)) == canonical
        template = EdgePattern(None, "chi=input()", None)
        assert template.is_input_template
        assert matched(template) == matched(EdgePattern(None, "chi = input()", None))
        assert matched(template).count(True) == 1

    def test_06_spacing_still_distinguishes_patterns(self):
        """Matching ignores whitespace; equality, hashing and printing keep
        the text as written."""
        tight, loose = EdgePattern(3, "a<x", 4), EdgePattern(3, "  a <  x ", 4)
        assert tight != loose
        assert tight == EdgePattern(3, "a<x", 4)
        assert hash(tight) == hash((3, "a<x", 4))
        assert hash(loose) == hash((3, "  a <  x ", 4))
        assert len({tight, loose, EdgePattern(3, "a<x", 4)}) == 2
        assert str(loose) == '(3, "  a <  x ", 4)'
        assert str(EdgePattern(None, None, None)) == "(*, *, *)"
        assert repr(loose) == "EdgePattern(source=3, op_text='  a <  x ', target=4)"


class TestOtherwiseExpansion:
    """The otherwise rule as ``step_frontier`` runs it: the otherwise
    transition fires exactly when no explicit transition both matches the
    edge and has its assumption hold."""

    def test_01_enabled_when_assumption_fails(self, p):
        prop = corpus.prop()
        exit_edge = [e for e in p.edges if e.source == 3 and e.target == 6][0]
        state = ConcreteDataState({"a": 0, "b": 0, "x": 0})
        assert step_frontier(prop, frozenset({"q0"}), exit_edge, state) \
            == (frozenset({"q0"}), frozenset())

    def test_02_disabled_when_explicit_fires(self, p):
        """The explicit match wins: the run leaves q0 for the final state and
        does not also stay by otherwise."""
        prop = corpus.prop()
        exit_edge = [e for e in p.edges if e.source == 3 and e.target == 6][0]
        state = ConcreteDataState({"a": 1, "b": 0, "x": 1})
        succ, entries = step_frontier(prop, frozenset({"q0"}), exit_edge, state)
        assert succ == frozenset({"qe"})
        assert {(e.transition.otherwise, e.state) for e in entries} == {(False, "qe")}

    def test_03_test_case_never_consumes_inputs(self, p):
        """Input edges must be matched by an explicit chain transition or the
        run dies; otherwise a length-n test would match longer input paths."""
        test_case = build_test_case_automaton([4])
        input_edge = p.edges[0]
        state = ConcreteDataState({"x": 5})
        for q in ("q0", "q1"):
            assert test_case.otherwise_at(q) is not None
            assert step_frontier(test_case, frozenset({q}), input_edge, state) \
                == (frozenset(), frozenset())
        # off the input edges, the same otherwise loop keeps the run alive
        body_edge = [e for e in p.edges if e.op.text == "a++"][0]
        assert step_frontier(test_case, frozenset({"q1"}), body_edge,
                             ConcreteDataState({"a": 1, "b": 0, "x": 2})) \
            == (frozenset({"q1"}), frozenset())

    def test_04_enabled_on_unmatched_edge(self, p):
        prop = corpus.prop()
        body_edge = [e for e in p.edges if e.op.text == "a++"][0]
        assert step_frontier(prop, frozenset({"q0"}), body_edge,
                             ConcreteDataState({"a": 1, "b": 0, "x": 2})) \
            == (frozenset({"q0"}), frozenset())


class TestMatchPath:
    def test_01_property_observes_clean_run(self, p):
        verdict = match_path(corpus.prop(), path_with_inputs(p, (0,)))
        assert verdict.covered
        assert not verdict.accepted
        assert verdict.k == 4

    def test_02_violation_witness_accepts_broken_run(self, p_prime):
        path = path_with_inputs(p_prime, (1,))
        verdict = match_path(corpus.witness_violation(), path)
        assert verdict.accepted and verdict.covered
        assert verdict.k == path.length == 6
        # the run enters the final state w6 on the last edge, not before
        assert not match_path(corpus.witness_violation(), ConcretePath(path.steps[:6])).accepted

    def test_03_test_case_covers_but_never_accepts(self, p):
        verdict = match_path(build_test_case_automaton([4]), path_with_inputs(p, (4,)))
        assert verdict.covered
        assert not verdict.accepted
        assert verdict.k == path_with_inputs(p, (4,)).length

    def test_04_empty_path_is_covered(self, p):
        verdict = match_path(corpus.prop(), empty_path(p))
        assert verdict.covered
        assert verdict.k == 0
        assert not verdict.accepted

    def test_05_false_initial_invariant_matches_nothing(self, p):
        aut = parse_automaton(
            "automaton stuck kind=correctness-witness\n"
            "state s0 init inv: false\n"
            "trans s0 -> s0 otherwise\n")
        verdict = match_path(aut, empty_path(p))
        assert verdict.k is None
        assert not verdict.matched
        assert not verdict.accepted and not verdict.covered

    def test_06_wrong_input_value_kills_test_case(self, p):
        assert not covers(build_test_case_automaton([3]), path_with_inputs(p, (4,)))
        assert not covers(build_test_case_automaton([4]), path_with_inputs(p, (0,)))

    def test_07_accepts_covers_helpers(self, p_prime):
        path = path_with_inputs(p_prime, (1,))
        assert accepts(corpus.prop(), path)
        assert covers(corpus.prop(), path)

    def test_08_template_binds_to_input_target(self):
        """The placeholder compares against whatever variable the matched
        input edge assigns."""
        from coopverify.lang import parse_program
        cfa = parse_program("int y = input();\n")
        assert covers(build_test_case_automaton([2]), path_with_inputs(cfa, (2,)))
        assert not covers(build_test_case_automaton([1]), path_with_inputs(cfa, (2,)))


class TestFrontiers:
    def test_01_initial_frontier_records_final_entry(self):
        cond = parse_automaton(corpus.INSTANT_CONDITION)
        frontier, entries = initial_frontier(cond, EMPTY_STATE)
        assert frontier == frozenset({"q0"})
        assert entries == frozenset({FinalEntry(None, "q0")})

    def test_02_step_frontier_moves_on_match(self, p):
        prop = corpus.prop()
        frontier, entries = initial_frontier(prop, EMPTY_STATE)
        assert entries == frozenset()
        exit_edge = [e for e in p.edges if e.source == 3 and e.target == 6][0]
        succ, entries = step_frontier(prop, frontier, exit_edge,
                                      ConcreteDataState({"a": 1, "b": 0, "x": 1}))
        assert succ == frozenset({"qe"})
        assert {e.state for e in entries} == {"qe"}

    def test_03_step_frontier_stays_via_otherwise(self, p):
        prop = corpus.prop()
        frontier, _ = initial_frontier(prop, EMPTY_STATE)
        succ, entries = step_frontier(prop, frontier, p.edges[0],
                                      ConcreteDataState({"x": 1}))
        assert succ == frozenset({"q0"})
        assert entries == frozenset()

    def test_04_chi_binds_only_through_the_input_template(self, p):
        """On an input edge the placeholder stands for the read variable in
        the assumption and the target invariant of an input-template
        transition, and in no other transition."""
        template = parse_automaton(
            "automaton pinned kind=test-goal\nstate q0 init\nstate q1 final inv: chi > 3\n"
            "trans q0 -> q1 on (*, \"chi = input()\", *) assume chi == 4\n")
        input_edge = p.edges[0]
        succ, _ = step_frontier(template, frozenset({"q0"}), input_edge,
                                ConcreteDataState({"x": 4}))
        assert succ == frozenset({"q1"})
        unbound = make_automaton(
            "unbound", AutomatonKind.TEST_GOAL, ["q0", "q1"], "q0", ["q1"],
            [Transition("q0", "q1", EdgePattern(None, "int x = input()", None),
                        parse_predicate("chi == 4"))])
        with pytest.raises(UnboundTemplate):
            step_frontier(unbound, frozenset({"q0"}), input_edge, ConcreteDataState({"x": 4}))

    def test_05_unbound_read_names_where_it_happened(self, p):
        """An assumption, or a target's invariant, reading a variable the
        post-state does not bind is an invalid artifact, reported with the
        automaton, the state, the transition and the edge."""
        reads_b = parse_automaton(
            "automaton reads_b kind=property\nstate q0 init\nstate qe final\n"
            "trans q0 -> qe on (*, *, *) assume b > 3\ntrans q0 -> q0 otherwise\n")
        with pytest.raises(InvalidArtifact) as err:
            step_frontier(reads_b, frozenset({"q0"}), p.edges[0], ConcreteDataState({"x": 4}))
        assert str(err.value) == (
            "automaton reads_b, state q0, transition q0 -> qe on (*, *, *) assume b > 3, "
            "edge (0, int x = input(), 1): variable 'b' is not bound in the data state")
        guarded = parse_automaton(
            "automaton guarded kind=test-goal\nstate q0 init\nstate q1 final inv: a > 0\n"
            "trans q0 -> q1 on (0, *, *)\n")
        with pytest.raises(InvalidArtifact, match=r"transition q0 -> q1 on \(0, \*, \*\), edge "
                                                  r"\(0, int x = input\(\), 1\): variable 'a'"):
            step_frontier(guarded, frozenset({"q0"}), p.edges[0], ConcreteDataState({"x": 4}))


# Two explicit transitions and an otherwise transition leave q0.
TWO_GUARDS = """\
automaton two_guards kind=property
state q0 init
state qa inv: a >= 0
state qe final
trans q0 -> qe on (3, "!(a < x)", 6) assume a != b
trans q0 -> qa on (*, "!(a<x)", *) assume a > 5
trans q0 -> q0 otherwise
trans qa -> qa otherwise
"""


class TestSinglePass:
    """Each step evaluates every matching explicit transition's assumption
    once, plus the invariant of each target entered; deciding the otherwise
    transition evaluates nothing further.  A ``true`` assumption and a
    trivial invariant hold without an evaluation: in TWO_GUARDS only the
    two guards and the invariant of qa are ever evaluated."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        seen = []
        real = automata.evaluate

        def counting(pred, state, chi=None):
            seen.append(pred)
            return real(pred, state, chi=chi)

        monkeypatch.setattr(automata, "evaluate", counting)
        return seen

    def exit_edge(self, p):
        return [e for e in p.edges if e.source == 3 and e.target == 6][0]

    def test_01_otherwise_fires_without_reevaluation(self, p, evaluated):
        aut = parse_automaton(TWO_GUARDS)
        guards = [t.assumption for t in aut.explicit_from("q0")]
        succ, _ = step_frontier(aut, frozenset({"q0"}), self.exit_edge(p),
                                ConcreteDataState({"a": 0, "b": 0, "x": 0}))
        assert succ == frozenset({"q0"})
        assert evaluated == guards  # the otherwise target q0 has a trivial invariant

    def test_02_explicit_fires_once(self, p, evaluated):
        aut = parse_automaton(TWO_GUARDS)
        guards = [t.assumption for t in aut.explicit_from("q0")]
        succ, entries = step_frontier(aut, frozenset({"q0"}), self.exit_edge(p),
                                      ConcreteDataState({"a": 7, "b": 6, "x": 7}))
        assert succ == frozenset({"qa", "qe"})
        assert {e.state for e in entries} == {"qe"}
        assert evaluated == guards + [aut.invariant("qa")]  # qe's invariant is trivial

    def test_03_unmatched_edge_evaluates_only_the_invariant(self, p, evaluated):
        aut = parse_automaton(TWO_GUARDS)
        body_edge = [e for e in p.edges if e.op.text == "a++"][0]
        succ, _ = step_frontier(aut, frozenset({"q0"}), body_edge,
                                ConcreteDataState({"a": 1, "b": 0, "x": 2}))
        assert succ == frozenset({"q0"})
        assert evaluated == []  # no guard matches, and q0's invariant is trivial

    def test_04_test_case_input_edge_never_takes_otherwise(self, p, evaluated):
        test_case = build_test_case_automaton([4])
        (chain,) = test_case.explicit_from("q0")
        input_edge = p.edges[0]
        succ, _ = step_frontier(test_case, frozenset({"q0", "q1"}), input_edge,
                                ConcreteDataState({"x": 5}))
        assert succ == frozenset()
        assert evaluated == [chain.assumption]
        evaluated.clear()
        succ, _ = step_frontier(test_case, frozenset({"q0"}), input_edge,
                                ConcreteDataState({"x": 4}))
        assert succ == frozenset({"q1"})
        assert evaluated == [chain.assumption]  # q1's invariant is trivial

    def test_05_otherwise_target_invariant_evaluated_once(self, p, evaluated):
        aut = parse_automaton(TWO_GUARDS)
        body_edge = [e for e in p.edges if e.op.text == "a++"][0]
        succ, _ = step_frontier(aut, frozenset({"qa"}), body_edge,
                                ConcreteDataState({"a": 1, "b": 0, "x": 2}))
        assert succ == frozenset({"qa"})
        assert evaluated == [aut.invariant("qa")]
        evaluated.clear()
        succ, _ = step_frontier(aut, frozenset({"qa"}), body_edge,
                                ConcreteDataState({"a": -1, "b": 0, "x": 2}))
        assert succ == frozenset()
        assert evaluated == [aut.invariant("qa")]


# Nondeterministic on purpose: from q0, two input-template transitions and a
# plain one can fire on one input edge; q1 and q3 have two successors on
# every edge; invariants read the placeholder or a variable unbound early on.
BRANCHING = """\
automaton branching kind=test-goal
state q0 init
state q1 inv: chi >= 0
state q2 final
state q3 final inv: a < 3
trans q0 -> q1 on (*, "chi = input()", *) assume chi > 0
trans q0 -> q2 on (*, "chi=input()", *) assume chi >= -1
trans q0 -> q3 on (*, "int x = input()", *) assume x != 2
trans q0 -> q0 otherwise
trans q1 -> q3 on (*, *, *)
trans q1 -> q2 on (*, *, *) assume x != 1
trans q2 -> q2 otherwise
trans q3 -> q1 on (*, *, *) assume x > 0
trans q3 -> q2 on (3, *, *) assume b < a
trans q3 -> q3 otherwise
"""


class TestReferenceStep:
    """step_frontier against ``reference.reference_step`` on every frontier of
    each automaton and every (edge, post-state) pair of the program's paths,
    exceptions included."""

    @staticmethod
    def _outcome(step, aut, frontier, edge, post):
        """The step's result or its error; an unbound read the step reports
        as InvalidArtifact compares as the error that caused it."""
        try:
            return step(aut, frontier, edge, post)
        except (InvalidArtifact, UndefinedVariable, UnboundTemplate) as err:
            cause = err.__cause__ if isinstance(err, InvalidArtifact) else err
            return type(cause), str(cause)

    def _compare(self, aut, program, domain, seen):
        frontiers = [frozenset(c) for k in range(len(aut.states) + 1)
                     for c in itertools.combinations(aut.states, k)]
        steps = {(step.incoming, step.state)
                 for path in enumerate_paths(program, domain, 200).paths
                 for step in path.steps[1:]}
        for edge, post in sorted(steps, key=repr):
            for frontier in frontiers:
                got = self._outcome(step_frontier, aut, frontier, edge, post)
                assert got == self._outcome(reference_step, aut, frontier, edge, post), \
                    (aut.name, sorted(frontier), edge, post)
                seen["input" if isinstance(edge.op, InputOp) else "other"] += 1
                seen["one state" if len(frontier) == 1 else "states"] += 1
                if isinstance(got[0], frozenset) and len(got[0]) > 1:
                    seen["branching"] += 1

    def test_01_generated_automata(self):
        rng = random.Random(2718)
        seen = collections.Counter()
        for _ in range(40):
            program = generators.random_program(rng)
            for aut in (generators.random_property(rng, program),
                        generators.random_test_goal(rng, program),
                        generators.random_condition(rng, program),
                        build_test_case_automaton(generators.random_inputs(rng))):
                self._compare(aut, program, Interval(-2, 2), seen)
        assert min(seen[k] for k in ("input", "other", "one state", "states")) > 100

    def test_02_nondeterministic_and_template_automata(self, p):
        seen = collections.Counter()
        for aut in (parse_automaton(BRANCHING), parse_automaton(TWO_GUARDS),
                    build_test_case_automaton([2, 0]), corpus.prop(), corpus.goals()):
            self._compare(aut, p, Interval(-2, 3), seen)
        assert seen["branching"] > 10 and seen["input"] > 10


class TestAutFormat:
    def test_01_property_sample_shape(self):
        prop = corpus.prop()
        assert prop.kind is AutomatonKind.PROPERTY
        assert set(prop.states) == {"q0", "qe"}
        assert prop.finals == frozenset({"qe"})
        assert prop.otherwise_at("q0") is not None

    def test_02_round_trip_samples(self):
        autos = [corpus.prop(), corpus.goals(), corpus.cond(),
                 corpus.witness_correct(), corpus.witness_violation()]
        for aut in autos:
            assert parse_automaton(serialize_automaton(aut)) == aut

    def test_03_round_trip_test_case(self):
        aut = build_test_case_automaton([1, 2])
        again = parse_automaton(serialize_automaton(aut))
        assert again == aut

    def test_04_serialize_is_stable(self):
        text = serialize_automaton(corpus.cond())
        assert serialize_automaton(parse_automaton(text)) == text

    def test_05_duplicate_otherwise_rejected(self):
        with pytest.raises(DuplicateOtherwise):
            parse_automaton(
                "automaton twice kind=property\n"
                "state q0 init\n"
                "trans q0 -> q0 otherwise\n"
                "trans q0 -> q0 otherwise\n")

    def test_06_unknown_kind_lists_choices(self):
        with pytest.raises(UnknownKind) as exc:
            parse_automaton("automaton bad kind=monitor\nstate q0 init\n")
        assert "property" in str(exc.value)
        assert "test-case" in str(exc.value)

    def test_07_otherwise_must_self_loop(self):
        with pytest.raises(ParseError):
            parse_automaton(
                "automaton wrong kind=property\n"
                "state q0 init\n"
                "state q1\n"
                "trans q0 -> q1 otherwise\n")

    def test_08_header_required(self):
        with pytest.raises(ParseError):
            parse_automaton("state q0 init\n")

    def test_09_invariants_parse(self):
        wit = corpus.witness_correct()
        assert "s3" in wit.invariants
        assert wit.invariant("s0") == TRUE

    def test_10_serialize_reproduces_the_samples(self):
        """The samples are written in canonical form, so serializing one
        gives back its own lines, comments and blank lines aside."""
        names = sorted(path.name for path in corpus.SAMPLES.glob("*.aut"))
        assert len(names) == 5
        for name in names:
            text = corpus.sample_text(name)
            lines = [line.strip() for line in text.splitlines()
                     if line.strip() and not line.strip().startswith("#")]
            assert serialize_automaton(parse_automaton(text)) == "\n".join(lines) + "\n"

    def test_11_duplicate_state_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_automaton("automaton twice kind=property\n"
                            "state q0 init\n"
                            "state q1\n"
                            "# the second q0\n"
                            "state q0 final\n")
        assert exc.value.line == 5
        assert "state 'q0' declared twice" in str(exc.value)

    def test_12_long_chain_round_trips(self):
        """A chain of 3,003 transitions parses back to itself."""
        states = [f"w{i}" for i in range(3004)]
        transitions = [Transition(a, b, EdgePattern(i % 3, "x++", i % 3 + 1))
                       for i, (a, b) in enumerate(zip(states, states[1:]))]
        chain = make_automaton("chain", AutomatonKind.VIOLATION_WITNESS, states,
                               states[0], (states[-1],), transitions)
        text = serialize_automaton(chain)
        assert parse_automaton(text) == chain
        assert serialize_automaton(parse_automaton(text)) == text

    @pytest.mark.parametrize("line, message", [
        (" trans q0 -> qe on (*, *, *) assume x <",
         "bad assumption: expected an expression (found '') at line 4, column 40"),
        ("state q1 inv:  (x < 1",
         "bad invariant: expected ')', found '' at line 4, column 22"),
    ])
    def test_13_bad_predicate_names_one_position(self, line, message):
        """The predicate's own error position is mapped into its line."""
        with pytest.raises(ParseError) as exc:
            parse_automaton(f"automaton a kind=property\nstate q0 init\nstate qe final\n{line}\n")
        assert str(exc.value) == message

    def test_14_unbound_initial_invariant_names_its_state(self):
        witness = make_automaton("w", AutomatonKind.CORRECTNESS_WITNESS, ("s0",), "s0", (),
                                 (), {"s0": parse_predicate("x >= 0")})
        with pytest.raises(InvalidArtifact) as exc:
            initial_frontier(witness, EMPTY_STATE)
        assert str(exc.value) == ("automaton w, state s0, empty prefix: "
                                  "variable 'x' is not bound in the data state")


class TestLineCostParse:
    """``trans`` lines with the same (source, operation, target) share one
    pattern; each line is parsed on its own, so a refusal after repeated
    lines is raised on its own line, whatever its spacing."""

    HEAD = ("automaton w kind=violation-witness\nstate w0 init\nstate w1\nstate w2\n"
            "state w3 final\n")

    def test_01_repeated_tails_share_pattern_and_assumption(self):
        aut = parse_automaton(self.HEAD
                              + 'trans w0 -> w1 on (0, "x++", 1) assume x > 0\n'
                              + 'trans w1 -> w2 on (0, "x++", 1) assume x > 0\n'
                              + 'trans w2 -> w3 on (0, "x++", 1)\n')
        first, second, third = aut.transitions
        assert first.pattern is second.pattern is third.pattern
        assert third.assumption == TRUE
        assert type(second) is Transition
        assert second == Transition("w1", "w2", EdgePattern(0, "x++", 1),
                                    parse_predicate("x > 0"))

    def test_02_other_spacing_parses_alike(self):
        """Lines that are not written as the serialiser writes them take
        the regular expression, and mean what a canonical line means."""
        canonical = parse_automaton(self.HEAD + "".join(
            f'trans w{i} -> w{i + 1} on (0, "x++", 1) assume x > 0\n' for i in range(3)))
        spaced = parse_automaton(self.HEAD
                                 + 'trans w0 -> w1 on (0, "x++", 1) assume x > 0\n'
                                 + 'trans w1->w2 on (0, "x++", 1) assume x > 0\n'
                                 + 'trans  w2  ->  w3  on  ( 0 ,"x++",  1 )  assume x > 0\n')
        assert spaced == canonical

    @pytest.mark.parametrize("line, message", [
        ('trans w2 -> w3 on (0, "x++", 1) assume x >',
         "bad assumption: expected an expression (found '') at line 8, column 43"),
        ('trans w2 -> w3 on (0, "x++", \u0663)', "expected an integer, found '\u0663' at line 8"),
        ('trans w2 - > w3 on (0, "x++", 1) assume x > 0',
         "unrecognized line 'trans w2 - > w3 on (0, \"x++\", 1) assume x > 0' at line 8"),
        ('trans w2 -> w3 in (0, "x++", 1) assume x > 0',
         "unrecognized line 'trans w2 -> w3 in (0, \"x++\", 1) assume x > 0' at line 8"),
        ('tran w2 -> w3 on (0, "x++", 1) assume x > 0',
         "unrecognized line 'tran w2 -> w3 on (0, \"x++\", 1) assume x > 0' at line 8"),
        ('trans w2 -> w9 on (0, "x++", 1) assume x > 0',
         'transition w2 -> w9 on (0, "x++", 1) assume x > 0 uses an undeclared state'),
    ])
    def test_03_refusal_after_repeated_tails_names_its_line(self, line, message):
        text = self.HEAD + "".join(
            f'trans w{i} -> w{i + 1} on (0, "x++", 1) assume x > 0\n' for i in range(2))
        with pytest.raises(ParseError) as exc:
            parse_automaton(text + line + "\n")
        assert str(exc.value) == message

    def test_04_state_lines_keep_their_refusals(self):
        """A state line with more flags than the first split takes apart,
        and one whose id reads ``inv:``, name the flag the parser refused."""
        for line, flag in (("state w4 final final final bogus flag", "bogus"),
                           ("state inv: x > 0", "x")):
            with pytest.raises(ParseError) as exc:
                parse_automaton(self.HEAD + line + "\n")
            assert str(exc.value) == f"unknown state flag {flag!r} at line 6"


def verdict_triple(v):
    return (v.k, v.accepted, v.covered)


class TestArtifactText:
    """The text of an automaton is pinned byte for byte to a formatter that
    renders every pattern and transition afresh, and the one-pass index of
    transitions by state to a scan of all transitions."""

    GENERATORS = (generators.random_property, generators.random_test_goal,
                  generators.random_condition, generators.random_violation_witness,
                  generators.random_correctness_witness)

    @staticmethod
    def assert_text(aut):
        for t in aut.transitions:
            assert str(t) == reference_transition_text(t)
            if t.pattern is not None:
                assert str(t.pattern) == reference_pattern_text(t.pattern)
        assert serialize_automaton(aut) == reference_serialize(aut)

    @staticmethod
    def assert_index(aut):
        for q in (*aut.states, "undeclared"):
            explicit, otherwise = reference_moves(aut, q)
            assert type(aut.explicit_from(q)) is tuple
            assert aut.explicit_from(q) == explicit
            assert all(a is b for a, b in zip(aut.explicit_from(q), explicit))
            assert aut.otherwise_at(q) is otherwise

    def generated(self):
        for seed in range(60):
            for generate in self.GENERATORS:
                rng = random.Random(seed)
                yield generate(rng, generators.random_program(rng))

    def test_01_samples(self):
        names = sorted(path.name for path in corpus.SAMPLES.glob("*.aut"))
        assert len(names) == 5
        for name in names:
            aut = parse_automaton(corpus.sample_text(name))
            self.assert_text(aut)
            self.assert_index(aut)

    def test_02_generated_automata(self):
        """300 automata, 60 seeds of each generator of ``test_roundtrip``."""
        count = 0
        for aut in self.generated():
            self.assert_text(aut)
            self.assert_index(aut)
            self.assert_text(parse_automaton(serialize_automaton(aut)))
            count += 1
        assert count == 300

    def test_03_witness_of_a_long_path(self):
        """verify's witness of a 3,004-step path, and its text read back."""
        program = parse_program("int c = input();\nint i = 0;\nint s = 5;\n"
                                "while (i < 1000) {\n  s = s + 3 * i;\n  i++;\n}\n")
        prop = parse_automaton("automaton first kind=property\nstate q0 init\nstate qe final\n"
                               'trans q0 -> qe on (*, "!(i < 1000)", *) assume c == -3\n'
                               "trans q0 -> q0 otherwise\n")
        bundle = verify(program, prop, AnalysisConfig(Interval(-3, 0), 3014))
        assert bundle.judgment.evidence.length == 3004
        witness = bundle.witness
        assert len(witness.transitions) == 7
        self.assert_text(witness)
        text = serialize_automaton(witness)
        assert text.splitlines()[-7] == ('trans w0 -> w1 on (0, "int c = input()", 1) '
                                         "assume c == -3")
        self.assert_text(parse_automaton(text))
        assert serialize_automaton(parse_automaton(text)) == text

    def test_04_index_of_a_state_with_many_transitions(self):
        """2,000 explicit transitions out of one state, in file order, with
        its otherwise transition among them."""
        states = ["q0", "q1", "q2"]
        transitions = [Transition("q0", states[1 + i % 2], EdgePattern(i, "x++", None))
                       for i in range(2000)]
        transitions.insert(700, Transition("q0", "q0", None, TRUE, otherwise=True))
        transitions.append(Transition("q2", "q2", None, TRUE, otherwise=True))
        aut = make_automaton("many", AutomatonKind.PROPERTY, states, "q0", ("q1",),
                             transitions)
        assert len(aut.explicit_from("q0")) == 2000
        assert aut.explicit_from("q1") == () and aut.otherwise_at("q1") is None
        self.assert_index(aut)
        self.assert_text(aut)

    def test_05_construction_checks_stay(self):
        """A second otherwise transition, even apart from the first, and a
        transition touching an undeclared state are refused at construction."""
        loop = Transition("q0", "q0", None, TRUE, otherwise=True)
        step = Transition("q0", "q1", EdgePattern(None, "x++", None))
        with pytest.raises(DuplicateOtherwise, match="state 'q0' has two otherwise"):
            make_automaton("a", AutomatonKind.PROPERTY, ("q0", "q1"), "q0", (),
                           (loop, step, loop))
        for bad in (Transition("q0", "q9", step.pattern), Transition("q9", "q0", step.pattern)):
            with pytest.raises(ValueError, match=re.escape(f"transition {bad} uses an undeclared")):
                make_automaton("a", AutomatonKind.PROPERTY, ("q0", "q1"), "q0", (),
                               (step, bad, loop, loop))


class TestMatchSemantics:
    """The determinized matcher against the naive run enumeration."""

    def corpus_pairs(self):
        p, pp = corpus.program_p(), corpus.program_p_prime()
        automata = [corpus.prop(), corpus.goals(), corpus.cond(),
                    corpus.witness_correct(), corpus.witness_violation(),
                    build_test_case_automaton([4]), build_test_case_automaton([]),
                    build_test_case_automaton([0, 1])]
        for program in (p, pp):
            paths = enumerate_paths(program, Interval(-2, 2), 200).paths
            for aut in automata:
                for path in paths:
                    yield aut, path

    def test_01_matcher_equals_naive_enumeration(self):
        checked = 0
        for aut, path in self.corpus_pairs():
            assert verdict_triple(match_path(aut, path)) \
                == verdict_triple(naive_match_path(aut, path))
            checked += 1
        assert checked > 50

    def test_02_matcher_equals_naive_on_random_inputs(self):
        rng = random.Random(6001)
        for _ in range(12):
            program = generators.random_program(rng)
            automata = [generators.random_property(rng, program),
                        generators.random_test_goal(rng, program),
                        generators.random_violation_witness(rng, program),
                        generators.random_correctness_witness(rng, program),
                        generators.random_condition(rng, program),
                        build_test_case_automaton(generators.random_inputs(rng))]
            for path in enumerate_paths(program, Interval(-2, 2), 200).paths:
                for aut in automata:
                    assert verdict_triple(match_path(aut, path)) \
                        == verdict_triple(naive_match_path(aut, path))

    def test_03_verdict_fields_agree_with_run_set(self):
        for aut, path in self.corpus_pairs():
            verdict = match_path(aut, path)
            runs = all_runs(aut, path)
            assert runs
            assert verdict.k == max(len(r) - 1 for r in runs)
            assert verdict.accepted == any(r[-1][1] in aut.finals for r in runs)
            assert verdict.covered == any(len(r) - 1 == path.length for r in runs)

    def test_04_acceptance_is_stable_under_extension(self):
        for aut, path in self.corpus_pairs():
            hit = False
            for i in range(path.length + 1):
                now = match_path(aut, ConcretePath(path.steps[:i + 1])).accepted
                assert now or not hit
                hit = hit or now

    def test_05_full_length_final_run_means_accepted_cover(self):
        for aut, path in self.corpus_pairs():
            runs = all_runs(aut, path)
            full_final = any(len(r) - 1 == path.length and r[-1][1] in aut.finals
                             for r in runs)
            if full_final:
                verdict = match_path(aut, path)
                assert verdict.covered and verdict.accepted

    def test_06_property_covers_every_path(self, p, p_prime):
        prop = corpus.prop()
        for program in (p, p_prime):
            for path in enumerate_paths(program, Interval(-2, 2), 200).paths:
                assert covers(prop, path)

    def test_07_accepting_run_ends_in_final(self):
        """An accepted path has a run ending in a final state, and the
        prefix that run consumes is accepted and covered."""
        for aut, path in self.corpus_pairs():
            if match_path(aut, path).accepted:
                run = min((r for r in all_runs(aut, path) if r[-1][1] in aut.finals), key=len)
                prefix = match_path(aut, ConcretePath(path.steps[:len(run)]))
                assert prefix.accepted and prefix.covered
