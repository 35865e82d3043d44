"""Tests for the imperative frontend and the concrete path semantics."""

import random

import pytest

import generators
from coopverify.errors import ParseError, UndefinedVariable, UseBeforeDef
from coopverify.lang import (
    BLOCKED,
    Assume,
    ConcreteDataState,
    ConcretePath,
    EMPTY_STATE,
    InputOp,
    PathStep,
    assume_op,
    check_defined_before_use,
    definitely_assigned,
    enumerate_paths,
    input_op,
    parse_cfa,
    parse_operation,
    parse_program,
    serialize_cfa,
    strongest_post,
    successors,
)
from coopverify.predicates import Interval, parse_predicate
from reference import replay_path


def edge_between(cfa, source, target):
    matches = [e for e in cfa.edges if e.source == source and e.target == target]
    assert len(matches) == 1
    return matches[0]


class TestParseProgram:
    def test_01_looping_example_structure(self, p):
        assert p.locations == frozenset(range(7))
        assert p.initial == 0
        assert len(p.edges) == 7
        assert edge_between(p, 3, 4).op.text == "a < x"
        assert edge_between(p, 3, 6).op.text == "!(a < x)"
        assert edge_between(p, 4, 5).op.text == "a++"
        assert isinstance(edge_between(p, 0, 1).op, InputOp)
        assert p.variables == frozenset({"a", "b", "x"})

    def test_02_single_statement(self):
        cfa = parse_program("int x = input();\n")
        assert cfa.locations == frozenset({0, 1})
        assert cfa.initial == 0
        assert len(cfa.edges) == 1
        assert cfa.edges[0].op == input_op("x", declare=True)

    def test_03_elided_increment_variant(self, p, p_prime):
        """Removing the second loop increment drops one location and reroutes
        the loop-body edge straight back to the loop head."""
        assert p_prime.locations == frozenset({0, 1, 2, 3, 4, 6})
        assert len(p_prime.edges) == 6
        assert edge_between(p_prime, 4, 3).op.text == "a++"
        shared = {(e.source, e.op.text, e.target) for e in p.edges if e.source != 4 and e.source != 5}
        assert shared <= {(e.source, e.op.text, e.target) for e in p_prime.edges}

    def test_04_location_labels_pin_numbering(self):
        cfa = parse_program("0: int a = 0;\n5: a++;\n9:\n")
        assert cfa.locations == frozenset({0, 5, 9})
        assert {(e.source, e.target) for e in cfa.edges} == {(0, 5), (5, 9)}

    def test_05_out_of_order_label_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int a = 0;\n0: a++;\n")

    def test_06_use_before_def(self):
        with pytest.raises(UseBeforeDef) as exc:
            parse_program("int a = b;\n")
        assert exc.value.variable == "b"

    def test_07_branch_must_assign_on_both_arms(self):
        source = "int x = input();\nif (x > 0) {\n  int a = 1;\n}\na++;\n"
        with pytest.raises(UseBeforeDef):
            parse_program(source)

    def test_08_template_name_rejected_in_programs(self):
        with pytest.raises(ParseError):
            parse_program("int chi = 0;\n")
        with pytest.raises(ParseError):
            parse_program("int x = input();\nint a = 0;\nwhile (chi < x) {\n  a++;\n}\n")

    def test_09_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("int a = ;\n")
        assert exc.value.line == 1


class TestStrongestPost:
    def test_01_increment(self):
        state = ConcreteDataState({"a": 0})
        post = strongest_post(state, parse_operation("a++"))
        assert dict(post) == {"a": 1}

    def test_02_satisfied_assume_keeps_state(self):
        state = ConcreteDataState({"a": 0, "x": 4})
        post = strongest_post(state, assume_op(parse_predicate("a < x")))
        assert post == state

    def test_03_input_binds_target(self):
        post = strongest_post(EMPTY_STATE, input_op("x", declare=True), 4)
        assert dict(post) == {"x": 4}

    def test_04_unsatisfied_assume_blocks(self):
        state = ConcreteDataState({"a": 3, "x": 2})
        assert strongest_post(state, assume_op(parse_predicate("a < x"))) is BLOCKED

    def test_05_deterministic(self):
        state = ConcreteDataState({"a": 5})
        op = parse_operation("a = a - 2")
        assert strongest_post(state, op) == strongest_post(state, op)

    def test_06_read_of_unbound_variable(self):
        with pytest.raises(UndefinedVariable):
            strongest_post(EMPTY_STATE, parse_operation("a++"))


class TestSuccessors:
    def test_01_input_values_ascend(self, p):
        succ = successors(p, EMPTY_STATE, 0, Interval(-2, 2))
        assert [post["x"] for _, post in succ] == [-2, -1, 0, 1, 2]

    def test_02_only_enabled_assume_listed(self, p):
        state = ConcreteDataState({"a": 0, "b": 0, "x": 0})
        succ = successors(p, state, 3, Interval(-2, 2))
        assert [edge.target for edge, _ in succ] == [6]


class TestEnumeratePaths:
    def test_01_two_paths_on_tiny_domain(self, p):
        """x=0 exits immediately, x=1 does one loop round."""
        result = enumerate_paths(p, Interval(0, 1), 100)
        assert not result.truncated
        assert len(result.paths) == 2
        assert sorted(path.inputs() for path in result.paths) == [(0,), (1,)]

    def test_02_one_path_per_input_value(self):
        cfa = parse_program("int x = input();\n")
        result = enumerate_paths(cfa, Interval(-1, 1), 10)
        assert not result.truncated
        assert sorted(path.inputs() for path in result.paths) == [(-1,), (0,), (1,)]

    def test_03_step_bound_truncates(self, p):
        result = enumerate_paths(p, Interval(5, 5), 3)
        assert result.truncated
        assert result.paths == ()

    def test_04_truncated_prefixes_are_dropped(self, p):
        """Only genuinely maximal paths are returned even when longer inputs
        hit the bound."""
        result = enumerate_paths(p, Interval(0, 5), 8)
        assert result.truncated
        assert all(not successors(p, q.final_state, q.final_location, Interval(0, 5))
                   for q in result.paths)


class TestPathSemantics:
    def test_01_enumerated_paths_replay(self, p, p_prime):
        for cfa in (p, p_prime):
            result = enumerate_paths(cfa, Interval(-2, 2), 200)
            assert result.paths
            for path in result.paths:
                assert replay_path(cfa, path)

    def test_02_replay_rejects_tampered_path(self, p):
        path = enumerate_paths(p, Interval(0, 0), 100).paths[0]
        wrong = ConcretePath(path.steps[:-1]
                             + (PathStep(path.steps[-1].state, 5, path.steps[-1].incoming),))
        assert not replay_path(p, wrong)

    def test_03_direct_simulation_is_enumerated(self, p, p_prime):
        """Simulating any input vector yields a path the enumerator found."""
        rng = random.Random(902)
        dom = Interval(-2, 2)
        programs = [p, p_prime] + [generators.random_program(rng) for _ in range(4)]
        for cfa in programs:
            enumerated = {
                tuple((s.location, tuple(sorted(s.state.items()))) for s in path.steps)
                for path in enumerate_paths(cfa, dom, 200).paths
            }
            for _ in range(5):
                values = iter([rng.randint(-2, 2) for _ in range(4)])
                state, loc = EMPTY_STATE, cfa.initial
                steps = [(loc, ())]
                while True:
                    chosen = None
                    for edge in cfa.edges_from(loc):
                        if isinstance(edge.op, InputOp):
                            chosen = (edge, state.bind(edge.op.target, next(values)))
                            break
                        post = strongest_post(state, edge.op)
                        if post is not BLOCKED:
                            chosen = (edge, post)
                            break
                    if chosen is None:
                        break
                    state, loc = chosen[1], chosen[0].target
                    steps.append((loc, tuple(sorted(state.items()))))
                assert tuple(steps) in enumerated

    def test_04_branch_assumes_partition(self, p):
        for path in enumerate_paths(p, Interval(-2, 2), 200).paths:
            for step in path.steps:
                assumes = [e for e in p.edges_from(step.location)
                           if isinstance(e.op, Assume)]
                if len(assumes) == 2:
                    enabled = [e for e in assumes
                               if strongest_post(step.state, e.op) is not BLOCKED]
                    assert len(enabled) == 1

    def test_05_path_helpers(self, p):
        path = max(enumerate_paths(p, Interval(0, 1), 100).paths, key=lambda q: q.length)
        assert path.inputs() == (1,)
        assert path.final_location == 6
        assert dict(path.final_state) == {"a": 1, "b": 1, "x": 1}
        assert ConcretePath(path.steps[:1]).length == 0
        assert ConcretePath(path.steps[:3]).length == 2
        assert len(path.edges) == path.length


class TestDefiniteAssignment:
    def test_01_initial_location_has_nothing(self, p):
        assigned = definitely_assigned(p)
        assert assigned[0] == frozenset()
        assert assigned[3] == frozenset({"a", "b", "x"})
        assert assigned[6] == frozenset({"a", "b", "x"})

    def test_02_branch_join_intersects(self):
        cfa = parse_program(
            "int x = input();\nif (x > 0) {\n  int a = 1;\n} else {\n  int b = 2;\n}\n")
        exit_location = max(cfa.locations)
        assert definitely_assigned(cfa)[exit_location] == frozenset({"x"})

    def test_03_checker_raises_on_hand_built_cfa(self):
        text = "cfa\ninit 0\nedge 0 -> 1: a++\n"
        with pytest.raises(UseBeforeDef):
            parse_cfa(text)


class TestCfaTextFormat:
    def test_01_round_trip_program(self, p):
        again = parse_cfa(serialize_cfa(p))
        assert again.locations == p.locations
        assert again.initial == p.initial
        assert {(e.source, e.op.text, e.target) for e in again.edges} \
            == {(e.source, e.op.text, e.target) for e in p.edges}

    def test_02_match_annotation_survives(self, p):
        from coopverify.lang import CFAEdge, make_cfa
        edge = CFAEdge(7, p.edges[0].op, 8, match_source=0, match_target=1)
        cfa = make_cfa({7, 8}, 7, [edge], {"x"})
        text = serialize_cfa(cfa)
        assert "[match 0 -> 1]" in text
        again = parse_cfa(text)
        assert again.edges[0].match_src == 0
        assert again.edges[0].match_tgt == 1

    def test_03_plain_edges_default_match_to_endpoints(self, p):
        assert p.edges[0].match_src == p.edges[0].source
        assert p.edges[0].match_tgt == p.edges[0].target

    def test_04_blocking_cfa_is_expressible(self):
        """The statement grammar always branches on complementary guards; the
        plain format can express a lone blocking assume."""
        cfa = parse_cfa("cfa\ninit 0\nedge 0 -> 1: int a = 0\nedge 1 -> 2: a > 0\n")
        result = enumerate_paths(cfa, Interval(-2, 2), 50)
        assert len(result.paths) == 1
        assert result.paths[0].final_location == 1

    def test_05_missing_init_rejected(self):
        with pytest.raises(ParseError):
            parse_cfa("cfa\nedge 0 -> 1: int a = 0\n")

    def test_06_header_required(self):
        with pytest.raises(ParseError):
            parse_cfa("init 0\n")

    def test_07_defined_before_use_enforced(self):
        check_defined_before_use(parse_program("int a = 0;\na++;\n"))
