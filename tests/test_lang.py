"""Tests for the imperative frontend and the concrete path semantics."""

import collections
import random
import traceback

import pytest

import generators
from coopverify.errors import ParseError, UndefinedVariable, UseBeforeDef
from coopverify.lang import (
    Assume,
    CFAEdge,
    ConcreteDataState,
    ConcretePath,
    EMPTY_STATE,
    InputOp,
    PathStep,
    assume_op,
    check_defined_before_use,
    enumerate_paths,
    input_op,
    make_cfa,
    op_reads,
    op_writes,
    parse_cfa,
    parse_operation,
    parse_program,
    serialize_cfa,
    successors,
)
from coopverify.predicates import Interval, parse_predicate
from reference import (BLOCKED, definitely_assigned, reference_use_before_def, replay_path,
                       strongest_post)


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
        with pytest.raises(ParseError) as exc:
            parse_program("int a = 0;\n0: a++;\n")
        assert str(exc.value) == "location label 0 is out of order (next free is 1)"

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

    NESTED = (
        "int x = input();\n"
        "int i = 0;\n"
        "if (x > 0) {\n"
        "} else {\n"
        "  x = 0 - x;\n"
        "}\n"
        "while (i < x) {\n"
        "  if (i == 2) {\n"
        "    7: i++;\n"
        "  }\n"
        "  while (i < 0) {\n"
        "  }\n"
        "  i = i + 1;\n"
        "}\n"
        "11: if (x == 1) {\n"
        "  x--;\n"
        "} else {\n"
        "}\n"
        "14:\n"
    )

    def test_10_nested_lowering_is_pinned(self):
        """Locations in source order, labels honoured, each statement's edges
        before those of its blocks; an empty block's edge goes to what
        follows it, an empty loop body's back to the loop head."""
        assert serialize_cfa(parse_program(self.NESTED)) == (
            "cfa\n"
            "vars i x\n"
            "init 0\n"
            + "".join(f"loc {n}\n" for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 14))
            + "edge 0 -> 1: int x = input()\n"
            "edge 1 -> 2: int i = 0\n"
            "edge 2 -> 4: x > 0\n"
            "edge 2 -> 3: !(x > 0)\n"
            "edge 3 -> 4: x = 0 - x\n"
            "edge 4 -> 5: i < x\n"
            "edge 4 -> 11: !(i < x)\n"
            "edge 5 -> 7: i == 2\n"
            "edge 5 -> 8: !(i == 2)\n"
            "edge 7 -> 8: i++\n"
            "edge 8 -> 8: i < 0\n"
            "edge 8 -> 9: !(i < 0)\n"
            "edge 9 -> 4: i = i + 1\n"
            "edge 11 -> 12: x == 1\n"
            "edge 11 -> 14: !(x == 1)\n"
            "edge 12 -> 14: x--\n"
        )

    @pytest.mark.parametrize("source, message", [
        ("int a = 0;\na++;\n1:\n", "exit label 1 is out of order (next free is 2)"),
        # the first out-of-order label wins, over UseBeforeDef too
        ("int a = b;\n3: a++;\n1: a++;\n0:\n", "location label 1 is out of order (next free is 4)"),
    ])
    def test_11_out_of_order_label_messages(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert str(exc.value) == message

    def test_12_later_syntax_error_wins_over_label(self):
        with pytest.raises(ParseError) as exc:
            parse_program("int a = 0;\n0: a++;\na = ;\n")
        assert str(exc.value) == "expected an expression (found ';') at line 3, column 5"

    def test_13_long_sum_is_refused_at_its_line(self):
        """Rendering the assignment's text is the step of parsing that still
        recurses through the sum, and its limit is a parse error at the line."""
        source = "int x = input();\nint y = " + " + ".join(["x"] * 3000) + ";\n"
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert exc.value.line == 2 and "nested too deeply" in str(exc.value)
        frames = traceback.extract_tb(exc.value.__context__.__traceback__)
        assert frames[-1].name == "expr_text"


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


def raised_use_before_def(cfa):
    """(variable, location) that ``check_defined_before_use`` raises, or None."""
    try:
        check_defined_before_use(cfa)
    except UseBeforeDef as err:
        return err.variable, err.location
    return None


def cfa_of(edges, variables=None):
    """A CFA from (source, operation text, target) triples, initial location
    0, over the variables the operations name unless ``variables`` is given."""
    edges = [CFAEdge(source, parse_operation(text), target) for source, text, target in edges]
    named = set().union(*(op_reads(e.op) | op_writes(e.op) for e in edges))
    locations = {0} | {e.source for e in edges} | {e.target for e in edges}
    return make_cfa(locations, 0, edges, named if variables is None else variables)


class TestUseBeforeDefinition:
    """``check_defined_before_use`` reads liveness; the definite-assignment
    analysis of ``tests/reference.py`` is what it is compared against: both
    find the same first read, naming the same variable and location."""

    def test_01_mutated_programs_agree_with_definite_assignment(self):
        """1,600 generated programs, each with one edge of the first
        quarter in edge order, where the declarations are, removed or
        retargeted at any location, the initial one included."""
        rng = random.Random(2468)
        outcomes = collections.Counter()
        for _ in range(1600):
            program = generators.random_program(rng)
            edges = list(program.edges)
            index = rng.randrange((len(edges) + 3) // 4)
            if rng.random() < 0.2:
                del edges[index]
            else:
                edge = edges[index]
                edges[index] = CFAEdge(edge.source, edge.op, rng.choice(sorted(program.locations)))
            cfa = make_cfa(program.locations, program.initial, edges, program.variables)
            expected = reference_use_before_def(cfa)
            assert raised_use_before_def(cfa) == expected
            outcomes["passes" if expected is None else "raises"] += 1
        assert min(outcomes["passes"], outcomes["raises"]) >= 300, outcomes

    @pytest.mark.parametrize("edges, expected", [
        # an unreachable edge reads variables nothing assigns
        ([(0, "int a = 0", 1), (2, "int b = c + a", 3)], None),
        # nothing is assigned at the initial location, whatever edges lead back
        ([(0, "int x = 1", 1), (1, "x = 2", 0), (0, "int y = x", 2)], ("x", 0)),
        ([(0, "int x = 1", 1), (1, "x = 2", 0), (1, "int y = x", 2)], None),
        ([(0, "x = input()", 1), (1, "x > 0", 0), (1, "x <= 0", 2), (2, "y = y + x", 3)],
         ("y", 2)),
        # one edge reads two unassigned variables: the first in sorted order
        ([(0, "int c = b + a", 1)], ("a", 0)),
        ([(0, "int a = 1", 1), (1, "int c = b + a", 2), (1, "int d = a", 2), (2, "d = d + c", 3)],
         ("b", 1)),
        # a loop assigns before its only read
        ([(0, "int i = 0", 1), (1, "i < 3", 2), (2, "int t = 1", 3), (3, "i = i + t", 1),
          (1, "!(i < 3)", 4)], None),
    ])
    def test_02_hand_written_cfas(self, edges, expected):
        cfa = cfa_of(edges)
        assert raised_use_before_def(cfa) == reference_use_before_def(cfa) == expected
        text = serialize_cfa(cfa)
        if expected is None:
            parse_cfa(text)
        else:
            with pytest.raises(UseBeforeDef) as err:
                parse_cfa(text)
            assert (err.value.variable, err.value.location) == expected

    def test_03_only_reachable_reads_count_whatever_the_declared_variables(self):
        """A hand-built CFA whose ``variables`` misses ``c``: the read of
        ``c`` at unreachable location 2 is not flagged, where definite
        assignment, which assumes every declared variable assigned there,
        flagged it.  Both parsers declare every variable the operations
        name, so no parsed program differs."""
        cfa = cfa_of([(0, "int a = 0", 1), (2, "int b = c + a", 3)], {"a", "b"})
        assert raised_use_before_def(cfa) is None
        assert reference_use_before_def(cfa) == ("c", 2)


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

    def test_08_bad_operation_names_one_position(self):
        """The operation's own error position is mapped into its edge line."""
        with pytest.raises(ParseError) as exc:
            parse_cfa("cfa\ninit 0\n  edge 0 -> 1:  int y = (\n")
        assert str(exc.value) == ("bad operation on edge line: expected an expression "
                                  "(found '') at line 3, column 26")
        with pytest.raises(ParseError) as exc:
            parse_cfa("cfa\ninit 0\nedge 0 -> 1: a = 1 )\n")
        assert str(exc.value) == ("bad operation on edge line: trailing input ')' "
                                  "at line 3, column 20")
