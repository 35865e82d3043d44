"""Tests for the condition language: parsing, evaluation, bounded tautology."""

import random
import re
import sys

import pytest

import corpus
import generators
from coopverify import actors, predicates
from coopverify.automata import parse_automaton
from coopverify.errors import UnboundTemplate, UndefinedVariable
from coopverify.engine import check_fulfills
from coopverify.lang import ConcreteDataState, parse_program
from coopverify.predicates import (
    CHI,
    FALSE,
    TRUE,
    And,
    BinExpr,
    Comparison,
    Const,
    Interval,
    Neg,
    Not,
    Or,
    Predicate,
    TautologyResult,
    Var,
    conjoin,
    disjoin,
    eval_expr,
    evaluate,
    expr_text,
    has_complement_pair,
    is_tautology_bounded,
    mentions_template,
    normalize_text,
    parse_expression,
    parse_predicate,
    pred_text,
    substitute_template,
    variables_of,
)


def pred(text):
    return parse_predicate(text)


class TestParsing:
    """Concrete syntax of conditions and arithmetic expressions."""

    def test_01_comparison(self):
        assert pred("a < x") == Comparison("<", Var("a"), Var("x"))

    def test_02_precedence_and_binds_tighter_than_or(self):
        p = pred("a == 0 || b == 0 && x == 0")
        assert isinstance(p, Or)
        assert isinstance(p.right, And)

    def test_03_negation_and_parentheses(self):
        p = pred("!(a < x)")
        assert p == Not(Comparison("<", Var("a"), Var("x")))

    def test_04_unary_minus_folds_into_literal(self):
        assert parse_expression("-3") == Const(-3)
        assert pred("x <= -1") == Comparison("<=", Var("x"), Const(-1))

    def test_05_arithmetic_expression(self):
        e = parse_expression("a + 2 * b")
        assert e == BinExpr("+", Var("a"), BinExpr("*", Const(2), Var("b")))

    def test_06_template_token(self):
        p = pred("chi == 4")
        assert p == Comparison("==", CHI, Const(4))
        assert mentions_template(p)

    def test_07_text_round_trip(self):
        for text in ("a < x", "!(a < x)", "a != b && x >= 1", "x <= 0 || a == b",
                     "chi == 4", "a - 1 == b"):
            assert pred(pred_text(pred(text))) == pred(text)

    def test_08_normalize_text(self):
        assert normalize_text("a  <x") == normalize_text("a < x")

    def test_09_pred_text_forms(self):
        assert pred_text(Not(Comparison("<", Var("a"), Var("x")))) == "!(a < x)"
        assert pred_text(TRUE) == "true"
        assert pred_text(FALSE) == "false"

    def test_10_expr_text_round_trip(self):
        for text in ("a + 2 * b", "x - 1", "-3", "a - b - 1"):
            e = parse_expression(text)
            assert parse_expression(expr_text(e)) == e

    def test_11_negated_negative_constant_round_trips(self):
        """``--3`` would lex as the decrement token and not parse."""
        negated = Neg(Const(-3))
        assert expr_text(negated) == "-(-3)"
        assert expr_text(Neg(Const(3))) == "-3"
        assert expr_text(Neg(Neg(Var("a")))) == "-(-a)"
        read = pred(pred_text(Comparison("<", negated, Var("a"))))
        assert read == Comparison("<", Const(3), Var("a"))
        assert eval_expr(parse_expression(expr_text(negated)), {}) == 3


class TestEvaluation:
    def test_01_equality_false(self):
        assert evaluate(pred("a != b"), {"a": 2, "b": 2}) is False

    def test_02_bound_check_true(self):
        assert evaluate(pred("x >= 1"), {"x": 4}) is True

    def test_03_template_bound_to_input_variable(self):
        assert evaluate(pred("chi == 4"), {"x": 4}, chi="x") is True
        assert evaluate(pred("chi == 4"), {"x": 5}, chi="x") is False

    def test_04_template_without_binding(self):
        with pytest.raises(UnboundTemplate):
            evaluate(pred("chi == 4"), {"x": 4})

    def test_05_unknown_variable(self):
        with pytest.raises(UndefinedVariable):
            evaluate(pred("a < x"), {"a": 0})

    def test_06_eval_expr(self):
        assert eval_expr(parse_expression("a + 2 * b"), {"a": 1, "b": 3}) == 7

    def test_07_conjoin_disjoin_identities(self):
        assert conjoin([]) == TRUE
        assert disjoin([]) == FALSE
        p = pred("a < x")
        assert conjoin([p]) == p
        assert disjoin([p]) == p

    def test_08_substitute_template(self):
        p = substitute_template(pred("chi == 4"), Var("x"))
        assert p == pred("x == 4")
        assert not mentions_template(p)

    def test_09_variables_of(self):
        assert variables_of(pred("a != b && x >= 1")) == {"a", "b", "x"}
        assert variables_of(TRUE) == frozenset()

    def test_10_boolean_identities_on_random_states(self):
        """Double negation, De Morgan, and commutativity hold extensionally."""
        rng = random.Random(411)
        a, b = pred("a < x"), pred("b == 0")
        for _ in range(50):
            state = {v: rng.randint(-5, 5) for v in ("a", "b", "x")}
            assert evaluate(Not(Not(a)), state) == evaluate(a, state)
            assert (evaluate(Not(And(a, b)), state)
                    == evaluate(Or(Not(a), Not(b)), state))
            assert evaluate(And(a, b), state) == evaluate(And(b, a), state)
            assert evaluate(Or(a, b), state) == evaluate(Or(b, a), state)


class TestWalk:
    """``variables_of``, ``mentions_template`` and ``substitute_template``
    walk expressions and predicates alike, at any depth the parser builds."""

    def test_01_long_sum_is_walked(self):
        sum_text = " + ".join(["x"] * 3000)
        tree = parse_predicate(f"{sum_text} + chi >= y")
        assert variables_of(tree) == {"x", "y"}
        assert mentions_template(tree) and not mentions_template(tree.right)
        assert variables_of(tree.left) == {"x"} and mentions_template(tree.left)
        substituted = substitute_template(tree, Var("z"))
        assert variables_of(substituted) == {"x", "y", "z"}
        assert not mentions_template(substituted)
        assert substituted.right is tree.right

    def test_02_substitution_replaces_exactly_the_placeholders(self):
        rng = random.Random(1811)
        names = ["a", "b"]
        for _ in range(300):
            tree = generators.random_predicate(rng, names)
            if rng.random() < 0.5:
                tree = generators.random_expression(rng, names)
            substituted = substitute_template(tree, Var("z"))
            render = pred_text if isinstance(tree, Predicate) else expr_text
            assert render(substituted) == render(tree).replace("chi", "z")
            assert variables_of(substituted) == (
                variables_of(tree) | ({"z"} if mentions_template(tree) else set()))
            if not mentions_template(tree):
                assert substituted is tree


class TestInterval:
    def test_01_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_02_width_and_membership(self):
        dom = Interval(-2, 2)
        assert len(list(dom)) == 5
        assert 0 in dom and -2 in dom and 3 not in dom
        assert list(dom) == [-2, -1, 0, 1, 2]

    def test_03_values_by_magnitude(self):
        assert Interval(-2, 2).values_by_magnitude() == [0, -1, 1, -2, 2]

    def test_04_str(self):
        assert str(Interval(-8, 8)) == "[-8, 8]"


class TestTautologyCheck:
    def test_01_excluded_middle_is_syntactic(self):
        gamma = pred("a < x")
        result = is_tautology_bounded(Or(gamma, Not(gamma)), {"a", "x"}, Interval(-2, 2))
        assert result.is_tautology
        assert result.syntactic

    def test_02_falsifiable_with_simplest_counterexample(self):
        result = is_tautology_bounded(pred("a != b"), {"a", "b"}, Interval(-2, 2))
        assert result.status == "falsifiable"
        assert result.counterexample == {"a": 0, "b": 0}

    def test_03_empty_disjunction_is_falsifiable(self):
        """An empty guard disjunction collapses to false and refutes with the
        empty state."""
        result = is_tautology_bounded(disjoin([]), set(), Interval(-2, 2))
        assert result.status == "falsifiable"
        assert result.counterexample == {}

    def test_04_inconclusive_without_variable_coverage(self):
        result = is_tautology_bounded(pred("a != b"), set(), Interval(-2, 2))
        assert result.status == "inconclusive"
        assert result.counterexample is None

    def test_05_template_is_rejected(self):
        with pytest.raises(UnboundTemplate):
            is_tautology_bounded(pred("chi == 4"), {"x"}, Interval(-2, 2))

    def test_06_semantic_tautology_without_fast_path(self):
        result = is_tautology_bounded(pred("x <= 0 || x >= 0"), {"x"}, Interval(-3, 3))
        assert result.is_tautology
        assert not result.syntactic

    def test_07_has_complement_pair(self):
        gamma = pred("a != b")
        assert has_complement_pair([gamma, Not(gamma)])
        assert not has_complement_pair([gamma, Not(pred("a == b"))])
        assert not has_complement_pair([TRUE, Not(TRUE)])

    def test_08_tautology_verdict_is_sound_on_samples(self):
        rng = random.Random(77)
        dom = Interval(-2, 2)
        p = Or(pred("a < x"), Not(pred("a < x")))
        assert is_tautology_bounded(p, {"a", "x"}, dom).is_tautology
        for _ in range(30):
            state = {"a": rng.randint(-2, 2), "x": rng.randint(-2, 2)}
            assert evaluate(p, state)


class TestCompiledEnumeration:
    """The bounded check runs a compiled function, with the answers of the
    tree-walking reference loop over ``evaluate``."""

    def test_01_random_cells_agree_with_reference(self):
        """Disjunctions of random comparisons, some with the negation of the
        rest beside them, as a guard cell of a state reads."""
        rng = random.Random(2024)
        domain = Interval(-2, 2)
        results = []
        for _ in range(400):
            names = sorted(rng.sample(["a", "b", "x", "y"], rng.randint(1, 3)))
            guards = [generators._comparison(rng, names) for _ in range(rng.randint(0, 3))]
            if guards and rng.random() < 0.3:
                guards.append(Not(disjoin(guards)))
            cell = disjoin(guards)
            result = is_tautology_bounded(cell, names, domain)
            assert result == corpus.reference_tautology(cell, names, domain), pred_text(cell)
            results.append(result)
        assert {result.status for result in results} == {"tautology", "falsifiable"}
        assert sum(not result.syntactic for result in results) > 300

    def test_03_identifiers_never_enter_generated_code(self):
        """Variables named after Python keywords and builtins; the
        counterexample names them in sorted order."""
        names = ("lambda", "None", "class", "__import__")
        total = "lambda + None + class + __import__"
        holds = is_tautology_bounded(pred(f"{total} > 3 || {total} <= 3"), names, Interval(-3, 3))
        assert (holds.status, holds.syntactic) == ("tautology", False)
        refuted = is_tautology_bounded(pred(f"{total} > 3 || class - __import__ < 1"), names,
                                       Interval(-3, 3))
        assert refuted.status == "falsifiable"
        assert list(refuted.counterexample.items()) == [
            ("None", 0), ("__import__", 0), ("class", 1), ("lambda", 0)]

    def test_04_big_constants_use_exact_arithmetic(self):
        big = 10 ** 30
        x = Var("x")
        # float arithmetic would call big * x and (big + 1) * x equal
        grows = Or(Comparison("<", BinExpr("*", Const(big), x), BinExpr("*", Const(big + 1), x)),
                   pred("x < 1"))
        result = is_tautology_bounded(grows, {"x"}, Interval(-3, 3))
        assert (result.status, result.syntactic) == ("tautology", False)
        meets = Or(Comparison("!=", BinExpr("*", Const(big), x),
                              BinExpr("-", BinExpr("*", Const(big + 1), x), Const(2))), FALSE)
        result = is_tautology_bounded(meets, {"x"}, Interval(-3, 3))
        assert result == TautologyResult("falsifiable", counterexample={"x": 2})

    @pytest.mark.parametrize("malformed", [
        Or(Comparison("<", BinExpr("/", Var("x"), Const(2)), Const(0)), pred("x >= 0")),
        Or(Comparison("=<", Var("x"), Const(0)), pred("x > 0")),
        Or(Comparison("<", "x", Const(0)), pred("x >= 0")),
        Const(1),
    ], ids=["division", "unknown-comparison", "not-an-expression", "not-a-predicate"])
    def test_05_malformed_nodes_raise_as_evaluate_does(self, monkeypatch, malformed):
        with pytest.raises(Exception) as walked:
            evaluate(malformed, {"x": 0})
        log = corpus.log_compiles(monkeypatch)
        with pytest.raises(walked.type):
            is_tautology_bounded(malformed, {"x"}, Interval(-2, 2))
        assert log.trees == []

    def test_06_one_compile_per_enumerated_cell_and_no_tree_walk(self, monkeypatch):
        cells = [pred("a + b + c + d > 3 || c - d > 12 || a + b + c + d <= 3"),
                 pred("a + b > 1 || c - a > 7"), pred("a != b || !(a != b)")]
        log = corpus.log_compiles(monkeypatch)

        def no_tree_walk(*args, **kwargs):
            raise AssertionError("the enumeration walked the predicate tree")

        monkeypatch.setattr(predicates, "evaluate", no_tree_walk)
        results = [is_tautology_bounded(cell, "abcd", Interval(-5, 5)) for cell in cells]
        assert [(r.status, r.syntactic) for r in results] == [
            ("tautology", False), ("falsifiable", False), ("tautology", True)]
        assert log.helper_calls == cells[:2]
        assert len(log.trees) == 2 and log.errors == []

    def test_07_compile_never_meets_the_recursion_limit(self, monkeypatch):
        """Around the recursion limit a long sum is decided or refused with a
        RecursionError, and ``compile`` is never what refuses it."""
        log = corpus.log_compiles(monkeypatch)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        x = Var("x")
        first = sys.getrecursionlimit() - depth - 20
        total = x
        for _ in range(first - 1):
            total = BinExpr("+", total, x)
        outcomes = set()
        for _ in range(30):
            total = BinExpr("+", total, x)
            cell = Or(Comparison(">=", total, Const(0)), Comparison("<", total, Const(0)))
            try:
                outcomes.add(is_tautology_bounded(cell, {"x"}, Interval(-1, 1)).status)
            except RecursionError:
                outcomes.add("too deep")
        assert outcomes == {"tautology", "too deep"}
        assert log.trees and log.errors == []

    @pytest.mark.parametrize("grow", [
        lambda node: Not(node),
        lambda node: And(node, TRUE),
        lambda node: Or(Comparison("<", BinExpr("+", Const(1), Const(2)), Var("x")), node),
    ], ids=["negations", "conjunctions", "constant-sums"])
    def test_08_constant_leaves_never_reach_the_limit_in_compile(self, monkeypatch, grow):
        """Constant leaves need as much room as names: a deep tree of them is
        decided or refused while lowered, never by ``compile``."""
        log = corpus.log_compiles(monkeypatch)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        cell = TRUE
        for _ in range(sys.getrecursionlimit() - depth - 25):
            cell = grow(cell)
        outcomes = set()
        for _ in range(20):
            cell = grow(cell)
            try:
                is_tautology_bounded(cell, {"x"}, Interval(-1, 1))
                outcomes.add("decided")
            except RecursionError:
                outcomes.add("too deep")
        assert outcomes == {"decided", "too deep"}
        assert log.trees and log.errors == []


# Variable names the compiled evaluator must keep apart from its own: Python
# keywords and builtins, the names of its parameters (``s``, ``chi``) and of
# the helper it calls, a positional parameter name, and ``chi`` as a plain
# variable beside the template placeholder.
EVAL_NAMES = ("lambda", "None", "class", "__import__", "d", "s", "chi", "_unbound", "v0", "x")


def outcome(function, *args):
    """A value with its type, or the exception type and the variable it names."""
    try:
        value = function(*args)
    except UndefinedVariable as err:
        return "UndefinedVariable", err.name
    except UnboundTemplate:
        return ("UnboundTemplate",)
    return "value", type(value), value


STATE_TYPES = [dict, ConcreteDataState]


class TestCompiledEvaluator:
    """``evaluate`` and ``eval_expr`` run code compiled once per node, with
    the answers and the exceptions of the tree-walking reference."""

    def test_01_random_trees_agree_with_reference(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(1500):
            pred = generators.random_predicate(rng, EVAL_NAMES)
            expr = generators.random_expression(rng, EVAL_NAMES)
            bindings = generators.random_partial_state(rng, EVAL_NAMES)
            chi = rng.choice((None,) + EVAL_NAMES)
            for state in (bindings, ConcreteDataState(bindings)):
                got = outcome(evaluate, pred, state, chi)
                assert got == outcome(corpus.reference_evaluate, pred, state, chi), pred_text(pred)
                seen.add(got[0])
                got = outcome(eval_expr, expr, state, chi)
                assert got == outcome(corpus.reference_eval_expr, expr, state, chi), expr_text(expr)
                seen.add(got[0])
        assert seen == {"value", "UndefinedVariable", "UnboundTemplate"}

    @pytest.mark.parametrize("make", STATE_TYPES, ids=["dict", "ConcreteDataState"])
    def test_02_template_binding(self, make):
        state = make({"x": 1})
        with pytest.raises(UnboundTemplate):
            evaluate(pred("chi == 1"), state, chi=None)
        with pytest.raises(UnboundTemplate):
            eval_expr(CHI, state)
        with pytest.raises(UndefinedVariable) as unbound:
            evaluate(pred("chi == 1"), state, chi="y")
        assert unbound.value.name == "y"
        assert evaluate(pred("chi == 1"), state, chi="x") is True
        with pytest.raises(UndefinedVariable) as unbound:
            evaluate(pred("x < y"), state)
        assert unbound.value.name == "y"

    @pytest.mark.parametrize("make", STATE_TYPES, ids=["dict", "ConcreteDataState"])
    def test_03_short_circuit_skips_unevaluable_reads(self, make):
        state = make({"x": 1})
        assert evaluate(pred("x < 0 && chi == 1"), state) is False
        assert evaluate(pred("false && y > 0"), state) is False
        assert evaluate(pred("x > 0 || y > 0"), state) is True
        assert evaluate(pred("true || chi == 1"), state) is True

    def test_04_compiled_once_and_invisible(self, monkeypatch):
        log = corpus.log_compiles(monkeypatch)
        node = pred("a + 2 * b < x && !(a == b)")
        fresh = pred("a + 2 * b < x && !(a == b)")
        state = {"a": 1, "b": 3, "x": 8}
        assert [evaluate(node, state) for _ in range(3)] == [True] * 3
        assert eval_expr(node.left.left, state) == eval_expr(node.left.left, state) == 7
        assert len(log.trees) == 2 and log.errors == []
        assert node == fresh and hash(node) == hash(fresh) and repr(node) == repr(fresh)

    def test_05_malformed_node_raises_at_first_evaluation(self):
        """A short-circuit no longer hides a malformed node: the whole tree is
        compiled before it runs."""
        hidden = Or(TRUE, Comparison("=<", Var("x"), Const(0)))
        assert corpus.reference_evaluate(hidden, {"x": 0}) is True
        with pytest.raises(KeyError):
            evaluate(hidden, {"x": 0})
        with pytest.raises(ValueError):
            evaluate(And(FALSE, Comparison("<", BinExpr("/", Var("x"), Const(2)), Const(0))),
                     {"x": 0})
        with pytest.raises(TypeError):
            evaluate(Const(1), {"x": 0})
        with pytest.raises(TypeError):
            eval_expr(TRUE, {"x": 0})

    @pytest.mark.parametrize("leaf", [Var("x"), CHI, Const(1)], ids=["var", "chi", "const"])
    def test_06_compile_never_meets_the_recursion_limit(self, monkeypatch, leaf):
        """Around the recursion limit a long sum is evaluated or refused with
        a RecursionError while it is lowered; ``compile`` never refuses it."""
        log = corpus.log_compiles(monkeypatch)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        total = leaf
        for _ in range(sys.getrecursionlimit() - depth - 25):
            total = BinExpr("+", total, leaf)
        outcomes = set()
        for _ in range(20):
            total = BinExpr("+", total, leaf)
            for run in (lambda: evaluate(Comparison(">=", total, Const(0)), {"x": 1}, "x"),
                        lambda: eval_expr(total, {"x": 1}, "x")):
                try:
                    run()
                    outcomes.add("evaluated")
                except RecursionError:
                    outcomes.add("too deep")
        assert outcomes == {"evaluated", "too deep"}
        assert log.trees and log.errors == []

    def test_07_second_verify_compiles_nothing(self, monkeypatch):
        """Exploring the same program and automata again runs the code
        compiled the first time."""
        program = parse_program("int a = 0;\na = a + 1;\n")
        prop = parse_automaton(
            "automaton over kind=property\nstate q0 init\nstate qe final\n"
            "trans q0 -> q0 on (*, *, *) assume a < 1\n"
            "trans q0 -> qe on (*, *, *) assume !(a < 1)\n")
        first = actors.verify(program, prop, corpus.CFG4)
        log = corpus.log_compiles(monkeypatch)
        second = actors.verify(program, prop, corpus.CFG4)
        assert first.result is second.result is actors.Result.FALSE
        assert log.trees == []
        # a repeated search on the samples compiles nothing either: the
        # kind check compiles nothing of its own
        check_fulfills(corpus.program_p(), corpus.prop(), corpus.CFG4)
        log.trees.clear()
        check_fulfills(corpus.program_p(), corpus.prop(), corpus.CFG4)
        assert log.trees == [] and log.helper_calls == []


class TestNesting:
    """conjoin and disjoin build the trees the parser builds, so a
    synthesized invariant or guard equals itself read back from its text."""

    @staticmethod
    def _members(rng, connective) -> list:
        """Random predicates read back from their text, whose top node is not
        ``connective``: a nested And (Or) prints without parentheses, so only
        the first member may be one."""
        out = []
        count = rng.randint(0, 5)
        while len(out) < count:
            pred = parse_predicate(pred_text(generators.random_predicate(rng, ["a", "b"])))
            assert parse_predicate(pred_text(pred)) == pred
            if not isinstance(pred, connective) or not out:
                out.append(pred)
        return out

    @pytest.mark.parametrize("combine, connective", [(conjoin, And), (disjoin, Or)])
    def test_01_round_trip(self, combine, connective):
        rng = random.Random(6502)
        for _ in range(200):
            members = self._members(rng, connective)
            combined = combine(members)
            assert parse_predicate(pred_text(combined)) == combined

    def test_02_left_nested(self):
        a, b, c = (parse_predicate(text) for text in ("a < 1", "b > 2", "a == b"))
        assert conjoin([a, b, c]) == And(And(a, b), c)
        assert conjoin([a, b, c]) == parse_predicate("a < 1 && b > 2 && a == b")
        assert disjoin([a, b, c]) == Or(Or(a, b), c)
        assert disjoin([a, b, c]) == parse_predicate("a < 1 || b > 2 || a == b")


class TestNormalizeText:
    """normalize_text drops what ``\\s`` matches, by ``str.split``."""

    def test_01_agrees_with_the_whitespace_class_on_every_code_point(self):
        # each code point once, in order: equal results drop the same set
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert normalize_text(every) == re.sub(r"\s+", "", every)
        spaces = re.findall(r"\s", every)
        assert spaces == [c for c in every if c.isspace()] and len(spaces) > 20
        for char in spaces:
            assert normalize_text(f"a{char}b{char}{char}") == "ab", hex(ord(char))

    def test_02_agrees_on_random_strings(self):
        rng = random.Random(1979)
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        alphabet = spaces + list("ab=+();_ 0") + ["\u00e9", "\u200b", "\ufeff"]
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert normalize_text(text) == re.sub(r"\s+", "", text), repr(text)
