"""The public API: the names ``coopverify`` exports stay exported."""

import inspect
import pathlib

import pytest

import coopverify
from coopverify.automata import EdgePattern, Transition
from coopverify.lang import EMPTY_STATE, PathStep, parse_program
from coopverify.predicates import TRUE, BoolConst, Comparison, Const, Var

PUBLIC_NAMES = {
    "AnalysisConfig",
    "ArtifactAutomaton",
    "AutomatonKind",
    "ConcreteDataState",
    "ConcretePath",
    "ControlFlowAutomaton",
    "CoopVerifyError",
    "DuplicateOtherwise",
    "EdgePattern",
    "ExecutionReport",
    "Interval",
    "InvalidArtifact",
    "Judgment",
    "KindReport",
    "MatchVerdict",
    "NoViolatingPath",
    "ParseError",
    "PipelineStepError",
    "Recipe",
    "Result",
    "Role",
    "TestRecord",
    "TestSuite",
    "Transition",
    "TypeMismatch",
    "UnboundTemplate",
    "UndefinedVariable",
    "UnknownKind",
    "UseBeforeDef",
    "Verdict",
    "VerdictBundle",
    "accepts",
    "build_test_case_automaton",
    "check_condition_correct",
    "check_correctness_witness",
    "check_fulfills",
    "check_test_covers",
    "check_violation_witness",
    "conditional_verify",
    "covers",
    "enumerate_paths",
    "exec_test",
    "extract_test",
    "generate_tests",
    "match_path",
    "parse_automaton",
    "parse_cfa",
    "parse_expression",
    "parse_predicate",
    "parse_program",
    "parse_recipe",
    "pred_text",
    "reduce",
    "run_pipeline",
    "serialize_automaton",
    "serialize_cfa",
    "validate_kind",
    "validate_result",
    "verify",
}


def test_01_all_is_the_pinned_public_api():
    """Removing or adding a public name is an API change to make on purpose:
    update this set with it."""
    assert sorted(coopverify.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(coopverify, name), name


def test_02_the_suite_imports_this_checkouts_sources():
    """``python -m pytest`` from a fresh checkout tests the package in its
    ``src/`` (``pythonpath`` in pyproject.toml), not an installed copy."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    assert pathlib.Path(coopverify.__file__).resolve().parent == src / "coopverify"


def test_03_path_step_is_an_immutable_record():
    """The explorer builds one ``PathStep`` per pushed successor; it keeps
    the constructor, the field names, immutability, value equality and the
    repr of a record."""
    edge = parse_program("int x = 1;").edges[0]
    state = EMPTY_STATE.bind("x", 1)
    step = PathStep(state, 1, edge)
    assert list(inspect.signature(PathStep).parameters) == ["state", "location", "incoming"]
    assert (step.state, step.location, step.incoming) == (state, 1, edge)
    assert PathStep(state=state, location=1, incoming=edge) == step
    with pytest.raises(AttributeError):
        step.location = 2
    same = PathStep(EMPTY_STATE.bind("x", 1), 1, parse_program("int x = 1;").edges[0])
    assert same == step and hash(same) == hash(step)
    assert step != PathStep(state, 0, edge)
    assert repr(step) == f"PathStep(state={state!r}, location=1, incoming={edge!r})"
    assert repr(PathStep(EMPTY_STATE, 0, None)) == "PathStep(state={}, location=0, incoming=None)"


def test_04_transition_is_an_immutable_record():
    """A path witness holds one ``Transition`` per step; it keeps the
    constructor, the field names and defaults, immutability, value equality,
    a hash that leaves out the assumption, and the repr and text of each
    form of transition."""
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in inspect.signature(Transition).parameters.values()] == [
        ("source", empty), ("target", empty), ("pattern", empty), ("assumption", TRUE),
        ("otherwise", False)]
    pattern = EdgePattern(1, "x++", 2)
    plain = Transition("q0", "q1", pattern)
    assert (plain.source, plain.target, plain.pattern) == ("q0", "q1", pattern)
    assert (plain.assumption, plain.otherwise) == (TRUE, False)
    with pytest.raises(AttributeError):
        plain.target = "q2"
    assert Transition(source="q0", target="q1", pattern=EdgePattern(1, "x++", 2)) == plain
    assert plain != Transition("q0", "q2", pattern)
    guard = Comparison("==", Var("x"), Const(1))
    assuming = Transition("q0", "q1", pattern, guard)
    assert assuming != plain and hash(assuming) == hash(plain)
    assert hash(Transition("q0", "q1", EdgePattern(1, "x++", 2), guard)) == hash(assuming)
    otherwise = Transition("q1", "q1", None, TRUE, otherwise=True)
    assert repr(plain) == ("Transition(source='q0', target='q1', pattern=EdgePattern(source=1, "
                           "op_text='x++', target=2), assumption=BoolConst(value=True), "
                           "otherwise=False)")
    assert repr(assuming) == (
        "Transition(source='q0', target='q1', pattern=EdgePattern(source=1, op_text='x++', "
        "target=2), assumption=Comparison(op='==', left=Var(name='x'), right=Const(value=1)), "
        "otherwise=False)")
    assert repr(otherwise) == ("Transition(source='q1', target='q1', pattern=None, "
                               "assumption=BoolConst(value=True), otherwise=True)")
    assert str(plain) == 'q0 -> q1 on (1, "x++", 2)'
    assert str(Transition("q0", "q1", pattern, BoolConst(True))) == str(plain)  # an equal true
    assert str(assuming) == 'q0 -> q1 on (1, "x++", 2) assume x == 1'
    assert str(otherwise) == "q1 -> q1 otherwise"
    assert str(Transition("q0", "q0", EdgePattern(None, None, None))) == "q0 -> q0 on (*, *, *)"
