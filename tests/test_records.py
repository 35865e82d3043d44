"""Which classes are records: immutable named tuples for values, dataclasses
only where a class validates, derives fields, mutates, or is read on every
explorer step.  Syntax-tree nodes are named tuples that compare only within
their class."""

import dataclasses
import inspect
import pkgutil
from importlib import import_module

import pytest

import coopverify
from coopverify import actors
from coopverify.actors import ExecutionReport, Reduction, Result, VerdictBundle
from coopverify.automata import AutomatonKind, FinalEntry, MatchVerdict, Transition
from coopverify.engine import Judgment, Verdict
from coopverify.kinds import KindReport, KindViolation, NonBlocking
from coopverify.lang import (EMPTY_STATE, ConcretePath, EnumerationResult, PathStep,
                             parse_program)
from coopverify.pipeline import (ActorSpec, Artifact, PipelineResult, Recipe, Role, Step,
                                 StepRecord)
from coopverify.predicates import (CHI, TRUE, And, BinExpr, BoolConst, Comparison, Const,
                                   Interval, Neg, Not, Or, TautologyResult, Token, Var,
                                   evaluate)
from coopverify.product import AnalysisConfig

# Every dataclass of the package, with the reason it is not a named tuple.
DATACLASSES = {
    "lang.Assignment": "successors() reads its fields on every step",
    "lang.Assume": "successors() reads its fields on every step",
    "lang.InputOp": "successors() reads its fields on every step",
    "lang.CFAEdge": "successors() reads its fields on every step",
    "automata.EdgePattern": "derives fields (field(init=False))",
    "automata.ArtifactAutomaton": "derives fields (field(init=False))",
    "lang.ControlFlowAutomaton": "derives fields (field(init=False))",
    "product.AnalysisConfig": "validates in __post_init__",
    "predicates.Interval": "validates in __post_init__; redefines __iter__ and __contains__",
    "actors.TestSuite": "validates in __post_init__",
    "product.ProductVisit": "mutable and slotted",
    "cli.RunReport": "mutable, with a default_factory",
    "lang.ConcretePath": "len() of a named tuple would count its one field",
}


def _package_classes():
    for info in pkgutil.iter_modules(coopverify.__path__):
        module = import_module(f"coopverify.{info.name}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield f"{info.name}.{name}", cls


def test_01_only_the_pinned_classes_are_dataclasses():
    found = {name for name, cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert found == set(DATACLASSES)


_PATH = ConcretePath((PathStep(EMPTY_STATE, 0, None),))
_CONFIG = AnalysisConfig(Interval(-1, 1), 5)
_JUDGMENT = Judgment(Verdict.HOLDS, None, True, _CONFIG)
_EDGE = parse_program("int x = 1;").edges[0]

# One sample of each record, built anew on each call, and its repr as the
# frozen dataclass it replaced printed it.
SAMPLES = {
    "Judgment": (lambda: Judgment(Verdict.VIOLATED, _PATH, True, _CONFIG),
        "Judgment(verdict=<Verdict.VIOLATED: 'violated'>, evidence=ConcretePath(steps=(PathStep(state={}, location=0, incoming=None),)), exhausted=True, config=AnalysisConfig(input_domain=Interval(lo=-1, hi=1), max_steps=5))"),
    "VerdictBundle": (lambda: VerdictBundle(Result.TRUE, None, None, _JUDGMENT),
        "VerdictBundle(result=<Result.TRUE: 'true'>, witness=None, condition=None, judgment=Judgment(verdict=<Verdict.HOLDS: 'holds'>, evidence=None, exhausted=True, config=AnalysisConfig(input_domain=Interval(lo=-1, hi=1), max_steps=5)))"),
    "Reduction": (lambda: Reduction(None, {}, frozenset({3})),
        'Reduction(residual=None, origin={}, mid_locations=frozenset({3}))'),
    "ExecutionReport": (lambda: ExecutionReport(_PATH, "completed", 0, None),
        "ExecutionReport(trace=ConcretePath(steps=(PathStep(state={}, location=0, incoming=None),)), status='completed', consumed=0, violation_observed=None)"),
    "TestRecord": (lambda: actors.TestRecord((1, -2), "generate_tests", frozenset()),
        "TestRecord(inputs=(1, -2), generator='generate_tests', goals=frozenset())"),
    "NonBlocking": (lambda: NonBlocking("refuted", "q0", _EDGE, {"x": 1}),
        "NonBlocking(status='refuted', state='q0', edge=CFAEdge(source=0, op=Assignment(target='x', expr=Const(value=1), text='int x = 1'), target=1, match_source=None, match_target=None), counter_state={'x': 1})"),
    "KindViolation": (lambda: KindViolation("final", "q1", "has no outgoing transition"),
        "KindViolation(constraint='final', subject='q1', message='has no outgoing transition')"),
    "KindReport": (lambda: KindReport(AutomatonKind.PROPERTY, (), NonBlocking("bounded-proved")),
        "KindReport(kind=<AutomatonKind.PROPERTY: 'property'>, violations=(), non_blocking=NonBlocking(status='bounded-proved', state=None, edge=None, counter_state=None))"),
    "FinalEntry": (lambda: FinalEntry(Transition("q0", "q1", None, otherwise=True), "q1"),
        "FinalEntry(transition=Transition(source='q0', target='q1', pattern=None, assumption=BoolConst(value=True), otherwise=True), state='q1')"),
    "MatchVerdict": (lambda: MatchVerdict(2, True, False),
        'MatchVerdict(k=2, accepted=True, covered=False)'),
    "EnumerationResult": (lambda: EnumerationResult((_PATH,), False),
        'EnumerationResult(paths=(ConcretePath(steps=(PathStep(state={}, location=0, incoming=None),)),), truncated=False)'),
    "Artifact": (lambda: Artifact(Role.TEST, (4,)),
        "Artifact(role=<Role.TEST: 't'>, value=(4,))"),
    "ActorSpec": (lambda: ActorSpec("identity", None, None, (), len),
        "ActorSpec(name='identity', inputs=None, outputs=None, optional_inputs=(), run=<built-in function len>)"),
    "Step": (lambda: Step("verify", ("p", "phi_b")),
        "Step(actor='verify', bindings=('p', 'phi_b'))"),
    "Recipe": (lambda: Recipe((Step("reduce", ("p", "psi")),)),
        "Recipe(steps=(Step(actor='reduce', bindings=('p', 'psi')),))"),
    "StepRecord": (lambda: StepRecord(0, "exec_test", {}),
        "StepRecord(index=0, actor='exec_test', outputs={}, report=None)"),
    "PipelineResult": (lambda: PipelineResult({"t": Artifact(Role.TEST, (1,))}, ()),
        "PipelineResult(artifacts={'t': Artifact(role=<Role.TEST: 't'>, value=(1,))}, log=())"),
    "Token": (lambda: Token("op", "&&", 3, 14),
        "Token(kind='op', text='&&', line=3, column=14)"),
    "TautologyResult": (lambda: TautologyResult("falsifiable", {"x": -1}),
        "TautologyResult(status='falsifiable', counterexample={'x': -1}, syntactic=False)"),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_02_records_are_immutable_named_tuples(name):
    record = SAMPLES[name][0]()
    assert isinstance(record, tuple) and type(record)._fields
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", SAMPLES)
def test_03_equal_fields_mean_equal_records_and_hashes(name):
    first, second = SAMPLES[name][0](), SAMPLES[name][0]()
    assert first is not second
    assert first == second and not first != second
    try:
        expected = hash(first)
    except TypeError:  # a record with a dict field is unhashable
        assert any(isinstance(value, dict) for value in first)
    else:
        assert hash(second) == expected


@pytest.mark.parametrize("name", SAMPLES)
def test_04_repr_is_the_dataclass_repr(name):
    make, expected = SAMPLES[name]
    assert repr(make()) == expected


# Pairs of nodes of two classes with equal fields.
_X, _P, _Q = Var("x"), Comparison("<", Var("x"), Const(0)), Comparison("==", Var("y"), CHI)
NODE_TWINS = [(And(_P, _Q), Or(_P, _Q)), (Neg(_X), Not(_X)), (Const(1), BoolConst(True)),
              (BinExpr("<", _X, _X), Comparison("<", _X, _X))]


@pytest.mark.parametrize("first, second", NODE_TWINS,
                         ids=[f"{type(a).__name__}-{type(b).__name__}" for a, b in NODE_TWINS])
def test_05_nodes_compare_only_within_their_class(first, second):
    assert tuple(first) == tuple(second)
    for a, b in ((first, second), (second, first)):
        assert not a == b and a != b
    for node in (first, second):
        for plain in (tuple(node), list(node)):
            assert not node == plain and node != plain
            assert not plain == node and plain != node
        assert node == type(node)(*node) and not node != type(node)(*node)
        assert hash(node) == hash(type(node)(*node))


def test_06_nodes_keep_their_compiled_function_outside_their_fields():
    """evaluate compiles a node once and keeps the function on it; the
    node's fields, equality and repr do not see it."""
    node = Comparison("<", Var("x"), Const(0))
    fresh = Comparison("<", Var("x"), Const(0))
    assert evaluate(node, {"x": -1}) and "_holds" in vars(node)
    assert node == fresh and hash(node) == hash(fresh) and repr(node) == repr(fresh)
    assert len(node) == 3


def test_07_too_deep_a_tree_to_hash_raises_recursion_error():
    """Hashing recurses through a Python frame per level, so a tree deeper
    than the recursion limit raises instead of overflowing the C stack."""
    tree = TRUE
    for _ in range(100_000):
        tree = Not(tree)
    with pytest.raises(RecursionError):
        hash(tree)
