"""Shared corpus for the test suite.

The canonical worked example lives in ``samples/``: the looping program
``p.imp``, its broken twin ``p_prime.imp`` (second loop increment removed),
and the five automata written against them.  Tests load those files through
the helpers here, so the shipped samples are exercised by the whole suite.
A few extra automata that only tests need are defined inline.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

from coopverify import (
    AnalysisConfig,
    ArtifactAutomaton,
    ControlFlowAutomaton,
    EdgePattern,
    Interval,
    Transition,
    parse_automaton,
    parse_program,
)
from coopverify import predicates
from coopverify.automata import make_automaton
from coopverify.errors import UnboundTemplate, UndefinedVariable
from coopverify.predicates import (
    And,
    BinExpr,
    BoolConst,
    Comparison,
    Const,
    Neg,
    Not,
    Or,
    TRUE,
    TautologyResult,
    TemplateVar,
    Var,
    _disjuncts,
    has_complement_pair,
    mentions_template,
    variables_of,
)

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

CFG4 = AnalysisConfig(Interval(-4, 4), 200)
CFG2 = AnalysisConfig(Interval(-2, 2), 200)
CFG8 = AnalysisConfig(Interval(-8, 8), 500)


def sample_path(name: str) -> Path:
    return SAMPLES / name


def sample_text(name: str) -> str:
    return sample_path(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def program_p() -> ControlFlowAutomaton:
    return parse_program(sample_text("p.imp"))


@lru_cache(maxsize=None)
def program_p_prime() -> ControlFlowAutomaton:
    return parse_program(sample_text("p_prime.imp"))


@lru_cache(maxsize=None)
def automaton(name: str) -> ArtifactAutomaton:
    return parse_automaton(sample_text(name))


def prop() -> ArtifactAutomaton:
    return automaton("prop.aut")


def goals() -> ArtifactAutomaton:
    return automaton("goals.aut")


def cond() -> ArtifactAutomaton:
    return automaton("cond.aut")


def witness_correct() -> ArtifactAutomaton:
    return automaton("witness_correct.aut")


def witness_violation() -> ArtifactAutomaton:
    return automaton("witness_violation.aut")


def explicit_loop_prop(program: ControlFlowAutomaton) -> ArtifactAutomaton:
    """The sample property with q0's otherwise loop replaced by one
    unguarded self-loop per edge of ``program``: it never blocks there, but
    only a search can tell."""
    sample = prop()
    loops = [Transition("q0", "q0", EdgePattern(e.match_src, e.op.text, e.match_tgt), TRUE)
             for e in program.edges]
    return make_automaton(sample.name, sample.kind, sample.states, sample.initial,
                          sample.finals, [t for t in sample.transitions if not t.otherwise]
                          + loops)


# ---------------------------------------------------------------------------
# Inline automata used by several test modules

UNIVERSAL_WITNESS = """\
automaton anything_goes kind=correctness-witness
state s init
trans s -> s otherwise
"""

# Accepts every path after its first edge.
UNIVERSAL_CONDITION = """\
automaton all_covered kind=condition
state q0 init
state q1 final
trans q0 -> q1 on (*, *, *)
"""

# Accepts even the empty path: the initial state is final.
INSTANT_CONDITION = """\
automaton instantly_covered kind=condition
state q0 init final
"""

# Final state can never be reached: the pattern matches no edge of p.
UNREACHABLE_CONDITION = """\
automaton never_covered kind=condition
state q0 init
state q1 final
trans q0 -> q1 on (99, "z = 0", 100)
trans q0 -> q0 otherwise
"""

# Like the sample violation witness but demanding a nonpositive input,
# which no violating run of p_prime satisfies.
HOPELESS_WITNESS = """\
automaton wrong_direction kind=violation-witness
state w0 init
state w1
state w2
state w3
state w4
state w5
state w6 final
trans w0 -> w1 on (0, "int x = input()", 1) assume x <= 0
trans w1 -> w2 on (1, "int a = 0", 2)
trans w2 -> w3 on (2, "int b = 0", 3)
trans w3 -> w4 on (3, "a < x", 4)
trans w4 -> w5 on (4, "a++", 3)
trans w5 -> w6 on (3, "!(a < x)", 6)
"""

# Two mutually exclusive goals: entering the loop needs a positive input,
# leaving it untouched needs a nonpositive one.
TWO_GOALS = """\
automaton entry_or_skip kind=test-goal
state q0 init
state qa final
state qb final
trans q0 -> qa on (3, "a < x", 4)
trans q0 -> qb on (3, "!(a < x)", 6) assume a == 0
trans q0 -> q0 otherwise
"""

# The pattern names locations p does not have, so nothing is ever accepted.
UNREACHABLE_GOALS = """\
automaton never_reached kind=test-goal
state q0 init
state qf final
trans q0 -> qf on (9, "a < x", 10)
trans q0 -> q0 otherwise
"""

# a = 2 * input() reaches values outside the input interval.
BLIND_SPOT_PROGRAM = "int a = 0;\na = input();\na = a * 2;\nint b = 0;\n"
BLIND_SPOT_PROPERTY = """automaton blind_spot kind=property
state q0 init
state qe final
trans q0 -> q0 on (*, *, *) assume a < 9
trans q0 -> qe on (3, *, 4) assume a > 9
"""

# A property with an empty language.
GOALLESS_PROPERTY = """\
automaton nothing_bad kind=property
state q0 init
trans q0 -> q0 otherwise
"""


# ---------------------------------------------------------------------------
# Tree-walking reference evaluator: the contract of ``predicates.evaluate`` and
# ``predicates.eval_expr``, walking the tree with ``isinstance`` on every node.
# The library runs compiled code; this is what it is compared against.

_REFERENCE_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def reference_eval_expr(expr, state, chi=None):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in state:
            raise UndefinedVariable(expr.name)
        return state[expr.name]
    if isinstance(expr, TemplateVar):
        if chi is None:
            raise UnboundTemplate()
        if chi not in state:
            raise UndefinedVariable(chi)
        return state[chi]
    if isinstance(expr, Neg):
        return -reference_eval_expr(expr.operand, state, chi)
    if isinstance(expr, BinExpr):
        left = reference_eval_expr(expr.left, state, chi)
        right = reference_eval_expr(expr.right, state, chi)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        raise ValueError(f"unknown operator {expr.op!r}")
    raise TypeError(f"not an expression: {expr!r}")


def reference_evaluate(pred, state, chi=None):
    if isinstance(pred, BoolConst):
        return pred.value
    if isinstance(pred, Comparison):
        return _REFERENCE_COMPARE[pred.op](reference_eval_expr(pred.left, state, chi),
                                           reference_eval_expr(pred.right, state, chi))
    if isinstance(pred, Not):
        return not reference_evaluate(pred.operand, state, chi)
    if isinstance(pred, And):
        return reference_evaluate(pred.left, state, chi) and reference_evaluate(pred.right, state, chi)
    if isinstance(pred, Or):
        return reference_evaluate(pred.left, state, chi) or reference_evaluate(pred.right, state, chi)
    raise TypeError(f"not a predicate: {pred!r}")


# The bounded tautology check's reference: the same contract as
# ``predicates.is_tautology_bounded``, with every assignment a dict handed to
# the reference evaluator.

def reference_tautology(pred, variables, domain) -> TautologyResult:
    if mentions_template(pred):
        raise UnboundTemplate()
    if has_complement_pair(_disjuncts(pred)):
        return TautologyResult("tautology", syntactic=True)
    names = sorted(set(variables))
    if not variables_of(pred) <= set(names):
        return TautologyResult("inconclusive")
    for values in itertools.product(domain.values_by_magnitude(), repeat=len(names)):
        assignment = dict(zip(names, values))
        if not reference_evaluate(pred, assignment):
            return TautologyResult("falsifiable", counterexample=assignment)
    return TautologyResult("tautology")


def log_compiles(monkeypatch):
    """Log the trees ``compile`` received and the exceptions it raised."""
    log = SimpleNamespace(trees=[], errors=[])

    def logged_compile(tree, *args, **kwargs):
        log.trees.append(tree)
        try:
            return compile(tree, *args, **kwargs)
        except Exception as exc:
            log.errors.append(exc)
            raise

    monkeypatch.setattr(predicates, "compile", logged_compile, raising=False)
    return log
