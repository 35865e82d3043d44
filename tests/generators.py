"""Seeded random programs and automata for the agreement tests.

Programs are generated as source text so that everything the parser enforces
holds by construction: variables are declared before use, branch guards come
in complementary pairs, and every loop counts a dedicated fresh counter up to
a small bound, so bounded path enumeration is always exhaustive.  Automata
are built against a program's own edges and definitely-assigned variables,
which keeps them kind-valid and keeps assumption evaluation total.
"""

from __future__ import annotations

import random

from coopverify.automata import (
    ArtifactAutomaton,
    AutomatonKind,
    EdgePattern,
    Transition,
    make_automaton,
)
from coopverify.lang import ControlFlowAutomaton, definitely_assigned, parse_program
from coopverify.predicates import (
    CHI,
    FALSE,
    TRUE,
    And,
    BinExpr,
    Comparison,
    Const,
    Neg,
    Not,
    Or,
    Var,
)

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _comparison(rng: random.Random, names) -> Comparison:
    left = rng.choice(names)
    if len(names) > 1 and rng.random() < 0.4:
        right = Var(rng.choice([n for n in names if n != left]))
    else:
        right = Const(rng.randint(-2, 2))
    return Comparison(rng.choice(_CMP_OPS), Var(left), right)


# ---------------------------------------------------------------------------
# Predicates and expressions over arbitrary names, for the evaluator tests

def random_expression(rng: random.Random, names, depth: int = 3):
    """An expression over ``names``, the template placeholder, small and
    very large constants, negation, ``+``, ``-`` and ``*``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        leaf = rng.random()
        if leaf < 0.5:
            return Var(rng.choice(names))
        if leaf < 0.6:
            return CHI
        if leaf < 0.75:
            return Const(rng.choice((10 ** 30, -(10 ** 30) - 1, 2 ** 64)))
        return Const(rng.randint(-3, 3))
    if roll < 0.4:
        return Neg(random_expression(rng, names, depth - 1))
    return BinExpr(rng.choice("+-*"), random_expression(rng, names, depth - 1),
                   random_expression(rng, names, depth - 1))


def random_predicate(rng: random.Random, names, depth: int = 3):
    """A predicate over ``names`` built from constants, comparisons of
    :func:`random_expression` operands, ``!``, ``&&`` and ``||``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.15:
            return rng.choice((TRUE, FALSE))
        return Comparison(rng.choice(_CMP_OPS), random_expression(rng, names, 2),
                          random_expression(rng, names, 2))
    if roll < 0.5:
        return Not(random_predicate(rng, names, depth - 1))
    node = And if roll < 0.75 else Or
    return node(random_predicate(rng, names, depth - 1), random_predicate(rng, names, depth - 1))


def random_partial_state(rng: random.Random, names) -> dict:
    """Each name bound with probability 0.7, to a small or a very large value."""
    return {name: rng.choice((rng.randint(-3, 3), 10 ** 30 + rng.randint(-1, 1)))
            for name in names if rng.random() < 0.7}


# ---------------------------------------------------------------------------
# Programs

def _simple_statement(rng: random.Random, targets, readable) -> str:
    v = rng.choice(targets)
    roll = rng.random()
    if roll < 0.3:
        return f"{v}++;"
    if roll < 0.45:
        return f"{v}--;"
    if roll < 0.7:
        w = rng.choice(readable)
        op = rng.choice(("+", "-"))
        return f"{v} = {w} {op} {rng.randint(0, 2)};"
    if roll < 0.85:
        w, u = rng.choice(readable), rng.choice(readable)
        return f"{v} = {w} - {u};"
    return f"{v} = {rng.randint(-2, 2)};"


def _condition_text(rng: random.Random, readable) -> str:
    left = rng.choice(readable)
    if len(readable) > 1 and rng.random() < 0.4:
        right = rng.choice([n for n in readable if n != left])
    else:
        right = str(rng.randint(-2, 2))
    return f"{left} {rng.choice(_CMP_OPS)} {right}"


def random_program_source(rng: random.Random) -> str:
    """Source text with one or two inputs and at most ten locations."""
    inputs = ["x"] if rng.random() < 0.5 else ["x", "y"]
    lines = [f"int {v} = input();" for v in inputs]
    data = ["a"]
    lines.append(f"int a = {rng.choice(['0', '1', inputs[0]])};")
    if rng.random() < 0.6:
        data.append("b")
        lines.append(f"int b = {rng.choice(['0', inputs[-1]])};")
    readable = inputs + data
    budget = 9 - len(lines)
    shape = rng.choice(("loop", "branch", "straight"))
    if shape == "loop" and budget >= 3:
        bound = rng.randint(1, 2)
        body = ["c++;"]
        if budget >= 4 and rng.random() < 0.7:
            body.append(_simple_statement(rng, data, readable))
        lines.append("int c = 0;")
        lines.append(f"while (c < {bound}) {{")
        lines.extend("  " + stmt for stmt in body)
        lines.append("}")
        budget -= 2 + len(body)
    elif shape == "branch" and budget >= 2:
        then = [_simple_statement(rng, data, readable)]
        budget -= 2
        orelse = []
        if budget >= 1 and rng.random() < 0.5:
            orelse = [_simple_statement(rng, data, readable)]
            budget -= 1
        lines.append(f"if ({_condition_text(rng, readable)}) {{")
        lines.extend("  " + stmt for stmt in then)
        if orelse:
            lines.append("} else {")
            lines.extend("  " + stmt for stmt in orelse)
        lines.append("}")
    while budget > 0 and rng.random() < 0.5:
        lines.append(_simple_statement(rng, data, readable))
        budget -= 1
    return "\n".join(lines) + "\n"


def random_program(rng: random.Random) -> ControlFlowAutomaton:
    return parse_program(random_program_source(rng))


# ---------------------------------------------------------------------------
# Automata

def _edge_pattern(edge) -> EdgePattern:
    return EdgePattern(edge.source, edge.op.text, edge.target)


def _assumption(rng: random.Random, program: ControlFlowAutomaton, edge):
    """Either trivial or a comparison over variables that are guaranteed to
    be assigned after the edge, so evaluation never hits an unknown name."""
    if rng.random() < 0.4:
        return TRUE
    names = sorted(definitely_assigned(program)[edge.target])
    if not names:
        return TRUE
    return _comparison(rng, names)


def _otherwise(state: str) -> Transition:
    return Transition(state, state, None, TRUE, otherwise=True)


def random_property(rng: random.Random, program: ControlFlowAutomaton,
                    otherwise: bool = True) -> ArtifactAutomaton:
    """One accepting state fed by one or two guarded edge observations.

    By default the waiting state keeps an otherwise loop, so it never blocks
    and the automaton is kind-valid by construction.  With ``otherwise``
    false the loop becomes one self-loop per program edge, most of them
    unguarded and the rest guarded like the observations (over variables
    assigned after the edge), and the property blocks wherever every guard
    at a reached edge fails.
    """
    edges = rng.sample(program.edges, k=min(len(program.edges), rng.randint(1, 2)))
    if otherwise:
        transitions = [_otherwise("q0")]
    else:
        transitions = [Transition("q0", "q0", _edge_pattern(edge),
                                  TRUE if rng.random() < 0.7 else _assumption(rng, program, edge))
                       for edge in program.edges]
    for edge in edges:
        transitions.append(Transition("q0", "qe", _edge_pattern(edge),
                                      _assumption(rng, program, edge)))
    return make_automaton("random_property", AutomatonKind.PROPERTY,
                          ["q0", "qe"], "q0", ("qe",), transitions)


def random_test_goal(rng: random.Random, program: ControlFlowAutomaton) -> ArtifactAutomaton:
    edges = rng.sample(program.edges, k=min(len(program.edges), rng.randint(1, 2)))
    finals = [f"g{i}" for i in range(len(edges))]
    transitions = [_otherwise("q0")]
    for name, edge in zip(finals, edges):
        transitions.append(Transition("q0", name, _edge_pattern(edge),
                                      _assumption(rng, program, edge)))
    return make_automaton("random_goals", AutomatonKind.TEST_GOAL,
                          ["q0"] + finals, "q0", finals, transitions)


def _structural_walk(rng: random.Random, program: ControlFlowAutomaton, length: int):
    loc = program.initial
    edges = []
    for _ in range(length):
        out = program.edges_from(loc)
        if not out:
            break
        edge = rng.choice(out)
        edges.append(edge)
        loc = edge.target
    return edges


def random_violation_witness(rng: random.Random, program: ControlFlowAutomaton) -> ArtifactAutomaton:
    """A short chain of edge observations, usually along the control graph so
    that a fair share of generated witnesses is actually realizable."""
    length = rng.randint(1, 3)
    if rng.random() < 0.7:
        edges = _structural_walk(rng, program, length)
    else:
        edges = [rng.choice(program.edges) for _ in range(length)]
    if not edges:
        edges = [program.edges[0]]
    states = [f"w{i}" for i in range(len(edges) + 1)]
    transitions = []
    for i, edge in enumerate(edges):
        assumption = _assumption(rng, program, edge) if i == 0 else TRUE
        transitions.append(Transition(states[i], states[i + 1],
                                      _edge_pattern(edge), assumption))
    if rng.random() < 0.5:
        transitions.append(_otherwise(states[0]))
    return make_automaton("random_vw", AutomatonKind.VIOLATION_WITNESS,
                          states, states[0], (states[-1],), transitions)


def random_correctness_witness(rng: random.Random, program: ControlFlowAutomaton) -> ArtifactAutomaton:
    """Either the one-state witness covering everything, or a two-state one
    whose second state claims an invariant after a chosen edge."""
    if rng.random() < 0.3:
        return make_automaton("random_cw", AutomatonKind.CORRECTNESS_WITNESS,
                              ["s0"], "s0", (), [_otherwise("s0")])
    edge = rng.choice(program.edges)
    names = sorted(definitely_assigned(program)[edge.target])
    if names and rng.random() < 0.5:
        invariant = _comparison(rng, names)
    elif names:
        invariant = Comparison(">=", Var(rng.choice(names)), Const(-99))
    else:
        invariant = TRUE
    transitions = [
        Transition("s0", "s1", _edge_pattern(edge), TRUE),
        _otherwise("s0"),
        _otherwise("s1"),
    ]
    return make_automaton("random_cw", AutomatonKind.CORRECTNESS_WITNESS,
                          ["s0", "s1"], "s0", (), transitions, {"s1": invariant})


def random_condition(rng: random.Random, program: ControlFlowAutomaton) -> ArtifactAutomaton:
    edge = rng.choice(program.edges)
    transitions = [Transition("q0", "q1", _edge_pattern(edge),
                              _assumption(rng, program, edge))]
    if rng.random() < 0.6:
        transitions.append(_otherwise("q0"))
    return make_automaton("random_cond", AutomatonKind.CONDITION,
                          ["q0", "q1"], "q0", ("q1",), transitions)


def random_inputs(rng: random.Random) -> tuple:
    return tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
