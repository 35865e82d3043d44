"""Seeded random programs and automata for the agreement tests.

Programs are generated as source text so that everything the parser enforces
holds by construction: variables are declared before use, branch guards come
in complementary pairs, and every loop counts a dedicated fresh counter up to
a small bound, so bounded path enumeration is always exhaustive.  Automata
are built against a program's own edges and definitely-assigned variables,
which keeps them kind-valid and keeps assumption evaluation total.
"""

from __future__ import annotations

import itertools
import random

from coopverify.automata import (
    INPUT_TEMPLATE_TEXT,
    ArtifactAutomaton,
    AutomatonKind,
    EdgePattern,
    Transition,
    make_automaton,
)
from coopverify.lang import (
    Assume,
    CFAEdge,
    ControlFlowAutomaton,
    InputOp,
    assume_op,
    make_cfa,
    parse_program,
)
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
    Var,
    evaluate,
    parse_predicate,
)
from reference import budgeted_paths, definitely_assigned

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


def long_then_short_join(rng: random.Random, domain: Interval = Interval(-2, 2)) -> tuple:
    """A program whose two branches join with one value of ``a``, the only
    variable read after the join, and a property that observes the first
    edge after the join under a guard on ``a``, most often one that holds.

    The branch that the smallest inputs of ``domain`` take, which
    depth-first order explores first, is two to four steps longer than the
    other, which some other inputs take.  The condition reads inputs that
    nothing reads after the join, so both prefixes reach one product
    configuration there, the longer one first: a bound that cuts it short of
    the observation may leave the shorter one within reach of it.
    """
    inputs = ["x"] if rng.random() < 0.5 else ["x", "y"]
    lines = [f"int {v} = input();" for v in inputs]
    lines.append(f"int a = {rng.choice(['0', inputs[-1]])};")
    while True:
        condition = _condition_text(rng, inputs)
        pred = parse_predicate(condition)
        taken = {evaluate(pred, dict(zip(inputs, values)))
                 for values in itertools.product(domain, repeat=len(inputs))}
        if len(taken) == 2:
            break
    short = rng.randint(0, 1)
    lengths = [short + rng.randint(2, 4), short]
    if not evaluate(pred, dict.fromkeys(inputs, domain.lo)):
        lengths.reverse()
    fillers = ("a++;", "a--;", f"a = {inputs[-1]} + 1;", "a = a - x;")
    value = rng.randint(-2, 2)
    lines.append(f"if ({condition}) {{")
    lines.extend(f"  {rng.choice(fillers)}" for _ in range(lengths[0]))
    lines += [f"  a = {value};", "} else {"]
    lines.extend(f"  {rng.choice(fillers)}" for _ in range(lengths[1]))
    lines += [f"  a = {value};", "}"]
    step = rng.randint(0, 2)
    observed = f"a = a + {step}"
    lines.append(observed + ";")
    if rng.random() < 0.5:
        lines.append("a++;")
    program = parse_program("\n".join(lines) + "\n")
    edge = next(e for e in program.edges if e.op.text == observed)
    guard = TRUE
    if rng.random() < 0.6:
        guard = Comparison(rng.choice(_CMP_OPS), Var("a"),
                           Const(value + step + rng.choice((-1, 0, 0, 1))))
    prop = make_automaton("join_property", AutomatonKind.PROPERTY, ["q0", "qe"], "q0", ("qe",),
                          [_otherwise("q0"), Transition("q0", "qe", _edge_pattern(edge), guard)])
    return program, prop


def drop_assumes(rng: random.Random, program: ControlFlowAutomaton) -> ControlFlowAutomaton:
    """The program with each assume edge dropped with probability one half,
    so that a guard whose complement is gone can block a run."""
    edges = [e for e in program.edges if not (isinstance(e.op, Assume) and rng.random() < 0.5)]
    return make_cfa(program.locations, program.initial, edges, program.variables)


def add_choices(rng: random.Random, program: ControlFlowAutomaton) -> ControlFlowAutomaton:
    """The program with, beside each assume edge with probability one half,
    an ``assume true`` edge to the target of a sibling assume edge, so that
    a run may take either branch where the guard holds: one input sequence
    can then run along several complete paths."""
    edges = list(program.edges)
    for edge in program.edges:
        if isinstance(edge.op, Assume) and rng.random() < 0.5:
            targets = sorted({e.target for e in program.edges_from(edge.source)
                              if isinstance(e.op, Assume) and e.target != edge.target})
            if targets:
                choice = CFAEdge(edge.source, assume_op(TRUE), rng.choice(targets))
                if choice not in edges:
                    edges.append(choice)
    return make_cfa(program.locations, program.initial, edges, program.variables)


def random_dead_copy_program(rng: random.Random) -> ControlFlowAutomaton:
    """A :func:`random_program_source` program with a dead input copy.

    ``int d = input();`` follows the inputs, and in half the programs with
    a loop its body starts with ``d = input();``.  The program never reads
    ``d``, or it ends with ``d = a;`` and ``a = d + 1;``, which overwrite
    ``d`` before reading it.  Automata built against the program may still
    read ``d``.
    """
    lines = random_program_source(rng).splitlines()
    first_data = next(i for i, line in enumerate(lines) if not line.endswith("input();"))
    lines.insert(first_data, "int d = input();")
    for i, line in enumerate(lines):
        if line.startswith("while") and rng.random() < 0.5:
            lines.insert(i + 1, "  d = input();")
            break
    if rng.random() < 0.5:
        lines += ["d = a;", "a = d + 1;"]
    return parse_program("\n".join(lines) + "\n")


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


def _unreachable_guard(rng: random.Random, program: ControlFlowAutomaton, edge, paths):
    """A guard over variables assigned after ``edge`` that is false on the
    post-state of every step over the edge in ``paths``: one variable
    bounded just outside the values it takes there, sometimes conjoined with
    a comparison like :func:`_assumption`'s."""
    names = sorted(definitely_assigned(program)[edge.target])
    if not names:
        return FALSE
    v = rng.choice(names)
    values = [step.state[v] for path in paths for step in path.steps[1:]
              if step.incoming is edge] or [0]
    if rng.random() < 0.5:
        guard = Comparison(">", Var(v), Const(max(values) + rng.randint(0, 1)))
    else:
        guard = Comparison("<", Var(v), Const(min(values) - rng.randint(0, 1)))
    if rng.random() < 0.3:
        guard = And(guard, _comparison(rng, names))
    return guard


# The enumeration steps a holding property may take to learn the values its
# observed edges reach: the tests' draws take at most 25,031.
HOLDING_BUDGET = 100_000


def random_property(rng: random.Random, program: ControlFlowAutomaton,
                    otherwise: bool = True, holds: bool = False,
                    domain: Interval = Interval(-2, 2)) -> ArtifactAutomaton:
    """One accepting state fed by one or two guarded edge observations.

    By default the waiting state keeps an otherwise loop, so it never blocks
    and the automaton is kind-valid by construction.  With ``otherwise``
    false the loop becomes one self-loop per program edge, most of them
    unguarded and the rest guarded like the observations (over variables
    assigned after the edge), and the property blocks wherever every guard
    at a reached edge fails.

    With ``holds`` each observation's guard is false on every post-state
    its edge reaches with inputs from ``domain`` (see
    :func:`_unreachable_guard`), so the program fulfils the property there.
    Learning those values enumerates the program's paths within 200 steps,
    which raises ``OracleBudgetExceeded`` past :data:`HOLDING_BUDGET` steps.
    The default draws are those of a property without ``holds``.
    """
    edges = rng.sample(program.edges, k=min(len(program.edges), rng.randint(1, 2)))
    if otherwise:
        transitions = [_otherwise("q0")]
    else:
        transitions = [Transition("q0", "q0", _edge_pattern(edge),
                                  TRUE if rng.random() < 0.7 else _assumption(rng, program, edge))
                       for edge in program.edges]
    paths = budgeted_paths(program, domain, 200, HOLDING_BUDGET) if holds else ()
    for edge in edges:
        guard = (_unreachable_guard(rng, program, edge, paths) if holds
                 else _assumption(rng, program, edge))
        transitions.append(Transition("q0", "qe", _edge_pattern(edge), guard))
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


def replace_invariant(rng: random.Random, program: ControlFlowAutomaton,
                      witness: ArtifactAutomaton) -> ArtifactAutomaton:
    """A location-mirroring correctness witness (states ``s<location>``,
    as :func:`coopverify.actors.verify` writes them) with one state's
    invariant replaced by a comparison of one variable assigned there with a
    constant.  A third of the time the state is the one entered by an edge
    ``d = input()`` and the variable is ``d``, which the program never reads
    before overwriting it."""
    assigned = definitely_assigned(program)
    reads_d = [e.target for e in program.edges
               if isinstance(e.op, InputOp) and e.op.target == "d"]
    if reads_d and rng.random() < 1 / 3:
        location, names = rng.choice(reads_d), ["d"]
    else:
        location = rng.choice(sorted(l for l in program.locations if assigned[l]))
        names = sorted(assigned[location])
    invariants = dict(witness.invariants)
    invariants[f"s{location}"] = _comparison(rng, [rng.choice(names)])
    return make_automaton(witness.name, witness.kind, witness.states, witness.initial,
                          witness.finals, witness.transitions, invariants)


def _rich_condition(rng: random.Random, program: ControlFlowAutomaton) -> ArtifactAutomaton:
    """Two to four states, the last one final, and one to three guarded
    transitions out of every other state.  A transition observes a program
    edge, or any input edge through the input template with a guard on the
    placeholder; a non-final state keeps an otherwise loop half the time."""
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    template = EdgePattern(None, INPUT_TEMPLATE_TEXT, None)
    reads_input = any(isinstance(e.op, InputOp) for e in program.edges)
    transitions = []
    for state in states[:-1]:
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(states)
            if reads_input and rng.random() < 0.3:
                guard = Comparison(rng.choice(_CMP_OPS), CHI, Const(rng.randint(-2, 2)))
                transitions.append(Transition(state, target, template, guard))
            else:
                edge = rng.choice(program.edges)
                transitions.append(Transition(state, target, _edge_pattern(edge),
                                              _assumption(rng, program, edge)))
        if rng.random() < 0.5:
            transitions.append(_otherwise(state))
    return make_automaton("random_rich_cond", AutomatonKind.CONDITION,
                          states, states[0], (states[-1],), transitions)


def random_condition(rng: random.Random, program: ControlFlowAutomaton,
                     rich: bool = False) -> ArtifactAutomaton:
    """A two-state condition accepting after one guarded edge observation,
    or with ``rich`` the several-state shape of :func:`_rich_condition`."""
    if rich:
        return _rich_condition(rng, program)
    edge = rng.choice(program.edges)
    transitions = [Transition("q0", "q1", _edge_pattern(edge),
                              _assumption(rng, program, edge))]
    if rng.random() < 0.6:
        transitions.append(_otherwise("q0"))
    return make_automaton("random_cond", AutomatonKind.CONDITION,
                          ["q0", "q1"], "q0", ("q1",), transitions)


def random_inputs(rng: random.Random) -> tuple:
    return tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
