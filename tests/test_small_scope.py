"""Exactness on every small program: the explorer against the reference.

Every program of at most three locations and three edges over a fixed
alphabet of operations on two variables (an input, an increment, a copy,
an assume and its negation) is checked with every two-state automaton of a
fixed family, over inputs {0, 1} at step bounds 2 and 6.  A slip in the
explorer's keys or step memos that needs a rare program shape shows here,
where random draws may miss it (Jackson, "Software Abstractions", 2006, on
the small-scope hypothesis).  Programs with a fourth edge are left out:
with them the gate takes minutes, not seconds.

The reference (``reference.reference_layers``) computes, per prefix
length, the product configurations over whole data states; it shares no
key, order or memo with the explorer.  Within the step bound the explorer
must find a hit exactly when some prefix within the bound is one, and may
report truncation only where some prefix of the full length is extendable.
"""

from __future__ import annotations

import itertools

from coopverify.actors import Result, generate_tests, reduce_with_origin, validate_result, verify
from coopverify.automata import AutomatonKind, EdgePattern, Transition, make_automaton
from coopverify.engine import (AnalysisConfig, Verdict, check_condition_correct,
                               check_correctness_witness, check_fulfills, check_test_covers)
from coopverify.errors import UseBeforeDef
from coopverify.kinds import build_test_case_automaton
from coopverify.lang import (EMPTY_STATE, CFAEdge, InputOp, assignment_op, assume_op,
                             check_defined_before_use, input_op, make_cfa)
from coopverify.predicates import TRUE, BinExpr, Comparison, Const, Interval, Not, Var
from reference import (reference_layers, reference_start, reference_step, reference_successors,
                       replay_path)

X, Y = Var("x"), Var("y")
POSITIVE = Comparison(">", X, Const(0))
ALPHABET = (input_op("x"), assignment_op("x", BinExpr("+", X, Const(1))), assignment_op("y", X),
            assume_op(POSITIVE), assume_op(Not(POSITIVE)))
DOMAIN = Interval(0, 1)
BOUNDS = (2, 6)


def small_programs(max_locations: int = 3, max_edges: int = 3) -> list:
    """Every program of at most ``max_locations`` locations and
    ``max_edges`` edges over :data:`ALPHABET`, with location 0 initial,
    every location reachable and x written before it is read; one of each
    pair that differ only by swapping locations 1 and 2, edges in sorted
    order."""
    programs = []
    for count in range(1, max_locations + 1):
        slots = [(s, o, t) for s in range(count) for o in range(len(ALPHABET))
                 for t in range(count)]
        swap = {1: 2, 2: 1} if count == 3 else {}
        for k in range(1, max_edges + 1):
            for edges in itertools.combinations(slots, k):
                reached, grew = {0}, True
                while grew:
                    grew = False
                    for s, _, t in edges:
                        if s in reached and t not in reached:
                            reached.add(t)
                            grew = True
                if len(reached) < count:
                    continue
                if tuple(sorted((swap.get(s, s), o, swap.get(t, t)) for s, o, t in edges)) < edges:
                    continue
                program = make_cfa(range(count), 0,
                                   [CFAEdge(s, ALPHABET[o], t) for s, o, t in edges], ("x", "y"))
                try:
                    check_defined_before_use(program)
                except UseBeforeDef:
                    continue
                programs.append(program)
    return programs


def _pattern(op) -> EdgePattern:
    return EdgePattern(None, None if op is None else op.text, None)


# (operation observed, None for any, and the guard on its post-state); y is
# bound only after the copy
OBSERVATIONS = ((ALPHABET[0], POSITIVE), (ALPHABET[2], Comparison(">", Y, Const(0))),
                (ALPHABET[3], TRUE), (None, POSITIVE))


def small_automata(kind: AutomatonKind) -> list:
    """Each two-state automaton that waits in q0 through otherwise and
    enters the final q1 on one of :data:`OBSERVATIONS`.  q1 takes no
    transition, except in a goal automaton, where it returns to q0 on any
    step, so that a complete path can carry a goal it entered and left."""
    transitions = [Transition("q0", "q0", None, TRUE, otherwise=True)]
    if kind is AutomatonKind.TEST_GOAL:
        transitions.append(Transition("q1", "q0", None, TRUE, otherwise=True))
    return [make_automaton(kind.value.replace("-", "_"), kind, ["q0", "q1"], "q0", ("q1",),
                           [Transition("q0", "q1", _pattern(op), guard), *transitions])
            for op, guard in OBSERVATIONS]


def _fold(automata, path) -> tuple:
    """The reference frontiers and final entries after ``path``."""
    configs = [reference_start(a, path.steps[0].state) for a in automata]
    for step in path.steps[1:]:
        stepped = [reference_step(a, fr, step.incoming, step.state)
                   for a, (fr, _) in zip(automata, configs)]
        configs = [(fr, en | new) for (fr, new), (_, en) in zip(stepped, configs)]
    return tuple(fr for fr, _ in configs), tuple(en for _, en in configs)


def _accepted(c) -> bool:
    return bool(c[3][0])


def _both_accept(c) -> bool:
    return bool(c[3][0]) and bool(c[3][1])


def _uncovered_or_accepted(c) -> bool:
    return not c[2][1] or bool(c[3][0])


class Reference:
    """The reference layers of one program, per tuple of automata, each
    computed once at the longest bound asked for and cut to shorter ones.
    The automata are kept with their layers, so that no id in a key is
    reused while the record lives."""

    def __init__(self, program) -> None:
        self.program = program
        self.layers: dict = {}

    def of(self, automata, config) -> list:
        key = tuple(map(id, automata))
        _, layers = self.layers.get(key, (None, ()))
        if len(layers) <= config.max_steps:
            layers = reference_layers(self.program, automata, config)
            self.layers[key] = (automata, layers)
        return layers[:config.max_steps + 1]

    def search(self, automata, config, hit) -> tuple:
        """Whether a prefix within the bound is a hit, and whether a prefix
        of exactly ``config.max_steps`` steps can be extended."""
        layers = self.of(automata, config)
        found = any(hit(c) for layer in layers for c in layer)
        cut = any(reference_successors(self.program, state, location, config.input_domain)
                  for location, state, _, _ in layers[-1])
        return found, cut

    def agree(self, judgment, automata, config, hit, universal: bool) -> None:
        """``judgment`` is exact on hits and reports truncation only where a
        prefix of the full length is extendable."""
        found, cut = self.search(automata, config, hit)
        if found:
            assert judgment.verdict is (Verdict.VIOLATED if universal else Verdict.HOLDS)
            assert judgment.exhausted or cut
            evidence = judgment.evidence
            assert replay_path(self.program, evidence) and evidence.length <= config.max_steps
            frontiers, entries = _fold(automata, evidence)
            assert hit((evidence.final_location, evidence.final_state, frontiers, entries))
        elif judgment.verdict is Verdict.UNKNOWN:
            assert cut
        else:
            assert judgment.verdict is (Verdict.HOLDS if universal else Verdict.VIOLATED)
            assert judgment.exhausted


def _read(edge, post):
    """One step of a prefix: the edge, and the value read where it is an
    input.  The program is deterministic given both, so these pairs name a
    prefix as its states would."""
    return id(edge), post[edge.op.target] if type(edge.op) is InputOp else None


def _uncovered(program, cond, config) -> tuple:
    """The program's prefixes within the bound that ``cond`` does not
    accept, and those it accepts on their last step, as tuples of
    :func:`_read` steps."""
    uncovered, entering = set(), set()
    frontier, entries = reference_start(cond, EMPTY_STATE)
    stack = [((), program.initial, EMPTY_STATE, frontier, entries)]
    while stack:
        items, location, state, frontier, entries = stack.pop()
        if entries:
            entering.add(items)
            continue
        uncovered.add(items)
        if len(items) < config.max_steps:
            for edge, post in reference_successors(program, state, location, config.input_domain):
                after, new = reference_step(cond, frontier, edge, post)
                stack.append((items + (_read(edge, post),), edge.target, post, after, new))
    return uncovered, entering


def _residual(reduction, config) -> tuple:
    """The residual's prefixes of at most the bound's number of program
    operations, each mapped to them, with an operation into a helper
    location left out until its assume edge is taken; and those stuck at a
    helper location, with that operation kept.  An inserted assume edge
    leaves a helper location for a program one, so the walk ends."""
    residual, mids = reduction.residual, reduction.mid_locations
    mapped, stuck = set(), set()
    stack = [((), residual.initial, EMPTY_STATE)]
    while stack:
        items, location, state = stack.pop()
        succ = reference_successors(residual, state, location, config.input_domain)
        if location in mids:
            mapped.add(items[:-1])
            if not succ:
                stuck.add(items)
        else:
            mapped.add(items)
        for edge, post in succ:
            origin = reduction.origin.get(edge)
            if origin is None:
                stack.append((items, edge.target, post))
            elif len(items) < config.max_steps:
                stack.append((items + (_read(origin, post),), edge.target, post))
    return mapped, stuck


def check_reduce(program, cond, config) -> None:
    """The residual runs exactly the prefixes the condition does not cover,
    and is stuck at a helper location only after an operation the condition
    covers (the contract of ``tests/reference.py``'s reducer comparison)."""
    uncovered, entering = _uncovered(program, cond, config)
    mapped, stuck = _residual(reduce_with_origin(program, cond), config)
    assert mapped == uncovered
    assert stuck <= entering


def _reached(layers, ends) -> frozenset:
    """The goals entered on the prefixes that ``ends`` admits."""
    return frozenset().union(*(c[3][0] for layer in layers for c in layer if ends(c)))


def check_small(program, props, goals, conds) -> None:
    ref = Reference(program)
    for bound in sorted(BOUNDS, reverse=True):
        config = AnalysisConfig(DOMAIN, bound)
        for prop in props:
            bundle = verify(program, prop, config)
            assert check_fulfills(program, prop, config) == bundle.judgment
            ref.agree(bundle.judgment, (prop,), config, _accepted, universal=True)
            if bundle.result is Result.UNKNOWN:
                continue
            checked = validate_result(program, prop, bundle.witness, config)
            assert checked.result is bundle.result
            if bundle.result is Result.TRUE:
                ref.agree(check_correctness_witness(program, prop, bundle.witness, config),
                          (prop, bundle.witness), config, _uncovered_or_accepted, universal=True)
            else:
                ref.agree(checked.judgment, (prop, bundle.witness), config, _both_accept,
                          universal=False)
        for cond in conds:
            prop = props[0]
            ref.agree(check_condition_correct(program, prop, cond, config), (prop, cond),
                      config, _both_accept, universal=True)
            if bound == max(BOUNDS):  # the walks at a smaller bound are a part of these
                check_reduce(program, cond, config)
        def ends(c) -> bool:
            return not reference_successors(program, c[1], c[0], config.input_domain)

        def covered_goal(c) -> bool:
            return bool(c[2][1]) and bool(c[3][0]) and ends(c)

        for goal in goals:
            suite = generate_tests(program, goal, config)
            assert suite.covered_goals() == _reached(ref.of((goal,), config), ends)
            for test in suite.tests:
                case = build_test_case_automaton(test.inputs)
                judgment, reached = check_test_covers(program, test.inputs, goal, config)
                ref.agree(judgment, (goal, case), config, covered_goal, universal=False)
                assert reached == _reached(ref.of((goal, case), config), covered_goal)


def test_every_small_program_agrees_with_the_reference():
    """230 programs and 4 properties: 920 (program, property) pairs, each
    at both bounds, with ``check_fulfills``, ``verify``, ``validate_result``
    of its witness and the correctness- or violation-witness check of that
    witness.  Each program also meets 4 goal automata (``generate_tests``,
    and ``check_test_covers`` of every test it makes) and 4 conditions
    (``check_condition_correct`` with the first property, and ``reduce``)."""
    programs = small_programs()
    props = small_automata(AutomatonKind.PROPERTY)
    goals = small_automata(AutomatonKind.TEST_GOAL)
    conds = small_automata(AutomatonKind.CONDITION)
    assert (len(programs), len(props), len(goals), len(conds)) == (230, 4, 4, 4)
    for program in programs:
        check_small(program, props, goals, conds)
