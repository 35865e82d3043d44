"""Composable verification actors over programs and artifact automata.

Analyzers (:func:`verify`, :func:`conditional_verify`, :func:`validate_result`,
:func:`generate_tests`) take programs plus automata and produce verdicts and
new automata; transformers (:func:`reduce`, :func:`extract_test`) map
artifacts to artifacts; the presenter :func:`exec_test` only reports.  Every
actor is a pure function, so pipelines can chain them freely (see
:mod:`coopverify.pipeline`).

Verdicts here are about the *program* ("true" = fulfills the property),
whereas engine judgments are about one semantic relation; e.g. a valid
violation witness (judgment holds) yields result "false".
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .automata import (
    ArtifactAutomaton,
    AutomatonKind,
    EdgePattern,
    Transition,
    initial_frontier,
    make_automaton,
    memo_step,
)
from .engine import (
    DEFAULT_CONFIG,
    DEFAULT_MAX_STEPS,
    AnalysisConfig,
    Judgment,
    Verdict,
    _goal_search,
    _property_accepts,
    _refusal,
    _search,
    _uncovered_or_accepted,
    check_violation_witness,
    require_valid_kind,
)
from .errors import InvalidArtifact, NoViolatingPath
from .kinds import KindReport
from .lang import (
    CFAEdge,
    ConcreteDataState,
    ConcretePath,
    ControlFlowAutomaton,
    EMPTY_STATE,
    Assignment,
    Assume,
    InputOp,
    PathStep,
    assume_op,
    make_cfa,
)
from .predicates import (
    TRUE,
    And,
    Comparison,
    Const,
    Not,
    Predicate,
    Var,
    conjoin,
    disjoin,
    eval_expr,
    evaluate,
    substitute_template,
)
from .product import first_block


class Result(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class VerdictBundle(NamedTuple):
    """What a verifier hands back: result plus the artifacts backing it.

    ``witness`` is a violation witness when result is false and a correctness
    witness when true; re-checking it is the validator's job
    (:func:`validate_result`), not the producer's.  ``condition`` only
    appears for conditional verification and describes the input space now
    covered.
    """

    result: Result
    witness: Optional[ArtifactAutomaton]
    condition: Optional[ArtifactAutomaton]
    judgment: Judgment


# ---------------------------------------------------------------------------
# Witness synthesis

def violation_witness_from_path(program: ControlFlowAutomaton,
                                path: ConcretePath) -> ArtifactAutomaton:
    """A violation witness that pins the decisions of one concrete path.

    A step is a decision when it reads an input, leaves a location that
    chooses (one whose step plan has two or more entries, see
    :meth:`~coopverify.lang.ControlFlowAutomaton.step_plan`), or passes the
    path's last edge after its last other decision.  Each decision is a
    transition into a new state, an input pinned by ``x == v``, and the last
    one enters the final state.  Between decisions a state loops, with no
    ``otherwise``, on the distinct edges the path passed there, in the order
    it first passed them.  A step that is no decision leaves a location with
    at most one enabled edge, and no loop takes an edge that decides, so
    program x witness admits exactly this path and enters the final state
    only at its end, as far as the edges' patterns tell them apart.  The
    witness has at most one transition per step.
    """
    patterns: dict = {}  # (match source, op text, match target) -> pattern
    marks: dict = {}  # id of an edge the path holds -> (its pattern, whether it decides)
    steps = []
    for step in path.steps[1:]:
        edge = step.incoming
        mark = marks.get(id(edge))
        if mark is None:
            decides = len(program.step_plan(edge.source)) >= 2
            fields = (edge.match_src, edge.op.text, edge.match_tgt)
            mark = marks[id(edge)] = (patterns.setdefault(fields, EdgePattern(*fields)),
                                      decides or type(edge.op) is InputOp)
        steps.append((step, *mark))
    last = max((i for i, (_, _, decides) in enumerate(steps) if decides), default=-1)
    states = ["w0"]
    transitions = []
    loops: dict = {}  # id of a pattern -> the pattern: the loops of the last state
    for i, (step, pattern, decides) in enumerate(steps):
        if not decides and (i < last or pattern is not steps[-1][1]):
            loops.setdefault(id(pattern), pattern)
            continue
        source = states[-1]
        transitions.extend(Transition(source, source, loop) for loop in loops.values())
        loops.clear()
        op = step.incoming.op
        assumption = TRUE
        if type(op) is InputOp:
            assumption = Comparison("==", Var(op.target), Const(step.state[op.target]))
        states.append(f"w{len(states)}")
        transitions.append(Transition(source, states[-1], pattern, assumption))
    return make_automaton("violation_witness", AutomatonKind.VIOLATION_WITNESS, states,
                          states[0], (states[-1],), transitions)


def _location_facts(observed: Sequence[ConcreteDataState], live: frozenset) -> Predicate:
    """Conjunction of equality and interval facts over ``live`` variables true
    in every observed state.  Each state's bindings are read once, into one
    column of values per variable, and the facts are found on the columns."""
    bindings = [s._bindings for s in observed]
    common = sorted(live.intersection(*bindings))
    column = {v: list(map(itemgetter(v), bindings)) for v in common}
    facts: list = []
    for u, v in itertools.combinations(common, 2):
        if column[u] == column[v]:
            facts.append(Comparison("==", Var(u), Var(v)))
    for v in common:
        lo = min(column[v])
        hi = max(column[v])
        if lo == hi:
            facts.append(Comparison("==", Var(v), Const(lo)))
        else:
            facts.append(Comparison(">=", Var(v), Const(lo)))
            facts.append(Comparison("<=", Var(v), Const(hi)))
    return conjoin(facts)


def correctness_witness_from_observations(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                                          observed: dict) -> ArtifactAutomaton:
    """A correctness witness mirroring the program's locations.

    One state per location whose invariant conjoins the facts holding in all
    states observed there during exploration (``true`` for unvisited
    locations); transitions mirror the edges with trivial assumptions, so the
    witness covers every path the exploration covered.  Facts are kept only
    over the variables live at the location: those the program may still
    read and those the property reads anywhere.  The explorer keys
    configurations on at least these (see :mod:`coopverify.product`), so an
    untruncated search observes every reachable value of them, whatever
    else it keys on, while the values it saw of a dead variable depend on
    which prefixes it skipped.  The property's global read set stays in the
    key for this reason: narrowed to what its current states can read, the
    key would let the search skip values the facts range over, and an
    invariant could come out stronger than the paths it must cover.
    """
    def state_name(location: int) -> str:
        return f"s{location}"

    locations = sorted(program.locations)
    live = program.live_variables
    invariants = {}
    for location in locations:
        states = observed.get(location)
        if states:
            invariants[state_name(location)] = _location_facts(
                states, live[location] | prop.reads)
    transitions = [
        Transition(state_name(e.source), state_name(e.target),
                   EdgePattern(e.match_src, e.op.text, e.match_tgt), TRUE)
        for e in program.edges
    ]
    return make_automaton("correctness_witness", AutomatonKind.CORRECTNESS_WITNESS,
                          [state_name(l) for l in locations],
                          state_name(program.initial), (), transitions, invariants)


# ---------------------------------------------------------------------------
# Verifier

def verify(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
           config: AnalysisConfig = DEFAULT_CONFIG) -> VerdictBundle:
    """Decide whether the program fulfills the property, with a witness.

    Runs the search of :func:`check_fulfills` while recording the data
    states explored per location.  On violation the evidence path becomes a
    violation witness pinning its decisions; on success the recorded states
    become correctness-witness invariants.  One exploration decides the
    verdict and yields the witness.
    """
    require_valid_kind(prop, AutomatonKind.PROPERTY)
    observed: dict = defaultdict(list)
    judgment = _search(program, (prop,), config, _property_accepts, universal=True,
                       observed=observed)
    if judgment.verdict is Verdict.UNKNOWN:
        return VerdictBundle(Result.UNKNOWN, None, None, judgment)
    if judgment.evidence is not None:
        result, witness = Result.FALSE, violation_witness_from_path(program, judgment.evidence)
    else:
        result, witness = Result.TRUE, correctness_witness_from_observations(program, prop, observed)
    return VerdictBundle(result, witness, None, judgment)


# ---------------------------------------------------------------------------
# Validator

def validate_result(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                    witness: ArtifactAutomaton,
                    config: AnalysisConfig = DEFAULT_CONFIG) -> VerdictBundle:
    """Confirm a claimed result by checking its witness against the program.

    A valid violation witness confirms "false", a valid correctness witness
    confirms "true"; each confirmation re-derives a fresh witness, the
    latter from the data states seen by its own untruncated search, which
    are the ones :func:`verify` sees.  Anything else is unconfirmed and
    reported as unknown without a witness.
    """
    if witness.kind is AutomatonKind.VIOLATION_WITNESS:
        judgment = check_violation_witness(program, prop, witness, config)
        if judgment.verdict is Verdict.HOLDS:
            rederived = violation_witness_from_path(program, judgment.evidence)
            return VerdictBundle(Result.FALSE, rederived, None, judgment)
        return VerdictBundle(Result.UNKNOWN, None, None, judgment)
    if witness.kind is AutomatonKind.CORRECTNESS_WITNESS:
        require_valid_kind(prop, AutomatonKind.PROPERTY)
        require_valid_kind(witness, AutomatonKind.CORRECTNESS_WITNESS)
        observed: dict = defaultdict(list)
        judgment = _search(program, (prop, witness), config, _uncovered_or_accepted,
                           universal=True, observed=observed)
        if judgment.verdict is Verdict.HOLDS:
            rederived = correctness_witness_from_observations(program, prop, observed)
            return VerdictBundle(Result.TRUE, rederived, None, judgment)
        return VerdictBundle(Result.UNKNOWN, None, None, judgment)
    raise InvalidArtifact(
        f"expected a violation or correctness witness, got {witness.kind.value}")


# ---------------------------------------------------------------------------
# Reducer

class Reduction(NamedTuple):
    """Residual program plus the bookkeeping to map it back.

    ``origin`` maps each residual operation edge to the program edge it
    stems from; ``mid_locations`` are the helper locations inserted between
    an operation and its condition-assumption split (a residual path stuck
    there has taken an operation that the condition covers).
    """

    residual: ControlFlowAutomaton
    origin: dict
    mid_locations: frozenset


def _instantiated(cond: ArtifactAutomaton, state: str, edge: CFAEdge):
    """The target and guard of each explicit transition out of ``state`` that
    matches ``edge``, the guard instantiated on the edge (the placeholder
    bound to the variable it reads)."""
    for t in cond.explicit_from(state):
        if t.pattern.matches(edge):
            guard = t.assumption
            if t.pattern.is_input_template:
                guard = substitute_template(guard, Var(edge.op.target))
            yield t.target, guard


def _condition_moves(cond: ArtifactAutomaton, frontier: frozenset, edge: CFAEdge) -> tuple:
    """Distinct instantiated guards of condition transitions matching ``edge``,
    and a closure computing the successor frontier for one guard valuation
    (a tuple of truth values, one per guard).  A ``true`` guard is no guard:
    its move fires under every valuation."""
    guards: list = []
    moves: list = []  # (state, target, index of its guard or None)
    for q in sorted(frontier):
        for target, guard in _instantiated(cond, q, edge):
            if guard == TRUE:
                moves.append((q, target, None))
                continue
            if guard not in guards:
                guards.append(guard)
            moves.append((q, target, guards.index(guard)))

    def successor(values: tuple) -> frozenset:
        fired = {q for q, _, i in moves if i is None or values[i]}
        succ = {target for _, target, i in moves if i is None or values[i]}
        for q in frontier - fired:
            ow = cond.otherwise_at(q)
            if ow is not None:
                succ.add(ow.target)
        return frozenset(succ)

    return guards, successor


def reduce_with_origin(program: ControlFlowAutomaton,
                       cond: ArtifactAutomaton) -> Reduction:
    """Subset-construction product of program and condition.

    One worklist runs over pairs (program location, set of condition
    states); a pair gets a fresh residual location, except that the empty
    set, where the condition can never accept again, keeps the program
    location's id and copies its edges verbatim.  A successor whose state
    set contains a final condition state is pruned, because acceptance
    latches and everything beyond is covered.  Data-state dependent
    condition assumptions are compiled to assume edges: the operation runs
    into a helper location, from which one assume edge per guard valuation
    selects the matching successor.

    So the residual's complete paths, mapped back through ``origin``, are
    exactly the program's complete paths that the condition does not
    accept, and a residual path stuck at a helper location has taken an
    operation that the condition covers.
    """
    require_valid_kind(cond, AutomatonKind.CONDITION)
    fresh = itertools.count(max(program.locations, default=0) + 1)
    start = (program.initial, frozenset({cond.initial}))
    ids = {start: next(fresh)}
    worklist = [] if start[1] & cond.finals else [start]
    edges: list = []
    origin: dict = {}
    mids: set = set()

    def residual_id(location: int, frontier: frozenset) -> int:
        key = (location, frontier)
        if key not in ids:
            ids[key] = next(fresh) if frontier else location
            worklist.append(key)
        return ids[key]

    while worklist:
        location, frontier = worklist.pop()
        here = ids[(location, frontier)]
        for edge in program.edges_from(location):
            guards, successor = _condition_moves(cond, frontier, edge)
            targets = [(values, after)
                       for values in itertools.product((True, False), repeat=len(guards))
                       if not (after := successor(values)) & cond.finals]
            if not targets:
                continue  # covered from here on
            split = next(fresh) if guards else residual_id(edge.target, targets[0][1])
            produced = CFAEdge(here, edge.op, split, match_source=edge.match_src,
                               match_target=edge.match_tgt) if frontier else edge
            edges.append(produced)
            origin[produced] = edge
            if guards:
                mids.add(split)
                for values, after in targets:
                    guard = conjoin([g if v else Not(g) for g, v in zip(guards, values)])
                    edges.append(CFAEdge(split, assume_op(guard), residual_id(edge.target, after)))

    locations = {ids[start]}.union(*((e.source, e.target) for e in edges))
    residual = make_cfa(locations, ids[start], edges, program.variables)
    return Reduction(residual, origin, frozenset(mids))


def reduce(program: ControlFlowAutomaton, cond: ArtifactAutomaton) -> ControlFlowAutomaton:
    """Residual program containing exactly the behavior the condition does
    not cover: its complete paths are the uncovered complete paths (see
    :func:`reduce_with_origin` for the construction and for paths stuck at
    a helper location)."""
    return reduce_with_origin(program, cond).residual


# ---------------------------------------------------------------------------
# Conditional verifier

def _input_condition_disjuncts(cond: ArtifactAutomaton, input_edge: CFAEdge) -> list:
    """Assumptions under which the input condition accepts right after the
    first input edge."""
    out = []
    for target, guard in _instantiated(cond, cond.initial, input_edge):
        if target in cond.finals and guard not in out:
            out.append(guard)
    return out


def _output_condition(program: ControlFlowAutomaton, cond: ArtifactAutomaton,
                      residual: ControlFlowAutomaton,
                      config: AnalysisConfig) -> Optional[ArtifactAutomaton]:
    """Condition describing the inputs covered after conditional verification.

    Mirrors the two-state shape: a single accepting transition on the
    program's first input edge whose assumption unites the input condition's
    own accepting guards with the freshly verified inputs.  Only expressible
    when the program has exactly one input edge, leaving the initial
    location; otherwise no output condition is produced.

    Called once :func:`verify` proved the residual exhausted, so every
    residual path within the bounds is verified.  An input edge is enabled
    for every value of the domain, so the verified inputs are the whole
    domain when the residual still reads at its initial location, and none
    when the condition covered that edge entirely.
    """
    if cond.initial in cond.finals:
        return cond  # already covers every path; nothing to add
    input_edges = [e for e in program.edges if isinstance(e.op, InputOp)]
    if len(input_edges) != 1 or input_edges[0].source != program.initial:
        return None
    input_edge = input_edges[0]
    disjuncts = _input_condition_disjuncts(cond, input_edge)
    if any(isinstance(e.op, InputOp) for e in residual.edges_from(residual.initial)):
        x, domain = Var(input_edge.op.target), config.input_domain
        if domain.lo == domain.hi:
            disjuncts.append(Comparison("==", x, Const(domain.lo)))
        else:
            disjuncts.append(And(Comparison(">=", x, Const(domain.lo)),
                                 Comparison("<=", x, Const(domain.hi))))
    if not disjuncts:
        return None
    pattern = EdgePattern(input_edge.match_src, input_edge.op.text, input_edge.match_tgt)
    return make_automaton(
        "output_condition", AutomatonKind.CONDITION, ("c0", "c1"), "c0", ("c1",),
        (Transition("c0", "c1", pattern, disjoin(disjuncts)),))


def conditional_verify(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                       cond: ArtifactAutomaton,
                       config: AnalysisConfig = DEFAULT_CONFIG) -> VerdictBundle:
    """Verify only the behavior the condition does not already cover.

    Reduces the program by the condition and runs :func:`verify` on the
    residual, so the verdict is about the uncovered part (a returned witness
    refers to the residual program).  On success the bundle carries an output
    condition extending the input one by the freshly verified input space
    (see :func:`_output_condition`).
    """
    reduction = reduce_with_origin(program, cond)
    bundle = verify(reduction.residual, prop, config)
    condition = None
    if bundle.result is Result.TRUE:
        condition = _output_condition(program, cond, reduction.residual, config)
    return VerdictBundle(bundle.result, bundle.witness, condition, bundle.judgment)


# ---------------------------------------------------------------------------
# Test extraction, execution, generation

def extract_test(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                 witness: ArtifactAutomaton,
                 config: AnalysisConfig = DEFAULT_CONFIG) -> tuple:
    """Input sequence of a violating path admitted by the witness.

    Deterministic exploration order (smallest inputs first) makes the result
    reproducible and minimal-first.  Raises :class:`NoViolatingPath` when
    witness and property admit no common path within the config.
    """
    if witness is None:
        raise NoViolatingPath("no violation witness available")
    judgment = check_violation_witness(program, prop, witness, config)
    if judgment.verdict is not Verdict.HOLDS:
        raise NoViolatingPath(
            f"witness {witness.name} yields no violating path within {config}")
    return judgment.evidence.inputs()


STATUS_COMPLETED = "completed"
STATUS_NO_INPUT = "blocked-no-input"
STATUS_BLOCKED_ASSUME = "blocked-assume"
STATUS_STEP_LIMIT = "step-limit"


class ExecutionReport(NamedTuple):
    """Full record of one deterministic test execution."""

    trace: ConcretePath
    status: str
    consumed: int
    violation_observed: Optional[bool]

    @property
    def final_location(self) -> int:
        return self.trace.final_location

    @property
    def final_state(self) -> ConcreteDataState:
        return self.trace.final_state


def exec_test(program: ControlFlowAutomaton, test: Sequence[int],
              prop: Optional[ArtifactAutomaton] = None,
              max_steps: int = DEFAULT_MAX_STEPS) -> ExecutionReport:
    """Run the program on a fixed input sequence, first enabled edge wins.

    The run ends at a sink (completed), at an exhausted input sequence, at a
    state where every assume is false, or at the step limit.  When a property
    automaton is supplied the report also says whether it accepts the
    executed trace, i.e. whether the violation is observable.  An executed
    step that blocks a property before it accepts raises, as a judgment's
    search does (the explorer's rule, :func:`coopverify.product.first_block`);
    an automaton of another kind is only run.

    The automaton is stepped through one plan memo for the run
    (:func:`coopverify.automata.memo_step`), as the explorer of
    :mod:`coopverify.product` steps it: each step is planned once per
    (frontier, edge) of the run, for the step and the rule, and the
    plan's guards run on each post-state.
    """
    inputs = list(test)
    consumed = 0
    state, location = EMPTY_STATE, program.initial
    steps = [PathStep(state, location, None)]
    for _ in range(max_steps):
        outgoing = program.edges_from(location)
        status = STATUS_BLOCKED_ASSUME if outgoing else STATUS_COMPLETED
        bindings = state._bindings
        # its own first-enabled-edge loop, not lang.successors' step plan: a
        # run takes one edge per step, and listing every enabled edge through
        # successors made the benchmark's deep-paths median task (exec_test,
        # replay n=1000) 9.7% slower
        for edge in outgoing:
            op = edge.op
            kind = type(op)
            if kind is Assume:
                if not evaluate(op.condition, bindings):
                    continue
            elif kind is Assignment:
                state = state.bind(op.target, eval_expr(op.expr, bindings))
            elif kind is InputOp:
                if consumed == len(inputs):
                    status = STATUS_NO_INPUT  # it names the block, whatever else blocks
                    continue
                state = state.bind(op.target, inputs[consumed])
                consumed += 1
            else:
                raise TypeError(f"not an operation: {op!r}")
            location = edge.target
            steps.append(tuple.__new__(PathStep, (state, location, edge)))  # see PathStep
            break
        else:
            break  # no edge taken
    else:
        status = STATUS_STEP_LIMIT
    violation = None
    if prop is not None:
        frontier, entered = initial_frontier(prop, EMPTY_STATE)
        plans: dict = {}  # the run's memo (automata.memo_step)
        for post, _, edge in steps[1:]:
            if entered or not frontier:
                break
            if prop.watched:
                refuted = first_block(prop, plans, frontier, ((edge, post),))
                if refuted is not None:
                    raise _refusal(prop, KindReport(prop.kind, (), refuted))
            frontier, entered = memo_step(prop, plans, frontier, edge, post._bindings)
        violation = bool(entered)
    return ExecutionReport(ConcretePath(tuple(steps)), status, consumed, violation)


class TestRecord(NamedTuple):
    """One test case with its provenance."""

    inputs: tuple
    generator: str
    goals: frozenset  # FinalEntry values reached when running these inputs


@dataclass(frozen=True)
class TestSuite:
    """Test records with pairwise distinct input sequences."""

    tests: tuple

    def __post_init__(self) -> None:
        sequences = [t.inputs for t in self.tests]
        if len(sequences) != len(set(sequences)):
            raise ValueError("duplicate input sequences in test suite")

    def input_sequences(self) -> list:
        return [t.inputs for t in self.tests]

    def covered_goals(self) -> frozenset:
        out: frozenset = frozenset()
        for t in self.tests:
            out |= t.goals
        return out

    def __len__(self) -> int:
        return len(self.tests)


def generate_tests(program: ControlFlowAutomaton, goals: ArtifactAutomaton,
                   config: AnalysisConfig = DEFAULT_CONFIG) -> TestSuite:
    """Greedy goal-directed test generation.

    One test per record of the goal search
    (:func:`coopverify.engine._goal_search`): the input sequence of the
    paths it kept, each reaching a goal no earlier kept path reached, with
    the goals of every kept path that sequence runs along.  Every test
    passes :func:`coopverify.engine.check_test_covers` by construction,
    which runs the same search along the test's own paths.
    """
    require_valid_kind(goals, AutomatonKind.TEST_GOAL)
    records, _ = _goal_search(program, (goals,), config)
    return TestSuite(tuple(TestRecord(inputs, "generate_tests", reached)
                           for inputs, (_, reached) in records.items()))
