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
from typing import Optional, Sequence

from .automata import (
    ArtifactAutomaton,
    AutomatonKind,
    EdgePattern,
    Transition,
    make_automaton,
    match_path,
)
from .engine import (
    DEFAULT_CONFIG,
    AnalysisConfig,
    Judgment,
    ProductVisit,
    Verdict,
    VisitAction,
    _property_accepts,
    _search,
    _uncovered_or_accepted,
    _verdict,
    check_violation_witness,
    require_valid_kind,
    run_product,
)
from .errors import InvalidArtifact, NoViolatingPath
from .kinds import validate_kind
from .lang import (
    CFAEdge,
    ConcreteDataState,
    ConcretePath,
    ControlFlowAutomaton,
    EMPTY_STATE,
    InputOp,
    PathStep,
    assume_op,
    make_cfa,
    strongest_post,
    BLOCKED,
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
    substitute_template,
)


class Result(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VerdictBundle:
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
    config: AnalysisConfig
    judgment: Judgment


# ---------------------------------------------------------------------------
# Witness synthesis

def violation_witness_from_path(path: ConcretePath,
                                name: str = "violation_witness") -> ArtifactAutomaton:
    """A single-path violation witness mirroring one concrete path.

    One state per path step; each transition consumes exactly the step's edge
    and, on input edges, pins the read value (`x == v`), so replaying the
    witness forces the same inputs.
    """
    states = [f"w{i}" for i in range(path.length + 1)]
    transitions = []
    for i, step in enumerate(path.steps[1:]):
        edge = step.incoming
        pattern = EdgePattern(edge.match_src, edge.op.text, edge.match_tgt)
        assumption = TRUE
        if isinstance(edge.op, InputOp):
            assumption = Comparison("==", Var(edge.op.target),
                                    Const(step.state[edge.op.target]))
        transitions.append(Transition(states[i], states[i + 1], pattern, assumption))
    return make_automaton(name, AutomatonKind.VIOLATION_WITNESS, states, states[0],
                          (states[-1],), transitions)


def _location_facts(observed: Sequence[ConcreteDataState]) -> Predicate:
    """Conjunction of equality and interval facts true in every observed state."""
    common = sorted(set.intersection(*(set(s) for s in observed)))
    facts: list = []
    for u, v in itertools.combinations(common, 2):
        if all(s[u] == s[v] for s in observed):
            facts.append(Comparison("==", Var(u), Var(v)))
    for v in common:
        lo = min(s[v] for s in observed)
        hi = max(s[v] for s in observed)
        if lo == hi:
            facts.append(Comparison("==", Var(v), Const(lo)))
        else:
            facts.append(Comparison(">=", Var(v), Const(lo)))
            facts.append(Comparison("<=", Var(v), Const(hi)))
    return conjoin(facts)


def correctness_witness_from_observations(program: ControlFlowAutomaton,
                                          observed: dict,
                                          name: str = "correctness_witness") -> ArtifactAutomaton:
    """A correctness witness mirroring the program's locations.

    One state per location whose invariant conjoins the facts holding in all
    states observed there during exploration (``true`` for unvisited
    locations); transitions mirror the edges with trivial assumptions, so the
    witness covers every path the exploration covered.
    """
    def state_name(location: int) -> str:
        return f"s{location}"

    locations = sorted(program.locations)
    invariants = {}
    for location in locations:
        states = observed.get(location)
        if states:
            invariants[state_name(location)] = _location_facts(states)
    transitions = [
        Transition(state_name(e.source), state_name(e.target),
                   EdgePattern(e.match_src, e.op.text, e.match_tgt), TRUE)
        for e in program.edges
    ]
    return make_automaton(name, AutomatonKind.CORRECTNESS_WITNESS,
                          [state_name(l) for l in locations],
                          state_name(program.initial), (), transitions, invariants)


# ---------------------------------------------------------------------------
# Verifier

def verify(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
           config: AnalysisConfig = DEFAULT_CONFIG) -> VerdictBundle:
    """Decide whether the program fulfills the property, with a witness.

    Runs the search of :func:`check_fulfills` while recording the data
    states explored per location.  On violation the evidence path becomes a
    single-path violation witness; on success the recorded states become
    correctness-witness invariants.  One exploration decides the verdict
    and yields the witness.
    """
    require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
    observed: dict = defaultdict(list)
    evidence, truncated = _search(program, (prop,), config, _property_accepts,
                                  observed=observed)
    judgment = _verdict(config, evidence, truncated, universal=True)
    if judgment.verdict is Verdict.UNKNOWN:
        return VerdictBundle(Result.UNKNOWN, None, None, config, judgment)
    if evidence is not None:
        result, witness = Result.FALSE, violation_witness_from_path(evidence)
    else:
        result, witness = Result.TRUE, correctness_witness_from_observations(program, observed)
    return VerdictBundle(result, witness, None, config, judgment)


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
            rederived = violation_witness_from_path(judgment.evidence)
            return VerdictBundle(Result.FALSE, rederived, None, config, judgment)
        return VerdictBundle(Result.UNKNOWN, None, None, config, judgment)
    if witness.kind is AutomatonKind.CORRECTNESS_WITNESS:
        require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
        require_valid_kind(witness, AutomatonKind.CORRECTNESS_WITNESS, program, config)
        observed: dict = defaultdict(list)
        judgment = _verdict(config, *_search(program, (prop, witness), config,
                                             _uncovered_or_accepted, observed=observed),
                            universal=True)
        if judgment.verdict is Verdict.HOLDS:
            rederived = correctness_witness_from_observations(program, observed)
            return VerdictBundle(Result.TRUE, rederived, None, config, judgment)
        return VerdictBundle(Result.UNKNOWN, None, None, config, judgment)
    raise InvalidArtifact(
        f"expected a violation or correctness witness, got {witness.kind.value}")


# ---------------------------------------------------------------------------
# Reducer

@dataclass(frozen=True)
class Reduction:
    """Residual program plus the bookkeeping to map it back.

    ``origin`` maps each residual operation edge to the program edge it
    stems from; ``mid_locations`` are the helper locations inserted between
    an operation and its condition-assumption split (a residual path ending
    there has consumed an operation whose continuation was not chosen yet).
    """

    residual: ControlFlowAutomaton
    origin: dict
    mid_locations: frozenset


def _condition_moves(cond: ArtifactAutomaton, frontier: frozenset, edge: CFAEdge) -> tuple:
    """Distinct instantiated guards of condition transitions matching ``edge``,
    and a closure computing the successor frontier for one guard valuation."""
    matching: dict = {}
    guards: list = []
    for q in sorted(frontier):
        for t in cond.explicit_from(q):
            if t.pattern.matches(edge):
                guard = t.assumption
                if t.pattern.is_input_template:
                    guard = substitute_template(guard, Var(edge.op.target))
                if guard not in guards:
                    guards.append(guard)
                matching.setdefault(q, []).append((t, guard))

    def successor(valuation: dict) -> frozenset:
        succ = set()
        for q in frontier:
            fired = False
            for t, guard in matching.get(q, ()):
                if valuation[guard]:
                    succ.add(t.target)
                    fired = True
            ow = cond.otherwise_at(q)
            if ow is not None and not fired:
                succ.add(ow.target)
        return frozenset(succ)

    return guards, successor


def reduce_with_origin(program: ControlFlowAutomaton,
                       cond: ArtifactAutomaton) -> Reduction:
    """Subset-construction product of program and condition.

    Residual locations are (program location, set of condition states); a
    successor whose state set contains a final condition state is pruned,
    because acceptance latches and everything beyond is covered.  Data-state
    dependent condition assumptions are compiled to assume edges: the
    operation runs into a helper location, from which one assume edge per
    guard valuation selects the matching successor.  An empty state set means
    the condition can never accept again, so the rest is copied verbatim
    under its original location ids.
    """
    report = validate_kind(cond, program, None)
    if cond.kind is not AutomatonKind.CONDITION or not report.ok:
        raise InvalidArtifact(
            f"reduce needs a kind-valid condition automaton, got {cond.kind.value}:\n{report}",
            report)

    next_id = max(program.locations, default=0) + 1

    def fresh() -> int:
        nonlocal next_id
        value = next_id
        next_id += 1
        return value

    product_ids: dict = {}
    locations: set = set()
    edges: list = []
    origin: dict = {}
    mids: set = set()
    copied: set = set()

    def product_id(location: int, frontier: frozenset) -> int:
        if not frontier:
            return location
        key = (location, frontier)
        if key not in product_ids:
            product_ids[key] = fresh()
        return product_ids[key]

    def copy_plain(location: int) -> None:
        """Copy the untouched part of the program reachable from ``location``."""
        stack = [location]
        while stack:
            here = stack.pop()
            if here in copied:
                continue
            copied.add(here)
            locations.add(here)
            for edge in program.edges_from(here):
                edges.append(edge)
                origin[edge] = edge
                stack.append(edge.target)

    initial_frontier = frozenset({cond.initial})
    initial_id = product_id(program.initial, initial_frontier)
    locations.add(initial_id)
    if not initial_frontier & cond.finals:
        worklist = [(program.initial, initial_frontier)]
        seen = {(program.initial, initial_frontier)}
        while worklist:
            location, frontier = worklist.pop()
            here = product_id(location, frontier)
            for edge in program.edges_from(location):
                guards, successor = _condition_moves(cond, frontier, edge)
                targets = []
                for values in itertools.product((True, False), repeat=len(guards)):
                    valuation = dict(zip(guards, values))
                    next_frontier = successor(valuation)
                    if next_frontier & cond.finals:
                        continue  # covered from here on
                    guard = conjoin([g if valuation[g] else Not(g) for g in guards])
                    targets.append((guard, next_frontier))
                if not targets:
                    continue
                if not guards:
                    (_, next_frontier), = targets
                    _emit_product_edge(edge, here, product_id(edge.target, next_frontier),
                                       edges, origin, locations)
                    _schedule(edge.target, next_frontier, seen, worklist, copy_plain)
                    continue
                mid = fresh()
                mids.add(mid)
                locations.add(mid)
                _emit_product_edge(edge, here, mid, edges, origin, locations)
                for guard, next_frontier in targets:
                    target_id = product_id(edge.target, next_frontier)
                    locations.add(target_id)
                    edges.append(CFAEdge(mid, assume_op(guard), target_id))
                    _schedule(edge.target, next_frontier, seen, worklist, copy_plain)

    residual = make_cfa(locations, initial_id, edges, program.variables)
    return Reduction(residual, origin, frozenset(mids))


def _emit_product_edge(edge: CFAEdge, source: int, target: int,
                       edges: list, origin: dict, locations: set) -> None:
    produced = CFAEdge(source, edge.op, target,
                       match_source=edge.match_src, match_target=edge.match_tgt)
    edges.append(produced)
    origin[produced] = edge
    locations.add(source)
    locations.add(target)


def _schedule(location: int, frontier: frozenset, seen: set, worklist: list,
              copy_plain) -> None:
    if not frontier:
        copy_plain(location)
        return
    key = (location, frontier)
    if key not in seen:
        seen.add(key)
        worklist.append(key)


def reduce(program: ControlFlowAutomaton, cond: ArtifactAutomaton) -> ControlFlowAutomaton:
    """Residual program containing exactly the behavior the condition does
    not cover (see :func:`reduce_with_origin` for the construction)."""
    return reduce_with_origin(program, cond).residual


# ---------------------------------------------------------------------------
# Conditional verifier

def _input_condition_disjuncts(cond: ArtifactAutomaton, input_edge: CFAEdge) -> list:
    """Assumptions under which the input condition accepts right after the
    first input edge."""
    out = []
    for t in cond.explicit_from(cond.initial):
        if t.target in cond.finals and t.pattern.matches(input_edge):
            guard = t.assumption
            if t.pattern.is_input_template:
                guard = substitute_template(guard, Var(input_edge.op.target))
            if guard not in out:
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
    return VerdictBundle(bundle.result, bundle.witness, condition, config,
                         bundle.judgment)


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
    return tuple(judgment.evidence.inputs())


STATUS_COMPLETED = "completed"
STATUS_NO_INPUT = "blocked-no-input"
STATUS_BLOCKED_ASSUME = "blocked-assume"
STATUS_STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class ExecutionReport:
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
              max_steps: int = 500) -> ExecutionReport:
    """Run the program on a fixed input sequence, first enabled edge wins.

    The run ends at a sink (completed), at an exhausted input sequence, at a
    state where every assume is false, or at the step limit.  When a property
    automaton is supplied the report also says whether it accepts the
    executed trace, i.e. whether the violation is observable.
    """
    inputs = list(test)
    consumed = 0
    steps = [PathStep(EMPTY_STATE, program.initial, None)]
    status = STATUS_COMPLETED
    for _ in range(max_steps):
        state = steps[-1].state
        outgoing = program.edges_from(steps[-1].location)
        if not outgoing:
            status = STATUS_COMPLETED
            break
        taken = None
        saw_starved_input = False
        for edge in outgoing:
            if isinstance(edge.op, InputOp):
                if consumed < len(inputs):
                    post = strongest_post(state, edge.op, inputs[consumed])
                    taken = (edge, post, True)
                    break
                saw_starved_input = True
                continue
            post = strongest_post(state, edge.op)
            if post is BLOCKED:
                continue
            taken = (edge, post, False)
            break
        if taken is None:
            status = STATUS_NO_INPUT if saw_starved_input else STATUS_BLOCKED_ASSUME
            break
        edge, post, used_input = taken
        if used_input:
            consumed += 1
        steps.append(PathStep(post, edge.target, edge))
    else:
        status = STATUS_STEP_LIMIT
    path = ConcretePath(tuple(steps))
    violation = None
    if prop is not None:
        violation = match_path(prop, path).accepted
    return ExecutionReport(path, status, consumed, violation)


@dataclass(frozen=True)
class TestRecord:
    """One test case with its provenance."""

    inputs: tuple
    generator: str
    goals: frozenset  # FinalEntry values reached when running these inputs


@dataclass(frozen=True)
class TestSuite:
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

    Explores all complete paths, records the input sequence and reached
    goals of every path the goal automaton accepts, and keeps a test exactly
    when it reaches a goal no earlier test reached.  Every kept test passes
    check_test_covers by construction.
    """
    require_valid_kind(goals, AutomatonKind.TEST_GOAL, program, config)
    candidates: list = []

    def visit(v: ProductVisit) -> VisitAction:
        if v.is_maximal and v.final_entries[0]:
            candidates.append((tuple(v.path.inputs()), frozenset(v.final_entries[0])))
        return VisitAction.CONTINUE

    run_product(program, (goals,), config, visit)
    covered: set = set()
    kept: list = []
    for inputs, reached in candidates:
        new = reached - covered
        if new:
            covered.update(reached)
            kept.append(TestRecord(inputs, "generate_tests", reached))
    return TestSuite(tuple(kept))
