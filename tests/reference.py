"""The reference machinery the library is tested against.

Each piece here decides by brute force what the library decides with the
product explorer of ``coopverify.product`` and the automaton step of
``coopverify.automata``, and runs neither of them: paths come from plain
enumeration (``coopverify.lang.enumerate_paths``) and are replayed one
operation at a time by :func:`strongest_post`, and automaton runs are
enumerated one by one with :func:`reference_taken`, which reads the step's
contract off the ``coopverify.automata`` docstring and evaluates on the
tree-walking ``corpus.reference_evaluate``.  The layers of
:func:`reference_layers` and the paths of :func:`budgeted_paths` take the
program's steps from :func:`reference_successors`, on
:func:`strongest_post`, not from ``coopverify.lang.successors``, and
step each automaton the same way.  A differential test would confirm itself if its
oracle ran on the engine, so ``test_engine.py::TestOracle`` pins that this
module imports none of it.
"""

from __future__ import annotations

import re
import weakref
from typing import Optional, Sequence

from corpus import reference_eval_expr, reference_evaluate
from coopverify.actors import reduce_with_origin
from coopverify.automata import ArtifactAutomaton, AutomatonKind, FinalEntry, MatchVerdict
from coopverify.engine import DEFAULT_CONFIG, AnalysisConfig
from coopverify.errors import CoopVerifyError
from coopverify.lang import (
    EMPTY_STATE,
    Assignment,
    Assume,
    ConcreteDataState,
    ConcretePath,
    ControlFlowAutomaton,
    EnumerationResult,
    InputOp,
    Operation,
    PathStep,
    enumerate_paths,
    op_reads,
    op_writes,
)
from coopverify.predicates import TRUE, pred_text


# ---------------------------------------------------------------------------
# Paths

BLOCKED = object()  # returned by strongest_post when an assume does not hold


def strongest_post(state: ConcreteDataState, op: Operation,
                   input_choice: Optional[int] = None):
    """Apply one operation to a data state, on the tree-walking evaluator.

    Returns the successor state, or ``BLOCKED`` for an unsatisfied assume.
    ``input_choice`` supplies the nondeterministically read value and is
    required exactly for input operations.
    """
    if isinstance(op, InputOp):
        if input_choice is None:
            raise ValueError("input operation needs an input_choice")
        return state.bind(op.target, input_choice)
    if input_choice is not None:
        raise ValueError("input_choice given for a non-input operation")
    if isinstance(op, Assignment):
        return state.bind(op.target, reference_eval_expr(op.expr, state))
    if isinstance(op, Assume):
        return state if reference_evaluate(op.condition, state) else BLOCKED
    raise TypeError(f"not an operation: {op!r}")


def reference_successors(cfa: ControlFlowAutomaton, state: ConcreteDataState, location: int,
                         domain) -> list:
    """The enabled (edge, post-state) pairs of ``lang.successors``' contract,
    by :func:`strongest_post`: each edge of ``cfa.edges_from(location)`` in
    order, an input edge once per domain value from ``domain.lo`` up, any
    other edge where its operation applies."""
    result = []
    for edge in cfa.edges_from(location):
        if isinstance(edge.op, InputOp):
            result.extend((edge, strongest_post(state, edge.op, value))
                          for value in range(domain.lo, domain.hi + 1))
        else:
            post = strongest_post(state, edge.op)
            if post is not BLOCKED:
                result.append((edge, post))
    return result


def replay_path(cfa: ControlFlowAutomaton, path: ConcretePath) -> bool:
    """Check that a path is a genuine execution of ``cfa`` step by step."""
    first = path.steps[0]
    if first.location != cfa.initial or first.incoming is not None or len(first.state) != 0:
        return False
    for prev, step in zip(path.steps, path.steps[1:]):
        edge = step.incoming
        if edge is None or edge not in cfa.edges_from(prev.location) or edge.target != step.location:
            return False
        choice = step.state[edge.op.target] if isinstance(edge.op, InputOp) else None
        if strongest_post(prev.state, edge.op, choice) != step.state:
            return False
    return True


def reference_exec(cfa: ControlFlowAutomaton, test: Sequence[int], max_steps: int) -> tuple:
    """(trace, status, consumed inputs) of ``actors.exec_test``, run by
    ``strongest_post``: at each location the first edge in order whose
    operation applies wins, an input edge applying only while inputs
    remain.  The run ends at a location without edges (completed), at one
    where no edge applies (blocked-no-input when an input edge was starved
    there, else blocked-assume), or after ``max_steps`` steps (step-limit)."""
    steps = [PathStep(EMPTY_STATE, cfa.initial, None)]
    consumed = 0
    while len(steps) <= max_steps:
        last = steps[-1]
        outgoing = cfa.edges_from(last.location)
        if not outgoing:
            return ConcretePath(tuple(steps)), "completed", consumed
        starved = False
        for edge in outgoing:
            if isinstance(edge.op, InputOp):
                if consumed == len(test):
                    starved = True
                    continue
                post = strongest_post(last.state, edge.op, test[consumed])
                consumed += 1
            else:
                post = strongest_post(last.state, edge.op)
            if post is not BLOCKED:
                steps.append(PathStep(post, edge.target, edge))
                break
        else:
            status = "blocked-no-input" if starved else "blocked-assume"
            return ConcretePath(tuple(steps)), status, consumed
    return ConcretePath(tuple(steps)), "step-limit", consumed


def definitely_assigned(cfa: ControlFlowAutomaton) -> dict:
    """For each location, the variables assigned on every path reaching it.

    A conservative forward must-analysis: the initial location has nothing
    assigned, joins intersect.  Locations no path reaches keep every
    variable of ``cfa.variables``.
    """
    assigned = {loc: set(cfa.variables) for loc in cfa.locations}
    assigned[cfa.initial] = set()
    changed = True
    while changed:
        changed = False
        for edge in cfa.edges:
            if edge.target == cfa.initial:
                continue
            out = assigned[edge.source] | op_writes(edge.op)
            new = assigned[edge.target] & out
            if new != assigned[edge.target]:
                assigned[edge.target] = new
                changed = True
    return {loc: frozenset(vars_) for loc, vars_ in assigned.items()}


def reference_use_before_def(cfa: ControlFlowAutomaton) -> Optional[tuple]:
    """(variable, location) of the first read, in edge order and then in
    sorted name order, of a variable not definitely assigned at the edge's
    source, or None: what ``lang.check_defined_before_use`` raises."""
    assigned = definitely_assigned(cfa)
    for edge in cfa.edges:
        for name in sorted(op_reads(edge.op)):
            if name not in assigned[edge.source]:
                return name, edge.source
    return None


# (id(program), input domain, step bound) -> the program's enumeration.  An
# entry goes when its program is collected, before the id can name another
# one, and conftest.py empties the store after every test.
_ENUMERATIONS: dict = {}


def enumerated(program: ControlFlowAutomaton, config: AnalysisConfig, cut: bool = False):
    """``enumerate_paths`` of ``program`` within ``config``, enumerated once
    per test: the oracle checks several judgments on one program, each at
    the same domain and step bound.  With ``cut``, the paths also take in
    every prefix the step bound cut (see :func:`budgeted_paths`)."""
    key = (id(program), config.input_domain, config.max_steps, cut)
    result = _ENUMERATIONS.get(key)
    if result is None:
        if cut:
            paths = budgeted_paths(program, config.input_domain, config.max_steps,
                                   ORACLE_BUDGET, cut=True)
            result = EnumerationResult(paths, enumerated(program, config).truncated)
        else:
            result = enumerate_paths(program, config.input_domain, config.max_steps)
        _ENUMERATIONS[key] = result
        weakref.finalize(program, _ENUMERATIONS.pop, key, None)
    return result


def forget_enumerations() -> None:
    _ENUMERATIONS.clear()


def budgeted_paths(program: ControlFlowAutomaton, domain, max_steps: int, budget: int,
                   cut: bool = False) -> tuple:
    """The paths of ``enumerate_paths(program, domain, max_steps)``, in its
    order, or :class:`OracleBudgetExceeded` once the enumeration has taken
    more than ``budget`` steps: on a branching program the paths within a
    wide step bound outgrow any memory long before they end.  With ``cut``,
    each prefix of ``max_steps`` steps that could go on is kept too."""
    paths = []
    trail: list = []
    stack = [(0, PathStep(EMPTY_STATE, program.initial, None))]
    while stack:
        budget -= 1
        if budget < 0:
            raise OracleBudgetExceeded("path enumeration exceeded its step budget")
        depth, step = stack.pop()
        del trail[depth:]
        trail.append(step)
        succs = reference_successors(program, step.state, step.location, domain)
        if not succs or (cut and depth >= max_steps):
            paths.append(ConcretePath(tuple(trail)))
        elif depth < max_steps:
            stack.extend((depth + 1, PathStep(post, edge.target, edge))
                         for edge, post in reversed(succs))
    return tuple(paths)


# ---------------------------------------------------------------------------
# Automaton runs

def _pattern_matches(pattern, edge) -> bool:
    if pattern.source is not None and pattern.source != edge.match_src:
        return False
    if pattern.target is not None and pattern.target != edge.match_tgt:
        return False
    if pattern.op_text is None:
        return True
    text = re.sub(r"\s+", "", pattern.op_text)
    if text == "chi=input()":
        return isinstance(edge.op, InputOp)
    return text == re.sub(r"\s+", "", edge.op.text)


def reference_taken(aut: ArtifactAutomaton, state: str, edge, state_after) -> list:
    """The transitions a run in ``state`` takes on (edge, post-state): the
    explicit transitions that match the edge and whose assumption holds
    fire, or else the otherwise transition (never on an input edge of a
    test case); a fired transition is taken when its target's invariant
    holds.  The placeholder stands for the edge's input variable in the
    assumption and invariant of an input-template transition only."""
    read = edge.op.target if isinstance(edge.op, InputOp) else None
    fired = []
    for t in aut.transitions:
        if t.source != state or t.otherwise or not _pattern_matches(t.pattern, edge):
            continue
        chi = read if re.sub(r"\s+", "", t.pattern.op_text or "") == "chi=input()" else None
        if reference_evaluate(t.assumption, state_after, chi):
            fired.append((t, chi))
    if not fired and not (read is not None and aut.kind is AutomatonKind.TEST_CASE):
        fired = [(t, None) for t in aut.transitions if t.source == state and t.otherwise]
    return [t for t, chi in fired
            if reference_evaluate(aut.invariants.get(t.target, TRUE), state_after, chi)]


def reference_step(aut: ArtifactAutomaton, frontier, edge, state_after) -> tuple:
    """The successor frontier and the final entries of one step, state by
    state in sorted order: the contract of ``automata.step_frontier``."""
    succ, entries = set(), set()
    for q in sorted(frontier):
        for t in reference_taken(aut, q, edge, state_after):
            succ.add(t.target)
            if t.target in aut.finals:
                entries.add(FinalEntry(t, t.target))
    return frozenset(succ), frozenset(entries)


def reference_start(aut: ArtifactAutomaton, state) -> tuple:
    """The frontier and final entries of the empty prefix: the initial state
    when its invariant holds on ``state``, entered if it is final."""
    if not reference_evaluate(aut.invariants.get(aut.initial, TRUE), state):
        return frozenset(), frozenset()
    entries = {FinalEntry(None, aut.initial)} if aut.initial in aut.finals else set()
    return frozenset({aut.initial}), frozenset(entries)


def reference_layers(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
                     config: AnalysisConfig) -> list:
    """For each length d from 0 to ``config.max_steps``, the product
    configurations (location, data state, frontiers, final entries) that
    some prefix of exactly d steps reaches: breadth-first images over whole
    data states, each automaton advanced by :func:`reference_step`.  No
    variable is left out, and no order or memo of the explorer is used: a
    configuration's successors and each automaton's step over them are
    kept per (location, whole data state)."""
    started = [reference_start(a, EMPTY_STATE) for a in automata]
    layer = {(program.initial, EMPTY_STATE, tuple(fr for fr, _ in started),
              tuple(en for _, en in started))}
    layers = [layer]
    expansions: dict = {}  # (location, state) -> [(edge, post, {(index, frontier): step})]
    for _ in range(config.max_steps):
        image = set()
        for location, state, frontiers, entries in layer:
            moves = expansions.get((location, state))
            if moves is None:
                moves = expansions[location, state] = [
                    (edge, post, {})
                    for edge, post in reference_successors(program, state, location,
                                                           config.input_domain)]
            for edge, post, steps in moves:
                stepped = []
                for i, fr in enumerate(frontiers):
                    if (i, fr) not in steps:
                        steps[i, fr] = reference_step(automata[i], fr, edge, post)
                    stepped.append(steps[i, fr])
                image.add((edge.target, post, tuple(fr for fr, _ in stepped),
                           tuple(en | new for en, (_, new) in zip(entries, stepped))))
        layers.append(image)
        layer = image
    return layers


def all_runs(aut: ArtifactAutomaton, path: ConcretePath) -> list:
    """Every run of the automaton on the path, by brute-force enumeration.

    Exponential in the automaton's nondeterminism, fine for desk-sized
    inputs.  Runs are tuples ``((None, q0), (t1, q1), ...)``; every
    prefix-consuming run is itself included (runs may stop at any point).
    """
    if not reference_evaluate(aut.invariants.get(aut.initial, TRUE), path.steps[0].state):
        return []
    runs: list = []

    def extend(i: int, state: str, sofar: list) -> None:
        runs.append(tuple(sofar))
        if i >= len(path.steps) - 1:
            return
        step = path.steps[i + 1]
        for t in reference_taken(aut, state, step.incoming, step.state):
            sofar.append((t, t.target))
            extend(i + 1, t.target, sofar)
            sofar.pop()

    extend(0, aut.initial, [(None, aut.initial)])
    return runs


def reference_blocks(aut: ArtifactAutomaton, program: ControlFlowAutomaton,
                     config: AnalysisConfig) -> set:
    """Every (state, edge, post-state) at which some run of ``aut``, on some
    path of the program within the bounds, sits in a non-final state and
    takes no transition on the path's next step: the blocks the
    non-blocking check of ``coopverify.kinds`` must find one of."""
    blocks = set()
    for path in enumerated(program, config).paths:
        for run in all_runs(aut, path):
            consumed, state = len(run) - 1, run[-1][1]
            if state in aut.finals or consumed == path.length:
                continue
            step = path.steps[consumed + 1]
            if not reference_taken(aut, state, step.incoming, step.state):
                blocks.add((state, step.incoming, step.state))
    return blocks


def reference_trace_block(aut: ArtifactAutomaton, path: ConcretePath) -> Optional[tuple]:
    """The first (state, edge, post-state) on ``path`` at which a state of
    ``aut`` that is neither final nor has an otherwise transition, reached
    by the prefix so far, takes no transition on the next step, before any
    run accepts; states of one step in sorted order.  None when there is
    none: what ``actors.exec_test`` refuses a property for."""
    watched = {q for q in aut.states if q not in aut.finals} - {
        t.source for t in aut.transitions if t.otherwise}
    frontier, entries = reference_start(aut, path.steps[0].state)
    for step in path.steps[1:]:
        if entries:
            return None
        for q in sorted(frontier & watched):
            if not reference_taken(aut, q, step.incoming, step.state):
                return q, step.incoming, step.state
        frontier, entries = reference_step(aut, frontier, step.incoming, step.state)
    return None


def naive_match_path(aut: ArtifactAutomaton, path: ConcretePath) -> MatchVerdict:
    """The verdict of ``automata.match_path``, derived from run enumeration."""
    runs = all_runs(aut, path)
    if not runs:
        return MatchVerdict(None, False, False)
    return MatchVerdict(max(len(run) - 1 for run in runs),
                        any(run[-1][1] in aut.finals for run in runs),
                        any(len(run) - 1 == path.length for run in runs))


# ---------------------------------------------------------------------------
# The brute-force oracle

ORACLE_BUDGET = 1_000_000


class OracleBudgetExceeded(CoopVerifyError):
    """The brute-force oracle hit its path-step budget."""


def brute_force_oracle(program: ControlFlowAutomaton,
                       automata: Sequence[ArtifactAutomaton],
                       modes: Sequence[str],
                       config: AnalysisConfig = DEFAULT_CONFIG, cut: bool = False) -> frozenset:
    """All complete program paths satisfying the per-automaton requirement.

    Enumerates every path outright (once per program, domain and step bound
    in a test: :func:`enumerated`), then decides each automaton's
    requirement (``accept`` or ``cover``) with :func:`naive_match_path`.
    The five judgments of ``coopverify.engine`` are tested against it.
    A step bound that cuts a path raises :class:`OracleBudgetExceeded`,
    unless ``cut`` is set: then each prefix the bound cut is a path too,
    and the paths kept with ``accept`` are the hits within the bound, which
    the explorer must find whether or not it truncates.
    """
    if len(automata) != len(modes):
        raise ValueError("one mode per automaton required")
    for mode in modes:
        if mode not in ("accept", "cover"):
            raise ValueError(f"unknown mode {mode!r}")
    result = enumerated(program, config, cut)
    if result.truncated and not cut:
        raise OracleBudgetExceeded("path enumeration was truncated by the step bound")
    total_steps = sum(path.length for path in result.paths)
    if total_steps > ORACLE_BUDGET:
        raise OracleBudgetExceeded(
            f"{total_steps} path-steps exceed the oracle budget of {ORACLE_BUDGET}")
    selected = []
    for path in result.paths:
        keep = True
        for aut, mode in zip(automata, modes):
            verdict = naive_match_path(aut, path)
            if not (verdict.accepted if mode == "accept" else verdict.covered):
                keep = False
                break
        if keep:
            selected.append(path)
    return frozenset(selected)


# ---------------------------------------------------------------------------
# Reducer comparison.  The reducer's contract: the residual's complete paths,
# mapped back to original operations, are exactly the program's complete
# paths that the condition does not accept, and a residual path stuck at a
# helper location has taken an operation that the condition covers (its
# continuation was cut), so the condition accepts it with that operation.
# Criterion 5 also compares both sides as prefix-closed sets of (original
# edge, data state) sequences; that holds on the sample programs and
# conditions only, since a residual path stuck after an uncovered prefix
# keeps that prefix although no uncovered complete path may extend it.

def residual_program_path(reduction, program: ControlFlowAutomaton,
                          path: ConcretePath) -> ConcretePath:
    """The program path a path of ``reduction.residual`` stands for: its
    operations mapped back through ``reduction.origin``, inserted assume
    edges dropped, a trailing operation into a helper location kept."""
    steps = [PathStep(EMPTY_STATE, program.initial, None)]
    for step in path.steps[1:]:
        edge = reduction.origin.get(step.incoming)
        if edge is not None:
            steps.append(PathStep(step.state, edge.target, edge))
    return ConcretePath(tuple(steps))


def project_residual_path(reduction, path: ConcretePath) -> tuple:
    """Map a path of ``reduction.residual`` back to program operations.

    Returns the sequence of (original edge, post-state) pairs; inserted
    assume edges disappear, and a trailing operation into a helper location
    (its valuation not yet taken) is dropped: the condition covers it (see
    :func:`residual_program_path` for the path with it kept).
    """
    items = []
    for step in path.steps[1:]:
        edge = step.incoming
        if edge in reduction.origin:
            items.append((reduction.origin[edge], step.state))
    if path.final_location in reduction.mid_locations and items:
        items.pop()
    return tuple(items)


def prefix_closure(sequences) -> set:
    """All nonempty prefixes of the given (edge, state) sequences."""
    out = set()
    for seq in sequences:
        hashable = tuple((edge, tuple(sorted(state.items()))) for edge, state in seq)
        for i in range(1, len(hashable) + 1):
            out.add(hashable[:i])
    return out


def residual_prefixes(program, cond, config) -> set:
    reduction = reduce_with_origin(program, cond)
    result = enumerate_paths(reduction.residual, config.input_domain, config.max_steps)
    assert not result.truncated
    return prefix_closure(project_residual_path(reduction, path) for path in result.paths)


def uncovered_prefixes(program, cond, config) -> set:
    result = enumerated(program, config)
    assert not result.truncated
    return prefix_closure([(step.incoming, step.state) for step in path.steps[1:]]
                          for path in result.paths
                          if not naive_match_path(cond, path).accepted)


# ---------------------------------------------------------------------------
# Artifact text and the transition index, rebuilt on every call.  The
# library renders a pattern's text once and indexes transitions in one pass;
# these format and gather field by field, as the text format reads.

def reference_pattern_text(pattern) -> str:
    src = "*" if pattern.source is None else str(pattern.source)
    tgt = "*" if pattern.target is None else str(pattern.target)
    op = "*" if pattern.op_text is None else f'"{pattern.op_text}"'
    return f"({src}, {op}, {tgt})"


def reference_transition_text(t) -> str:
    if t.otherwise:
        return f"{t.source} -> {t.target} otherwise"
    text = f"{t.source} -> {t.target} on {reference_pattern_text(t.pattern)}"
    if t.assumption != TRUE:
        text += f" assume {pred_text(t.assumption)}"
    return text


def reference_serialize(aut: ArtifactAutomaton) -> str:
    lines = [f"automaton {aut.name} kind={aut.kind.value}"]
    for state in aut.states:
        parts = [f"state {state}"]
        if state == aut.initial:
            parts.append("init")
        if state in aut.finals:
            parts.append("final")
        line = " ".join(parts)
        if state in aut.invariants:
            line += f" inv: {pred_text(aut.invariants[state])}"
        lines.append(line)
    lines.extend(f"trans {reference_transition_text(t)}" for t in aut.transitions)
    return "\n".join(lines) + "\n"


def reference_moves(aut: ArtifactAutomaton, state: str) -> tuple:
    """The explicit transitions out of ``state`` in file order, and its
    otherwise transition or None, by a scan of every transition."""
    explicit = tuple(t for t in aut.transitions if t.source == state and not t.otherwise)
    otherwise = [t for t in aut.transitions if t.source == state and t.otherwise]
    return explicit, (otherwise[0] if otherwise else None)
