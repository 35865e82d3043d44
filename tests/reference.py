"""The reference machinery the library is tested against.

Each piece here decides by brute force what the library decides with the
product explorer of ``coopverify.product`` and the automaton step of
``coopverify.automata``, and runs neither of them: paths come from plain
enumeration (``coopverify.lang.enumerate_paths``), and automaton runs are
enumerated one by one with :func:`reference_taken`, which reads the step's
contract off the ``coopverify.automata`` docstring and evaluates on the
tree-walking ``corpus.reference_evaluate``.  A differential test would
confirm itself if its oracle ran on the engine, so
``test_engine.py::TestOracle`` pins that this module imports none of it.
"""

from __future__ import annotations

import re
from typing import Sequence

from corpus import reference_evaluate
from coopverify.actors import reduce_with_origin
from coopverify.automata import ArtifactAutomaton, AutomatonKind, FinalEntry, MatchVerdict
from coopverify.engine import DEFAULT_CONFIG, AnalysisConfig
from coopverify.errors import CoopVerifyError
from coopverify.lang import (
    ConcretePath,
    ControlFlowAutomaton,
    InputOp,
    enumerate_paths,
    strongest_post,
)
from coopverify.predicates import TRUE


# ---------------------------------------------------------------------------
# Paths

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
    for path in enumerate_paths(program, config.input_domain, config.max_steps).paths:
        for run in all_runs(aut, path):
            consumed, state = len(run) - 1, run[-1][1]
            if state in aut.finals or consumed == path.length:
                continue
            step = path.steps[consumed + 1]
            if not reference_taken(aut, state, step.incoming, step.state):
                blocks.add((state, step.incoming, step.state))
    return blocks


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
                       config: AnalysisConfig = DEFAULT_CONFIG) -> frozenset:
    """All complete program paths satisfying the per-automaton requirement.

    Enumerates every path outright, then decides each automaton's
    requirement (``accept`` or ``cover``) with :func:`naive_match_path`.
    The five judgments of ``coopverify.engine`` are tested against it.
    """
    if len(automata) != len(modes):
        raise ValueError("one mode per automaton required")
    for mode in modes:
        if mode not in ("accept", "cover"):
            raise ValueError(f"unknown mode {mode!r}")
    result = enumerate_paths(program, config.input_domain, config.max_steps)
    if result.truncated:
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
# Reducer comparison: the residual program's behavior, mapped back to
# original operations, must be exactly the program behavior the condition
# does not accept.  Both sides are compared as prefix-closed sets of
# (original edge, data state) sequences, so that partial residual paths
# (stuck mid-split) and partial program paths line up.

def project_residual_path(reduction, path: ConcretePath) -> tuple:
    """Map a path of ``reduction.residual`` back to program operations.

    Returns the sequence of (original edge, post-state) pairs; inserted
    assume edges disappear, and a trailing operation into a helper location
    (its valuation not yet taken) is dropped as incomplete.
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
    result = enumerate_paths(program, config.input_domain, config.max_steps)
    assert not result.truncated
    return prefix_closure([(step.incoming, step.state) for step in path.steps[1:]]
                          for path in result.paths
                          if not naive_match_path(cond, path).accepted)
