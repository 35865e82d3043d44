"""Bounded explicit-state evaluation of the five cooperation judgments.

A single synchronous-product explorer drives everything: program
configurations (data state, location) are extended with one state-frontier
per observing automaton, plus the set of final states each automaton has
entered so far (acceptance latches once entered, since acceptance is stable
under path extension).  Each judgment is a choice of automata, a ``hit``
predicate on configurations (plus a ``prune`` one where needed) and a
polarity over one stop-at-first search.  A hit violates a universal judgment
("no path may") and makes an existential one ("some path must") hold:

* ``check_fulfills`` - no program path may be accepted by the property;
* ``check_correctness_witness`` - the witness must cover every path and the
  property must accept none;
* ``check_violation_witness`` - some path must be accepted by witness and
  property together, with the witness frontier used to steer exploration;
* ``check_condition_correct`` - no path may be accepted by condition and
  property together;
* ``check_test_covers`` - some complete path must be covered by the
  test-case automaton while reaching a test goal.

The explorer is a depth-first reachability search over product
configurations, not over path prefixes.  A configuration (location, data
state, frontiers, final entries) is explored when the depth-first order
first reaches it, and again only when a later prefix reaches it at a
smaller depth, whose extensions get further before the step bound; any
other prefix reaching it is skipped.  So each configuration is explored at
its smallest depth, and usually once.  Everything a configuration can lead
to is a function of the configuration alone, so a skipped prefix would only
have explored the same successors again, no nearer the bound.  Hence:

* revisiting a configuration on a cycle is not a truncation, so a loop whose
  configuration repeats ends ``holds, exhausted`` rather than ``unknown``;
* truncation is reported only when an extendable configuration is explored
  at depth ``max_steps``;
* every configuration reachable within the step bound is still explored;
  when a search over every prefix would truncate nothing, the first prefix
  found in depth-first order is the same one, so the evidence, the states
  observed per location and the generated test suites are unchanged.  Where
  that search would run around a cycle up to the step bound, this one may
  find a shorter evidence path or finish exhausted instead.

Verdicts are relative to the analysis configuration (finite input domain,
step bound); ``holds`` is only reported when no truncation could have hidden
a counterexample.  :func:`brute_force_oracle` re-decides path sets by naive
full enumeration and is the independent check the product engine is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .automata import (
    ArtifactAutomaton,
    AutomatonKind,
    initial_frontier,
    naive_match_path,
    step_frontier,
)
from .errors import InvalidArtifact, OracleBudgetExceeded
from .kinds import build_test_case_automaton, validate_kind
from .lang import (
    EMPTY_STATE,
    ConcreteDataState,
    ConcretePath,
    ControlFlowAutomaton,
    InputOp,
    PathStep,
    enumerate_paths,
    successors,
)
from .predicates import Interval

DEFAULT_DOMAIN = Interval(-8, 8)
DEFAULT_MAX_STEPS = 500


@dataclass(frozen=True)
class AnalysisConfig:
    """Finite bounds that make path exploration terminate."""

    input_domain: Interval = DEFAULT_DOMAIN
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    def to_json_dict(self) -> dict:
        return {
            "input_domain": [self.input_domain.lo, self.input_domain.hi],
            "max_steps": self.max_steps,
        }

    def __str__(self) -> str:
        return f"inputs {self.input_domain}, at most {self.max_steps} steps"


DEFAULT_CONFIG = AnalysisConfig()


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Judgment:
    """Outcome of one judgment, always relative to its config.

    ``exhausted`` records that the verdict is definitive for the configured
    bounds: either exploration finished without truncation, or positive
    evidence was found whose validity no unexplored path can retract.
    ``unknown`` is only ever caused by truncation and carries no evidence.
    """

    verdict: Verdict
    evidence: Optional[ConcretePath]
    exhausted: bool
    config: AnalysisConfig

    def to_json_dict(self) -> dict:
        evidence = None
        if self.evidence is not None:
            evidence = [
                {
                    "location": step.location,
                    "op": None if step.incoming is None else step.incoming.op.text,
                    "state": dict(sorted(step.state.items())),
                }
                for step in self.evidence.steps
            ]
        return {
            "verdict": self.verdict.value,
            "exhausted": self.exhausted,
            "config": self.config.to_json_dict(),
            "evidence": evidence,
        }

    def text(self) -> str:
        lines = [
            f"verdict: {self.verdict.value}",
            f"exhausted: {'yes' if self.exhausted else 'no'}",
            f"config: {self.config}",
        ]
        if self.evidence is not None:
            lines.append("evidence:")
            lines.extend(f"  {line}" for line in str(self.evidence).splitlines())
        return "\n".join(lines)


class VisitAction(Enum):
    CONTINUE = "continue"
    PRUNE = "prune"
    STOP = "stop"


@dataclass(slots=True)
class ProductVisit:
    """One explored product configuration, handed to judgment visitors.

    The configuration is the program ``location`` and data ``state`` plus,
    per automaton, ``frontiers[i]`` (its reachable-state set) and
    ``final_entries[i]`` (the final states it has entered anywhere along the
    prefix; nonempty means the automaton accepts).  ``depth`` is the length
    of the prefix it was reached by.  ``is_maximal`` marks program paths that
    cannot be extended; ``truncated`` marks configurations abandoned at the
    step bound although extendable.

    ``path`` builds that prefix from the explorer's trail on demand.  The
    trail moves on once the visitor returns, so read ``path`` during the
    visit, and only where the prefix itself is needed.  One is made per
    explored configuration, so it is slotted and not frozen, which keeps its
    construction to plain assignments; visitors only read it.
    """

    location: int
    state: ConcreteDataState
    depth: int
    frontiers: tuple
    final_entries: tuple
    is_maximal: bool
    truncated: bool
    _trail: list = field(repr=False, compare=False)

    @property
    def path(self) -> ConcretePath:
        return ConcretePath(tuple(self._trail[: self.depth + 1]))

    def accepted(self, index: int) -> bool:
        return bool(self.final_entries[index])


Visitor = Callable[[ProductVisit], VisitAction]


def _meeting_locations(program: ControlFlowAutomaton) -> frozenset:
    """Locations where two different prefixes can reach one configuration.

    These are the initial location, locations with two or more incoming
    edges, and targets of input edges.  Elsewhere a configuration has one
    predecessor location and one deterministic operation into it, and every
    cycle passes through one of these locations.
    """
    incoming: dict = {}
    inputs = set()
    for edge in program.edges:
        incoming[edge.target] = incoming.get(edge.target, 0) + 1
        if isinstance(edge.op, InputOp):
            inputs.add(edge.target)
    joins = {location for location, count in incoming.items() if count >= 2}
    return frozenset(joins | inputs | {program.initial})


def run_product(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
                config: AnalysisConfig, visit: Visitor) -> bool:
    """Depth-first bounded exploration of program x automata.

    Explores every product configuration reachable within the step bound,
    each at the smallest depth at which the depth-first order reaches it
    (see the module docstring), in deterministic order (per program
    location: edge order, input values ascending).  A prefix reaching a
    configuration already explored at no greater depth is skipped without a
    visit.  Only configurations at ``_meeting_locations`` are recorded, which
    keeps the record small where prefixes never meet.  The visitor steers:
    PRUNE abandons the configuration's extensions, STOP abandons the whole
    exploration.  A skipped prefix is taken to steer as the configuration's
    earlier visit did, so a visitor's answer must depend on the
    configuration alone.  Returns whether any configuration was truncated
    by the step bound.
    """
    meeting = _meeting_locations(program)
    explored_at: dict = {}  # configuration key at a meeting location -> depth
    interned: dict = {}  # frontier and final-entry sets stored in keys
    pairs = [initial_frontier(a, EMPTY_STATE) for a in automata]
    trail: list = []  # the steps of the prefix reaching the current configuration
    stack = [(0, PathStep(EMPTY_STATE, program.initial, None),
              tuple(fr for fr, _ in pairs), tuple(en for _, en in pairs))]
    saw_truncation = False
    while stack:
        depth, step, frontiers, entries = stack.pop()
        location, state = step.location, step.state
        if location in meeting:
            # flat, each set interned: a frontier that many configurations
            # share is stored once
            key = (location, state, *map(interned.setdefault, frontiers, frontiers),
                   *map(interned.setdefault, entries, entries))
            if explored_at.get(key, depth + 1) <= depth:
                continue  # explored already, no farther from the step bound
            explored_at[key] = depth
        del trail[depth:]
        trail.append(step)
        succ = successors(program, state, location, config.input_domain)
        truncated = bool(succ) and depth >= config.max_steps
        if truncated:
            saw_truncation = True
        action = visit(ProductVisit(location, state, depth, frontiers, entries,
                                    not succ, truncated, trail))
        if action is VisitAction.STOP:
            return saw_truncation
        if action is VisitAction.PRUNE or truncated:
            continue
        for edge, post in reversed(succ):
            stepped = [step_frontier(a, fr, edge, post)
                       for a, fr in zip(automata, frontiers)]
            stack.append((
                depth + 1,
                PathStep(post, edge.target, edge),
                tuple(fr for fr, _ in stepped),
                tuple(en | new if new else en
                      for (_, new), en in zip(stepped, entries)),
            ))
    return saw_truncation


def require_valid_kind(aut: ArtifactAutomaton, kind: AutomatonKind,
                   program: ControlFlowAutomaton, config: AnalysisConfig) -> None:
    if aut.kind is not kind:
        raise InvalidArtifact(
            f"expected a {kind.value} automaton, got {aut.kind.value} ({aut.name})")
    domain = config.input_domain if kind is AutomatonKind.PROPERTY else None
    report = validate_kind(aut, program, domain)
    if not report.ok:
        raise InvalidArtifact(f"automaton {aut.name} violates its kind constraints:\n{report}",
                              report)


def _search(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
            config: AnalysisConfig, hit: Callable[[ProductVisit], bool],
            prune: Optional[Callable[[ProductVisit], bool]] = None,
            observed: Optional[dict] = None) -> tuple:
    """The prefix reaching the first configuration in depth-first order that
    satisfies ``hit`` (or None), and whether the step bound truncated the
    search.  ``prune`` cuts a configuration's extensions; ``observed``, a
    ``defaultdict(list)``, collects each explored data state per location."""
    found: list = []

    def visit(v: ProductVisit) -> VisitAction:
        if observed is not None:
            observed[v.location].append(v.state)
        if hit(v):
            found.append(v.path)
            return VisitAction.STOP
        if prune is not None and prune(v):
            return VisitAction.PRUNE
        return VisitAction.CONTINUE

    truncated = run_product(program, automata, config, visit)
    return (found[0] if found else None), truncated


def _verdict(config: AnalysisConfig, evidence: Optional[ConcretePath] = None,
             truncated: bool = False, *, universal: bool) -> Judgment:
    """The verdict rule of every judgment: a hit (``evidence``) violates a
    universal judgment, definitively only if nothing was truncated, and makes
    an existential one hold, definitively regardless.  Without a hit,
    truncation means unknown and exhaustion the opposite verdict."""
    if evidence is not None:
        if universal:
            return Judgment(Verdict.VIOLATED, evidence, not truncated, config)
        return Judgment(Verdict.HOLDS, evidence, True, config)
    if truncated:
        return Judgment(Verdict.UNKNOWN, None, False, config)
    return Judgment(Verdict.HOLDS if universal else Verdict.VIOLATED, None, True, config)


# Hit and prune predicates; automaton 0 is the property in every product.

def _property_accepts(v: ProductVisit) -> bool:
    return v.accepted(0)


def _uncovered_or_accepted(v: ProductVisit) -> bool:
    return not v.frontiers[1] or v.accepted(0)


def _both_accept(v: ProductVisit) -> bool:
    return v.accepted(0) and v.accepted(1)


def _witness_lost(v: ProductVisit) -> bool:
    return not v.frontiers[1] and not v.accepted(1)


def check_fulfills(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                   config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """No program path may be accepted by the property automaton."""
    require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
    if not prop.finals:
        return _verdict(config, universal=True)
    return _verdict(config, *_search(program, (prop,), config, _property_accepts),
                    universal=True)


def check_correctness_witness(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                              witness: ArtifactAutomaton,
                              config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """The witness must cover every program path, none of which may violate
    the property.  Evidence on violation is the uncovered or violating
    prefix."""
    require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
    require_valid_kind(witness, AutomatonKind.CORRECTNESS_WITNESS, program, config)
    return _verdict(config, *_search(program, (prop, witness), config,
                                     _uncovered_or_accepted), universal=True)


def check_violation_witness(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                            witness: ArtifactAutomaton,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """Some program path must be accepted by witness and property together.

    The witness steers exploration: prefixes it can no longer follow (empty
    frontier, not yet accepted) are pruned.  A found path is definitive, so
    it is reported as exhausted even if other prefixes were truncated;
    ``violated`` (no such path) requires full exploration and carries no
    evidence path, there being no single path that demonstrates absence.
    """
    require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
    require_valid_kind(witness, AutomatonKind.VIOLATION_WITNESS, program, config)
    if not prop.finals or not witness.finals:
        return _verdict(config, universal=False)
    return _verdict(config, *_search(program, (prop, witness), config, _both_accept,
                                     prune=_witness_lost), universal=False)


def check_condition_correct(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                            condition: ArtifactAutomaton,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """No program path may be accepted by condition and property together,
    i.e. the part the condition declares covered is actually violation-free."""
    require_valid_kind(prop, AutomatonKind.PROPERTY, program, config)
    require_valid_kind(condition, AutomatonKind.CONDITION, program, config)
    if not prop.finals or not condition.finals:
        return _verdict(config, universal=True)
    return _verdict(config, *_search(program, (prop, condition), config, _both_accept),
                    universal=True)


def check_test_covers(program: ControlFlowAutomaton, test: Sequence[int],
                      goals: ArtifactAutomaton,
                      config: AnalysisConfig = DEFAULT_CONFIG) -> tuple:
    """Whether executing the test inputs reaches a test goal.

    Some complete program path must be covered by the test-case automaton
    built from ``test`` while the goal automaton accepts it.  Returns the
    judgment together with every goal reached on covered paths (a goal being
    a final state plus the transition entering it).
    """
    require_valid_kind(goals, AutomatonKind.TEST_GOAL, program, config)
    test_case = build_test_case_automaton(test)
    if not goals.finals:
        return _verdict(config, universal=False), frozenset()
    found: list = []
    covered: set = set()

    def visit(v: ProductVisit) -> VisitAction:
        if not v.frontiers[1]:
            return VisitAction.PRUNE
        if v.is_maximal and v.final_entries[0]:
            if not found:
                found.append(v.path)
            covered.update(v.final_entries[0])
        return VisitAction.CONTINUE

    truncated = run_product(program, (goals, test_case), config, visit)
    judgment = _verdict(config, found[0] if found else None, truncated, universal=False)
    return judgment, frozenset(covered)


ORACLE_BUDGET = 1_000_000


def brute_force_oracle(program: ControlFlowAutomaton,
                       automata: Sequence[ArtifactAutomaton],
                       modes: Sequence[str],
                       config: AnalysisConfig = DEFAULT_CONFIG) -> frozenset:
    """All complete program paths satisfying the per-automaton requirement.

    Enumerates every path outright, then decides each automaton's
    requirement (``accept`` or ``cover``) with the naive run-enumerating
    matcher.  Deliberately shares no machinery with :func:`run_product`;
    used by the test suite to validate the judgments above.
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
