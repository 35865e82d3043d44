"""The bounded product explorer: a program run in lockstep with automata.

Program configurations (data state, location) are extended with one
state-frontier per observing automaton, plus the set of final states each
automaton has entered so far (acceptance latches once entered, since
acceptance is stable under path extension).  :func:`run_product` hands each
explored configuration to a visitor, which steers the search; the judgments
of :mod:`coopverify.engine` and the non-blocking check of
:mod:`coopverify.kinds` are such visitors.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .automata import ArtifactAutomaton, initial_frontier, step_frontier
from .lang import (EMPTY_STATE, ConcreteDataState, ConcretePath, ControlFlowAutomaton, InputOp,
                   PathStep, successors)
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


class VisitAction(Enum):
    CONTINUE = "continue"
    PRUNE = "prune"
    STOP = "stop"


@dataclass(slots=True)
class ProductVisit:
    """One explored product configuration, handed to the visitor.

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
