"""The bounded product explorer: a program run in lockstep with automata.

Program configurations (data state, location) are extended with one
state-frontier per observing automaton, plus the set of final states each
automaton has entered so far (acceptance latches once entered, since
acceptance is stable under path extension).  :func:`run_product` hands each
explored configuration to a visitor, which steers the search; the judgments
of :mod:`coopverify.engine` are such visitors.

The explorer refuses a first automaton that is a property and blocks the
program (:func:`first_block`), on each untruncated configuration whose
visit did not stop the search, after the visit and before pruning: a hit
met first gives its verdict, on a real path; a block beyond a pruned
configuration is not seen; and a judgment answered without a search
refuses nothing.

The explorer is a depth-first reachability search over product
configurations, not over path prefixes.  A configuration (location, data
state, frontiers, final entries) is explored when the depth-first order
first reaches it, and again only when a later prefix reaches it at a
smaller depth, whose extensions get further before the step bound; any
other prefix reaching it is skipped.  So each configuration is explored at
its smallest depth, and usually once.

Configurations are told apart only by what can still matter.  At a
location, the data state enters the key through the variables live there
(after Bozga, Fernandez & Ghirvu, "State Space Reduction Based on Live
Variables Analysis", SAS 1999):

* those the program may read before writing them;
* those the first automaton (the property, where there is one) reads
  anywhere, so that a correctness witness can state facts over them (see
  :func:`coopverify.actors.correctness_witness_from_observations`);
* for every later automaton, those that a run from one of its frontier's
  states may read before the program overwrites them.  This pair liveness
  of (location, automaton state) is a backward fixpoint over program edges
  and the transitions matching them, computed once per exploration (after
  Self & Mercer, "On-the-Fly Dead Variable Analysis", SPIN 2007).  Taking a
  transition reads its assumption and its target's invariant on the
  post-state of the edge, so the edge's own writes are never read by it.

At a location where prefixes meet, each distinct (location, frontiers,
final entries) of one exploration gets one part id, in the order the parts
are first met, and the part's key names are computed then, once: the
program's live variables there, the first automaton's reads and the pair
liveness of each later automaton's frontier states.  A key is ``(part id,
values of the part's names)``, so two keys are equal exactly when their
locations, frontiers and final entries are equal and the same names hold
the same values, and a key holds one small int for its location and
automaton part however many automata there are.

A skipped prefix agrees with its representative on the location, the
frontiers, the final entries and every variable that the program, the
property, or another automaton from its current states can read before the
variable is overwritten: the program's steps read only live variables, the
property reads only its own, and every other automaton's runs from these
states read only pair-live ones.  So everything it can lead to matches what
the representative leads to, step for step, and it steers every visitor the
same way; it would only have explored the same successors again, no nearer
the bound.  Hence:

* revisiting a configuration on a cycle is not a truncation, so a loop whose
  configuration repeats ends ``holds, exhausted`` rather than ``unknown``;
* truncation is reported only when an extendable configuration is explored
  at depth ``max_steps``;
* every configuration reachable within the step bound is still explored up
  to its dead variables; when a search over every prefix would truncate
  nothing, the first prefix found in depth-first order is the same one, so
  the evidence and the generated test suites are unchanged, and the states
  observed per location are the same on their live variables.  Where that
  search would run around a cycle up to the step bound, this one may find
  a shorter evidence path or finish exhausted instead, so a verdict changes
  only from unknown to a definite one.

Most observers loop in place through ``otherwise`` on every edge they do
not watch, and a violation witness loops between the decisions it pins
(see :func:`coopverify.actors.violation_witness_from_path`), so one
exploration steps an automaton over the same (frontier, edge) many times.
Which transitions that step can take, their guards, the placeholder binding
and the test case's rule on input edges depend on the edge alone, so the
explorer plans each step once per exploration
(:func:`coopverify.automata.plan_step`) in that automaton's own memo,
keyed on (frontier, edge), kept whole for the exploration whatever the
automaton's kind, and then only runs the plan's guards on each post-state.
A plan with no guard left is the step's result itself; a correctness
witness's step is one invariant evaluation.  Edges are keyed by identity,
because hashing one walks its operation; that is sound because the program
keeps its edges alive while the memos, which die with the exploration,
exist.  Checking the decision witness of the benchmark's deep-paths
``extract_test n=1000`` task plans 7 witness steps along its 3,004-step
path.  Emptied for each configuration's successors, as it was while a
witness spelled out every step, the witness's memo plans 3,004, and the
task takes about 1.6 times as long at the same tracemalloc heap peak
(0.87 MB; CPython 3.11).  The rule steps through the property's memo, and
a test execution through :func:`coopverify.automata.memo_step` with one
memo for its run, which the rule shares; the explorer inlines that call,
because it made its tasks of the benchmark's deep-paths and input-fanout
workloads 1-5% slower (median 2%, in process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

from .automata import ArtifactAutomaton, initial_frontier, plan_step
from .errors import InvalidArtifact
from .lang import (EMPTY_STATE, CFAEdge, ConcreteDataState, ConcretePath, ControlFlowAutomaton,
                   PathStep, op_writes, successors)
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


# The members as module-level names: the explorer and its visitors load one
# per visit, and a load through the enum class costs over ten times as much
# (CPython 3.11).
CONTINUE = VisitAction.CONTINUE
PRUNE = VisitAction.PRUNE
STOP = VisitAction.STOP


@dataclass(slots=True)
class ProductVisit:
    """One explored product configuration, handed to the visitor.

    The configuration is the program ``location`` and data ``state`` plus,
    per automaton, ``frontiers[i]`` (its reachable-state set) and
    ``final_entries[i]`` (the final states it has entered anywhere along the
    prefix; nonempty means the automaton accepts).  ``depth`` is the length
    of the prefix it was reached by.  ``successors`` lists the program's
    enabled (edge, post-state) pairs there (see :func:`coopverify.lang.successors`);
    a path with none is maximal.  ``truncated`` marks configurations
    abandoned at the step bound although extendable.

    ``path`` builds that prefix from the explorer's trail on demand, as an
    O(depth) slice that copies references to the trail's steps and builds
    no step.  The benchmark's tracer (``perfbench/tracer.py``) reads it on
    every visit and relies on that: building the steps there instead made a
    traced run many times slower.  The trail moves on once the visitor
    returns, so read ``path`` during the visit, and only where the prefix
    itself is needed.  One visit is made per explored configuration, so it
    is slotted and not frozen, which keeps its construction to plain
    assignments; visitors only read it.
    """

    location: int
    state: ConcreteDataState
    depth: int
    frontiers: tuple
    final_entries: tuple
    successors: list
    truncated: bool
    _trail: list = field(repr=False, compare=False)

    @property
    def path(self) -> ConcretePath:
        return ConcretePath(tuple(self._trail[: self.depth + 1]))

    def accepted(self, index: int) -> bool:
        return bool(self.final_entries[index])


Visitor = Callable[[ProductVisit], VisitAction]


def _pair_liveness(program: ControlFlowAutomaton, aut: ArtifactAutomaton) -> dict:
    """For each pair (program location, state of ``aut``), the variables a
    run of ``aut`` from that state at that location may read before the
    program overwrites them; only nonempty entries are stored.

    A transition taken over an edge reads its assumption and its target's
    invariant on the post-state, so it reads what the edge does not write,
    and over that edge it also carries what its target pair reads, less the
    edge's writes.  The least fixpoint is found by a backward worklist from
    the reading transitions, matching transitions to edges only as the
    worklist needs them; an otherwise transition is taken to match every
    edge, which can only add variables.  With no read surviving its edge's
    writes, as for path-shaped witnesses and test cases, the result is empty
    and nothing else is built.
    """
    live: dict = {}
    work: list = []

    def add(pair, names) -> None:
        known = live.get(pair)
        if known is None:
            live[pair] = names
        elif names <= known:
            return
        else:
            live[pair] = known | names
        work.append(pair)

    for t, reads in aut._transition_reads:
        for edge in program.edges:
            if t.otherwise or t.pattern.matches(edge):
                names = reads - op_writes(edge.op)
                if names:
                    add((edge.source, t.source), names)
    if not live:
        return live
    into_location: dict = {}
    for edge in program.edges:
        into_location.setdefault(edge.target, []).append(edge)
    into_state: dict = {}
    for t in aut.transitions:
        into_state.setdefault(t.target, []).append(t)
    while work:
        location, state = pair = work.pop()
        carried = live[pair]
        for edge in into_location.get(location, ()):
            names = carried - op_writes(edge.op)
            if names:
                for t in into_state.get(state, ()):
                    if t.otherwise or t.pattern.matches(edge):
                        add((edge.source, t.source), names)
    return live


BOUNDED_PROVED = "bounded-proved"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"


class NonBlocking(NamedTuple):
    """Outcome of the may-the-property-block-the-program analysis.

    A run in a non-final state must take a transition on every program
    step.  A state with an otherwise transition always does; the others are
    watched on every explored configuration (:func:`first_block`), and
    the first reachable step one of them takes no transition on refutes,
    with that step's post-state.  ``bounded-proved``: no configuration
    reachable within the input interval and step bound blocks.  A block
    beyond the bound is not seen; a judgment under those bounds is then
    already ``unknown``.
    """

    status: str
    state: Optional[str] = None
    edge: Optional[CFAEdge] = None
    counter_state: Optional[dict] = None

    def __str__(self) -> str:
        if self.status != REFUTED:
            return self.status
        bind = ", ".join(f"{k}={v}" for k, v in sorted(self.counter_state.items()))
        return (f"refuted: state {self.state} blocks edge "
                f"({self.edge.match_src}, {self.edge.op.text}, {self.edge.match_tgt}) "
                f"on {{{bind}}}")


class PropertyBlocks(InvalidArtifact):
    """The explorer's refusal of a property that blocks the program; its
    ``report`` is the first block's :class:`NonBlocking`."""


def first_block(aut: ArtifactAutomaton, plans: dict, frontier: frozenset,
                steps) -> Optional[NonBlocking]:
    """The non-blocking rule: each watched state of ``frontier`` (sorted) is
    stepped alone over each (edge, post-state) of ``steps``, in order,
    through the memo ``plans`` (see :func:`run_product`); the refutation by
    the first that takes no transition, or None."""
    for q in sorted(frontier & aut.watched):
        alone = frozenset((q,))
        for edge, post in steps:
            plan = plans.get((alone, id(edge)))
            if plan is None:
                plan = plans[alone, id(edge)] = plan_step(aut, alone, edge)
            taken, guards = plan
            if taken is None:
                taken, _ = guards.run(post._bindings)
            if not taken:
                return NonBlocking(REFUTED, q, edge, dict(post))
    return None


def run_product(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
                config: AnalysisConfig, visit: Visitor) -> bool:
    """Depth-first bounded exploration of program x automata.

    Explores every product configuration reachable within the step bound,
    each at the smallest depth at which the depth-first order reaches it
    (see the module docstring), in deterministic order (per program
    location: edge order, input values ascending).  At the program's
    ``meeting_locations``, each distinct (location, frontiers, final
    entries) gets one part id, whose key names are computed when the part is
    first met: the variables the program may still read there, those the
    first of ``automata`` reads anywhere, and those each later one may read
    from its frontier's states before they are overwritten (see the module
    docstring).  A configuration's key is its part id and the values of the
    part's names; a prefix whose key was already explored at no greater
    depth is skipped without a visit.  Elsewhere nothing is recorded, which
    keeps the record small where prefixes never meet.  The visitor steers:
    PRUNE abandons the configuration's extensions, STOP abandons the whole
    exploration.  A skipped prefix is taken to steer as the key's earlier
    visit did, so a visitor's answer must depend on the key alone; the visit
    itself still carries the whole data state.  Each automaton plans a step
    once per (frontier, edge) in its own memo, kept for the whole
    exploration, and runs the plan on every post-state (see the module
    docstring).  Each pushed ``PathStep`` is built through
    ``tuple.__new__`` (see :class:`coopverify.lang.PathStep`).  A blocking
    property raises :class:`PropertyBlocks` (see the module docstring).
    Returns whether any configuration was truncated by the step bound.
    """
    live = program.live_variables
    meeting = program.meeting_locations
    first_reads = automata[0].reads if automata else frozenset()
    liveness = [(i, _pair_liveness(program, a)) for i, a in enumerate(automata) if i]
    liveness = [(i, reads) for i, reads in liveness if reads]  # those that read anything
    part_ids: dict = {}  # (location, frontiers, final entries) -> its part id
    part_names: list = []  # part id -> the names its keys hold, one tuple per distinct set
    name_tuples: dict = {}

    def names_of(location: int, frontiers: tuple) -> tuple:
        """The key names at ``location`` for these frontiers."""
        names = live[location] | first_reads
        for i, reads in liveness:
            for state in frontiers[i]:
                names = names.union(reads.get((location, state), ()))
        ordered = name_tuples.get(names)
        if ordered is None:
            ordered = name_tuples[names] = tuple(sorted(names))
        return ordered

    explored_at: dict = {}  # configuration key at a meeting location -> depth
    pairs = [initial_frontier(a, EMPTY_STATE) for a in automata]
    # per automaton, its memo: (frontier, id(edge)) -> the plan of that step
    observers = [(a, {}) for a in automata]
    # the property whose non-blocking rule every visit applies, and its memo
    prop, prop_plans = observers[0] if automata and automata[0].watched else (None, None)
    trail: list = []  # the steps of the prefix reaching the current configuration
    stack = [(0, PathStep(EMPTY_STATE, program.initial, None),
              tuple(fr for fr, _ in pairs), tuple(en for _, en in pairs))]
    saw_truncation = False
    while stack:
        depth, step, frontiers, entries = stack.pop()
        state, location, _ = step
        if location in meeting:
            at = (location, frontiers, entries)
            part = part_ids.get(at)
            if part is None:
                part = part_ids[at] = len(part_names)
                part_names.append(names_of(location, frontiers))
            key = (part, *map(state._bindings.get, part_names[part]))
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
                                    succ, truncated, trail))
        if action is STOP:
            return saw_truncation
        if prop is not None and not truncated:
            refuted = first_block(prop, prop_plans, frontiers[0], succ)
            if refuted is not None:
                raise PropertyBlocks(f"property {prop.name}, non-blocking: {refuted}", refuted)
        if action is PRUNE or truncated:
            continue
        for edge, post in reversed(succ):
            edge_id = id(edge)
            next_frontiers = []
            next_entries = []
            for (a, plans), fr, en in zip(observers, frontiers, entries):
                # automata.memo_step, inlined (see the module docstring)
                plan = plans.get((fr, edge_id))
                if plan is None:
                    plan = plans[fr, edge_id] = plan_step(a, fr, edge)
                fr, new = plan
                if fr is None:  # guards are left
                    fr, new = new.run(post._bindings)
                next_frontiers.append(fr)
                next_entries.append(en | new if new else en)
            stack.append((depth + 1, tuple.__new__(PathStep, (post, edge.target, edge)),
                          tuple(next_frontiers), tuple(next_entries)))
    return saw_truncation
