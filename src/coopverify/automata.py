"""Artifact automata: observers that run alongside program paths.

An artifact automaton reads a concrete program path edge by edge.  Each
transition carries an edge pattern (which program edges it consumes) plus an
assumption predicate evaluated on the data state *after* the edge; states
carry invariants that must hold whenever a run sits in them (including the
initial state on the empty prefix).  A state may additionally have one
``otherwise`` transition that fires exactly when no explicit transition at
that state both matches the edge and has a satisfied assumption.

The same automaton shape serves six purposes (property, test goal, violation
witness, correctness witness, condition, test case), distinguished by a
declared kind with structural constraints checked in :mod:`coopverify.kinds`.

Matching is existential over nondeterministic runs.  A run may stop after
any number of consumed edges:

* the automaton *accepts* a path if some run ends in a final state after
  consuming any prefix (hence acceptance is stable under path extension);
* it *covers* the path if some run consumes every edge.

:func:`match_path` decides both by folding :func:`step_frontier` over the
path, keeping the frontier of reachable automaton states per prefix.  A step
is planned from its edge alone (:func:`plan_step`) and the plan run on the
post-state; :func:`memo_step` keeps the plans, for a test execution, and
the explorer of :mod:`coopverify.product` keeps them by the same rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (DuplicateOtherwise, InvalidArtifact, ParseError, UndefinedVariable,
                     UnknownKind)
from .lang import CFAEdge, ConcreteDataState, ConcretePath, InputOp
from .predicates import (
    TRUE,
    BoolConst,
    Predicate,
    _integer,
    evaluate,
    normalize_text,
    parse_predicate,
    pred_text,
    variables_of,
)


class AutomatonKind(Enum):
    PROPERTY = "property"
    TEST_GOAL = "test-goal"
    VIOLATION_WITNESS = "violation-witness"
    CORRECTNESS_WITNESS = "correctness-witness"
    CONDITION = "condition"
    TEST_CASE = "test-case"


INPUT_TEMPLATE_TEXT = "chi = input()"
_INPUT_TEMPLATE_NORM = normalize_text(INPUT_TEMPLATE_TEXT)


@dataclass(frozen=True)
class EdgePattern:
    """Which program edges a transition consumes.

    ``None`` components are wildcards.  Operation text is compared
    whitespace-insensitively against the edge's canonical text; the special
    text ``chi = input()`` matches any input edge and binds the template
    placeholder to the variable being read.
    """

    source: Optional[int]
    op_text: Optional[str]
    target: Optional[int]
    # op_text without whitespace, computed once
    norm_text: Optional[str] = field(init=False, repr=False, compare=False)
    # whether the text is the input template, computed once for the step
    is_input_template: bool = field(init=False, repr=False, compare=False)
    # the artifact text, rendered once for every transition sharing the pattern
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = None if self.op_text is None else normalize_text(self.op_text)
        object.__setattr__(self, "norm_text", norm)
        object.__setattr__(self, "is_input_template", norm == _INPUT_TEMPLATE_NORM)
        src = "*" if self.source is None else self.source
        op = "*" if self.op_text is None else f'"{self.op_text}"'
        tgt = "*" if self.target is None else self.target
        object.__setattr__(self, "text", f"({src}, {op}, {tgt})")

    def matches(self, edge: CFAEdge) -> bool:
        if self.source is not None and self.source != edge.match_src:
            return False
        if self.target is not None and self.target != edge.match_tgt:
            return False
        if self.norm_text is None:
            return True
        if self.is_input_template:
            return isinstance(edge.op, InputOp)
        return self.norm_text == edge.norm_text

    def __str__(self) -> str:
        return self.text


class Transition(NamedTuple):
    """One automaton transition: the edges it consumes (its pattern, None
    exactly for an ``otherwise`` transition) and the assumption it makes on
    the post-state.

    A named tuple, not a frozen dataclass: the automaton step unpacks it at
    a plain tuple's cost, where a dataclass would be read field by field.
    It equals the tuple of its fields.  Its hash leaves out the assumption,
    which would walk the whole tree; equal transitions still hash alike."""

    source: str
    target: str
    pattern: Optional[EdgePattern]
    assumption: Predicate = TRUE
    otherwise: bool = False

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.pattern, self.otherwise))

    def __str__(self) -> str:
        if self.otherwise:
            return f"{self.source} -> {self.target} otherwise"
        text = f"{self.source} -> {self.target} on {self.pattern.text}"
        assumption = self.assumption
        if assumption is not TRUE and assumption != TRUE:
            text += f" assume {pred_text(assumption)}"
        return text


@dataclass(frozen=True)
class ArtifactAutomaton:
    """States, invariants and transitions of one artifact of a declared kind."""

    name: str
    kind: AutomatonKind
    states: tuple
    initial: str
    finals: frozenset
    invariants: dict  # only non-trivial entries
    transitions: tuple
    # state -> its explicit transitions in file order, and state -> its
    # otherwise transition
    _explicit: dict = field(init=False, repr=False, compare=False, default=None)
    _otherwise: dict = field(init=False, repr=False, compare=False, default=None)
    # the read set, computed on first use (see ``reads``)
    _reads: frozenset = field(init=False, repr=False, compare=False, default=None)
    # the reading transitions, computed on first use (see ``_transition_reads``)
    _read_sites: tuple = field(init=False, repr=False, compare=False, default=None)
    # a property's states that are neither final nor have an otherwise
    # transition, which its non-blocking rule watches; none for another kind
    watched: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.initial not in declared:
            raise ValueError(f"initial state {self.initial!r} is not declared")
        if not self.finals <= declared:
            raise ValueError("final states must be declared states")
        for state in self.invariants:
            if state not in declared:
                raise ValueError(f"invariant on undeclared state {state!r}")
        explicit: dict = {}
        otherwise: dict = {}
        for t in self.transitions:
            source, target, _, _, loops = t
            if source not in declared or target not in declared:
                raise ValueError(f"transition {t} uses an undeclared state")
            if not loops:
                explicit.setdefault(source, []).append(t)
            elif source in otherwise:
                raise DuplicateOtherwise(f"state {source!r} has two otherwise transitions")
            else:
                otherwise[source] = t
        object.__setattr__(self, "_explicit", {q: tuple(ts) for q, ts in explicit.items()})
        object.__setattr__(self, "_otherwise", otherwise)
        watched = (q for q in self.states if q not in self.finals and q not in otherwise)
        object.__setattr__(self, "watched",
                           frozenset(watched if self.kind is AutomatonKind.PROPERTY else ()))

    def invariant(self, state: str) -> Predicate:
        return self.invariants.get(state, TRUE)

    @property
    def reads(self) -> frozenset:
        """Variables some assumption or invariant reads, anywhere (the
        template placeholder excluded); computed once, and kept without
        writing ``__dict__`` (see ``lang.ControlFlowAutomaton``)."""
        if self._reads is None:
            out: set = set()
            for t in self.transitions:
                if t.assumption is not TRUE:
                    out |= variables_of(t.assumption)
            for inv in self.invariants.values():
                out |= variables_of(inv)
            object.__setattr__(self, "_reads", frozenset(out))
        return self._reads

    @property
    def _transition_reads(self) -> tuple:
        """(transition, variables) for each transition whose taking reads
        some variable: those of its assumption and of its target's
        invariant, both evaluated on the post-state of the edge it consumes
        (the template placeholder excluded).  Computed once, like ``reads``,
        for the product explorer's keys (see :mod:`coopverify.product`)."""
        if self._read_sites is None:
            invariant_reads = {q: variables_of(p) for q, p in self.invariants.items()}
            sites = []
            for t in self.transitions:
                names = invariant_reads.get(t.target, _NOTHING)
                if t.assumption is not TRUE:
                    names = names | variables_of(t.assumption)
                if names:
                    sites.append((t, names))
            object.__setattr__(self, "_read_sites", tuple(sites))
        return self._read_sites

    def explicit_from(self, state: str) -> tuple:
        return self._explicit.get(state, ())

    def otherwise_at(self, state: str) -> Optional[Transition]:
        return self._otherwise.get(state)


def make_automaton(
    name: str,
    kind: AutomatonKind,
    states: Sequence[str],
    initial: str,
    finals: Iterable[str],
    transitions: Sequence[Transition],
    invariants: Optional[dict] = None,
) -> ArtifactAutomaton:
    trimmed = {
        state: pred
        for state, pred in (invariants or {}).items()
        if not (isinstance(pred, BoolConst) and pred.value)
    }
    return ArtifactAutomaton(
        name, kind, tuple(states), initial, frozenset(finals), trimmed, tuple(transitions)
    )


# ---------------------------------------------------------------------------
# The step

class FinalEntry(NamedTuple):
    """Record of a run reaching a final state; identifies one coverage goal."""

    transition: Optional[Transition]  # None when the initial state is final
    state: str


def initial_frontier(aut: ArtifactAutomaton, initial_state) -> tuple:
    """Frontier for the empty prefix: the initial automaton state, provided
    its invariant holds on the (empty) initial data state.  An invariant
    reading a variable that state does not bind raises
    :class:`InvalidArtifact` naming the automaton and its initial state."""
    inv = aut.invariants.get(aut.initial)
    try:
        holds = inv is None or evaluate(inv, initial_state)
    except UndefinedVariable as err:
        raise InvalidArtifact(
            f"automaton {aut.name}, state {aut.initial}, empty prefix: {err}") from err
    if not holds:
        return frozenset(), frozenset()
    entries = frozenset(
        {FinalEntry(None, aut.initial)} if aut.initial in aut.finals else ()
    )
    return frozenset((aut.initial,)), entries


_NOTHING = frozenset()


def _outcome(taken: list, finals: frozenset) -> tuple:
    """The successor frontier and the final entries of taking the
    transitions ``taken``.  One transition builds both sets directly: one
    round of the benchmark's deep-paths workload builds 11,806
    single-transition outcomes and none of more transitions."""
    if not taken:
        return _NOTHING, _NOTHING
    if len(taken) == 1:
        t = taken[0]
        _, target, _, _, _ = t
        return (frozenset((target,)),
                frozenset((FinalEntry(t, target),)) if target in finals else _NOTHING)
    return (frozenset(t.target for t in taken),
            frozenset(FinalEntry(t, t.target) for t in taken if t.target in finals))


class StepPlan:
    """The part of a step (see :func:`plan_step`) that reads the post-state.

    ``run`` evaluates the guards left on a post-state, one state of the
    frontier after the other in sorted order, and returns the step's
    (frontier, final entries).  A check is (state, its explicit guards, its
    otherwise guard or None), a guard (transition, assumption, invariant,
    placeholder binding) with None for a part that always holds.
    Where one guard is left, it picks one of two outcomes built in advance.
    """

    __slots__ = ("aut", "edge", "checks", "fixed", "one")

    def __init__(self, aut: ArtifactAutomaton, edge: CFAEdge, checks: list, fixed: list) -> None:
        self.aut = aut
        self.edge = edge
        self.checks = checks
        self.fixed = fixed  # the transitions taken on every post-state
        finals = aut.finals
        # (guard, placeholder binding, state, transition, outcome if it holds,
        # outcome if not); a failed assumption leaves the otherwise transition
        self.one = None
        (state, guarded, ow), *more = checks
        guards = [(g, m) for m in (*guarded, ow) if m is not None for g in m[1:3] if g is not None]
        if not more and len(guards) == 1:
            ((guard, (t, _, _, chi)),) = guards
            missed = fixed if ow is None or ow[0] is t else [*fixed, ow[0]]
            self.one = (guard, chi, state, t, _outcome([*fixed, t], finals),
                        _outcome(missed, finals))

    def run(self, bindings: dict) -> tuple:
        """The step on the post-state given by its bindings
        (``ConcreteDataState._bindings``), so that every variable read is a
        dict read."""
        if self.one is not None:
            guard, chi, state, t, hit, miss = self.one
            try:
                return hit if evaluate(guard, bindings, chi) else miss
            except UndefinedVariable as err:
                raise self._unbound(state, t, err) from err
        taken = list(self.fixed)
        for state, guarded, ow in self.checks:
            g = ow
            try:
                enabled = []
                for g in guarded:
                    if g[1] is None or evaluate(g[1], bindings, g[3]):
                        enabled.append(g)
                for g in enabled:
                    if g[2] is None or evaluate(g[2], bindings, g[3]):
                        taken.append(g[0])
                if not enabled and ow is not None:
                    g = ow
                    if ow[2] is None or evaluate(ow[2], bindings):
                        taken.append(ow[0])
            except UndefinedVariable as err:
                raise self._unbound(state, g[0], err) from err
        return _outcome(taken, self.aut.finals)

    def _unbound(self, state: str, t: Transition, err: UndefinedVariable) -> InvalidArtifact:
        edge = self.edge
        return InvalidArtifact(f"automaton {self.aut.name}, state {state}, transition {t}, edge "
                               f"({edge.match_src}, {edge.op.text}, {edge.match_tgt}): {err}")


def plan_step(aut: ArtifactAutomaton, frontier: frozenset, edge: CFAEdge):
    """What stepping ``frontier`` over ``edge`` takes, as far as the edge
    alone decides it: the step's (frontier, final entries) when no guard is
    left, else (None, the :class:`StepPlan` of the guards to evaluate).

    A run in a state takes, on (edge, post-state), the enabled transitions:
    the explicit ones that match the edge and whose assumption holds, or
    else the otherwise transition, which a test case never takes on an
    input edge (its chain must match inputs explicitly or the run dies).  An
    enabled transition is taken when the invariant of its target holds on
    the post-state; at each state, all assumptions are evaluated before any
    invariant.  The template placeholder stands for the edge's input
    variable in the assumption and invariant of an input-template
    transition.  A ``true`` assumption and a trivial invariant (one
    ``make_automaton`` left out of ``invariants``) are no guard, and an
    explicit transition with a ``true`` assumption is always enabled.
    """
    op = edge.op
    read = op.target if isinstance(op, InputOp) else None
    otherwise = (None if read is not None and aut.kind is AutomatonKind.TEST_CASE
                 else aut._otherwise)
    invariants = aut.invariants
    fixed: list = []
    checks: list = []
    for state in frontier if len(frontier) < 2 else sorted(frontier):
        guarded = []
        certain = False  # an explicit transition is enabled on every post-state
        for t in aut._explicit.get(state, ()):
            _, target, pattern, assumption, _ = t
            if pattern.matches(edge):
                inv = invariants.get(target)
                if assumption is TRUE:
                    certain = True
                    if inv is None:
                        fixed.append(t)
                        continue
                    assumption = None
                guarded.append((t, assumption, inv, read if pattern.is_input_template else None))
        ow = None if certain or otherwise is None else otherwise.get(state)
        if ow is not None:
            inv = invariants.get(ow.target)
            if guarded or inv is not None:
                ow = (ow, None, inv, None)
            else:
                fixed.append(ow)
                ow = None
        if guarded or ow is not None:
            checks.append((state, guarded, ow))
    return (None, StepPlan(aut, edge, checks, fixed)) if checks else _outcome(fixed, aut.finals)


def step_frontier(aut: ArtifactAutomaton, frontier: frozenset, edge: CFAEdge,
                  state_after: ConcreteDataState) -> tuple:
    """Advance a set of simultaneously-reachable states over one path step:
    :func:`plan_step`, then the plan run on the post-state.

    Returns the successor frontier and the final states entered on this step
    (paired with the transition used, for goal identification).  A guard
    that reads a variable the post-state does not bind raises
    :class:`InvalidArtifact` naming the automaton, state, transition and edge.
    """
    frontier, entered = plan_step(aut, frontier, edge)
    return (frontier, entered) if frontier is not None else entered.run(state_after._bindings)


def memo_step(aut: ArtifactAutomaton, plans: dict, frontier: frozenset, edge: CFAEdge,
              bindings: dict) -> tuple:
    """:func:`step_frontier` through a memo: ``plans`` maps (frontier,
    id(edge)) to the :func:`plan_step` of that step, so each step is planned
    once per memo and only the plan's guards run on the post-state, given
    by its bindings (``ConcreteDataState._bindings``).  Edges are keyed by
    identity, because hashing one walks its operation; the caller keeps the
    program, and so its edges, alive as long as the memo."""
    plan = plans.get((frontier, id(edge)))
    if plan is None:
        plan = plans[frontier, id(edge)] = plan_step(aut, frontier, edge)
    frontier, entered = plan
    return (frontier, entered) if frontier is not None else entered.run(bindings)


# ---------------------------------------------------------------------------
# Matching

class MatchVerdict(NamedTuple):
    """Outcome of running an automaton over one concrete path.

    ``k`` is the longest prefix length some run consumes (None when even the
    empty prefix fails the initial invariant).  ``accepted`` means some run
    ends in a final state after any prefix; ``covered`` means some run
    consumes the whole path.
    """

    k: Optional[int]
    accepted: bool
    covered: bool

    @property
    def matched(self) -> bool:
        return self.k is not None


def match_path(aut: ArtifactAutomaton, path: ConcretePath) -> MatchVerdict:
    """Decide acceptance and coverage by folding :func:`step_frontier` over
    the path until the frontier empties."""
    frontier, entered = initial_frontier(aut, path.steps[0].state)
    if not frontier:
        return MatchVerdict(None, False, False)
    accepted = bool(entered)
    k = 0
    for step in path.steps[1:]:
        frontier, entered = step_frontier(aut, frontier, step.incoming, step.state)
        if not frontier:
            break
        accepted = accepted or bool(entered)
        k += 1
    return MatchVerdict(k, accepted, k == path.length)


def accepts(aut: ArtifactAutomaton, path: ConcretePath) -> bool:
    return match_path(aut, path).accepted


def covers(aut: ArtifactAutomaton, path: ConcretePath) -> bool:
    return match_path(aut, path).covered


# ---------------------------------------------------------------------------
# Text format

_TRANS_RE = re.compile(
    r"^trans\s+(\S+)\s*->\s*(\S+)\s+on\s+\(\s*(\*|-?\d+)\s*,\s*(\*|\"[^\"]*\")\s*,"
    r"\s*(\*|-?\d+)\s*\)\s*(?:assume\s+(.+))?$"
)
_OTHERWISE_RE = re.compile(r"^trans\s+(\S+)\s*->\s*(\S+)\s+otherwise\s*$")
_HEADER_RE = re.compile(r"^automaton\s+(\S+)\s+kind=(\S+)\s*$")


def parse_automaton(source: str) -> ArtifactAutomaton:
    """Parse the line-oriented automaton format.

    ::

        automaton <name> kind=<kind>
        state <id> [init] [final] [inv: <pred>]
        trans <from> -> <to> on (<src>|*, "<op-text>"|*, <tgt>|*) [assume <pred>]
        trans <q> -> <q> otherwise

    Transitions written with the same (source, operation, target) share one
    :class:`EdgePattern`, as a goal automaton's do.
    """
    name = None
    kind = None
    states: dict = {}  # the declared states in file order, as keys
    finals: list = []
    invariants: dict = {}
    transitions: list = []
    patterns: dict = {}  # (src, "op", tgt) fields of trans lines -> their shared pattern
    initial = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if name is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError("expected 'automaton <name> kind=<kind>' header", lineno)
            name = m.group(1)
            try:
                kind = AutomatonKind(m.group(2))
            except ValueError:
                known = ", ".join(k.value for k in AutomatonKind)
                raise UnknownKind(
                    f"unknown automaton kind {m.group(2)!r} (known: {known})", lineno
                ) from None
            continue
        if line.startswith("state "):
            rest, inv_mark, inv_text = line[len("state "):].partition(" inv:")
            words = rest.split()
            if not words:
                raise ParseError("state line needs a state id", lineno)
            state_id = words[0]
            if state_id in states:
                raise ParseError(f"state {state_id!r} declared twice", lineno)
            states[state_id] = None
            for flag in words[1:]:
                if flag == "init":
                    if initial is not None:
                        raise ParseError("two states marked init", lineno)
                    initial = state_id
                elif flag == "final":
                    finals.append(state_id)
                else:
                    raise ParseError(f"unknown state flag {flag!r}", lineno)
            if inv_mark:
                try:
                    invariants[state_id] = parse_predicate(inv_text)
                except ParseError as err:
                    raise err.within("bad invariant", lineno, raw, inv_text) from None
            continue
        # no line matches both patterns
        m = _OTHERWISE_RE.match(line)
        if m:
            if m.group(1) != m.group(2):
                raise ParseError("otherwise transitions must be self-loops", lineno)
            transitions.append(Transition(m.group(1), m.group(2), None, TRUE, otherwise=True))
            continue
        m = _TRANS_RE.match(line)
        if m:
            src_text, op_field, tgt_text = fields = m.group(3, 4, 5)
            pattern = patterns.get(fields) or patterns.setdefault(fields, EdgePattern(
                None if src_text == "*" else _integer(src_text, lineno),
                None if op_field == "*" else op_field[1:-1],
                None if tgt_text == "*" else _integer(tgt_text, lineno)))
            assumption = TRUE
            if m.group(6) is not None:
                try:
                    assumption = parse_predicate(m.group(6))
                except ParseError as err:
                    raise err.within("bad assumption", lineno, raw, m.group(6)) from None
            transitions.append(Transition(m.group(1), m.group(2), pattern, assumption))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)
    if name is None:
        raise ParseError("empty automaton source")
    if initial is None:
        raise ParseError("no state marked init")
    try:
        return make_automaton(name, kind, states, initial, finals, transitions, invariants)
    except ValueError as err:
        raise ParseError(str(err)) from None


def serialize_automaton(aut: ArtifactAutomaton) -> str:
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
    lines.extend(f"trans {t}" for t in aut.transitions)
    return "\n".join(lines) + "\n"
