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

:func:`match_path` decides both by folding :func:`step_frontier`, the step
the product explorer of :mod:`coopverify.product` runs, over the path: an
on-the-fly determinization keeping the frontier of reachable automaton
states per prefix.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import (DuplicateOtherwise, InvalidArtifact, ParseError, UndefinedVariable,
                     UnknownKind)
from .lang import CFAEdge, ConcretePath, InputOp
from .predicates import (
    TRUE,
    BoolConst,
    Predicate,
    evaluate,
    normalize_text,
    parse_predicate,
    pred_text,
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
    # op_text without whitespace, computed once; interned because the
    # patterns of a long witness share a few distinct edge texts
    norm_text: Optional[str] = field(init=False, repr=False, compare=False)
    # whether the text is the input template, computed once for the step
    is_input_template: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = None if self.op_text is None else sys.intern(normalize_text(self.op_text))
        object.__setattr__(self, "norm_text", norm)
        object.__setattr__(self, "is_input_template", norm == _INPUT_TEMPLATE_NORM)

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
        src = "*" if self.source is None else str(self.source)
        tgt = "*" if self.target is None else str(self.target)
        op = "*" if self.op_text is None else f'"{self.op_text}"'
        return f"({src}, {op}, {tgt})"


ANY_EDGE = EdgePattern(None, None, None)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    pattern: Optional[EdgePattern]  # None exactly for otherwise transitions
    assumption: Predicate = TRUE
    otherwise: bool = False

    def __str__(self) -> str:
        if self.otherwise:
            return f"{self.source} -> {self.target} otherwise"
        text = f"{self.source} -> {self.target} on {self.pattern}"
        if self.assumption != TRUE:
            text += f" assume {pred_text(self.assumption)}"
        return text


@dataclass(frozen=True)
class ArtifactAutomaton:
    name: str
    kind: AutomatonKind
    states: tuple
    initial: str
    finals: frozenset
    invariants: dict  # only non-trivial entries
    transitions: tuple
    # state -> (explicit transitions, otherwise transition or None)
    _moves: dict = field(init=False, repr=False, compare=False, default=None)

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
            if t.source not in declared or t.target not in declared:
                raise ValueError(f"transition {t} uses an undeclared state")
            if not t.otherwise:
                explicit.setdefault(t.source, []).append(t)
            elif t.source in otherwise:
                raise DuplicateOtherwise(f"state {t.source!r} has two otherwise transitions")
            else:
                otherwise[t.source] = t
        moves = {q: (tuple(explicit.get(q, ())), otherwise.get(q))
                 for q in explicit.keys() | otherwise.keys()}
        object.__setattr__(self, "_moves", moves)

    def invariant(self, state: str) -> Predicate:
        return self.invariants.get(state, TRUE)

    def explicit_from(self, state: str) -> tuple:
        return self._moves.get(state, _NO_MOVES)[0]

    def otherwise_at(self, state: str) -> Optional[Transition]:
        return self._moves.get(state, _NO_MOVES)[1]


_NO_MOVES = ((), None)


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
# Transition enabledness

def _input_target(edge: CFAEdge) -> Optional[str]:
    """The variable receiving the input value on an input edge, else None."""
    op = edge.op
    return op.target if isinstance(op, InputOp) else None


def _taken(aut: ArtifactAutomaton, state: str, edge: CFAEdge, state_after,
           read: Optional[str]) -> Sequence[Transition]:
    """Transitions a run in ``state`` takes on (edge, post-state).

    The enabled ones are the explicit transitions that fire, each matched
    and its assumption evaluated once, or else the otherwise transition,
    which a test case never takes on an input edge: its chain must match
    inputs explicitly or the run dies.  An enabled transition is taken
    when the invariant of its target holds on the post-state; all
    assumptions are evaluated before any invariant.  ``read`` is
    :func:`_input_target` of the edge, which the template placeholder of an
    input-template transition stands for.  An assumption or invariant that
    reads a variable the post-state does not bind raises
    :class:`InvalidArtifact` naming the automaton, state, transition and edge.
    """
    explicit, ow = aut._moves.get(state, _NO_MOVES)
    invariants = aut.invariants
    try:
        enabled = []
        for t in explicit:
            if t.pattern.matches(edge) and evaluate(
                    t.assumption, state_after, read if t.pattern.is_input_template else None):
                enabled.append(t)
        if enabled:
            taken = []
            for t in enabled:
                if evaluate(invariants.get(t.target, TRUE), state_after,
                            read if t.pattern.is_input_template else None):
                    taken.append(t)
            return taken
        t = ow
        # the otherwise transition has no pattern, so no placeholder binding
        if (ow is None or (read is not None and aut.kind is AutomatonKind.TEST_CASE)
                or not evaluate(invariants.get(ow.target, TRUE), state_after)):
            return ()
        return (ow,)
    except UndefinedVariable as err:
        raise InvalidArtifact(
            f"automaton {aut.name}, state {state}, transition {t}, edge "
            f"({edge.match_src}, {edge.op.text}, {edge.match_tgt}): {err}") from err


@dataclass(frozen=True)
class FinalEntry:
    """Record of a run reaching a final state; identifies one coverage goal."""

    transition: Optional[Transition]  # None when the initial state is final
    state: str


def initial_frontier(aut: ArtifactAutomaton, initial_state) -> tuple:
    """Frontier for the empty prefix: the initial automaton state, provided
    its invariant holds on the (empty) initial data state."""
    if not evaluate(aut.invariant(aut.initial), initial_state):
        return frozenset(), frozenset()
    entries = frozenset(
        {FinalEntry(None, aut.initial)} if aut.initial in aut.finals else ()
    )
    return frozenset((aut.initial,)), entries


_NOTHING = frozenset()


def step_frontier(aut: ArtifactAutomaton, frontier: frozenset, edge: CFAEdge,
                  state_after) -> tuple:
    """Advance a set of simultaneously-reachable states over one path step.

    Returns the successor frontier and the final states entered on this step
    (paired with the transition used, for goal identification).  The states
    of the frontier are stepped in sorted order, each by :func:`_taken`.  A
    one-state frontier that takes one transition, the common case, builds its
    two sets directly.
    """
    read = _input_target(edge)
    if len(frontier) == 1:
        (state,) = frontier
        taken = _taken(aut, state, edge, state_after, read)
        if len(taken) == 1:
            (t,) = taken
            target = t.target
            entered = (frozenset((FinalEntry(t, target),)) if target in aut.finals
                       else _NOTHING)
            return frozenset((target,)), entered
    else:
        taken = [t for q in sorted(frontier) for t in _taken(aut, q, edge, state_after, read)]
    if not taken:
        return _NOTHING, _NOTHING
    finals = aut.finals
    return (frozenset(t.target for t in taken),
            frozenset(FinalEntry(t, t.target) for t in taken if t.target in finals))


# ---------------------------------------------------------------------------
# Matching

@dataclass(frozen=True)
class MatchVerdict:
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
    """
    name = None
    kind = None
    states: list = []
    declared: set = set()  # the states, for the duplicate check
    finals: list = []
    invariants: dict = {}
    transitions: list = []
    initial = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
            rest = line[len("state "):]
            inv_text = None
            if " inv:" in rest:
                rest, _, inv_text = rest.partition(" inv:")
            words = rest.split()
            if not words:
                raise ParseError("state line needs a state id", lineno)
            state_id = words[0]
            if state_id in declared:
                raise ParseError(f"state {state_id!r} declared twice", lineno)
            declared.add(state_id)
            states.append(state_id)
            for flag in words[1:]:
                if flag == "init":
                    if initial is not None:
                        raise ParseError("two states marked init", lineno)
                    initial = state_id
                elif flag == "final":
                    finals.append(state_id)
                else:
                    raise ParseError(f"unknown state flag {flag!r}", lineno)
            if inv_text is not None:
                try:
                    invariants[state_id] = parse_predicate(inv_text.strip())
                except ParseError as err:
                    raise ParseError(f"bad invariant: {err}", lineno) from None
            continue
        m = _OTHERWISE_RE.match(line)
        if m:
            if m.group(1) != m.group(2):
                raise ParseError("otherwise transitions must be self-loops", lineno)
            transitions.append(Transition(m.group(1), m.group(2), None, TRUE, otherwise=True))
            continue
        m = _TRANS_RE.match(line)
        if m:
            src_text, op_field, tgt_text = m.group(3), m.group(4), m.group(5)
            pattern = EdgePattern(
                None if src_text == "*" else int(src_text),
                None if op_field == "*" else op_field[1:-1],
                None if tgt_text == "*" else int(tgt_text),
            )
            assumption = TRUE
            if m.group(6) is not None:
                try:
                    assumption = parse_predicate(m.group(6).strip())
                except ParseError as err:
                    raise ParseError(f"bad assumption: {err}", lineno) from None
            transitions.append(Transition(m.group(1), m.group(2), pattern, assumption))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)
    if name is None:
        raise ParseError("empty automaton source")
    if initial is None:
        raise ParseError("no state marked init")
    try:
        return make_automaton(name, kind, states, initial, finals, transitions, invariants)
    except (ValueError, DuplicateOtherwise) as err:
        if isinstance(err, DuplicateOtherwise):
            raise
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
    for t in aut.transitions:
        if t.otherwise:
            lines.append(f"trans {t.source} -> {t.target} otherwise")
        else:
            line = f"trans {t.source} -> {t.target} on {t.pattern}"
            if t.assumption != TRUE:
                line += f" assume {pred_text(t.assumption)}"
            lines.append(line)
    return "\n".join(lines) + "\n"
