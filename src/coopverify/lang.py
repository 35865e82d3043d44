"""The miniature imperative language and its control-flow-automaton form.

A program is a control-flow automaton (CFA): locations connected by edges
holding exactly one operation each.  Operations are

* assignments ``x = e`` (with ``int x = e`` declaration sugar and ``x++`` /
  ``x--`` increments),
* assumes, produced in complementary pairs by lowering ``if`` and ``while``,
* ``x = input()``, the only source of nondeterminism.

Data states are partial maps from identifiers to arbitrary-precision
integers; execution starts from the empty state, so every variable is unbound
until assigned or read from input.  Reading an unbound variable is an error,
never a default.

Source texts may prefix statements with explicit ``N:`` location labels
(monotonically increasing), which pins the CFA location numbering to the
annotated line numbers; this keeps the numbering stable when a line is
removed from an example.  Unlabeled statements are numbered in source order
starting at 0, and synthesized locations always continue after the largest
existing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ParseError, UndefinedVariable, UseBeforeDef
from .predicates import (
    BinExpr,
    Const,
    Expr,
    Interval,
    KEYWORDS,
    Not,
    Predicate,
    TokenStream,
    Var,
    _integer,
    _parse_all,
    eval_expr,
    evaluate,
    expr_text,
    mentions_template,
    normalize_text,
    parse_arith,
    parse_pred,
    pred_text,
    tokenize,
    variables_of,
)

# ---------------------------------------------------------------------------
# Operations

@dataclass(frozen=True)
class Assignment:
    """An assignment ``target = expr``, with its canonical text."""

    target: str
    expr: Expr
    text: str


@dataclass(frozen=True)
class Assume:
    """A branch condition the path must satisfy to pass the edge."""

    condition: Predicate
    text: str


@dataclass(frozen=True)
class InputOp:
    """A read of one input value into ``target``."""

    target: str
    text: str


Operation = Union[Assignment, Assume, InputOp]


def assignment_op(target: str, expr: Expr, declare: bool = False, sugar: Optional[str] = None) -> Assignment:
    if sugar is not None:
        text = sugar
    elif declare:
        text = f"int {target} = {expr_text(expr)}"
    else:
        text = f"{target} = {expr_text(expr)}"
    return Assignment(target, expr, text)


def assume_op(condition: Predicate) -> Assume:
    return Assume(condition, pred_text(condition))


def input_op(target: str, declare: bool = False) -> InputOp:
    text = f"int {target} = input()" if declare else f"{target} = input()"
    return InputOp(target, text)


def op_reads(op: Operation) -> frozenset:
    if isinstance(op, InputOp):
        return frozenset()
    return variables_of(op.expr if isinstance(op, Assignment) else op.condition)


def op_writes(op: Operation) -> frozenset:
    if isinstance(op, (Assignment, InputOp)):
        return frozenset((op.target,))
    return frozenset()


# ---------------------------------------------------------------------------
# Control-flow automaton

@dataclass(frozen=True)
class CFAEdge:
    """One operation between two locations.

    ``match_src``/``match_tgt`` are the location ids pattern matching sees:
    ``match_source``/``match_target`` where given, else the structural
    endpoints.  Program transformations that renumber locations (the
    reducer) give the original endpoints, so artifact automata written
    against the source program still apply.
    """

    source: int
    op: Operation
    target: int
    match_source: Optional[int] = None
    match_target: Optional[int] = None
    # Computed once here, as edge patterns read them on every step: the
    # endpoints matched and the operation text without whitespace.  Not kept
    # by functools' cached_property, whose write to __dict__ would slow every
    # later attribute read on the edge.
    match_src: int = field(init=False, repr=False, compare=False)
    match_tgt: int = field(init=False, repr=False, compare=False)
    norm_text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "match_src",
                           self.source if self.match_source is None else self.match_source)
        object.__setattr__(self, "match_tgt",
                           self.target if self.match_target is None else self.match_target)
        object.__setattr__(self, "norm_text", normalize_text(self.op.text))


@dataclass(frozen=True)
class ControlFlowAutomaton:
    """A program: locations joined by edges that each carry one operation."""

    locations: frozenset
    initial: int
    edges: tuple
    variables: frozenset
    _adjacency: dict = field(init=False, repr=False, compare=False, default=None)
    # The two analyses below are computed once, on first use, and kept in
    # these fields; the parsers' use-before-definition check already asks
    # for the liveness.  They are set with object.__setattr__, not kept by
    # functools' cached_property, whose writes to __dict__ slow every later
    # attribute read on the object.
    _meeting: frozenset = field(init=False, repr=False, compare=False, default=None)
    _live: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.initial not in self.locations:
            raise ValueError(f"initial location {self.initial} is not a location")
        adjacency: dict = {}
        for edge in self.edges:
            if edge.source not in self.locations or edge.target not in self.locations:
                raise ValueError(f"edge {edge} uses an undeclared location")
            adjacency.setdefault(edge.source, []).append(edge)
        object.__setattr__(self, "_adjacency", adjacency)

    def edges_from(self, location: int) -> list:
        return self._adjacency.get(location, [])

    @property
    def meeting_locations(self) -> frozenset:
        """Locations where two different prefixes can reach one configuration.

        These are the initial location, locations with two or more incoming
        edges, and targets of input edges.  Elsewhere a configuration has one
        predecessor location and one deterministic operation into it, and
        every cycle passes through one of these locations.
        """
        if self._meeting is None:
            incoming: dict = {}
            inputs = set()
            for edge in self.edges:
                incoming[edge.target] = incoming.get(edge.target, 0) + 1
                if isinstance(edge.op, InputOp):
                    inputs.add(edge.target)
            joins = {location for location, count in incoming.items() if count >= 2}
            object.__setattr__(self, "_meeting", frozenset(joins | inputs | {self.initial}))
        return self._meeting

    @property
    def live_variables(self) -> dict:
        """For each location, the variables some path from it may read
        before writing them.

        A backward may-analysis: a location's set joins, over its outgoing
        edges, the variables the operation reads and those live at the
        target that it does not write.
        """
        if self._live is None:
            flows = [(edge.source, edge.target, op_reads(edge.op), op_writes(edge.op))
                     for edge in self.edges]
            live: dict = {location: frozenset() for location in self.locations}
            changed = True
            while changed:
                changed = False
                for source, target, reads, writes in reversed(flows):
                    new = live[source] | reads | (live[target] - writes)
                    if new != live[source]:
                        live[source] = new
                        changed = True
            object.__setattr__(self, "_live", live)
        return self._live


def make_cfa(locations: Iterable[int], initial: int, edges: Sequence[CFAEdge],
             variables: Iterable[str]) -> ControlFlowAutomaton:
    return ControlFlowAutomaton(frozenset(locations), initial, tuple(edges), frozenset(variables))


# ---------------------------------------------------------------------------
# Data states and concrete paths

class ConcreteDataState(Mapping):
    """Immutable partial map from variable names to integers."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping] = None):
        self._bindings = dict(bindings) if bindings else {}

    def __getitem__(self, name: str) -> int:
        try:
            return self._bindings[name]
        except KeyError:
            raise UndefinedVariable(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._bindings

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._bindings))

    def __len__(self) -> int:
        return len(self._bindings)

    def bind(self, name: str, value: int) -> "ConcreteDataState":
        new = dict(self._bindings)
        new[name] = value
        state = object.__new__(ConcreteDataState)  # takes ``new`` over without a second copy
        state._bindings = new
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConcreteDataState):
            return self._bindings == other._bindings
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"


EMPTY_STATE = ConcreteDataState()


class PathStep(NamedTuple):
    """One step of a path: the data state and location after ``incoming``.

    A named tuple, not a frozen dataclass: the product explorer builds one
    per pushed successor, and a named tuple takes about half the time to
    build (CPython 3.11).  The explorer builds it with
    ``tuple.__new__(PathStep, (state, location, incoming))``, which skips
    the Python-level ``__new__`` that the named tuple's constructor runs;
    the step is the same."""

    state: ConcreteDataState
    location: int
    incoming: Optional[CFAEdge]  # None only for the initial step


@dataclass(frozen=True)
class ConcretePath:
    """A program path: initial step plus one step per executed edge."""

    steps: tuple

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    @property
    def final_state(self) -> ConcreteDataState:
        return self.steps[-1].state

    @property
    def final_location(self) -> int:
        return self.steps[-1].location

    @property
    def edges(self) -> tuple:
        return tuple(step.incoming for step in self.steps[1:])

    def extended(self, step: PathStep) -> "ConcretePath":
        return ConcretePath(self.steps + (step,))

    def inputs(self) -> tuple:
        values = []
        for step in self.steps[1:]:
            op = step.incoming.op
            if isinstance(op, InputOp):
                values.append(step.state[op.target])
        return tuple(values)

    def __str__(self) -> str:
        parts = [f"{self.steps[0].location}"]
        for step in self.steps[1:]:
            parts.append(f"--{step.incoming.op.text}--> {step.location} {step.state}")
        return " ".join(parts)


def successors(cfa: ControlFlowAutomaton, state: ConcreteDataState, location: int,
               domain: Interval) -> list:
    """Enabled (edge, post-state) pairs, input values in ascending order.

    An assume edge is enabled where its condition holds and keeps the
    state, an assignment binds its target to the expression's value, and
    an input edge is enabled once per domain value, bound to its target.
    Each operation is told apart once, by its type, and evaluated on the
    state's bindings, so that every variable read is a dict read."""
    result = []
    bindings = state._bindings
    for edge in cfa.edges_from(location):
        op = edge.op
        kind = type(op)
        if kind is Assume:
            if evaluate(op.condition, bindings):
                result.append((edge, state))
        elif kind is Assignment:
            result.append((edge, state.bind(op.target, eval_expr(op.expr, bindings))))
        elif kind is InputOp:
            for value in domain:
                result.append((edge, state.bind(op.target, value)))
        else:
            raise TypeError(f"not an operation: {op!r}")
    return result


class EnumerationResult(NamedTuple):
    """The maximal paths within a step bound, and whether the bound cut any."""

    paths: tuple
    truncated: bool


def enumerate_paths(cfa: ControlFlowAutomaton, domain: Interval,
                    max_steps: int) -> EnumerationResult:
    """All maximal concrete paths of length <= max_steps, depth-first.

    A path is maximal when no edge is enabled at its end.  If some path
    reaches ``max_steps`` while still extendable it is dropped and the
    truncated flag is set, so the result only ever contains genuinely
    maximal paths.  The library explores the product instead (see
    :mod:`coopverify.product`); this enumeration stays for the reference
    tests, and because the benchmark's tracer binds it by name.
    """
    paths = []
    truncated = False
    trail: list = []  # the steps of the current prefix, cut back on backtrack
    stack = [(0, PathStep(EMPTY_STATE, cfa.initial, None))]
    while stack:
        depth, step = stack.pop()
        del trail[depth:]
        trail.append(step)
        succs = successors(cfa, step.state, step.location, domain)
        if not succs:
            paths.append(ConcretePath(tuple(trail)))
            continue
        if depth >= max_steps:
            truncated = True
            continue
        for edge, post in reversed(succs):
            stack.append((depth + 1, PathStep(post, edge.target, edge)))
    return EnumerationResult(tuple(paths), truncated)


# ---------------------------------------------------------------------------
# Use before definition

def check_defined_before_use(cfa: ControlFlowAutomaton) -> None:
    """Raise :class:`UseBeforeDef` at the first edge, in edge order, that may
    read a variable no earlier operation on some path assigned, naming its
    first such variable in sorted order and the edge's source location.

    Nothing is bound at the start, so only a variable live at the initial
    location (see ``live_variables``) can be read unassigned.  For each, a
    forward walk from the initial location over the edges that do not write
    it finds the locations some path reaches with it still unassigned.
    """
    unassigned = {}
    for name in cfa.live_variables[cfa.initial]:
        reached = {cfa.initial}
        work = [cfa.initial]
        while work:
            for edge in cfa.edges_from(work.pop()):
                if edge.target not in reached and name not in op_writes(edge.op):
                    reached.add(edge.target)
                    work.append(edge.target)
        unassigned[name] = reached
    for edge in cfa.edges:
        for name in sorted(op_reads(edge.op)):
            if edge.source in unassigned.get(name, ()):
                raise UseBeforeDef(name, edge.source)


# ---------------------------------------------------------------------------
# Program parsing

def _reject_template(has_template: bool, ts: TokenStream) -> None:
    if has_template:
        raise ts.error("'chi' is reserved for automata and not allowed in programs")


def _parse_condition(ts: TokenStream) -> Predicate:
    ts.expect("(")
    cond = parse_pred(ts)
    ts.expect(")")
    _reject_template(mentions_template(cond), ts)
    return cond


def _parse_simple(ts: TokenStream) -> Operation:
    """An assignment or input operation: ``int x = e``, ``x = e``,
    ``x = input()``, ``x++`` or ``x--``, in a statement or on an edge.  The
    stream is at ``int`` or at the identifier."""
    declare = ts.accept("int")
    name = ts.peek()
    if name.kind != "ident":
        raise ts.error("expected a variable name after 'int'")
    ts.next()
    if not declare and ts.peek().kind == "op" and ts.peek().text in ("++", "--"):
        sugar = ts.next().text
        step = BinExpr(sugar[0], Var(name.text), Const(1))
        return assignment_op(name.text, step, sugar=f"{name.text}{sugar}")
    ts.expect("=")
    if ts.peek().kind == "keyword" and ts.peek().text == "input":
        ts.next()
        ts.expect("(")
        ts.expect(")")
        return input_op(name.text, declare)
    expr = parse_arith(ts)
    _reject_template(mentions_template(expr), ts)
    return assignment_op(name.text, expr, declare)


class _Lowering:
    """One recursive-descent pass from statements to CFA edges.

    A statement takes its location when its parsing starts and appends its
    edges at once, as ``[source, op, target]`` records.  An edge into
    whatever follows stays open, its target ``None``, until the next
    statement, the end of its block or the end of the text backpatches it.
    The state is kept on an object, not in nested closures, whose reference
    cycle would hold the token list until the cyclic collector runs.
    """

    def __init__(self, source: str):
        self.ts = TokenStream(tokenize(source))
        self.counter = 0
        self.locations: list = []
        self.edges: list = []
        self.label_error: Optional[ParseError] = None  # raised after the pass

    def locate(self, label: Optional[int], kind: str = "location") -> int:
        """The next free location, or ``label`` unless it is below that."""
        if label is not None:
            if label >= self.counter:
                self.counter = label
            elif self.label_error is None:
                self.label_error = ParseError(
                    f"{kind} label {label} is out of order (next free is {self.counter})")
        self.locations.append(self.counter)
        self.counter += 1
        return self.locations[-1]

    def edge(self, source: int, op: Operation) -> list:
        record = [source, op, None]
        self.edges.append(record)
        return record

    def statement(self, pending: list) -> list:
        """Parse one statement, backpatch ``pending`` to its location and
        return the edges it leaves open."""
        ts = self.ts
        label = None
        if ts.peek().kind == "int" and ts.peek(1).text == ":":
            tok = ts.next()
            label = _integer(tok.text, tok.line, tok.column)
            ts.next()
        entry = self.locate(label)
        for record in pending:
            record[2] = entry
        tok = ts.peek()
        if tok.kind == "ident" or (tok.kind == "keyword" and tok.text == "int"):
            op = _parse_simple(ts)
            ts.expect(";")
            return [self.edge(entry, op)]
        if tok.kind != "keyword" or tok.text not in ("if", "while"):
            raise ts.error("expected a statement")
        ts.next()
        cond = _parse_condition(ts)
        into = self.edge(entry, assume_op(cond))
        past = self.edge(entry, assume_op(Not(cond)))
        if tok.text == "if":
            return self.block([into]) + (self.block([past]) if ts.accept("else") else [past])
        for record in self.block([into]):
            record[2] = entry
        return [past]

    def block(self, pending: list) -> list:
        """Parse ``{ statement* }``; past an empty block ``pending`` stays open."""
        self.ts.expect("{")
        while not self.ts.at("}"):
            pending = self.statement(pending)
        self.ts.expect("}")
        return pending


def parse_program(source: str) -> ControlFlowAutomaton:
    """Parse program text into its control-flow automaton.

    Raises :class:`ParseError` on malformed input and :class:`UseBeforeDef`
    when some operation may read a variable no earlier operation assigned.
    """
    lowering = _Lowering(source)
    ts = lowering.ts
    pending: list = []
    exit_label = None
    try:
        while ts.peek().kind != "eof":
            if (ts.peek().kind == "int" and ts.peek(1).text == ":"
                    and ts.peek(2).kind == "eof"):
                tok = ts.next()
                exit_label = _integer(tok.text, tok.line, tok.column)
                ts.next()
                break
            pending = lowering.statement(pending)
    except RecursionError:
        raise ts.error("input nested too deeply to process") from None
    exit_location = lowering.locate(exit_label, "exit")
    if lowering.label_error is not None:
        raise lowering.label_error
    for record in pending:
        record[2] = exit_location
    edges = [CFAEdge(*record) for record in lowering.edges]
    variables = set().union(*(op_reads(edge.op) | op_writes(edge.op) for edge in edges))
    cfa = make_cfa(lowering.locations, lowering.locations[0], edges, variables)
    check_defined_before_use(cfa)
    return cfa


# ---------------------------------------------------------------------------
# Operation texts and the plain CFA exchange format

def parse_operation(text: str) -> Operation:
    """Parse a single edge operation: statement forms or a bare condition."""
    return _parse_all(text, _parse_operation)


def _parse_operation(ts: TokenStream) -> Operation:
    tok = ts.peek()
    if (tok.kind == "keyword" and tok.text == "int") or (
            tok.kind == "ident" and ts.peek(1).kind == "op" and ts.peek(1).text in ("=", "++", "--")):
        return _parse_simple(ts)
    cond = parse_pred(ts)
    _reject_template(mentions_template(cond), ts)
    return assume_op(cond)


def serialize_cfa(cfa: ControlFlowAutomaton) -> str:
    """Plain-text CFA form; the output of program transformations.

    The statement grammar cannot express arbitrary graphs, so reduced
    programs round-trip through this format instead of ``.imp`` source.
    """
    lines = ["cfa"]
    if cfa.variables:
        lines.append("vars " + " ".join(sorted(cfa.variables)))
    lines.append(f"init {cfa.initial}")
    for loc in sorted(cfa.locations):
        lines.append(f"loc {loc}")
    for edge in cfa.edges:
        head = f"edge {edge.source} -> {edge.target}"
        if edge.match_source is not None or edge.match_target is not None:
            head += f" [match {edge.match_src} -> {edge.match_tgt}]"
        lines.append(f"{head}: {edge.op.text}")
    return "\n".join(lines) + "\n"


def parse_cfa(source: str) -> ControlFlowAutomaton:
    locations: set = set()
    edges = []
    variables: set = set()
    initial = None
    seen_header = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line != "cfa":
                raise ParseError("expected 'cfa' header", lineno)
            seen_header = True
            continue
        if line.startswith("vars "):
            for word in line.split()[1:]:
                if not (word.isascii() and word.isidentifier()) or word in KEYWORDS:
                    raise ParseError(f"expected a variable name, found {word!r}", lineno)
                variables.add(word)
        elif line.startswith(("init ", "loc ")):
            words = line.split()
            if len(words) != 2:
                raise ParseError(f"expected '{words[0]} <location>'", lineno)
            if words[0] == "init":
                initial = _integer(words[1], lineno)
            else:
                locations.add(_integer(words[1], lineno))
        elif line.startswith("edge "):
            head, sep, op_text = line.partition(":")
            if not sep:
                raise ParseError("edge line needs ': <operation>'", lineno)
            head, annotated, annot = head.partition("[match")
            words = head.split()
            if len(words) != 4 or words[2] != "->":
                raise ParseError("malformed edge header", lineno)
            match_source = match_target = None
            if annotated:
                pair, closed, rest = annot.partition("]")
                ms, arrow, mt = pair.partition("->")
                if not (closed and arrow) or rest.strip():
                    raise ParseError("malformed match annotation", lineno)
                match_source = _integer(ms.strip(), lineno)
                match_target = _integer(mt.strip(), lineno)
            try:
                op = parse_operation(op_text)
            except ParseError as err:
                raise err.within("bad operation on edge line", lineno, raw, op_text) from None
            edges.append(CFAEdge(_integer(words[1], lineno), op, _integer(words[3], lineno),
                                 match_source, match_target))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if initial is None:
        raise ParseError("missing 'init' line")
    for edge in edges:
        variables |= op_reads(edge.op) | op_writes(edge.op)
        locations.update((edge.source, edge.target))
    cfa = make_cfa(locations, initial, edges, variables)
    check_defined_before_use(cfa)
    return cfa
