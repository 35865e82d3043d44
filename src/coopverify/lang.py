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
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ParseError, UndefinedVariable, UseBeforeDef
from .predicates import (
    BinExpr,
    Const,
    Expr,
    Interval,
    Not,
    Predicate,
    TokenStream,
    Var,
    _expr_vars,
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
    target: str
    expr: Expr
    text: str


@dataclass(frozen=True)
class Assume:
    condition: Predicate
    text: str


@dataclass(frozen=True)
class InputOp:
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
    if isinstance(op, Assignment):
        out: set = set()
        _expr_vars(op.expr, out)
        return frozenset(out)
    if isinstance(op, Assume):
        return variables_of(op.condition)
    return frozenset()


def op_writes(op: Operation) -> frozenset:
    if isinstance(op, (Assignment, InputOp)):
        return frozenset((op.target,))
    return frozenset()


# ---------------------------------------------------------------------------
# Control-flow automaton

@dataclass(frozen=True)
class CFAEdge:
    """One operation between two locations.

    ``match_source``/``match_target`` are the location ids pattern matching
    sees.  They default to the structural endpoints; program transformations
    that renumber locations (the reducer) set them to the original endpoints
    so artifact automata written against the source program still apply.
    """

    source: int
    op: Operation
    target: int
    match_source: Optional[int] = None
    match_target: Optional[int] = None

    @property
    def match_src(self) -> int:
        return self.source if self.match_source is None else self.match_source

    @property
    def match_tgt(self) -> int:
        return self.target if self.match_target is None else self.match_target

    @cached_property
    def norm_text(self) -> str:
        """The operation text without whitespace, as edge patterns match it."""
        return normalize_text(self.op.text)


@dataclass(frozen=True)
class ControlFlowAutomaton:
    locations: frozenset
    initial: int
    edges: tuple
    variables: frozenset
    _adjacency: dict = field(init=False, repr=False, compare=False, default=None)

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


def make_cfa(locations: Iterable[int], initial: int, edges: Sequence[CFAEdge],
             variables: Iterable[str]) -> ControlFlowAutomaton:
    return ControlFlowAutomaton(frozenset(locations), initial, tuple(edges), frozenset(variables))


# ---------------------------------------------------------------------------
# Data states and concrete paths

class ConcreteDataState(Mapping):
    """Immutable partial map from variable names to integers."""

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Optional[Mapping] = None):
        object.__setattr__(self, "_bindings", dict(bindings) if bindings else {})
        object.__setattr__(self, "_hash", None)

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
        object.__setattr__(state, "_bindings", new)
        object.__setattr__(state, "_hash", None)
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConcreteDataState):
            return self._bindings == other._bindings
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._bindings.items())))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"


EMPTY_STATE = ConcreteDataState()


@dataclass(frozen=True)
class PathStep:
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


# ---------------------------------------------------------------------------
# Strongest post

class _BlockedType:
    """Returned by strongest_post when an assume does not hold."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Blocked"


BLOCKED = _BlockedType()


def strongest_post(state: ConcreteDataState, op: Operation,
                   input_choice: Optional[int] = None):
    """Apply one operation to a data state.

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
        return state.bind(op.target, eval_expr(op.expr, state))
    if isinstance(op, Assume):
        return state if evaluate(op.condition, state) else BLOCKED
    raise TypeError(f"not an operation: {op!r}")


def successors(cfa: ControlFlowAutomaton, state: ConcreteDataState, location: int,
               domain: Interval) -> list:
    """Enabled (edge, post-state) pairs, input values in ascending order."""
    result = []
    for edge in cfa.edges_from(location):
        op = edge.op
        if isinstance(op, InputOp):
            for value in domain:
                result.append((edge, state.bind(op.target, value)))
        else:
            post = strongest_post(state, op)
            if post is not BLOCKED:
                result.append((edge, post))
    return result


@dataclass(frozen=True)
class EnumerationResult:
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
# Definite-assignment analysis

def definitely_assigned(cfa: ControlFlowAutomaton) -> dict:
    """For each location, the variables assigned on every path reaching it.

    A conservative forward must-analysis: the initial location has nothing
    assigned, joins intersect.
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


def check_defined_before_use(cfa: ControlFlowAutomaton) -> None:
    assigned = definitely_assigned(cfa)
    for edge in cfa.edges:
        for name in sorted(op_reads(edge.op)):
            if name not in assigned[edge.source]:
                raise UseBeforeDef(name, edge.source)


# ---------------------------------------------------------------------------
# Program parsing

@dataclass
class _Simple:
    label: Optional[int]
    op: Operation
    entry: int = -1


@dataclass
class _If:
    label: Optional[int]
    cond: Predicate
    then: list
    orelse: list
    entry: int = -1


@dataclass
class _While:
    label: Optional[int]
    cond: Predicate
    body: list
    entry: int = -1


def _reject_template(has_template: bool, ts: TokenStream) -> None:
    if has_template:
        raise ts.error("'chi' is reserved for automata and not allowed in programs")


def _parse_condition(ts: TokenStream) -> Predicate:
    ts.expect("(")
    cond = parse_pred(ts)
    ts.expect(")")
    _reject_template(mentions_template(cond), ts)
    return cond


def _parse_rhs(ts: TokenStream):
    """Returns ('input', None) or ('expr', Expr)."""
    if ts.peek().kind == "keyword" and ts.peek().text == "input":
        ts.next()
        ts.expect("(")
        ts.expect(")")
        return "input", None
    expr = parse_arith(ts)
    _reject_template(_expr_vars(expr, set()), ts)
    return "expr", expr


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
    kind, expr = _parse_rhs(ts)
    if kind == "input":
        return input_op(name.text, declare)
    return assignment_op(name.text, expr, declare)


def _parse_statement(ts: TokenStream):
    label = None
    if ts.peek().kind == "int" and ts.peek(1).text == ":":
        label = int(ts.next().text)
        ts.next()
    tok = ts.peek()
    if tok.kind == "ident" or (tok.kind == "keyword" and tok.text == "int"):
        op = _parse_simple(ts)
        ts.expect(";")
        return _Simple(label, op)
    if tok.kind == "keyword" and tok.text == "if":
        ts.next()
        cond = _parse_condition(ts)
        then = _parse_block(ts)
        orelse = _parse_block(ts) if ts.accept("else") else []
        return _If(label, cond, then, orelse)
    if tok.kind == "keyword" and tok.text == "while":
        ts.next()
        cond = _parse_condition(ts)
        body = _parse_block(ts)
        return _While(label, cond, body)
    raise ts.error("expected a statement")


def _parse_block(ts: TokenStream) -> list:
    ts.expect("{")
    stmts = []
    while not ts.at("}"):
        stmts.append(_parse_statement(ts))
    ts.expect("}")
    return stmts


def parse_program(source: str) -> ControlFlowAutomaton:
    """Parse program text into its control-flow automaton.

    Raises :class:`ParseError` on malformed input and :class:`UseBeforeDef`
    when some operation may read a variable no earlier operation assigned.
    """
    ts = TokenStream(tokenize(source))
    stmts = []
    exit_label = None
    while ts.peek().kind != "eof":
        if (ts.peek().kind == "int" and ts.peek(1).text == ":"
                and ts.peek(2).kind == "eof"):
            exit_label = int(ts.next().text)
            ts.next()
            break
        stmts.append(_parse_statement(ts))

    counter = 0

    def assign_entries(block: list) -> None:
        nonlocal counter
        for stmt in block:
            if stmt.label is not None:
                if stmt.label < counter:
                    raise ParseError(
                        f"location label {stmt.label} is out of order (next free is {counter})"
                    )
                counter = stmt.label
            stmt.entry = counter
            counter += 1
            if isinstance(stmt, _If):
                assign_entries(stmt.then)
                assign_entries(stmt.orelse)
            elif isinstance(stmt, _While):
                assign_entries(stmt.body)

    assign_entries(stmts)
    if exit_label is not None:
        if exit_label < counter:
            raise ParseError(f"exit label {exit_label} is out of order (next free is {counter})")
        exit_location = exit_label
    else:
        exit_location = counter

    edges = []

    def emit(block: list, follow: int) -> None:
        for i, stmt in enumerate(block):
            goes_to = block[i + 1].entry if i + 1 < len(block) else follow
            if isinstance(stmt, _Simple):
                edges.append(CFAEdge(stmt.entry, stmt.op, goes_to))
            elif isinstance(stmt, _If):
                then_target = stmt.then[0].entry if stmt.then else goes_to
                else_target = stmt.orelse[0].entry if stmt.orelse else goes_to
                edges.append(CFAEdge(stmt.entry, assume_op(stmt.cond), then_target))
                edges.append(CFAEdge(stmt.entry, assume_op(Not(stmt.cond)), else_target))
                emit(stmt.then, goes_to)
                emit(stmt.orelse, goes_to)
            else:
                body_target = stmt.body[0].entry if stmt.body else stmt.entry
                edges.append(CFAEdge(stmt.entry, assume_op(stmt.cond), body_target))
                edges.append(CFAEdge(stmt.entry, assume_op(Not(stmt.cond)), goes_to))
                emit(stmt.body, stmt.entry)

    entry_locations: set = set()

    def collect_entries(block: list) -> None:
        for stmt in block:
            entry_locations.add(stmt.entry)
            if isinstance(stmt, _If):
                collect_entries(stmt.then)
                collect_entries(stmt.orelse)
            elif isinstance(stmt, _While):
                collect_entries(stmt.body)

    collect_entries(stmts)
    emit(stmts, exit_location)

    variables: set = set()
    for edge in edges:
        variables |= op_reads(edge.op) | op_writes(edge.op)

    initial = stmts[0].entry if stmts else exit_location
    cfa = make_cfa(entry_locations | {exit_location}, initial, edges, variables)
    check_defined_before_use(cfa)
    return cfa


# ---------------------------------------------------------------------------
# Operation texts and the plain CFA exchange format

def parse_operation(text: str) -> Operation:
    """Parse a single edge operation: statement forms or a bare condition."""
    ts = TokenStream(tokenize(text))
    tok = ts.peek()
    if (tok.kind == "keyword" and tok.text == "int") or (
            tok.kind == "ident" and ts.peek(1).kind == "op" and ts.peek(1).text in ("=", "++", "--")):
        op = _parse_simple(ts)
    else:
        cond = parse_pred(ts)
        _reject_template(mentions_template(cond), ts)
        op = assume_op(cond)
    tail = ts.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail.text!r} in operation", tail.line, tail.column)
    return op


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
            if line != "cfa" and not line.startswith("cfa "):
                raise ParseError("expected 'cfa' header", lineno)
            seen_header = True
            continue
        if line.startswith("vars "):
            variables.update(line.split()[1:])
        elif line.startswith("init "):
            initial = int(line.split()[1])
        elif line.startswith("loc "):
            locations.add(int(line.split()[1]))
        elif line.startswith("edge "):
            head, sep, op_text = line.partition(":")
            if not sep:
                raise ParseError("edge line needs ': <operation>'", lineno)
            parts = head.split()
            try:
                src, arrow, tgt = parts[1], parts[2], parts[3]
                if arrow != "->":
                    raise IndexError
            except IndexError:
                raise ParseError("malformed edge header", lineno) from None
            match_source = match_target = None
            if "[match" in head:
                try:
                    annot = head[head.index("[match") + len("[match"): head.index("]")]
                    ms, _, mt = annot.partition("->")
                    match_source, match_target = int(ms), int(mt)
                except ValueError:
                    raise ParseError("malformed match annotation", lineno) from None
            try:
                op = parse_operation(op_text.strip())
            except ParseError as err:
                raise ParseError(f"bad operation on edge line: {err}", lineno) from None
            edges.append(CFAEdge(int(src), op, int(tgt), match_source, match_target))
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
