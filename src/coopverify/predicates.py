"""Integer expressions and boolean state conditions.

One condition language serves the whole toolkit: program branch conditions,
transition assumptions, and state invariants are all comparisons over integer
expressions combined with ``&&``, ``||`` and ``!``.  Expressions use ``+``,
``-`` and ``*`` over identifiers and (arbitrary-precision) integer literals.

``chi`` is a reserved template placeholder: transition assumptions of
test-case automata compare it against a literal, and the matcher binds it to
the variable that received the input value on the matched edge.  It is not a
legal identifier in programs.

Evaluation is over partial data states (any mapping from identifier to int).
Reading an unbound variable raises :class:`UndefinedVariable` rather than
defaulting, so callers can tell "false" from "not evaluable".
"""

from __future__ import annotations

import ast
import functools
import itertools
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, NoReturn, Optional, Sequence

from .errors import ParseError, UnboundTemplate, UndefinedVariable

# ---------------------------------------------------------------------------
# Abstract syntax

class _Node:
    """Equality of syntax-tree nodes: a node is a named tuple of its fields,
    and equals only a node of its own class with equal fields, so ``And(p,
    q) != Or(p, q)``, ``Neg(x) != Not(x)`` and no node equals a plain tuple.
    ``!=`` is overridden too, or it would fall back to the tuple's own.  The
    hash is the field tuple's: equal nodes hash alike, and two classes with
    equal fields share a hash, which costs a comparison at most."""

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __hash__(self):
        # a Python frame per level, so hashing too deep a tree raises
        # RecursionError; ``__hash__ = tuple.__hash__`` would recurse in C
        # alone and overflow the C stack
        return tuple.__hash__(self)


class Expr(_Node):
    """Base class for integer expressions.

    Expressions and predicates are immutable named tuples of their fields,
    compared by class and value (see :class:`_Node`).  Each node class has
    no ``__slots__``, so that :func:`evaluate` can keep the function it
    compiles on the node."""


class Const(Expr, namedtuple("Const", "value")):
    """An integer literal."""


class Var(Expr, namedtuple("Var", "name")):
    """A program variable, read from the data state."""


class TemplateVar(Expr, namedtuple("TemplateVar", "")):
    """The placeholder ``chi``; resolved to a concrete variable at match time."""


CHI = TemplateVar()


class Neg(Expr, namedtuple("Neg", "operand")):
    """Arithmetic negation, ``-operand``."""


class BinExpr(Expr, namedtuple("BinExpr", "op left right")):
    """A binary arithmetic operation, ``left op right``; ``op`` is one of
    ``+ - *``."""


class Predicate(_Node):
    """Base class for boolean conditions over a data state; its nodes are
    named tuples as :class:`Expr`'s are."""


class BoolConst(Predicate, namedtuple("BoolConst", "value")):
    """The constant ``true`` or ``false``."""


TRUE = BoolConst(True)
FALSE = BoolConst(False)

COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")


class Comparison(Predicate, namedtuple("Comparison", "op left right")):
    """An integer comparison, ``left op right``; ``op`` is one of
    :data:`COMPARISON_OPS`."""


class Not(Predicate, namedtuple("Not", "operand")):
    """Negation, ``!operand``."""


class And(Predicate, namedtuple("And", "left right")):
    """Conjunction, ``left && right``."""


class Or(Predicate, namedtuple("Or", "left right")):
    """Disjunction, ``left || right``."""


def conjoin(preds: Sequence[Predicate]) -> Predicate:
    """Left-nested conjunction, the tree the parser builds for ``a && b && c``;
    the empty conjunction is true."""
    return functools.reduce(And, preds) if preds else TRUE


def disjoin(preds: Sequence[Predicate]) -> Predicate:
    """Left-nested disjunction, the tree the parser builds for ``a || b || c``;
    the empty disjunction is false."""
    return functools.reduce(Or, preds) if preds else FALSE


# ---------------------------------------------------------------------------
# Evaluation
#
# A predicate or expression runs as a function compiled from its tree the
# first time it is evaluated, and kept in the node's ``__dict__``, outside
# the fields of its named tuple, so equality, hashing and repr do not see it.

def evaluate(pred: Predicate, state: Mapping[str, int], chi: Optional[str] = None) -> bool:
    """Evaluate ``pred`` on ``state``.

    ``chi`` optionally names the variable the template placeholder stands for.
    Raises :class:`UndefinedVariable` when the predicate reads an unbound
    variable and :class:`UnboundTemplate` when ``chi`` occurs without binding,
    each only where evaluation reaches the read (``&&`` and ``||``
    short-circuit).  The first evaluation of a node compiles it; a malformed
    node raises then, with what the lowering raises, whether or not a
    short-circuit would skip the malformed part.
    """
    try:
        holds = pred._holds
    except AttributeError:
        holds = _compile_on_node(pred, "_holds", _lower_pred)
    try:
        return holds(state, chi)
    except KeyError as missing:  # a plain dict without the variable
        raise UndefinedVariable(missing.args[0]) from None


def eval_expr(expr: Expr, state: Mapping[str, int], chi: Optional[str] = None) -> int:
    """Evaluate ``expr`` on ``state``, with the exceptions of :func:`evaluate`."""
    try:
        value = expr._value
    except AttributeError:
        value = _compile_on_node(expr, "_value", _lower_expr)
    try:
        return value(state, chi)
    except KeyError as missing:
        raise UndefinedVariable(missing.args[0]) from None


# The child fields of each inner node, in field order; every other node is
# a leaf.  One walk over this table serves expressions and predicates alike.
_CHILDREN = {Neg: ("operand",), BinExpr: ("left", "right"), Comparison: ("left", "right"),
             Not: ("operand",), And: ("left", "right"), Or: ("left", "right")}


def _postorder(tree: Expr | Predicate) -> Iterator:
    """The nodes of an expression or predicate, each after its children;
    iterative, so it walks a tree of any depth the parser builds."""
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        names = _CHILDREN.get(type(node), ())
        if expanded or not names:
            yield node
        else:
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(names))


def variables_of(tree: Expr | Predicate) -> frozenset:
    """Variable names read by an expression or predicate (the template
    placeholder excluded)."""
    return frozenset(node.name for node in _postorder(tree) if isinstance(node, Var))


def mentions_template(tree: Expr | Predicate) -> bool:
    return any(isinstance(node, TemplateVar) for node in _postorder(tree))


def substitute_template(tree: Expr | Predicate, replacement: Expr) -> Expr | Predicate:
    """Return ``tree`` with every template placeholder replaced by
    ``replacement``; subtrees without one are kept as they are."""
    built: list = []  # the substituted subtrees whose parent is not yet built
    for node in _postorder(tree):
        names = _CHILDREN.get(type(node), ())
        if names:
            children = built[-len(names):]
            del built[-len(names):]
            if any(new is not getattr(node, name) for name, new in zip(names, children)):
                node = node._replace(**dict(zip(names, children)))
        elif isinstance(node, TemplateVar):
            node = replacement
        built.append(node)
    return built[0]


# ---------------------------------------------------------------------------
# Canonical text

_EXPR_PREC = {"+": 1, "-": 1, "*": 2}


def expr_text(expr: Expr) -> str:
    """Render an expression with canonical (minimal, unambiguous) parentheses."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, TemplateVar):
        return "chi"
    if isinstance(expr, Neg):
        inner = expr_text(expr.operand)
        # an operand printed with a leading "-" would give "--", the decrement token
        if isinstance(expr.operand, BinExpr) or inner.startswith("-"):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(expr, BinExpr):
        prec = _EXPR_PREC[expr.op]
        left = expr_text(expr.left)
        right = expr_text(expr.right)
        if isinstance(expr.left, BinExpr) and _EXPR_PREC[expr.left.op] < prec:
            left = f"({left})"
        if isinstance(expr.right, BinExpr) and _EXPR_PREC[expr.right.op] <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression: {expr!r}")


def pred_text(pred: Predicate) -> str:
    """Render a predicate; negation always parenthesizes its operand."""
    if isinstance(pred, BoolConst):
        return "true" if pred.value else "false"
    if isinstance(pred, Comparison):
        return f"{expr_text(pred.left)} {pred.op} {expr_text(pred.right)}"
    if isinstance(pred, Not):
        return f"!({pred_text(pred.operand)})"
    if isinstance(pred, And):
        parts = []
        for side in (pred.left, pred.right):
            text = pred_text(side)
            if isinstance(side, Or):
                text = f"({text})"
            parts.append(text)
        return " && ".join(parts)
    if isinstance(pred, Or):
        return f"{pred_text(pred.left)} || {pred_text(pred.right)}"
    raise TypeError(f"not a predicate: {pred!r}")


def normalize_text(text: str) -> str:
    """Whitespace-free form used for textual operation matching."""
    return "".join(text.split())


# ---------------------------------------------------------------------------
# Lexer (shared with the program and automaton parsers)

KEYWORDS = {"int", "if", "else", "while", "input", "true", "false", "chi"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\+\+|--|&&|\|\||==|!=|<=|>=|->|[-+*<>=!(){};:,])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """One lexical token with its 1-based source position."""

    kind: str  # int | ident | keyword | op | eof
    text: str
    line: int
    column: int


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _integer(text: str, line: Optional[int] = None, column: Optional[int] = None) -> int:
    """The value of an integer field of input text, written as ASCII
    ``-?[0-9]+``; anything else (``1_0``, ``+4``, other scripts' digits,
    surrounding space), or a number too long for ``int`` to convert, is a
    :class:`ParseError` at its position."""
    try:
        if _INTEGER_RE.fullmatch(text):
            return int(text)
    except ValueError:
        pass
    shown = repr(text) if len(text) <= 24 else f"{text[:20]!r}... ({len(text)} characters)"
    raise ParseError(f"expected an integer, found {shown}", line, column)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            for i, ch in enumerate(text):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        elif kind == "comment":
            pass
        elif kind == "ident":
            tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, line, col))
        else:
            tokens.append(Token(kind, text, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with save/restore for small backtracks."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("op", "keyword")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message + f" (found {tok.text!r})", tok.line, tok.column)


# ---------------------------------------------------------------------------
# Parsing

def parse_arith(ts: TokenStream) -> Expr:
    expr = _parse_term(ts)
    while ts.peek().text in ("+", "-") and ts.peek().kind == "op":
        op = ts.next().text
        expr = BinExpr(op, expr, _parse_term(ts))
    return expr


def _parse_term(ts: TokenStream) -> Expr:
    expr = _parse_factor(ts)
    while ts.peek().text == "*" and ts.peek().kind == "op":
        ts.next()
        expr = BinExpr("*", expr, _parse_factor(ts))
    return expr


def _parse_factor(ts: TokenStream) -> Expr:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return Const(_integer(tok.text, tok.line, tok.column))
    if tok.kind == "op" and tok.text == "-":
        ts.next()
        operand = _parse_factor(ts)
        # fold literal negation so "-3" round-trips as a plain constant
        if isinstance(operand, Const):
            return Const(-operand.value)
        return Neg(operand)
    if tok.kind == "keyword" and tok.text == "chi":
        ts.next()
        return CHI
    if tok.kind == "ident":
        ts.next()
        return Var(tok.text)
    if tok.kind == "op" and tok.text == "(":
        ts.next()
        expr = parse_arith(ts)
        ts.expect(")")
        return expr
    raise ts.error("expected an expression")


def parse_pred(ts: TokenStream) -> Predicate:
    pred = _parse_conjunction(ts)
    while ts.accept("||"):
        pred = Or(pred, _parse_conjunction(ts))
    return pred


def _parse_conjunction(ts: TokenStream) -> Predicate:
    pred = _parse_pred_unary(ts)
    while ts.accept("&&"):
        pred = And(pred, _parse_pred_unary(ts))
    return pred


def _parse_pred_unary(ts: TokenStream) -> Predicate:
    if ts.accept("!"):
        return Not(_parse_pred_unary(ts))
    if ts.peek().kind == "keyword" and ts.peek().text in ("true", "false"):
        return TRUE if ts.next().text == "true" else FALSE
    if ts.at("("):
        # Either a parenthesized predicate or the start of an arithmetic
        # operand; try the comparison route first and backtrack on failure.
        saved = ts.index
        try:
            return _parse_comparison(ts)
        except ParseError:
            ts.index = saved
        ts.expect("(")
        pred = parse_pred(ts)
        ts.expect(")")
        return pred
    return _parse_comparison(ts)


def _parse_comparison(ts: TokenStream) -> Predicate:
    left = parse_arith(ts)
    tok = ts.peek()
    if tok.kind == "op" and tok.text in COMPARISON_OPS:
        ts.next()
        return Comparison(tok.text, left, parse_arith(ts))
    raise ts.error("expected a comparison operator")


def _parse_all(source: str, parser) -> object:
    ts = TokenStream(tokenize(source))
    try:
        result = parser(ts)
    except RecursionError:
        raise ts.error("input nested too deeply to process") from None
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return result


def parse_predicate(source: str) -> Predicate:
    """Parse a condition such as ``a != b`` or ``!(a < x) && y == 0``."""
    return _parse_all(source, parse_pred)


def parse_expression(source: str) -> Expr:
    """Parse an integer expression such as ``a + 2 * b``."""
    return _parse_all(source, parse_arith)


# ---------------------------------------------------------------------------
# Bounded domains and the bounded tautology check

@dataclass(frozen=True)
class Interval:
    """A finite, inclusive integer interval used as an input/value domain."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def values_by_magnitude(self) -> list[int]:
        """Domain values ordered smallest-magnitude first (0, -1, 1, ...)."""
        return sorted(range(self.lo, self.hi + 1), key=lambda v: (abs(v), v))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class TautologyResult(NamedTuple):
    """Whether a predicate holds on every valuation over a bounded domain."""

    status: str  # tautology | falsifiable | inconclusive
    counterexample: Optional[dict] = None
    syntactic: bool = False

    @property
    def is_tautology(self) -> bool:
        return self.status == "tautology"


def _disjuncts(pred: Predicate) -> list[Predicate]:
    if isinstance(pred, Or):
        return _disjuncts(pred.left) + _disjuncts(pred.right)
    return [pred]


def has_complement_pair(preds: Sequence[Predicate]) -> bool:
    """True if the list contains some non-constant ``d`` together with ``!(d)``.

    This is the syntactic fast path for branch conditions the frontend emits
    in complementary pairs; constants are left to enumeration.
    """
    plain = [p for p in preds if not isinstance(p, (Not, BoolConst))]
    negated = [p.operand for p in preds if isinstance(p, Not) and not isinstance(p.operand, BoolConst)]
    return any(p == n for p in plain for n in negated)


# Compilation.  A tree is lowered to a Python syntax tree, never to source
# text, so identifiers never become Python names and no tokenizer nesting
# limit applies.  A variable is read as ``s[<name constant>]`` from the
# state argument ``s``.
_AST_BINOP = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_AST_COMPARE = {"==": ast.Eq, "!=": ast.NotEq, "<": ast.Lt, "<=": ast.LtE,
                ">": ast.Gt, ">=": ast.GtE}
_AT = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _leaf(node: ast.expr, room: int = 4) -> ast.expr:
    # compile converts the tree recursively, a few levels deeper than
    # lowering reaches: the Expression and the Lambda around the body, and
    # the nodes inside a leaf.  Each leaf recurses ``room`` more levels first
    # (four, five for the template's read), so a tree too deep for the
    # recursion limit fails while it is lowered and never reaches compile;
    # the tests scan deep trees of each kind of leaf for this
    return _leaf(node, room - 1) if room else node


def _name(identifier: str) -> ast.Name:
    return ast.Name(id=identifier, ctx=ast.Load(), **_AT)


def _read_state(var: Expr) -> ast.expr:
    """``s[<name>]``, and for the template ``s[chi]`` once ``chi`` is bound."""
    if isinstance(var, TemplateVar):
        bound = ast.Compare(left=_name("chi"), ops=[ast.IsNot()],
                            comparators=[ast.Constant(value=None, **_AT)], **_AT)
        read = ast.Subscript(value=_name("s"), slice=_name("chi"), ctx=ast.Load(), **_AT)
        unbound = ast.Call(func=_name("_unbound"), args=[], keywords=[], **_AT)
        return _leaf(ast.IfExp(test=bound, body=read, orelse=unbound, **_AT), 5)
    return _leaf(ast.Subscript(value=_name("s"), slice=ast.Constant(value=var.name, **_AT),
                               ctx=ast.Load(), **_AT))


def _unbound() -> NoReturn:
    raise UnboundTemplate()


def _lower_expr(expr: Expr) -> ast.expr:
    if isinstance(expr, Const):
        return _leaf(ast.Constant(value=expr.value, **_AT))
    if isinstance(expr, (Var, TemplateVar)):
        return _read_state(expr)
    if isinstance(expr, Neg):
        return ast.UnaryOp(op=ast.USub(), operand=_lower_expr(expr.operand), **_AT)
    if isinstance(expr, BinExpr):
        left = _lower_expr(expr.left)
        right = _lower_expr(expr.right)
        if expr.op not in _AST_BINOP:
            raise ValueError(f"unknown operator {expr.op!r}")
        return ast.BinOp(left=left, op=_AST_BINOP[expr.op](), right=right, **_AT)
    raise TypeError(f"not an expression: {expr!r}")


def _lower_pred(pred: Predicate) -> ast.expr:
    if isinstance(pred, BoolConst):
        return _leaf(ast.Constant(value=pred.value, **_AT))
    if isinstance(pred, Comparison):
        op = _AST_COMPARE[pred.op]()
        return ast.Compare(left=_lower_expr(pred.left), ops=[op],
                           comparators=[_lower_expr(pred.right)], **_AT)
    if isinstance(pred, Not):
        return ast.UnaryOp(op=ast.Not(), operand=_lower_pred(pred.operand), **_AT)
    if isinstance(pred, (And, Or)):
        op = ast.And() if isinstance(pred, And) else ast.Or()
        return ast.BoolOp(op=op, values=[_lower_pred(pred.left), _lower_pred(pred.right)],
                          **_AT)
    raise TypeError(f"not a predicate: {pred!r}")


def _compile_on_node(node, attr: str, lower):
    """``node`` as the function ``lambda s, chi: <node>``, stored on it as
    ``attr``.

    Raises what the lowering raises on a malformed tree, before anything is
    compiled, and :class:`RecursionError` on a tree too deep to walk.
    """
    params = [ast.arg(arg="s", **_AT), ast.arg(arg="chi", **_AT)]
    args = ast.arguments(posonlyargs=[], args=params, vararg=None, kwonlyargs=[],
                         kw_defaults=[], kwarg=None, defaults=[])
    tree = ast.Expression(body=ast.Lambda(args=args, body=lower(node), **_AT))
    function = eval(compile(tree, "<predicate>", "eval"),
                    {"__builtins__": {}, "_unbound": _unbound})
    setattr(node, attr, function)
    return function


def is_tautology_bounded(
    pred: Predicate, variables: Sequence[str], domain: Interval
) -> TautologyResult:
    """Decide whether ``pred`` holds on every total assignment of ``variables``
    over ``domain``.

    Disjunctions containing a complementary pair {d, !(d)} are recognized
    without enumeration.  Otherwise :func:`evaluate` runs on every
    assignment of the sorted variables, in smallest-magnitude-first order,
    so a returned counterexample is a simplest one.  When the predicate
    reads variables outside ``variables`` no verdict is possible and the
    result is inconclusive.  No library code calls it: the kind check decides
    non-blocking by exploring the program.  It stays because the benchmark's
    tracer binds it (``perfbench/tracer.py``, ``Tracer.install``), which
    ``tests/test_tracing.py`` pins.
    """
    if mentions_template(pred):
        raise UnboundTemplate()
    if has_complement_pair(_disjuncts(pred)):
        return TautologyResult("tautology", syntactic=True)
    names = sorted(set(variables))
    if not variables_of(pred) <= set(names):
        return TautologyResult("inconclusive")
    for values in itertools.product(domain.values_by_magnitude(), repeat=len(names)):
        assignment = dict(zip(names, values))
        if not evaluate(pred, assignment):
            return TautologyResult("falsifiable", counterexample=assignment)
    return TautologyResult("tautology")
