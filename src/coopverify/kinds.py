"""Structural validation of the six artifact-automaton kinds.

Each kind narrows the general automaton shape: properties must never block
the program, witnesses restrict invariants or assumptions, conditions must
not leave their final (covered) states, and test cases are fixed chains
produced from input sequences.  :func:`validate_kind` checks the constraints
of the declared kind and reports findings instead of raising; callers that
need hard failures wrap the report (see :mod:`coopverify.engine`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import (INPUT_TEMPLATE_TEXT, ArtifactAutomaton, AutomatonKind, EdgePattern,
                       Transition, _input_target, _taken, make_automaton)
from .lang import CFAEdge, ControlFlowAutomaton, successors
from .predicates import CHI, TRUE, Comparison, Const, Interval, mentions_template, pred_text
from .product import DEFAULT_MAX_STEPS, AnalysisConfig, VisitAction, run_product

BOUNDED_PROVED = "bounded-proved"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class NonBlocking:
    """Outcome of the may-the-property-block-the-program analysis.

    A run in a non-final state must take a transition on every program
    step.  A state with an otherwise transition always does; the others are
    watched while the property alone runs through the product explorer, and
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


@dataclass(frozen=True)
class KindViolation:
    constraint: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class KindReport:
    kind: AutomatonKind
    violations: tuple
    non_blocking: NonBlocking

    @property
    def ok(self) -> bool:
        return not self.violations and self.non_blocking.status != REFUTED

    def __str__(self) -> str:
        lines = [f"kind {self.kind.value}: {'ok' if self.ok else 'not ok'}"]
        lines.extend(f"  {v}" for v in self.violations)
        if self.non_blocking.status != NOT_APPLICABLE:
            lines.append(f"  non-blocking: {self.non_blocking}")
        return "\n".join(lines)


_CHI_WORD = re.compile(r"\bchi\b")


def _template_violations(aut: ArtifactAutomaton) -> list:
    """The placeholder may only appear in assumptions guarded by an
    input-template pattern; invariants and other op texts must not use it."""
    out = []
    for state, inv in sorted(aut.invariants.items()):
        if mentions_template(inv):
            out.append(KindViolation(
                "template-use", state,
                "state invariant uses the input placeholder"))
    for t in aut.transitions:
        if t.otherwise:
            continue
        if mentions_template(t.assumption) and not t.pattern.is_input_template:
            out.append(KindViolation(
                "template-use", str(t),
                "assumption uses the input placeholder without an input-template pattern"))
        if (t.pattern.op_text is not None and _CHI_WORD.search(t.pattern.op_text)
                and not t.pattern.is_input_template):
            out.append(KindViolation(
                "template-use", str(t),
                "pattern text uses the reserved word chi but is not the input template"))
    return out


def _trivial_invariant_violations(aut: ArtifactAutomaton) -> list:
    return [
        KindViolation("trivial-invariants", state,
                      f"state invariant must be trivial, found {pred_text(inv)}")
        for state, inv in sorted(aut.invariants.items())
    ]


def _non_blocking(aut: ArtifactAutomaton, program: ControlFlowAutomaton,
                  config: AnalysisConfig) -> NonBlocking:
    watched = frozenset(q for q in aut.states
                        if q not in aut.finals and aut.otherwise_at(q) is None)
    if not watched:
        return NonBlocking(BOUNDED_PROVED)
    found: list = []

    def visit(v) -> VisitAction:
        if v.truncated:
            return VisitAction.CONTINUE  # its steps lie beyond the bound
        for q in sorted(v.frontiers[0] & watched):
            for edge, post in successors(program, v.state, v.location, config.input_domain):
                if not _taken(aut, q, edge, post, _input_target(edge)):
                    found.append(NonBlocking(REFUTED, q, edge, dict(post)))
                    return VisitAction.STOP
        return VisitAction.CONTINUE

    run_product(program, (aut,), config, visit)
    return found[0] if found else NonBlocking(BOUNDED_PROVED)


def _condition_violations(aut: ArtifactAutomaton) -> list:
    out = _trivial_invariant_violations(aut)
    for t in aut.transitions:
        if t.source in aut.finals:
            out.append(KindViolation(
                "no-exit-from-final", str(t),
                "conditions must not leave a final state"))
    return out


def _correctness_witness_violations(aut: ArtifactAutomaton) -> list:
    out = []
    for t in aut.transitions:
        if not t.otherwise and t.assumption != TRUE:
            out.append(KindViolation(
                "assumptions-true", str(t),
                f"correctness witnesses carry facts in invariants, not assumptions; "
                f"found assumption {pred_text(t.assumption)}"))
    for q in sorted(aut.finals):
        out.append(KindViolation(
            "no-finals", q, "correctness witnesses must have no final states"))
    return out


_WILDCARD_TEMPLATE = EdgePattern(None, INPUT_TEMPLATE_TEXT, None)


def _chain_assumption_value(assumption) -> Optional[int]:
    """The ``z`` of a ``chi == z`` chain assumption, or None if ill-shaped."""
    if (isinstance(assumption, Comparison) and assumption.op == "=="
            and assumption.left is CHI and isinstance(assumption.right, Const)):
        return assumption.right.value
    return None


def _test_case_violations(aut: ArtifactAutomaton) -> list:
    out = []
    for q in sorted(aut.finals):
        out.append(KindViolation("test-shape", q,
                                 "test cases must have no final states"))
    for q in aut.states:
        ow = aut.otherwise_at(q)
        if ow is None:
            out.append(KindViolation("test-shape", q,
                                     "every state needs an otherwise self-loop"))
        elif ow.target != q:
            out.append(KindViolation("test-shape", str(ow),
                                     "otherwise transition must be a self-loop"))
    seen = {aut.initial}
    q = aut.initial
    while True:
        explicit = aut.explicit_from(q)
        if not explicit:
            break
        if len(explicit) > 1:
            out.append(KindViolation("test-shape", q,
                                     "chain states take at most one explicit transition"))
            break
        t = explicit[0]
        if t.pattern.is_input_template:
            if t.pattern.source is not None or t.pattern.target is not None:
                out.append(KindViolation(
                    "test-shape", str(t),
                    "chain patterns must leave edge endpoints unconstrained"))
        else:
            out.append(KindViolation("test-shape", str(t),
                                     "chain transitions must use the input-template pattern"))
        if _chain_assumption_value(t.assumption) is None:
            out.append(KindViolation(
                "test-shape", str(t),
                "chain assumptions must pin the input placeholder to one value"))
        if t.target in seen:
            out.append(KindViolation("test-shape", str(t),
                                     "the chain revisits a state"))
            break
        seen.add(t.target)
        q = t.target
    for unreachable in [s for s in aut.states if s not in seen]:
        out.append(KindViolation("test-shape", unreachable,
                                 "state is not on the chain"))
    return out


def validate_kind(aut: ArtifactAutomaton, program: ControlFlowAutomaton,
                  domain: Optional[Interval] = None,
                  max_steps: int = DEFAULT_MAX_STEPS) -> KindReport:
    """Check the structural constraints of ``aut``'s declared kind.

    A property that meets them is also checked for non-blocking on
    ``program`` within the value ``domain`` and ``max_steps``.  Findings land
    in the report; only a read of an unbound variable raises, as
    :class:`InvalidArtifact` (see :func:`coopverify.automata._taken`).
    """
    violations = _template_violations(aut)
    non_blocking = NonBlocking(NOT_APPLICABLE)
    kind = aut.kind
    if kind is AutomatonKind.PROPERTY:
        violations += _trivial_invariant_violations(aut)
        if domain is None:
            raise ValueError("validating a property automaton requires a value domain")
        if not violations:
            non_blocking = _non_blocking(aut, program, AnalysisConfig(domain, max_steps))
    elif kind in (AutomatonKind.TEST_GOAL, AutomatonKind.VIOLATION_WITNESS):
        violations += _trivial_invariant_violations(aut)
    elif kind is AutomatonKind.CORRECTNESS_WITNESS:
        violations += _correctness_witness_violations(aut)
    elif kind is AutomatonKind.CONDITION:
        violations += _condition_violations(aut)
    elif kind is AutomatonKind.TEST_CASE:
        violations += _test_case_violations(aut)
    return KindReport(kind, tuple(violations), non_blocking)


def build_test_case_automaton(values: Sequence[int], name: str = "test_case") -> ArtifactAutomaton:
    """The chain automaton replaying one input sequence.

    One state per consumed input; each chain transition reads the next input
    edge (whatever variable it feeds) and pins the read value; everything
    else loops in place via otherwise.  Runs die on an input edge with the
    wrong value or past the end of the sequence, so a path is covered exactly
    when its inputs equal ``values``.
    """
    states = [f"q{i}" for i in range(len(values) + 1)]
    transitions = [
        Transition(states[i], states[i + 1], _WILDCARD_TEMPLATE,
                   Comparison("==", CHI, Const(value)))
        for i, value in enumerate(values)
    ]
    transitions += [Transition(q, q, None, TRUE, otherwise=True) for q in states]
    return make_automaton(name, AutomatonKind.TEST_CASE, states, states[0],
                          (), transitions)
