"""Structural validation of the six artifact-automaton kinds.

Each kind narrows the general automaton shape: properties must never block
the program, witnesses restrict invariants or assumptions, conditions must
not leave their final (covered) states, and test cases are fixed chains
produced from input sequences.  :func:`validate_kind` reports the findings
of :func:`structural_report` and of a property's non-blocking rule, which
the explorer applies (:func:`coopverify.product.first_block`).
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .automata import (INPUT_TEMPLATE_TEXT, ArtifactAutomaton, AutomatonKind, EdgePattern,
                       Transition, make_automaton)
from .errors import UnboundTemplate, UndefinedVariable
from .lang import EMPTY_STATE, ControlFlowAutomaton
from .predicates import (CHI, TRUE, Comparison, Const, Interval, evaluate, mentions_template,
                         pred_text)
from .product import (BOUNDED_PROVED, CONTINUE, DEFAULT_MAX_STEPS, NOT_APPLICABLE, REFUTED,
                      AnalysisConfig, NonBlocking, PropertyBlocks, run_product)


class KindViolation(NamedTuple):
    """One structural constraint of a kind that an automaton breaks."""

    constraint: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.subject}: {self.message}"


class KindReport(NamedTuple):
    """An automaton's kind check: its structural violations and its non-blocking verdict."""

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
    input-template pattern; invariants and other op texts must not use it.

    A ``true`` assumption is not walked, and each distinct pattern's text is
    searched once: the transitions of a long witness share a few patterns."""
    out = []
    for state, inv in sorted(aut.invariants.items()):
        if mentions_template(inv):
            out.append(KindViolation(
                "template-use", state,
                "state invariant uses the input placeholder"))
    explicit = [t for t in aut.transitions if not t.otherwise]
    chi_in_text = {p for p in {t.pattern for t in explicit}
                   if p.op_text is not None and not p.is_input_template
                   and _CHI_WORD.search(p.op_text)}
    for t in explicit:
        if (t.assumption is not TRUE and mentions_template(t.assumption)
                and not t.pattern.is_input_template):
            out.append(KindViolation(
                "template-use", str(t),
                "assumption uses the input placeholder without an input-template pattern"))
        if t.pattern in chi_in_text:
            out.append(KindViolation(
                "template-use", str(t),
                "pattern text uses the reserved word chi but is not the input template"))
    return out


def _initial_invariant_violations(aut: ArtifactAutomaton) -> list:
    """Every run starts on the empty prefix, whose data state binds nothing,
    so the initial state's invariant is evaluated there (see
    :func:`coopverify.automata.initial_frontier`); reading a variable there
    is a violation.  Reading the placeholder is one of
    :func:`_template_violations`."""
    inv = aut.invariants.get(aut.initial)
    if inv is None:
        return []
    try:
        evaluate(inv, EMPTY_STATE)
    except UndefinedVariable as err:
        return [KindViolation("initial-invariant", aut.initial,
                              f"invariant read on the empty prefix: {err}")]
    except UnboundTemplate:
        pass
    return []


def _trivial_invariant_violations(aut: ArtifactAutomaton) -> list:
    return [
        KindViolation("trivial-invariants", state,
                      f"state invariant must be trivial, found {pred_text(inv)}")
        for state, inv in sorted(aut.invariants.items())
    ]


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


def structural_report(aut: ArtifactAutomaton) -> KindReport:
    """Check the constraints of ``aut``'s declared kind that need no program,
    all but a property's non-blocking; an unbound read of an initial
    invariant on the empty prefix is a finding too."""
    violations = _template_violations(aut)
    kind = aut.kind
    if kind in (AutomatonKind.PROPERTY, AutomatonKind.TEST_GOAL,
                AutomatonKind.VIOLATION_WITNESS):
        violations += _trivial_invariant_violations(aut)
    elif kind is AutomatonKind.CORRECTNESS_WITNESS:
        violations += _correctness_witness_violations(aut) + _initial_invariant_violations(aut)
    elif kind is AutomatonKind.CONDITION:
        violations += _condition_violations(aut)
    elif kind is AutomatonKind.TEST_CASE:
        violations += _test_case_violations(aut) + _initial_invariant_violations(aut)
    return KindReport(kind, tuple(violations), NonBlocking(NOT_APPLICABLE))


def validate_kind(aut: ArtifactAutomaton, program: ControlFlowAutomaton,
                  domain: Optional[Interval] = None,
                  max_steps: int = DEFAULT_MAX_STEPS) -> KindReport:
    """Check the constraints of ``aut``'s declared kind, reporting findings.

    A property that meets those of :func:`structural_report` is explored
    alone on ``program`` within the value ``domain`` and ``max_steps``, if
    it has watched states, and the explorer's refusal is its refutation.  An
    unbound read there raises, as :class:`InvalidArtifact` (see
    :func:`coopverify.automata.plan_step`).
    """
    report = structural_report(aut)
    if aut.kind is not AutomatonKind.PROPERTY:
        return report
    if domain is None:
        raise ValueError("validating a property automaton requires a value domain")
    if report.violations:
        return report
    if aut.watched:
        try:
            run_product(program, (aut,), AnalysisConfig(domain, max_steps), lambda v: CONTINUE)
        except PropertyBlocks as block:
            return KindReport(report.kind, (), block.report)
    return KindReport(report.kind, (), NonBlocking(BOUNDED_PROVED))


def build_test_case_automaton(values: Sequence[int]) -> ArtifactAutomaton:
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
    return make_automaton("test_case", AutomatonKind.TEST_CASE, states, states[0],
                          (), transitions)
