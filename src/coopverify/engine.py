"""Bounded explicit-state evaluation of the five cooperation judgments.

Every judgment is one search of the product explorer of
:mod:`coopverify.product`: a choice of automata, a ``hit`` predicate on
configurations (plus a ``prune`` one where needed) and a polarity over one
stop-at-first search.  A hit violates a universal judgment ("no path may")
and makes an existential one ("some path must") hold:

* ``check_fulfills`` - no program path may be accepted by the property;
* ``check_correctness_witness`` - the witness must cover every path and the
  property must accept none;
* ``check_violation_witness`` - some path must be accepted by witness and
  property together, with the witness frontier used to steer exploration;
* ``check_condition_correct`` - no path may be accepted by condition and
  property together;
* ``check_test_covers`` - some complete path must be covered by the
  test-case automaton while reaching a test goal.

Verdicts are relative to the analysis configuration (finite input domain,
step bound); ``holds`` is only reported when no truncation could have hidden
a counterexample.  The independent check the explorer is tested against, a
brute-force oracle over enumerated paths, lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .automata import ArtifactAutomaton, AutomatonKind
from .errors import InvalidArtifact
from .kinds import build_test_case_automaton, validate_kind
from .lang import ConcretePath, ControlFlowAutomaton
# the explorer's names are engine's too: callers and the benchmark import them from here
from .product import (DEFAULT_CONFIG, DEFAULT_DOMAIN, DEFAULT_MAX_STEPS, AnalysisConfig,
                      ProductVisit, VisitAction, run_product)


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


def require_valid_kind(aut: ArtifactAutomaton, kind: AutomatonKind,
                   program: ControlFlowAutomaton, config: AnalysisConfig) -> None:
    if aut.kind is not kind:
        raise InvalidArtifact(
            f"expected a {kind.value} automaton, got {aut.kind.value} ({aut.name})")
    report = validate_kind(aut, program, config.input_domain, config.max_steps)
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
