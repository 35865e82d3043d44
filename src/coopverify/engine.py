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
  test-case automaton while reaching a test goal; its search is the goal
  search that test generation runs too (:func:`_goal_search`), which goes
  on past the first hit to collect every goal the test reaches.

The witness and condition checks prune a prefix once automaton 1 can no
longer accept (empty frontier, no final state entered), the test check once
the test case stops covering it.  A hit needs that automaton to accept or
cover, and an empty frontier stays empty, so no extension of a pruned prefix
is a hit: pruning keeps the first hit and drops only truncations that hide
none, which can change a verdict only from unknown to a definite one.  A
property that blocks is refused by the explorer (:mod:`coopverify.product`).

Verdicts are relative to the analysis configuration (finite input domain,
step bound); ``holds`` is only reported when no truncation could have hidden
a counterexample.  The independent check the explorer is tested against, a
brute-force oracle over enumerated paths, lives with the tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

from .automata import ArtifactAutomaton, AutomatonKind, FinalEntry
from .errors import InvalidArtifact
from .kinds import KindReport, build_test_case_automaton, structural_report
from .lang import ConcretePath, ControlFlowAutomaton
# the explorer's names are engine's too: callers and the benchmark import them from here
from .product import (CONTINUE, DEFAULT_CONFIG, DEFAULT_DOMAIN, DEFAULT_MAX_STEPS, PRUNE, STOP,
                      AnalysisConfig, ProductVisit, PropertyBlocks, VisitAction, run_product)


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


class Judgment(NamedTuple):
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


def _refusal(aut: ArtifactAutomaton, report: KindReport) -> InvalidArtifact:
    return InvalidArtifact(f"automaton {aut.name} violates its kind constraints:\n{report}",
                           report)


def require_valid_kind(aut: ArtifactAutomaton, kind: AutomatonKind) -> None:
    """Refuse another kind, or a break of its :func:`structural_report`."""
    if aut.kind is not kind:
        raise InvalidArtifact(
            f"expected a {kind.value} automaton, got {aut.kind.value} ({aut.name})")
    report = structural_report(aut)
    if not report.ok:
        raise _refusal(aut, report)


def _search(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
            config: AnalysisConfig, hit: Callable[[ProductVisit], bool], *, universal: bool,
            prune: Optional[Callable[[ProductVisit], bool]] = None,
            observed: Optional[dict] = None) -> Judgment:
    """The judgment of a search for the first configuration in depth-first
    order that satisfies ``hit``, its prefix the evidence (see
    :func:`_verdict`).  The explorer's refusal of automaton 0, the
    property, raises as :func:`require_valid_kind` does.
    ``prune`` cuts a configuration's extensions; ``observed``, a
    ``defaultdict(list)``, collects each explored data state per location,
    where prefixes meet one per value of the live variables (see
    :func:`run_product`)."""
    found: list = []

    def visit(v: ProductVisit) -> VisitAction:
        if observed is not None:
            observed[v.location].append(v.state)
        if hit(v):
            found.append(v.path)
            return STOP
        if prune is not None and prune(v):
            return PRUNE
        return CONTINUE

    try:
        truncated = run_product(program, automata, config, visit)
    except PropertyBlocks as block:
        raise _refusal(automata[0], KindReport(automata[0].kind, (), block.report)) from None
    return _verdict(config, found[0] if found else None, truncated, universal=universal)


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


def _automaton_1_cannot_accept(v: ProductVisit) -> bool:
    return not v.frontiers[1] and not v.accepted(1)


def check_fulfills(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                   config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """No program path may be accepted by the property automaton."""
    require_valid_kind(prop, AutomatonKind.PROPERTY)
    if not prop.finals:
        return _verdict(config, universal=True)
    return _search(program, (prop,), config, _property_accepts, universal=True)


def check_correctness_witness(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                              witness: ArtifactAutomaton,
                              config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """The witness must cover every program path, none of which may violate
    the property.  Evidence on violation is the uncovered or violating
    prefix."""
    require_valid_kind(prop, AutomatonKind.PROPERTY)
    require_valid_kind(witness, AutomatonKind.CORRECTNESS_WITNESS)
    return _search(program, (prop, witness), config, _uncovered_or_accepted, universal=True)


def check_violation_witness(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                            witness: ArtifactAutomaton,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """Some program path must be accepted by witness and property together.

    The witness steers exploration: prefixes it can no longer follow (empty
    frontier, not yet accepted) are pruned, so the search follows one path
    where the witness pins that path's decisions (as those written by
    :func:`coopverify.actors.violation_witness_from_path` do).  A found
    path is definitive, so it is reported as exhausted even if other
    prefixes were truncated; ``violated`` (no such path) requires full
    exploration and carries no evidence path, there being no single path
    that demonstrates absence.
    """
    require_valid_kind(prop, AutomatonKind.PROPERTY)
    require_valid_kind(witness, AutomatonKind.VIOLATION_WITNESS)
    if not prop.finals or not witness.finals:
        return _verdict(config, universal=False)
    return _search(program, (prop, witness), config, _both_accept, universal=False,
                   prune=_automaton_1_cannot_accept)


def check_condition_correct(program: ControlFlowAutomaton, prop: ArtifactAutomaton,
                            condition: ArtifactAutomaton,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> Judgment:
    """No program path may be accepted by condition and property together,
    i.e. the part the condition declares covered is actually violation-free.
    Only the paths the condition can still accept are explored."""
    require_valid_kind(prop, AutomatonKind.PROPERTY)
    require_valid_kind(condition, AutomatonKind.CONDITION)
    if not prop.finals or not condition.finals:
        return _verdict(config, universal=True)
    return _search(program, (prop, condition), config, _both_accept, universal=True,
                   prune=_automaton_1_cannot_accept)


def _goal_entries(goals: ArtifactAutomaton) -> frozenset:
    """Every final entry the goal automaton can record: one per transition
    into a final state, plus the initial state's when it is final (see
    :func:`coopverify.automata.plan_step` and ``initial_frontier``).
    A search that has reached all of them can reach no further goal."""
    entries = {FinalEntry(t, t.target) for t in goals.transitions if t.target in goals.finals}
    if goals.initial in goals.finals:
        entries.add(FinalEntry(None, goals.initial))
    return frozenset(entries)


def _goal_search(program: ControlFlowAutomaton, automata: Sequence[ArtifactAutomaton],
                 config: AnalysisConfig) -> tuple:
    """The one test-goal search, shared by test generation
    (:func:`coopverify.actors.generate_tests`) and :func:`check_test_covers`.

    Explores the complete paths that automaton 0, the goal automaton,
    accepts, in the explorer's order, and prunes every prefix that a second
    automaton, the test case where one is given, no longer covers.  A path
    is kept when it reaches a goal entry no earlier kept path reached; one
    whose input sequence an earlier kept path has adds its goals to that
    record, so there is one record per input sequence.

    The search stops once every goal entry the automaton can record
    (:func:`_goal_entries`) is reached: a later path could only repeat
    reached goals and would not be kept, so the records are those of the
    full search.  With no goal entry at all nothing is searched.

    Returns the records, a dict from each input sequence to the first path
    kept with it and the goals of all of them, in first-kept order, and
    whether any prefix was truncated.
    """
    entries = _goal_entries(automata[0])
    if not entries:
        return {}, False
    covering = len(automata) > 1
    covered: set = set()
    records: dict = {}

    def visit(v: ProductVisit) -> VisitAction:
        if covering and not v.frontiers[1]:
            return PRUNE
        reached = v.final_entries[0]
        if reached and not v.successors and not reached <= covered:
            covered.update(reached)
            path = v.path
            inputs = path.inputs()
            first, earlier = records.get(inputs, (path, frozenset()))
            records[inputs] = (first, earlier | reached)
            if covered >= entries:
                return STOP
        return CONTINUE

    truncated = run_product(program, automata, config, visit)
    return records, truncated


def check_test_covers(program: ControlFlowAutomaton, test: Sequence[int],
                      goals: ArtifactAutomaton,
                      config: AnalysisConfig = DEFAULT_CONFIG) -> tuple:
    """Whether executing the test inputs reaches a test goal.

    Some complete program path must be covered by the test-case automaton
    built from ``test`` while the goal automaton accepts it.  Returns the
    judgment together with every goal reached on covered paths (a goal being
    a final state plus the transition entering it).  Both come from
    :func:`_goal_search`, the search test generation runs, here with the
    test case as its second automaton: the evidence is the first kept path,
    the goals are those of every record.
    """
    require_valid_kind(goals, AutomatonKind.TEST_GOAL)
    records, truncated = _goal_search(program, (goals, build_test_case_automaton(test)), config)
    kept = list(records.values())
    judgment = _verdict(config, kept[0][0] if kept else None, truncated, universal=False)
    return judgment, frozenset().union(*(reached for _, reached in kept))
