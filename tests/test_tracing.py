"""The benchmark's tracer (``perfbench/tracer.py``) wraps coopverify functions
by module and name.  These tests fail when a rename leaves one of them
unresolved, instead of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import corpus
from coopverify import actors, automata, engine, predicates

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_01_every_wrapped_function_resolves(tracing):
    for name, module_name, attr in tracing.SPANS + tracing.FOREIGN_SPANS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
    for name, module_name, class_name, attr in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert callable(vars(cls).get(attr)), name
    assert callable(vars(automata.EdgePattern).get("matches"))
    assert callable(predicates.is_tautology_bounded)
    assert callable(engine.run_product) and engine.VisitAction.PRUNE


def test_02_traced_verify_counts_and_restores(tracing):
    originals = (automata.evaluate, automata.step_frontier, engine.run_product)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bundle = actors.verify(corpus.program_p_prime(), corpus.prop(), corpus.CFG4)
        report = actors.exec_test(corpus.program_p_prime(), (1,), corpus.prop())
        # the explorer and a test execution run planned steps; matching a
        # path folds step_frontier over it
        accepted = automata.accepts(corpus.prop(), report.trace)
    finally:
        tracer.uninstall()
    assert bundle.result is actors.Result.FALSE
    assert report.violation_observed is True and accepted
    assert (automata.evaluate, automata.step_frontier, engine.run_product) == originals
    assert tracer.counters["engine.explorations"] == 1  # the search alone
    assert tracer.counters["engine.configs_visited"] > 0
    assert tracer.counters["automata.pattern_match_calls"] > 0
    for name in ("actors.verify", "engine.run_product", "automata.step_frontier",
                 "lang.successors", "predicates.evaluate", "predicates.eval_expr"):
        assert tracer.stats(name)[0] > 0, name
    assert tracer.stats("actors.verify")[0] == 1
    # the property's non-blocking is checked by the search, not by validate_kind
    assert tracer.stats("kinds.validate_kind")[0] == 0


def test_03_traced_goal_searches_count_one_exploration(tracing):
    """Test generation and test coverage run the goal search of ``engine``;
    a traced run of each counts it as one exploration."""
    p, goals = corpus.program_p(), corpus.goals()
    runs = (lambda: actors.generate_tests(p, goals, corpus.CFG4),
            lambda: engine.check_test_covers(p, (1,), goals, corpus.CFG4))
    for run in runs:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        assert tracer.counters["engine.explorations"] == 1
        assert tracer.counters["engine.configs_visited"] > 0


def test_04_blocking_check_rides_on_the_verify_search(tracing):
    """A property whose waiting state loops through one explicit transition
    per edge, not through otherwise, is watched for blocks; verify still
    counts one exploration, of as many configurations as the sample's."""
    p = corpus.program_p()
    counts = []
    for aut in (corpus.prop(), corpus.explicit_loop_prop(p)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert actors.verify(p, aut, corpus.CFG4).result is actors.Result.TRUE
        finally:
            tracer.uninstall()
        counts.append((tracer.counters["engine.explorations"],
                       tracer.counters["engine.configs_visited"]))
    assert counts[0][0] == 1 and counts[1] == counts[0]
