"""Property-based text round trips of programs, automata, predicates and
test cases.

Hypothesis draws the seeds and the seeded generators of ``generators`` build
the artifacts from them, so each example is one reproducible generator call.
``derandomize=True`` and no example database keep every run identical.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import generators  # noqa: E402
from coopverify import cli  # noqa: E402
from coopverify import (  # noqa: E402
    parse_automaton,
    parse_cfa,
    parse_predicate,
    pred_text,
    reduce,
    serialize_automaton,
    serialize_cfa,
)
from coopverify.errors import CoopVerifyError  # noqa: E402
from coopverify.predicates import evaluate  # noqa: E402

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
pinned = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@pinned
@given(seeds)
def test_01_cfa_text_is_a_fixed_point(seed):
    """A program and its residual under a random condition read back to the
    same text."""
    rng = random.Random(seed)
    program = generators.random_program(rng)
    for cfa in (program, reduce(program, generators.random_condition(rng, program))):
        text = serialize_cfa(cfa)
        assert serialize_cfa(parse_cfa(text)) == text


GENERATORS = (
    generators.random_property,
    generators.random_test_goal,
    generators.random_condition,
    generators.random_violation_witness,
    generators.random_correctness_witness,
)


@pinned
@given(seeds, st.sampled_from(GENERATORS))
def test_02_automaton_round_trips(seed, generate):
    rng = random.Random(seed)
    automaton = generate(rng, generators.random_program(rng))
    assert parse_automaton(serialize_automaton(automaton)) == automaton


def _outcome(pred, state):
    """What ``evaluate`` gives on ``state``: a truth value or the error's type."""
    try:
        return evaluate(pred, state, chi="a")
    except CoopVerifyError as error:
        return type(error)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seeds)
def test_03_predicate_text_reads_back_equivalent(seed):
    """The text of a random predicate, negated negative constants included,
    parses to a predicate that evaluates alike on random partial states, and
    that predicate's text is a fixed point."""
    rng = random.Random(seed)
    names = ["a", "b"]
    pred = generators.random_predicate(rng, names)
    text = pred_text(pred)
    read = parse_predicate(text)
    for _ in range(5):
        state = generators.random_partial_state(rng, names)
        assert _outcome(read, state) == _outcome(pred, state), (text, state)
    again = pred_text(read)
    assert pred_text(parse_predicate(again)) == again


@pinned
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=12))
@example([])
@example([-7, 0, 42, -1000, 123456])
def test_04_test_case_text_round_trips(values):
    """A test case, empty or not, with negative and multi-digit inputs, reads
    back from the ``.test`` text that ``extract-test`` writes."""
    values = tuple(values)
    assert cli.parse_test_text(cli._test_text(values)) == values
