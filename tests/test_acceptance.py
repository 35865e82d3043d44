"""Acceptance suite: nine end-to-end checks over the worked example and
randomized corpora.  Each test prints one pass/fail line."""

import dataclasses
import random
import time

import corpus
import generators
from corpus import CFG2, CFG8
from coopverify import (
    Verdict,
    check_condition_correct,
    check_correctness_witness,
    check_fulfills,
    check_test_covers,
    check_violation_witness,
    enumerate_paths,
    exec_test,
    extract_test,
    generate_tests,
    parse_automaton,
    validate_kind,
    validate_result,
    verify,
    Result,
)
from coopverify.kinds import build_test_case_automaton
from coopverify.predicates import evaluate
from coopverify.lang import InputOp
from coopverify.pipeline import Artifact, Role, parse_recipe, run_pipeline
from reference import all_runs, brute_force_oracle, residual_prefixes, uncovered_prefixes


def run_criterion(number, label, check):
    try:
        check()
        error = None
    except Exception as exc:  # the pass/fail line must print either way
        error = exc
    status = "PASS" if error is None else "FAIL"
    print(f"criterion {number}: {status} - {label}")
    if error is not None:
        raise AssertionError(f"criterion {number} failed: {error}") from error


def test_criterion_01_running_example_verifies(p):
    def check():
        start = time.monotonic()
        bundle = verify(p, corpus.prop(), CFG8)
        elapsed = time.monotonic() - start
        assert bundle.result is Result.TRUE
        assert bundle.judgment.exhausted
        assert elapsed < 1.0, f"took {elapsed:.3f} s"

    run_criterion(1, "looping program proved within a second", check)


def test_criterion_02_violation_detected_and_reproduced(p_prime):
    def check():
        bundle = verify(p_prime, corpus.prop(), CFG8)
        assert bundle.result is Result.FALSE
        first = bundle.witness.explicit_from(bundle.witness.initial)[0]
        admitted = [v for v in CFG8.input_domain if evaluate(first.assumption, {"x": v})]
        assert admitted and all(v >= 1 for v in admitted)
        inputs = extract_test(p_prime, corpus.prop(), bundle.witness, CFG8)
        assert inputs == (1,)
        report = exec_test(p_prime, inputs, corpus.prop(), CFG8.max_steps)
        assert report.violation_observed is True

    run_criterion(2, "violation found, witnessed, extracted, and replayed", check)


def test_criterion_03_witness_validation(p, p_prime):
    def check():
        confirmed = validate_result(p, corpus.prop(), corpus.witness_correct(), CFG8)
        assert confirmed.result is Result.TRUE
        refuted = validate_result(p_prime, corpus.prop(), corpus.witness_violation(), CFG8)
        assert refuted.result is Result.FALSE
        crossed = validate_result(p, corpus.prop(), corpus.witness_violation(), CFG8)
        assert crossed.result is Result.UNKNOWN

    run_criterion(3, "witnesses confirm their program and nothing else", check)


def test_criterion_04_condition_correctness(p, p_prime):
    def check():
        for program in (p, p_prime):
            judgment = check_condition_correct(program, corpus.prop(), corpus.cond(), CFG8)
            assert judgment.verdict is Verdict.HOLDS
            assert judgment.exhausted

    run_criterion(4, "covered inputs violate nothing in either program", check)


def test_criterion_05_reducer_path_identity(p, p_prime):
    def check():
        assert CFG8.input_domain.hi - CFG8.input_domain.lo + 1 <= 17
        conditions = (
            corpus.cond(),
            parse_automaton(corpus.UNREACHABLE_CONDITION),
            parse_automaton(corpus.UNIVERSAL_CONDITION),
            parse_automaton(corpus.INSTANT_CONDITION),
        )
        compared = 0
        for program in (p, p_prime):
            for cond in conditions:
                left = residual_prefixes(program, cond, CFG8)
                right = uncovered_prefixes(program, cond, CFG8)
                assert left == right, cond.name
                compared += 1
        assert compared == 8

    run_criterion(5, "residual behavior is exactly the uncovered behavior", check)


def test_criterion_06_conditional_composition(p, p_prime):
    def check():
        recipe = parse_recipe(corpus.sample_text("reduce_verify.coop"))

        def outcome(program):
            initial = {
                "p": Artifact(Role.PROGRAM, program),
                "phi_b": Artifact(Role.BEHAVIOR_PROPERTY, corpus.prop()),
                "psi": Artifact(Role.CONDITION, corpus.cond()),
            }
            return run_pipeline(recipe, initial, CFG8).artifacts["r"].value.result

        assert outcome(p) is Result.TRUE
        assert outcome(p_prime) is Result.FALSE

    run_criterion(6, "reduce-then-verify keeps violations and skips covered work", check)


def test_criterion_07_test_coverage(p):
    def check():
        holds, _ = check_test_covers(p, (4,), corpus.goals(), CFG8)
        assert holds.verdict is Verdict.HOLDS
        misses, _ = check_test_covers(p, (0,), corpus.goals(), CFG8)
        assert misses.verdict is Verdict.VIOLATED

        for goals in (corpus.goals(), parse_automaton(corpus.TWO_GOALS)):
            suite = generate_tests(p, goals, CFG2)
            reachable = set()
            result = enumerate_paths(p, CFG2.input_domain, CFG2.max_steps)
            for path in result.paths:
                for run in all_runs(goals, path):
                    reachable |= {state for _, state in run if state in goals.finals}
            achieved = {entry.state for entry in suite.covered_goals()}
            assert achieved == reachable, goals.name

    run_criterion(7, "tests cover reachable goals and only those", check)


def test_criterion_08_oracle_equivalence():
    def check():
        rng = random.Random(413001)
        start = time.monotonic()
        trials = 24
        for _ in range(trials):
            program = generators.random_program(rng)
            assert len(program.locations) <= 10
            input_edges = [e for e in program.edges if isinstance(e.op, InputOp)]
            assert 1 <= len(input_edges) <= 2

            prop = generators.random_property(rng, program)
            goals = generators.random_test_goal(rng, program)
            vw = generators.random_violation_witness(rng, program)
            cw = generators.random_correctness_witness(rng, program)
            cond = generators.random_condition(rng, program)
            inputs = generators.random_inputs(rng)
            assert validate_kind(prop, program, CFG2.input_domain).ok
            for aut in (goals, vw, cw, cond):
                assert validate_kind(aut, program).ok

            every = brute_force_oracle(program, [], [], CFG2)
            bad = brute_force_oracle(program, [prop], ["accept"], CFG2)

            j = check_fulfills(program, prop, CFG2)
            assert (j.verdict is Verdict.HOLDS) == (not bad)

            covered = brute_force_oracle(program, [cw], ["cover"], CFG2)
            j = check_correctness_witness(program, prop, cw, CFG2)
            assert (j.verdict is Verdict.HOLDS) == (not bad and covered == every)

            admitted = brute_force_oracle(program, [vw], ["accept"], CFG2)
            j = check_violation_witness(program, prop, vw, CFG2)
            assert (j.verdict is Verdict.HOLDS) == bool(bad & admitted)

            accepted = brute_force_oracle(program, [cond], ["accept"], CFG2)
            j = check_condition_correct(program, prop, cond, CFG2)
            assert (j.verdict is Verdict.HOLDS) == (not (bad & accepted))

            case = build_test_case_automaton(inputs)
            joint = brute_force_oracle(program, [goals, case], ["accept", "cover"], CFG2)
            verdict, _ = check_test_covers(program, inputs, goals, CFG2)
            assert (verdict.verdict is Verdict.HOLDS) == bool(joint)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"

    run_criterion(8, "five judgments match brute force on 24 random programs", check)


def test_criterion_09_kind_constraints(p):
    def check():
        assert validate_kind(corpus.prop(), p, CFG8.input_domain).ok
        assert validate_kind(corpus.goals(), p).ok
        assert validate_kind(corpus.cond(), p).ok
        assert validate_kind(corpus.witness_correct(), p).ok
        assert validate_kind(corpus.witness_violation(), p).ok
        assert validate_kind(build_test_case_automaton((4,)), p).ok

        with_invariant = corpus.sample_text("prop.aut").replace(
            "state q0 init", "state q0 init inv: a == b")
        assert not validate_kind(parse_automaton(with_invariant), p, CFG8.input_domain).ok

        leaving_final = corpus.sample_text("cond.aut") \
            + 'trans q1 -> q0 on (1, "int a = 0", 2)\n'
        assert not validate_kind(parse_automaton(leaving_final), p).ok

        with_assumption = corpus.sample_text("witness_correct.aut").replace(
            'trans s0 -> s1 on (0, "int x = input()", 1)',
            'trans s0 -> s1 on (0, "int x = input()", 1) assume x >= 0')
        assert not validate_kind(parse_automaton(with_assumption), p).ok

        with_final = dataclasses.replace(
            build_test_case_automaton((4,)), finals=frozenset({"q1"}))
        assert not validate_kind(with_final, p).ok

    run_criterion(9, "declared kinds accepted, single-constraint breaks rejected", check)
