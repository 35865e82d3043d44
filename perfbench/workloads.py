"""The four benchmark workloads: generated inputs, tasks and output checks.

A workload is built from a seed into a list of tasks.  One round runs every
task once, in order, in one process and one thread (a closed loop with one
client).  Each task is a timed call into coopverify's public functions; its
check runs afterwards, untimed, and compares the outcome with what the
benchmark computes on its own from how the inputs were generated (closed
forms, brute force over the input interval), or with a property the method
must have (an emitted witness re-validates, evidence replays by execution).

The seed picks constants of the generated families (variable names, on
kind-enumeration) that leave the amount of work unchanged: loop bounds,
interval widths, variable counts and path lengths are fixed, so every seed
does the same work (the traced counts agree across seeds) and the same seed
always gives the same inputs.  Two tasks fail today because of faults in
coopverify.  Their checks raise ``KnownFault`` when that fault, and only that
fault, shows; the run counts it as failed, not as wrong, until it is mended.
Any other outcome that is not right is wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional


class WrongOutput(Exception):
    """A task's outcome disagrees with the benchmark's own computation."""


class KnownFault(Exception):
    """A task's outcome shows the named coopverify fault it is kept to track."""


@dataclass
class Outcome:
    value: object = None
    error: Optional[BaseException] = None

    def get(self):
        if self.error is not None:
            raise WrongOutput(f"raised {type(self.error).__name__}: {self.error}")
        return self.value


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[Outcome], None]
    hardest: bool = False
    known_fault: Optional[str] = None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


# ---------------------------------------------------------------------------
# input-fanout: inputs read inside a loop, properties that hold

FANOUT_SIZES = (  # (family, loop rounds K, interval half-width W)
    ("sum", 3, 3),  # 7^3 = 343 complete paths
    ("max", 3, 3),
    ("count", 4, 3),  # largest instance: 7^4 = 2401 complete paths
)


def _fanout_family(family: str, k: int, w: int, rng: random.Random) -> dict:
    """Program, property and reference simulation of one fan-out instance."""
    if family == "sum":
        bound = k * w + rng.randint(0, 9)  # |s| <= k*w, so s > bound never holds
        body = "v = input();\n  s = s + v;\n  i++;"
        decls = "int i = 0;\nint s = 0;\nint v = 0;\n"
        prop = f'trans q0 -> qe on (*, "s = s + v", *) assume s > {bound}'
        simulate = lambda xs: {"i": k, "s": sum(xs), "v": xs[-1]}
    elif family == "count":
        # both branches take one step, so the threshold moves no path length
        threshold = rng.randint(-w, w - 1)
        body = (f"v = input();\n  if (v > {threshold}) {{\n    c++;\n  }} else {{\n"
                "    d++;\n  }\n  i++;")
        decls = "int i = 0;\nint c = 0;\nint d = 0;\nint v = 0;\n"
        prop = 'trans q0 -> qe on (*, "i++", *) assume c + d > i'  # c + d == i
        simulate = lambda xs: {"i": k, "c": sum(1 for x in xs if x > threshold),
                               "d": sum(1 for x in xs if x <= threshold), "v": xs[-1]}
    else:
        start = -w - rng.randint(1, 9)
        body = "v = input();\n  if (v > m) {\n    m = v;\n  }\n  i++;"
        decls = f"int i = 0;\nint m = {start};\nint v = 0;\n"
        prop = f'trans q0 -> qe on (*, "!(i < {k})", *) assume m < v'  # m = max, so m >= v
        simulate = lambda xs: {"i": k, "m": max([start, *xs]), "v": xs[-1]}
    source = f"{decls}while (i < {k}) {{\n  {body}\n}}\n"
    prop_text = ("automaton fanout_bound kind=property\nstate q0 init\nstate qe final\n"
                 f"{prop}\ntrans q0 -> q0 otherwise\n")
    goal_states = [f"g{j}" for j in range(k + 2)]
    goal_lines = ["automaton loop_rounds kind=test-goal", "state g0 init"]
    goal_lines += [f"state {g} final" for g in goal_states[1:]]
    goal_lines += [f'trans g{j} -> g{j + 1} on (*, "i < {k}", *)' for j in range(k + 1)]
    goal_lines += [f"trans {g} -> {g} otherwise" for g in goal_states]
    return {
        "source": source,
        "prop": prop_text,
        "goals": "\n".join(goal_lines) + "\n",
        "simulate": simulate,
        # one goal per loop round; round k+1 never happens
        "reachable_goals": set(goal_states[1:k + 1]),
    }


def build_input_fanout(cv, seed: int, workdir: str, count) -> list:
    rng = random.Random(seed)
    tasks = []
    for index, (family, k, w) in enumerate(FANOUT_SIZES):
        spec = _fanout_family(family, k, w, rng)
        program = cv.parse_program(spec["source"])
        prop = cv.parse_automaton(spec["prop"])
        goals = cv.parse_automaton(spec["goals"])
        config = cv.AnalysisConfig(cv.Interval(-w, w), 500)
        label = f"{family}-k{k}-w{w}"
        hardest = index == len(FANOUT_SIZES) - 1
        tasks += _fanout_tasks(cv, label, program, prop, goals, config, spec, k, w, hardest)
    return tasks


def _fanout_tasks(cv, label, program, prop, goals, config, spec, k, w, hardest) -> list:
    shared: dict = {}
    n_locations = len(program.locations)

    def run_verify():
        bundle = cv.verify(program, prop, config)
        shared["witness"] = cv.serialize_automaton(bundle.witness) if bundle.witness else None
        return bundle

    def check_verify(outcome):
        bundle = outcome.get()
        expect(bundle.result is cv.Result.TRUE, f"verify said {bundle.result.value}, the property holds")
        expect(bundle.judgment.exhausted, "verify did not exhaust a finite, loop-bounded program")
        expect(bundle.witness.kind is cv.AutomatonKind.CORRECTNESS_WITNESS, "wrong witness kind")
        expect(len(bundle.witness.states) == n_locations, "witness needs one state per location")

    def run_validate():
        witness = cv.parse_automaton(shared["witness"])
        return cv.validate_result(program, prop, witness, config)

    def check_validate(outcome):
        expect(outcome.get().result is cv.Result.TRUE, "the emitted witness did not re-validate")

    def run_fulfills():
        return cv.check_fulfills(program, prop, config)

    def check_fulfills(outcome):
        judgment = outcome.get()
        expect(judgment.verdict is cv.Verdict.HOLDS and judgment.exhausted,
               f"check_fulfills said {judgment.verdict.value}, the property holds")

    def run_gen():
        suite = cv.generate_tests(program, goals, config)
        shared["tests"] = suite.input_sequences()
        return suite

    def check_gen(outcome):
        suite = outcome.get()
        covered = {entry.state for entry in suite.covered_goals()}
        expect(covered == spec["reachable_goals"],
               f"suite covers {sorted(covered)}, reachable goals are {sorted(spec['reachable_goals'])}")
        for test in suite.tests:
            expect(len(test.inputs) == k and all(-w <= x <= w for x in test.inputs),
                   f"test {test.inputs} is not {k} values in [-{w}, {w}]")
            expect(test.goals, f"test {test.inputs} reaches no goal")

    def run_covers():
        return cv.check_test_covers(program, shared["tests"][0], goals, config)

    def check_covers(outcome):
        judgment, reached = outcome.get()
        expect(judgment.verdict is cv.Verdict.HOLDS, "the first generated test covers no goal")
        expect({e.state for e in reached} == spec["reachable_goals"],
               "the first test does not reach every loop round")

    def run_exec():
        return cv.exec_test(program, shared["tests"][0], goals, config.max_steps)

    def check_exec(outcome):
        report = outcome.get()
        test = shared["tests"][0]
        expect(report.status == "completed" and report.consumed == k, f"execution {report.status}")
        expected = spec["simulate"](list(test))
        got = {name: report.final_state[name] for name in expected}
        expect(got == expected, f"final state {got}, simulation gives {expected}")
        expect(report.violation_observed, "the goal automaton saw no loop round")

    return [
        Task(f"verify {label}", run_verify, check_verify, hardest=hardest),
        Task(f"validate {label}", run_validate, check_validate),
        Task(f"check_fulfills {label}", run_fulfills, check_fulfills),
        Task(f"generate_tests {label}", run_gen, check_gen),
        Task(f"check_test_covers {label}", run_covers, check_covers),
        Task(f"exec_test {label}", run_exec, check_exec),
    ]


# ---------------------------------------------------------------------------
# deep-paths: one-input counting loops, thousands of steps

DEEP_SIZES = (300, 1000)  # loop rounds N; a run takes 3N + 4 steps
DEEP_SIBLINGS = 4  # inputs of the counterexample search, each as deep as the first


def build_deep_paths(cv, seed: int, workdir: str, count) -> list:
    rng = random.Random(seed)
    s0 = rng.randint(-100, 100)
    mult = rng.randint(1, 9)
    lo = rng.randint(-6, 3)
    tasks = []
    for n in DEEP_SIZES:
        tasks += _deep_tasks(cv, n, s0, mult, lo, hardest=n == max(DEEP_SIZES))
    return tasks


def _deep_tasks(cv, n, s0, mult, lo, hardest) -> list:
    closed = s0 + mult * n * (n - 1) // 2
    steps = 3 * n + 4  # three declarations, three edges per round, the exit
    max_steps = steps + 10
    loop = f"int i = 0;\nint s = {s0};\nwhile (i < LIMIT) {{\n  s = s + {mult} * i;\n  i++;\n}}\n"
    counting = cv.parse_program("int n = input();\n" + loop.replace("LIMIT", "n"))
    observer = cv.parse_automaton(
        "automaton closed_form kind=property\nstate q0 init\nstate qe final\n"
        f'trans q0 -> qe on (*, "!(i < n)", *) assume s != {closed}\n'
        "trans q0 -> q0 otherwise\n")
    siblings = cv.parse_program("int c = input();\n" + loop.replace("LIMIT", str(n)))
    first_branch = cv.parse_automaton(
        "automaton first_branch kind=property\nstate q0 init\nstate qe final\n"
        f'trans q0 -> qe on (*, "!(i < {n})", *) assume c == {lo}\n'
        "trans q0 -> q0 otherwise\n")
    single = cv.AnalysisConfig(cv.Interval(n, n), max_steps)
    several = cv.AnalysisConfig(cv.Interval(lo, lo + DEEP_SIBLINGS - 1), max_steps)
    shared: dict = {}

    def check_final(report, want_c=None):
        expect(report.status == "completed", f"execution {report.status}")
        expect(report.trace.length == steps, f"trace has {report.trace.length} steps, not {steps}")
        state = report.final_state
        expect(state["s"] == closed and state["i"] == n,
               f"final s={state['s']}, i={state['i']}; closed form s={closed}, i={n}")
        if want_c is not None:
            expect(state["c"] == want_c, "the replay read another input")

    def run_exec():
        return cv.exec_test(counting, (n,), observer, max_steps)

    def check_exec(outcome):
        report = outcome.get()
        check_final(report)
        expect(report.violation_observed is False, "the closed-form property saw a violation")

    def run_verify():
        bundle = cv.verify(counting, observer, single)
        shared["witness"] = cv.serialize_automaton(bundle.witness) if bundle.witness else None
        return bundle

    def check_verify(outcome):
        bundle = outcome.get()
        expect(bundle.result is cv.Result.TRUE and bundle.judgment.exhausted,
               f"verify said {bundle.result.value}; s has its closed form at the exit")

    def run_validate():
        return cv.validate_result(counting, observer, cv.parse_automaton(shared["witness"]), single)

    def check_validate(outcome):
        expect(outcome.get().result is cv.Result.TRUE, "the emitted witness did not re-validate")

    def run_search():
        bundle = cv.verify(siblings, first_branch, several)
        shared["cex"] = cv.serialize_automaton(bundle.witness) if bundle.witness else None
        return bundle

    def check_search(outcome):
        bundle = outcome.get()
        expect(bundle.result is cv.Result.FALSE, f"verify said {bundle.result.value}; input {lo} violates")
        evidence = bundle.judgment.evidence
        expect(evidence.inputs() == (lo,), f"evidence reads {evidence.inputs()}, the violation needs {lo}")
        expect(evidence.length == steps, f"evidence has {evidence.length} steps, not {steps}")

    def run_extract():
        return cv.extract_test(siblings, first_branch, cv.parse_automaton(shared["cex"]), several)

    def check_extract(outcome):
        values = outcome.get()
        expect(tuple(values) == (lo,), f"extracted {values}; the violation condition is c == {lo}")
        shared["test"] = tuple(values)

    def run_replay():
        return cv.exec_test(siblings, shared["test"], first_branch, max_steps)

    def check_replay(outcome):
        report = outcome.get()
        check_final(report, want_c=lo)
        expect(report.violation_observed is True, "replaying the extracted test shows no violation")

    return [
        Task(f"exec_test n={n}", run_exec, check_exec),
        Task(f"verify n={n}", run_verify, check_verify),
        Task(f"validate n={n}", run_validate, check_validate),
        Task(f"counterexample n={n}", run_search, check_search, hardest=hardest),
        Task(f"extract_test n={n}", run_extract, check_extract),
        Task(f"replay n={n}", run_replay, check_replay),
    ]


# ---------------------------------------------------------------------------
# kind-enumeration: non-blocking cells that need bounded enumeration

KIND_HALF_WIDTH = 5  # |D| = 11: 11^4 assignments for a four-variable cell

# Names the seed picks the program's four variables from.  The guards'
# constants stay fixed: they decide how far each enumerated disjunction is
# evaluated and where the first violating path lies, so seeded constants
# would change the work.  The names change neither: the enumeration visits
# the same assignments in another order.
KIND_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "m", "n", "p", "q", "r", "s", "u", "w")

# ROADMAP item 3: kinds._non_blocking only tries values of the input
# interval, but a = 2 * input() reaches 16.  Fixed inputs, not seeded.
BLIND_SPOT_PROGRAM = "int a = 0;\na = input();\na = a * 2;\nint b = 0;\n"
BLIND_SPOT_PROPERTY = """automaton blind_spot kind=property
state q0 init
state qe final
trans q0 -> q0 on (*, *, *) assume a < 9
trans q0 -> qe on (3, *, 4) assume a > 9
"""


def _kind_property(name: str, edge: tuple, guard: str, bad: str, otherwise: bool = True,
                   bad_target: str = "qe") -> str:
    src, tgt = edge
    lines = [f"automaton {name} kind=property", "state q0 init", "state qe final",
             f"trans q0 -> q0 on ({src}, *, {tgt}) assume {guard}",
             f"trans q0 -> {bad_target} on ({src}, *, {tgt}) assume {bad}"]
    if otherwise:
        lines.append("trans q0 -> q0 otherwise")
    else:
        lines[3:3] = [f"trans q0 -> q0 on ({e}, *, {e + 1})" for e in range(src)]
    return "\n".join(lines) + "\n"


def build_kind_enumeration(cv, seed: int, workdir: str, count) -> list:
    rng = random.Random(seed)
    a, b, c, d = rng.sample(KIND_NAMES, 4)
    w = KIND_HALF_WIDTH
    domain = range(-w, w + 1)
    config = cv.AnalysisConfig(cv.Interval(-w, w), 50)
    program = cv.parse_program(
        f"int {a} = input();\nint {b} = input();\nint {c} = {a} + {b};\nint {d} = {a} - {b};\n")

    def state_of(x, y):
        return {a: x, b: y, c: x + y, d: x - y}

    # (label, edge, guard, bad guard, the bad guard on the inputs x, y)
    instances = [
        # four variables at edge (3, d = a - b, 4): c - d is 2y
        ("vars4-holds", (3, 4), f"{a} + {b} + {c} + {d} > 3", f"{c} - {d} > 12",
         lambda x, y: 2 * y > 12),
        ("vars4-violated", (3, 4), f"{a} + {b} + {c} + {d} > 3", f"{c} - {d} > 4",
         lambda x, y: 2 * y > 4),
        # three variables at edge (2, c = a + b, 3): c - a is y
        ("vars3-holds", (2, 3), f"{a} + {b} > 1", f"{c} - {a} > 7", lambda x, y: y > 7),
        ("vars3-violated", (2, 3), f"{a} + {b} > 1", f"{c} - {a} > 2", lambda x, y: y > 2),
    ]
    tasks = []
    for index, (label, edge, guard, bad_text, bad) in enumerate(instances):
        prop = cv.parse_automaton(_kind_property(label.replace("-", "_"), edge, guard, bad_text))
        violating = [(x, y) for x in domain for y in domain if bad(x, y)]
        tasks += _kind_tasks(cv, label, program, prop, config, violating, state_of,
                             hardest=index == 0)

    # a blocking property: the guards at edge 3 leave a + b >= 0, c + d <= 0
    # open, the all-zero assignment included, which the enumeration tries
    # first whatever the names' order
    blocking = cv.parse_automaton(_kind_property(
        "blocking", (3, 4), f"{a} + {b} < 0", f"{c} + {d} > 0", otherwise=False,
        bad_target="q0"))
    unguarded = lambda s: s[a] + s[b] >= 0 and s[c] + s[d] <= 0
    tasks += _blocking_tasks(cv, program, blocking, config, unguarded)

    blind_program = cv.parse_program(BLIND_SPOT_PROGRAM)
    blind_property = cv.parse_automaton(BLIND_SPOT_PROPERTY)
    tasks.append(_blind_spot_task(cv, blind_program, blind_property))
    return tasks


def _kind_tasks(cv, label, program, prop, config, violating, state_of, hardest) -> list:
    shared: dict = {}
    holds = not violating

    def run_kind():
        return cv.validate_kind(prop, program, config.input_domain)

    def check_kind(outcome):
        report = outcome.get()
        expect(report.ok, f"a property with an otherwise transition cannot block:\n{report}")
        expect(report.non_blocking.status == "bounded-proved",
               f"non-blocking is {report.non_blocking.status}; it needs enumeration")

    def run_verify():
        bundle = cv.verify(program, prop, config)
        shared["witness"] = cv.serialize_automaton(bundle.witness) if bundle.witness else None
        return bundle

    def check_verify(outcome):
        bundle = outcome.get()
        want = cv.Result.TRUE if holds else cv.Result.FALSE
        expect(bundle.result is want,
               f"verify said {bundle.result.value}; {len(violating)} input pairs violate")
        if not holds:
            inputs = bundle.judgment.evidence.inputs()
            expect(tuple(inputs) in violating, f"evidence inputs {inputs} do not violate")

    def run_validate():
        return cv.validate_result(program, prop, cv.parse_automaton(shared["witness"]), config)

    def check_validate(outcome):
        want = cv.Result.TRUE if holds else cv.Result.FALSE
        expect(outcome.get().result is want, "the emitted witness did not re-validate")

    def run_extract():
        return cv.extract_test(program, prop, cv.parse_automaton(shared["witness"]), config)

    def check_extract(outcome):
        values = tuple(outcome.get())
        expect(values in violating, f"extracted inputs {values} do not violate")
        shared["test"] = values

    def run_exec():
        return cv.exec_test(program, shared["test"], prop, config.max_steps)

    def check_exec(outcome):
        report = outcome.get()
        state = dict(report.final_state.items())
        expect(state == state_of(*shared["test"]), f"final state {state} is not the arithmetic's")
        expect(report.violation_observed, "replaying the evidence shows no violation")

    tasks = [
        Task(f"check_kind {label}", run_kind, check_kind),
        Task(f"verify {label}", run_verify, check_verify),
        Task(f"validate {label}", run_validate, check_validate, hardest=hardest),
    ]
    if not holds:
        tasks += [Task(f"extract_test {label}", run_extract, check_extract),
                  Task(f"exec_test {label}", run_exec, check_exec)]
    return tasks


def _blocking_tasks(cv, program, prop, config, unguarded) -> list:
    def run_kind():
        return cv.validate_kind(prop, program, config.input_domain)

    def check_kind(outcome):
        report = outcome.get()
        nb = report.non_blocking
        expect(not report.ok and nb.status == "refuted", f"a blocking property passed:\n{report}")
        expect(unguarded(nb.counter_state),
               f"counter state {nb.counter_state} satisfies a guard at edge 3")
        expect(nb.state == "q0" and nb.edge.source == 3, "refuted at another cell")

    def run_verify():
        return cv.verify(program, prop, config)

    def check_verify(outcome):
        expect(isinstance(outcome.error, cv.InvalidArtifact),
               f"verify on a blocking property gave {outcome.value or outcome.error!r}")

    return [Task("check_kind blocking", run_kind, check_kind),
            Task("verify blocking", run_verify, check_verify)]


def _blind_spot_task(cv, program, prop) -> Task:
    domain = cv.engine.DEFAULT_DOMAIN
    config = cv.AnalysisConfig(domain, 50)
    # The property's run dies where a = 2x >= 9 on edge (2, a = a * 2, 3),
    # and its transition on (3, *, 4) would accept there, since 2x > 9 too.
    hidden = [x for x in range(domain.lo, domain.hi + 1) if 2 * x > 9]

    def run():
        return cv.verify(program, prop, config)

    def check(outcome):
        if outcome.error is not None:
            expect(isinstance(outcome.error, cv.InvalidArtifact),
                   f"raised {type(outcome.error).__name__}: {outcome.error}")
            return
        if outcome.value.result is cv.Result.TRUE:
            raise KnownFault(f"verify said true, but input {hidden[0]} gives a = "
                             f"{2 * hidden[0]} and the property blocks before it can accept")

    return Task("verify blind-spot", run, check,
                known_fault="kinds._non_blocking only tries input-interval values (ROADMAP item 3)")


# ---------------------------------------------------------------------------
# cli-cooperation: the README's cooperations through cli.main

CLI_HALF_WIDTH = 48
DEEP_NESTING = 1500  # ROADMAP item 4: parentheses nested this deep

# Exit codes and verdicts as the README documents them for samples/.
README_OUTCOMES = {
    "parse": (0, "ok"),
    "verify p": (0, "true"),
    "verify p_prime": (1, "false"),
    "validate correctness": (0, "true"),
    "validate violation": (1, "false"),
    "check-condition": (0, "holds"),
    "reduce": (0, "ok"),
    "extract-test": (0, "ok"),
    "exec-test extracted": (1, "violation-observed"),
    "exec-test seeded": (0, "completed"),
    "gen-tests": (0, "ok"),
    "check-kind": (0, "ok"),
    "pipeline execval": (1, "violation-observed"),
    "pipeline reduce_verify": (0, "true"),
    "pipeline conditional_verify": (0, "true"),
}


def build_cli_cooperation(cv, seed: int, workdir: str, count) -> list:
    import importlib

    cli = importlib.import_module("coopverify.cli")
    rng = random.Random(seed)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    samples = os.path.join(root, "samples")
    names = ("p.imp", "p_prime.imp", "prop.aut", "goals.aut", "cond.aut",
             "witness_correct.aut", "witness_violation.aut", "t4.test",
             "execval.coop", "reduce_verify.coop")
    sample = {name: os.path.join(samples, name) for name in names}
    for name in names:  # parse every sample once, as the inputs of this workload
        with open(sample[name], encoding="utf-8") as handle:
            text = handle.read()
        if name.endswith(".imp"):
            cv.parse_program(text)
        elif name.endswith(".aut"):
            cv.parse_automaton(text)
        elif name.endswith(".coop"):
            cv.parse_recipe(text)
    w = CLI_HALF_WIDTH
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)
    seeded_x = rng.randint(1, w)
    generated = {
        "seeded.test": f"{seeded_x}\n",
        "conditional.coop": "step conditional_verify p phi_b psi\n",
        "deep.imp": "int x = input();\nint y = " + "(" * DEEP_NESTING + "x"
                    + ")" * DEEP_NESTING + ";\n",
    }
    for name, text in generated.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        sample[name] = path
    common = ["--input-min", str(-w), "--input-max", str(w), "--format", "json", "--out", out]
    checker = _CliChecker(cv, sample, w)
    s = sample
    commands = [
        ("parse", ["parse", "--program", s["p.imp"], "--property", s["prop.aut"],
                   "--testgoal", s["goals.aut"], "--witness", s["witness_correct.aut"],
                   "--condition", s["cond.aut"], "--test", s["t4.test"]], checker.parse),
        ("verify p", ["verify", "--program", s["p.imp"], "--property", s["prop.aut"]],
         checker.emitted_witness("p.imp")),
        ("verify p_prime", ["verify", "--program", s["p_prime.imp"], "--property", s["prop.aut"]],
         checker.violation("p_prime.imp")),
        ("validate correctness", ["validate", "--program", s["p.imp"], "--property", s["prop.aut"],
                                  "--witness", s["witness_correct.aut"]],
         checker.emitted_witness("p.imp")),
        ("validate violation", ["validate", "--program", s["p_prime.imp"], "--property",
                                s["prop.aut"], "--witness", s["witness_violation.aut"]],
         checker.violation("p_prime.imp")),
        ("check-condition", ["check-condition", "--program", s["p.imp"], "--property",
                             s["prop.aut"], "--condition", s["cond.aut"]], None),
        ("reduce", ["reduce", "--program", s["p.imp"], "--condition", s["cond.aut"]],
         checker.residual),
        ("extract-test", ["extract-test", "--program", s["p_prime.imp"], "--property",
                          s["prop.aut"], "--witness", s["witness_violation.aut"]],
         checker.extracted),
        ("exec-test extracted", ["exec-test", "--program", s["p_prime.imp"], "--test",
                                 os.path.join(out, "extracted.test"), "--property", s["prop.aut"]],
         checker.replayed),
        ("exec-test seeded", ["exec-test", "--program", s["p.imp"], "--test", s["seeded.test"],
                              "--property", s["prop.aut"]], checker.seeded_run(seeded_x)),
        ("gen-tests", ["gen-tests", "--program", s["p.imp"], "--testgoal", s["goals.aut"]],
         checker.suite),
        ("check-kind", ["check-kind", "--program", s["p.imp"], "--property", s["prop.aut"]],
         checker.kind),
        ("pipeline execval", ["pipeline", "--recipe", s["execval.coop"], "--program",
                              s["p_prime.imp"], "--property", s["prop.aut"]],
         checker.emitted_witness("p_prime.imp")),
        ("pipeline reduce_verify", ["pipeline", "--recipe", s["reduce_verify.coop"], "--program",
                                    s["p.imp"], "--property", s["prop.aut"],
                                    "--condition", s["cond.aut"]], None),
        ("pipeline conditional_verify", ["pipeline", "--recipe", s["conditional.coop"],
                                         "--program", s["p.imp"], "--property", s["prop.aut"],
                                         "--condition", s["cond.aut"]], checker.output_condition),
    ]
    tasks = []
    for label, argv, extra in commands:
        argv = argv[:1] + common + argv[1:]
        tasks.append(Task(f"cli {label}", _cli_runner(cli, argv, count),
                          _cli_check(label, extra), hardest=label == "validate correctness"))
    tasks.append(Task("cli parse deep-nesting",
                      _cli_runner(cli, ["parse", "--format", "json", "--program", s["deep.imp"]],
                                  count),
                      _deep_nesting_check,
                      known_fault="deeply nested expressions raise RecursionError (ROADMAP item 4)"))
    return tasks


WALL_TIME = re.compile(r'(?<="wall_time_s": )[-+.0-9eE]+')


def _cli_runner(cli, argv, count):
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        text = stdout.getvalue()
        # the reported wall time is the one part of the output that varies
        count("cli.output_bytes", len(WALL_TIME.sub("", text).encode("utf-8")))
        return code, text, stderr.getvalue()
    return run


def _cli_check(label, extra):
    want_code, want_verdict = README_OUTCOMES[label]

    def check(outcome):
        code, text, err = outcome.get()
        expect(code == want_code, f"exit code {code}, the README says {want_code}; {err.strip()}")
        payload = json.loads(text)
        expect(payload["verdict"] == want_verdict,
               f"verdict {payload['verdict']}, the README says {want_verdict}")
        if extra is not None:
            extra(payload)
    return check


def _deep_nesting_check(outcome):
    if isinstance(outcome.error, RecursionError):
        raise KnownFault("cli.main raised RecursionError instead of returning an exit code")
    code, text, err = outcome.get()
    expect(code in (0, 65, 70), f"exit code {code} is not a parse result or an error code")
    if code == 0:
        expect(json.loads(text)["verdict"] == "ok", "parsed, but the verdict is not ok")
    else:
        expect(err.strip() != "", "an error exit without a message")


class _CliChecker:
    """Checks of cli outputs that need the library; the costly ones run
    once per distinct output file content."""

    def __init__(self, cv, sample: dict, w: int) -> None:
        self.cv = cv
        self.sample = sample
        self.w = w
        self.config = cv.AnalysisConfig(cv.Interval(-w, w), 500)
        self._checked: set = set()
        self._loaded: dict = {}

    def _load(self, name: str):
        if name not in self._loaded:
            with open(self.sample[name], encoding="utf-8") as handle:
                text = handle.read()
            parse = self.cv.parse_program if name.endswith(".imp") else self.cv.parse_automaton
            self._loaded[name] = parse(text)
        return self._loaded[name]

    @staticmethod
    def _read(path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def _once(self, key) -> bool:
        if key in self._checked:
            return False
        self._checked.add(key)
        return True

    def parse(self, payload) -> None:
        kinds = [entry["kind"] for entry in payload["details"]["automata"]]
        expect(kinds == ["property", "test-goal", "correctness-witness", "condition"],
               f"parsed kinds {kinds}")
        expect(payload["details"]["test"] == [4], "t4.test holds the single input 4")

    def emitted_witness(self, program_name: str):
        """The witness the command wrote re-validates against its program."""
        def check(payload) -> None:
            paths = [p for p in payload["files"] if p.endswith("witness.aut")]
            expect(len(paths) == 1, f"expected one witness file, got {payload['files']}")
            text = self._read(paths[0])
            if not self._once((program_name, text)):
                return
            cv = self.cv
            witness = cv.parse_automaton(text)
            bundle = cv.validate_result(self._load(program_name), self._load("prop.aut"),
                                        witness, self.config)
            want = cv.Result.TRUE if program_name == "p.imp" else cv.Result.FALSE
            expect(bundle.result is want, "the emitted witness did not re-validate")
        return check

    def violation(self, program_name: str):
        """p_prime drops b++, so any run through the loop exits with a != b."""
        witness_check = self.emitted_witness(program_name)

        def check(payload) -> None:
            evidence = payload["details"]["judgment"]["evidence"]
            last = evidence[-1]["state"]
            expect(evidence[1]["state"]["x"] > 0 and last["a"] != last["b"],
                   f"evidence ends in {last}; a violation needs x > 0 and a != b")
            witness_check(payload)
        return check

    def residual(self, payload) -> None:
        """Every complete path of the residual reads x > 0, one per positive x."""
        text = self._read(payload["details"]["residual_file"])
        if not self._once(("residual", text)):
            return
        cv = self.cv
        residual = cv.parse_cfa(text)
        completed = []
        for x in range(-self.w, self.w + 1):
            report = cv.exec_test(residual, (x,), None, 500)
            if report.status == "completed":
                completed.append(x)
        expect(all(x > 0 for x in completed) and len(completed) == self.w,
               f"{len(completed)} complete residual paths, {self.w} positive inputs")

    def extracted(self, payload) -> None:
        inputs = payload["details"]["inputs"]
        expect(len(inputs) == 1 and inputs[0] > 0, f"extracted inputs {inputs}; x must be positive")

    def replayed(self, payload) -> None:
        state = payload["details"]["final_state"]
        expect(state["a"] == state["x"] and state["b"] == 0, f"p_prime ended in {state}")

    def seeded_run(self, x: int):
        def check(payload) -> None:
            details = payload["details"]
            expect(details["final_state"] == {"a": x, "b": x, "x": x},
                   f"p on {x} ended in {details['final_state']}")
            expect(details["trace_length"] == 3 * x + 4,
                   f"trace has {details['trace_length']} steps, not {3 * x + 4}")
        return check

    def suite(self, payload) -> None:
        tests = payload["details"]["tests"]
        expect(len(tests) == 1, f"one goal, yet {len(tests)} tests")
        expect(tests[0]["inputs"][0] > 0, "the loop is entered only for x > 0")

    def kind(self, payload) -> None:
        # The cell of the guarded exit edge is a complementary pair; every
        # other edge meets only the otherwise transition, whose `true` has
        # no pair and is enumerated over zero variables.
        expect(payload["details"]["non_blocking"] == "bounded-proved",
               f"non-blocking is {payload['details']['non_blocking']}")

    def output_condition(self, payload) -> None:
        paths = [p for p in payload["files"] if p.endswith("condition.aut")]
        expect(len(paths) == 1, "conditional verification wrote no condition")
        condition = self.cv.parse_automaton(self._read(paths[0]))
        expect(condition.kind is self.cv.AutomatonKind.CONDITION, "not a condition")


WORKLOADS = {
    "input-fanout": build_input_fanout,
    "deep-paths": build_deep_paths,
    "cli-cooperation": build_cli_cooperation,
    "kind-enumeration": build_kind_enumeration,
}
