"""Run one coopverify benchmark workload and print its metrics.

    python3 perfbench/run.py --workload input-fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after the other

Set-up (import coopverify, generate and parse the inputs) is repeated
SETUPS times in a forked child, each time between two runs of a fixed,
coopverify-free calibration loop, and the median of the scaled set-up times
is reported.  Then whole rounds of the workload's tasks run until
``--seconds`` have passed.  Each task is timed alone; its output check runs
after it, untimed, and so does one run of the calibration loop.  Every
reported time is scaled by CALIBRATION_S / (calibration time), which takes
out the drift of the shared machine's speed (see README.md): a set-up by the
mean of the two calibrations around it, a round's tasks and per-layer times
by the median calibration of that round.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``), with the names and units of BENCHMARK.json.

The checkout root is the parent of this file's directory; coopverify is
imported from its ``src`` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 31
# The calibration loop's time on the reference machine when uncontended
# (Xeon KVM guest, Python 3.11.7: tenth percentile of 2000 runs).
CALIBRATION_S = 0.0013


def load_spec() -> dict:
    """BENCHMARK.json: the metrics' names and units are taken from it."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {ROOT / 'BENCHMARK.json'}: {err}")


def reported(spec_metrics: list, values: dict) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import():
    """Import coopverify from the checkout's src, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "coopverify" or n.startswith("coopverify.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cv = importlib.import_module("coopverify")
    where = Path(cv.__file__).resolve()
    if ROOT / "src" not in where.parents:
        fail(f"imported coopverify from {where}, not from this checkout")
    return cv


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of dict and tuple work that shares no
    code with coopverify: a probe of how fast the machine runs right now.
    The garbage collector is off meanwhile, so that the size of the
    workload's heap does not change the probe."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        chain: tuple = ()
        for i in range(4000):
            key = (i % 97, i % 13)
            table[key] = chain
            chain = (i, chain) if i % 50 else ()
            if key in table and i % 7 == 0:
                table.pop(key)
        sorted(table)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(calibrations: list) -> float:
    """Reference speed over current speed, from the median of the
    calibrations (of the two around a set-up, their mean)."""
    return CALIBRATION_S / statistics.median(calibrations)


def run_task(task):
    start = time.perf_counter()
    try:
        value = task.run()
        error = None
    except Exception as exc:  # the check decides whether raising was right
        value, error = None, exc
    elapsed = time.perf_counter() - start
    return elapsed, workloads.Outcome(value, error)


def timed_set_up(name: str, seed: int, workdir: Path, tracer=None) -> tuple:
    """One set-up between two calibrations: (tasks, seconds, speed factor)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # garbage of an earlier set-up's modules is collected here, untimed
    gc.collect()
    before = calibration_loop()
    start = time.perf_counter()
    cv = fresh_import()
    if name == "cli-cooperation":
        importlib.import_module("coopverify.cli")
    if tracer is not None:
        tracer.install()
    count = tracer.count if tracer else (lambda _name, _amount=1: None)
    tasks = workloads.WORKLOADS[name](cv, seed, str(workdir), count)
    elapsed = time.perf_counter() - start
    return tasks, elapsed, speed_factor([before, calibration_loop()])


def set_up_times(name: str, seed: int, workdir: Path) -> list:
    """(seconds, speed factor) of SETUPS set-ups, made in a forked child:
    the copies of coopverify they leave behind (the typing caches keep some
    of every copy alive) then do not count in this process's peak memory."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()  # else the child would inherit, and repeat, unwritten output
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            times = [timed_set_up(name, seed, workdir)[1:] for _ in range(SETUPS)]
            with os.fdopen(write_end, "w") as out:
                json.dump(times, out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        fail(f"the set-ups of {name} failed (wait status {status})")
    return json.loads(data)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    # fixed width, so the paths the cli prints have the same length in every run
    workdir = HERE / "out" / f"work-{os.getpid():08d}"
    tracer = tracing.Tracer() if trace else None
    try:
        setup_times = set_up_times(name, seed, workdir)
        tasks, _, setup_factor = timed_set_up(name, seed, workdir, tracer)
        return measure(name, tasks, seconds, setup_times, setup_factor, tracer, spec)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name, tasks, seconds, setup_times, setup_factor, tracer, spec) -> dict:
    """Run whole rounds for ``seconds``.  ``setup_times`` holds (seconds,
    speed factor) of the timed set-ups, ``setup_factor`` the speed factor
    of the set-up that made ``tasks``."""
    hardest = [i for i, t in enumerate(tasks) if t.hardest]
    if len(hardest) != 1:
        raise RuntimeError(f"workload {name} must mark exactly one hardest task")
    attempted = failed = 0
    wrong: list = []
    rounds = []  # per round: raw task seconds
    factors = []  # per round: speed factor
    layer_rounds = []
    setup_snapshot = None
    if tracer is not None:
        setup_snapshot = snapshot(tracer, setup_factor)
        tracer.reset_round()
    deadline = time.perf_counter() + seconds
    while True:
        times = []
        calibrations = []
        for index, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = index + 1
            elapsed, outcome = run_task(task)
            times.append(elapsed)
            attempted += 1
            if tracer is not None:
                tracer.active = False
            try:
                task.check(outcome)
            except workloads.KnownFault:
                failed += 1
            except workloads.WrongOutput as err:
                wrong.append(f"{task.name}: {err}")
            calibrations.append(calibration_loop())
            if tracer is not None:
                tracer.active = True
        factor = speed_factor(calibrations)
        rounds.append(times)
        factors.append(factor)
        if tracer is not None:
            layer_rounds.append(combine(setup_snapshot, snapshot(tracer, factor),
                                        sum(times) * factor))
            if len(rounds) == 1:
                tracer.recording = False
            tracer.reset_round()
        if wrong or time.perf_counter() >= deadline:
            break
    for line in wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)

    if tracer is not None:
        names = ["setup"] + [t.name for t in tasks]
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        n_spans = tracer.write_spans(out / f"spans-{name}.tsv", names)
        metrics, table = layer_metrics(layer_rounds, spec["per_layer"])
        print_table(name, table, len(rounds), n_spans, out / f"spans-{name}.tsv")
    else:
        raw = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": statistics.median(sum(r) for r in rounds),
            "task_p50_s": statistics.median(statistics.median(r) for r in rounds),
            "hardest_task_s": statistics.median(r[hardest[0]] for r in rounds),
        }
        scaled = [[t * f for t in r] for r, f in zip(rounds, factors)]
        metrics = reported(spec["end_to_end"], {
            "setup_s": statistics.median(t * f for t, f in setup_times),
            "wall_s": statistics.median(sum(r) for r in scaled),
            "task_p50_s": statistics.median(statistics.median(r) for r in scaled),
            "hardest_task_s": statistics.median(r[hardest[0]] for r in scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        print(f"{name}: {len(rounds)} rounds of {len(tasks)} tasks, "
              f"{attempted} attempted, {failed} failed; speed factor "
              f"{statistics.median(factors):.3f} (set-up "
              f"{statistics.median(f for _, f in setup_times):.3f})")
        for key, metric in metrics.items():
            note = f"  (unscaled {raw[key]:.6f})" if key in raw else ""
            print(f"  {key:16s} {metric['value']:.6f} {metric['unit']}{note}")
        print("  median scaled seconds per task:")
        for index, task in enumerate(tasks):
            mark = " (hardest)" if task.hardest else ""
            mark += " (known fault)" if task.known_fault else ""
            print(f"    {statistics.median(r[index] for r in scaled):9.6f}  {task.name}{mark}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Per-layer metrics

def snapshot(tracer, factor: float) -> dict:
    """The tracer's aggregates, times scaled by the speed factor."""
    spans = {}
    for name in tracer.names:
        calls, self_s, incl_s = tracer.stats(name)
        spans[name] = (calls, self_s * factor, incl_s * factor)
    return {"spans": spans, "counters": dict(tracer.counters),
            "self_validation_s": tracer.self_validation_s * factor,
            "distinct_configs": tracer.distinct_configs}


def combine(setup: dict, rnd: dict, wall: float) -> dict:
    """Totals of one set-up plus one round."""
    spans = {}
    for name in set(setup["spans"]) | set(rnd["spans"]):
        a = setup["spans"].get(name, (0, 0.0, 0.0))
        b = rnd["spans"].get(name, (0, 0.0, 0.0))
        spans[name] = tuple(x + y for x, y in zip(a, b))
    counters = dict(setup["counters"])
    for key, value in rnd["counters"].items():
        if key == "engine.max_depth":
            counters[key] = max(counters.get(key, 0), value)
        else:
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters, "wall": wall,
            "self_validation_s": setup["self_validation_s"] + rnd["self_validation_s"],
            "distinct_configs": setup["distinct_configs"] + rnd["distinct_configs"]}


# metric -> span names whose calls it counts or whose self time it sums
CALLS = {
    "predicates.evaluate_calls": ("predicates.evaluate", "predicates.eval_expr"),
    "lang.successors_calls": ("lang.successors",),
    "lang.path_extend_calls": ("lang.path_extend",),
    "lang.enumerate_paths_calls": ("lang.enumerate_paths",),
    "automata.step_frontier_calls": ("automata.step_frontier",),
    "automata.match_path_calls": ("automata.match_path",),
    "kinds.validate_calls": ("kinds.validate_kind",),
    "engine.check_fulfills_calls": ("engine.check_fulfills",),
    "engine.check_violation_witness_calls": ("engine.check_violation_witness",),
    "engine.check_condition_correct_calls": ("engine.check_condition_correct",),
    "engine.check_test_covers_calls": ("engine.check_test_covers",),
    "actors.reduce_calls": ("actors.reduce", "actors.reduce_with_origin"),
    "actors.conditional_verify_calls": ("actors.conditional_verify",),
    "actors.extract_test_calls": ("actors.extract_test",),
    "actors.gen_tests_calls": ("actors.generate_tests",),
    "pipeline.runs": ("pipeline.run_pipeline",),
    "cli.main_calls": ("cli.main",),
}
SELF_TIMES = {
    "predicates.evaluate_s": ("predicates.evaluate", "predicates.eval_expr"),
    "lang.parse_s": ("lang.parse_program", "lang.parse_cfa"),
    "lang.successors_s": ("lang.successors",),
    "lang.path_extend_s": ("lang.path_extend",),
    "automata.parse_s": ("automata.parse_automaton",),
    "automata.step_frontier_s": ("automata.step_frontier",),
    "automata.match_path_s": ("automata.match_path",),
    "automata.serialize_s": ("automata.serialize_automaton",),
    "kinds.validate_s": ("kinds.validate_kind",),
    "engine.run_product_s": ("engine.run_product",),
    "engine.check_correctness_witness_s": ("engine.check_correctness_witness",),
    "actors.verify_s": ("actors.verify",),
    "actors.witness_synthesis_s": ("actors.correctness_witness_from_observations",
                                   "actors.violation_witness_from_path"),
    "actors.validate_s": ("actors.validate_result",),
    "actors.exec_test_s": ("actors.exec_test",),
}
COUNTERS = (
    "predicates.tautology_assignments",
    "automata.pattern_match_calls",
    "kinds.enumerated_cells",
    "engine.explorations",
    "engine.configs_visited",
    "engine.max_depth",
    "engine.truncated_prefixes",
    "engine.pruned_prefixes",
    "actors.exec_steps",
    "pipeline.steps",
    "cli.output_bytes",
)


def round_metrics(r: dict) -> dict:
    spans = r["spans"]

    def total(names, field):
        return sum(spans.get(n, (0, 0.0, 0.0))[field] for n in names)

    m = {k: total(names, 0) for k, names in CALLS.items()}
    m.update({k: total(names, 1) for k, names in SELF_TIMES.items()})
    for key in COUNTERS:
        m[key] = r["counters"].get(key, 0)
    visited = r["counters"].get("engine.configs_visited", 0)
    m["engine.distinct_configs"] = r["distinct_configs"]
    m["engine.distinct_ratio"] = r["distinct_configs"] / visited if visited else 0.0
    verify_incl = total(("actors.verify",), 2)
    m["actors.self_validation_s"] = r["self_validation_s"]
    m["actors.self_validation_share"] = r["self_validation_s"] / verify_incl if verify_incl else 0.0
    m["trace.wall_s"] = r["wall"]
    return m


def layer_metrics(layer_rounds: list, spec_metrics: list) -> tuple:
    """Counts from the first round (they must repeat in every round); times
    and ratios as medians over the later rounds, since the first one also
    records every span."""
    per_round = [round_metrics(r) for r in layer_rounds]
    first = per_round[0]
    timed = per_round[1:] or per_round
    units = {m["name"]: m["unit"] for m in spec_metrics}
    values = {}
    for key in first:
        if units.get(key) in ("count", "bytes"):
            seen = {m[key] for m in per_round}
            if len(seen) != 1:
                print(f"perfbench: {key} differs between rounds: {sorted(seen)}", file=sys.stderr)
            values[key] = first[key]
        else:
            values[key] = statistics.median(m[key] for m in timed)
    metrics = reported(spec_metrics, values)
    table = []
    names = sorted(set().union(*(r["spans"] for r in layer_rounds)))
    later = layer_rounds[1:] or layer_rounds
    for name in names:
        calls = layer_rounds[0]["spans"].get(name, (0, 0.0, 0.0))[0]
        self_s = statistics.median(r["spans"].get(name, (0, 0.0, 0.0))[1] for r in later)
        incl_s = statistics.median(r["spans"].get(name, (0, 0.0, 0.0))[2] for r in later)
        table.append((name, calls, self_s, incl_s))
    return metrics, table


def print_table(name, table, rounds, n_spans, spans_path) -> None:
    print(f"{name}: traced, {rounds} rounds; per set-up plus round, medians:")
    print(f"  {'span':48s} {'calls':>9s} {'self s':>10s} {'incl s':>10s}")
    for span, calls, self_s, incl_s in table:
        print(f"  {span:48s} {calls:9d} {self_s:10.6f} {incl_s:10.6f}")
    print(f"  {n_spans} spans of set-up and round 1 written to {spans_path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coopverify" / "__init__.py").is_file():
        fail(f"no coopverify sources under {ROOT / 'src'}")
    # Set-up imports coopverify as an installed package would be imported,
    # from cached bytecode, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
