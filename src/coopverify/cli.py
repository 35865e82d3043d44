"""Command-line front end: batch verification over files.

One subcommand per actor plus ``parse`` and ``check-kind`` for artifact
inspection.  Exit codes: 0 the judgment holds / result true / test covers,
1 violated / false / not covered, 2 unknown, 64 usage error, 65 unreadable
or invalid input artifact (including one nested too deeply to process),
70 internal error.  ``--format json`` emits one stable object:
``command``, ``verdict``, ``exhausted``, ``config``, ``files``,
``wall_time_s``, ``details``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from . import actors, engine, pipeline
from .automata import ArtifactAutomaton, AutomatonKind, parse_automaton, serialize_automaton
from .engine import AnalysisConfig
from .errors import CoopVerifyError, NoViolatingPath, ParseError
from .kinds import validate_kind
from .lang import ControlFlowAutomaton, parse_cfa, parse_program, serialize_cfa
from .predicates import Interval


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@dataclass
class RunReport:
    command: str
    verdict: str
    exit_code: int
    exhausted: Optional[bool] = None
    config: Optional[dict] = None
    files: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    text_lines: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Artifact file IO

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def load_program(path: str) -> ControlFlowAutomaton:
    """Programs come as source (.imp) or as serialized automata (.cfa);
    told apart by the leading ``cfa`` header."""
    text = _read(path)
    if text.lstrip().startswith("cfa"):
        return parse_cfa(text)
    return parse_program(text)


def load_automaton(path: str) -> ArtifactAutomaton:
    return parse_automaton(_read(path))


def parse_test_text(text: str) -> tuple:
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ParseError(f"not an integer: {line!r}", lineno) from None
    return tuple(values)


def load_test(path: str) -> tuple:
    return parse_test_text(_read(path))


def _write_file(args, name: str, content: str, report: RunReport) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    report.files.append(path)
    return path


def _test_text(values) -> str:
    return "".join(f"{v}\n" for v in values)


# ---------------------------------------------------------------------------
# Shared pieces

def _config(args) -> AnalysisConfig:
    try:
        return AnalysisConfig(Interval(args.input_min, args.input_max), args.max_steps)
    except ValueError as err:
        raise _UsageError(str(err)) from None


_RESULT_CODES = {"true": 0, "false": 1, "unknown": 2}
_VERDICT_CODES = {"holds": 0, "violated": 1, "unknown": 2}


def _bundle_report(command: str, bundle, config: AnalysisConfig) -> RunReport:
    verdict = bundle.result.value
    judgment = bundle.judgment
    report = RunReport(command, verdict, _RESULT_CODES[verdict],
                       exhausted=judgment.exhausted, config=config.to_json_dict(),
                       details={"judgment": judgment.to_json_dict()})
    # the judgment's own report, headed by the program-level result
    _, rest = judgment.text().split("\n", 1)
    report.text_lines.append(f"verdict: {verdict}\n{rest}")
    return report


def _maybe_write_witness(args, bundle, report: RunReport) -> None:
    if bundle.witness is not None:
        path = _write_file(args, "witness.aut", serialize_automaton(bundle.witness), report)
        report.details["witness_file"] = path


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_parse(args) -> RunReport:
    report = RunReport("parse", "ok", 0)
    shown = []
    if args.program:
        cfa = load_program(args.program)
        shown.append(serialize_cfa(cfa))
        report.details.setdefault("programs", []).append({
            "file": args.program,
            "locations": len(cfa.locations),
            "edges": len(cfa.edges),
            "variables": sorted(cfa.variables),
        })
    for path in (args.property, args.testgoal, args.witness, args.condition):
        if path:
            aut = load_automaton(path)
            shown.append(serialize_automaton(aut))
            report.details.setdefault("automata", []).append({
                "file": path, "name": aut.name, "kind": aut.kind.value,
                "states": len(aut.states), "transitions": len(aut.transitions),
            })
    if args.test:
        values = load_test(args.test)
        shown.append(_test_text(values))
        report.details["test"] = list(values)
    if not shown:
        raise _UsageError("parse needs at least one artifact to read")
    report.text_lines.extend(text.rstrip("\n") for text in shown)
    return report


def _cmd_verify(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    prop = load_automaton(args.property)
    bundle = actors.verify(program, prop, config)
    report = _bundle_report("verify", bundle, config)
    _maybe_write_witness(args, bundle, report)
    return report


def _cmd_validate(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    prop = load_automaton(args.property)
    witness = load_automaton(args.witness)
    bundle = actors.validate_result(program, prop, witness, config)
    report = _bundle_report("validate", bundle, config)
    report.details["witness_kind"] = witness.kind.value
    _maybe_write_witness(args, bundle, report)
    return report


def _cmd_check_condition(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    prop = load_automaton(args.property)
    condition = load_automaton(args.condition)
    judgment = engine.check_condition_correct(program, prop, condition, config)
    verdict = judgment.verdict.value
    report = RunReport("check-condition", verdict, _VERDICT_CODES[verdict],
                       exhausted=judgment.exhausted, config=config.to_json_dict(),
                       details={"judgment": judgment.to_json_dict()})
    report.text_lines.append(judgment.text())
    return report


def _cmd_reduce(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    condition = load_automaton(args.condition)
    residual = actors.reduce(program, condition)
    report = RunReport("reduce", "ok", 0, config=config.to_json_dict())
    path = _write_file(args, "residual.cfa", serialize_cfa(residual), report)
    report.details.update({
        "residual_file": path,
        "locations": len(residual.locations),
        "edges": len(residual.edges),
    })
    report.text_lines.append(
        f"verdict: ok\nresidual: {len(residual.locations)} locations, "
        f"{len(residual.edges)} edges\nwrote {path}")
    return report


def _cmd_extract_test(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    prop = load_automaton(args.property)
    witness = load_automaton(args.witness)
    try:
        values = actors.extract_test(program, prop, witness, config)
    except NoViolatingPath as err:
        report = RunReport("extract-test", "no-violating-path", 1,
                           exhausted=None, config=config.to_json_dict(),
                           details={"reason": str(err)})
        report.text_lines.append(f"verdict: no-violating-path\n{err}")
        return report
    report = RunReport("extract-test", "ok", 0, config=config.to_json_dict(),
                       details={"inputs": list(values)})
    path = _write_file(args, "extracted.test", _test_text(values), report)
    report.details["test_file"] = path
    rendered = ", ".join(str(v) for v in values)
    report.text_lines.append(f"verdict: ok\ninputs: <{rendered}>\nwrote {path}")
    return report


def _cmd_exec_test(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    values = load_test(args.test)
    prop = load_automaton(args.property) if args.property else None
    result = actors.exec_test(program, values, prop, config.max_steps)
    if result.violation_observed:
        verdict, code = "violation-observed", 1
    elif result.status == actors.STATUS_COMPLETED:
        verdict, code = "completed", 0
    else:
        verdict, code = result.status, 2
    report = RunReport("exec-test", verdict, code, config=config.to_json_dict())
    report.details.update({
        "status": result.status,
        "consumed_inputs": result.consumed,
        "final_location": result.final_location,
        "final_state": dict(sorted(result.final_state.items())),
        "violation_observed": result.violation_observed,
        "trace_length": result.trace.length,
    })
    lines = [f"verdict: {verdict}", f"status: {result.status}", "trace:"]
    lines.extend(f"  {line}" for line in str(result.trace).splitlines())
    if prop is not None:
        lines.append(f"violation observed: {'yes' if result.violation_observed else 'no'}")
    report.text_lines.append("\n".join(lines))
    return report


def _cmd_gen_tests(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    goals = load_automaton(args.testgoal)
    suite = actors.generate_tests(program, goals, config)
    report = RunReport("gen-tests", "ok", 0, config=config.to_json_dict())
    tests_detail = []
    for index, record in enumerate(suite.tests):
        path = _write_file(args, f"test_{index:03d}.test", _test_text(record.inputs), report)
        tests_detail.append({
            "file": path,
            "inputs": list(record.inputs),
            "goals": sorted(str(goal.state) for goal in record.goals),
        })
    report.details.update({"suite_size": len(suite), "tests": tests_detail})
    lines = [f"verdict: ok", f"suite size: {len(suite)}"]
    for entry in tests_detail:
        rendered = ", ".join(str(v) for v in entry["inputs"])
        lines.append(f"  <{rendered}> covering {', '.join(entry['goals'])} -> {entry['file']}")
    report.text_lines.append("\n".join(lines))
    return report


def _cmd_check_kind(args) -> RunReport:
    config = _config(args)
    path = args.property or args.testgoal or args.witness or args.condition
    if path is None:
        raise _UsageError("check-kind needs one automaton file")
    program = load_program(args.program)
    aut = load_automaton(path)
    domain = config.input_domain if aut.kind is AutomatonKind.PROPERTY else None
    kind_report = validate_kind(aut, program, domain)
    verdict = "ok" if kind_report.ok else "not-ok"
    report = RunReport("check-kind", verdict, 0 if kind_report.ok else 1,
                       config=config.to_json_dict())
    report.details.update({
        "kind": aut.kind.value,
        "violations": [
            {"constraint": v.constraint, "subject": v.subject, "message": v.message}
            for v in kind_report.violations
        ],
        "non_blocking": kind_report.non_blocking.status,
    })
    report.text_lines.append(f"verdict: {verdict}\n{kind_report}")
    return report


_PIPELINE_SOURCES = (
    ("program", pipeline.Role.PROGRAM, load_program),
    ("property", pipeline.Role.BEHAVIOR_PROPERTY, load_automaton),
    ("testgoal", pipeline.Role.TEST_GOALS, load_automaton),
    ("witness", pipeline.Role.WITNESS, load_automaton),
    ("condition", pipeline.Role.CONDITION, load_automaton),
    ("test", pipeline.Role.TEST, load_test),
)


def _pipeline_outcome(result: pipeline.PipelineResult) -> tuple:
    """Verdict and exit code from the last verdict-bearing step."""
    for record in reversed(result.log):
        if record.report is not None and isinstance(record.report, actors.ExecutionReport):
            execution = record.report
            if execution.violation_observed:
                return "violation-observed", 1, "violation observed by execution"
            if execution.status == actors.STATUS_COMPLETED:
                return "completed", 0, "execution completed without violation"
            return execution.status, 2, f"execution ended: {execution.status}"
        if "r" in record.outputs:
            bundle = record.outputs["r"].value
            verdict = bundle.result.value
            return verdict, _RESULT_CODES[verdict], f"result {verdict}"
    return "ok", 0, "pipeline completed"


def _cmd_pipeline(args) -> RunReport:
    config = _config(args)
    recipe = pipeline.parse_recipe(_read(args.recipe))
    initial = {}
    for flag, role, loader in _PIPELINE_SOURCES:
        value = getattr(args, flag)
        if value:
            initial[role.value] = pipeline.Artifact(role, loader(value))
    result = pipeline.run_pipeline(recipe, initial, config)
    verdict, code, summary = _pipeline_outcome(result)
    report = RunReport("pipeline", verdict, code, config=config.to_json_dict())
    steps_detail = []
    lines = [f"verdict: {verdict}"]
    for record in result.log:
        produced = sorted(record.outputs)
        note = f"step {record.index}: {record.actor}"
        if produced:
            note += f" -> {', '.join(produced)}"
        if record.report is not None:
            note += f" [{record.report.status}]"
        lines.append(note)
        steps_detail.append({
            "step": record.index,
            "actor": record.actor,
            "outputs": produced,
        })
    lines.append(summary)
    report.details.update({"steps": steps_detail, "summary": summary})
    produced_names = {name for record in result.log for name in record.outputs}
    writers = {
        "omega": ("witness.aut", lambda v: serialize_automaton(v)),
        "psi": ("condition.aut", lambda v: serialize_automaton(v)),
        "t": ("extracted.test", _test_text),
        "p": ("residual.cfa", serialize_cfa),
    }
    for name in sorted(produced_names):
        if name in writers and result.artifacts[name].value is not None:
            filename, renderer = writers[name]
            _write_file(args, filename, renderer(result.artifacts[name].value), report)
    if "ts" in produced_names:
        suite = result.artifacts["ts"].value
        for index, record in enumerate(suite.tests):
            _write_file(args, f"test_{index:03d}.test", _test_text(record.inputs), report)
    report.text_lines.append("\n".join(lines))
    return report


# ---------------------------------------------------------------------------
# Parser assembly

def _add_common(sub) -> None:
    sub.add_argument("--input-min", type=int, default=engine.DEFAULT_DOMAIN.lo)
    sub.add_argument("--input-max", type=int, default=engine.DEFAULT_DOMAIN.hi)
    sub.add_argument("--max-steps", type=int, default=engine.DEFAULT_MAX_STEPS)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=".", help="directory for written artifacts")


def _add_artifacts(sub, *names, required=()) -> None:
    for name in names:
        sub.add_argument(f"--{name}", required=name in required, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopverify",
                     description="Cooperative verification over a miniature "
                                 "imperative language.")
    commands = parser.add_subparsers(dest="command", required=True)

    def new(name, handler, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        _add_common(sub)
        return sub

    sub = new("parse", _cmd_parse, "parse artifacts and echo canonical form")
    _add_artifacts(sub, "program", "property", "testgoal", "witness", "condition", "test")

    sub = new("verify", _cmd_verify, "verify a program against a property")
    _add_artifacts(sub, "program", "property", required=("program", "property"))

    sub = new("validate", _cmd_validate, "validate a witness for a program")
    _add_artifacts(sub, "program", "property", "witness",
                   required=("program", "property", "witness"))

    sub = new("check-condition", _cmd_check_condition, "check a condition is correct")
    _add_artifacts(sub, "program", "property", "condition",
                   required=("program", "property", "condition"))

    sub = new("reduce", _cmd_reduce, "reduce a program by a condition")
    _add_artifacts(sub, "program", "condition", required=("program", "condition"))

    sub = new("extract-test", _cmd_extract_test, "extract a test from a violation witness")
    _add_artifacts(sub, "program", "property", "witness",
                   required=("program", "property", "witness"))

    sub = new("exec-test", _cmd_exec_test, "execute a test case")
    _add_artifacts(sub, "program", "test", "property", required=("program", "test"))

    sub = new("gen-tests", _cmd_gen_tests, "generate a goal-covering test suite")
    _add_artifacts(sub, "program", "testgoal", required=("program", "testgoal"))

    sub = new("check-kind", _cmd_check_kind, "validate an automaton's kind constraints")
    _add_artifacts(sub, "program", "property", "testgoal", "witness", "condition",
                   required=("program",))

    sub = new("pipeline", _cmd_pipeline, "run a cooperation recipe")
    _add_artifacts(sub, "program", "property", "testgoal", "witness", "condition", "test")
    sub.add_argument("--recipe", required=True)

    return parser


def _emit(report: RunReport, fmt: str, wall_time: float) -> None:
    if fmt == "json":
        payload = {
            "command": report.command,
            "verdict": report.verdict,
            "exhausted": report.exhausted,
            "config": report.config,
            "files": report.files,
            "wall_time_s": round(wall_time, 6),
            "details": report.details,
        }
        print(json.dumps(payload, indent=2))
        return
    for block in report.text_lines:
        print(block)
    for path in report.files:
        print(f"wrote {path}")
    print(f"wall time: {wall_time:.3f} s")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        report = args.handler(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except (CoopVerifyError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 65
    except RecursionError:
        # parsers and evaluators recurse over the input's expression trees
        print("error: input nested too deeply to process", file=sys.stderr)
        return 65
    except Exception as err:  # a fault of coopverify itself, never a verdict
        detail = " ".join(str(err).split())
        where = traceback.extract_tb(err.__traceback__)[-1]
        print(f"internal error: {type(err).__name__}: {detail} "
              f"(at {os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 70
    _emit(report, args.format, time.monotonic() - start)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
