"""Command-line front end: batch verification over files.

Each actor subcommand (``verify``, ``validate``, ``reduce``,
``extract-test``, ``exec-test``, ``gen-tests``) is a one-step recipe: its
flags bind the input roles of a ``pipeline.ACTORS`` entry, and each output
role has one renderer, which ``pipeline`` shares.  ``parse``,
``check-condition`` and ``check-kind`` are judgments with handlers of
their own.  Exit codes: 0 the judgment holds / result true / test covers,
1 violated / false / not covered, 2 unknown, 64 usage error, 65 unreadable
or invalid input artifact (including one nested too deeply to process),
70 internal error.  ``--format json`` emits one stable object:
``command``, ``verdict``, ``exhausted``, ``config``, ``files``,
``wall_time_s``, ``details``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from . import actors, engine, pipeline
from .automata import ArtifactAutomaton, parse_automaton, serialize_automaton
from .engine import AnalysisConfig
from .errors import CoopVerifyError, NoViolatingPath, ParseError
from .kinds import REFUTED, validate_kind
from .lang import ControlFlowAutomaton, parse_cfa, parse_program, serialize_cfa
from .pipeline import Role
from .predicates import Interval, _integer


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@dataclass
class RunReport:
    """What one subcommand reports, rendered as text or as JSON."""

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
        values.append(_integer(line, lineno))
    return tuple(values)


def load_test(path: str) -> tuple:
    return parse_test_text(_read(path))


# Input role -> the flag that names its file, and the loader that reads it.
_ROLE_FLAGS = {
    Role.PROGRAM: ("program", load_program),
    Role.BEHAVIOR_PROPERTY: ("property", load_automaton),
    Role.TEST_GOALS: ("testgoal", load_automaton),
    Role.WITNESS: ("witness", load_automaton),
    Role.CONDITION: ("condition", load_automaton),
    Role.TEST: ("test", load_test),
}


def _write_file(args, name: str, content: str, report: RunReport) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    report.files.append(path)
    return path


def _test_text(values) -> str:
    return "".join(f"{v}\n" for v in values)


# Output role -> the file it is written to under --out, and its serializer.
_ARTIFACT_FILES = {
    Role.WITNESS: ("witness.aut", serialize_automaton),
    Role.CONDITION: ("condition.aut", serialize_automaton),
    Role.PROGRAM: ("residual.cfa", serialize_cfa),
    Role.TEST: ("extracted.test", _test_text),
}


def _write_artifact(args, role: Role, value, report: RunReport) -> list:
    """Write one output artifact under ``--out`` and return the paths
    written: none for a result or an absent witness, one
    ``test_NNN.test`` per test of a suite."""
    if role is Role.TEST_SUITE:
        return [_write_file(args, f"test_{index:03d}.test", _test_text(record.inputs), report)
                for index, record in enumerate(value.tests)]
    if role not in _ARTIFACT_FILES or value is None:
        return []
    name, serialize = _ARTIFACT_FILES[role]
    return [_write_file(args, name, serialize(value), report)]


# ---------------------------------------------------------------------------
# Shared pieces

def _config(args) -> AnalysisConfig:
    try:
        return AnalysisConfig(Interval(args.input_min, args.input_max), args.max_steps)
    except ValueError as err:
        raise _UsageError(str(err)) from None


_CODES = {"true": 0, "holds": 0, "false": 1, "violated": 1, "unknown": 2}


def _result_outcome(bundle) -> tuple:
    """Verdict, exit code and exhaustion of a result bundle."""
    verdict = bundle.result.value
    return verdict, _CODES[verdict], bundle.judgment.exhausted


def _execution_outcome(execution: actors.ExecutionReport) -> tuple:
    """Verdict and exit code of a test execution."""
    if execution.violation_observed:
        return "violation-observed", 1
    if execution.status == actors.STATUS_COMPLETED:
        return "completed", 0
    return execution.status, 2


# ---------------------------------------------------------------------------
# Output renderers, one per output role of an actor (the execution report
# under ``None``).  Each takes the parsed arguments, the report it fills,
# the produced value and the actor's inputs by role.

def _render_result(args, report: RunReport, bundle, inputs: dict) -> None:
    report.verdict, report.exit_code, report.exhausted = _result_outcome(bundle)
    report.details["judgment"] = bundle.judgment.to_json_dict()
    if Role.WITNESS in inputs:
        report.details["witness_kind"] = inputs[Role.WITNESS].kind.value
    # the judgment's own report, headed by the program-level result
    _, rest = bundle.judgment.text().split("\n", 1)
    report.text_lines.append(f"verdict: {report.verdict}\n{rest}")


def _render_witness(args, report: RunReport, witness, inputs: dict) -> None:
    if witness is not None:
        report.details["witness_file"], = _write_artifact(args, Role.WITNESS, witness, report)


def _render_residual(args, report: RunReport, residual, inputs: dict) -> None:
    path, = _write_artifact(args, Role.PROGRAM, residual, report)
    report.details.update({
        "residual_file": path,
        "locations": len(residual.locations),
        "edges": len(residual.edges),
    })
    report.text_lines.append(f"verdict: ok\nresidual: {len(residual.locations)} locations, "
                             f"{len(residual.edges)} edges")


def _render_test(args, report: RunReport, values, inputs: dict) -> None:
    report.details["inputs"] = list(values)
    report.details["test_file"], = _write_artifact(args, Role.TEST, values, report)
    rendered = ", ".join(str(v) for v in values)
    report.text_lines.append(f"verdict: ok\ninputs: <{rendered}>")


def _render_suite(args, report: RunReport, suite, inputs: dict) -> None:
    paths = _write_artifact(args, Role.TEST_SUITE, suite, report)
    tests_detail = [{
        "file": path,
        "inputs": list(record.inputs),
        "goals": sorted(str(goal.state) for goal in record.goals),
    } for path, record in zip(paths, suite.tests)]
    report.details.update({"suite_size": len(suite), "tests": tests_detail})
    lines = ["verdict: ok", f"suite size: {len(suite)}"]
    for entry in tests_detail:
        rendered = ", ".join(str(v) for v in entry["inputs"])
        lines.append(f"  <{rendered}> covering {', '.join(entry['goals'])} -> {entry['file']}")
    report.text_lines.append("\n".join(lines))


def _render_execution(args, report: RunReport, result, inputs: dict) -> None:
    report.verdict, report.exit_code = _execution_outcome(result)
    report.details.update({
        "status": result.status,
        "consumed_inputs": result.consumed,
        "final_location": result.final_location,
        "final_state": dict(sorted(result.final_state.items())),
        "violation_observed": result.violation_observed,
        "trace_length": result.trace.length,
    })
    lines = [f"verdict: {report.verdict}", f"status: {result.status}", "trace:"]
    lines.extend(f"  {line}" for line in str(result.trace).splitlines())
    if Role.BEHAVIOR_PROPERTY in inputs:
        lines.append(f"violation observed: {'yes' if result.violation_observed else 'no'}")
    report.text_lines.append("\n".join(lines))


_RENDERERS = {
    Role.RESULT: _render_result,
    Role.WITNESS: _render_witness,
    Role.PROGRAM: _render_residual,
    Role.TEST: _render_test,
    Role.TEST_SUITE: _render_suite,
    None: _render_execution,
}


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_actor(command: str, spec: pipeline.ActorSpec, args) -> RunReport:
    """Run one actor as a one-step recipe: load its input roles from their
    flags (an optional role only when its flag is given), call it and
    render each output role."""
    config = _config(args)
    inputs = {}
    for role in spec.inputs + spec.optional_inputs:
        flag, loader = _ROLE_FLAGS[role]
        path = getattr(args, flag)
        if path or role in spec.inputs:
            inputs[role] = loader(path)
    report = RunReport(command, "ok", 0, config=config.to_json_dict())
    try:
        produced = spec.run(list(inputs.values()), config)
    except NoViolatingPath as err:
        report.verdict, report.exit_code = "no-violating-path", 1
        report.details["reason"] = str(err)
        report.text_lines.append(f"verdict: no-violating-path\n{err}")
        return report
    for role, value in zip(spec.outputs or (None,), produced):
        _RENDERERS[role](args, report, value, inputs)
    return report


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


def _cmd_check_condition(args) -> RunReport:
    config = _config(args)
    program = load_program(args.program)
    prop = load_automaton(args.property)
    condition = load_automaton(args.condition)
    judgment = engine.check_condition_correct(program, prop, condition, config)
    verdict = judgment.verdict.value
    report = RunReport("check-condition", verdict, _CODES[verdict],
                       exhausted=judgment.exhausted, config=config.to_json_dict(),
                       details={"judgment": judgment.to_json_dict()})
    report.text_lines.append(judgment.text())
    return report


def _cmd_check_kind(args) -> RunReport:
    config = _config(args)
    paths = [path for path in (args.property, args.testgoal, args.witness, args.condition)
             if path]
    if not paths:
        raise _UsageError("check-kind needs one automaton file")
    if len(paths) > 1:
        raise _UsageError(f"check-kind takes one automaton file, not {len(paths)}")
    program = load_program(args.program)
    aut = load_automaton(paths[0])
    kind_report = validate_kind(aut, program, config.input_domain, config.max_steps)
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
    refuted = kind_report.non_blocking
    if refuted.status == REFUTED:
        edge = refuted.edge
        report.details["refutation"] = {
            "state": refuted.state,
            "edge": [edge.match_src, edge.op.text, edge.match_tgt],
            "post_state": dict(sorted(refuted.counter_state.items())),
        }
    report.text_lines.append(f"verdict: {verdict}\n{kind_report}")
    return report


_EXECUTION_SUMMARIES = {
    "violation-observed": "violation observed by execution",
    "completed": "execution completed without violation",
}


def _pipeline_outcome(result: pipeline.PipelineResult) -> tuple:
    """Verdict, exit code, exhaustion and summary from the last
    verdict-bearing step."""
    for record in reversed(result.log):
        if isinstance(record.report, actors.ExecutionReport):
            verdict, code = _execution_outcome(record.report)
            summary = _EXECUTION_SUMMARIES.get(verdict, f"execution ended: {verdict}")
            return verdict, code, None, summary
        if Role.RESULT.value in record.outputs:
            verdict, code, exhausted = _result_outcome(record.outputs[Role.RESULT.value].value)
            return verdict, code, exhausted, f"result {verdict}"
    return "ok", 0, None, "pipeline completed"


def _cmd_pipeline(args) -> RunReport:
    config = _config(args)
    recipe = pipeline.parse_recipe(_read(args.recipe))
    initial = {}
    for role, (flag, loader) in _ROLE_FLAGS.items():
        value = getattr(args, flag)
        if value:
            initial[role.value] = pipeline.Artifact(role, loader(value))
    result = pipeline.run_pipeline(recipe, initial, config)
    verdict, code, exhausted, summary = _pipeline_outcome(result)
    report = RunReport("pipeline", verdict, code, exhausted=exhausted,
                       config=config.to_json_dict())
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
    for name in sorted({name for record in result.log for name in record.outputs}):
        _write_artifact(args, Role(name), result.artifacts[name].value, report)
    report.text_lines.append("\n".join(lines))
    return report


# ---------------------------------------------------------------------------
# Parser assembly

def _actor_command(name: str, actor: str, help_text: str) -> tuple:
    spec = pipeline.ACTORS[actor]
    return (name, help_text, functools.partial(_cmd_actor, name, spec),
            spec.inputs, spec.optional_inputs)


_ALL_ROLES = tuple(_ROLE_FLAGS)

# Subcommands in --help order: name, help, handler, required and optional
# input roles.
_COMMANDS = (
    ("parse", "parse artifacts and echo canonical form", _cmd_parse, (), _ALL_ROLES),
    _actor_command("verify", "verify", "verify a program against a property"),
    _actor_command("validate", "validate", "validate a witness for a program"),
    ("check-condition", "check a condition is correct", _cmd_check_condition,
     (Role.PROGRAM, Role.BEHAVIOR_PROPERTY, Role.CONDITION), ()),
    _actor_command("reduce", "reduce", "reduce a program by a condition"),
    _actor_command("extract-test", "extract_test", "extract a test from a violation witness"),
    _actor_command("exec-test", "exec_test", "execute a test case"),
    _actor_command("gen-tests", "gen_tests", "generate a goal-covering test suite"),
    ("check-kind", "validate an automaton's kind constraints", _cmd_check_kind,
     (Role.PROGRAM,), (Role.BEHAVIOR_PROPERTY, Role.TEST_GOALS, Role.WITNESS, Role.CONDITION)),
    ("pipeline", "run a cooperation recipe", _cmd_pipeline, (), _ALL_ROLES),
)


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopverify",
                     description="Cooperative verification over a miniature "
                                 "imperative language.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, required, optional in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--input-min", type=int, default=engine.DEFAULT_DOMAIN.lo)
        sub.add_argument("--input-max", type=int, default=engine.DEFAULT_DOMAIN.hi)
        sub.add_argument("--max-steps", type=int, default=engine.DEFAULT_MAX_STEPS)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        sub.add_argument("--out", default=".", help="directory for written artifacts")
        for role in required + optional:
            sub.add_argument(f"--{_ROLE_FLAGS[role][0]}", required=role in required,
                             default=None)
    commands.choices["pipeline"].add_argument("--recipe", required=True)
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
