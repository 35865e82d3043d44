"""Sequential cooperation pipelines over typed artifacts.

A recipe is a list of actor steps; artifacts are named by fixed role letters
(``p`` program, ``phi_b`` behavior property, ``phi_t`` test goals, ``r``
result, ``omega`` witness, ``psi`` condition, ``t`` test, ``ts`` test
suite).  Each actor declares input and output roles; outputs rebind their
role name, so e.g. ``reduce`` replaces ``p`` with the residual program and a
following ``verify`` picks it up.  Role compatibility is checked for the
whole recipe before any step runs.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

from . import actors
from .automata import AutomatonKind
from .errors import ParseError, PipelineStepError, TypeMismatch
from .engine import AnalysisConfig, DEFAULT_CONFIG, require_valid_kind


class Role(Enum):
    PROGRAM = "p"
    BEHAVIOR_PROPERTY = "phi_b"
    TEST_GOALS = "phi_t"
    RESULT = "r"
    WITNESS = "omega"
    CONDITION = "psi"
    TEST = "t"
    TEST_SUITE = "ts"


class Artifact(NamedTuple):
    """A value exchanged between actors, tagged with its role."""

    role: Role
    value: object


class ActorSpec(NamedTuple):
    """Typing and implementation of one pipeline actor.

    ``optional_inputs`` may be bound in a recipe after the required ones
    (e.g. a property for test execution).  ``run`` receives the input values
    plus the config and returns one value per output role, with an optional
    extra report appended for presenter actors.
    """

    name: str
    inputs: tuple
    outputs: tuple
    optional_inputs: tuple
    run: Callable


def _run_verify(values, config):
    bundle = actors.verify(values[0], values[1], config)
    return (bundle, bundle.witness)


def _run_validate(values, config):
    bundle = actors.validate_result(values[0], values[1], values[2], config)
    return (bundle, bundle.witness)


def _run_conditional_verify(values, config):
    bundle = actors.conditional_verify(values[0], values[1], values[2], config)
    return (bundle, bundle.witness, bundle.condition)


def _run_reduce(values, config):
    return (actors.reduce(values[0], values[1]),)


def _run_extract_test(values, config):
    return (actors.extract_test(values[0], values[1], values[2], config),)


def _run_exec_test(values, config):
    prop = values[2] if len(values) > 2 else None
    if prop is not None:  # the library actor also watches test-goal automata
        require_valid_kind(prop, AutomatonKind.PROPERTY)
    report = actors.exec_test(values[0], values[1], prop, config.max_steps)
    return (report,)  # presenter: no artifacts, report only


def _run_gen_tests(values, config):
    return (actors.generate_tests(values[0], values[1], config),)


def _run_identity(values, config):
    return (values[0],)


_P = Role.PROGRAM
_PHI_B = Role.BEHAVIOR_PROPERTY
_PHI_T = Role.TEST_GOALS
_R = Role.RESULT
_OMEGA = Role.WITNESS
_PSI = Role.CONDITION
_T = Role.TEST
_TS = Role.TEST_SUITE

ACTORS = {
    spec.name: spec
    for spec in (
        ActorSpec("verify", (_P, _PHI_B), (_R, _OMEGA), (), _run_verify),
        ActorSpec("validate", (_P, _PHI_B, _OMEGA), (_R, _OMEGA), (), _run_validate),
        ActorSpec("conditional_verify", (_P, _PHI_B, _PSI), (_R, _OMEGA, _PSI), (),
                  _run_conditional_verify),
        ActorSpec("reduce", (_P, _PSI), (_P,), (), _run_reduce),
        ActorSpec("extract_test", (_P, _PHI_B, _OMEGA), (_T,), (), _run_extract_test),
        ActorSpec("exec_test", (_P, _T), (), (_PHI_B,), _run_exec_test),
        ActorSpec("gen_tests", (_P, _PHI_T), (_TS,), (), _run_gen_tests),
        ActorSpec("identity", None, None, (), _run_identity),  # any one artifact
    )
}


class Step(NamedTuple):
    """One recipe step: an actor and the artifact names bound to its inputs."""

    actor: str
    bindings: tuple  # artifact names, positional


class Recipe(NamedTuple):
    """A sequence of pipeline steps, run in order."""

    steps: tuple


def parse_recipe(source: str) -> Recipe:
    """Parse the pipeline format: one ``step <actor> <artifact names>`` per
    line, ``#`` comments and blank lines ignored."""
    steps = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        if words[0] != "step" or len(words) < 2:
            raise ParseError("expected 'step <actor> <artifact names>'", lineno)
        actor = words[1]
        if actor not in ACTORS:
            known = ", ".join(sorted(ACTORS))
            raise ParseError(f"unknown actor {actor!r} (known: {known})", lineno)
        steps.append(Step(actor, tuple(words[2:])))
    return Recipe(tuple(steps))


def _accepted_arities(spec: ActorSpec) -> range:
    if spec.inputs is None:  # identity: exactly one artifact of any role
        return range(1, 2)
    lo = len(spec.inputs)
    return range(lo, lo + len(spec.optional_inputs) + 1)


def check_recipe(recipe: Recipe, initial: dict) -> None:
    """Pre-flight role check of the whole recipe against the initial
    artifacts; raises TypeMismatch before anything runs."""
    roles = {name: artifact.role for name, artifact in initial.items()}
    for index, step in enumerate(recipe.steps):
        spec = ACTORS[step.actor]
        if len(step.bindings) not in _accepted_arities(spec):
            raise TypeMismatch(index, f"{step.actor} taking "
                               f"{'/'.join(str(n) for n in _accepted_arities(spec))} artifacts",
                               f"{len(step.bindings)} bindings")
        bound_roles = []
        for name in step.bindings:
            if name not in roles:
                raise TypeMismatch(index, f"an artifact named {name!r}", "nothing bound")
            bound_roles.append(roles[name])
        if spec.inputs is None:  # identity passes anything through
            outputs = (bound_roles[0],)
        else:
            expected = spec.inputs + spec.optional_inputs[:len(bound_roles) - len(spec.inputs)]
            for want, got, name in zip(expected, bound_roles, step.bindings):
                if want is not got:
                    raise TypeMismatch(index, want.value, f"{name} of role {got.value}")
            outputs = spec.outputs
        for role in outputs:
            roles[role.value] = role


class StepRecord(NamedTuple):
    """Log entry for one executed step: the artifacts it produced plus, for
    presenter actors, the report it printed."""

    index: int
    actor: str
    outputs: dict
    report: Optional[object] = None


class PipelineResult(NamedTuple):
    """The artifacts a pipeline ends with and the log of its steps."""

    artifacts: dict  # final environment, name -> Artifact
    log: tuple


def run_pipeline(recipe: Recipe, initial: dict,
                 config: AnalysisConfig = DEFAULT_CONFIG) -> PipelineResult:
    """Execute a role-checked recipe; actor failures carry their step index."""
    check_recipe(recipe, initial)
    env = dict(initial)
    log = []
    for index, step in enumerate(recipe.steps):
        spec = ACTORS[step.actor]
        values = [env[name].value for name in step.bindings]
        try:
            produced = spec.run(values, config)
        except Exception as err:
            raise PipelineStepError(index, step.actor, err) from err
        if spec.inputs is None:
            output_roles = (env[step.bindings[0]].role,)
        else:
            output_roles = spec.outputs
        outputs = {}
        report = None
        if output_roles:
            for role, value in zip(output_roles, produced):
                artifact = Artifact(role, value)
                env[role.value] = artifact
                outputs[role.value] = artifact
        elif produced:
            report = produced[0]
        log.append(StepRecord(index, step.actor, outputs, report))
    return PipelineResult(env, tuple(log))
