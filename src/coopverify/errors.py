"""Exception types shared across the toolkit."""

from __future__ import annotations


class CoopVerifyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CoopVerifyError):
    """A source text (program, automaton, test, or recipe) is malformed.

    Carries a position when one is known; ``line`` is 1-based.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class UnknownKind(ParseError):
    """An automaton header names a kind outside the six supported ones."""


class DuplicateOtherwise(ParseError):
    """A state declares more than one otherwise transition."""


class UseBeforeDef(CoopVerifyError):
    """A program operation may read a variable before every path assigns it."""

    def __init__(self, variable: str, location: int):
        self.variable = variable
        self.location = location
        super().__init__(
            f"variable '{variable}' may be read before assignment at location {location}"
        )


class UndefinedVariable(CoopVerifyError):
    """A predicate or expression read a variable the data state does not bind."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable '{name}' is not bound in the data state")


class UnboundTemplate(CoopVerifyError):
    """The input template placeholder ``chi`` was used without a binding."""

    def __init__(self) -> None:
        super().__init__("template placeholder 'chi' has no binding here")


class InvalidArtifact(CoopVerifyError):
    """An automaton fails the structural constraints of its declared kind."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NoViolatingPath(CoopVerifyError):
    """Test extraction found no path admitted by both witness and property."""


class TypeMismatch(CoopVerifyError):
    """A pipeline step was bound to an artifact of the wrong role."""

    def __init__(self, step: int, expected: str, got: str):
        self.step = step
        self.expected = expected
        self.got = got
        super().__init__(f"step {step}: expected artifact of role '{expected}', got '{got}'")


class PipelineStepError(CoopVerifyError):
    """An actor failed while running inside a pipeline; wraps the cause."""

    def __init__(self, step: int, actor: str, cause: Exception):
        self.step = step
        self.actor = actor
        self.cause = cause
        super().__init__(f"step {step} ({actor}) failed: {cause}")
