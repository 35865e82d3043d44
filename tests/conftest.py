"""Shared pytest fixtures: the sample programs and analysis configs."""

import pytest

import corpus
import reference


@pytest.fixture(autouse=True)
def _enumerations_per_test():
    """The reference machinery enumerates a program's paths once per test
    (see ``reference.enumerated``), and no enumeration outlives the test."""
    yield
    reference.forget_enumerations()


@pytest.fixture(scope="session")
def p():
    return corpus.program_p()


@pytest.fixture(scope="session")
def p_prime():
    return corpus.program_p_prime()


@pytest.fixture(scope="session")
def cfg4():
    return corpus.CFG4


@pytest.fixture(scope="session")
def cfg8():
    return corpus.CFG8
