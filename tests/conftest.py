"""The fixture algebras of ``helpers.ALGEBRAS``, one session fixture each, over Q."""

import pytest

from helpers import named_algebra


@pytest.fixture(scope="session")
def cone():
    return named_algebra("cone")


@pytest.fixture(scope="session")
def square():
    return named_algebra("square")


@pytest.fixture(scope="session")
def triangular_a6():
    return named_algebra("triangular_a6")


@pytest.fixture(scope="session")
def truncated_cycle():
    return named_algebra("truncated_cycle")


@pytest.fixture(scope="session")
def a2():
    return named_algebra("a2")


@pytest.fixture(scope="session")
def point():
    return named_algebra("point")
