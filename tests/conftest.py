"""Fixtures shared by the test modules."""

import pytest

from mochain.verify import run_verify


@pytest.fixture(scope="session")
def verify_results():
    """The verify suite, run once: each check's result by its name, in report order."""
    return {result.name: result for result in run_verify()}
