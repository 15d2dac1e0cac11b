"""Shared fixtures and the acceptance summary printer."""

import numpy as np
import pytest

from g2knot.algebra import standard_g2

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def g2():
    return standard_g2()
