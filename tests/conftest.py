from __future__ import annotations

import os

import pytest
from hypothesis import settings

import tightgroupoid as tg

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and more of them,
# for the property tests that leave the example count to the profile
settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

CORPUS_SEED = 7
CORPUS_COUNT = 100

ACCEPTANCE_LINES = []


def record_acceptance(number: int, description: str) -> None:
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} ({description}): PASS")
    print(ACCEPTANCE_LINES[-1])


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def named_fixtures():
    return {name: tg.build_fixture(name) for name in ("I2", "B2", "Z2z", "E4")}


@pytest.fixture(scope="session")
def corpus100():
    return tg.corpus(CORPUS_COUNT, CORPUS_SEED)


@pytest.fixture(scope="session")
def analyses(named_fixtures):
    return {name: tg.analyze(sg, name=name) for name, sg in named_fixtures.items()}


@pytest.fixture(scope="session")
def corpus_verifications(named_fixtures, corpus100):
    """Every instance pushed through the full identity harness once,
    with the wall-clock cost of doing so."""
    import time

    instances = list(named_fixtures.items()) + list(corpus100)
    start = time.perf_counter()
    rows = []
    for name, sg in instances:
        analysis, checks = tg.verify_instance(sg, name)
        rows.append((name, sg, analysis, checks))
    elapsed = time.perf_counter() - start
    return rows, elapsed
