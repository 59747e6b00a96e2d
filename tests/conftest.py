from __future__ import annotations

import os

import pytest
from hypothesis import settings

import tightgroupoid as tg
from tightgroupoid import semigroup

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


@pytest.fixture
def product_count(monkeypatch):
    """Counts the products f a that the closure walk's block passes form
    in the test, in a one-item list."""
    calls = [0]
    products = semigroup._right_products

    def counting(block, letters):
        out = products(block, letters)
        calls[0] += out.shape[0] * out.shape[1]
        return out

    monkeypatch.setattr(semigroup, "_right_products", counting)
    return calls
