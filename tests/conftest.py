"""Shared fixtures: the bundled instance files and small helpers."""

import json
from pathlib import Path

import pytest

from eicp.errors import GenerationError
from eicp.model import EicpInstance, gen_random, parse_instance

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

_CRITERION_LINES: dict[str, str] = {}


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def load_instance(name: str) -> EicpInstance:
    return parse_instance(fixture_path(name).read_text())


@pytest.fixture
def mixed4() -> EicpInstance:
    return load_instance("mixed4.json")


@pytest.fixture
def dense4() -> EicpInstance:
    return load_instance("dense4.json")


@pytest.fixture
def seven_user() -> EicpInstance:
    return load_instance("seven_user.json")


@pytest.fixture
def mixed4_code_text() -> str:
    return fixture_path("mixed4_code.json").read_text()


def all_fixture_instances() -> list[EicpInstance]:
    return [
        load_instance(p.name)
        for p in sorted(FIXTURE_DIR.glob("*.json"))
        if "code" not in json.loads(p.read_text()) and "transmissions" not in p.read_text()
    ]


def random_corpus(minimum=200) -> list[EicpInstance]:
    """The seeded q = 2 corpus of criterion 03: n, m in 2..5, densities .3/.5/.7."""
    instances = []
    seed = 0
    while len(instances) < minimum or seed < 240:
        n = 2 + seed % 4
        m = 2 + (seed // 4) % 4
        density = (0.3, 0.5, 0.7)[seed % 3]
        try:
            instances.append(gen_random(n, m, 2, density, seed))
        except GenerationError:
            pass
        seed += 1
    return instances


# ---------- acceptance summary plumbing ----------

def record_criterion(name: str, line: str) -> None:
    """Stash the one-line result a criterion test wants echoed at the end."""
    _CRITERION_LINES[name] = line


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_criterion" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.failed:
        _CRITERION_LINES[name] = _CRITERION_LINES.get(name, name) + "  FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[name])
