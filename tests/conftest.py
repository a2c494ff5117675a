import importlib
import re

import pytest

from curvemap import DEFAULT_PRIME, QQ, Parameterization, PrimeField, parse_form

# one line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the run so the pass/fail verdicts are visible in plain output
ACCEPTANCE_LINES: dict = {}

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


@pytest.fixture(scope="session")
def field():
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture(params=["prime", "rational"])
def any_field(request, field):
    return field if request.param == "prime" else QQ


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def build(field):
    def make(*texts, f=None):
        k = f or field
        return Parameterization.build(k, [parse_form(k, t) for t in texts])

    return make


@pytest.fixture
def walked(monkeypatch):
    """The values t of the points (1 : t) the map-degree walk reads, in order."""
    ts = []
    # the package exports the function fiber under the module's name
    module = importlib.import_module("curvemap.fiber")
    real = module._image_fibers

    def spy(P, phi, stop):
        for t, g in real(P, phi, stop):
            ts.append(t)
            yield t, g

    monkeypatch.setattr(module, "_image_fibers", spy)
    return ts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(rep.nodeid)
            if m:
                outcomes[int(m.group(1))] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] == "passed" else "FAIL"
        detail = ACCEPTANCE_LINES.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {detail}")
