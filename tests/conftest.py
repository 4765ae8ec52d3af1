from functools import lru_cache

import pytest
from hypothesis import settings

from delcodes import build_graph

# Fixed example sequences make property-test failures reproducible, and no
# deadline keeps them from flaking on a host whose speed drifts.
settings.register_profile("delcodes", derandomize=True, deadline=None)
settings.load_profile("delcodes")


@lru_cache(maxsize=None)
def _graph(s, n, layer=None):
    return build_graph(s, n, layer)


@pytest.fixture(scope="session")
def cached_graph():
    """Session-wide memoized graph builder; graphs are immutable."""
    return _graph


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict} {name}")
