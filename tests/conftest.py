import itertools
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


def string_words(n, k=None):
    """Library-free reference: the length-n words (of weight k) as strings, ascending."""
    return ["".join(p) for p in itertools.product("01", repeat=n)
            if k is None or p.count("1") == k]


def string_color(w, m):
    """Library-free reference: sum of the 1-based positions of the ones of w, mod m."""
    return sum(i + 1 for i, c in enumerate(w) if c == "1") % m


@lru_cache(maxsize=None)
def string_subsequences(w, length):
    """Library-free reference: the distinct subsequences of w of the given length."""
    return frozenset("".join(w[i] for i in pos)
                     for pos in itertools.combinations(range(len(w)), length))


def string_supersequences(w, t):
    """Library-free reference: the distinct words made by inserting t symbols into w."""
    level = {w}
    for _ in range(t):
        level = {u[:i] + c + u[i:] for u in level for i in range(len(u) + 1) for c in "01"}
    return level


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
