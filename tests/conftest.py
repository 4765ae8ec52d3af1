import itertools
from functools import lru_cache

import pytest
from hypothesis import settings

from delcodes import BitString, build_graph

# Fixed example sequences make property-test failures reproducible, and no
# deadline keeps them from flaking on a host whose speed drifts.
settings.register_profile("delcodes", derandomize=True, deadline=None)
settings.load_profile("delcodes")


@lru_cache(maxsize=None)
def _graph(s, n, layer=None):
    return build_graph(s, n, layer)


def all_words(n):
    """Every n-symbol word as a BitString, in value order."""
    return [BitString.from_value(v, n) for v in range(1 << n)]


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


def string_segment_clique(l, k, b, c):
    """Library-free reference: the members of segment_clique(l, k, b, c) as
    sorted strings, and its center, each assembled from its run lengths
    (first run of zeros): k segments of l unit runs between runs of 3, with
    b segments given one doubled run and c segments two runs fewer and one
    doubled."""
    def assemble(segments):
        runs = list(segments[0])
        for seg in segments[1:]:
            runs.append(3)
            runs.extend(seg)
        return "".join("01"[t & 1] * rl for t, rl in enumerate(runs))

    doubled = [tuple(2 if j == i else 1 for j in range(l)) for i in range(l)]
    shorter = [tuple(2 if j == i else 1 for j in range(l - 2)) for i in range(l - 2)]
    members = []
    for pos_b in itertools.combinations(range(k), b):
        for pos_c in itertools.combinations([t for t in range(k) if t not in pos_b], c):
            for choice_b in itertools.product(doubled, repeat=b):
                for choice_c in itertools.product(shorter, repeat=c):
                    segments = [(1,) * l] * k
                    for t, seg in zip(pos_b + pos_c, choice_b + choice_c):
                        segments[t] = seg
                    members.append(assemble(segments))
    return sorted(members), assemble([(1,) * l] * k)


def string_lcs(x, y):
    """Library-free reference: the length of a longest common subsequence, by the row DP."""
    prev = [0] * (len(y) + 1)
    for a in x:
        row = [0]
        for j, b in enumerate(y):
            row.append(prev[j] + 1 if a == b else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def string_adjacency(words, s):
    """Library-free reference: the neighbors of each of the equal-length plain
    string words, the other words sharing a subsequence of s fewer symbols."""
    balls = {w: string_subsequences(w, len(w) - s) for w in words}
    return {w: {u for u in words if u != w and not balls[w].isdisjoint(balls[u])}
            for w in words}


def reference_greedy(words, s):
    """Library-free reference: the minimum-degree greedy independent set.

    ``words`` are equal-length plain strings in ascending order, adjacent
    when they share a subsequence of s fewer symbols.  Each step rescans
    the words left and takes the first one with the fewest neighbors left.
    """
    adjacent = string_adjacency(words, s)
    left, chosen = list(words), set()
    while left:
        alive = set(left)
        w = min(left, key=lambda u: len(adjacent[u] & alive))
        chosen.add(w)
        left = [u for u in left if u != w and u not in adjacent[w]]
    return chosen


def reference_degeneracy_order(words, s):
    """Library-free reference: a degeneracy order of the complement, as indices.

    ``words`` as for :func:`reference_greedy`.  Each step rescans the words
    left and removes the first one with the fewest non-neighbors left; the
    order lists the word indices from the last removed to the first.
    """
    adjacent = string_adjacency(words, s)
    left, removed = list(words), []
    while left:
        alive = set(left)
        w = min(left, key=lambda u: len(alive - adjacent[u] - {u}))
        removed.append(words.index(w))
        left.remove(w)
    return removed[::-1]


def grouped_cliques(values, n, s):
    """Reference grouping: index lists of the packed n-symbol words by shared s-deletion.

    Each word's deletion ball is built position by position, and the words
    are grouped by the members of their balls; the groups of two or more
    are returned, each in ascending index order.
    """
    def delete(v, m, i):
        return (v >> (m - i)) << (m - 1 - i) | v & ((1 << (m - 1 - i)) - 1)

    groups = {}
    for i, v in enumerate(values):
        ball = {v}
        for m in range(n, n - s, -1):
            ball = {delete(w, m, p) for w in ball for p in range(m)}
        for z in ball:
            groups.setdefault(z, []).append(i)
    return [idxs for idxs in groups.values() if len(idxs) > 1]


def grouped_adjacency(values, n, s):
    """Reference adjacency masks: the OR of the groups of :func:`grouped_cliques`."""
    adj = [0] * len(values)
    for idxs in grouped_cliques(values, n, s):
        mask = sum(1 << i for i in idxs)
        for i in idxs:
            adj[i] |= mask
    return [mask & ~(1 << i) for i, mask in enumerate(adj)]


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
