"""The benchmark's workloads: seeded job decks, job execution and checks.

A workload is an endless sequence of decks.  Every deck of a workload holds
the same job classes in the same numbers; the seed picks each job's free
parameters (residues, mirror-image layers, corruption points, random words)
among choices of about equal cost, and the order of the jobs.  A run always
ends on a deck boundary, so two seeds run the same mix of work, and each
job belongs to a class (its slot) that recurs in every deck.

``execute`` is the timed part of a job and calls the library only through
module attributes (``lib.codes.vt_code``), so a traced run can wrap them.
``check`` runs untimed, compares the result with the references in
``oracle`` and returns the job's canonical output text.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import oracle
from oracle import require

Job = Tuple  # (kind, *parameters); every field is a str, int, float or None

WORKLOADS = ("construct-verify", "graph-scan", "alpha-exact", "query-mix")


def _words(words) -> List[str]:
    return [str(w) for w in words]


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _turan_floor(vertices: int, avg: Fraction) -> Fraction:
    return Fraction(vertices) / (avg + 1)


class Stratified:
    """Seeded parameter choices that sweep their range across decks.

    The k-th draw of every deck of one seed gets the same random phase, and
    the deck index advances it, so over a run each slot's parameter covers
    its choices evenly whatever the seed: the per-slot cost, and with it
    every metric, does not depend on which seed was drawn.
    """

    GOLDEN = 0.6180339887498949

    def __init__(self, key: str, index: int):
        self._phases = random.Random(key)
        self._index = index

    def choice(self, options):
        options = list(options)
        return options[(self._phases.randrange(len(options)) + self._index) % len(options)]

    def randint(self, low: int, high: int) -> int:
        return self.choice(range(low, high + 1))

    def fraction(self) -> float:
        return (self._phases.random() + self._index * self.GOLDEN) % 1.0


class Workload:
    """Base class: seeded decks of jobs plus their execution and checks."""

    name = ""

    def __init__(self, lib, workdir: str):
        self.lib = lib
        self.workdir = workdir

    def slots(self, rng: random.Random, pick: Stratified) -> List[List[Job]]:
        """One deck as units of jobs that must run back to back.

        Slot parameters come from ``pick``; ``rng`` is for word contents.
        """
        raise NotImplementedError

    def warmup_jobs(self) -> List[Job]:
        raise NotImplementedError

    def deck(self, seed: int, index: int) -> List[Tuple[Tuple[int, int], Job]]:
        """One shuffled deck as (job class, job) pairs.

        A job's class is its slot, the same in every deck: the seed varies
        only parameters of equal cost within a class.
        """
        rng = random.Random(f"{self.name}/{seed}/{index}")
        units = list(enumerate(self.slots(rng, Stratified(f"{self.name}/{seed}", index))))
        rng.shuffle(units)
        return [((slot, pos), job) for slot, unit in units for pos, job in enumerate(unit)]

    def decks(self, seed: int) -> Iterator[List[Tuple[Tuple[int, int], Job]]]:
        index = 0
        while True:
            yield self.deck(seed, index)
            index += 1

    def execute(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, raw) -> str:
        raise NotImplementedError


# -- construct-verify ------------------------------------------------------


class ConstructVerify(Workload):
    """Build codes, corrupt a third of them, and verify every one."""

    name = "construct-verify"

    # (construction, n, choices for the free parameter); each runs three
    # times per deck, once corrupted.
    SLOTS = (
        ("vt", 9, None), ("vt", 10, None), ("vt", 11, None),
        ("layer", 10, (4, 6)), ("layer", 11, (5, 6)), ("layer", 12, (4, 8)),
        ("wp-layer", 10, (0, 1)), ("wp-layer", 11, (0, 1)),
        ("wp-greedy", 9, (0, 1, 2)), ("wp-greedy", 10, (0, 1, 2)),
    )
    GRAPH_ORACLE_MAX_N = 10

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        self._graphs: Dict[Tuple[int, int], object] = {}

    def slots(self, rng, pick):
        units = []
        for kind, n, choices in self.SLOTS:
            for copy in range(3):
                param = pick.randint(0, n) if choices is None else pick.choice(choices)
                corrupt = (pick.fraction(), pick.fraction()) if copy == 0 else None
                units.append([(kind, n, param, corrupt)])
        return units

    def warmup_jobs(self):
        return [("vt", 6, 0, None), ("layer", 6, 3, (0.5, 0.5)),
                ("wp-layer", 6, 0, None), ("wp-greedy", 6, 1, (0.1, 0.9))]

    @staticmethod
    def deletions(kind: str) -> int:
        return 2 if kind == "wp-greedy" else 1

    def execute(self, job):
        kind, n, param, pick = job
        codes = self.lib.codes
        if kind == "vt":
            code = codes.vt_code(n, param)
        elif kind == "layer":
            code = codes.layer_code(n, param)
        elif kind == "wp-layer":
            code = codes.weight_partition_code(n, 1, param, codes.layer_color_solver)
        else:
            code = codes.weight_partition_code(n, 2, param, codes.greedy_layer_solver)
        built = code
        if pick is not None:
            words = code.words
            x = words[int(pick[0] * len(words))]
            near = sorted(self.lib.bitstring.confusable_set(x, code.s) - set(words))
            y = near[int(pick[1] * len(near))]
            code = codes.make_code(n, code.s, words + (y,), "corrupted")
        return built, code, codes.verify_code(code)

    def _graph(self, s: int, n: int):
        key = (s, n)
        if key not in self._graphs:
            self._graphs[key] = self.lib.graph.build_graph(s, n)
        return self._graphs[key]

    def check(self, job, raw):
        kind, n, param, pick = job
        built, code, verdict = raw
        s = self.deletions(kind)
        built_words = _words(built.words)
        words = _words(code.words)
        require(code.n == n and code.s == s, "code parameters differ from the request")
        require(all(len(w) == n for w in words), "codeword of the wrong length")
        require(oracle.is_code(built_words, s), "construction is not a code")
        if kind == "vt":
            require(all(oracle.vt_residue(w) == param for w in built_words),
                    "vt codeword outside its residue class")
            require(len(built_words) == oracle.vt_sizes(n)[param], "vt code size")
        elif kind == "layer":
            require(all(w.count("1") == param for w in built_words),
                    "layer codeword of the wrong weight")
        else:
            require(all(w.count("1") % (s + 1) == param for w in built_words),
                    "weight-partition codeword in the wrong weight class")
        if pick is not None:
            require(len(words) == len(built_words) + 1, "corruption did not add a word")
        require(verdict == (pick is None), f"verify_code returned {verdict}")
        require(verdict == oracle.is_code(words, s), "verdict disagrees with oracle")
        if n <= self.GRAPH_ORACLE_MAX_N:
            independent = self.lib.graph.verify_independent(self._graph(s, n), code.words)
            require(verdict == independent, "verdict disagrees with the graph")
        return f"{kind} n={n} p={param} valid={verdict} words={','.join(words)}"


# -- graph-scan ------------------------------------------------------------


class GraphScan(Workload):
    """Build graphs and layers, then run the bitmask algorithms on them."""

    name = "graph-scan"

    # (s, n, layer choices or None for the full graph); a layer k and its
    # mirror n-k are isomorphic by complement, so either costs the same.
    # The deck holds six jobs of about the same cost (L(2,11) and its
    # layers 5-7 of n = 12) and as many cheaper as dearer ones, so the
    # median job falls inside that group rather than in a gap between two
    # job sizes, where it would jump from run to run.
    SLOTS = (
        (1, 10, None), (2, 10, None), (3, 10, None), (2, 11, None),
        (2, 11, (5, 6)), (3, 11, (5, 6)),
        (1, 12, (5, 7)), (2, 12, (5, 7)),
    ) * 2 + (
        (2, 11, None), (2, 12, (5, 7)),
        (1, 11, None), (3, 11, None), (2, 12, None),
        (1, 13, (6, 7)), (2, 13, (6, 7)), (2, 13, (6, 7)), (1, 14, (7,)),
    )
    EDGE_ORACLE_MAX_N = 10

    def slots(self, rng, pick):
        return [[(s, n, None if ks is None else pick.choice(ks))]
                for s, n, ks in self.SLOTS]

    def warmup_jobs(self):
        return [(1, 6, None), (1, 7, 3), (2, 7, None), (3, 8, 4)]

    def execute(self, job):
        s, n, k = job
        graph = self.lib.graph
        g = graph.build_graph(s, n, k)
        stats = graph.degree_stats(g)
        greedy = graph.greedy_mis(g)
        cert = None
        if s == 1:
            coloring, clique, chi = self.lib.codes.chromatic_certificate(n, k)
            cert = (coloring, clique, chi,
                    graph.verify_coloring(g, coloring.assignment),
                    graph.verify_clique(g, clique.vertices))
        return len(g), stats, greedy, cert

    def check(self, job, raw):
        s, n, k = job
        vertices, (max_deg, avg, edges), greedy, cert = raw
        require(vertices == (1 << n if k is None else math.comb(n, k)), "vertex count")
        require(avg == Fraction(2 * edges, vertices), "average degree")
        if k is None and n <= self.EDGE_ORACLE_MAX_N:
            require(edges == oracle.edge_count(s, n), "edge count")
        if k is not None:
            require(avg <= self.lib.graph.layer_avg_degree_bound(s, n, k),
                    "layer average degree above its bound")
        words = sorted(_words(greedy))
        require(oracle.is_code(words, s), "greedy set is not independent")
        require(len(words) >= _turan_floor(vertices, avg), "greedy set below Turan floor")
        text = f"s={s} n={n} k={k} E={edges} max={max_deg} greedy={','.join(words)}"
        if cert is not None:
            coloring, clique, chi, proper, is_clique = cert
            require(proper and is_clique, "certificate rejected by the graph")
            require(len(coloring.assignment) == vertices, "coloring is not total")
            require(coloring.num_colors == chi == len(clique.vertices),
                    "coloring and clique sizes differ")
            classes: Dict[int, List[str]] = {}
            for x, color in coloring.assignment.items():
                classes.setdefault(color, []).append(str(x))
            require(len(classes) <= chi, "coloring uses too many colors")
            require(all(oracle.is_code(c, 1) for c in classes.values()),
                    "coloring is not proper")
            members = _words(clique.vertices)
            require(all(oracle.confusable(x, y, 1) for i, x in enumerate(members)
                        for y in members[i + 1:]), "clique has a non-edge")
            text += f" chi={chi} clique={','.join(members)}"
        return text


# -- alpha-exact -----------------------------------------------------------


class AlphaExact(Workload):
    """Exact independence numbers by the HiGHS branch and bound."""

    name = "alpha-exact"

    LAYERS = (
        (1, 7, (3, 4)), (1, 8, (3, 5)), (1, 8, (4,)), (1, 9, (3, 6)),
        (2, 7, (3, 4)), (2, 8, (3, 5)), (2, 8, (4,)), (2, 9, (3, 6)),
        (3, 8, (4,)), (3, 9, (3, 6)), (3, 9, (4, 5)),
    )
    PARTITIONS = ((1, 6), (1, 7), (1, 8), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8))

    def slots(self, rng, pick):
        units = [[("full", 1, n, None)] for n in sorted(oracle.ALPHA_L1)]
        units += [[("layer", s, n, pick.choice(ks))] for s, n, ks in self.LAYERS]
        units += [[("partition", s, n, a)] for s, n in self.PARTITIONS for a in range(s + 1)]
        return units

    def warmup_jobs(self):
        return [("full", 1, 4, None), ("layer", 2, 6, 3), ("partition", 1, 5, 0)]

    def execute(self, job):
        kind, s, n, param = job
        if kind == "partition":
            codes = self.lib.codes
            return codes.weight_partition_code(n, s, param, codes.make_exact_layer_solver())
        graph = self.lib.graph
        return graph.exact_mis(graph.build_graph(s, n, param))

    def check(self, job, raw):
        kind, s, n, param = job
        words = sorted(_words(raw.words if kind == "partition" else raw))
        require(all(len(w) == n for w in words), "word of the wrong length")
        require(oracle.is_code(words, s), "result is not independent")
        if kind == "full":
            require(len(words) == oracle.ALPHA_L1[n], f"alpha(L(1,{n})) = {len(words)}")
        elif kind == "layer":
            require(all(w.count("1") == param for w in words), "word outside the layer")
            require(len(words) == oracle.alpha(s, n, param), "not a maximum independent set")
        else:
            require(all(w.count("1") % (s + 1) == param for w in words),
                    "word in the wrong weight class")
            require(len(words) == sum(oracle.alpha(s, n, k) for k in range(param, n + 1, s + 1)),
                    "a layer of the code is not a maximum independent set")
            require(len(words) >= self.lib.codes.constant_weight_guarantee(n, s),
                    "code below constant_weight_guarantee")
        return f"{kind} s={s} n={n} p={param} words={','.join(words)}"


# -- query-mix -------------------------------------------------------------


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


class QueryMix(Workload):
    """Thousands of small front-end requests and direct library lookups."""

    name = "query-mix"
    FILES = 8

    def slots(self, rng, pick):
        # Every request class runs over a fixed parameter grid; the seed only
        # fills in residues, mirror layers and word contents.
        units: List[List[Job]] = []

        def cli(*argv):
            units.append([("cli",) + tuple(str(a) for a in argv)])

        for _ in range(3):
            for s in range(2, 6):
                for n in range(s + 2, 31, 3):
                    cli("bounds", "--s", s, "--n", n)
        for _ in range(8):
            for n in range(2, 10):
                cli("bounds", "--s", 1, "--n", n)
        # The per-residue vt_code loop of `bounds --s 1`, once per deck.
        cli("bounds", "--s", 1, "--n", 12)
        for s in range(1, 4):
            for n in range(3 * s + 1, 3 * s + 6):
                cli("witness", "--kind", "imperfect", "--s", s, "--n", n)
        for _ in range(2):
            for s in (1, 2):
                for length in range(5, 9):
                    cli("witness", "--kind", "cycle", "--s", s, "--cycle-len", length)
        for s in (1, 2):
            for length in range(3, 9):
                cli("witness", "--kind", "clique", "--z", _random_word(rng, length), "--s", s)
        for _ in range(3):
            for l in (4, 5):
                for b in (0, 1):
                    cli("witness", "--kind", "clique", "--l", l, "--segments", 2,
                        "--b", b, "--c", 1 - b)
        for _ in range(6):
            for s, n in [(1, n) for n in range(4, 9)] + [(2, n) for n in range(5, 9)]:
                cli("graph", "--s", s, "--n", n)
                cli("alpha", "--s", s, "--n", n, "--method", "greedy")
        specs = []
        for _ in range(3):
            specs += [("--kind", "vt", "--n", n, "--residue", pick.randint(0, n))
                      for n in range(5, 10)]
            specs += [("--kind", "layer", "--n", n, "--k", pick.choice((n // 2, n - n // 2)))
                      for n in range(6, 10)]
            specs += [("--kind", "weight-partition", "--n", n, "--s", 2,
                       "--residue", pick.randint(0, 2), "--solver", "greedy")
                      for n in range(5, 9)]
        for _ in range(2):
            specs += [("--kind", "weight-partition", "--n", n, "--s", 1,
                       "--residue", pick.randint(0, 1), "--solver", "layer")
                      for n in range(5, 10)]
        for i, spec in enumerate(specs):
            path = f"code{i % self.FILES}.txt"
            units.append([("file", "construct", path) + tuple(str(a) for a in spec),
                          ("file", "verify", path)])
        for _ in range(5):
            for length in range(3, 11):
                for inserts in range(5):
                    x = _random_word(rng, length)
                    y = x
                    for _ in range(inserts):
                        i = rng.randint(0, len(y))
                        y = y[:i] + rng.choice("01") + y[i:]
                    units.append([("codec", x, y)])
        for _ in range(10):
            for s, n in [(1, n) for n in range(5, 11)] + [(2, n) for n in range(5, 8)]:
                units.append([("confusable", _random_word(rng, n), s)])
        return units

    def warmup_jobs(self):
        return [("cli", "bounds", "--s", "1", "--n", "5"),
                ("cli", "graph", "--s", "1", "--n", "5"),
                ("file", "construct", "warm.txt", "--kind", "vt", "--n", "5", "--residue", "0"),
                ("file", "verify", "warm.txt"),
                ("codec", "0110", "011010"), ("confusable", "01101", 1)]

    def _main(self, argv: List[str]) -> Tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.lib.cli.main(argv)
        return rc, out.getvalue()

    def execute(self, job):
        kind = job[0]
        if kind == "cli":
            return self._main(list(job[1:]))
        if kind == "file":
            verb, path = job[1], os.path.join(self.workdir, job[2])
            flag = "--out" if verb == "construct" else "--file"
            return self._main([verb] + list(job[3:]) + [flag, path])
        BitString = self.lib.bitstring.BitString
        if kind == "codec":
            x, y = BitString(job[1]), BitString(job[2])
            z = self.lib.counting.encode(x, y)
            return z.to_text(), str(self.lib.counting.decode(x, z))
        return self.lib.bitstring.confusable_set(BitString(job[1]), job[2])

    def check(self, job, raw):
        kind = job[0]
        if kind == "codec":
            z, y = raw
            require(y == job[2], "decode(encode(y)) != y")
            return f"codec {job[1]} {z} {y}"
        if kind == "confusable":
            x, s = job[1], job[2]
            words = sorted(_words(raw))
            require(frozenset(words) == oracle.confusable_set(x, s), "confusable set")
            return f"confusable {x} {s} {','.join(words)}"
        rc, text = raw
        require(rc == 0, f"exit code {rc}")
        lines = text.splitlines()
        kv = dict(line.split("=", 1) for line in lines if "=" in line and " " not in line)
        verb = job[1]
        if kind == "file":
            self._check_file(job, kv)
        elif verb == "bounds":
            self._check_bounds(job, kv)
        elif verb == "witness":
            self._check_witness(job, lines)
        else:
            self._check_graph(job, kv, lines)
        return " ".join(job[1:]) + "\n" + text

    @staticmethod
    def _arg(job: Job, flag: str) -> Optional[str]:
        return job[job.index(flag) + 1] if flag in job else None

    def _check_bounds(self, job, kv):
        n, s = int(self._arg(job, "--n")), int(self._arg(job, "--s"))
        require(int(kv["insertion_count"]) == oracle.insertion_count(s, n), "insertion_count")
        require(_frac(kv["levenshtein_lower_bound"]) == oracle.levenshtein_lower_bound(n, s),
                "levenshtein_lower_bound")
        require(_frac(kv["penalty_ratio"]) == oracle.penalty_ratio(s), "penalty_ratio")
        require(int(kv["chromatic_lower_bound"]) >= oracle.insertion_count(s, n),
                "chromatic_lower_bound below the supersequence clique")
        if s == 1:
            sizes = [int(kv[f"vt_size_a{a}"]) for a in range(n + 1)]
            require(sizes == oracle.vt_sizes(n), "vt class sizes")

    def _check_witness(self, job, lines):
        header, words = lines[0], lines[1:]
        fields = dict(part.split("=", 1) for part in header[2:].split())
        s, n = int(fields["s"]), int(fields["n"])
        require(words and all(len(w) == n for w in words), "witness word lengths")
        kind = self._arg(job, "--kind")
        if kind == "clique":
            require(all(oracle.confusable(x, y, s) for i, x in enumerate(words)
                        for y in words[i + 1:]), "clique has a non-edge")
            return
        m = len(words)
        for i, x in enumerate(words):
            for j in range(i + 1, m):
                adjacent = j == i + 1 or (i == 0 and j == m - 1)
                require(oracle.confusable(x, words[j], s) == adjacent, "cycle has a chord")

    def _check_graph(self, job, kv, lines):
        n, s = int(self._arg(job, "--n")), int(self._arg(job, "--s"))
        if job[1] == "graph":
            edges = int(kv["edges"])
            require(int(kv["vertices"]) == 1 << n, "vertex count")
            require(edges == oracle.edge_count(s, n), "edge count")
            require(_frac(kv["avg_degree"]) == Fraction(2 * edges, 1 << n), "average degree")
            return
        words = [line for line in lines if "=" not in line]
        require(int(kv["size"]) == len(words), "reported size")
        require(oracle.is_code(words, s), "greedy set is not independent")
        avg = Fraction(2 * oracle.edge_count(s, n), 1 << n)
        require(len(words) >= _turan_floor(1 << n, avg), "greedy set below Turan floor")

    def _check_file(self, job, kv):
        path = os.path.join(self.workdir, job[2])
        with open(path) as fh:
            lines = fh.read().splitlines()
        words = lines[2:]
        s = int(kv["s"])
        require(int(kv["size"]) == len(words), "reported size differs from the file")
        if job[1] == "construct":
            require(oracle.is_code(words, s), "constructed code is not a code")
            if self._arg(job, "--kind") == "vt":
                n, a = int(self._arg(job, "--n")), int(self._arg(job, "--residue"))
                require(len(words) == oracle.vt_sizes(n)[a], "vt code size")
        else:
            require(kv["valid"] == "true", "a valid code file was rejected")


_CLASSES = {cls.name: cls for cls in (ConstructVerify, GraphScan, AlphaExact, QueryMix)}


def make(name: str, lib, workdir: str) -> Workload:
    return _CLASSES[name](lib, workdir)
