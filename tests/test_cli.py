"""End-to-end tests of the command-line front end."""

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.optimize

from delcodes import (
    BitString,
    build_graph,
    degree_stats,
    exact_mis,
    make_code,
    read_code_file,
    vt_code,
    write_code_file,
)
from delcodes import cli as cli_module, counting, graph as graph_mod
from delcodes.cli import main
from delcodes.graph import _route

from conftest import string_color, string_words

B = BitString


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_report(out):
    fields = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            fields.setdefault(key, value)
    return fields


class TestConstruct:
    def test_vt_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "c.txt")
        rc, out, _ = run(
            capsys, "construct", "--kind", "vt", "--n", "8", "--residue", "0",
            "--out", path,
        )
        assert rc == 0
        fields = parse_report(out)
        assert fields["kind"] == "vt"
        assert fields["n"] == "8"
        code = read_code_file(path)
        assert code.words == vt_code(8, 0).words
        rc, out, _ = run(capsys, "verify", "--file", path)
        assert rc == 0
        assert parse_report(out)["valid"] == "true"

    def test_layer(self, capsys, tmp_path):
        path = str(tmp_path / "c.txt")
        rc, out, _ = run(
            capsys, "construct", "--kind", "layer", "--n", "6", "--k", "3",
            "--out", path,
        )
        assert rc == 0
        assert int(parse_report(out)["size"]) >= 5

    def test_weight_partition_solvers(self, capsys, tmp_path):
        for solver in ("layer", "greedy", "exact"):
            path = str(tmp_path / f"{solver}.txt")
            rc, out, _ = run(
                capsys, "construct", "--kind", "weight-partition", "--n", "6",
                "--s", "1", "--residue", "0", "--solver", solver, "--out", path,
            )
            assert rc == 0
            assert run(capsys, "verify", "--file", path)[0] == 0

    def test_missing_residue_is_usage_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "construct", "--kind", "vt", "--n", "8",
            "--out", str(tmp_path / "c.txt"),
        )
        assert rc == 2
        assert "residue" in err

    @pytest.mark.parametrize("kind, flag", [("layer", "--k"), ("weight-partition", "--residue")])
    def test_missing_kind_parameter_is_usage_error(self, capsys, tmp_path, kind, flag):
        path = tmp_path / "c.txt"
        rc, out, err = run(capsys, "construct", "--kind", kind, "--n", "8", "--out", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and f"--kind {kind} requires {flag}" in err
        assert not path.exists()

    @pytest.mark.parametrize("args", [
        ("--kind", "vt", "--n", "8", "--residue", "0", "--s", "2"),
        ("--kind", "vt", "--n", "8", "--residue", "0", "--s", "-1"),
        ("--kind", "layer", "--n", "8", "--k", "4", "--s", "3"),
        ("--kind", "weight-partition", "--n", "8", "--s", "2", "--residue", "0"),
    ])
    def test_single_deletion_kinds_refuse_other_s(self, capsys, tmp_path, args):
        path = tmp_path / "c.txt"
        rc, out, err = run(capsys, "construct", *args, "--out", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "--s" in err
        assert not path.exists()

    @pytest.mark.parametrize("args, given", [
        (("--kind", "vt", "--residue", "0", "--k", "3"), "--k"),
        (("--kind", "vt", "--residue", "0", "--solver", "layer"), "--solver"),
        (("--kind", "vt", "--residue", "0", "--k", "3", "--solver", "exact"), "--k/--solver"),
        (("--kind", "layer", "--k", "3", "--residue", "1"), "--residue"),
        (("--kind", "layer", "--k", "3", "--solver", "greedy"), "--solver"),
        (("--kind", "weight-partition", "--residue", "0", "--k", "3"), "--k"),
    ])
    def test_unread_flags_refused(self, capsys, tmp_path, args, given):
        # a flag the kind never reads is refused, not silently dropped
        path = tmp_path / "c.txt"
        rc, out, err = run(capsys, "construct", "--n", "6", *args, "--out", str(path))
        assert rc == 2
        assert out == ""
        assert err == f"error: --kind {args[1]} takes no {given}\n"
        assert not path.exists()

    def test_weight_partition_solver_defaults_to_layer(self, capsys, tmp_path):
        paths = [tmp_path / "default.txt", tmp_path / "layer.txt"]
        for path, solver in zip(paths, [(), ("--solver", "layer")]):
            rc, _, _ = run(capsys, "construct", "--kind", "weight-partition", "--n", "7",
                           "--residue", "1", *solver, "--out", str(path))
            assert rc == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_budget_exhaustion_exits_1(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "construct", "--kind", "weight-partition", "--n", "9",
            "--s", "2", "--residue", "1", "--solver", "exact", "--budget", "1",
            "--out", str(tmp_path / "c.txt"),
        )
        assert rc == 1
        assert err.startswith("error:") and "budget" in err

    def test_negative_budget_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        rc, _, err = run(
            capsys, "construct", "--kind", "weight-partition", "--n", "6",
            "--s", "1", "--residue", "0", "--solver", "exact", "--budget", "-1",
            "--out", str(path),
        )
        assert rc == 2
        assert err.startswith("error:") and "budget" in err
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("args", [
        ("--kind", "vt", "--n", "8", "--residue", "0"),
        ("--kind", "layer", "--n", "8", "--k", "3"),
        ("--kind", "weight-partition", "--n", "8", "--s", "2", "--residue", "0",
         "--solver", "greedy"),
    ], ids=["vt", "layer", "weight-partition-greedy"])
    def test_negative_budget_refused_without_solver(self, capsys, tmp_path, args):
        # no solver reads --budget here, but a bad one is still refused
        path = tmp_path / "c.txt"
        rc, out, err = run(capsys, "construct", *args, "--budget", "-1", "--out", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err
        assert not path.exists()

    def test_capacity_guardrail(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "construct", "--kind", "vt", "--n", "21", "--residue", "0",
            "--out", str(tmp_path / "c.txt"),
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_negative_n_layer_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        rc, out, err = run(
            capsys, "construct", "--kind", "layer", "--n", "-3", "--k", "0",
            "--out", str(path),
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "n=-3" in err
        assert not path.exists()


class TestVerify:
    def test_invalid_code_exits_1(self, capsys, tmp_path):
        path = str(tmp_path / "bad.txt")
        write_code_file(make_code(4, 1, [B("0101"), B("0110")], "search"), path)
        rc, out, _ = run(capsys, "verify", "--file", path)
        assert rc == 1
        fields = parse_report(out)
        assert fields["valid"] == "false"
        assert fields["conflict"] == "0101,0110"
        assert fields["shared"] == "010"

    @pytest.mark.parametrize("body, message", [
        ("# n=4 s=-1 kind=x\n0101\n", "s >= 0"),
        ("# n=4 s=1 kind\n0101\n", "malformed parameter header"),
        ("# n=4 s=1 kind=x\n0101\n0101\n", "bad.txt:4: duplicate codeword"),
        ("# n=70 s=1 kind=vt\n", "string length 70 exceeds 63"),
        ("# n=4 s=1 kind=vt n=3\n010\n", "malformed parameter header"),
        ("# n=3 s=1 kind=vt x=1\n010\n", "malformed parameter header"),
        # int() reads each of these as 3
        ("# n=+3 s=1 kind=x\n000\n", "malformed parameter header"),
        ("# n=0_3 s=1 kind=x\n000\n", "malformed parameter header"),
        ("# n=\u0663 s=1 kind=x\n000\n", "malformed parameter header"),
        # only a newline ends a line; str.splitlines() also breaks at these
        ("# n=3 s=1 kind=x\n000\x0c111\n", "invalid codeword line"),
        ("# n=3 s=1 kind=x\n000\x1c111\n", "invalid codeword line"),
        ("# n=3 s=1 kind=x\n000\x85111\n", "invalid codeword line"),
        ("# n=3 s=1 kind=x\n000\u2028111\n", "invalid codeword line"),
        # the header's fields are parted by single spaces; str.split() also
        # parts them at these
        ("# n=3\x1cs=1\x1dkind=x\n000\n", "malformed parameter header"),
        ("# n=3\ts=1 kind=x\n000\n", "malformed parameter header"),
        ("# n=3  s=1 kind=x\n000\n", "malformed parameter header"),
        ("# n=3 s=1 kind=x \n000\n", "malformed parameter header"),
        ("# n=3 s=1 kind=x\u2028y\n000\n", "malformed parameter header"),
    ], ids=["negative-s", "field-without-value", "duplicate-codeword", "length-over-63",
            "repeated-field", "unknown-field", "plus-sign", "underscore", "arabic-indic-digit",
            "form-feed", "file-separator", "next-line", "line-separator",
            "header-separators", "header-tab", "header-double-space", "header-trailing-space",
            "header-kind-whitespace"])
    def test_malformed_file_exits_2(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("# delcode v1\n" + body, encoding="utf-8")
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert "valid=" not in out

    def test_crlf_file_verifies(self, capsys, tmp_path):
        # open() reads \r\n as one newline
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"# delcode v1\r\n# n=3 s=1 kind=x\r\n000\r\n111\r\n")
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert (rc, err) == (0, "")
        assert out == "n=3\ns=1\nsize=2\nvalid=true\n"

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        # code files are UTF-8; a Latin-1 byte is an error that names the file
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# delcode v1\n# n=3 s=1 kind=\xe9\n000\n")
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert rc == 2
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xe9" in err
        assert out == ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify", "--file", str(tmp_path / "absent.txt"))
        assert rc == 2
        assert err.startswith("error:")

    def test_ball_size_cap(self, capsys, tmp_path):
        # two 60-symbol words of 60 runs each, 20 deletions
        path = tmp_path / "big.txt"
        path.write_text(f"# delcode v1\n# n=60 s=20 kind=x\n{'01' * 30}\n{'10' * 30}\n")
        start = time.perf_counter()
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "2^22" in err
        assert out == ""


class TestGraph:
    def test_stats_match_library(self, capsys):
        rc, out, _ = run(capsys, "graph", "--s", "1", "--n", "5")
        assert rc == 0
        fields = parse_report(out)
        g = build_graph(1, 5)
        max_deg, avg_deg, edges = degree_stats(g)
        assert fields["vertices"] == "32"
        assert fields["edges"] == str(edges)
        assert fields["max_degree"] == str(max_deg)
        num, _, den = fields["avg_degree"].partition("/")
        assert int(num) * len(g) == 2 * edges * int(den)

    def test_edge_listing(self, capsys):
        rc, out, _ = run(capsys, "graph", "--s", "1", "--n", "3", "--report", "edges")
        assert rc == 0
        g = build_graph(1, 3)
        listed = {
            tuple(line.split()) for line in out.splitlines() if " " in line
        }
        expected = {(str(x), str(y)) for x, y in g.edges()}
        assert listed == expected

    def test_capacity_error(self, capsys):
        rc, _, err = run(capsys, "graph", "--s", "1", "--n", "17")
        assert rc == 2
        assert err.startswith("error:")

    def test_layer_vertex_cap(self, capsys):
        # C(20, 10) = 184,756 vertices
        start = time.perf_counter()
        rc, out, err = run(capsys, "graph", "--s", "1", "--n", "20", "--k", "10")
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "65536" in err
        assert out == ""


class TestAlpha:
    def test_exact_small(self, capsys):
        rc, out, _ = run(capsys, "alpha", "--s", "1", "--n", "4")
        assert rc == 0
        assert out.splitlines()[:2] == ["method=exact", "engine=clique-search"]
        fields = parse_report(out)
        assert fields["size"] == "4"
        assert fields["optimal"] == "true"
        listed = [line for line in out.splitlines() if set(line) <= {"0", "1"} and line]
        assert len(listed) == 4

    def test_greedy_flagged_not_optimal(self, capsys):
        rc, out, _ = run(capsys, "alpha", "--s", "1", "--n", "5", "--method", "greedy")
        assert rc == 0
        fields = parse_report(out)
        assert fields["optimal"] == "false"
        assert "engine" not in fields

    def test_budget_exhaustion_exits_1(self, capsys):
        rc, out, _ = run(capsys, "alpha", "--s", "1", "--n", "8", "--budget", "1")
        assert rc == 1
        fields = parse_report(out)
        assert fields["budget_exhausted"] == "true"
        assert fields["engine"] == "highs"
        assert fields["optimal"] == "false"
        assert int(fields["size"]) >= 1

    def test_budget_above_highs_node_limit(self, capsys):
        # HiGHS takes at most 2^31 - 1 nodes; a larger budget still solves
        rc, out, err = run(capsys, "alpha", "--s", "1", "--n", "11", "--k", "3",
                           "--budget", str(2**31))
        assert rc == 0
        assert err == ""
        fields = parse_report(out)
        assert fields["engine"] == "highs"
        assert fields["size"] == "19"
        assert fields["optimal"] == "true"

    def test_negative_budget_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "alpha", "--s", "1", "--n", "4", "--budget", "-1")
        assert rc == 2
        assert err.startswith("error:") and "budget" in err
        assert "Traceback" not in err
        assert "optimal" not in out

    def test_negative_budget_refused_for_greedy(self, capsys):
        # greedy reads no budget, but a bad one is still refused
        rc, out, err = run(capsys, "alpha", "--s", "1", "--n", "5", "--k", "2",
                           "--method", "greedy", "--budget", "-3")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("status, x, message", [
        (4, None, "simulated HiGHS failure"),
        (0, [1.0] * 256, "dependent set"),
    ], ids=["solver-status-4", "dependent-set"])
    def test_solver_failure_exits_1(self, capsys, monkeypatch, status, x, message):
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: SimpleNamespace(
            status=status, message="simulated HiGHS failure", x=x))
        # L(1, 8) is sparse enough to reach HiGHS
        rc, out, err = run(capsys, "alpha", "--s", "1", "--n", "8")
        assert rc == 1
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert "optimal" not in out

    @pytest.mark.parametrize("argv, engine, order, symmetry", [
        (("--s", "1", "--n", "9", "--k", "3"), "clique-search", "degeneracy",
         "reversal"),  # density 0.207
        (("--s", "2", "--n", "8", "--k", "4"), "clique-search", "ascending",
         "reversal,complement"),  # density 0.722, the middle layer
        (("--s", "1", "--n", "7"), "clique-search", "degeneracy", "reversal,complement"),
        (("--s", "1", "--n", "8", "--budget", "0"), "highs", None, None),
        (("--s", "2", "--n", "8", "--k", "1"), "complete", None, None),
    ], ids=["degeneracy", "ascending", "full", "highs", "complete"])
    def test_clique_search_order_reported(self, capsys, argv, engine, order, symmetry):
        rc, out, _ = run(capsys, "alpha", *argv)
        fields = parse_report(out)
        # only the budget of 0 stops a solve short
        assert rc == (1 if "--budget" in argv else 0)
        assert fields["optimal"] == ("false" if rc else "true")
        assert fields["engine"] == engine
        assert fields.get("order") == order
        assert fields.get("symmetry") == symmetry
        # the route lines are _route's items, in its order
        lines = out.splitlines()
        route = lines[lines.index("method=exact") + 1:lines.index(f"size={fields['size']}")]
        opts = dict(zip(argv[::2], argv[1::2]))
        g = build_graph(int(opts["--s"]), int(opts["--n"]),
                        int(opts["--k"]) if "--k" in opts else None)
        assert route == [f"{key}={value}" for key, value in _route(g)[0].items()]
        _, out, _ = run(capsys, "alpha", *argv, "--method", "greedy")
        assert "order" not in parse_report(out)
        assert "symmetry" not in parse_report(out)

    @pytest.mark.parametrize("argv", [
        ("--s", "1", "--n", "9", "--k", "3"),
        ("--s", "1", "--n", "8", "--budget", "0"),
        ("--s", "2", "--n", "8", "--k", "1"),
        ("--s", "2", "--n", "10", "--k", "5", "--budget", "0"),
    ], ids=["clique-search", "highs", "complete", "clique-search-budget-0"])
    def test_exact_routes_once(self, capsys, monkeypatch, argv):
        # the printed route is the one the solve took, not a second routing
        routed = []
        real = graph_mod._route

        def spy(g):
            routed.append(g.params)
            return real(g)

        monkeypatch.setattr(graph_mod, "_route", spy)
        _, out, _ = run(capsys, "alpha", *argv)
        assert len(routed) == 1, parse_report(out)["engine"]

    def test_layer_restriction(self, capsys):
        rc, out, _ = run(capsys, "alpha", "--s", "1", "--n", "6", "--k", "3")
        assert rc == 0
        expected = len(exact_mis(build_graph(1, 6, 3)))
        assert parse_report(out)["size"] == str(expected)


class TestBounds:
    def test_report_fields(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--n", "8", "--s", "1")
        assert rc == 0
        fields = parse_report(out)
        assert fields["insertion_count"] == "9"
        assert fields["levenshtein_lower_bound"] == "256/37"  # 512/74 reduced
        assert fields["penalty_ratio"] == "1/1"
        assert fields["chromatic_lower_bound"] == "9"
        # one class size per residue, summing to 2^8
        sizes = [int(fields[f"vt_size_a{a}"]) for a in range(9)]
        assert sum(sizes) == 256

    def test_vt_class_sizes_match_vt_codes(self, capsys):
        # vt_code and bounds share one coloring, so also check plain strings
        for n in range(1, 13):
            rc, out, _ = run(capsys, "bounds", "--n", str(n), "--s", "1")
            assert rc == 0
            fields = parse_report(out)
            sizes = [int(fields[f"vt_size_a{a}"]) for a in range(n + 1)]
            assert sizes == [len(vt_code(n, a).words) for a in range(n + 1)]
            reference = Counter(string_color(w, n + 1) for w in string_words(n))
            assert sizes == [reference[a] for a in range(n + 1)]
        assert (sizes[0], sizes[12]) == (316, 315)  # n = 12

    def test_two_deletion_report(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--n", "10", "--s", "2")
        assert rc == 0
        fields = parse_report(out)
        assert fields["penalty_ratio"] == "9/8"
        assert "vt_size_a0" not in fields

    @pytest.mark.parametrize("n", ["64", "800"])
    def test_length_cap(self, capsys, n):
        start = time.perf_counter()
        rc, out, err = run(capsys, "bounds", "--n", n, "--s", "2")
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "63" in err
        assert out == ""

    def test_top_length(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--n", "63", "--s", "31")
        assert rc == 0
        assert parse_report(out)["n"] == "63"

    @pytest.mark.parametrize("s", ["5", "-1"])
    def test_usage_error_prints_no_partial_report(self, capsys, s):
        rc, out, err = run(capsys, "bounds", "--s", s, "--n", "3")
        assert rc == 2
        assert err.startswith("error:")
        assert out == ""


class TestWitness:
    def test_substring_clique(self, capsys):
        rc, out, _ = run(capsys, "witness", "--kind", "clique", "--s", "1", "--z", "000")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# kind=substring s=1 n=4"
        assert sorted(lines[1:]) == ["0000", "0001", "0010", "0100", "1000"]

    def test_segment_clique(self, capsys):
        rc, out, _ = run(
            capsys, "witness", "--kind", "clique", "--s", "2", "--l", "6",
            "--segments", "3", "--b", "1", "--c", "1",
        )
        assert rc == 0
        lines = out.splitlines()
        # a segment family corrects b + c deletions, whatever --s says
        assert lines[0] == "# kind=segment s=2 n=24"
        assert len(lines) == 1 + 144

    def test_cycle(self, capsys):
        rc, out, _ = run(capsys, "witness", "--kind", "cycle", "--s", "1")
        assert rc == 0
        assert out.splitlines() == [
            "# kind=cycle s=1 n=4", "1100", "0110", "0011", "0001", "1000",
        ]

    def test_imperfect(self, capsys):
        rc, out, _ = run(capsys, "witness", "--kind", "imperfect", "--s", "1", "--n", "5")
        assert rc == 0
        assert out.splitlines() == [
            "# kind=imperfect s=1 n=5",
            "01100", "00110", "00011", "00001", "01000",
        ]

    def test_substring_clique_size_cap(self, capsys):
        # 2^31 - 1 supersequences of a one-symbol word
        start = time.perf_counter()
        rc, out, err = run(capsys, "witness", "--kind", "clique", "--z", "0", "--s", "30")
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "2^22" in err
        assert out == ""
        # a 64-symbol supersequence is refused by the length cap
        rc, out, err = run(capsys, "witness", "--kind", "clique", "--z", "0101", "--s", "60")
        assert rc == 2
        assert err.startswith("error:") and "63" in err
        assert out == ""

    @pytest.mark.parametrize("s", ["10", "13"])
    def test_layer_clique_lists_only_its_layer(self, capsys, s):
        # one word of weight 0, out of 616,666 and 6,690,448 supersequences
        start = time.perf_counter()
        rc, out, _ = run(capsys, "witness", "--kind", "clique", "--z", "0" * 10,
                         "--s", s, "--k", "0")
        assert time.perf_counter() - start < 1
        assert rc == 0
        assert out.splitlines() == [f"# kind=layer-substring s={s} n={10 + int(s)}",
                                    "0" * (10 + int(s))]

    def test_segment_clique_size_cap(self, capsys):
        # 4,725,000 members
        start = time.perf_counter()
        rc, out, err = run(capsys, "witness", "--kind", "clique", "--l", "5",
                           "--segments", "8", "--b", "5", "--c", "3")
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "2^22" in err
        assert out == ""

    def test_missing_parameters(self, capsys):
        rc, _, err = run(capsys, "witness", "--kind", "clique", "--s", "1")
        assert rc == 2
        assert err.startswith("error:")

    def test_imperfect_requires_n(self, capsys):
        rc, out, err = run(capsys, "witness", "--kind", "imperfect", "--s", "1")
        assert rc == 2
        assert err.startswith("error:") and "--n" in err
        assert out == ""

    @pytest.mark.parametrize("argv, rc, out, err", [
        (["clique", "--s", "1", "--z", "000"], 0,
         "# kind=substring s=1 n=4\n0000\n0001\n0010\n0100\n1000\n", ""),
        (["clique", "--s", "2", "--z", "01"], 0,
         "# kind=substring s=2 n=4\n0001\n0010\n0011\n0100\n0101\n0110\n0111\n"
         "1001\n1010\n1011\n1101\n", ""),
        (["clique", "--s", "2", "--z", "010", "--k", "2"], 0,
         "# kind=layer-substring s=2 n=5\n00101\n00110\n01001\n01010\n01100\n10010\n10100\n",
         ""),
        (["clique", "--l", "4", "--segments", "1", "--b", "1", "--c", "0"], 0,
         "# kind=segment s=1 n=5\n00101\n01001\n01011\n01101\n", ""),
        (["clique", "--l", "4", "--segments", "2", "--b", "0", "--c", "1"], 0,
         "# kind=segment s=1 n=10\n0010001010\n0101000100\n0101000110\n0110001010\n", ""),
        (["clique", "--s", "7", "--l", "4", "--segments", "2", "--b", "1", "--c", "0"], 0,
         "# kind=segment s=1 n=12\n001010001010\n010010001010\n010100010010\n010100010100\n"
         "010100010110\n010100011010\n010110001010\n011010001010\n", ""),
        (["cycle", "--s", "2", "--cycle-len", "3"], 0,
         "# kind=cycle s=2 n=3\n111\n001\n100\n", ""),
        (["imperfect", "--s", "1", "--n", "4"], 0,
         "# kind=imperfect s=1 n=4\n1100\n0110\n0011\n0001\n1000\n", ""),
        (["clique", "--z", "", "--s", "0"], 0, "# kind=substring s=0 n=0\n\n", ""),
        (["clique", "--z", "", "--s", "2"], 0, "# kind=substring s=2 n=2\n00\n01\n10\n11\n", ""),
        (["clique", "--s", "1"], 2, "",
         "error: --kind clique requires --z, or --l/--segments/--b/--c\n"),
        (["clique", "--l", "4", "--segments", "2", "--b", "0", "--c", "1", "--k", "3"], 2, "",
         "error: --k restricts a --z clique to a layer; got no --z\n"),
        (["clique", "--z", "0101", "--s", "1", "--l", "4"], 2, "",
         "error: --z takes no segment flags; got --l\n"),
        (["clique", "--z", "0101", "--segments", "2", "--b", "0", "--c", "1"], 2, "",
         "error: --z takes no segment flags; got --segments/--b/--c\n"),
        (["clique", "--l", "4", "--segments", "2", "--b", "1"], 2, "",
         "error: --kind clique requires --z, or --l/--segments/--b/--c\n"),
        (["imperfect", "--s", "1"], 2, "", "error: --kind imperfect requires --n\n"),
        (["cycle", "--s", "0"], 2, "", "error: s must be at least 1, got 0\n"),
        (["clique", "--z", "0101", "--s", "60"], 2, "", "error: string length 64 exceeds 63\n"),
        (["clique", "--z", "0" * 64, "--s", "1"], 2, "", "error: string length 64 exceeds 63\n"),
        (["clique", "--z", "0" * 10, "--s", "20", "--k", "9"], 2, "",
         "error: supersequences (n=10, s=20, r=9) limited to 2^22 words, got 14307150\n"),
        (["clique", "--z", "0", "--s", "2", "--k", "9"], 2, "",
         "error: layer weight 9 unreachable from a weight-0 base with 2 insertions\n"),
        # a cycle or imperfect witness refuses every flag it does not read
        (["cycle", "--s", "1", "--z", "0101", "--l", "4", "--k", "2"], 2, "",
         "error: --kind cycle takes no --z/--k/--l\n"),
        (["cycle", "--segments", "2", "--b", "0", "--c", "1", "--n", "4"], 2, "",
         "error: --kind cycle takes no --segments/--b/--c/--n\n"),
        (["cycle", "--z", ""], 2, "", "error: --kind cycle takes no --z\n"),
        (["imperfect", "--s", "1", "--n", "5", "--cycle-len", "7", "--z", "01"], 2, "",
         "error: --kind imperfect takes no --z/--cycle-len\n"),
        (["imperfect", "--n", "5", "--cycle-len", "5"], 2, "",
         "error: --kind imperfect takes no --cycle-len\n"),
        (["imperfect", "--n", "5", "--k", "2", "--l", "4", "--segments", "2", "--b", "0",
          "--c", "1"], 2, "", "error: --kind imperfect takes no --k/--l/--segments/--b/--c\n"),
        (["cycle", "--s", "1", "--cycle-len", "5"], 0,
         "# kind=cycle s=1 n=4\n1100\n0110\n0011\n0001\n1000\n", ""),
        # a witness too long for a word names the arguments that set its length
        (["cycle", "--s", "1", "--cycle-len", "99"], 2, "",
         "error: s=1, cycle_len=99: string length 98 exceeds 63\n"),
        (["imperfect", "--s", "30", "--n", "95"], 2, "",
         "error: n=95: string length 95 exceeds 63\n"),
        (["clique", "--l", "70", "--segments", "1", "--b", "1", "--c", "0"], 2, "",
         "error: l=70, k=1, b=1, c=0: string length 71 exceeds 63\n"),
    ], ids=["substring", "substring-s2", "layer-substring", "segment-b", "segment-c",
            "segment-ignores-s", "cycle-s2", "imperfect-n4", "empty-z-s0", "empty-z-s2",
            "no-shape", "segment-with-k", "z-with-l", "z-with-segment-flags",
            "segment-without-c", "imperfect-without-n", "cycle-s0",
            "length-cap", "z-length-cap", "layer-size-cap", "unreachable-layer",
            "cycle-with-clique-flags", "cycle-with-n", "cycle-with-empty-z",
            "imperfect-with-cycle-len", "imperfect-with-default-cycle-len",
            "imperfect-with-segment-flags", "cycle-default-len-given", "cycle-length-cap",
            "imperfect-length-cap", "segment-length-cap"])
    def test_output_pinned(self, capsys, argv, rc, out, err):
        # exit code, stdout and stderr, byte for byte
        assert run(capsys, "witness", "--kind", *argv) == (rc, out, err)


SELFTEST_CHECKS = ["insertion-count", "deletion-insertion-duality", "codec-round-trip",
                   "vt-codes-valid", "coloring-and-turan"]


class TestSelftest:
    def test_passes(self, capsys):
        rc, out, _ = run(capsys, "selftest", "--max-n", "5")
        assert rc == 0
        lines = out.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == "failures=0"

    @pytest.mark.parametrize("module, name, stub, check", [
        (counting, "insertion_count", lambda s, n: -1, "insertion-count"),
        (cli_module, "delete_all", lambda x, s: {x}, "deletion-insertion-duality"),
        (counting, "decode", lambda x, z: None, "codec-round-trip"),
        (cli_module, "verify_code", lambda code: False, "vt-codes-valid"),
        (graph_mod, "verify_clique", lambda g, vertices: False, "coloring-and-turan"),
    ], ids=SELFTEST_CHECKS)
    def test_one_failing_check_exits_1(self, capsys, monkeypatch, module, name, stub, check):
        # each stub breaks a call that only its own check reads
        monkeypatch.setattr(module, name, stub)
        rc, out, err = run(capsys, "selftest", "--max-n", "4")
        assert rc == 1
        assert out.splitlines() == [
            f"{'FAIL' if c == check else 'ok'} {c}" for c in SELFTEST_CHECKS
        ] + ["failures=1"]
        assert err == ""

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "delcodes.cli", "selftest", "--max-n", "2"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "failures=0"

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_max_n_below_two_is_usage_error(self, capsys, max_n):
        # the checks would run over empty ranges and pass vacuously
        start = time.perf_counter()
        rc, out, err = run(capsys, "selftest", "--max-n", max_n)
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and "--max-n" in err
        assert out == ""


class TestUsage:
    def test_import_loads_neither_dataclasses_nor_scipy(self):
        # every verb runs in a fresh interpreter, so the import is its latency floor;
        # scipy loads on the first exact solve, and inspect is most of dataclasses' import
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "import delcodes, delcodes.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('dataclasses', 'inspect', 'scipy', 'numpy')))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--n", "4", "--s", "1", "--bogus"])
        assert info.value.code == 2

    def test_missing_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_determinism(self, capsys):
        first = run(capsys, "bounds", "--n", "9", "--s", "1")
        second = run(capsys, "bounds", "--n", "9", "--s", "1")
        assert first == second
