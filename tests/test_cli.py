"""End-to-end tests of the command-line front end."""

import time
from collections import Counter
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
        for solver in ("layer", "greedy"):
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

    def test_capacity_guardrail(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "construct", "--kind", "vt", "--n", "21", "--residue", "0",
            "--out", str(tmp_path / "c.txt"),
        )
        assert rc == 2
        assert err.startswith("error:")


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
    ], ids=["negative-s", "field-without-value", "duplicate-codeword"])
    def test_malformed_file_exits_2(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("# delcode v1\n" + body)
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert "valid=" not in out

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

    def test_negative_budget_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "alpha", "--s", "1", "--n", "4", "--budget", "-1")
        assert rc == 2
        assert err.startswith("error:") and "budget" in err
        assert "Traceback" not in err
        assert "optimal" not in out

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
    ], ids=["degeneracy", "ascending", "full", "highs"])
    def test_clique_search_order_reported(self, capsys, argv, engine, order, symmetry):
        _, out, _ = run(capsys, "alpha", *argv)
        fields = parse_report(out)
        assert fields["engine"] == engine
        assert fields.get("order") == order
        assert fields.get("symmetry") == symmetry
        # the route lines are _route's items, in its order
        lines = out.splitlines()
        route = lines[lines.index("method=exact") + 1:lines.index(f"size={fields['size']}")]
        opts = dict(zip(argv[::2], argv[1::2]))
        g = build_graph(int(opts["--s"]), int(opts["--n"]),
                        int(opts["--k"]) if "--k" in opts else None)
        assert route == [f"{key}={value}" for key, value in _route(g).items()]
        _, out, _ = run(capsys, "alpha", *argv, "--method", "greedy")
        assert "order" not in parse_report(out)
        assert "symmetry" not in parse_report(out)

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
        for n in range(1, 11):
            rc, out, _ = run(capsys, "bounds", "--n", str(n), "--s", "1")
            assert rc == 0
            fields = parse_report(out)
            sizes = [int(fields[f"vt_size_a{a}"]) for a in range(n + 1)]
            assert sizes == [len(vt_code(n, a).words) for a in range(n + 1)]
            reference = Counter(string_color(w, n + 1) for w in string_words(n))
            assert sizes == [reference[a] for a in range(n + 1)]

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
        assert lines[0].startswith("# kind=segment")
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


class TestSelftest:
    def test_passes(self, capsys):
        rc, out, _ = run(capsys, "selftest", "--max-n", "5")
        assert rc == 0
        lines = out.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == "failures=0"

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
