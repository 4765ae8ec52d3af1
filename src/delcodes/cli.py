"""Batch command-line front end.

Verbs: construct, verify, graph, alpha, bounds, witness, selftest.
Exit codes: 0 success / valid, 1 failed verification, unmet bound,
exhausted solver budget or solver failure, 2 usage or capacity error.
All reports are plain key=value text lines.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction
from typing import List, Optional

from . import codes as codes_mod
from . import counting, graph as graph_mod
from .bitstring import MAX_LENGTH, BitString, _word_values, delete_all, insert_all
from .codes import (
    chromatic_lower_bound,
    constant_weight_guarantee,
    find_conflict,
    greedy_layer_solver,
    layer_code,
    layer_color_solver,
    levenshtein_lower_bound,
    make_exact_layer_solver,
    penalty_ratio,
    read_code_file,
    verify_code,
    vt_code,
    weight_partition_code,
    write_code_file,
)
from .graph import (
    BudgetExceededError,
    CapacityError,
    build_graph,
    degree_stats,
    exact_mis,
    greedy_mis,
    imperfectness_witness,
    induced_cycle,
    segment_clique,
    substring_clique,
)

MAX_CONSTRUCT_N = 20


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.n > MAX_CONSTRUCT_N:
        raise CapacityError(f"construct limited to n <= {MAX_CONSTRUCT_N}")
    if args.kind == "vt":
        if args.residue is None:
            raise ValueError("--kind vt requires --residue")
        code = vt_code(args.n, args.residue)
    elif args.kind == "layer":
        if args.k is None:
            raise ValueError("--kind layer requires --k")
        code = layer_code(args.n, args.k)
    else:  # weight-partition
        if args.residue is None:
            raise ValueError("--kind weight-partition requires --residue")
        solver = {
            "layer": layer_color_solver,
            "greedy": greedy_layer_solver,
            "exact": make_exact_layer_solver(args.budget),
        }[args.solver]
        code = weight_partition_code(args.n, args.s, args.residue, solver)
    write_code_file(code, args.out)
    print(f"kind={code.provenance}")
    print(f"n={code.n}")
    print(f"s={code.s}")
    print(f"size={len(code.words)}")
    print(f"file={args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    code = read_code_file(args.file)
    conflict = find_conflict(code)
    print(f"n={code.n}")
    print(f"s={code.s}")
    print(f"size={len(code.words)}")
    print(f"valid={'true' if conflict is None else 'false'}")
    if conflict is None:
        return 0
    x, y, z = conflict
    print(f"conflict={x},{y}")
    print(f"shared={z}")
    return 1


def _cmd_graph(args: argparse.Namespace) -> int:
    g = build_graph(args.s, args.n, args.k)
    max_deg, avg_deg, edges = degree_stats(g)
    print(f"vertices={len(g)}")
    print(f"edges={edges}")
    print(f"max_degree={max_deg}")
    print(f"avg_degree={_frac(avg_deg)}")
    if args.report == "edges":
        for x, y in g.edges():
            print(f"{x} {y}")
    return 0


def _cmd_alpha(args: argparse.Namespace) -> int:
    g = build_graph(args.s, args.n, args.k)
    exhausted = False
    if args.method == "greedy":
        result = greedy_mis(g)
    else:
        try:
            result = exact_mis(g, args.budget)
        except BudgetExceededError as exc:
            result = exc.best
            exhausted = True
            print("budget_exhausted=true")
    optimal = args.method == "exact" and not exhausted
    print(f"method={args.method}")
    if args.method == "exact":
        for key, value in graph_mod._route(g).items():
            print(f"{key}={value}")
    print(f"size={len(result)}")
    print(f"optimal={'true' if optimal else 'false'}")
    for v in sorted(result):
        print(v)
    return 1 if exhausted else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, s = args.n, args.s
    if n > MAX_LENGTH:
        raise CapacityError(f"bounds limited to n <= {MAX_LENGTH}, got n={n}")
    # Every value is computed before any is printed, so a usage error
    # leaves no partial report on stdout.
    lines = [
        f"n={n}",
        f"s={s}",
        f"insertion_count={counting.insertion_count(s, n)}",
        f"levenshtein_lower_bound={_frac(levenshtein_lower_bound(n, s))}",
        f"constant_weight_guarantee={_frac(constant_weight_guarantee(n, s))}",
        f"penalty_ratio={_frac(penalty_ratio(s))}",
    ]
    if s >= 1:
        lines.append(f"chromatic_lower_bound={chromatic_lower_bound(s, n)}")
    if s == 1 and n <= MAX_CONSTRUCT_N:
        # No residue is known to win in general, so report every class size.
        sizes = Counter(codes_mod._vt_color(v, n) for v in _word_values(n))
        lines += [f"vt_size_a{a}={sizes[a]}" for a in range(n + 1)]
    print("\n".join(lines))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "clique":
        if args.z is not None:
            witness = substring_clique(BitString(args.z), args.s, args.k)
            vertices = witness.vertices
            n = len(args.z) + args.s
        else:
            if None in (args.l, args.segments, args.b, args.c):
                raise ValueError(
                    "--kind clique requires --z, or --l/--segments/--b/--c"
                )
            witness = segment_clique(args.l, args.segments, args.b, args.c)
            vertices = witness.vertices
            n = len(vertices[0])
        # a segment family is a clique for b+c deletions regardless of --s
        s = args.b + args.c if witness.kind == "segment" else args.s
        print(f"# kind={witness.kind} s={s} n={n}")
    elif args.kind == "cycle":
        vertices = induced_cycle(args.s, args.cycle_len)
        print(f"# kind=cycle s={args.s} n={len(vertices[0])}")
    else:  # imperfect
        if args.n is None:
            raise ValueError("--kind imperfect requires --n")
        vertices = imperfectness_witness(args.s, args.n)
        print(f"# kind=imperfect s={args.s} n={args.n}")
    for v in vertices:
        print(v)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    max_n = args.max_n
    if max_n < 2:
        # the checks would pass vacuously: below 2 the coloring check has no
        # graph, and below 1 the duality and VT checks have no words either
        raise ValueError(f"--max-n must be at least 2, got {max_n}")
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    # Counting agrees with brute-force enumeration.
    ok = True
    for n in range(0, min(max_n, 6) + 1):
        for v in range(1 << n):
            x = BitString.from_value(v, n)
            for s in range(0, 3):
                if len(insert_all(x, s)) != counting.insertion_count(s, n + s):
                    ok = False
    check("insertion-count", ok)

    # Duality of deletion and insertion.
    ok = True
    for n in range(1, min(max_n, 6) + 1):
        for v in range(1 << n):
            x = BitString.from_value(v, n)
            for y in delete_all(x, 1):
                if x not in insert_all(y, 1):
                    ok = False
    check("deletion-insertion-duality", ok)

    # Codec round trip.
    ok = True
    for n in range(0, min(max_n, 5) + 1):
        for v in range(1 << n):
            x = BitString.from_value(v, n)
            for y in insert_all(x, 2):
                if counting.decode(x, counting.encode(x, y)) != y:
                    ok = False
    check("codec-round-trip", ok)

    # Every residue class verifies as a single-deletion code.
    ok = all(
        verify_code(vt_code(n, a))
        for n in range(1, min(max_n, 8) + 1)
        for a in range(n + 1)
    )
    check("vt-codes-valid", ok)

    # Full-graph coloring is proper and the greedy set meets the Turan floor.
    ok = True
    for n in range(2, min(max_n, 8) + 1):
        g = build_graph(1, n)
        coloring = {x: codes_mod.vt_weight(x) for x in g.vertices}
        if not graph_mod.verify_coloring(g, coloring):
            ok = False
        _, avg, _ = degree_stats(g)
        if len(greedy_mis(g)) < len(g) / (avg + 1):
            ok = False
    check("coloring-and-turan", ok)

    print(f"failures={failures}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcodes",
        description="Construct, verify, and analyze binary deletion-correcting codes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a code and write it to a file")
    p.add_argument("--kind", required=True, choices=["vt", "layer", "weight-partition"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--residue", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--solver", choices=["layer", "greedy", "exact"], default="layer")
    p.add_argument("--budget", type=int, default=graph_mod.DEFAULT_NODE_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="build a graph and report statistics")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--report", choices=["degrees", "edges"], default="degrees")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("alpha", help="find an independent set")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--method", choices=["exact", "greedy"], default="exact")
    p.add_argument("--budget", type=int, default=graph_mod.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("bounds", help="report finite-n bound values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("witness", help="emit a clique, cycle, or odd-hole witness")
    p.add_argument("--kind", required=True, choices=["clique", "cycle", "imperfect"])
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--n", type=int)
    p.add_argument("--z", help="base string for a supersequence clique")
    p.add_argument("--k", type=int, help="weight layer restriction for a clique")
    p.add_argument("--l", type=int, help="segment length for a segment clique")
    p.add_argument("--segments", type=int, help="segment count for a segment clique")
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--cycle-len", type=int, default=5)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("selftest", help="run cross-module invariant checks")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuntimeError as exc:  # exhausted budget or a failed solve
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
