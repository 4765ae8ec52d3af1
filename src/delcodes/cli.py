"""Batch command-line front end.

Verbs: construct, verify, graph, alpha, bounds, witness, selftest.
Exit codes: 0 success / valid, 1 failed verification, unmet bound,
exhausted solver budget or solver failure, 2 usage or capacity error.
All reports are plain key=value text lines.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import counting, graph as graph_mod
from .bitstring import BitString, _check_int, _check_length, _vt_classes, delete_all, insert_all
from .codes import (
    chromatic_certificate,
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
    CapacityError,
    build_graph,
    degree_stats,
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
    graph_mod._check_budget(args.budget)  # checked even where no solver reads it
    if args.n > MAX_CONSTRUCT_N:
        raise CapacityError(f"construct limited to n <= {MAX_CONSTRUCT_N}")
    if args.s != 1 and (args.kind != "weight-partition" or args.solver == "layer"):
        flag = "--solver layer" if args.kind == "weight-partition" else f"--kind {args.kind}"
        raise ValueError(f"{flag} corrects one deletion; got --s {args.s}")
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
        if args.solver == "exact":
            solver = make_exact_layer_solver(args.budget)
        else:
            solver = {"layer": layer_color_solver, "greedy": greedy_layer_solver}[args.solver]
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
    graph_mod._check_budget(args.budget)  # checked even where no solver reads it
    g = build_graph(args.s, args.n, args.k)
    if args.method == "greedy":
        route, result, exhausted = {}, greedy_mis(g), False
    else:
        route, result, exhausted = graph_mod._solve(g, args.budget)
    if exhausted:
        print("budget_exhausted=true")
    optimal = args.method == "exact" and not exhausted
    print(f"method={args.method}")
    for key, value in route.items():
        print(f"{key}={value}")
    print(f"size={len(result)}")
    print(f"optimal={'true' if optimal else 'false'}")
    for v in sorted(result):
        print(v)
    return 1 if exhausted else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, s = args.n, args.s
    _check_length(n)
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
        lines += [f"vt_size_a{a}={len(values)}" for a, values in enumerate(_vt_classes(n))]
    print("\n".join(lines))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "clique":
        shape = {"--l": args.l, "--segments": args.segments, "--b": args.b, "--c": args.c}
        if args.z is not None:
            given = [flag for flag, value in shape.items() if value is not None]
            if given:
                raise ValueError(f"--z takes no segment flags; got {'/'.join(given)}")
            witness = substring_clique(BitString(args.z), args.s, args.k)
        else:
            if None in shape.values():
                raise ValueError(
                    "--kind clique requires --z, or --l/--segments/--b/--c"
                )
            if args.k is not None:
                raise ValueError("--k restricts a --z clique to a layer; got no --z")
            witness = segment_clique(args.l, args.segments, args.b, args.c)
        # a segment family is a clique for b+c deletions regardless of --s
        s = args.b + args.c if witness.kind == "segment" else args.s
        kind, vertices = witness.kind, witness.vertices
    else:
        # neither kind reads a clique's flags; a cycle has no --n, and the
        # imperfect witness is a 5-cycle of its own
        unread = {"--z": args.z, "--k": args.k, "--l": args.l, "--segments": args.segments,
                  "--b": args.b, "--c": args.c}
        if args.kind == "cycle":
            unread["--n"] = args.n
        else:
            unread["--cycle-len"] = args.cycle_len
        given = [flag for flag, value in unread.items() if value is not None]
        if given:
            raise ValueError(f"--kind {args.kind} takes no {'/'.join(given)}")
        if args.kind == "cycle":
            cycle_len = 5 if args.cycle_len is None else args.cycle_len
            kind, s, vertices = "cycle", args.s, induced_cycle(args.s, cycle_len)
        else:  # imperfect
            if args.n is None:
                raise ValueError("--kind imperfect requires --n")
            kind, s, vertices = "imperfect", args.s, imperfectness_witness(args.s, args.n)
    print(f"# kind={kind} s={s} n={len(vertices[0])}")
    for v in vertices:
        print(v)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    max_n = args.max_n
    # the checks would pass vacuously: below 2 the coloring check has no
    # graph, and below 1 the duality and VT checks have no words either
    _check_int("--max-n", max_n, 2)
    words = [BitString.from_value(v, n) for n in range(min(max_n, 6) + 1) for v in range(1 << n)]
    # Every check runs before any line prints, so an error leaves no partial report.
    checks = {
        # Counting agrees with brute-force enumeration.
        "insertion-count": all(
            len(insert_all(x, s)) == counting.insertion_count(s, len(x) + s)
            for x in words for s in range(3)),
        # Duality of deletion and insertion; words[0], the empty word, has no deletions.
        "deletion-insertion-duality": all(
            x in insert_all(y, 1) for x in words[1:] for y in delete_all(x, 1)),
        # Codec round trip.
        "codec-round-trip": all(
            counting.decode(x, counting.encode(x, y)) == y
            for x in words if len(x) <= 5 for y in insert_all(x, 2)),
        # Every residue class verifies as a single-deletion code.
        "vt-codes-valid": all(
            verify_code(vt_code(n, a)) for n in range(1, min(max_n, 8) + 1) for a in range(n + 1)),
        # The full graph's chromatic certificate holds (a proper coloring and a
        # clique of the same size), and the greedy set meets the Turan floor.
        "coloring-and-turan": all(
            graph_mod.verify_coloring(g, coloring.assignment)
            and graph_mod.verify_clique(g, clique.vertices)
            and len(set(coloring.assignment.values())) == num_colors == len(clique.vertices)
            and len(greedy_mis(g)) >= len(g) / (degree_stats(g)[1] + 1)
            for g, (coloring, clique, num_colors) in (
                (build_graph(1, n), chromatic_certificate(n))
                for n in range(2, min(max_n, 8) + 1))),
    }
    for name, ok in checks.items():
        print(f"{'ok' if ok else 'FAIL'} {name}")
    failures = list(checks.values()).count(False)
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
    p.add_argument("--cycle-len", type=int, help="cycle length for --kind cycle (default 5)")
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
