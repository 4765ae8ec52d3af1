"""Code constructions, verification, colorings, and finite-n bound calculators.

The single-deletion codes are color classes of the weighted-sum coloring
(the sum of the 1-based positions of the one symbols) mod n+1 on L(1, n),
or mod max(k, n-k)+1 on weight layer k: a residue code is one class, a
layer code the largest class of its layer, and the chromatic certificates
and two-stage colorings are these colorings.  The union-over-weights
construction stitches per-layer independent sets into a code for any s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .bitstring import (
    BitString,
    _check_size,
    _deletion_ball,
    _deletion_ball_bound,
    _refuse_over_cap,
    _word_values,
    weight,
)
from .counting import insertion_count
from .graph import (
    DEFAULT_NODE_BUDGET,
    CliqueWitness,
    _segment_clique_size,
    build_graph,
    exact_mis,
    greedy_mis,
    layer_avg_degree_bound,
    substring_clique,
    segment_clique,
)

LayerSolver = Callable[[int, int, int], Iterable[BitString]]


@dataclass(frozen=True)
class Code:
    """A set of equal-length codewords claiming pairwise deletion distance > 2s."""

    n: int
    s: int
    words: Tuple[BitString, ...]
    provenance: str

    def __post_init__(self) -> None:
        _check_size(self.n, self.s, s_up_to_n=False)


def make_code(n: int, s: int, words: Iterable[BitString], provenance: str) -> Code:
    uniq = sorted(set(words))
    for w in uniq:
        if len(w) != n:
            raise ValueError(f"codeword {w} does not have length {n}")
    return Code(n=n, s=s, words=tuple(uniq), provenance=provenance)


@dataclass
class Coloring:
    """A total color assignment for one deletion graph (or one weight layer)."""

    s: int
    n: int
    layer: Optional[int]
    assignment: Dict[BitString, int]
    num_colors: int


def _vt_modulus(n: int, k: Optional[int] = None) -> int:
    """Colors of the weighted-sum coloring of L(1, n), or of its layer k."""
    return n + 1 if k is None else max(k, n - k) + 1


def _vt_color(v: int, n: int, k: Optional[int] = None) -> int:
    """Sum of the 1-based positions of the ones of packed word v, mod _vt_modulus."""
    return sum(n - j for j in range(n) if v >> j & 1) % _vt_modulus(n, k)


def _vt_coloring(n: int, k: Optional[int] = None) -> Coloring:
    """The weighted-sum coloring of L(1, n), or of its weight-k layer."""
    assignment = {BitString.from_value(v, n): _vt_color(v, n, k) for v in _word_values(n, k)}
    return Coloring(s=1, n=n, layer=k, assignment=assignment,
                    num_colors=_vt_modulus(n, k))


def vt_weight(x: BitString) -> int:
    """Position-weighted sum of the one symbols, mod n+1."""
    return _vt_color(x.value, len(x))


def modified_vt_weight(x: BitString) -> int:
    """Position-weighted sum mod (max(k, n-k) + 1), a proper layer coloring."""
    return _vt_color(x.value, len(x), weight(x))


def vt_code(n: int, residue: int) -> Code:
    """All length-n words whose weighted sum is the given residue mod n+1."""
    _check_size(n, 1, s_up_to_n=False)  # a single-deletion code
    if not 0 <= residue <= n:
        raise ValueError(f"residue {residue} out of range 0..{n}")
    words = [BitString.from_value(v, n) for v in _word_values(n) if _vt_color(v, n) == residue]
    return make_code(n, 1, words, "vt")


def layer_code(n: int, k: int) -> Code:
    """Largest color class of the reduced-modulus coloring of one weight layer.

    Ties between equally large classes go to the smallest color index.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got k={k}, n={n}")
    classes: Dict[int, List[int]] = {}
    for v in _word_values(n, k):
        classes.setdefault(_vt_color(v, n, k), []).append(v)
    best_color = min(classes, key=lambda col: (-len(classes[col]), col))
    return make_code(n, 1, (BitString.from_value(v, n) for v in classes[best_color]), "layer")


def layer_color_solver(s: int, n: int, k: int) -> Set[BitString]:
    """Per-layer solver backed by the reduced-modulus coloring (s = 1 only)."""
    if s != 1:
        raise ValueError("the coloring-based layer solver handles s = 1 only")
    return set(layer_code(n, k).words)


def greedy_layer_solver(s: int, n: int, k: int) -> Set[BitString]:
    """Per-layer solver using the minimum-degree greedy heuristic."""
    return greedy_mis(build_graph(s, n, k))


def make_exact_layer_solver(node_budget: int = DEFAULT_NODE_BUDGET) -> LayerSolver:
    """Per-layer solver running the exact branch-and-bound search."""

    def solver(s: int, n: int, k: int) -> Set[BitString]:
        return exact_mis(build_graph(s, n, k), node_budget)

    return solver


def weight_partition_code(n: int, s: int, residue_a: int,
                          layer_solver: LayerSolver) -> Code:
    """Union of per-layer independent sets over weights congruent to a residue.

    Valid for s deletions because adjacent words differ in weight by at
    most s, so layers s+1 apart cannot interact.
    """
    _check_size(n, s, s_up_to_n=False)
    if not 0 <= residue_a <= s:
        raise ValueError(f"residue {residue_a} out of range 0..{s}")
    words: Set[BitString] = set()
    for k in range(n + 1):
        if k % (s + 1) == residue_a:
            words.update(layer_solver(s, n, k))
    return make_code(n, s, words, "weight-partition")


def _k_star(n: int, a: int) -> int:
    # Integer closest to n/2 with the opposite parity from a; on a tie the
    # smaller candidate wins (the bound value is the same either way).
    candidates = sorted(range(n + 1), key=lambda k: (abs(2 * k - n), k))
    for k in candidates:
        if k % 2 != a % 2:
            return k
    raise ValueError(f"no admissible weight for n={n}, a={a}")


def weight_partition_size_bound(n: int, a: int) -> Fraction:
    """Single-deletion floor (2^n - C(n, k*)) / (n + 1) on the union code size."""
    if a not in (0, 1):
        raise ValueError(f"parity residue must be 0 or 1, got {a}")
    return Fraction(2**n - math.comb(n, _k_star(n, a)), n + 1)


def find_conflict(c: Code) -> Optional[Tuple[BitString, BitString, BitString]]:
    """The first confusable pair of codewords and a subsequence they share.

    Returns None for a valid code, else ``(x, y, z)``.  Two words are
    confusable exactly when their deletion balls (their distinct
    length-(n-s) subsequences, listed by :func:`_deletion_ball`)
    meet, so the words are scanned in their sorted order, each ball
    against the earlier ones.  These are pairwise disjoint until the first
    conflict, so each subsequence seen names the one word it came from:
    ``y`` is the first word whose ball meets an earlier one, ``x`` the
    earliest word it meets and ``z`` the smallest subsequence they share.
    For s > n every pair is confusable through the empty word.
    :class:`CapacityError` is raised, before any ball is listed, when
    Levenshtein's bounds on the balls sum to more than 2^22 words.
    """
    n, s, words = c.n, c.s, c.words
    if len(words) < 2:
        return None
    if s > n:
        return words[0], words[1], BitString()
    _refuse_over_cap(sum(_deletion_ball_bound(w.value, n, s) for w in words),
                     f"deletion balls (Levenshtein's bound, n={n}, s={s})")
    seen: Dict[int, int] = {}
    for j, y in enumerate(words):
        ball = _deletion_ball(y.value, n, s)
        if not seen.keys().isdisjoint(ball):
            i = min(seen[z] for z in ball if z in seen)
            z = min(z for z in ball if seen.get(z) == i)
            return words[i], y, BitString.from_value(z, n - s)
        seen.update(dict.fromkeys(ball, j))
    return None


def verify_code(c: Code) -> bool:
    """True iff no two codewords share a length-(n-s) subsequence.

    Equivalently, every pair has deletion distance greater than 2s.  See
    :func:`find_conflict` for the pair that fails.
    """
    return find_conflict(c) is None


LayerColoringProvider = Callable[[int, int, int], Tuple[Dict[BitString, int], int]]


def two_stage_coloring(n: int, s: int,
                       layer_colorings: Optional[LayerColoringProvider] = None) -> Coloring:
    """Proper coloring of the full graph assembled from per-layer colorings.

    The color of a word is (weight mod s+1, layer color), flattened to a
    single index.  For s = 1 the reduced-modulus layer colorings are used
    by default; for general s a provider must be supplied.
    """
    _check_size(n, s, s_up_to_n=False)
    if layer_colorings is not None:
        per_layer = [layer_colorings(s, n, k) for k in range(n + 1)]
    elif s == 1:
        per_layer = [(c.assignment, c.num_colors)
                     for c in (_vt_coloring(n, k) for k in range(n + 1))]
    else:
        raise ValueError("no layer coloring available for s != 1; supply a provider")
    width = max(nc for _, nc in per_layer)
    assignment: Dict[BitString, int] = {}
    for k, (colors, _) in enumerate(per_layer):
        base = (k % (s + 1)) * width
        for x, col in colors.items():
            assignment[x] = base + col
    return Coloring(s=s, n=n, layer=None, assignment=assignment,
                    num_colors=(s + 1) * width)


def levenshtein_lower_bound(n: int, s: int) -> Fraction:
    """Finite-n floor 2^(n+s) / (I(I-1) + 2^s) on the best code size."""
    _check_size(n, s)
    ins = insertion_count(s, n)
    return Fraction(2 ** (n + s), ins * (ins - 1) + 2**s)


def constant_weight_guarantee(n: int, s: int) -> Fraction:
    """Finite-n floor on the best weight-partition code size over residues."""
    _check_size(n, s)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) / (layer_avg_degree_bound(s, n, k) + 1)
    return total / (s + 1)


def constant_weight_guarantee_asymptotic(n: int, s: int) -> Fraction:
    """Reporting-only asymptotic form 2^(n+3s) / ((s+1) C(2s,s) C(n,s)^2)."""
    _check_size(n, s)
    return Fraction(2 ** (n + 3 * s),
                    (s + 1) * math.comb(2 * s, s) * math.comb(n, s) ** 2)


def penalty_ratio(s: int) -> Fraction:
    """Factor (s+1) C(2s,s) / 4^s separating the two finite-n guarantees."""
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    return Fraction((s + 1) * math.comb(2 * s, s), 4**s)


def chromatic_certificate(n: int, k: Optional[int] = None
                          ) -> Tuple[Coloring, CliqueWitness, int]:
    """Matching proper coloring and clique certifying the chromatic number.

    Single deletion only: n+1 colors for the full graph, max(k, n-k)+1 for
    a weight layer.
    """
    if k is None:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        clique = substring_clique(BitString("0" * (n - 1)), 1)
    else:
        if k in (0, n):
            raise ValueError(f"layer k={k} of n={n} is a single vertex; no certificate needed")
        if not 0 < k < n:
            raise ValueError(f"require 1 <= k <= n-1, got k={k}, n={n}")
        if k >= n - k:
            base = BitString("0" * (n - 1 - k) + "1" * k)  # insert a zero: k+1 words
        else:
            base = BitString("0" * (n - k) + "1" * (k - 1))  # insert a one: n-k+1 words
        clique = substring_clique(base, 1, layer=k)
    coloring = _vt_coloring(n, k)
    return coloring, clique, coloring.num_colors


def _best_segment_params(s: int, n: int) -> Optional[Tuple[int, int, int, int, int]]:
    """``(size, l, k, b, c)`` of the largest feasible segment clique with
    members of length n and b + c = s (the first found on a tie), or None."""
    best: Optional[Tuple[int, int, int, int, int]] = None
    for b in range(s + 1):
        c = s - b
        total = n + 3 - b + c  # k (l + 3)
        for k in range(max(1, s), total // 7 + 1):
            if total % k:
                continue
            l = total // k - 3
            if l < 4:
                continue
            size = _segment_clique_size(l, k, b, c)
            if best is None or size > best[0]:
                best = (size, l, k, b, c)
    return best


def chromatic_lower_bound(s: int, n: int) -> int:
    """Largest clique size available from the explicit constructions.

    Considers the supersequence clique of size I(s, n) and every feasible
    segment clique whose members have length n with b + c = s.
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    _check_size(n, s, s_up_to_n=False)
    if s > n:
        return 2**n  # complete graph
    best = _best_segment_params(s, n)
    return max(insertion_count(s, n), 0 if best is None else best[0])


def best_segment_clique(s: int, n: int) -> Optional[CliqueWitness]:
    """The largest feasible segment clique with members of length n, if any."""
    best = _best_segment_params(s, n)
    if best is None:
        return None
    _, l, k, b, c = best
    return segment_clique(l, k, b, c)


# -- code file persistence --

FILE_MAGIC = "# delcode v1"


def write_code_file(code: Code, path: str) -> None:
    """Write a code in the canonical textual format (sorted, LF endings)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(FILE_MAGIC + "\n")
        fh.write(f"# n={code.n} s={code.s} kind={code.provenance}\n")
        for w in code.words:
            fh.write(str(w) + "\n")


def read_code_file(path: str) -> Code:
    """Read a code file, validating the header and codeword lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FILE_MAGIC:
        raise ValueError(f"{path}: missing '{FILE_MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("# "):
        raise ValueError(f"{path}: missing parameter header line")
    try:
        fields = dict(part.split("=", 1) for part in lines[1][2:].split())
        n = int(fields["n"])
        s = int(fields["s"])
        kind = fields["kind"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed parameter header") from exc
    first_line: Dict[str, int] = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"{path}:{lineno}: invalid codeword line {line!r}")
        if line in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate codeword {line!r} "
                             f"(first on line {first_line[line]})")
        first_line[line] = lineno
    try:
        return make_code(n, s, [BitString(line) for line in first_line], kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
