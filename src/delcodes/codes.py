"""Code constructions, verification, colorings, and finite-n bound calculators.

The single-deletion codes are color classes of the weighted-sum coloring
(the sum of the 1-based positions of the one symbols) mod n+1 on L(1, n),
or mod max(k, n-k)+1 on weight layer k, all read from the one class
listing ``delcodes.bitstring._vt_classes``: a residue code is one class, a
layer code the largest class of its layer, and the chromatic certificates
are these colorings.  The union-over-weights construction stitches
per-layer independent sets into a code for any s; the two-stage coloring
stitches per-layer colorings from a provider, these layer colorings being
the default one for s = 1, and checks each in the pass that places it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from .bitstring import (
    BitString,
    _check_int,
    _check_layer,
    _check_length,
    _check_size,
    _deletion_ball,
    _deletion_ball_bound,
    _refuse_over_cap,
    _vt_classes,
    _vt_color,
    weight,
)
from .counting import _check_s_and_p, insertion_count
from .graph import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CliqueWitness,
    _check_budget,
    _segment_clique_size,
    build_graph,
    exact_mis,
    greedy_mis,
    layer_avg_degree_bound,
    substring_clique,
    segment_clique,
)

LayerSolver = Callable[[int, int, int], Iterable[BitString]]


class _CodeFields(NamedTuple):
    n: int
    s: int
    words: Tuple[BitString, ...]
    provenance: str


class Code(_CodeFields):
    """A set of codewords, all of length n, claiming pairwise deletion distance > 2s."""

    __slots__ = ()

    def __new__(cls, n: int, s: int, words: Tuple[BitString, ...], provenance: str) -> "Code":
        _check_size(n, s, s_up_to_n=False)
        _check_length(n)
        for w in words:
            if not isinstance(w, BitString):
                raise TypeError(f"codeword {w!r} is not a BitString")
            if len(w) != n:
                raise ValueError(f"codeword {w} does not have length {n}")
        return super().__new__(cls, n, s, words, provenance)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Code":
        # _replace builds through _make, which would otherwise skip the checks
        return cls(*iterable)


def make_code(n: int, s: int, words: Iterable[BitString], provenance: str) -> Code:
    return Code(n=n, s=s, words=tuple(sorted(set(words))), provenance=provenance)


class Coloring(NamedTuple):
    """A total color assignment for one deletion graph (or one weight layer)."""

    s: int
    n: int
    layer: Optional[int]
    assignment: Dict[BitString, int]
    num_colors: int


def _vt_coloring(n: int, k: Optional[int] = None) -> Coloring:
    """The weighted-sum coloring of L(1, n), or of its weight-k layer."""
    classes = _vt_classes(n, k)
    assignment = {BitString.from_value(v, n): col
                  for col, values in enumerate(classes) for v in values}
    return Coloring(s=1, n=n, layer=k, assignment=assignment, num_colors=len(classes))


def vt_weight(x: BitString) -> int:
    """Position-weighted sum of the one symbols, mod n+1."""
    return _vt_color(x.value, len(x))


def modified_vt_weight(x: BitString) -> int:
    """Position-weighted sum mod (max(k, n-k) + 1), a proper layer coloring."""
    return _vt_color(x.value, len(x), weight(x))


def vt_code(n: int, residue: int) -> Code:
    """All length-n words whose weighted sum is the given residue mod n+1."""
    _check_size(n, 1, s_up_to_n=False)  # a single-deletion code
    _check_int("residue", residue, 0, n)
    words = (BitString.from_value(v, n) for v in _vt_classes(n)[residue])
    return make_code(n, 1, words, "vt")


def layer_code(n: int, k: int) -> Code:
    """Largest color class of the reduced-modulus coloring of one weight layer.

    Ties between equally large classes go to the smallest color index:
    ``max`` returns the first largest class.
    """
    largest = max(_vt_classes(n, k), key=len)
    return make_code(n, 1, (BitString.from_value(v, n) for v in largest), "layer")


def layer_color_solver(s: int, n: int, k: int) -> Set[BitString]:
    """Per-layer solver backed by the reduced-modulus coloring (s = 1 only)."""
    _check_int("s", s)
    if s != 1:
        raise ValueError("the coloring-based layer solver handles s = 1 only")
    return set(layer_code(n, k).words)


def greedy_layer_solver(s: int, n: int, k: int) -> Set[BitString]:
    """Per-layer solver using the minimum-degree greedy heuristic."""
    return greedy_mis(build_graph(s, n, k))


def make_exact_layer_solver(node_budget: int = DEFAULT_NODE_BUDGET) -> LayerSolver:
    """Per-layer solver running the exact branch-and-bound search (:func:`exact_mis`).

    Complement commutes with deleting symbols, so it maps layer k of L(s, n)
    onto layer n - k.  The solver solves layer min(k, n - k) once in its
    lifetime, keeps the set, and maps it by complement when k > n - k; the
    incumbent of an exhausted budget is mapped too.  Each call returns a
    fresh set.  The budget is checked here, before any layer is solved.
    """
    _check_budget(node_budget)
    solved: Dict[Tuple[int, int, int], Set[BitString]] = {}

    def solver(s: int, n: int, k: int) -> Set[BitString]:
        mirrored = n - k < k <= n  # else k is solved as given, and build_graph checks it
        low = n - k if mirrored else k
        flip = (1 << n) - 1 if mirrored else 0

        def image(words: Set[BitString]) -> Set[BitString]:
            return {BitString.from_value(x.value ^ flip, n) for x in words}

        if (s, n, low) not in solved:
            try:
                solved[s, n, low] = exact_mis(build_graph(s, n, low), node_budget)
            except BudgetExceededError as exc:
                exc.best = image(exc.best)
                raise
        return image(solved[s, n, low])

    return solver


def weight_partition_code(n: int, s: int, residue_a: int,
                          layer_solver: LayerSolver) -> Code:
    """Union of per-layer independent sets over weights congruent to a residue.

    Valid for s deletions because adjacent words differ in weight by at
    most s, so layers s+1 apart cannot interact.  ValueError is raised if a
    layer solver returns anything but a BitString of its layer.
    """
    _check_size(n, s, s_up_to_n=False)
    _check_int("residue_a", residue_a, 0, s)
    words: Set[BitString] = set()
    for k in range(n + 1):
        if k % (s + 1) == residue_a:
            for x in layer_solver(s, n, k):
                if not isinstance(x, BitString):
                    raise ValueError(f"layer solver returned {x!r} for layer {k}, not a BitString")
                if weight(x) != k:  # make_code checks the length
                    raise ValueError(f"layer solver returned {x}, outside layer {k}")
                words.add(x)
    return make_code(n, s, words, "weight-partition")


def _k_star(n: int, a: int) -> Optional[int]:
    # Weight in 0..n closest to n/2 with the opposite parity from a; on a tie
    # the smaller candidate wins (the bound value is the same either way).
    # None at n = 0 for a = 0, where no weight has the opposite parity.
    candidates = sorted(range(n + 1), key=lambda k: (abs(2 * k - n), k))
    return next((k for k in candidates if k % 2 != a % 2), None)


def weight_partition_size_bound(n: int, a: int) -> Fraction:
    """Single-deletion floor (2^n - C(n, k*)) / (n + 1) on the union code size;
    1, the size of the code of the empty word, at n = 0 for a = 0 (no k* to subtract)."""
    _check_size(n, 1, s_up_to_n=False)  # a single-deletion bound
    _check_int("a", a, 0, 1)
    k = _k_star(n, a)
    return Fraction(2**n - (0 if k is None else math.comb(n, k)), n + 1)


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


def _vt_layer_coloring(s: int, n: int, k: int) -> Tuple[Dict[BitString, int], int]:
    """The default s = 1 provider: the weighted-sum coloring of layer k."""
    c = _vt_coloring(n, k)
    return c.assignment, c.num_colors


def two_stage_coloring(n: int, s: int,
                       layer_colorings: Optional[LayerColoringProvider] = None) -> Coloring:
    """Coloring of the full graph assembled from per-layer colorings.

    The color of a word is (weight mod s+1, layer color), flattened to a
    single index.  Adjacent words differ in weight by at most s, so the
    result is proper whenever each layer coloring is.  For s = 1 the
    weighted-sum layer colorings are the default provider; for general s
    one must be supplied.  Each layer's coloring is checked, in order
    k = 0..n, first for its size and color count, then, in the pass that
    places the colors, for its words and color range: :class:`ValueError`
    is raised unless layer k colors C(n, k) distinct n-symbol weight-k
    words, each with an integer in 0..nc-1 (a larger color would run into
    the next residue's block), nc an integer of at least 1."""
    _check_size(n, s, s_up_to_n=False)
    if layer_colorings is None:
        if s != 1:
            raise ValueError("no layer coloring available for s != 1; supply a provider")
        layer_colorings = _vt_layer_coloring
    per_layer = [layer_colorings(s, n, k) for k in range(n + 1)]
    inexact = "layer {0} coloring does not color exactly the weight-{0} words"
    for k, (colors, nc) in enumerate(per_layer):  # before max compares the counts
        if len(colors) != math.comb(n, k):
            raise ValueError(inexact.format(k))
        if isinstance(nc, bool) or not isinstance(nc, int) or nc < 1:
            raise ValueError(f"layer {k} coloring has color count {nc!r}, not an integer >= 1")
    width = max(nc for _, nc in per_layer)
    assignment: Dict[BitString, int] = {}
    for k, (colors, nc) in enumerate(per_layer):
        base = (k % (s + 1)) * width
        for x, col in colors.items():
            if not (isinstance(x, BitString) and len(x) == n and weight(x) == k):
                raise ValueError(inexact.format(k))
            if not (isinstance(col, int) and 0 <= col < nc):
                raise ValueError(f"layer {k} coloring gives {x} color {col!r}, outside 0..{nc - 1}")
            assignment[x] = base + col
    return Coloring(s=s, n=n, layer=None, assignment=assignment,
                    num_colors=(s + 1) * width)


def levenshtein_lower_bound(n: int, s: int) -> Fraction:
    """Finite-n floor 2^(n+s) / (I(I-1) + 2^s) on the best code size."""
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
    _check_s_and_p(s)
    return Fraction((s + 1) * math.comb(2 * s, s), 4**s)


def chromatic_certificate(n: int, k: Optional[int] = None
                          ) -> Tuple[Coloring, CliqueWitness, int]:
    """Matching proper coloring and clique certifying the chromatic number.

    Single deletion only: n+1 colors for the full graph, max(k, n-k)+1 for
    a weight layer.
    """
    if k is None:
        _check_int("n", n, 1)
        clique = substring_clique(BitString("0" * (n - 1)), 1)
    else:
        _check_layer(n, k)
        if k in (0, n):
            raise ValueError(f"layer k={k} of n={n} is a single vertex; no certificate needed")
        if k >= n - k:
            base = BitString("0" * (n - 1 - k) + "1" * k)  # insert a zero: k+1 words
        else:
            base = BitString("0" * (n - k) + "1" * (k - 1))  # insert a one: n-k+1 words
        clique = substring_clique(base, 1, layer=k)
    coloring = _vt_coloring(n, k)
    return coloring, clique, coloring.num_colors


def _best_segment_params(s: int, n: int) -> Optional[Tuple[int, int, int, int, int]]:
    """``(size, l, k, b, c)`` of the largest feasible segment clique with
    members of length n and b + c = s (the first found on a tie), or None.
    ValueError unless s >= 1 and n >= 0."""
    _check_int("s", s, 1)
    _check_size(n, s, s_up_to_n=False)
    best: Optional[Tuple[int, int, int, int, int]] = None
    for b in range(s + 1):
        c = s - b
        total = n + 3 - b + c  # k (l + 3)
        for k in range(max(1, s), total // 7 + 1):
            if total % k:
                continue
            l = total // k - 3  # at least 4, as k <= total // 7
            size = _segment_clique_size(l, k, b, c)
            if best is None or size > best[0]:
                best = (size, l, k, b, c)
    return best


def chromatic_lower_bound(s: int, n: int) -> int:
    """Largest clique size available from the explicit constructions.

    Considers the supersequence clique of size I(s, n) and every feasible
    segment clique whose members have length n with b + c = s.
    """
    if s > n >= 0:
        return 2**n  # complete graph
    best = _best_segment_params(s, n)  # checks s >= 1 and n >= 0
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
    """Write a code in the canonical textual format (sorted, LF endings).

    The provenance is the header's ``kind`` field, so it must hold no
    whitespace; ValueError is raised before the file is opened.
    """
    if any(ch.isspace() for ch in code.provenance):
        raise ValueError(f"code kind {code.provenance!r} must be one token, without whitespace")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FILE_MAGIC + "\n")
        fh.write(f"# n={code.n} s={code.s} kind={code.provenance}\n")
        for w in code.words:
            fh.write(str(w) + "\n")


def _decimal(text: str) -> int:
    """An optional '-' and ASCII digits; int() also takes '+3', '0_3' and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def read_code_file(path: str) -> Code:
    """Read a code file, validating the header and codeword lines.

    Every error names the path.  One raised by the code's own checks keeps
    its type, so a word length past the cap is a :class:`CapacityError`.
    Lines end only at a newline (``open`` reads CRLF and a lone CR as one),
    so a form feed or other separator inside a line makes it invalid.  The
    header's fields are parted by single spaces, so other whitespace there
    makes it malformed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not lines[-1]:  # after a final newline, or of an empty file
        lines.pop()
    if not lines or lines[0] != FILE_MAGIC:
        raise ValueError(f"{path}: missing '{FILE_MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("# "):
        raise ValueError(f"{path}: missing parameter header line")
    try:
        # fields are parted by single spaces, as written; str.split() would
        # also part them at tabs, form feeds and other Unicode whitespace
        pairs = [part.split("=", 1) for part in lines[1][2:].split(" ")]
        fields = dict(pairs)  # ValueError for a field without "=", or an empty one
        if sorted(key for key, _ in pairs) != ["kind", "n", "s"]:
            raise ValueError("want n, s and kind, each once")
        n = _decimal(fields["n"])
        s = _decimal(fields["s"])
        kind = fields["kind"]
        if any(ch.isspace() for ch in kind):  # write_code_file refuses it too
            raise ValueError(f"code kind {kind!r} holds whitespace")
    except ValueError as exc:
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
        raise type(exc)(f"{path}: {exc}") from exc
