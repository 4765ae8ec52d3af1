"""In-memory span tracer that wraps the library's public functions.

Only the traced run installs it.  Each wrapped function is replaced, in every
``delcodes`` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent, job id) while a job is active.  Calls made outside
a job (set-up, output checks) pass straight through.

``bitstring.deletion_distance`` runs millions of times per run, once per pair
inside ``verify_code``; its calls are rolled up per parent span (count and
busy time) instead of being kept one span each, so memory stays bounded.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Tuple

LAYERS = ("bitstring", "counting", "graph", "codes", "cli")

# (module, function, span name) for every public function another module or
# the benchmark calls.  Helpers that only their own module calls (vt_weight,
# lcs_length, the private _insert_values) are not wrapped, so their time is
# self time of the span that called them.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("bitstring", "deletion_distance", "bitstring.deletion_distance"),
    ("bitstring", "confusable_set", "bitstring.confusable_set"),
    ("bitstring", "delete_all", "bitstring.subsequences"),
    ("bitstring", "insert_all", "bitstring.subsequences"),
    ("bitstring", "insert_all_weighted", "bitstring.subsequences"),
    ("bitstring", "common_substrings", "bitstring.subsequences"),
    ("counting", "encode", "counting.codec"),
    ("counting", "decode", "counting.codec"),
    ("counting", "insertion_count", "counting.closed_forms"),
    ("counting", "weighted_insertion_count", "counting.closed_forms"),
    ("counting", "f_s_value", "counting.closed_forms"),
    ("counting", "f_s_value_multinomial", "counting.closed_forms"),
    ("counting", "f_s_bound", "counting.closed_forms"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "degree_stats", "graph.degree_stats"),
    ("graph", "greedy_mis", "graph.greedy_mis"),
    ("graph", "exact_mis", "graph.exact_mis"),
    ("graph", "verify_independent", "graph.verify"),
    ("graph", "verify_coloring", "graph.verify"),
    ("graph", "verify_clique", "graph.verify"),
    ("graph", "layer_avg_degree_bound", "graph.degree_bound"),
    ("graph", "substring_clique", "graph.witness"),
    ("graph", "segment_clique", "graph.witness"),
    ("graph", "induced_cycle", "graph.witness"),
    ("graph", "imperfectness_witness", "graph.witness"),
    ("codes", "verify_code", "codes.verify_code"),
    ("codes", "vt_code", "codes.construct"),
    ("codes", "layer_code", "codes.construct"),
    ("codes", "weight_partition_code", "codes.construct"),
    ("codes", "layer_color_solver", "codes.construct"),
    ("codes", "greedy_layer_solver", "codes.construct"),
    ("codes", "make_code", "codes.construct"),
    ("codes", "two_stage_coloring", "codes.construct"),
    ("codes", "levenshtein_lower_bound", "codes.bounds"),
    ("codes", "constant_weight_guarantee", "codes.bounds"),
    ("codes", "constant_weight_guarantee_asymptotic", "codes.bounds"),
    ("codes", "penalty_ratio", "codes.bounds"),
    ("codes", "chromatic_lower_bound", "codes.bounds"),
    ("codes", "weight_partition_size_bound", "codes.bounds"),
    ("codes", "best_segment_clique", "codes.bounds"),
    ("codes", "chromatic_certificate", "codes.certificate"),
    ("codes", "read_code_file", "codes.file_io"),
    ("codes", "write_code_file", "codes.file_io"),
    ("cli", "main", "cli.main"),
)

ROLLED_UP = frozenset({"bitstring.deletion_distance"})

# The per-layer metrics a traced run reports, with their units.
REPORTED = (
    ("bitstring.deletion_distance.calls", "count"),
    ("bitstring.deletion_distance.busy_s", "s"),
    ("bitstring.confusable_set.busy_s", "s"),
    ("codes.verify_code.calls", "count"),
    ("codes.verify_code.busy_s", "s"),
    ("codes.verify_code.pairs", "count"),
    ("codes.construct.self_s", "s"),
    ("codes.certificate.busy_s", "s"),
    ("codes.bounds.busy_s", "s"),
    ("codes.file_io.busy_s", "s"),
    ("codes.file_io.bytes", "bytes"),
    ("graph.build_graph.calls", "count"),
    ("graph.build_graph.busy_s", "s"),
    ("graph.build_graph.vertices", "count"),
    ("graph.build_graph.edges", "count"),
    ("graph.greedy_mis.busy_s", "s"),
    ("graph.verify.busy_s", "s"),
    ("graph.degree_stats.busy_s", "s"),
    ("graph.exact_mis.calls", "count"),
    ("graph.exact_mis.busy_s", "s"),
    ("graph.exact_mis.edge_rows", "count"),
    ("graph.exact_mis.budget_exhausted", "count"),
    ("counting.codec.calls", "count"),
    ("counting.codec.busy_s", "s"),
    ("counting.closed_forms.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exit", "count"),
) + tuple((f"share.{layer}", "fraction") for layer in LAYERS + ("bench",))


def _edge_count(g) -> int:
    return sum(mask.bit_count() for mask in g.adjacency) // 2


def _observers(lib) -> Dict[str, Callable]:
    """Per-span counters computed from a call's arguments, result or error.

    They run after the span's end time is taken, so they do not count as
    the span's own busy time.
    """
    budget_error = lib.graph.BudgetExceededError

    def build_graph(args, result, exc):
        if exc is None:
            return {"vertices": len(result), "edges": _edge_count(result)}
        return {}

    def exact_mis(args, result, exc):
        out = {"edge_rows": _edge_count(args[0])}
        if isinstance(exc, budget_error):
            out["budget_exhausted"] = 1
        return out

    def file_io(args, result, exc):
        path = args[1] if len(args) > 1 else args[0]
        return {"bytes": os.path.getsize(path)} if os.path.exists(path) else {}

    def cli_main(args, result, exc):
        return {"nonzero_exit": int(exc is not None or result != 0)}

    return {
        "graph.build_graph": build_graph,
        "graph.exact_mis": exact_mis,
        "codes.file_io": file_io,
        "cli.main": cli_main,
    }


class Tracer:
    """Records spans for the library calls made while a job is running."""

    def __init__(self, lib):
        self.lib = lib
        # span: (id, name, start, end, parent id, job id); id 0 is "no parent"
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        # (parent span id, name) -> [calls, busy seconds]
        self.rollups: Dict[Tuple[int, str], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.busy: Dict[str, float] = {}
        self._stack: List[Tuple[int, str]] = []
        self._active: Dict[str, int] = {}
        self._next_id = 1
        self._job = 0
        self._job_start = 0.0
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        observers = _observers(self.lib)
        modules = [self.lib.package] + [getattr(self.lib, m) for m in LAYERS]
        for mod_name, func_name, span_name in WRAPPED:
            original = getattr(getattr(self.lib, mod_name), func_name)
            if span_name in ROLLED_UP:
                wrapper = self._rollup_wrapper(original, span_name)
            else:
                wrapper = self._span_wrapper(original, span_name,
                                             observers.get(span_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _span_wrapper(self, fn, name, observer):
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            stack.append((sid, name))
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                self.spans.append((sid, name, start, end, parent, self._job))
                self._count(name + ".calls")
                if outermost:
                    self.busy[name] = self.busy.get(name, 0.0) + end - start
                if observer is not None:
                    for key, amount in observer(args, result, exc).items():
                        self._count(f"{name}.{key}", amount)

        traced.__wrapped__ = fn
        return traced

    def _rollup_wrapper(self, fn, name):
        stack, rollups, clock = self._stack, self.rollups, time.perf_counter
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            parent, parent_name = stack[-1]
            slot = rollups.get((parent, name))
            if slot is None:
                rollups[(parent, name)] = [1, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
            self.counters[calls_key] = self.counters.get(calls_key, 0) + 1
            if parent_name == "codes.verify_code":
                self._count("codes.verify_code.pairs")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- jobs --

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._stack.append((self._next_id, "job"))
        self._next_id += 1
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        end = time.perf_counter()
        sid, _ = self._stack.pop()
        self.spans.append((sid, "job", self._job_start, end, 0, self._job))

    # -- analysis --

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child: Dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            child[parent] = child.get(parent, 0.0) + end - start
        by_name: Dict[str, float] = {}
        for (parent, name), (_, busy) in self.rollups.items():
            child[parent] = child.get(parent, 0.0) + busy
            by_name[name] = by_name.get(name, 0.0) + busy
        for sid, name, start, end, _, _ in self.spans:
            by_name[name] = by_name.get(name, 0.0) + end - start - child.get(sid, 0.0)
        return by_name

    def metrics(self) -> Dict[str, float]:
        """Every reported per-layer metric, zero where the layer was idle."""
        selfs = self.self_times()
        job_total = sum(end - start for _, name, start, end, _, _ in self.spans
                        if name == "job")
        values: Dict[str, float] = dict(self.counters)
        for name, busy in self.busy.items():
            values[name + ".busy_s"] = busy
        for name, busy in selfs.items():
            values[name + ".self_s"] = busy
        for (_, name), (_, busy) in self.rollups.items():
            values[name + ".busy_s"] = values.get(name + ".busy_s", 0.0) + busy
        for layer in LAYERS:
            layer_self = sum(t for name, t in selfs.items()
                             if name.split(".")[0] == layer)
            values[f"share.{layer}"] = layer_self / job_total if job_total else 0.0
        values["share.bench"] = selfs.get("job", 0.0) / job_total if job_total else 0.0
        return {key: values.get(key, 0) for key, _ in REPORTED}

    def write(self, path: str) -> None:
        """Write every span and roll-up as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}))
                fh.write("\n")
            for (parent, name), (calls, busy) in self.rollups.items():
                fh.write(json.dumps({"rollup": name, "parent": parent,
                                     "calls": calls, "busy_s": busy}))
                fh.write("\n")
