"""Layer-boundary tracing by replacing library attributes at run time.

``Tracer.install`` wraps the functions listed in ``BOUNDARIES`` in every
module namespace where the library binds them, so calls made by the library
itself are seen as well as calls made by the benchmark. Stage-level calls
leave a span (id, name, start, end, parent); high-frequency inner calls only
add to a count and a total time, so the trace stays small. A layer's self
time is the time inside its wrapped calls minus the time spent in wrapped
calls they make. Nothing in the library is edited; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("graph_core", "constructors", "instance_io", "list_assignments",
          "solver", "oracle", "bounds")

# (module, class or None, attribute, layer, span). A function imported into
# several modules appears once per namespace that calls it.
BOUNDARIES = (
    ("constructors", None, "hypercube", "constructors", True),
    ("constructors", None, "complete_bipartite_pow2", "constructors", True),
    ("constructors", None, "cartesian_product", "constructors", True),
    ("constructors", None, "compute_s", "graph_core", False),
    ("instance_io", None, "compute_s", "graph_core", False),
    ("instance_io", None, "save_instance", "instance_io", True),
    ("instance_io", None, "load_instance", "instance_io", True),
    ("instance_io", None, "to_colored_graph", "instance_io", True),
    ("instance_io", None, "from_colored_graph", "instance_io", True),
    ("list_assignments", None, "generate_sparse", "list_assignments", True),
    ("list_assignments", None, "validate_beta_sparse", "list_assignments", True),
    ("list_assignments", None, "generate_distance2", "list_assignments", True),
    ("list_assignments", None, "is_distance_t_matching", "graph_core", False),
    ("solver", None, "solve_sparse", "solver", True),
    ("solver", None, "solve_distance2", "solver", True),
    ("solver", None, "verify_solution", "solver", True),
    ("solver", None, "construct_swap_plan", "solver", True),
    ("solver", None, "apply_permutation", "solver", False),
    ("solver", None, "allowed_cycles", "solver", False),
    ("solver", None, "conflict_edges", "list_assignments", False),
    ("solver", None, "support_is_distance2_matching", "list_assignments", False),
    ("solver", None, "t_neighborhood", "graph_core", False),
    ("solver", None, "two_colored_cycles_through", "graph_core", False),
    ("solver", None, "swap_cycle", "graph_core", False),
    ("solver", None, "color_table", "graph_core", False),
    ("solver", None, "is_proper", "graph_core", False),
    ("graph_core", None, "t_neighborhood", "graph_core", False),
    ("graph_core", None, "two_colored_cycles_through", "graph_core", False),
    ("graph_core", "Graph", "neighborhood_dedup", "graph_core", False),
    ("graph_core", "Graph", "vertex_distances_from_edge", "graph_core", False),
    ("oracle", None, "oracle_avoidable", "oracle", True),
    ("bounds", None, "beta_threshold", "bounds", True),
    ("bounds", None, "permutation_union_bound", "bounds", True),
    ("bounds", None, "swap_choice_margin", "bounds", True),
)


class _Frame:
    __slots__ = ("name", "child_s", "span")

    def __init__(self, name, span):
        self.name = name
        self.child_s = 0.0
        self.span = span


class _GraphState:
    """What the tracer has already seen requested of one Graph object."""

    __slots__ = ("nbhd", "bfs")

    def __init__(self):
        self.nbhd: set[int] = set()
        self.bfs: set[int] = set()


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._graphs: dict[int, tuple[weakref.ref, _GraphState]] = {}
        self._t0 = time.perf_counter()
        self.reset()

    def reset(self) -> None:
        """Zero every counter; what the tracer knows about cached graphs stays."""
        self.layer_self_s: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.fn_s: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.nested_s: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.time_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        hooks = {
            "compute_s": self._on_compute_s,
            "save_instance": self._on_save,
            "load_instance": self._on_load,
            "generate_sparse": self._on_lists,
            "generate_distance2": self._on_lists,
            "solve_sparse": self._on_solve,
            "solve_distance2": self._on_solve,
            "oracle_avoidable": self._on_oracle,
            "neighborhood_dedup": self._on_nbhd,
            "vertex_distances_from_edge": self._on_bfs,
        }
        for module_name, class_name, attr, layer, span in BOUNDARIES:
            owner = getattr(package, module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            name = f"{module_name}.{attr}"
            pre = self._pre_load if attr == "load_instance" else None
            if attr in ("neighborhood_dedup", "vertex_distances_from_edge"):
                pre = self._pre_cache_miss
            wrapped = self._wrap(name, layer, span, original, pre, hooks.get(attr))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, layer, span, fn, pre, post):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) if span else (parent.span if parent else None)
            if span:
                self.spans.append(None)
            note = pre(name, args) if pre is not None else None
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                self.layer_self_s[layer] += dt - frame.child_s
                self.layer_calls[layer] += 1
                self.fn_s[name] += dt
                self.fn_calls[name] += 1
                if parent is not None:
                    parent.child_s += dt
                    self.nested_s[(parent.name, name)] += dt
                if span:
                    self.spans[span_id] = (span_id, name, start - self._t0, end - self._t0,
                                           parent.span if parent else None)
                if post is not None:
                    post(args, result, exc, dt, note)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (one instance); it belongs to no layer."""
        parent = self._stack[-1] if self._stack else None
        depth = len(self._stack)
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(_Frame(name, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            # A deadline can strike inside a wrapper before it pops its frame.
            del self._stack[depth:]
            if parent is not None:
                parent.child_s += end - start
            self.spans[span_id] = (span_id, name, start - self._t0, end - self._t0,
                                   parent.span if parent else None)

    def _graph_state(self, g) -> _GraphState:
        key = id(g)
        entry = self._graphs.get(key)
        if entry is None or entry[0]() is not g:
            entry = (weakref.ref(g, lambda _ref, k=key: self._graphs.pop(k, None)),
                     _GraphState())
            self._graphs[key] = entry
        return entry[1]

    def _pre_cache_miss(self, name, args):
        """True when this (graph, argument) pair has not been requested before."""
        state = self._graph_state(args[0])
        seen = state.nbhd if name.endswith("neighborhood_dedup") else state.bfs
        if args[1] in seen:
            return False
        seen.add(args[1])
        return True

    def _pre_load(self, name, args):
        return os.path.getsize(args[0])

    def _on_compute_s(self, args, result, exc, dt, note):
        self.time_s["constructors.certify_s"] += dt

    def _on_save(self, args, result, exc, dt, note):
        if exc is None:
            self.count["instance_io.bytes"] += os.path.getsize(args[1])

    def _on_load(self, args, result, exc, dt, note):
        if exc is None:
            self.count["instance_io.bytes"] += note

    def _on_lists(self, args, result, exc, dt, note):
        if exc is None:
            self.count["list_assignments.entries"] += result.total_entries()

    def _on_nbhd(self, args, result, exc, dt, note):
        if note and exc is None:
            self.count["graph_core.nbhd_builds"] += 1
            self.count["graph_core.nbhd_entries"] += sum(len(w) for w in result[0])
            self.time_s["graph_core.nbhd_build_s"] += dt

    def _on_bfs(self, args, result, exc, dt, note):
        if note and exc is None:
            self.count["graph_core.bfs_runs"] += 1
            self.time_s["graph_core.bfs_s"] += dt

    def _on_solve(self, args, result, exc, dt, note):
        if exc is not None:
            return
        self.count["solver.perm_trials"] += result.trials_used
        if result.permutation is not None:
            self.count["solver.perm_accepted"] += 1
        if result.failure is not None:
            self.count[f"solver.fail.{result.failure.phase}"] += 1
        if result.plan is not None:
            self.count["solver.swaps"] += len(result.plan.cycles)
            for rec in result.plan.records:
                self.count["solver.swap_allowed"] += rec.allowed
                self.count["solver.swap_elim_overloaded"] += rec.eliminated_overloaded
                self.count["solver.swap_elim_conflict_or_used"] += \
                    rec.eliminated_conflict_or_used

    def _on_oracle(self, args, result, exc, dt, note):
        if exc is None:
            self.count["oracle.nodes"] += result.nodes_explored
            self.count["oracle.decided"] += 1
            self.time_s["oracle.counted_s"] += dt
        elif hasattr(exc, "nodes_explored"):
            self.count["oracle.nodes"] += exc.nodes_explored
            self.count["oracle.undecided"] += 1
            self.time_s["oracle.counted_s"] += dt
        elif isinstance(exc, Exception):
            self.count["oracle.errors"] += 1

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, every name always present (zero where unreached)."""
        c, t, f = self.count, self.time_s, self.fn_s
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s[layer], "s")
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
        phase_two = sum(self.nested_s[("solver.solve_sparse", f"solver.{child}")]
                        for child in ("construct_swap_plan", "verify_solution",
                                      "apply_permutation"))
        oracle_calls = self.fn_calls["oracle.oracle_avoidable"]
        out.update({
            "graph_core.nbhd_build_s": (t["graph_core.nbhd_build_s"], "s"),
            "graph_core.nbhd_builds": (c["graph_core.nbhd_builds"], "count"),
            "graph_core.nbhd_entries": (c["graph_core.nbhd_entries"], "count"),
            "graph_core.bfs_runs": (c["graph_core.bfs_runs"], "count"),
            "graph_core.bfs_s": (t["graph_core.bfs_s"], "s"),
            # Only the solver's enumerations: certification's are in certify_s.
            "graph_core.cycle_enum_calls": (
                self.fn_calls["solver.two_colored_cycles_through"], "count"),
            "graph_core.swap_cycle_calls": (self.fn_calls["solver.swap_cycle"], "count"),
            "graph_core.swap_cycle_s": (f["solver.swap_cycle"], "s"),
            "constructors.certify_s": (t["constructors.certify_s"], "s"),
            "instance_io.bytes": (c["instance_io.bytes"], "bytes"),
            "list_assignments.generate_sparse_s": (f["list_assignments.generate_sparse"], "s"),
            "list_assignments.validate_s": (f["list_assignments.validate_beta_sparse"], "s"),
            "list_assignments.generate_distance2_s": (
                f["list_assignments.generate_distance2"], "s"),
            "list_assignments.entries": (c["list_assignments.entries"], "count"),
            "solver.phase1_s": (f["solver.solve_sparse"] - phase_two, "s"),
            "solver.perm_trials": (c["solver.perm_trials"], "count"),
            "solver.perm_accept_ratio": (
                c["solver.perm_accepted"] / c["solver.perm_trials"]
                if c["solver.perm_trials"] else 0.0, "ratio"),
            "solver.swap_plan_s": (f["solver.construct_swap_plan"], "s"),
            "solver.swaps": (c["solver.swaps"], "count"),
            "solver.swap_allowed": (c["solver.swap_allowed"], "count"),
            "solver.swap_elim_overloaded": (c["solver.swap_elim_overloaded"], "count"),
            "solver.swap_elim_conflict_or_used": (
                c["solver.swap_elim_conflict_or_used"], "count"),
            "solver.distance2_s": (f["solver.solve_distance2"], "s"),
            "solver.fail.permutation": (c["solver.fail.permutation"], "count"),
            "solver.fail.swap": (c["solver.fail.swap"], "count"),
            "solver.fail.swap-search": (c["solver.fail.swap-search"], "count"),
            "solver.fail.verify": (c["solver.fail.verify"], "count"),
            "solver.verify_s": (f["solver.verify_solution"], "s"),
            "oracle.nodes": (c["oracle.nodes"], "count"),
            "oracle.nodes_per_s": (
                c["oracle.nodes"] / t["oracle.counted_s"] if t["oracle.counted_s"] else 0.0,
                "1/s"),
            "oracle.undecided": (c["oracle.undecided"], "count"),
            "oracle.errors": (c["oracle.errors"], "count"),
            "oracle.decided_ratio": (
                c["oracle.decided"] / oracle_calls if oracle_calls else 0.0, "ratio"),
        })
        return out
