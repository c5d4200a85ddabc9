"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

The tracer replaces every module-level binding of each traced function in
every loaded ``mmsalloc`` module, because the solvers and ``reductions``
import names with ``from .mms import ...``: wrapping ``mmsalloc.mms`` alone
would miss their calls.  The package itself is not modified on disk.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# module -> functions traced in it; a span is named "<module>.<function>".
TARGETS = {
    "solver_goods": ("solve",),
    "solver_chores": ("solve_chores",),
    "core": ("to_ordered", "lift_allocation", "bundle_value"),
    "mms": (
        "mms_value",
        "mu_vector",
        "maximin_partition",
        "structured_partition_goods",
        "structured_partition_chores",
        "find_allocation_meeting",
    ),
    "reductions": (
        "reduce_single_item",
        "reduce_pair_blockable",
        "reduce_pigeonhole_pair",
        "reduce_pair_from_high",
        "reduce_by_domination",
        "base_identical_partitions",
        "apply_with_maps",
        "verify_step",
    ),
    "matching": ("max_matching", "envy_free_matching", "hall_deficient_split", "is_envy_free"),
    "domination": ("dominates", "strictly_dominates", "group_tail_bundles", "pick_dominated"),
}

SOLVE_ROOTS = frozenset({"solver_goods.solve", "solver_chores.solve_chores"})
RULES = frozenset(
    f"reductions.{name}" for name in TARGETS["reductions"] if name.startswith("reduce_")
)
STRUCTURED = frozenset(
    {"mms.structured_partition_goods", "mms.structured_partition_chores"}
)


class Tracer:
    """Records spans as (name, start, end, parent index, returned a value,
    growth of the share cache) in call order, so a parent precedes its
    children.  ``cache_size`` reads the size of the package's share cache."""

    def __init__(self, cache_size):
        self.cache_size = cache_size
        self.spans = []
        self._stack = []

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, self.cache_size(), perf_counter()

    def _close(self, opened, name, fired):
        end = perf_counter()
        index, parent, size, start = opened
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, fired, self.cache_size() - size)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            opened = self._open()
            fired = False
            try:
                result = fn(*args, **kwargs)
                fired = result is not None
                return result
            finally:
                self._close(opened, name, fired)

        return traced

    @contextmanager
    def root(self, name):
        """A span around a block of bench code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name, True)


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "mmsalloc" or name.startswith("mmsalloc."))
    ]


@contextmanager
def traced_package(tracer):
    """Wrap every binding of every target; restore all of them on exit.

    Yields the names of targets the package does not define.
    """
    modules = package_modules()
    restore = []
    missing = []
    for module_name, functions in TARGETS.items():
        home = sys.modules.get(f"mmsalloc.{module_name}")
        for function in functions:
            original = getattr(home, function, None)
            if original is None:
                missing.append(f"{module_name}.{function}")
                continue
            wrapper = tracer.wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the part of the parent they cover.
    """
    out = [span[2] - span[1] for span in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans):
    """Per-layer totals over one traced pass (seconds, counts and ratios).

    Solve-side metrics count spans under a solve root, verify-side metrics
    spans under a verify root.  A layer's calls and time count only its
    outermost spans, so a layer function calling another is not counted
    twice.
    """
    names = [span[0] for span in spans]
    root = []
    under_verify_step = []
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent < 0:
            root.append(i)
            under_verify_step.append(False)
        else:
            root.append(root[parent])
            under_verify_step.append(
                under_verify_step[parent] or names[parent] == "reductions.verify_step"
            )
    lift_end = {}
    for name, _, end, parent, _, _ in spans:
        if name == "core.lift_allocation" and parent >= 0 and names[parent] in SOLVE_ROOTS:
            lift_end[parent] = end

    calls, seconds = Counter(), Counter()

    def add(key, duration):
        calls[key] += 1
        seconds[key] += duration

    hits = fired = 0
    own = self_times(spans)
    for i, (name, start, end, parent, returned, growth) in enumerate(spans):
        duration = end - start
        in_solve = names[root[i]] in SOLVE_ROOTS
        if i == root[i]:
            if in_solve:
                add("solver.self", own[i])
            continue
        if not in_solve:
            if name == "reductions.verify_step":
                add("verify_step", duration)
            elif name == "mms.mms_value" and under_verify_step[i]:
                add("verify_share", duration)
            continue
        layer = name.split(".", 1)[0]
        if layer in ("matching", "domination") and not names[parent].startswith(layer + "."):
            add(layer, duration)
        if name == "mms.mms_value":
            hits += growth == 0
            add("share", duration)
            if names[parent] in SOLVE_ROOTS and start >= lift_end.get(parent, float("inf")):
                add("certify", duration)
        elif name == "mms.mu_vector":
            add("mu_vector", duration)
        elif name in STRUCTURED:
            add("structured", duration)
        elif name == "mms.find_allocation_meeting":
            add("threshold_search", duration)
        elif name in RULES:
            fired += returned
            add("rules", duration)
        elif name in ("core.to_ordered", "core.lift_allocation", "core.bundle_value"):
            add(name, duration)
        elif name == "reductions.apply_with_maps":
            add("apply", duration)

    return {
        "mms.share_calls": calls["share"],
        "mms.share_s": seconds["share"],
        "mms.cache_hit_ratio": hits / calls["share"] if calls["share"] else 0.0,
        "mms.mu_vector_s": seconds["mu_vector"],
        "mms.certify_s": seconds["certify"],
        "mms.structured_calls": calls["structured"],
        "mms.structured_s": seconds["structured"],
        "mms.threshold_search_calls": calls["threshold_search"],
        "mms.threshold_search_s": seconds["threshold_search"],
        "reductions.rule_attempts": calls["rules"],
        "reductions.rule_fire_ratio": fired / calls["rules"] if calls["rules"] else 0.0,
        "reductions.rules_s": seconds["rules"],
        "reductions.apply_s": seconds["apply"],
        "reductions.verify_step_s": seconds["verify_step"],
        "reductions.verify_share_s": seconds["verify_share"],
        "core.to_ordered_s": seconds["core.to_ordered"],
        "core.lift_s": seconds["core.lift_allocation"],
        "core.bundle_value_calls": calls["core.bundle_value"],
        "matching.calls": calls["matching"],
        "matching.s": seconds["matching"],
        "domination.calls": calls["domination"],
        "domination.s": seconds["domination"],
        "solver.self_s": seconds["solver.self"],
    }
