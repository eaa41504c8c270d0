"""Spans and counters around the public functions of each regcrystals layer.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``regcrystals`` module that holds it, whether under its own name or
an alias (``verify`` imports ``mullineux`` as ``_mullineux``), and on the
class for ``Partition`` methods.  A span records its name, start, end and
the span that was open when it began.  Spans stay in flat arrays until the
run ends; ``self_times`` then takes each span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Public functions given a span, as "<layer>.<name>" or "<layer>.<Class>.<method>".
SPANNED = (
    "partitions.Partition.conjugate",
    "partitions.Partition.hooks",
    "partitions.from_beta_numbers",
    "abacus.encode",
    "abacus.decode",
    "abacus.e_core",
    "abacus.e_quotient",
    "abacus.restrict_to_classes",
    "ladders.regularise",
    "ladders.regularise_step",
    "ladders.restrictise",
    "ladders.is_regular",
    "ladders.fingerprint",
    "crystals.is_A_regular",
    "crystals.e_op",
    "crystals.f_op",
    "crystals.build_graph",
    "crystals.iso_chain",
    "crystals.apply_chain",
    "mullineux.mullineux",
    "mullineux.mullineux_oracle",
    "mullineux.slopes",
    "mullineux.lyle_check",
    "separation.split",
    "separation.combine",
    "separation.is_separated",
    "separation.verify_split",
    "separation.paget_mu",
)

# Verify suites whose share of the untraced wall time is reported.
SUITES = ("core", "ladder", "crystal", "mullineux", "lyle", "split", "paget")

# Count and ratio metrics, as (name, unit).
COUNTS = (
    ("partitions.Partition.created", "count"),
    ("partitions.enumerate_partitions.yielded", "count"),
    ("ladders.steps_per_regularise", "ratio"),
    ("mullineux.rounds_per_call", "ratio"),
    ("crystals.op_hit_rate", "ratio"),
    ("crystals.build_graph.vertex_yield", "ratio"),
    ("separation.hypothesis_met", "ratio"),
)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans must be listed in order of start time, as the tracer records
    them; a child's interval is clipped to its parent's.
    """
    cover = [0.0] * len(parents)
    reach: dict[int, float] = {}
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            cover[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - cover[i] for i in range(len(parents))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, on_result=None):
        """fn wrapped so that each call records a span named name."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, old, new) -> None:
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("regcrystals"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        """Wrap every traced function in all regcrystals namespaces."""
        import regcrystals.partitions as partitions

        mods = {name: sys.modules[f"regcrystals.{name}"] for name in
                ("partitions", "abacus", "ladders", "crystals", "mullineux", "separation")}
        hooks = {
            "crystals.e_op": self._count_hit,
            "crystals.f_op": self._count_hit,
            "crystals.build_graph": self._count_vertices,
            "separation.verify_split": self._count_verdict,
        }
        for full in SPANNED:
            layer, *path = full.split(".")
            if len(path) == 2:
                cls = getattr(mods[layer], path[0])
                self._replace(cls, path[1], self.span(full, vars(cls)[path[1]]))
            else:
                old = getattr(mods[layer], path[0])
                self._replace_everywhere(old, self.span(full, old, hooks.get(full)))

        counts = self.counts
        init = partitions.Partition.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts["partitions.Partition.created"] += 1
            init(obj, *args, **kwargs)

        self._replace(partitions.Partition, "__init__", counted_init)

        enum = partitions.enumerate_partitions
        graph_id = self._name_id("crystals.build_graph")
        stack, names = self.stack, self.span_name

        @functools.wraps(enum)
        def counted_enum(n):
            for la in enum(n):
                counts["partitions.enumerate_partitions.yielded"] += 1
                if stack and names[stack[-1]] == graph_id:
                    counts["crystals.build_graph.enumerated"] += 1
                yield la

        self._replace_everywhere(enum, counted_enum)

    def uninstall(self) -> None:
        """Put back every original function, newest replacement first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _count_hit(self, result) -> None:
        self.counts["crystals.op_hits"] += result is not None

    def _count_vertices(self, graph) -> None:
        self.counts["crystals.build_graph.vertices"] += len(graph.vertices)

    def _count_verdict(self, report) -> None:
        self.counts["separation.hypothesis_met_calls"] += report.verdict != "hypothesis-not-met"

    def summary(self) -> dict:
        """Per-name span calls and self seconds, plus the count and ratio metrics."""
        own = self_times(self.span_parent, self.span_start, self.span_end)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_calls: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            p = self.span_parent[i]
            if p >= 0:
                child_calls[(self.names[self.span_name[p]], name)] += 1
        c = self.counts
        ops = calls["crystals.e_op"] + calls["crystals.f_op"]
        ratios = {
            "partitions.Partition.created": c["partitions.Partition.created"],
            "partitions.enumerate_partitions.yielded": c["partitions.enumerate_partitions.yielded"],
            "ladders.steps_per_regularise": _ratio(
                child_calls[("ladders.regularise", "ladders.regularise_step")],
                calls["ladders.regularise"]),
            "mullineux.rounds_per_call": _ratio(
                child_calls[("mullineux.mullineux", "ladders.regularise")],
                calls["mullineux.mullineux"]),
            "crystals.op_hit_rate": _ratio(c["crystals.op_hits"], ops),
            "crystals.build_graph.vertex_yield": _ratio(
                c["crystals.build_graph.vertices"], c["crystals.build_graph.enumerated"]),
            "separation.hypothesis_met": _ratio(
                c["separation.hypothesis_met_calls"], calls["separation.verify_split"]),
        }
        return {
            "calls": {name: calls[name] for name in SPANNED},
            "self_s": {name: self_s[name] for name in SPANNED},
            "ratios": ratios,
            "spans": len(self.span_name),
        }
