"""Spans around the calls into each layer, recorded from the benchmark's side.

A traced run swaps each layer's public entry points for timing wrappers,
only inside the benchmark's process and only while `Tracer.installed()` is
active.  A span is [name, start_ns, end_ns, parent, arrival]; parent is the
index of the enclosing span, or -1 for a root (`match_init`,
`match_update`).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter_ns

# (module under sketchmatch, function) pairs the matchers call through
# their module attribute, so patching the attribute reaches every call.
ENTRY_POINTS = (
    ("maxip", "maxip_init"),
    ("maxip", "maxip_query"),
    ("maxip", "maxip_update"),
    ("ipe", "ipe_init"),
    ("ipe", "ipe_query"),
    ("ade", "ade_init"),
    ("ade", "ade_query"),
)
# Calls whose arguments and result the run inspects after the arrival.
KEPT = frozenset({"maxip_query", "maxip_update", "ipe_query"})
# A maxip_update after which the overlay is empty re-sorted every table; the
# run renames its span so that its time is booked as consolidation.
CONSOLIDATE = "maxip_consolidate"

SELF_MS = {
    "match_init": "matching.init_ms",
    "maxip_init": "maxip.init_ms",
    "ipe_init": "ipe.init_ms",
    "ade_init": "ade.init_ms",
    "hash_points": "maxip.hash_ms",
    "match_update": "matching.update_ms",
    "maxip_query": "maxip.query_ms",
    "maxip_update": "maxip.update_ms",
    CONSOLIDATE: "maxip.consolidate_ms",
    "ipe_query": "ipe.query_ms",
    "ade_query": "ade.query_ms",
}
CALLS = {
    "maxip.queries": ("maxip_query",),
    "maxip.updates": ("maxip_update", CONSOLIDATE),
    "maxip.hash_calls": ("hash_points",),
    "maxip.consolidations": (CONSOLIDATE,),
    "ade.queries": ("ade_query",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        # (span index, args, result) of the KEPT calls since the last clear.
        self.kept: list[tuple] = []
        self.arrival = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        spans, open_, kept = self.spans, self._open, self.kept

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, open_[-1] if open_ else -1, self.arrival]
            spans.append(span)
            open_.append(idx)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                open_.pop()
            if keep:
                kept.append((idx, args, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch the layers' entry points for the duration of the block."""
        saved = []
        try:
            for modname, attr in ENTRY_POINTS:
                mod = importlib.import_module(f"sketchmatch.{modname}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(attr, fn, attr in KEPT))
            index_cls = importlib.import_module("sketchmatch.maxip").LshIndex
            saved.append((index_cls, "hash_points", index_cls.hash_points))
            index_cls.hash_points = self.wrap("hash_points", index_cls.hash_points)
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children run one after another inside their parent, so the part of the
    parent's interval they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, own) -> dict[str, float]:
    """Self time per layer in ms and call counts, over the given spans."""
    out = {metric: 0.0 for metric in SELF_MS.values()}
    calls: dict[str, int] = {}
    for span, ns in zip(spans, own):
        out[SELF_MS[span[0]]] += ns / 1e6
        calls[span[0]] = calls.get(span[0], 0) + 1
    for metric, names in CALLS.items():
        out[metric] = sum(calls.get(name, 0) for name in names)
    return out


def root_ns(spans) -> int:
    """Total duration of the root spans, which self times must add up to."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
