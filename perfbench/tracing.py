"""In-memory spans around the benchmark's calls into rank3's modules.

A span is named ``<layer>.<what>`` after the rank3 module it enters
(families, graphs, permgrp, autsolve), or ``catalog.row`` for a whole catalog
row.  Spans of one call share its ``call`` name; they are written out when
the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans (id, name, parent, call, start, end) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, call: str | None = None):
        parent = self._open[-1] if self._open else None
        if call is None and parent is not None:
            call = self.spans[parent]["call"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "call": call,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    spans: list[dict] = []

    def span(self, name: str, call: str | None = None):
        return nullcontext()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"] - child[s["id"]]
        out[s["name"]] = out.get(s["name"], 0.0) + dur
    return out
