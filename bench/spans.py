"""Spans recorded around calls into planestego's public functions.

A span is (id, name, start, end, parent, op, shadow). Spans live in memory
and are written out once, when the run ends. A shadow span re-times work
the real program does elsewhere (warm `pixel_order`, PSNR already inside
`embed`, the benchmark's own checks): it feeds a per-layer metric but is
left out of the sum that is compared with the untraced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    """Stands in for Tracer in untraced runs; shadow work is skipped."""

    on = False
    op: object = None

    def span(self, name: str, shadow: bool = False):
        return nullcontext()

    def adopt(self, spans: list[dict]) -> None:
        pass


class Tracer:
    on = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, shadow: bool = False):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "shadow": shadow,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Take over spans recorded in another process, renumbered, under
        the current op. perf_counter is system-wide on Linux, so their
        times line up with this process's spans."""
        offset = len(self.spans)
        for record in spans:
            parent = record["parent"]
            self.spans.append(
                dict(
                    record,
                    id=record["id"] + offset,
                    parent=None if parent is None else parent + offset,
                    op=self.op,
                )
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    without overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def calls(spans: list[dict], name: str) -> list[float]:
    """Self time of every span with this name."""
    own = self_times(spans)
    return [own[s["id"]] for s in spans if s["name"] == name]


def program_time(spans: list[dict], op: object) -> float:
    """Self time of one op's non-shadow spans: the traced program work.

    A shadow span's whole subtree is excluded.
    """
    spans = [s for s in spans if s["op"] == op]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def shadowed(s: dict | None) -> bool:
        while s is not None:
            if s["shadow"]:
                return True
            s = by_id.get(s["parent"])
        return False

    return sum(own[s["id"]] for s in spans if not shadowed(s))
