"""In-memory span recorder for the traced run.

One span per call into a layer: name, start, end and the span that was
open when it started (its parent).  Spans are kept in memory and written
once, when the traced run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records nested, strictly sequential spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as one span named ``name``."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    @staticmethod
    def duration_s(record: dict) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e9

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration_s(record) for record in self.spans
                   if record["name"] == name)

    def self_s(self, record: dict) -> float:
        """Duration minus the part covered by direct children.

        Children of one parent never overlap (spans are sequential), so
        their durations add.
        """
        children = sum(self.duration_s(child) for child in self.spans
                       if child["parent"] == record["id"])
        return self.duration_s(record) - children

    def problems(self) -> list[str]:
        """Spans left open, escaping their parent, or with negative self
        time; empty when the recording is well formed."""
        found = [f"{record['name']}#{record['id']}: never closed"
                 for record in self.spans if record["end_ns"] is None]
        if found:
            return found
        for record in self.spans:
            label = f"{record['name']}#{record['id']}"
            parent_id = record["parent"]
            if parent_id is not None:
                parent = self.spans[parent_id]
                if (record["start_ns"] < parent["start_ns"]
                        or record["end_ns"] > parent["end_ns"]):
                    found.append(f"{label}: outside parent "
                                 f"{parent['name']}#{parent_id}")
            if self.self_s(record) < 0:
                found.append(f"{label}: negative self time")
        return found

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1))
