"""Interval telemetry: time-resolved ``SimStats`` windows.

Whole-run counters cannot show phase behaviour -- BTB/SBB warm-up and
fill, retired-bit priority flips under phase shifts -- so the collector
here cuts the cumulative counters into fixed windows of
``FrontEndConfig.interval_size`` retired records.  Window boundaries are
defined on the *record index*, which both execution paths (object
oracle loop, batched lane kernel) step identically, so the resulting
:class:`IntervalSeries` is bit-identical across engines and across
serial vs parallel harness runs.

Two invariants shape the implementation:

* ``SimStats.instructions/blocks/cycles`` are only assigned in the
  engine epilogue, so the engines *inject* their loop-local counted
  values and the running cycle mark at each boundary
  (:meth:`IntervalCollector.boundary`).
* Every other counter is cumulative and monotone, so per-window rows
  are exact telescoping differences -- column sums equal the aggregate
  counters exactly (the ``interval_conservation`` invariant).  Cycle
  deltas telescope exactly too: all clock arithmetic is in multiples of
  1/``backend_effective_width`` with power-of-two widths.

The collector accepts an optional ``state_probe`` callable sampled at
boundaries only; the divergence bisector uses it for rolling
microarchitectural occupancy hashes.  Probe results never enter the
serialized series.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.frontend.stats import SimStats

#: Bumped when the serialized series shape changes.
INTERVAL_SCHEMA_VERSION = 1

_SPARK_BARS = "▁▂▃▄▅▆▇█"

#: Below this a cycle delta is "no counted progress" (the engine clamps
#: an all-warmup run's cycles to 1e-9, not 0).
_ZERO = 1e-12


@dataclass
class IntervalSeries:
    """Columnar per-window counter deltas with a content fingerprint."""

    interval_size: int
    warmup: int
    ends: list[int] = field(default_factory=list)
    columns: dict[str, list[float]] = field(default_factory=dict)

    @property
    def windows(self) -> int:
        return len(self.ends)

    @property
    def starts(self) -> list[int]:
        """Window start record indices (derived: previous window's end)."""
        return [0] + self.ends[:-1]

    def column(self, name: str) -> list[float]:
        return self.columns.get(name, [0] * self.windows)

    def totals(self) -> dict[str, float]:
        """Column sums; equals the aggregate ``SimStats`` counters."""
        return {name: sum(values) for name, values in self.columns.items()}

    # -- serialization --------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "schema_version": INTERVAL_SCHEMA_VERSION,
            "interval_size": self.interval_size,
            "warmup": self.warmup,
            "ends": list(self.ends),
            "columns": {name: list(values)
                        for name, values in sorted(self.columns.items())},
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping) -> "IntervalSeries":
        version = payload.get("schema_version")
        if version != INTERVAL_SCHEMA_VERSION:
            raise ValueError(
                f"interval series schema {version!r} != "
                f"{INTERVAL_SCHEMA_VERSION}")
        return cls(interval_size=int(payload["interval_size"]),
                   warmup=int(payload["warmup"]),
                   ends=[int(end) for end in payload["ends"]],
                   columns={str(name): list(values)
                            for name, values in payload["columns"].items()})

    def to_json_text(self) -> str:
        """Canonical byte-stable serialization (fingerprint input)."""
        return json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(
            self.to_json_text().encode("utf-8")).hexdigest()[:16]

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    @classmethod
    def load(cls, path) -> "IntervalSeries":
        from pathlib import Path

        return cls.from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8")))

    # -- derived per-window metrics ------------------------------------

    def metric_names(self) -> list[str]:
        """Plottable derived metrics for this series."""
        names = ["ipc", "btb_miss_mpki", "rescue_rate"]
        names.extend(sorted(
            name.replace("resteer_causes.", "resteer:", 1)
            for name in self.columns if name.startswith("resteer_causes.")))
        return names

    def metric_series(self, metric: str) -> list[float]:
        """Per-window values of a derived metric or raw column."""
        if metric == "ipc":
            return [instr / cycles if cycles > _ZERO else 0.0
                    for instr, cycles in zip(self.column("instructions"),
                                             self.column("cycles"))]
        if metric == "btb_miss_mpki":
            misses = self._btb_miss_column()
            return [1000.0 * miss / instr if instr else 0.0
                    for miss, instr in zip(misses,
                                           self.column("instructions"))]
        if metric == "rescue_rate":
            hits = [u + r for u, r in zip(self.column("sbb_hits_u"),
                                          self.column("sbb_hits_r"))]
            return [hit / miss if miss else 0.0
                    for hit, miss in zip(hits, self._btb_miss_column())]
        if metric.startswith("resteer:"):
            return self.column("resteer_causes." + metric[len("resteer:"):])
        if metric in self.columns:
            return [float(value) for value in self.columns[metric]]
        raise KeyError(f"unknown interval metric {metric!r}; "
                       f"try one of {self.metric_names()}")

    def _btb_miss_column(self) -> list[float]:
        misses = [0.0] * self.windows
        for name, values in self.columns.items():
            if name.startswith("btb_misses."):
                misses = [total + value
                          for total, value in zip(misses, values)]
        return misses

    # -- rendering ------------------------------------------------------

    def render_markdown(self, metrics: Sequence[str] | None = None) -> str:
        """Markdown time-series table plus one sparkline per metric."""
        metrics = list(metrics or self.metric_names())
        series = {metric: self.metric_series(metric) for metric in metrics}
        lines = [f"interval_size={self.interval_size} "
                 f"warmup={self.warmup} windows={self.windows} "
                 f"fingerprint={self.fingerprint()}", ""]
        for metric in metrics:
            lines.append(f"    {metric:24s} {sparkline(series[metric])}")
        lines.append("")
        lines.append("| window | start | end | " + " | ".join(metrics) + " |")
        lines.append("|---" * (3 + len(metrics)) + "|")
        for index, (start, end) in enumerate(zip(self.starts, self.ends)):
            cells = [f"{series[metric][index]:.4g}" for metric in metrics]
            lines.append(f"| {index} | {start} | {end} | "
                         + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def sparkline(values: Sequence[float]) -> str:
    """Unicode block-bar rendering, scaled to the series maximum."""
    if not values:
        return ""
    top = max(values)
    if top <= _ZERO:
        return _SPARK_BARS[0] * len(values)
    scale = (len(_SPARK_BARS) - 1) / top
    return "".join(_SPARK_BARS[int(round(max(value, 0.0) * scale))]
                   for value in values)


def diff_series(a: IntervalSeries, b: IntervalSeries,
                ) -> list[tuple[int, str, float, float]]:
    """Per-window differences ``(window, column, a_value, b_value)``.

    Geometry differences (window count, boundary placement) surface as
    pseudo-columns ``~windows`` / ``~end``; columns absent on one side
    compare against zero.  Empty result means byte-identical content.
    """
    out: list[tuple[int, str, float, float]] = []
    if a.windows != b.windows:
        out.append((-1, "~windows", a.windows, b.windows))
    for index in range(min(a.windows, b.windows)):
        if a.ends[index] != b.ends[index]:
            out.append((index, "~end", a.ends[index], b.ends[index]))
    names = sorted(set(a.columns) | set(b.columns))
    for index in range(min(a.windows, b.windows)):
        for name in names:
            a_val = a.column(name)[index]
            b_val = b.column(name)[index]
            if a_val != b_val:
                out.append((index, name, a_val, b_val))
    return out


class IntervalCollector:
    """Accumulates per-window delta rows during a run.

    The engines call :meth:`boundary` when the record index crosses a
    multiple of ``interval_size`` and :meth:`finish` once before the
    epilogue; both inject the loop-local progress counters
    (``instructions``/``blocks``) and the running cycle mark, because
    ``SimStats`` only carries those after the epilogue.  Everything
    else is read from the cumulative stats object and differenced
    against the previous boundary's row.
    """

    def __init__(self, interval_size: int,
                 state_probe: Callable[[], object] | None = None):
        if interval_size < 0:
            raise ValueError("interval_size must be >= 0")
        self.interval_size = interval_size
        self.warmup = 0
        self.state_probe = state_probe
        self.rows: list[dict[str, float]] = []
        self.ends: list[int] = []
        self.state_marks: list[object] = []
        self._prev: dict[str, float] | None = None

    @property
    def windows(self) -> int:
        return len(self.ends)

    def boundary(self, end_index: int, stats: SimStats, instructions: int,
                 blocks: int, cycle_mark: float) -> None:
        """Cut a window ending at ``end_index`` (exclusive record index)."""
        row = stats.snapshot_row()
        row["instructions"] = instructions
        row["blocks"] = blocks
        row["cycles"] = cycle_mark
        prev = self._prev
        if prev is None:
            delta = dict(row)
        else:
            delta = {name: value - prev.get(name, 0)
                     for name, value in row.items()}
        self.rows.append(delta)
        self.ends.append(end_index)
        self._prev = row
        if self.state_probe is not None:
            self.state_marks.append(self.state_probe())

    def finish(self, end_index: int, stats: SimStats, instructions: int,
               blocks: int, cycle_mark: float) -> None:
        """Emit the final partial window, if any records remain.

        A trace whose length is an exact multiple of the window size
        already cut its last window in the loop; a trace shorter than
        one window gets exactly one window here.
        """
        if end_index and (not self.ends or end_index > self.ends[-1]):
            self.boundary(end_index, stats, instructions, blocks, cycle_mark)

    def series(self) -> IntervalSeries:
        """Freeze into a columnar series (key union, zeros backfilled)."""
        names: set[str] = set()
        for row in self.rows:
            names.update(row)
        columns = {name: [row.get(name, 0) for row in self.rows]
                   for name in sorted(names)}
        return IntervalSeries(interval_size=self.interval_size,
                              warmup=self.warmup, ends=list(self.ends),
                              columns=columns)

    def snapshot(self) -> dict[str, float]:
        """``intervals.*`` keys for metric snapshots.

        ``intervals.windows`` plus one ``intervals.<column>`` total per
        counter -- the flat form the ``interval_conservation`` invariant
        checks against the matching ``sim.<column>`` aggregates.
        """
        series = self.series()
        out: dict[str, float] = {"intervals.windows": series.windows,
                                 "intervals.interval_size":
                                     series.interval_size}
        for name, total in series.totals().items():
            out[f"intervals.{name}"] = total
        return out
