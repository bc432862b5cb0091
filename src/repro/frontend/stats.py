"""Simulation statistics.

Every counter the paper's figures need, collected in one place.  The
simulator increments raw counters; derived metrics (IPC, MPKI, reduction
percentages) are computed on demand so tests can assert exact counter
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.isa.branch import BranchKind


def _kind_counter() -> dict[BranchKind, int]:
    return {kind: 0 for kind in BranchKind if kind.is_branch}


@dataclass
class SimStats:
    """Counters for one simulation run (post-warm-up region only)."""

    # Progress.
    instructions: int = 0
    blocks: int = 0
    cycles: float = 0.0

    # Dynamic branch mix.
    branches: dict[BranchKind, int] = field(default_factory=_kind_counter)
    taken_branches: int = 0

    # BTB.
    btb_lookups: int = 0
    btb_misses: dict[BranchKind, int] = field(default_factory=_kind_counter)
    btb_miss_l1i_hit: int = 0
    btb_false_hits: int = 0

    # Instruction cache hierarchy.
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    wrong_path_fills: int = 0
    fetch_stall_cycles: float = 0.0

    # Predictors.
    cond_predictions: int = 0
    cond_mispredicts: int = 0
    indirect_predictions: int = 0
    indirect_mispredicts: int = 0
    ras_predictions: int = 0
    ras_mispredicts: int = 0
    ras_underflows: int = 0

    # Resteers.
    decode_resteers: int = 0
    exec_resteers: int = 0
    decoder_idle_cycles: float = 0.0
    # Per-cause attribution; causes partition decode+exec resteers.
    resteer_causes: dict[str, int] = field(default_factory=dict)

    # Related-work comparators.
    comparator_hits: int = 0

    # Skia.
    sbb_lookups: int = 0
    sbb_misses: int = 0
    sbd_head_decodes: int = 0
    sbd_tail_decodes: int = 0
    sbd_head_discarded: int = 0
    sbb_insertions_u: int = 0
    sbb_insertions_r: int = 0
    sbb_bogus_insertions: int = 0
    sbb_hits_u: int = 0
    sbb_hits_r: int = 0
    sbb_wrong_target: int = 0
    sbb_retired_marks: int = 0

    # ------------------------------------------------------------------
    # Interval telemetry (repro.obs.intervals)
    # ------------------------------------------------------------------

    def snapshot_row(self) -> dict[str, float]:
        """Cumulative counters as one flat ``{name: value}`` row.

        Dict-valued fields flatten to ``<field>.<key>`` (enum keys use
        their ``.value``).  The key set only ever grows within a run
        (``resteer_causes`` gains keys as causes first fire), which is
        what lets :meth:`delta` treat a missing previous key as zero.
        """
        row: dict[str, float] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, dict):
                for key, count in value.items():
                    name = key.value if isinstance(key, BranchKind) else key
                    row[f"{spec.name}.{name}"] = count
            else:
                row[spec.name] = value
        return row

    def delta(self, prev: dict[str, float] | None) -> dict[str, float]:
        """Counter advance since ``prev`` (a :meth:`snapshot_row` dict).

        Every counter is monotone within a run, so the difference of two
        cumulative rows is exact; ``prev=None`` means "since reset".
        """
        row = self.snapshot_row()
        if not prev:
            return row
        return {name: value - prev.get(name, 0) for name, value in row.items()}

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mpki(self, events: float) -> float:
        """Events per kilo-instruction."""
        return 1000.0 * events / self.instructions if self.instructions else 0.0

    @property
    def total_btb_misses(self) -> int:
        return sum(self.btb_misses.values())

    @property
    def btb_miss_mpki(self) -> float:
        return self.mpki(self.total_btb_misses)

    @property
    def btb_miss_l1i_hit_mpki(self) -> float:
        return self.mpki(self.btb_miss_l1i_hit)

    @property
    def btb_miss_l1i_hit_fraction(self) -> float:
        total = self.total_btb_misses
        return self.btb_miss_l1i_hit / total if total else 0.0

    @property
    def l1i_mpki(self) -> float:
        return self.mpki(self.l1i_misses)

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_predictions:
            return 1.0
        return 1.0 - self.cond_mispredicts / self.cond_predictions

    @property
    def total_sbb_insertions(self) -> int:
        return self.sbb_insertions_u + self.sbb_insertions_r

    @property
    def total_sbb_hits(self) -> int:
        return self.sbb_hits_u + self.sbb_hits_r

    @property
    def bogus_insertion_rate(self) -> float:
        """Bogus insertions relative to total SBB insertions (S3.2.2)."""
        total = self.total_sbb_insertions
        return self.sbb_bogus_insertions / total if total else 0.0

    def btb_miss_breakdown(self) -> dict[str, float]:
        """Per-kind fractions of all BTB misses (Figure 6)."""
        total = self.total_btb_misses
        if not total:
            return {kind.value: 0.0 for kind in self.btb_misses}
        return {kind.value: count / total
                for kind, count in self.btb_misses.items()}

    def summary(self) -> dict[str, float]:
        """Flat metric dict used by reports and regression tests."""
        return {
            "instructions": self.instructions,
            "blocks": self.blocks,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l1i_mpki": self.l1i_mpki,
            "btb_miss_mpki": self.btb_miss_mpki,
            "btb_miss_l1i_hit_mpki": self.btb_miss_l1i_hit_mpki,
            "btb_miss_l1i_hit_fraction": self.btb_miss_l1i_hit_fraction,
            "cond_accuracy": self.cond_accuracy,
            "decode_resteers": self.decode_resteers,
            "exec_resteers": self.exec_resteers,
            "decoder_idle_cycles": self.decoder_idle_cycles,
            "sbb_hits": self.total_sbb_hits,
            "sbb_insertions": self.total_sbb_insertions,
            "bogus_insertion_rate": self.bogus_insertion_rate,
        }
