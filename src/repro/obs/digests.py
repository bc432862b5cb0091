"""Structure occupancy digests (used by the divergence bisector)."""

from __future__ import annotations

import hashlib

__all__ = ["state_digest"]


def state_digest(simulator) -> str:
    """Rolling occupancy hash of the simulator's stateful structures.

    Covers BTB residency (per-set, in LRU order), L1-I residency, both
    SBB halves and the RAS contents -- enough that two runs whose
    counters happen to agree but whose microarchitectural state drifted
    still produce differing window digests.  Deterministic across
    processes: only ints and Nones are hashed.
    """
    btb = simulator.bpu.btb
    parts: list[object] = []
    if btb.infinite:
        parts.append(("btb", tuple(sorted(btb._full))))
    else:
        parts.append(("btb", tuple(tuple(s) for s in btb._sets)))
    l1i = simulator.hierarchy.l1i
    parts.append(("l1i", tuple(tuple(s) for s in l1i._sets)))
    ras = simulator.bpu.ras
    parts.append(("ras", tuple(ras._buffer), ras._top))
    if simulator.skia is not None:
        sbb = simulator.skia.sbb
        parts.append(("usbb", tuple(tuple(s) for s in sbb.usbb._sets)))
        parts.append(("rsbb", tuple(tuple(s) for s in sbb.rsbb._sets)))
    return hashlib.sha256(repr(parts).encode("ascii")).hexdigest()[:16]
