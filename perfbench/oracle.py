"""Oracle reference digests, and the check of a run against them.

The reference for a (workload, seed) holds, per cell, the SHA-256 of
its ``SimStats`` and of its metric snapshot, plus each trace's
``CompiledTrace`` fingerprint.  It is produced by the object oracle,
``FrontEndSimulator.run`` over materialised records -- not by the
batched kernel the timed runs use -- so a check against it is also a
kernel-vs-oracle identity check.  The oracle runs with fast-forward off
(``REPRO_FASTFORWARD=0``): it steps every record, so a fast-forward bug
that the kernel shares cannot hide in the reference.

The reference for the default seed is committed in ``reference.json``.
A change that alters simulated results on purpose regenerates it::

    python3 perfbench/oracle.py --write

For any other seed, ``run.py`` computes the reference untimed, before
timing, with ``--workload W --seed N --shard K/N`` in parallel shards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import common


@contextmanager
def fastforward_off():
    """Step every record: ``REPRO_FASTFORWARD=0`` for the duration."""
    previous = os.environ.get("REPRO_FASTFORWARD")
    os.environ["REPRO_FASTFORWARD"] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_FASTFORWARD"]
        else:
            os.environ["REPRO_FASTFORWARD"] = previous


def compute_reference(workload_name: str, seed: int, shard: int = 0,
                      shards: int = 1) -> dict:
    """Run the object oracle, fast-forward off, over every ``shards``-th
    cell of one workload, starting at ``shard``; fingerprints cover those
    cells' traces."""
    with fastforward_off():
        return _reference(workload_name, seed, shard, shards)


def _reference(workload_name: str, seed: int, shard: int,
               shards: int) -> dict:
    from repro.frontend.engine import FrontEndSimulator

    from workloads import RECORDS, WARMUP, WORKLOADS, BenchCache

    cache = BenchCache(trace_seed=seed)
    cells, fingerprints = {}, {}
    for cell in WORKLOADS[workload_name].cells[shard::shards]:
        program = cache.program(cell.workload, seed=seed)
        records = cache.trace(cell.workload, RECORDS, seed=seed)
        fingerprints[cell.workload] = cache.compiled(
            cell.workload, RECORDS, seed=seed).fingerprint
        simulator = FrontEndSimulator(program, cell.config, seed=seed)
        if cell.attribution:
            simulator.attach_attribution()
        stats = simulator.run(records, warmup=WARMUP)
        cells[cell.cell_id] = common.cell_digests(
            stats, simulator.metrics_snapshot())
    return {"cells": cells, "fingerprints": fingerprints}


def merge(parts: list[dict]) -> dict:
    """One reference from the references of disjoint cell shards."""
    return {key: {name: value for part in parts
                  for name, value in part[key].items()}
            for key in ("cells", "fingerprints")}


def load_committed(workload_name: str) -> dict:
    """The committed default-seed reference of one workload."""
    return json.loads(common.REFERENCE.read_text())[workload_name]


def failures(reference: dict, observed: dict) -> dict[str, str]:
    """``{cell_id: reason}`` for every cell of ``reference`` that failed.

    ``observed`` is one run's report: ``cells`` maps cell id to its
    digests plus ``violations`` (names of failed invariants), ``error``
    is set when the run raised, ``fingerprints`` maps trace to its
    ``CompiledTrace`` fingerprint.  A cell fails if the run raised, if
    it is missing, if any invariant fails, if either digest differs, or
    if its trace's fingerprint differs.
    """
    failed = {}
    bad_traces = {trace for trace, fingerprint
                  in reference["fingerprints"].items()
                  if observed.get("fingerprints", {}).get(trace)
                  != fingerprint}
    for cell_id, expected in reference["cells"].items():
        got = observed.get("cells", {}).get(cell_id)
        if observed.get("error"):
            failed[cell_id] = f"run raised: {observed['error']}"
        elif got is None:
            failed[cell_id] = "missing"
        elif got.get("violations"):
            failed[cell_id] = "invariants: " + ", ".join(got["violations"])
        elif cell_id.split("/")[0] in bad_traces:
            failed[cell_id] = "trace fingerprint differs from the oracle's"
        else:
            for part in ("stats", "metrics"):
                if got.get(part) != expected[part]:
                    failed[cell_id] = f"{part} digest differs from the oracle's"
                    break
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate reference.json for the default "
                             "seed, all workloads")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--shard", default="0/1", metavar="K/N",
                        help="compute only every N-th cell, from the K-th; "
                             "prints the reference as its last line")
    args = parser.parse_args(argv)
    common.setup()
    from workloads import WORKLOADS

    if args.write:
        payload = {name: compute_reference(name, common.DEFAULT_SEED)
                   for name in WORKLOADS}
        common.REFERENCE.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {common.REFERENCE}")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("give --write, or --workload and --seed")
    shard, shards = (int(part) for part in args.shard.split("/"))
    common.emit(compute_reference(args.workload, args.seed, shard, shards))
    return 0


if __name__ == "__main__":
    sys.exit(main())
