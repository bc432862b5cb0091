"""One timed, cold exhibit run of a workload (a child of ``run.py``).

Runs in a fresh process: a fresh ``ExperimentRunner`` with ``jobs=1``, a
private empty ``ResultStore`` under ``--store``, a fresh workload cache,
no ``REPRO_*`` switch set.  Times the exhibit (set-up, simulation, store
writes and render), and inside it the set-up calls and the simulation
calls; times the host's calibration loop just before and just after
the exhibit; then -- untimed -- collects every cell's digests and
invariant violations.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import traceback

import common


class SimulationTimer:
    """Times the simulation calls the runner makes, by wrapping them on
    their classes: ``BatchedFrontEndSimulator.add_lane`` (lane set-up,
    fast-forward planning) and ``.run``, and
    ``FrontEndSimulator.run_compiled`` (the object engine).  Outermost
    calls only, so no time is counted twice."""

    def __init__(self):
        from repro.frontend.batch import BatchedFrontEndSimulator
        from repro.frontend.engine import FrontEndSimulator

        self.seconds = 0.0
        self._depth = 0
        for cls, name in ((BatchedFrontEndSimulator, "add_lane"),
                          (BatchedFrontEndSimulator, "run"),
                          (FrontEndSimulator, "run_compiled")):
            setattr(cls, name, self._wrap(getattr(cls, name)))

    def _wrap(self, method):
        def timed(*args, **kwargs):
            self._depth += 1
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += time.perf_counter() - started
        return timed


def observe(runner, cache, workload, seed: int) -> dict:
    """Digests, invariant violations and trace fingerprints of a run."""
    from repro.obs.invariants import check_snapshot

    from workloads import RECORDS

    cells = {}
    for cell in workload.cells:
        stats = runner.run(cell.workload, cell.config)
        metrics = runner.metrics_for(cell.workload, cell.config)
        entry = common.cell_digests(stats, metrics)
        entry["violations"] = [v.invariant for v in check_snapshot(metrics)]
        cells[cell.cell_id] = entry
    fingerprints = {trace: cache.compiled(trace, RECORDS, seed=seed)
                    .fingerprint for trace in workload.traces}
    return {"cells": cells, "fingerprints": fingerprints}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True,
                        help="empty directory for the private result store")
    args = parser.parse_args(argv)
    common.setup()
    from repro.harness.runner import ExperimentRunner
    from repro.harness.store import ResultStore

    from workloads import SCALE, WORKLOADS, BenchCache

    workload = WORKLOADS[args.workload]
    simulation = SimulationTimer()
    calibration_before = common.calibrate()
    started = time.perf_counter()
    cache = BenchCache(trace_seed=args.seed)
    runner = ExperimentRunner(scale=SCALE, seed=args.seed, cache=cache,
                              store=ResultStore(args.store), jobs=1)
    try:
        workload.exhibit(runner)
    except Exception as exc:  # reported as failed cells, not a crash
        traceback.print_exc()
        common.emit({"error": f"{type(exc).__name__}: {exc}"})
        return 0
    wall_s = time.perf_counter() - started
    calibration_s = (calibration_before + common.calibrate()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = observe(runner, cache, workload, args.seed)
    report.update(wall_s=wall_s, setup_s=cache.setup_s, peak_rss_mb=rss_mb,
                  simulate_s=simulation.seconds,
                  calibration_s=calibration_s,
                  lane_records=workload.lane_records)
    common.emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
