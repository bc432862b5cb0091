"""Bit-identity of the record adapter against the harness's compiled traces.

``FrontEndSimulator.run`` lowers its records with
``CompiledTrace.from_records(records, line_sizes=())`` -- no decode
table, line columns derived lazily -- and replays them on
``run_compiled``, the one oracle loop.  The harness instead replays
traces compiled once per workload, with precomputed line columns,
shared across processes.  The contract: for any cell of the Figure-14
grid both feeds produce the same ``SimStats``, the same metric snapshot,
the same event stream and a byte-for-byte identical attribution
artifact -- and the harness's serial and zero-copy parallel runs match
the adapter cell for cell.
"""

import dataclasses
import json

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.scale import Scale
from repro.obs import EventTrace
from repro.workloads import WORKLOAD_NAMES, build_program, build_trace
from repro.workloads.cache import build_compiled_trace

RECORDS = 1_000
WARMUP = 150

#: The four Figure-14 configurations: FDIP baseline, Skia with only one
#: shadow-branch half enabled, and full Skia.
CONFIGS = {
    "base": FrontEndConfig(),
    "head": FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
    "tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
    "both": FrontEndConfig(skia=SkiaConfig()),
}


def _observed(program, config, replay):
    simulator = FrontEndSimulator(program, config, seed=0)
    trace = EventTrace()
    simulator.attach_trace(trace)
    aggregator = simulator.attach_attribution()
    stats = replay(simulator)
    artifact = json.dumps(aggregator.to_jsonable(), sort_keys=True).encode()
    return (dataclasses.asdict(stats), simulator.metrics_snapshot(),
            trace.events(), artifact)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_bit_identity(workload):
    """Every (workload, config) cell: ``run(records)`` == ``run_compiled``
    over the harness's compiled trace."""
    program = build_program(workload, seed=0)
    records = build_trace(workload, RECORDS, seed=0)
    compiled = build_compiled_trace(workload, RECORDS, seed=0)
    for name, config in CONFIGS.items():
        expect = _observed(program, config,
                           lambda s: s.run(records, warmup=WARMUP))
        got = _observed(program, config,
                        lambda s: s.run_compiled(compiled, warmup=WARMUP))
        for part, want, have in zip(
                ("stats", "metrics", "events", "attribution"), expect, got):
            assert have == want, (workload, name, part)


class TestHarnessPaths:
    """The runner plumbing keeps the identity end to end."""

    SCALE = Scale("equiv", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, 0, False)
             for workload in WORKLOAD_NAMES[:2]
             for config in CONFIGS.values()]

    def _object_path_stats(self):
        reference = []
        for cell in self.CELLS:
            simulator = FrontEndSimulator(
                build_program(cell.workload, seed=0), cell.config, seed=0)
            reference.append(simulator.run(
                build_trace(cell.workload, RECORDS, seed=0), warmup=WARMUP))
        return reference

    def test_serial_compiled_matches_object_path(self):
        reference = self._object_path_stats()
        runner = ParallelRunner(scale=self.SCALE, jobs=1, store=None)
        compiled = runner.run_batch(self.CELLS)
        for expect, got, cell in zip(reference, compiled, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_parallel_zero_copy_matches_object_path(self):
        reference = self._object_path_stats()
        runner = ParallelRunner(scale=self.SCALE, jobs=2, store=None)
        compiled = runner.run_batch(self.CELLS)
        for expect, got, cell in zip(reference, compiled, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell
