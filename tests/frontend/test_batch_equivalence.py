"""Bit-identity of the batched lane kernel against the object path.

The batched kernel (:mod:`repro.frontend.batch`) re-implements the
replay loop with inlined structures and chunk-local counters; the object
path (``FrontEndSimulator.run``) stays the oracle.  These tests pin the
contract: for every cell of the Figure-14 grid, the kernel's
``SimStats`` *and* metric snapshot (structure counters, cache gauges,
SBB/RAS/predictor state) are bit-identical to the object path -- across
seeds, with and without numpy, through lane sharing, and through the
harness plumbing that routes cells onto the kernel.
"""

import dataclasses

import pytest

import repro.workloads.compiled as compiled_mod
from repro.frontend import batch as batch_mod
from repro.frontend.batch import (
    BatchedFrontEndSimulator,
    BatchUnsupported,
    batch_supported,
    run_compiled_batched,
)
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs import EventTrace
from repro.obs.profiler import SectionProfiler
from repro.workloads import (
    WORKLOAD_NAMES,
    build_program,
    build_trace,
    compile_trace,
)

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


def _object_run(program, records, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = simulator.run(records, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


def _batched_run(program, compiled, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = run_compiled_batched(simulator, compiled, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_bit_identity(workload):
    """Every (workload, config) cell: object path == batched kernel."""
    program = build_program(workload, seed=0)
    records = build_trace(workload, RECORDS, seed=0)
    compiled = compile_trace(records)
    for name, config in CONFIGS.items():
        obj_stats, obj_metrics = _object_run(program, records, config)
        bat_stats, bat_metrics = _batched_run(program, compiled, config)
        assert bat_stats == obj_stats, (workload, name)
        assert bat_metrics == obj_metrics, (workload, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sweep_bit_identity(seed):
    """Seeds beyond the grid default stay bit-identical too."""
    for workload in ("voter", "kafka"):
        program = build_program(workload, seed=seed)
        records = build_trace(workload, RECORDS, seed=seed)
        compiled = compile_trace(records)
        for name, config in CONFIGS.items():
            assert (_batched_run(program, compiled, config, seed=seed)
                    == _object_run(program, records, config, seed=seed)), \
                (workload, name, seed)


def test_lane_sharing_matches_independent_runs():
    """N lanes over one shared table == N independent kernel runs."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    compiled = compile_trace(records)
    batch = BatchedFrontEndSimulator(chunk_records=257)  # force many chunks
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in CONFIGS.values()]
    for simulator in simulators:
        batch.add_lane(simulator, compiled, warmup=WARMUP)
    shared = batch.run()
    for simulator, stats, (name, config) in zip(simulators, shared,
                                                CONFIGS.items()):
        expect_stats, expect_metrics = _object_run(program, records, config)
        assert dataclasses.asdict(stats) == expect_stats, name
        assert simulator.metrics_snapshot() == expect_metrics, name


#: One non-default value per predictor-key input, plus the RAS depth,
#: which lanes may vary while still sharing a column.
_LANE_VARIANTS = {
    "tage_table_bits": 10,
    "tage_tag_bits": 7,
    "tage_history_lengths": (3, 9, 27),
    "ittage_table_bits": 8,
    "use_loop_predictor": False,
    "loop_predictor_entries": 64,
    "ras_depth": 8,
}


@pytest.mark.parametrize("knob", [*_LANE_VARIANTS, "seed"])
def test_predictor_column_keyed_by_every_knob(knob, monkeypatch):
    """Two lanes that differ in one predictor knob (or the seed) get
    their own columns; lanes differing only in RAS depth share one."""
    profiler = SectionProfiler(enabled=True)
    monkeypatch.setattr(batch_mod, "PROFILER", profiler)
    program = build_program("voter", seed=0)
    compiled = compile_trace(build_trace("voter", RECORDS, seed=0))
    base = FrontEndConfig()
    other, other_seed = base, 0
    if knob == "seed":
        other_seed = 1
    else:
        other = dataclasses.replace(base, **{knob: _LANE_VARIANTS[knob]})
    batch = BatchedFrontEndSimulator()
    batch.add_lane(FrontEndSimulator(program, base, seed=0), compiled)
    batch.add_lane(FrontEndSimulator(program, other, seed=other_seed),
                   compiled)
    builds = profiler.stats()["trace.predictor_columns"].calls
    assert builds == (1 if knob == "ras_depth" else 2)


class TestEdgeCases:
    CONFIG = FrontEndConfig(skia=SkiaConfig())

    def _both_paths(self, records, warmup):
        program = build_program("voter", seed=0)
        compiled = compile_trace(records)
        return (_object_run(program, records, self.CONFIG, warmup=warmup),
                _batched_run(program, compiled, self.CONFIG, warmup=warmup))

    def test_empty_trace(self):
        obj, bat = self._both_paths([], warmup=0)
        assert bat == obj

    def test_single_record_trace(self):
        records = build_trace("voter", 1, seed=0)
        obj, bat = self._both_paths(records, warmup=0)
        assert bat == obj

    def test_warmup_exceeds_trace_length(self):
        records = build_trace("voter", 50, seed=0)
        obj, bat = self._both_paths(records, warmup=500)
        assert bat == obj

    def test_warmup_equals_trace_length(self):
        records = build_trace("voter", 50, seed=0)
        obj, bat = self._both_paths(records, warmup=50)
        assert bat == obj

    def test_warmup_boundary_mid_chunk(self):
        """The advance() warmup split, exercised inside one chunk."""
        program = build_program("voter", seed=0)
        records = build_trace("voter", 300, seed=0)
        compiled = compile_trace(records)
        simulator = FrontEndSimulator(program, self.CONFIG, seed=0)
        batch = BatchedFrontEndSimulator(chunk_records=128)
        batch.add_lane(simulator, compiled, warmup=200)
        stats = batch.run()[0]
        expect_stats, expect_metrics = _object_run(
            program, records, self.CONFIG, warmup=200)
        assert dataclasses.asdict(stats) == expect_stats
        assert simulator.metrics_snapshot() == expect_metrics


def test_numpy_absent_fallback(monkeypatch):
    """Pure-Python row derivation is bit-identical to the numpy path."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    expected = {
        name: _object_run(program, records, config)
        for name, config in CONFIGS.items()
    }
    monkeypatch.setattr(compiled_mod, "_np", None)
    compiled = compile_trace(records)  # fresh tables, built without numpy
    for name, config in CONFIGS.items():
        assert _batched_run(program, compiled, config) == expected[name], \
            name


class TestSupportGating:
    """Lanes the kernel cannot replicate exactly are refused."""

    def _simulator(self):
        program = build_program("voter", seed=0)
        return FrontEndSimulator(program, FrontEndConfig(), seed=0)

    def test_plain_simulator_is_supported(self):
        assert batch_supported(self._simulator())

    def test_event_trace_unsupported(self):
        simulator = self._simulator()
        simulator.attach_trace(EventTrace())
        assert not batch_supported(simulator)

    def test_attribution_unsupported(self):
        simulator = self._simulator()
        simulator.attach_attribution()
        assert not batch_supported(simulator)

    def test_add_lane_raises_on_unsupported(self):
        simulator = self._simulator()
        simulator.attach_attribution()
        compiled = compile_trace(build_trace("voter", 10, seed=0))
        batch = BatchedFrontEndSimulator()
        with pytest.raises(BatchUnsupported):
            batch.add_lane(simulator, compiled, warmup=0)


class TestHarnessPaths:
    """REPRO_BATCH routing keeps serial/parallel results bit-identical."""

    SCALE = Scale("batchequiv", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, seed, False)
             for workload in WORKLOAD_NAMES[:2]
             for config in CONFIGS.values()
             for seed in (0, 1)]

    def _reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        try:
            runner = ParallelRunner(scale=self.SCALE, jobs=1, store=None)
            return runner.run_batch(self.CELLS)
        finally:
            monkeypatch.delenv("REPRO_BATCH")

    def test_serial_batched_matches_object_path(self, monkeypatch):
        reference = self._reference(monkeypatch)
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        batched = runner.run_cells(self.CELLS)
        for expect, got, cell in zip(reference, batched, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_worker_batched_matches_object_path(self, monkeypatch):
        reference = self._reference(monkeypatch)
        runner = ParallelRunner(scale=self.SCALE, jobs=2, store=None)
        batched = runner.run_batch(self.CELLS)
        for expect, got, cell in zip(reference, batched, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_attribution_falls_back_to_object_path(self, tmp_path):
        """record_attribution cells bypass the kernel but still succeed."""
        runner = ExperimentRunner(scale=self.SCALE, store=None,
                                  record_attribution=True)
        stats, aggregator = runner.run_with_attribution(
            "voter", FrontEndConfig(skia=SkiaConfig()))
        assert stats.blocks > 0
        assert aggregator is not None
