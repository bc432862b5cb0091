"""Comparator cells on the batched lane kernel, plus fallback telemetry.

PR-6 made plain cells ~4x faster via the batched kernel but refused any
cell with a comparator attached, so comparator sweeps silently ran on
the slow object path.  These tests pin the new contract:

* every registered comparator design runs on the kernel bit-identically
  to the object-path oracle (SimStats *and* metric snapshot), alone and
  stacked with Skia;
* the harness routes comparator grids onto the kernel in both serial
  and parallel modes without changing a single counter;
* cells that *do* degrade to the object path (trace/timeline/
  attribution) are counted, logged once per reason, and named in the
  run ledger -- never silently, and never in the simulated snapshot.
"""

import dataclasses
import logging

import pytest

from repro.frontend import batch
from repro.frontend.batch import (
    BatchedFrontEndSimulator,
    batch_supported,
    batch_unsupported_reason,
    fallback_counts,
    reset_fallbacks,
    run_compiled_batched,
)
from repro.frontend.comparators import COMPARATOR_NAMES
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.experiments import _zoo_configs
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.harness.store import ResultStore
from repro.obs import ledger as ledger_mod
from repro.obs.profiler import SectionProfiler
from repro.workloads import build_program, build_trace, compile_trace

RECORDS = 1_000
WARMUP = 150

#: A small BTB creates the capacity re-misses the comparators cover, so
#: their hooks (lookup/record/on_btb_miss) actually fire in these runs.
_SMALL_BTB = FrontEndConfig().with_btb_entries(256)

#: Every design alone, one stacked with Skia, and a deeper FDIP point.
COMPARATOR_CONFIGS = {
    **{name: _SMALL_BTB.with_comparator(name) for name in COMPARATOR_NAMES},
    "fdip-depth4": _SMALL_BTB.with_fdip_depth(4),
    "airbtb+skia": _SMALL_BTB.with_comparator("airbtb").with_skia(
        SkiaConfig()),
}


def _object_run(program, records, config, seed=0):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = simulator.run(records, warmup=WARMUP)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


def _batched_run(program, compiled, config, seed=0):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = run_compiled_batched(simulator, compiled, warmup=WARMUP)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


@pytest.mark.parametrize("name", sorted(COMPARATOR_CONFIGS))
def test_comparator_cell_bit_identity(name):
    """Object path == batched kernel for every comparator design."""
    config = COMPARATOR_CONFIGS[name]
    for workload in ("voter", "kafka"):
        program = build_program(workload, seed=0)
        records = build_trace(workload, RECORDS, seed=0)
        compiled = compile_trace(records)
        obj_stats, obj_metrics = _object_run(program, records, config)
        bat_stats, bat_metrics = _batched_run(program, compiled, config)
        assert bat_stats == obj_stats, (workload, name)
        assert bat_metrics == obj_metrics, (workload, name)


def test_comparator_hooks_fire_on_kernel():
    """The equivalence above is not vacuous: the kernel actually drives
    the comparator (probes on BTB misses, predecodes, demand hits)."""
    program = build_program("voter", seed=0)
    compiled = compile_trace(build_trace("voter", RECORDS, seed=0))
    simulator = FrontEndSimulator(program, _SMALL_BTB.with_fdip_depth(2),
                                  seed=0)
    run_compiled_batched(simulator, compiled, warmup=WARMUP)
    metrics = simulator.metrics_snapshot()
    assert metrics["comparator.lookups"] > 0
    assert metrics["comparator.predecodes"] > 0
    assert metrics["comparator.hits"] > 0


def test_comparator_lane_sharing():
    """All designs as lanes over one shared compiled table."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    compiled = compile_trace(records)
    shared = BatchedFrontEndSimulator(chunk_records=257)
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in COMPARATOR_CONFIGS.values()]
    for simulator in simulators:
        shared.add_lane(simulator, compiled, warmup=WARMUP)
    results = shared.run()
    for simulator, stats, (name, config) in zip(simulators, results,
                                                COMPARATOR_CONFIGS.items()):
        expect_stats, expect_metrics = _object_run(program, records, config)
        assert dataclasses.asdict(stats) == expect_stats, name
        assert simulator.metrics_snapshot() == expect_metrics, name


def test_zoo_group_builds_one_predictor_column(monkeypatch):
    """The ten comparator-zoo designs share one predictor config, so a
    lane group over one trace replays the predictors once, not ten
    times, and every lane still matches its oracle."""
    profiler = SectionProfiler(enabled=True)
    monkeypatch.setattr(batch, "PROFILER", profiler)
    program = build_program("kafka", seed=0)
    records = build_trace("kafka", RECORDS, seed=0)
    compiled = compile_trace(records)
    configs = list(_zoo_configs(FrontEndConfig()).values())
    assert len(configs) == 10
    group = BatchedFrontEndSimulator()
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in configs]
    for simulator in simulators:
        group.add_lane(simulator, compiled, warmup=WARMUP)
    assert profiler.stats()["trace.predictor_columns"].calls == 1
    for simulator, stats, config in zip(simulators, group.run(), configs):
        assert (dataclasses.asdict(stats), simulator.metrics_snapshot()) \
            == _object_run(program, records, config)
    assert profiler.stats()["trace.predictor_columns"].calls == 1


def test_add_lane_refuses_trained_predictors():
    """A lane replays predictor outcomes from fresh predictors, so a
    simulator that already replayed records -- on the oracle, which
    trains its predictors, or on the kernel, which leaves them
    untrained but would restart the column -- is refused."""
    program = build_program("kafka", seed=0)
    compiled = compile_trace(build_trace("kafka", RECORDS, seed=0))
    oracle = FrontEndSimulator(program, FrontEndConfig(), seed=0)
    oracle.run_compiled(compiled, warmup=WARMUP)
    kernel = FrontEndSimulator(program, FrontEndConfig(), seed=0)
    run_compiled_batched(kernel, compiled, warmup=WARMUP)
    assert kernel.bpu.tage.predictions == 0
    for simulator in (oracle, kernel):
        assert not batch_supported(simulator)
        with pytest.raises(ValueError, match="already trained"):
            BatchedFrontEndSimulator().add_lane(simulator, compiled)


def test_comparator_cells_are_batch_supported():
    """The PR-6 refusal is gone: a comparator alone never forces the
    object path (only trace/timeline/attribution instrumentation does)."""
    program = build_program("voter", seed=0)
    for name, config in COMPARATOR_CONFIGS.items():
        simulator = FrontEndSimulator(program, config, seed=0)
        assert batch_unsupported_reason(simulator) is None, name
        assert batch_supported(simulator), name


class TestHarnessPaths:
    """Comparator grids stay bit-identical through the harness routing."""

    SCALE = Scale("comparatorbatch", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, seed, False)
             for workload in ("voter", "kafka")
             for config in COMPARATOR_CONFIGS.values()
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


class TestFallbackObservability:
    """The object-path fallback is counted, logged once per reason and
    recorded in the run ledger, but kept out of metric snapshots."""

    SCALE = Scale("fallbackobs", records=200, warmup=50)

    @pytest.fixture(autouse=True)
    def _clean_counters(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        reset_fallbacks()
        yield
        reset_fallbacks()

    def test_supported_cells_never_trip_the_fallback(self):
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        cells = [Cell("voter", config, 0, False)
                 for config in (FrontEndConfig(),
                                _SMALL_BTB.with_comparator("microbtb"),
                                FrontEndConfig(skia=SkiaConfig()))]
        runner.run_cells(cells)
        assert fallback_counts() == {}

    def test_attribution_cell_counts_and_gauges(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        config = FrontEndConfig(skia=SkiaConfig())
        with ledger_mod.start_run("fallback", root=tmp_path) as ledger:
            runner = ExperimentRunner(scale=self.SCALE, store=None,
                                      record_attribution=True)
            runner.run("voter", config)
            run_dir = ledger.run_dir
        counts = fallback_counts()
        assert counts.get("attribution sink attached") == 1
        # The reason is a host fact: it reaches the ledger, never the
        # simulated metric snapshot.
        metrics = runner.metrics_for("voter", config)
        assert "batch.object_path_fallback" not in metrics
        summary = ledger_mod.summarize(
            ledger_mod.read_manifest(run_dir / "manifest.jsonl"), run_dir)
        [state] = summary.cells.values()
        assert state.fields["mode"] == "object"
        assert state.fields["fallback_reason"] == "attribution sink attached"

    def test_attribution_backfill_keeps_stored_snapshot_clean(self,
                                                              tmp_path):
        # The store key ignores attribution, so an attribution run that
        # backfills a plain entry rewrites its snapshot; the next plain
        # run must not read a fallback gauge out of it.
        store = ResultStore(tmp_path / "store")
        config = FrontEndConfig(skia=SkiaConfig())
        ExperimentRunner(scale=self.SCALE, store=store).run("voter", config)
        ExperimentRunner(scale=self.SCALE, store=store,
                         record_attribution=True).run("voter", config)
        assert fallback_counts() == {"attribution sink attached": 1}
        runner = ExperimentRunner(scale=self.SCALE, store=store)
        runner.run("voter", config)
        metrics = runner.metrics_for("voter", config)
        assert "batch.object_path_fallback" not in metrics

    def test_supported_cell_snapshot_has_no_fallback_gauge(self):
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        runner.run("voter", FrontEndConfig())
        metrics = runner.metrics_for("voter", FrontEndConfig())
        assert "batch.object_path_fallback" not in metrics

    def test_reason_logged_once(self, caplog):
        program = build_program("voter", seed=0)
        with caplog.at_level(logging.INFO, logger="repro.batch"):
            for _ in range(3):
                simulator = FrontEndSimulator(program, FrontEndConfig(),
                                              seed=0)
                simulator.attach_attribution()
                batch.note_object_fallback(simulator)
        messages = [record for record in caplog.records
                    if "object path" in record.getMessage()]
        assert len(messages) == 1
        assert fallback_counts() == {"attribution sink attached": 3}
