"""Bit-identity of the interval series across engines.

Window boundaries are cut on the record index, which the object oracle
loop and the batched lane kernel both step identically -- so the
serialized :class:`IntervalSeries` (canonical JSON text, hence the
fingerprint) must be byte-equal across the two, over the whole
Figure-14 grid and through the edge cases that stress the boundary
bookkeeping (partial final window, warmup crossing a boundary,
chunk-boundary splits in the lane kernel).
"""

import dataclasses

import pytest

from repro.frontend.batch import BatchedFrontEndSimulator, run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.workloads import (
    WORKLOAD_NAMES,
    build_program,
    build_trace,
    compile_trace,
)

RECORDS = 1_000
WARMUP = 150
WINDOW = 100

CONFIGS = {
    "base": FrontEndConfig(interval_size=WINDOW),
    "head": FrontEndConfig(skia=SkiaConfig(decode_tails=False),
                           interval_size=WINDOW),
    "tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False),
                           interval_size=WINDOW),
    "skia": FrontEndConfig(skia=SkiaConfig(), interval_size=WINDOW),
}


def _series_text(program, records, compiled, config, engine,
                 warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=0)
    if engine == "object":
        simulator.run(records, warmup=warmup)
    else:
        run_compiled_batched(simulator, compiled, warmup=warmup)
    return simulator.intervals.series().to_json_text()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_three_way_byte_identity(workload):
    """Object == batched, byte-for-byte, for every cell."""
    program = build_program(workload, seed=0)
    records = build_trace(workload, RECORDS, seed=0)
    compiled = compile_trace(records)
    for name, config in CONFIGS.items():
        texts = {engine: _series_text(program, records, compiled,
                                      config, engine)
                 for engine in ("object", "batched")}
        assert texts["batched"] == texts["object"], (workload, name)


class TestEdgeCases:
    CONFIG = FrontEndConfig(skia=SkiaConfig(), interval_size=WINDOW)

    def _both_engines(self, records, config=None, warmup=WARMUP):
        program = build_program("voter", seed=0)
        compiled = compile_trace(records)
        config = config or self.CONFIG
        return [_series_text(program, records, compiled, config, engine,
                             warmup=warmup)
                for engine in ("object", "batched")]

    def test_trace_shorter_than_one_window(self):
        records = build_trace("voter", 40, seed=0)
        obj, bat = self._both_engines(records, warmup=10)
        assert bat == obj
        assert '"ends":[40]' in obj

    def test_warmup_crossing_a_window_boundary(self):
        # WARMUP=150 lands mid-window at WINDOW=100: the counting flip
        # happens inside window 1 on every engine.
        records = build_trace("voter", RECORDS, seed=0)
        obj, bat = self._both_engines(records, warmup=150)
        assert bat == obj

    def test_partial_final_window(self):
        records = build_trace("voter", 250, seed=0)
        obj, bat = self._both_engines(records, warmup=0)
        assert bat == obj
        assert '"ends":[100,200,250]' in obj

    def test_window_straddles_kernel_chunks(self):
        """A window larger than the kernel chunk still cuts identically."""
        program = build_program("voter", seed=0)
        records = build_trace("voter", RECORDS, seed=0)
        compiled = compile_trace(records)
        config = dataclasses.replace(self.CONFIG, interval_size=300)
        expected = _series_text(program, records, compiled, config,
                                "object")
        simulator = FrontEndSimulator(program, config, seed=0)
        batch = BatchedFrontEndSimulator(chunk_records=128)
        batch.add_lane(simulator, compiled, warmup=WARMUP)
        batch.run()
        assert simulator.intervals.series().to_json_text() == expected

    def test_interval_size_zero_disables_on_every_engine(self):
        program = build_program("voter", seed=0)
        records = build_trace("voter", 200, seed=0)
        compiled = compile_trace(records)
        config = FrontEndConfig(skia=SkiaConfig())
        for engine, run in (
                ("object", lambda s: s.run(records, warmup=0)),
                ("batched", lambda s: run_compiled_batched(
                    s, compiled, warmup=0))):
            simulator = FrontEndSimulator(program, config, seed=0)
            run(simulator)
            assert simulator.intervals is None, engine

    def test_series_identical_across_seeds(self):
        """Seeded predictor noise stays engine-invariant too."""
        for seed in (1, 2):
            program = build_program("voter", seed=seed)
            records = build_trace("voter", RECORDS, seed=seed)
            compiled = compile_trace(records)
            texts = [_series_text(program, records, compiled, self.CONFIG,
                                  engine)
                     for engine in ("object", "batched")]
            assert texts[1] == texts[0], seed
