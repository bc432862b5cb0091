"""Oracle/kernel identity over randomly drawn cells (Hypothesis).

The fixed-grid suites (``test_batch_equivalence.py``,
``test_interval_equality.py``) pin the four Figure-14 configurations on
stock geometry.  This suite draws the cell instead: workload, trace and
predictor seed, trace length, warm-up (zero, mid-trace, or past the
end), interval window, BTB and U/R-SBB geometry, the Skia mode, and the
batched kernel's chunk size.  For every draw the object oracle (``run``
over the records) and the batched lane kernel (over the cached compiled
trace) must agree byte for byte on ``SimStats``, the metric snapshot
and the interval series.

Programs are built at seed 0 (about 2 s each, shared through the
process-wide workload cache); the drawn seed varies the trace and the
predictor RNG.  ``max_examples`` is 20: about 20 s run alone on a
2-core host, about 4 s inside the full suite, where earlier tests have
already built the programs.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.workloads import WORKLOAD_NAMES, build_program, build_trace
from repro.workloads.cache import build_compiled_trace

#: Skia off, head-only, tail-only and both (the Figure-14 modes).
SKIA_MODES = (
    SkiaConfig.disabled(),
    SkiaConfig(decode_tails=False),
    SkiaConfig(decode_heads=False),
    SkiaConfig(),
)


@st.composite
def _sbb_geometry(draw):
    assoc = draw(st.sampled_from([1, 2, 4, 8]))
    entries = assoc * draw(st.integers(min_value=1, max_value=128))
    return entries, assoc


@st.composite
def cells(draw):
    n_records = draw(st.integers(min_value=1_000, max_value=3_000))
    warmup = draw(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=n_records - 1),
        st.integers(min_value=n_records, max_value=n_records + 500)))
    interval_size = draw(st.one_of(
        st.just(0), st.integers(min_value=1, max_value=n_records)))
    skia = draw(st.sampled_from(SKIA_MODES))
    if skia.enabled:
        (u_entries, u_assoc), (r_entries, r_assoc) = (
            draw(_sbb_geometry()), draw(_sbb_geometry()))
        skia = dataclasses.replace(
            skia, usbb_entries=u_entries, usbb_assoc=u_assoc,
            rsbb_entries=r_entries, rsbb_assoc=r_assoc)
    config = FrontEndConfig(
        btb_entries=draw(st.sampled_from([64, 256, 1024, 8192])),
        btb_assoc=draw(st.sampled_from([1, 2, 4, 8])),
        btb_tag_bits=draw(st.integers(min_value=1, max_value=16)),
        interval_size=interval_size,
        skia=skia)
    return {
        "workload": draw(st.sampled_from(WORKLOAD_NAMES)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "n_records": n_records,
        "warmup": warmup,
        "config": config,
        "chunk_records": draw(st.integers(min_value=1, max_value=4096)),
    }


def _observed(simulator, stats) -> tuple[dict, dict, str | None]:
    intervals = None
    if simulator.intervals is not None:
        intervals = json.dumps(simulator.intervals.series().to_jsonable(),
                               sort_keys=True)
    return (dataclasses.asdict(stats), simulator.metrics_snapshot(),
            intervals)


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cell=cells())
def test_oracle_compiled_and_kernel_agree(cell):
    workload, seed = cell["workload"], cell["seed"]
    config, warmup = cell["config"], cell["warmup"]
    program = build_program(workload, seed=0)
    records = build_trace(workload, cell["n_records"], seed=0,
                          trace_seed=seed)
    compiled = build_compiled_trace(workload, cell["n_records"], seed=0,
                                    trace_seed=seed)

    oracle = FrontEndSimulator(program, config, seed=seed)
    expect = _observed(oracle, oracle.run(records, warmup=warmup))

    kernel = FrontEndSimulator(program, config, seed=seed)
    batch = BatchedFrontEndSimulator(chunk_records=cell["chunk_records"])
    batch.add_lane(kernel, compiled, warmup=warmup)
    [stats] = batch.run()
    assert _observed(kernel, stats) == expect
