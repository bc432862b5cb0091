"""Oracle/kernel identity over randomly drawn cells (Hypothesis).

The fixed-grid suites (``test_batch_equivalence.py``,
``test_interval_equality.py``) pin the four Figure-14 configurations on
stock geometry.  This suite draws the cell instead: workload, trace
seed, trace length, warm-up (zero, mid-trace, or past the end),
interval window, BTB and U/R-SBB geometry, the Skia mode, the Section
7.1 comparator (none, AirBTB, Boomerang, Micro-BTB or FDIP) with its
size knobs, and the batched kernel's chunk size.  Each example then
runs two or three lanes over the one shared compiled trace in one
``BatchedFrontEndSimulator``.  Every lane draws its own predictor knobs
(TAGE/ITTAGE table sizes, TAGE tag bits and history lengths, the loop
predictor), RAS depth and a predictor seed independent of the trace
seed; a lane either repeats the first lane's knobs or differs from them
in exactly one.  The lanes share the trace's predictor column exactly
when their predictor key matches, so a knob missing from that key
makes some lane read another lane's outcomes.  For every lane the
object oracle (``run`` over the records, training its predictors live)
and the kernel must agree byte for byte on ``SimStats``, the metric
snapshot and the interval series.

Programs are built at seed 0 (about 2 s each, shared through the
process-wide workload cache); the drawn seeds vary the trace and the
predictor RNG.  ``max_examples`` is 20: about 20 s run alone on a
2-core host, a few seconds inside the full suite, where earlier tests
have already built the programs.
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


#: Section 7.1 comparator designs and their size knobs, kept small so
#: capacity evictions happen within a short trace.
COMPARATOR_KNOBS = {
    "airbtb": {"airbtb_max_lines": st.integers(min_value=1, max_value=256),
               "airbtb_entries_per_line": st.integers(min_value=1,
                                                      max_value=4)},
    "boomerang": {"boomerang_buffer_entries": st.integers(min_value=1,
                                                          max_value=64)},
    "microbtb": {"microbtb_max_lines": st.integers(min_value=1,
                                                   max_value=512),
                 "microbtb_entries_per_line": st.integers(min_value=1,
                                                          max_value=4),
                 "microbtb_fill_lines": st.integers(min_value=1,
                                                    max_value=64)},
    "fdip": {"fdip_depth": st.integers(min_value=1, max_value=8),
             "fdip_buffer_entries": st.integers(min_value=1, max_value=64)},
}


#: Per-lane knobs; all but ``ras_depth`` are in the predictor key.
#: Tables are kept small (1-bit tags and indices, a few loop entries),
#: so aliasing and eviction make a one-knob difference visible in the
#: outcomes of a few thousand records.
LANE_KNOBS = {
    "tage_table_bits": st.integers(min_value=1, max_value=8),
    "tage_tag_bits": st.integers(min_value=1, max_value=8),
    "tage_history_lengths": st.sampled_from(
        [(5, 15, 44, 130), (3, 9, 27), (2, 8), (1,),
         (8, 32, 64, 128, 200)]),
    "ittage_table_bits": st.integers(min_value=1, max_value=6),
    "use_loop_predictor": st.booleans(),
    "loop_predictor_entries": st.integers(min_value=1, max_value=32),
    "ras_depth": st.integers(min_value=1, max_value=64),
    "seed": st.integers(min_value=0, max_value=2**16),
}


@st.composite
def lanes(draw):
    """Two or three lanes' knobs: each extra lane repeats the first or
    differs from it in exactly one knob."""
    first = {name: draw(strategy) for name, strategy in LANE_KNOBS.items()}
    out = [first]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        lane = dict(first)
        knob = draw(st.sampled_from([None, *LANE_KNOBS]))
        if knob is not None:
            lane[knob] = draw(LANE_KNOBS[knob].filter(
                lambda value, old=first[knob]: value != old))
        out.append(lane)
    return out


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
    comparator = draw(st.sampled_from([None, *COMPARATOR_KNOBS]))
    comparator_knobs = {
        name: draw(strategy)
        for name, strategy in COMPARATOR_KNOBS.get(comparator, {}).items()}
    config = FrontEndConfig(
        btb_entries=draw(st.sampled_from([64, 256, 1024, 8192])),
        btb_assoc=draw(st.sampled_from([1, 2, 4, 8])),
        btb_tag_bits=draw(st.integers(min_value=1, max_value=16)),
        interval_size=interval_size,
        skia=skia,
        comparator=comparator,
        **comparator_knobs)
    return {
        "workload": draw(st.sampled_from(WORKLOAD_NAMES)),
        "trace_seed": draw(st.integers(min_value=0, max_value=2**16)),
        "n_records": n_records,
        "warmup": warmup,
        "config": config,
        "chunk_records": draw(st.integers(min_value=1, max_value=4096)),
        "lanes": draw(lanes()),
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
    workload, warmup = cell["workload"], cell["warmup"]
    program = build_program(workload, seed=0)
    records = build_trace(workload, cell["n_records"], seed=0,
                          trace_seed=cell["trace_seed"])
    compiled = build_compiled_trace(workload, cell["n_records"], seed=0,
                                    trace_seed=cell["trace_seed"])

    batch = BatchedFrontEndSimulator(chunk_records=cell["chunk_records"])
    expected, kernels = [], []
    for knobs in cell["lanes"]:
        knobs = dict(knobs)
        seed = knobs.pop("seed")
        config = dataclasses.replace(cell["config"], **knobs)
        oracle = FrontEndSimulator(program, config, seed=seed)
        expected.append(_observed(oracle, oracle.run(records,
                                                     warmup=warmup)))
        kernel = FrontEndSimulator(program, config, seed=seed)
        batch.add_lane(kernel, compiled, warmup=warmup)
        kernels.append(kernel)
    for knobs, kernel, stats, expect in zip(cell["lanes"], kernels,
                                            batch.run(), expected):
        assert _observed(kernel, stats) == expect, knobs
