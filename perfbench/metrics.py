"""Metric names and units; ``BENCHMARK.json`` lists the same names.

End-to-end metrics come from the untraced timed runs (``--trace 0``);
per-layer metrics from the traced run (``--trace 1``).  Every workload
reports every metric; a layer a workload does not exercise reports 0
(for example ``batch.*`` on ``oracle-attrib``, which never runs the
batched kernel).
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COMPARATOR_DESIGNS = ("airbtb", "boomerang", "microbtb",
                      "fdip1", "fdip2", "fdip4", "fdip8")

#: Resteer causes, as ``SimStats.resteer_causes`` keys.
RESTEER_CAUSES = ("btb_alias", "btb_stale_target", "cond_mispredict",
                  "ras_mispredict", "indirect_mispredict",
                  "sbb_wrong_target", "undetected_branch")

PER_LAYER = {
    # workloads: program generation, trace generation, compilation.
    "workloads.program_s": "s",
    "workloads.trace_s": "s",
    "workloads.compile_s": "s",
    "workloads.decode_table_s": "s",
    "workloads.trace_mb": "MB",
    # frontend.batch: the lane kernel.
    "batch.add_lane_s": "s",
    "batch.run_s": "s",
    "batch.lane_records_per_s": "1/s",
    "batch.object_fallbacks": "count",
    # frontend.engine: the object engine over compiled columns.
    "engine.run_compiled_s": "s",
    "engine.records_per_s": "1/s",
    # frontend.predictor + frontend.ras, replayed over the decode table.
    "predictor.replay_s": "s",
    "predictor.calls": "count",
    "predictor.ns_per_call": "ns",
    "predictor.cond_mispredicts": "count",
    "predictor.indirect_mispredicts": "count",
    "predictor.ras_mispredicts": "count",
    "predictor.lane_share": "ratio",
    # frontend.btb
    "btb.replay_s": "s",
    "btb.lookups": "count",
    "btb.hits": "count",
    # frontend.caches (L1-I)
    "l1i.replay_s": "s",
    "l1i.accesses": "count",
    "l1i.misses": "count",
    # core.sbd + core.decode_tables
    "sbd.replay_s": "s",
    "sbd.head_decodes": "count",
    "sbd.tail_decodes": "count",
    "sbd.head_memo_hit_ratio": "ratio",
    "sbd.tail_memo_hit_ratio": "ratio",
    "sbd.line_cache_hit_ratio": "ratio",
    "sbd.shared_results": "count",
    # core.sbb
    "sbb.replay_s": "s",
    "sbb.inserts": "count",
    "sbb.lookups": "count",
    "sbb.hit_ratio": "ratio",
    # frontend.comparators: one single-lane kernel run per design.
    **{f"comparators.{design}.lane_s": "s" for design in COMPARATOR_DESIGNS},
    # frontend.fastforward
    "fastforward.probes": "count",
    "fastforward.skipped_records": "count",
    # obs.attribution
    "attribution.overhead_s": "s",
    # obs.invariants
    "invariants.check_s": "s",
    "invariants.violations": "count",
    # harness.store
    "store.put_s": "s",
    "store.bytes_written": "bytes",
    "store.warm_replay_s": "s",
    # harness.runner
    "runner.self_s": "s",
    # The simulated model (frontend.stats), summed or averaged over lanes.
    "sim.ipc_mean": "instr/cycle",
    "sim.btb_miss_mpki_mean": "1/kinstr",
    "sim.l1i_mpki_mean": "1/kinstr",
    "sim.sbb_hits": "count",
    **{f"sim.resteers.{cause}": "count" for cause in RESTEER_CAUSES},
    "sim.ipc_gain_err_pp": "pp",
    # The benchmark itself.
    "host.calibration_s": "s",
    "trace.overhead_s": "s",
    "failed_cell_ratio": "ratio",
}
