"""The traced run of one workload (a child of ``run.py``).

It drives the public calls the runner makes -- ``cache.program``,
``cache.compiled``, ``FrontEndSimulator(...)``, ``BatchedFrontEndSimulator
.add_lane``/``.run`` or ``run_compiled``, ``metrics_snapshot``,
``check_snapshot``, ``store.put`` -- with one span per call, then re-runs
the exhibit through the runner on the filled store (the store's read
path).  Afterwards, untimed by the exhibit span, it replays each layer's
public functions over the same decode table on fresh structures of the
lane's geometry: predictor + RAS, BTB, L1-I, SBD, SBB; and times the
comparators and the attribution sink on their own.

The predictor replay must reproduce every lane's ``cond_*``,
``indirect_*`` and ``ras_*`` counters exactly (the BPU trains exactly
one predictor of a record's kind on every path); any mismatch is a
finding and fails the run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import common
from spans import Tracer

#: SimStats counters the predictor replay must reproduce exactly.
PREDICTOR_COUNTERS = ("cond_predictions", "cond_mispredicts",
                      "indirect_predictions", "indirect_mispredicts",
                      "ras_predictions", "ras_mispredicts", "ras_underflows")


@dataclass
class Lane:
    """One simulated cell of the traced exhibit."""

    cell: object
    simulator: object
    stats: object
    metrics: dict
    violations: list


def gain_error_pp(data: dict) -> float:
    """Mean |measured head+tail IPC gain - paper gain| in points.

    ``data`` maps workload -> head+tail gain as a fraction (the shape of
    ``fig14_ipc_gain(...)["data"]["both"]``).
    """
    from repro.workloads.profiles import get_profile

    gaps = [abs(100.0 * gain - get_profile(workload).expected.ipc_gain_pct)
            for workload, gain in data.items()]
    return sum(gaps) / len(gaps)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _predictor_key(config) -> tuple:
    return (config.tage_table_bits, config.tage_tag_bits,
            tuple(config.tage_history_lengths), config.ittage_table_bits,
            config.use_loop_predictor, config.loop_predictor_entries,
            config.ras_depth)


def _btb_key(config) -> tuple:
    return (config.btb_entries, config.btb_assoc, config.btb_tag_bits,
            config.btb_entry_bits, config.btb_infinite)


def replay_predictor(table, config, seed: int, warmup: int) -> dict:
    """Train fresh direction/indirect/return predictors on every record,
    exactly as ``BranchPredictionUnit`` does, counting after warm-up."""
    from repro.frontend.predictor import ITTageLite, LoopPredictor, TageLite
    from repro.frontend.ras import ReturnAddressStack
    from repro.isa.branch import BranchKind

    tage = TageLite(table_bits=config.tage_table_bits,
                    tag_bits=config.tage_tag_bits,
                    history_lengths=config.tage_history_lengths, seed=seed)
    ittage = ITTageLite(table_bits=config.ittage_table_bits)
    loop = (LoopPredictor(entries=config.loop_predictor_entries)
            if config.use_loop_predictor else None)
    ras = ReturnAddressStack(depth=config.ras_depth)
    counts = dict.fromkeys(PREDICTOR_COUNTERS, 0)
    calls = 0
    cond, ret = BranchKind.DIRECT_COND, BranchKind.RETURN
    for i, kind in enumerate(table.kind):
        counting = i >= warmup
        pc = table.branch_pc[i]
        if kind is cond:
            taken = table.taken[i]
            predicted = tage.update(pc, taken)
            calls += 1
            if loop is not None:
                loop_prediction = loop.predict(pc)
                loop.update(pc, taken)
                calls += 2
                if loop_prediction is not None:
                    predicted = loop_prediction
            if counting:
                counts["cond_predictions"] += 1
                counts["cond_mispredicts"] += predicted != taken
        elif kind is ret:
            predicted = ras.pop()
            calls += 1
            if counting:
                counts["ras_predictions"] += 1
                counts["ras_underflows"] += predicted is None
                counts["ras_mispredicts"] += predicted != table.target[i]
        elif kind.is_indirect:
            predicted = ittage.update(pc, table.target[i])
            calls += 1
            if counting:
                counts["indirect_predictions"] += 1
                counts["indirect_mispredicts"] += (predicted
                                                   != table.target[i])
        if kind.is_call:
            ras.push(table.fallthrough[i])
            calls += 1
    counts["calls"] = calls
    return counts


def replay_btb(table, config, warmup: int) -> dict:
    """Probe then insert every branch, as the BPU does per record."""
    from repro.frontend.btb import BranchTargetBuffer

    btb = BranchTargetBuffer(entries=config.btb_entries,
                             assoc=config.btb_assoc,
                             tag_bits=config.btb_tag_bits,
                             entry_bits=config.btb_entry_bits,
                             infinite=config.btb_infinite)
    lookups = hits = 0
    for i, kind in enumerate(table.kind):
        pc = table.branch_pc[i]
        entry = btb.lookup(pc)
        if i >= warmup:
            lookups += 1
            hits += entry is not None
        target = (table.target[i] if kind.is_direct or kind.is_indirect
                  else None)
        btb.insert(pc, kind, target)
    return {"lookups": lookups, "hits": hits}


def replay_l1i(table, config, warmup: int) -> dict:
    """Access every line each FTQ entry spans, one entry per cycle."""
    from repro.frontend.caches import CacheHierarchy

    hierarchy = CacheHierarchy(config)
    line_size = config.line_size
    accesses = misses = 0
    for i in range(table.n_records):
        first = table.first_line[i]
        for k in range(table.n_lines[i]):
            hit, _, _ = hierarchy.access(first + k * line_size, float(i))
            if i >= warmup:
                accesses += 1
                misses += not hit
    return {"accesses": accesses, "misses": misses}


def replay_sbd(table, program, skia_config, line_size: int) -> tuple:
    """Head-decode every mid-line entry reached by a taken branch and
    tail-decode every mid-line taken exit, on a fresh decoder over cold
    shared tables.  Returns ``(counts, branches found per record)``."""
    from repro.core import decode_tables
    from repro.core.sbd import ShadowBranchDecoder

    decode_tables.reset()
    decoder = ShadowBranchDecoder(program.image, program.base_address,
                                  skia_config, line_size=line_size)
    found: list[list] = []
    heads = tails = 0
    prev_taken = True
    for i in range(table.n_records):
        branches = []
        if prev_taken and table.entry_offset[i]:
            branches += decoder.decode_head(table.block_start[i]).branches
            heads += 1
        taken = table.taken[i]
        if taken and not table.tail_aligned[i]:
            branches += decoder.decode_tail(table.exit_pc[i]).branches
            tails += 1
        found.append(branches)
        prev_taken = taken
    counts = {"head_decodes": heads, "tail_decodes": tails,
              "shared_results": decode_tables.shared_result_count()}
    for name, stats in decoder.cache_stats().items():
        counts[f"{name}_hits"] = stats.hits
        counts[f"{name}_accesses"] = stats.accesses
    return counts, found


def replay_sbb(table, found, skia_config, line_size: int) -> dict:
    """Probe the SBB with every branch PC, then insert what the SBD
    found for that record (the sim's lookup-then-fill order)."""
    from repro.core.sbb import ShadowBranchBuffer
    from repro.isa.branch import BranchKind

    sbb = ShadowBranchBuffer(skia_config)
    inserts = hits = 0
    for i, branches in enumerate(found):
        hits += sbb.lookup(table.branch_pc[i]) is not None
        for branch in branches:
            if branch.kind is BranchKind.RETURN:
                sbb.insert_return(branch.pc, line_size)
            elif branch.target is not None:
                sbb.insert_unconditional(branch.pc, branch.target)
            else:
                continue
            inserts += 1
    return {"inserts": inserts, "lookups": len(found), "hits": hits}


class TracedRun:
    """State of one traced run: spans, lanes and per-layer values."""

    def __init__(self, workload, seed: int, store_dir: str):
        from repro.harness.store import ResultStore

        from workloads import BenchCache

        self.workload = workload
        self.seed = seed
        self.store = ResultStore(store_dir)
        self.cache = BenchCache(trace_seed=seed)
        self.tracer = Tracer()
        self.lanes: list[Lane] = []
        self.programs: dict = {}
        self.compiled: dict = {}
        #: Per-layer values summed over traces and replays.
        self.values: Counter = Counter()
        #: Raw sums that per-layer ratios and shares are computed from.
        self.totals: Counter = Counter()
        self.findings: list[str] = []
        self.bytes_written = 0
        self.fallbacks = 0

    # -- the exhibit, one span per call ---------------------------------

    def exhibit(self) -> None:
        from repro.harness.runner import ExperimentRunner

        from workloads import RECORDS, SCALE

        span = self.tracer.span
        with span("runner") as self.root:
            for trace in self.workload.traces:
                with span("workloads.program"):
                    program = self.cache.program(trace, seed=self.seed)
                with span("workloads.trace"):
                    self.cache.trace(trace, RECORDS, seed=self.seed)
                with span("workloads.compile"):
                    compiled = self.cache.compiled(trace, RECORDS,
                                                   seed=self.seed)
                self.programs[trace] = program
                self.compiled[trace] = compiled
                self._simulate(trace, program, compiled)
        # Its own root span, so that the "runner" span -- compared with
        # the untraced exhibit -- covers only what a cold exhibit does.
        runner = ExperimentRunner(scale=SCALE, seed=self.seed,
                                  cache=self.cache, store=self.store, jobs=1)
        with span("store.warm_replay"):
            self.workload.exhibit(runner)

    def _simulate(self, trace: str, program, compiled) -> None:
        from repro.frontend.batch import (BatchedFrontEndSimulator,
                                          batch_supported)
        from repro.frontend.engine import FrontEndSimulator
        from repro.obs.invariants import check_snapshot

        from workloads import SCALE, WARMUP

        span = self.tracer.span
        batch = BatchedFrontEndSimulator()
        batched, objects = [], []
        for cell in self.workload.cells:
            if cell.workload != trace:
                continue
            with span("engine.init"):
                simulator = FrontEndSimulator(program, cell.config,
                                              seed=self.seed)
                if cell.attribution:
                    simulator.attach_attribution()
            if batch_supported(simulator):
                with span("batch.add_lane"):
                    batch.add_lane(simulator, compiled, warmup=WARMUP)
                batched.append((cell, simulator))
            else:
                self.fallbacks += not cell.attribution
                objects.append((cell, simulator))
        finished = []
        if batched:
            with span("batch.run"):
                stats_list = batch.run()
            finished += [(cell, simulator, stats) for (cell, simulator),
                         stats in zip(batched, stats_list)]
        for cell, simulator in objects:
            with span("engine.run_compiled"):
                stats = simulator.run_compiled(compiled, warmup=WARMUP)
            finished.append((cell, simulator, stats))
        for cell, simulator, stats in finished:
            with span("engine.metrics_snapshot"):
                metrics = simulator.metrics_snapshot()
            with span("invariants.check"):
                violations = [v.invariant for v in check_snapshot(metrics)]
            attribution = None
            if simulator.attribution is not None:
                with span("attribution.to_jsonable"):
                    attribution = simulator.attribution.to_jsonable()
            key = self.store.key(cell.workload, cell.config, self.seed, SCALE)
            with span("store.put"):
                path = self.store.put(key, stats, metrics=metrics,
                                      attribution=attribution)
            self.bytes_written += path.stat().st_size
            self.lanes.append(Lane(cell, simulator, stats, metrics,
                                   violations))

    # -- component replays ----------------------------------------------

    def replays(self) -> None:
        """Per-layer replays; ordered so the SBD replay, which resets the
        process-wide decode tables, runs last."""
        from repro.workloads.compiled import TraceDecodeTable

        from workloads import WARMUP

        span = self.tracer.span
        for trace, compiled in self.compiled.items():
            lanes = [lane for lane in self.lanes
                     if lane.cell.workload == trace]
            config = lanes[0].cell.config
            table = compiled.decode_table(config.line_size)
            with span("workloads.decode_table"):
                TraceDecodeTable(compiled, config.line_size)
            for key in {_predictor_key(lane.cell.config) for lane in lanes}:
                group = [lane for lane in lanes
                         if _predictor_key(lane.cell.config) == key]
                with span("predictor.replay"):
                    counts = replay_predictor(table, group[0].cell.config,
                                              self.seed, WARMUP)
                self.values["predictor.calls"] += counts["calls"]
                self.totals["predictor.replays"] += 1
                for name in ("cond_mispredicts", "indirect_mispredicts",
                             "ras_mispredicts"):
                    self.values[f"predictor.{name}"] += counts[name]
                for lane in group:
                    for name in PREDICTOR_COUNTERS:
                        got = getattr(lane.stats, name)
                        if got != counts[name]:
                            self.findings.append(
                                f"predictor replay {name}={counts[name]} "
                                f"but lane {lane.cell.cell_id} has {got}")
            for key in {_btb_key(lane.cell.config) for lane in lanes}:
                group = [lane for lane in lanes
                         if _btb_key(lane.cell.config) == key]
                with span("btb.replay"):
                    counts = replay_btb(table, group[0].cell.config, WARMUP)
                self.values["btb.lookups"] += counts["lookups"]
                self.values["btb.hits"] += counts["hits"]
                for lane in group:
                    lane_hits = (lane.stats.btb_lookups
                                 - lane.stats.total_btb_misses)
                    print(f"btb replay {trace} {key}: hits={counts['hits']} "
                          f"| lane {lane.cell.cell_id}: hits={lane_hits}")
            with span("l1i.replay"):
                counts = replay_l1i(table, config, WARMUP)
            self.values["l1i.accesses"] += counts["accesses"]
            self.values["l1i.misses"] += counts["misses"]
        self._comparators()
        self._attribution_overhead()
        self._gain_error()
        for trace, compiled in self.compiled.items():
            skia_lanes = [lane for lane in self.lanes
                          if lane.cell.workload == trace
                          and lane.cell.config.skia.enabled]
            if not skia_lanes:
                continue
            config = skia_lanes[0].cell.config
            table = compiled.decode_table(config.line_size)
            with span("sbd.replay"):
                counts, found = replay_sbd(table, self.programs[trace],
                                           config.skia, config.line_size)
            print(f"sbd replay {trace}: head_calls={counts['head_decodes']} "
                  f"tail_calls={counts['tail_decodes']}")
            for name in ("head_decodes", "tail_decodes", "shared_results"):
                self.values[f"sbd.{name}"] += counts.pop(name)
            self.totals.update({f"sbd.{name}": value
                                for name, value in counts.items()})
            for lane in skia_lanes:
                sbd = {name: value for name, value in lane.metrics.items()
                       if name.startswith("sbd.")}
                print(f"  lane {lane.cell.cell_id}: "
                      f"sbd_head_decodes={lane.stats.sbd_head_decodes} "
                      f"sbd_tail_decodes={lane.stats.sbd_tail_decodes} "
                      + " ".join(f"{k}={v}" for k, v in sorted(sbd.items())))
            with span("sbb.replay"):
                counts = replay_sbb(table, found, config.skia,
                                    config.line_size)
            self.values["sbb.inserts"] += counts["inserts"]
            self.values["sbb.lookups"] += counts["lookups"]
            self.totals["sbb.hits"] += counts["hits"]

    def _single_lane(self, span_name: str, lane_config, trace: str,
                     attribution: bool = False, batched: bool = True):
        from repro.frontend.batch import run_compiled_batched
        from repro.frontend.engine import FrontEndSimulator

        from workloads import WARMUP

        simulator = FrontEndSimulator(self.programs[trace], lane_config,
                                      seed=self.seed)
        if attribution:
            simulator.attach_attribution()
        with self.tracer.span(span_name):
            if batched:
                return run_compiled_batched(simulator, self.compiled[trace],
                                            warmup=WARMUP)
            return simulator.run_compiled(self.compiled[trace],
                                          warmup=WARMUP)

    def _comparators(self) -> None:
        from repro.harness.store import stats_to_jsonable

        from workloads import config_label

        for lane in self.lanes:
            if lane.cell.config.comparator is None:
                continue
            name = f"comparators.{config_label(lane.cell.config)}"
            stats = self._single_lane(name, lane.cell.config,
                                      lane.cell.workload)
            if stats_to_jsonable(stats) != stats_to_jsonable(lane.stats):
                self.findings.append(f"single-lane {name} stats differ "
                                     "from its lane in the batch")

    def _attribution_overhead(self) -> None:
        for lane in self.lanes:
            if lane.cell.attribution:
                args = (lane.cell.config, lane.cell.workload)
                self._single_lane("attribution.with_sink", *args,
                                  attribution=True, batched=False)
                self._single_lane("attribution.without_sink", *args,
                                  batched=False)

    def _gain_error(self) -> None:
        """|head+tail IPC gain - paper| per trace with a head+tail lane;
        a baseline lane is simulated when the exhibit has none."""
        from repro.frontend.config import FrontEndConfig, SkiaConfig

        base, both = FrontEndConfig(), FrontEndConfig(skia=SkiaConfig())
        gains = {}
        for trace in self.compiled:
            lanes = [lane for lane in self.lanes
                     if lane.cell.workload == trace]
            both_ipc = next((lane.stats.ipc for lane in lanes
                             if lane.cell.config == both), None)
            if both_ipc is None:
                continue
            base_ipc = next((lane.stats.ipc for lane in lanes
                             if lane.cell.config == base), None)
            if base_ipc is None:
                base_ipc = self._single_lane("sim.baseline_lane", base,
                                             trace).ipc
            gains[trace] = both_ipc / base_ipc - 1.0
        self.values["sim.ipc_gain_err_pp"] = (gain_error_pp(gains)
                                              if gains else 0.0)

    # -- report ------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        import metrics as metric_defs
        from workloads import RECORDS

        total = self.tracer.total_s
        values = dict.fromkeys(metric_defs.PER_LAYER, 0)
        values.update(self.values)
        values.update({
            "workloads.program_s": total("workloads.program"),
            "workloads.trace_s": total("workloads.trace"),
            "workloads.compile_s": total("workloads.compile"),
            "workloads.decode_table_s": total("workloads.decode_table"),
            "workloads.trace_mb": sum(trace.nbytes() for trace
                                      in self.compiled.values()) / 2**20,
            "batch.add_lane_s": total("batch.add_lane"),
            "batch.run_s": total("batch.run"),
            "batch.object_fallbacks": self.fallbacks,
            "engine.run_compiled_s": total("engine.run_compiled"),
            "predictor.replay_s": total("predictor.replay"),
            "btb.replay_s": total("btb.replay"),
            "l1i.replay_s": total("l1i.replay"),
            "sbd.replay_s": total("sbd.replay"),
            "sbb.replay_s": total("sbb.replay"),
            "attribution.overhead_s": (total("attribution.with_sink")
                                       - total("attribution.without_sink")),
            "invariants.check_s": total("invariants.check"),
            "invariants.violations": sum(len(lane.violations)
                                         for lane in self.lanes),
            "store.put_s": total("store.put"),
            "store.bytes_written": self.bytes_written,
            "store.warm_replay_s": total("store.warm_replay"),
            "runner.self_s": self.tracer.self_s(self.root),
        })
        for lane in self.lanes:
            summary = lane.simulator.fastforward_summary or {}
            values["fastforward.probes"] += summary.get("probes", 0)
            values["fastforward.skipped_records"] += summary.get(
                "skipped_records", 0)
        for design in metric_defs.COMPARATOR_DESIGNS:
            values[f"comparators.{design}.lane_s"] = total(
                f"comparators.{design}")
        batched_lanes = sum(1 for lane in self.lanes
                            if not lane.cell.attribution)
        object_lanes = len(self.lanes) - batched_lanes
        if values["batch.run_s"]:
            values["batch.lane_records_per_s"] = (
                batched_lanes * RECORDS / values["batch.run_s"])
        if values["engine.run_compiled_s"]:
            values["engine.records_per_s"] = (
                object_lanes * RECORDS / values["engine.run_compiled_s"])
        if values["predictor.calls"]:
            values["predictor.ns_per_call"] = (
                1e9 * values["predictor.replay_s"] / values["predictor.calls"])
        lane_s = ((values["batch.run_s"] + values["engine.run_compiled_s"])
                  / len(self.lanes))
        replay_s = (values["predictor.replay_s"]
                    / self.totals["predictor.replays"])
        values["predictor.lane_share"] = replay_s / lane_s
        for cache in ("head_memo", "tail_memo", "line_cache"):
            values[f"sbd.{cache}_hit_ratio"] = _ratio(
                self.totals[f"sbd.{cache}_hits"],
                self.totals[f"sbd.{cache}_accesses"])
        values["sbb.hit_ratio"] = _ratio(self.totals["sbb.hits"],
                                         values["sbb.lookups"])
        stats = [lane.stats for lane in self.lanes]
        values["sim.ipc_mean"] = statistics.fmean(s.ipc for s in stats)
        values["sim.btb_miss_mpki_mean"] = statistics.fmean(
            s.btb_miss_mpki for s in stats)
        values["sim.l1i_mpki_mean"] = statistics.fmean(
            s.l1i_mpki for s in stats)
        values["sim.sbb_hits"] = sum(s.total_sbb_hits for s in stats)
        for cause in metric_defs.RESTEER_CAUSES:
            values[f"sim.resteers.{cause}"] = sum(
                s.resteer_causes.get(cause, 0) for s in stats)
        # Filled in by run.py, which also times the untraced exhibit, and
        # by main(), which times the calibration loop.
        for name in ("trace.overhead_s", "failed_cell_ratio",
                     "host.calibration_s"):
            del values[name]
        return values

    def print_lanes(self) -> None:
        from metrics import RESTEER_CAUSES

        print("lane | ipc | btb_miss_mpki | l1i_mpki | sbb_hits | "
              "resteers " + " ".join(RESTEER_CAUSES))
        for lane in self.lanes:
            s = lane.stats
            causes = " ".join(str(s.resteer_causes.get(cause, 0))
                              for cause in RESTEER_CAUSES)
            print(f"{lane.cell.cell_id} | {s.ipc:.4f} | "
                  f"{s.btb_miss_mpki:.3f} | {s.l1i_mpki:.3f} | "
                  f"{s.total_sbb_hits} | {causes}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True,
                        help="empty directory for the private result store")
    parser.add_argument("--spans-out", required=True,
                        help="where to write the recorded spans (JSON)")
    args = parser.parse_args(argv)
    common.setup()
    from workloads import WORKLOADS

    run = TracedRun(WORKLOADS[args.workload], args.seed, args.store)
    started = time.perf_counter()
    calibration_before = common.calibrate()
    run.exhibit()
    calibration_s = (calibration_before + common.calibrate()) / 2
    run.replays()
    print(f"traced run: {time.perf_counter() - started:.2f}s including "
          "replays")
    run.print_lanes()
    report = observe_lanes(run)
    report["per_layer"] = run.per_layer()
    report["per_layer"]["host.calibration_s"] = calibration_s
    report["traced_wall_s"] = run.tracer.duration_s(run.root)
    report["calibration_s"] = calibration_s
    report["findings"] = run.findings + run.tracer.problems()
    run.tracer.dump(Path(args.spans_out))
    common.emit(report)
    return 0


def observe_lanes(run: TracedRun) -> dict:
    """Digests and fingerprints of the traced lanes, for the oracle check."""
    from workloads import RECORDS

    cells = {}
    for lane in run.lanes:
        entry = common.cell_digests(lane.stats, lane.metrics)
        entry["violations"] = lane.violations
        cells[lane.cell.cell_id] = entry
    fingerprints = {trace: run.cache.compiled(trace, RECORDS, seed=run.seed)
                    .fingerprint for trace in run.workload.traces}
    return {"cells": cells, "fingerprints": fingerprints}


if __name__ == "__main__":
    sys.exit(main())
