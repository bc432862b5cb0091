"""The benchmark's workloads: which exhibit cells run, at what size.

Three workloads, each one exhibit as a user regenerates it:

* ``fig14-grid``    -- the Figure 14 base/head/tail/both grid on the
  call/return-heavy ``voter`` and the mid-gain ``tatp``: 8 kernel lanes
  over 2 traces, 3 of 4 lanes per trace running the SBD/SBB.
* ``zoo-sweep``     -- the Section 7.1 comparator zoo on the
  conditional-heavy ``kafka``: 10 kernel lanes sharing 1 trace; the only
  workload that runs ``frontend.comparators`` and the FDIP-depth timing.
* ``oracle-attrib`` -- ``run_with_attribution`` on the voter Skia cell:
  the object engine with the attribution sink and a large store write,
  no batched kernel.

Everything here is importable without side effects; ``repro`` must be
on ``sys.path`` before this module is imported (see ``common.setup``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.harness import experiments
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import SCALES
from repro.workloads.cache import WorkloadCache

#: The shipped ``smoke`` scale: 40,000 records per cell, of which the
#: first 12,000 are uncounted warm-up.  The smallest scale users run, so
#: a benchmark run can repeat the cold exhibit several times.
SCALE = SCALES["smoke"]
RECORDS = SCALE.records
WARMUP = SCALE.warmup


def config_label(config: FrontEndConfig) -> str:
    """A short readable name for one front-end configuration."""
    if config.comparator == "fdip":
        return f"fdip{config.fdip_depth}"
    if config.comparator is not None:
        return config.comparator
    if config.skia.enabled:
        sides = [side for side, on in (("head", config.skia.decode_heads),
                                       ("tail", config.skia.decode_tails))
                 if on]
        return "skia-" + "+".join(sides)
    if config != FrontEndConfig():
        return f"btb{config.btb_entries}"
    return "base"


@dataclass(frozen=True)
class BenchCell:
    """One simulated (workload, config) cell of a benchmark workload."""

    workload: str
    config: FrontEndConfig
    attribution: bool = False

    @property
    def cell_id(self) -> str:
        suffix = "+attribution" if self.attribution else ""
        return f"{self.workload}/{config_label(self.config)}{suffix}"


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: the traces it reads and the exhibit it runs."""

    name: str
    traces: tuple[str, ...]
    cells: tuple[BenchCell, ...]
    #: Runs the exhibit through the CLI's entry points on ``runner``.
    exhibit: Callable[[ExperimentRunner], dict]

    @property
    def lane_records(self) -> int:
        """Records replayed by all cells together (warm-up included)."""
        return len(self.cells) * RECORDS


FIG14_TRACES = ("voter", "tatp")
ZOO_TRACES = ("kafka",)
ATTRIB_CELL = BenchCell("voter", FrontEndConfig(skia=SkiaConfig()),
                        attribution=True)


def _fig14(runner: ExperimentRunner) -> dict:
    experiments.prefetch_exhibit(runner, "fig14", jobs=1,
                                 workloads=FIG14_TRACES)
    return experiments.fig14_ipc_gain(runner, workloads=FIG14_TRACES)


def _zoo(runner: ExperimentRunner) -> dict:
    experiments.prefetch_exhibit(runner, "comparator-zoo", jobs=1,
                                 workloads=ZOO_TRACES)
    return experiments.comparator_zoo(runner, workloads=ZOO_TRACES)


def _attrib(runner: ExperimentRunner) -> dict:
    from repro.obs.attribution import render_markdown

    stats, aggregator = runner.run_with_attribution(ATTRIB_CELL.workload,
                                                    ATTRIB_CELL.config)
    return {"ipc": stats.ipc, "render": render_markdown(aggregator)}


def _cells(exhibit: str, traces: tuple[str, ...]) -> tuple[BenchCell, ...]:
    return tuple(BenchCell(cell.workload, cell.config)
                 for cell in experiments.exhibit_cells(exhibit,
                                                       workloads=traces))


WORKLOADS: dict[str, Workload] = {
    "fig14-grid": Workload("fig14-grid", FIG14_TRACES,
                           _cells("fig14", FIG14_TRACES), _fig14),
    "zoo-sweep": Workload("zoo-sweep", ZOO_TRACES,
                          _cells("comparator-zoo", ZOO_TRACES), _zoo),
    "oracle-attrib": Workload("oracle-attrib", (ATTRIB_CELL.workload,),
                              (ATTRIB_CELL,), _attrib),
}


class BenchCache(WorkloadCache):
    """A :class:`WorkloadCache` that feeds the benchmark seed to the
    trace generator and times set-up.

    The runner passes its seed as the program seed only; this cache adds
    it as the trace seed too, so ``--seed`` changes both.  ``setup_s``
    accumulates the time spent in :meth:`program` and :meth:`compiled`
    (outermost calls only: ``compiled`` calls ``program`` internally).
    """

    def __init__(self, trace_seed: int):
        super().__init__()
        self.trace_seed = trace_seed
        self.setup_s = 0.0
        self._depth = 0

    def _timed(self, call, *args, **kwargs):
        self._depth += 1
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.setup_s += time.perf_counter() - started

    def program(self, workload, seed=0, bolted=False):
        return self._timed(super().program, workload, seed=seed,
                           bolted=bolted)

    def trace(self, workload, n_records, seed=0, trace_seed=None,
              bolted=False):
        return super().trace(workload, n_records, seed=seed,
                             trace_seed=self.trace_seed, bolted=bolted)

    def compiled(self, workload, n_records, seed=0, trace_seed=None,
                 bolted=False):
        return self._timed(super().compiled, workload, n_records, seed=seed,
                           trace_seed=self.trace_seed, bolted=bolted)

