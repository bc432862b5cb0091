"""Paths, hermetic environment and result digests shared by every
benchmark entry point.

Import this module before anything from ``repro``: :func:`setup` clears
the ``REPRO_*`` switches and puts the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for private result stores; removed after every run.
WORK_DIR = ROOT / ".perfbench_work"
#: Span dumps of traced runs.
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

#: ``calibrate()`` on a 2-vCPU Intel Xeon virtual machine (Python 3.11)
#: in its fast phase.  Host-normalised times are seconds on a host whose
#: calibration takes this long.
REFERENCE_CALIBRATION_S = 0.09
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REPS = 5

#: The seed whose oracle reference is committed in ``reference.json``.
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("fig14-grid", "zoo-sweep", "oracle-attrib")


def source_present() -> bool:
    """True when the checkout holds the simulator's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def setup() -> None:
    """Clear every ``REPRO_*`` switch and make ``repro`` importable.

    The harness reads ten switches (``BATCH``, ``FASTFORWARD``,
    ``NO_COMPILED_TRACES``, ``NO_STORE``, ``CACHE_DIR``, ``SCALE``,
    ``JOBS``, ``LEDGER``, ``PROFILE``, ``NO_PROGRESS``).  With all of them
    cleared a run measures the defaults a user gets: batched kernel,
    compiled traces, fast-forward on, serial, no ledger or profiler.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now (median of a few reps).

    A shared host switches between fast and slow phases that last from
    seconds to minutes, and one cold exhibit can take up to 1.7x longer
    in a slow phase.  Timed around each exhibit, this loop tracks the phase,
    so dividing by it removes most of the host's drift from the
    end-to-end times.  It runs no repository code, so a change to the
    simulator cannot move it.
    """
    times = []
    for _ in range(CALIBRATION_REPS):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_factor(calibration_s: float) -> float:
    """Multiplier that turns host seconds, measured while ``calibrate()``
    took ``calibration_s``, into host-normalised seconds."""
    return REFERENCE_CALIBRATION_S / calibration_s


def child_env() -> dict[str, str]:
    """The environment for benchmark child processes."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value`` (floats exact)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_digests(stats, metrics) -> dict[str, str]:
    """The reference-comparable identity of one simulated cell.

    The ``batch.*`` scope is left out of the metric digest: the harness
    registers ``batch.object_path_fallback`` on cells it routes to the
    object engine (every attribution cell), so that key records which
    engine ran, not what the modelled front-end did, and the object
    oracle never has it.
    """
    from repro.harness.store import stats_to_jsonable

    simulated = {name: value for name, value in metrics.items()
                 if not name.startswith("batch.")}
    return {"stats": digest(stats_to_jsonable(stats)),
            "metrics": digest(simulated)}


def emit(payload: dict) -> None:
    """Print ``payload`` as the last line of standard output."""
    print(json.dumps(payload, sort_keys=True), flush=True)
