"""The repository benchmark: cold exhibit regeneration, timed and traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig14-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's exhibit, each time in a fresh
process, until ``--seconds`` have passed (at least three times), and
reports the end-to-end metrics as medians.  ``--trace 1`` makes one
untimed-path run plus one traced run and reports the per-layer metrics.
Every run checks each cell against the oracle reference (committed for
the default seed, computed untimed before timing for any other seed).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the checkout has no simulator sources.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import common
import metrics as metric_defs
import oracle

#: Fewest timed exhibits per run, however short ``--seconds`` is.
MIN_REPS = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170
#: Processes computing a non-default seed's oracle reference (untimed).
ORACLE_PROCESSES = 2


def host_line() -> str:
    load = " ".join(f"{value:.2f}" for value in os.getloadavg())
    return (f"host: nproc={os.cpu_count()} "
            f"python={platform.python_version()} loadavg={load}")


def run_children(commands: list[tuple[str, list[str]]]) -> list[dict]:
    """Run benchmark scripts, concurrently, each in a fresh process.

    A script's last stdout line is its JSON report; lines before it are
    passed through.  A script that fails or outlives its timeout (which
    is then killed) reports ``{"error": ...}``.
    """
    procs = [subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / script), *args],
        cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for script, args in commands]
    try:
        return [_report(script, proc) for (script, _), proc
                in zip(commands, procs)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _report(script: str, proc: subprocess.Popen) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{script} killed after {CHILD_TIMEOUT_S}s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip()[-800:]
        return {"error": f"{script} exited {proc.returncode}: {tail}"}
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_child(script: str, args: list[str]) -> dict:
    return run_children([(script, args)])[0]


def leftovers() -> dict:
    """Process-external state a hermetic run must not create or change:
    shared-memory traces, and every file under the checkout's
    ``.repro_cache`` with its size and modification time."""
    cache = common.ROOT / ".repro_cache"
    files = None
    if cache.exists():
        files = []
        for path in sorted(cache.rglob("*")):
            info = path.stat()
            files.append((str(path), info.st_size, info.st_mtime_ns))
    return {"shm": sorted(glob.glob("/dev/shm/repro_ctrace_*")),
            "repro_cache": files}


def hermetic_problems(before: dict, after: dict) -> list[str]:
    problems = []
    new_shm = sorted(set(after["shm"]) - set(before["shm"]))
    if new_shm:
        problems.append(f"left shared-memory traces behind: {new_shm}")
    if after["repro_cache"] != before["repro_cache"]:
        problems.append("wrote to the checkout's .repro_cache")
    return problems


def reference_for(workload: str, seed: int) -> dict:
    """The committed reference, or -- untimed, on every core -- the
    object oracle's for a non-default seed."""
    if seed == common.DEFAULT_SEED:
        return oracle.load_committed(workload)
    parts = run_children([
        ("oracle.py", ["--workload", workload, "--seed", str(seed),
                       "--shard", f"{shard}/{ORACLE_PROCESSES}"])
        for shard in range(ORACLE_PROCESSES)])
    errors = [part["error"] for part in parts if "error" in part]
    if errors:
        raise RuntimeError(f"oracle reference failed: {errors}")
    return oracle.merge(parts)


def exhibit_once(workload: str, seed: int, work: str,
                 reference: dict) -> dict:
    """One cold exhibit in a fresh process, checked against the oracle."""
    store = tempfile.mkdtemp(dir=work, prefix="store-")
    try:
        report = run_child("exhibit.py", ["--workload", workload,
                                          "--seed", str(seed),
                                          "--store", store])
    finally:
        shutil.rmtree(store, ignore_errors=True)
    report["failed_cells"] = oracle.failures(reference, report)
    return report


def describe(name: str, values: list[float]) -> str:
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
        spread = f" q1={low:.4g} q3={high:.4g}"
    else:
        spread = ""
    return (f"{name}: median={statistics.median(values):.6g}{spread} "
            f"n={len(values)}")


def timed_metrics(reports: list[dict]) -> dict[str, float]:
    """End-to-end medians over the runs that completed.

    Times are host-normalised: each exhibit's seconds are scaled by the
    calibration loop timed around it (``common.host_factor``).  The raw
    host seconds are printed beside them.
    """
    done = [report for report in reports if "wall_s" in report]
    if not done:
        return {}
    factors = [common.host_factor(r["calibration_s"]) for r in done]
    raw = {
        "wall_s": [r["wall_s"] for r in done],
        "setup_s": [r["setup_s"] for r in done],
        "simulate_s": [r["simulate_s"] for r in done],
        "calibration_s": [r["calibration_s"] for r in done],
    }
    for name, values in raw.items():
        print(describe(f"raw {name}", values))
    series = {
        "wall_s": [r["wall_s"] * f for r, f in zip(done, factors)],
        "setup_s": [r["setup_s"] * f for r, f in zip(done, factors)],
        "records_per_s": [r["lane_records"] / (r["simulate_s"] * f)
                          for r, f in zip(done, factors)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    for name, values in series.items():
        print(describe(name, values))
    return {name: statistics.median(values)
            for name, values in series.items()}


def timed_run(args, work: str, reference: dict) -> tuple[dict, list]:
    """Cold exhibits, one per fresh process, for ``--seconds``."""
    reports = []
    started = time.monotonic()
    while (len(reports) < MIN_REPS
           or time.monotonic() - started < args.seconds):
        report = exhibit_once(args.workload, args.seed, work, reference)
        reports.append(report)
        print(f"exhibit {len(reports)}: wall_s={report.get('wall_s')} "
              f"calibration_s={report.get('calibration_s')} "
              f"failed_cells={len(report['failed_cells'])}")
    return timed_metrics(reports), reports


def traced_run(args, work: str, reference: dict) -> tuple[dict, list]:
    """One untraced exhibit, then the traced run (``traced.py``)."""
    untraced = exhibit_once(args.workload, args.seed, work, reference)
    store = tempfile.mkdtemp(dir=work, prefix="store-")
    spans_out = common.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
    try:
        traced = run_child("traced.py", ["--workload", args.workload,
                                         "--seed", str(args.seed),
                                         "--store", store,
                                         "--spans-out", str(spans_out)])
    finally:
        shutil.rmtree(store, ignore_errors=True)
    traced["failed_cells"] = oracle.failures(reference, traced)
    if "per_layer" not in traced or "wall_s" not in untraced:
        return {}, [untraced, traced]
    values = dict(traced["per_layer"])
    # ``traced_wall_s`` is the traced exhibit alone, without the warm
    # replay on the filled store that only the traced run makes.  Both
    # sides are host-normalised, like the end-to-end times.
    values["trace.overhead_s"] = (
        traced["traced_wall_s"] * common.host_factor(traced["calibration_s"])
        - untraced["wall_s"] * common.host_factor(untraced["calibration_s"]))
    return values, [untraced, traced]


def _terminate(signum, frame):
    # Unwinds through the ``finally`` blocks that stop child processes.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time and trace one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.source_present():
        print(f"no simulator sources under {common.SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    common.setup()
    print(host_line())
    common.WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=common.WORK_DIR, prefix="run-")
    try:
        before = leftovers()
        reference = reference_for(args.workload, args.seed)
        run = traced_run if args.trace else timed_run
        values, reports = run(args, work, reference)
        problems = hermetic_problems(before, leftovers())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(common.WORK_DIR.iterdir()):
            common.WORK_DIR.rmdir()
    attempted = len(reference["cells"]) * len(reports)
    failed = sum(len(report["failed_cells"]) for report in reports)
    if args.trace and values:
        values["failed_cell_ratio"] = failed / attempted
        problems += reports[-1].get("findings", [])
    wanted = metric_defs.PER_LAYER if args.trace else metric_defs.END_TO_END
    missing = sorted(set(wanted) - set(values))
    if missing:
        errors = [report["error"] for report in reports if "error" in report]
        print(f"no result: {errors}; metrics missing: {missing}",
              file=sys.stderr)
        return 1
    for report in reports:
        for cell_id, reason in sorted(report["failed_cells"].items()):
            problems.append(f"cell {cell_id}: {reason}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(host_line())
    common.emit({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
