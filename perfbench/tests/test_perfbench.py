"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402

common.setup()

import metrics  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128


def test_benchmark_json_lists_the_emitted_metrics():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(common.WORKLOAD_NAMES)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workload_table_matches_names():
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == common.WORKLOAD_NAMES
    for workload in WORKLOADS.values():
        ids = [cell.cell_id for cell in workload.cells]
        assert len(set(ids)) == len(ids)


def _run_exhibit(name: str, seed: int, store_dir: Path) -> dict:
    from repro.harness.runner import ExperimentRunner
    from repro.harness.store import ResultStore

    from exhibit import observe
    from workloads import SCALE, WORKLOADS, BenchCache

    workload = WORKLOADS[name]
    cache = BenchCache(trace_seed=seed)
    runner = ExperimentRunner(scale=SCALE, seed=seed, cache=cache,
                              store=ResultStore(store_dir), jobs=1)
    workload.exhibit(runner)
    return observe(runner, cache, workload, seed)


@pytest.fixture(scope="module")
def attrib_run(tmp_path_factory) -> dict:
    return _run_exhibit("oracle-attrib", common.DEFAULT_SEED,
                        tmp_path_factory.mktemp("store"))


def test_committed_reference_matches(attrib_run):
    reference = oracle.load_committed("oracle-attrib")
    assert oracle.failures(reference, attrib_run) == {}


def test_tampered_digest_fails_the_cell(attrib_run):
    reference = copy.deepcopy(oracle.load_committed("oracle-attrib"))
    cell_id = next(iter(reference["cells"]))
    reference["cells"][cell_id]["stats"] = "0" * 64
    failed = oracle.failures(reference, attrib_run)
    assert set(failed) == {cell_id}
    assert len(failed) / len(reference["cells"]) == 1.0


def test_tampered_fingerprint_and_violations_fail(attrib_run):
    reference = oracle.load_committed("oracle-attrib")
    (cell_id,) = reference["cells"]
    observed = copy.deepcopy(attrib_run)
    observed["fingerprints"]["voter"] = "f" * 64
    assert "fingerprint" in oracle.failures(reference, observed)[cell_id]
    observed = copy.deepcopy(attrib_run)
    observed["cells"][cell_id]["violations"] = ["btb_lookups"]
    assert "invariants" in oracle.failures(reference, observed)[cell_id]
    assert "raised" in oracle.failures(reference, {"error": "boom"})[cell_id]


def test_held_out_seed(tmp_path):
    """Seed 1 gives other traces, and the kernel still matches the
    oracle on them."""
    reference = oracle.compute_reference("oracle-attrib", 1)
    committed = oracle.load_committed("oracle-attrib")
    assert reference["fingerprints"]["voter"] \
        != committed["fingerprints"]["voter"]
    observed = _run_exhibit("oracle-attrib", 1, tmp_path)
    assert oracle.failures(reference, observed) == {}


def test_spans_nest_with_non_negative_self_time():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.problems() == []
    assert all(tracer.self_s(record) >= 0 for record in tracer.spans)
    assert [r["parent"] for r in tracer.spans] == [None, 0, 1, 0]
    assert tracer.self_s(root) <= tracer.duration_s(root)


def test_span_problems_are_reported():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child") as child:
            pass
    child["end_ns"] = tracer.spans[0]["end_ns"] + 1
    assert any("outside parent" in p for p in tracer.problems())
    open_tracer = Tracer()
    open_tracer.spans.append({"id": 0, "name": "x", "parent": None,
                              "start_ns": 0, "end_ns": None})
    assert open_tracer.problems() == ["x#0: never closed"]


def test_predictor_replay_matches_simulated_counters():
    """The replay trains one predictor of each record's kind, as the BPU
    does on every path, so its counts equal the lane's SimStats."""
    from repro.frontend.config import FrontEndConfig, SkiaConfig
    from repro.frontend.engine import FrontEndSimulator

    from traced import PREDICTOR_COUNTERS, replay_predictor
    from workloads import BenchCache

    cache = BenchCache(trace_seed=3)
    program = cache.program("voter", seed=3)
    compiled = cache.compiled("voter", 3000, seed=3)
    config = FrontEndConfig(skia=SkiaConfig())
    simulator = FrontEndSimulator(program, config, seed=3)
    stats = simulator.run_compiled(compiled, warmup=1000)
    counts = replay_predictor(compiled.decode_table(config.line_size),
                              config, seed=3, warmup=1000)
    assert {name: counts[name] for name in PREDICTOR_COUNTERS} \
        == {name: getattr(stats, name) for name in PREDICTOR_COUNTERS}


def test_oracle_steps_every_record():
    from repro.workloads.compiled import fastforward_enabled

    assert fastforward_enabled()
    with oracle.fastforward_off():
        assert not fastforward_enabled()
    assert fastforward_enabled()


def test_hermetic_check_sees_overwrites(tmp_path, monkeypatch):
    """Changing a file already in ``.repro_cache`` fails the run, not
    only adding one."""
    import run

    monkeypatch.setattr(common, "ROOT", tmp_path)
    entry = tmp_path / ".repro_cache" / "store" / "cell.json"
    entry.parent.mkdir(parents=True)
    entry.write_text("{}")
    before = run.leftovers()
    assert not any(".repro_cache" in problem for problem
                   in run.hermetic_problems(before, run.leftovers()))
    entry.write_text('{"appended": 1}')
    assert any(".repro_cache" in problem for problem
               in run.hermetic_problems(before, run.leftovers()))


def test_times_are_host_normalised():
    """An exhibit timed while the calibration loop ran twice as slow as
    the reference counts half its host seconds; memory is not scaled."""
    import run

    report = {"wall_s": 10.0, "setup_s": 2.0, "simulate_s": 5.0,
              "calibration_s": 2 * common.REFERENCE_CALIBRATION_S,
              "peak_rss_mb": 100.0, "lane_records": 1000}
    values = run.timed_metrics([report])
    assert values["wall_s"] == pytest.approx(5.0)
    assert values["setup_s"] == pytest.approx(1.0)
    assert values["records_per_s"] == pytest.approx(1000 / 2.5)
    assert values["peak_rss_mb"] == 100.0
