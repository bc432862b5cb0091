"""CompiledTrace: lowering, serialisation, sharing, cache lifecycle."""

import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.workloads.cache import WorkloadCache
from repro.workloads.compiled import (
    CORE_COLUMNS,
    KIND_BY_CODE,
    CompiledTrace,
    compile_trace,
    default_spill_dir,
    shared_memory_available,
)
from repro.workloads.trace import TraceGenerator


@pytest.fixture(scope="module")
def compiled(micro_trace):
    return compile_trace(micro_trace)


class TestCompilation:
    def test_round_trip(self, micro_trace, compiled):
        assert compiled.n_records == len(micro_trace)
        assert compiled.records() == micro_trace

    def test_columns_are_int64(self, compiled):
        for name in CORE_COLUMNS:
            column = compiled.column(name)
            assert isinstance(column, array)
            assert column.itemsize == 8

    def test_kind_and_taken_encoding(self, micro_trace, compiled):
        kinds = compiled.column("kind")
        taken = compiled.column("taken")
        for index in (0, 17, len(micro_trace) - 1):
            record = micro_trace[index]
            assert KIND_BY_CODE[kinds[index]] is record.kind
            assert bool(taken[index]) is record.taken

    def test_len(self, micro_trace, compiled):
        assert len(compiled) == len(micro_trace)

    def test_deterministic_fingerprint(self, micro_trace):
        assert (compile_trace(micro_trace).fingerprint
                == compile_trace(micro_trace).fingerprint)

    def test_different_traces_different_fingerprints(self, micro_program,
                                                     compiled):
        other = TraceGenerator(micro_program, seed=99).records(100)
        assert compile_trace(other).fingerprint != compiled.fingerprint


class TestDerivedColumns:
    @pytest.mark.parametrize("line_size", [32, 64, 128])
    def test_matches_per_record_arithmetic(self, micro_trace, compiled,
                                           line_size):
        first_line, n_lines = compiled.derived(line_size)
        mask = ~(line_size - 1)
        for index in range(0, len(micro_trace), 97):
            record = micro_trace[index]
            first = record.block_start & mask
            last = (record.branch_pc + record.branch_len - 1) & mask
            assert first_line[index] == first
            assert n_lines[index] == (last - first) // line_size + 1

    def test_memoised_per_instance(self, compiled):
        assert compiled.derived(32) is compiled.derived(32)

    def test_rejects_non_power_of_two(self, compiled):
        with pytest.raises(ValueError):
            compiled.derived(48)


class TestSerialisation:
    def test_buffer_round_trip(self, micro_trace, compiled):
        view = CompiledTrace.from_buffer(compiled.to_bytes())
        try:
            assert view.fingerprint == compiled.fingerprint
            assert view.n_records == compiled.n_records
            for name in CORE_COLUMNS:
                assert list(view.column(name)) == list(compiled.column(name))
            # The precompiled 64-byte derived columns ship in the buffer.
            assert list(view.derived(64)[1]) == list(compiled.derived(64)[1])
            assert view.records()[:50] == micro_trace[:50]
        finally:
            view.close()

    def test_views_are_zero_copy(self, compiled):
        payload = bytearray(compiled.to_bytes())
        view = CompiledTrace.from_buffer(payload)
        try:
            assert isinstance(view.column("block_start"), memoryview)
        finally:
            view.close()

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            CompiledTrace.from_buffer(b"NOPE" + bytes(64))

    def test_nbytes_is_exact(self, compiled):
        assert compiled.nbytes() == len(compiled.to_bytes())

    def test_cross_process_byte_identity(self, tmp_path):
        """Same (program, seed) compiles to the same bytes anywhere."""
        script = (
            "from repro.workloads import build_trace, compile_trace\n"
            "records = build_trace('noop', 2000, seed=3)\n"
            "print(compile_trace(records).fingerprint)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True)
        from repro.workloads import build_trace
        local = compile_trace(build_trace("noop", 2000, seed=3))
        assert result.stdout.strip() == local.fingerprint


@pytest.mark.skipif(not shared_memory_available(),
                    reason="no shared memory on this platform")
class TestSharedMemory:
    def test_shared_ref_and_attach(self, micro_trace, compiled):
        ref = compiled.shared_ref()
        assert ref[0] == "shm"
        assert compiled.shared_ref() == ref  # published once, reused
        attached = CompiledTrace.attach(ref)
        try:
            assert attached.fingerprint == compiled.fingerprint
            assert attached.records()[:20] == micro_trace[:20]
        finally:
            attached.close()

    def test_close_unlinks_segment(self, micro_trace):
        from multiprocessing import shared_memory

        trace = compile_trace(micro_trace[:500])
        kind, name = trace.shared_ref()
        assert kind == "shm"
        trace.close()
        assert trace.closed
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self, micro_trace):
        trace = compile_trace(micro_trace[:100])
        trace.shared_ref()
        trace.close()
        trace.close()


class TestSpill:
    def test_spill_is_content_addressed(self, micro_trace, tmp_path):
        trace = compile_trace(micro_trace[:300])
        path = trace.spill(tmp_path)
        assert path.name == f"{trace.fingerprint}.ctrace"
        # Re-spilling reuses the file.
        assert trace.spill(tmp_path) == path
        attached = CompiledTrace.attach(("file", str(path)))
        try:
            assert attached.fingerprint == trace.fingerprint
        finally:
            attached.close()
            trace.close()

    def test_default_spill_dir_follows_cache_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_spill_dir() == Path("/tmp/somewhere/compiled")

    def test_attach_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CompiledTrace.attach(("carrier-pigeon", "x"))


class TestCacheLifecycle:
    def test_compiled_is_memoised(self):
        cache = WorkloadCache()
        first = cache.compiled("noop", 1000)
        assert cache.compiled("noop", 1000) is first
        stats = cache.stats()["compiled"]
        assert (stats.hits, stats.misses) == (1, 1)
        cache.clear()

    def test_eviction_closes_and_unlinks(self):
        """LRU displacement must release the shared-memory segment."""
        from multiprocessing import shared_memory

        cache = WorkloadCache(max_traces=1)
        first = cache.compiled("noop", 500)
        kind, name = first.shared_ref()
        assert kind == "shm"
        cache.compiled("noop", 600)  # displaces the first entry
        assert first.closed
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        cache.clear()

    def test_clear_closes_compiled_traces(self):
        cache = WorkloadCache()
        trace = cache.compiled("noop", 400)
        cache.clear()
        assert trace.closed

    def test_closed_entry_is_recompiled(self):
        cache = WorkloadCache()
        first = cache.compiled("noop", 400)
        first.close()
        again = cache.compiled("noop", 400)
        assert again is not first and not again.closed
        cache.clear()

    def test_no_leaked_shm_after_cache_teardown(self, micro_trace):
        import glob

        before = set(glob.glob("/dev/shm/repro_ctrace_*"))
        cache = WorkloadCache(max_traces=1)
        cache.compiled("noop", 500).shared_ref()
        cache.compiled("noop", 600).shared_ref()
        cache.clear()
        leaked = set(glob.glob("/dev/shm/repro_ctrace_*")) - before
        assert not leaked
