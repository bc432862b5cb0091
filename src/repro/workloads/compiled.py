"""Compiled traces: the flat-array fast path for trace replay.

A generated trace is a list of :class:`~repro.workloads.trace.BlockRecord`
dataclass instances.  Replaying it is the simulator's hot loop, and a grid
run replays the *same* trace through dozens of configurations -- so the
object representation pays its attribute-access and per-record arithmetic
tax over and over, and every parallel worker used to re-generate the trace
from scratch in its own process.

:class:`CompiledTrace` lowers a trace **once** into columnar
``array('q')`` storage:

* one 64-bit column per :class:`BlockRecord` field (``kind`` as a small
  integer code, ``taken`` as 0/1), laid out contiguously so the whole
  trace serialises to a single buffer;
* precomputed *derived* columns keyed by cache-line size -- the branch
  line address, the block's first line and its line count -- which the
  engine's per-record prefetch arithmetic otherwise recomputes for every
  (workload, config) cell;
* a content fingerprint (SHA-256 over the column bytes), so byte-identity
  of two compilations of the same (program, seed) is checkable across
  processes.

The single-buffer layout buys **zero-copy distribution**: the compiling
process publishes the buffer in a :mod:`multiprocessing.shared_memory`
segment (or, where POSIX shared memory is unavailable, spills it to a
``.ctrace`` file under the cache directory) and workers attach read-only
views instead of re-generating or unpickling anything.  A grid run
generates each trace exactly once per host.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import secrets
import struct
import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Sequence

from repro.isa.branch import BranchKind
from repro.obs.profiler import PROFILER
from repro.workloads.trace import BlockRecord

try:  # numpy accelerates decode-table construction; plain Python works.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

#: Wire order of the branch-kind codes.  The compiled ``kind`` column
#: stores indices into this tuple; the header records the names so a
#: buffer compiled by a different vocabulary can never be misread.
KIND_BY_CODE: tuple[BranchKind, ...] = tuple(BranchKind)
CODE_BY_KIND: dict[BranchKind, int] = {
    kind: code for code, kind in enumerate(KIND_BY_CODE)}

#: Core columns, in buffer order; one per BlockRecord field.
CORE_COLUMNS: tuple[str, ...] = (
    "block_start", "n_instr", "branch_pc", "branch_len", "kind",
    "taken", "target", "fallthrough", "next_pc")

#: Derived columns materialised per line size, in buffer order.
DERIVED_COLUMNS: tuple[str, ...] = ("first_line", "n_lines")

#: Line sizes whose derived columns are precomputed at compile time
#: (every stock configuration uses 64-byte lines; other sizes are
#: derived lazily per process and never shipped).
DEFAULT_LINE_SIZES: tuple[int, ...] = (64,)

_MAGIC = b"CTRC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sII")  # magic, format version, json length

_ITEM = array("q").itemsize
assert _ITEM == 8, "compiled traces require 64-bit array('q') items"


def batch_enabled() -> bool:
    """Whether the batched simulation kernel may be used (default on).

    ``REPRO_BATCH=0`` forces every cell down the per-record oracle loop.
    The flag lives here rather than in ``frontend`` because
    :meth:`CompiledTrace.from_records` consults it and ``workloads`` must
    not import ``frontend``.
    """
    return os.environ.get("REPRO_BATCH", "").lower() not in (
        "0", "false", "no", "off")


# Gates nothing; read only by perfbench/tests/test_perfbench.py.
def fastforward_enabled() -> bool:
    return os.environ.get("REPRO_FASTFORWARD", "").lower() not in (
        "0", "false", "no", "off")


def _shared_memory_module():
    """The stdlib shared-memory module, or None where unsupported."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - non-POSIX fallback path
        return None
    return shared_memory


def shared_memory_available() -> bool:
    """True when zero-copy segments can be created on this platform."""
    return _shared_memory_module() is not None


def _unregister_from_resource_tracker(name: str) -> None:
    """Detach a worker-side segment from the resource tracker.

    Attaching registers the segment with the per-process tracker (until
    Python 3.13's ``track=False``), which would unlink it when the
    *worker* exits even though the owner still serves other workers.
    """
    try:  # pragma: no cover - tracker internals, best effort
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


#: Owned (created, not attached) segments still alive in this process;
#: unlinked at interpreter exit so a crashed grid run cannot leak
#: /dev/shm segments past process lifetime.
_LIVE_OWNED: dict[int, "CompiledTrace"] = {}


def _cleanup_owned_segments() -> None:  # pragma: no cover - atexit path
    for trace in list(_LIVE_OWNED.values()):
        trace.close()


atexit.register(_cleanup_owned_segments)


class TraceDecodeTable:
    """Fully decoded per-record columns for the batched kernel.

    The compiled columns are int64 buffers; the per-record loop still
    pays to re-derive booleans, kind objects and line arithmetic from
    them on every (config, seed) lane.  This table decodes a trace
    **once per (trace, line_size)** into plain Python lists -- the
    fastest thing to index from an interpreted loop -- so every lane
    that shares the trace shares the decode:

    ``kind``            :class:`BranchKind` objects (not codes);
    ``taken``           bools;
    ``exit_pc``         ``branch_pc + branch_len`` (the tail-decode
                        boundary Skia probes on taken exits);
    ``branch_line``     ``branch_pc & ~(line_size-1)`` (the residency
                        probe the BPU makes per record);
    ``entry_offset``    ``block_start % line_size`` (zero means head
                        decode is structurally skipped);
    ``tail_aligned``    ``exit_pc % line_size == 0`` (true means tail
                        decode is structurally a no-op).

    Tables derive purely from the content-addressed columns, so the
    existing fingerprint is their invalidation rule: new trace bytes
    mean a new ``CompiledTrace`` and therefore fresh tables.  They are
    never serialised -- a worker attaching a shared buffer rebuilds its
    table lazily on first batched use.
    """

    __slots__ = ("n_records", "line_size", "block_start", "n_instr",
                 "branch_pc", "exit_pc", "kind", "kind_code", "taken",
                 "target", "fallthrough", "next_pc", "first_line",
                 "n_lines", "branch_line", "entry_offset", "tail_aligned",
                 "_lane_cols")

    def __init__(self, trace: "CompiledTrace", line_size: int):
        self.n_records = n = trace.n_records
        self.line_size = line_size
        first_line, n_lines = trace.derived(line_size)
        col = trace.column
        if _np is not None:
            i64 = lambda c: _np.frombuffer(c, dtype=_np.int64)  # noqa: E731
            block_start = i64(col("block_start"))
            branch_pc = i64(col("branch_pc"))
            exit_pc = branch_pc + i64(col("branch_len"))
            mask = ~(line_size - 1)
            self.block_start = block_start.tolist()
            self.n_instr = i64(col("n_instr")).tolist()
            self.branch_pc = branch_pc.tolist()
            self.exit_pc = exit_pc.tolist()
            codes = i64(col("kind")).tolist()
            self.taken = i64(col("taken")).astype(bool).tolist()
            self.target = i64(col("target")).tolist()
            self.fallthrough = i64(col("fallthrough")).tolist()
            self.next_pc = i64(col("next_pc")).tolist()
            self.first_line = i64(first_line).tolist()
            self.n_lines = i64(n_lines).tolist()
            self.branch_line = (branch_pc & mask).tolist()
            self.entry_offset = (block_start & (line_size - 1)).tolist()
            self.tail_aligned = (exit_pc & (line_size - 1) == 0).tolist()
        else:
            mask = ~(line_size - 1)
            self.block_start = list(col("block_start"))
            self.n_instr = list(col("n_instr"))
            self.branch_pc = list(col("branch_pc"))
            self.exit_pc = [pc + ln for pc, ln in
                            zip(col("branch_pc"), col("branch_len"))]
            codes = list(col("kind"))
            self.taken = [bool(t) for t in col("taken")]
            self.target = list(col("target"))
            self.fallthrough = list(col("fallthrough"))
            self.next_pc = list(col("next_pc"))
            self.first_line = list(first_line)
            self.n_lines = list(n_lines)
            self.branch_line = [pc & mask for pc in self.branch_pc]
            self.entry_offset = [s & (line_size - 1)
                                 for s in self.block_start]
            self.tail_aligned = [pc & (line_size - 1) == 0
                                 for pc in self.exit_pc]
        kinds = KIND_BY_CODE
        self.kind = [kinds[code] for code in codes]
        # Codes alongside objects: the kernel's per-kind flag tables and
        # counter accumulators index by small int, avoiding enum hashing.
        self.kind_code = codes
        # Geometry-dependent index columns (BTB set/tag, L1 set numbers)
        # and predictor-outcome columns, cached per structure geometry
        # and predictor key by repro.frontend.batch.
        self._lane_cols: dict = {}


class CompiledTrace:
    """Columnar, shareable lowering of one materialised trace.

    Construct via :meth:`from_records` (compilation), :meth:`from_buffer`
    (zero-copy view over a serialised buffer), :meth:`attach` (worker side
    of a shared ref) or ``WorkloadCache.compiled`` (memoised).  Instances
    are immutable after construction; ``close()`` releases any buffer
    views and shared-memory handles (owner side also unlinks).
    """

    def __init__(self, n_records: int, columns: dict[str, Sequence[int]],
                 derived: dict[int, tuple[Sequence[int], Sequence[int]]],
                 fingerprint: str):
        self.n_records = n_records
        self._columns = columns
        self._derived = dict(derived)
        self._decode_tables: dict[int, TraceDecodeTable] = {}
        self.fingerprint = fingerprint
        self._views: list[memoryview] = []
        self._shm = None          # attached or owned SharedMemory
        self._owns_shm = False
        self._shared_ref: tuple[str, str] | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[BlockRecord],
                     line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
                     ) -> "CompiledTrace":
        """Lower ``records`` into flat columns (one pass)."""
        with PROFILER.section("trace.compile"):
            cols = {name: array("q") for name in CORE_COLUMNS}
            block_start = cols["block_start"].append
            n_instr = cols["n_instr"].append
            branch_pc = cols["branch_pc"].append
            branch_len = cols["branch_len"].append
            kind = cols["kind"].append
            taken = cols["taken"].append
            target = cols["target"].append
            fallthrough = cols["fallthrough"].append
            next_pc = cols["next_pc"].append
            code_of = CODE_BY_KIND
            n = 0
            for record in records:
                block_start(record.block_start)
                n_instr(record.n_instr)
                branch_pc(record.branch_pc)
                branch_len(record.branch_len)
                kind(code_of[record.kind])
                taken(1 if record.taken else 0)
                target(record.target)
                fallthrough(record.fallthrough)
                next_pc(record.next_pc)
                n += 1
            trace = cls(n, cols, {}, cls._fingerprint_of(n, cols))
            for line_size in line_sizes:
                trace.derived(line_size)
                if batch_enabled():
                    trace.decode_table(line_size)
        return trace

    @staticmethod
    def _fingerprint_of(n: int, columns: dict[str, Sequence[int]]) -> str:
        digest = hashlib.sha256()
        digest.update(str(n).encode())
        for name in CORE_COLUMNS:
            digest.update(name.encode())
            column = columns[name]
            digest.update(column.tobytes() if isinstance(column, array)
                          else bytes(column))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column(self, name: str) -> Sequence[int]:
        """One core column (an ``array('q')`` or an int64 memoryview)."""
        return self._columns[name]

    def derived(self, line_size: int) -> tuple[Sequence[int], Sequence[int]]:
        """``(first_line, n_lines)`` columns for ``line_size``.

        Precompiled sizes return the stored (possibly shared) columns;
        other sizes are computed once per instance and memoised.  The
        arithmetic is exactly the engine's historical per-record code::

            first_line = block_start & ~(line_size - 1)
            last_line  = (branch_pc + branch_len - 1) & ~(line_size - 1)
            n_lines    = (last_line - first_line) // line_size + 1
        """
        cached = self._derived.get(line_size)
        if cached is not None:
            return cached
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, "
                             f"got {line_size}")
        line_mask = ~(line_size - 1)
        first_line = array("q")
        n_lines = array("q")
        append_first = first_line.append
        append_n = n_lines.append
        branch_pc = self._columns["branch_pc"]
        branch_len = self._columns["branch_len"]
        block_start = self._columns["block_start"]
        for index in range(self.n_records):
            first = block_start[index] & line_mask
            last = (branch_pc[index] + branch_len[index] - 1) & line_mask
            append_first(first)
            append_n((last - first) // line_size + 1)
        self._derived[line_size] = (first_line, n_lines)
        return self._derived[line_size]

    def decode_table(self, line_size: int) -> TraceDecodeTable:
        """The memoised :class:`TraceDecodeTable` for ``line_size``.

        Built once per (instance, line size) -- for the stock sizes at
        compile time when the batched kernel is enabled, lazily
        otherwise -- and shared by every lane replaying this trace.
        """
        table = self._decode_tables.get(line_size)
        if table is None:
            if PROFILER.enabled:
                with PROFILER.section("trace.decode_table"):
                    table = TraceDecodeTable(self, line_size)
            else:
                table = TraceDecodeTable(self, line_size)
            self._decode_tables[line_size] = table
        return table

    def records(self) -> list[BlockRecord]:
        """Re-materialise the object representation (tests, tooling)."""
        cols = [self._columns[name] for name in CORE_COLUMNS]
        kinds = KIND_BY_CODE
        out = []
        for i in range(self.n_records):
            (block_start, n_instr, branch_pc, branch_len, kind, taken,
             target, fallthrough, next_pc) = (col[i] for col in cols)
            out.append(BlockRecord(
                block_start=block_start, n_instr=n_instr,
                branch_pc=branch_pc, branch_len=branch_len,
                kind=kinds[kind], taken=bool(taken), target=target,
                fallthrough=fallthrough, next_pc=next_pc))
        return out

    def __len__(self) -> int:
        return self.n_records

    # ------------------------------------------------------------------
    # Serialisation: single buffer, zero-copy readable
    # ------------------------------------------------------------------

    def _precompiled_line_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self._derived))

    def nbytes(self) -> int:
        """Exact size of :meth:`to_bytes` output."""
        line_sizes = self._precompiled_line_sizes()
        n_columns = len(CORE_COLUMNS) + len(DERIVED_COLUMNS) * len(line_sizes)
        header = self._header_bytes(line_sizes)
        return len(header) + n_columns * self.n_records * _ITEM

    def _header_bytes(self, line_sizes: Sequence[int]) -> bytes:
        meta = {
            "n": self.n_records,
            "columns": list(CORE_COLUMNS),
            "derived": list(DERIVED_COLUMNS),
            "line_sizes": list(line_sizes),
            "kinds": [kind.name for kind in KIND_BY_CODE],
            "fingerprint": self.fingerprint,
        }
        blob = json.dumps(meta, sort_keys=True).encode()
        prefix = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(blob))
        header = prefix + blob
        pad = (-len(header)) % _ITEM  # 8-align the column region
        return header + b"\0" * pad

    def _iter_column_arrays(self, line_sizes: Sequence[int]):
        for name in CORE_COLUMNS:
            yield self._columns[name]
        for line_size in line_sizes:
            first_line, n_lines = self.derived(line_size)
            yield first_line
            yield n_lines

    def to_bytes(self) -> bytes:
        """Serialise header + columns into one buffer."""
        line_sizes = self._precompiled_line_sizes()
        parts = [self._header_bytes(line_sizes)]
        for column in self._iter_column_arrays(line_sizes):
            parts.append(column.tobytes() if isinstance(column, array)
                         else bytes(column))
        return b"".join(parts)

    @classmethod
    def from_buffer(cls, buffer) -> "CompiledTrace":
        """Zero-copy view over a buffer produced by :meth:`to_bytes`.

        The returned trace's columns are int64 memoryviews into
        ``buffer``; nothing is copied.  The caller keeps the buffer (or
        its shared-memory segment) alive; ``close()`` releases the views.
        """
        view = memoryview(buffer)
        magic, version, meta_len = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError("not a compiled trace buffer")
        if version != _FORMAT_VERSION:
            raise ValueError(f"compiled trace format {version}; "
                             f"this build reads {_FORMAT_VERSION}")
        meta_start = _HEADER.size
        meta = json.loads(bytes(view[meta_start:meta_start + meta_len]))
        if meta["columns"] != list(CORE_COLUMNS) or \
                meta["kinds"] != [kind.name for kind in KIND_BY_CODE]:
            raise ValueError("compiled trace schema does not match this "
                             "build's column/kind vocabulary")
        n = meta["n"]
        offset = meta_start + meta_len
        offset += (-offset) % _ITEM
        column_bytes = n * _ITEM

        views: list[memoryview] = []

        def take() -> memoryview:
            nonlocal offset
            column = view[offset:offset + column_bytes].cast("q")
            views.append(column)
            offset += column_bytes
            return column

        columns = {name: take() for name in CORE_COLUMNS}
        derived = {}
        for line_size in meta["line_sizes"]:
            derived[line_size] = (take(), take())
        trace = cls(n, columns, derived, meta["fingerprint"])
        trace._views = views
        trace._views.append(view)
        return trace

    # ------------------------------------------------------------------
    # Zero-copy sharing
    # ------------------------------------------------------------------

    def shared_ref(self, spill_dir: str | os.PathLike | None = None,
                   ) -> tuple[str, str]:
        """Publish this trace for other processes; returns ``(kind, ref)``.

        ``("shm", name)`` -- a POSIX shared-memory segment holding the
        serialised buffer; workers attach with :meth:`attach` and read
        the columns in place.  Created once per instance and reused for
        every later batch; :meth:`close` (or cache eviction, or interpreter
        exit) unlinks it.

        ``("file", path)`` -- the fallback where shared memory is
        unavailable: the buffer is spilled to ``<spill_dir>/<fp>.ctrace``
        and workers map it read-only (page-cache shared).
        """
        if self._shared_ref is not None:
            return self._shared_ref
        shared_memory = _shared_memory_module()
        if shared_memory is not None:
            payload = self.to_bytes()
            name = f"repro_ctrace_{os.getpid():x}_{secrets.token_hex(6)}"
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=len(payload))
            shm.buf[:len(payload)] = payload
            self._shm = shm
            self._owns_shm = True
            _LIVE_OWNED[id(self)] = self
            self._shared_ref = ("shm", shm.name)
        else:  # pragma: no cover - exercised via the spill_path tests
            self._shared_ref = ("file", str(self.spill(spill_dir)))
        return self._shared_ref

    def spill(self, spill_dir: str | os.PathLike | None = None) -> Path:
        """Write the serialised buffer to the compiled-trace spill area.

        Content-addressed by fingerprint, written atomically; an existing
        spill for the same fingerprint is reused as-is.  ``make clean``
        sweeps the directory.
        """
        root = Path(spill_dir) if spill_dir is not None else \
            default_spill_dir()
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.fingerprint}.ctrace"
        if path.exists():
            return path
        descriptor, tmp_name = tempfile.mkstemp(
            dir=root, prefix=".tmp-", suffix=".ctrace")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(self.to_bytes())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def attach(cls, ref: tuple[str, str]) -> "CompiledTrace":
        """Worker side of :meth:`shared_ref`: map and view, no copy."""
        kind, location = ref
        with PROFILER.section("trace.attach"):
            if kind == "shm":
                shared_memory = _shared_memory_module()
                if shared_memory is None:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "shared memory unavailable in this process")
                shm = shared_memory.SharedMemory(name=location)
                # Attaching re-registers the segment with this process's
                # resource tracker, which would unlink it when *this*
                # process exits even though the owner is still serving
                # other workers.  Detach the registration -- except when
                # the owner is this very process (tests attach in-process;
                # the owner's registration must survive so unlink pairs).
                owned_here = any(
                    trace._shared_ref == ref
                    for trace in _LIVE_OWNED.values())
                if not owned_here:
                    _unregister_from_resource_tracker(location)
                trace = cls.from_buffer(shm.buf)
                trace._shm = shm
                return trace
            if kind == "file":
                # One read into process memory; the OS page cache shares
                # the underlying bytes between workers on re-reads.
                return cls.from_buffer(Path(location).read_bytes())
        raise ValueError(f"unknown compiled-trace ref kind {kind!r}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release buffer views and shared-memory handles.

        Owner side also unlinks the segment, so after ``close()`` no
        ``/dev/shm`` handle survives (the cache-eviction contract).
        Idempotent; a closed trace must not be used again.
        """
        if self._closed:
            return
        self._closed = True
        for view in self._views:
            view.release()
        self._views = []
        self._columns = {}
        self._derived = {}
        self._decode_tables = {}
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()
            if self._owns_shm:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - raced
                    pass
                _LIVE_OWNED.pop(id(self), None)
        self._shared_ref = None

    @property
    def closed(self) -> bool:
        return self._closed


def default_spill_dir() -> Path:
    """Spill area for the no-shared-memory fallback.

    Lives under the result-store root (``REPRO_CACHE_DIR``, default
    ``.repro_cache``) in a ``compiled/`` subdirectory so ``make clean``
    and ``make clean-cache`` sweep it with the store.
    """
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(root) / "compiled"


def compile_trace(records: Iterable[BlockRecord],
                  line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
                  ) -> CompiledTrace:
    """Convenience wrapper over :meth:`CompiledTrace.from_records`."""
    return CompiledTrace.from_records(records, line_sizes=line_sizes)
