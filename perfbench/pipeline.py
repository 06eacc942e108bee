"""The two measured stages: capture (sync to a trace file) and the trace
passes (analysis bundle, then replay into memdb and into the LSM).

Each stage can run plain, for end-to-end numbers, or with a
:class:`~perfbench.layers.Tracer` wrapped around its layers, for
per-layer numbers.  Both check their own outputs and report what failed.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter
from typing import Optional

import repro.core.parallel
import repro.replay.engine
from repro import rlp
from repro.core.analysis import TraceAnalysis
from repro.core.trace import OpType, write_trace_v2
from repro.gethdb import schema
from repro.gethdb.database import DBConfig, GethDatabase
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memdb import MemoryKVStore
from repro.obs import MetricsRegistry
from repro.replay.engine import ReplayConfig, replay_trace
from repro.sync.driver import FullSyncDriver, SyncConfig
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from perfbench.layers import (
    LatencyStore,
    StampStore,
    TimedStore,
    Tracer,
    instrument_sync_driver,
    patched,
)
from perfbench.stats import intervals

#: The `repro sync` defaults: 6,000 EOAs, 700 contracts, 24 txs a block,
#: a 256 KiB CacheTrace budget and 60 untraced warmup blocks.
ACCOUNTS = 6000
CONTRACTS = 700
TXS_PER_BLOCK = 24
CACHE_BYTES = 256 * 1024
WARMUP_BLOCKS = 60


def workload_config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(
        seed=seed,
        initial_eoa_accounts=ACCOUNTS,
        initial_contracts=CONTRACTS,
        txs_per_block=TXS_PER_BLOCK,
    )


class BlockImportFailed(RuntimeError):
    """A block import raised; ``attempted`` counts the window blocks tried."""

    def __init__(self, attempted: int, cause: BaseException) -> None:
        super().__init__(f"block import failed after {attempted} window blocks: {cause!r}")
        self.attempted = attempted


def _cache_totals(db: GethDatabase) -> tuple[int, int, int]:
    hits = misses = evictions = 0
    for stats in db.cache_stats().values():
        hits += int(stats["hits"])
        misses += int(stats["misses"])
        evictions += int(stats["evictions"])
    return hits, misses, evictions


@dataclass
class Capture:
    """One sync run: set-up, measured window, teardown, trace file."""

    mode: str
    blocks: int
    setup_s: float = 0.0
    genesis_s: float = 0.0
    warmup_s: float = 0.0
    window_s: float = 0.0
    #: import_block time of each measured block
    block_s: list[float] = field(default_factory=list)
    #: time from the end of one block import to the end of the next (plan
    #: plus import); these add up to ``window_s``
    block_interval_s: list[float] = field(default_factory=list)
    records: int = 0
    op_counts: dict[str, int] = field(default_factory=dict)
    head_root: bytes = b""
    store_pairs: int = 0
    scanned_pairs: int = 0
    store_snapshot: list = field(default_factory=list)
    trace_path: Optional[Path] = None
    trace_bytes: int = 0
    trace_sha256: str = ""
    write_s: float = 0.0
    # measured-window deltas
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    blocks_frozen: int = 0
    window_records: int = 0
    layer_s: dict[str, float] = field(default_factory=dict)
    layer_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        """Everything but the store snapshot, in JSON types."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["store_snapshot"]
        out["head_root"] = self.head_root.hex()
        out["trace_path"] = str(self.trace_path)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Capture":
        data = dict(data)
        data["head_root"] = bytes.fromhex(data["head_root"])
        data["trace_path"] = Path(data["trace_path"])
        return cls(**data)

    @property
    def blocks_per_s(self) -> float:
        return self.blocks / self.window_s

    @property
    def bytes_per_record(self) -> float:
        return self.trace_bytes / self.records

    @property
    def unattributed_s(self) -> float:
        """Window time that no wrapped layer's self time covers."""
        return self.window_s - sum(self.layer_s.values())


class _WindowClock:
    """Times genesis and each block import; marks the measured window.

    The window starts when the last warmup block has been imported and
    ends when the last measured block has, so it holds the startup reads
    and exactly ``blocks`` plans and imports.
    """

    def __init__(self, driver, capture: Capture, tracer: Optional[Tracer]) -> None:
        self.driver = driver
        self.capture = capture
        self.tracer = tracer
        self.imported = 0
        self.genesis_end = 0.0
        self.window_start = 0.0
        self._last_end = 0.0
        self._mark = None
        self._caches = (0, 0, 0)
        self._frozen = 0
        self._records = 0
        initialize = driver.initialize
        import_block = driver.import_block

        def timed_initialize() -> None:
            start = perf_counter()
            initialize()
            self.genesis_end = perf_counter()
            capture.genesis_s = self.genesis_end - start

        def timed_import(plan):
            start = perf_counter()
            block = import_block(plan)
            end = perf_counter()
            self.imported += 1
            if self.imported > WARMUP_BLOCKS:
                capture.block_s.append(end - start)
                capture.block_interval_s.append(end - self._last_end)
            self._last_end = end
            if self.imported == WARMUP_BLOCKS:
                self._open(end)
            elif self.imported == WARMUP_BLOCKS + capture.blocks:
                self._close(end)
            return block

        driver.initialize = timed_initialize
        driver.import_block = timed_import

    def _open(self, now: float) -> None:
        db = self.driver.db
        self.window_start = now
        self._caches = _cache_totals(db)
        self._frozen = self.driver.freezer.frozen_blocks
        self._records = db.collector.count
        if self.tracer is not None:
            self._mark = self.tracer.snapshot()

    def _close(self, now: float) -> None:
        capture = self.capture
        db = self.driver.db
        capture.window_s = now - self.window_start
        hits, misses, evictions = _cache_totals(db)
        capture.cache_hits = hits - self._caches[0]
        capture.cache_misses = misses - self._caches[1]
        capture.cache_evictions = evictions - self._caches[2]
        capture.blocks_frozen = self.driver.freezer.frozen_blocks - self._frozen
        capture.window_records = db.collector.count - self._records
        if self.tracer is not None:
            capture.layer_s, capture.layer_counts = self.tracer.since(self._mark)


def capture(
    mode: str,
    seed: int,
    blocks: int,
    trace_path: Path,
    tracer: Optional[Tracer] = None,
) -> Capture:
    """Sync ``blocks`` blocks in ``mode`` ("cache" or "bare"), write the v2
    trace to ``trace_path``, and return timings and outputs."""
    result = Capture(mode=mode, blocks=blocks)
    db_config = (
        DBConfig.cache_trace_config(CACHE_BYTES)
        if mode == "cache"
        else DBConfig.bare_trace_config()
    )
    start = perf_counter()
    database = None
    if tracer is not None:
        store = TimedStore(MemoryKVStore(), tracer, "kvstore.memdb")
        database = GethDatabase(db_config, store=store)
    driver = FullSyncDriver(
        SyncConfig(db=db_config, warmup_blocks=WARMUP_BLOCKS),
        WorkloadGenerator(workload_config(seed)),
        name=f"{mode}-trace",
        database=database,
    )
    if tracer is not None:
        instrument_sync_driver(driver, tracer)
    clock = _WindowClock(driver, result, tracer)
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(
                patched(rlp, "encode", tracer.timed("rlp.encode", rlp.encode))
            )
        try:
            sync_result = driver.run(blocks)
        except Exception as exc:
            attempted = min(blocks, max(0, clock.imported + 1 - WARMUP_BLOCKS))
            raise BlockImportFailed(attempted, exc) from exc
    result.setup_s = clock.window_start - start
    result.warmup_s = clock.window_start - clock.genesis_end

    head_hash = driver.db.peek(schema.LAST_BLOCK_KEY)
    header = rlp.decode(driver.db.peek(schema.header_key(sync_result.head_number, head_hash)))
    result.head_root = header[3]
    result.store_pairs = sync_result.total_store_pairs
    result.store_snapshot = sync_result.store_snapshot
    result.scanned_pairs = len(sync_result.store_snapshot)
    records = sync_result.records
    result.records = len(records)
    counts = Counter(record.op for record in records)
    result.op_counts = {op.name: counts.get(op, 0) for op in OpType}
    # The clock's patched methods refer back to the driver: drop all three
    # so the store and the collector are freed before the trace write.
    del driver, sync_result, clock
    gc.collect()

    write_start = perf_counter()
    written = write_trace_v2(trace_path, records)
    result.write_s = perf_counter() - write_start
    if written != result.records:
        raise RuntimeError(f"trace writer took {written} of {result.records} records")
    result.trace_path = trace_path
    blob = trace_path.read_bytes()
    result.trace_bytes = len(blob)
    result.trace_sha256 = hashlib.sha256(blob).hexdigest()
    return result


def capture_errors(result: Capture, expected_root: bytes) -> list[str]:
    """Order-independent checks of one capture against the reference."""
    errors = []
    if result.head_root != expected_root:
        errors.append(
            f"{result.mode}: head state root {result.head_root.hex()} != "
            f"reference {expected_root.hex()}"
        )
    if sum(result.op_counts.values()) != result.records:
        errors.append(f"{result.mode}: per-op counts do not sum to the record count")
    if result.scanned_pairs != result.store_pairs:
        errors.append(
            f"{result.mode}: store scan saw {result.scanned_pairs} pairs, "
            f"len() says {result.store_pairs}"
        )
    if len(result.block_s) != result.blocks:
        errors.append(f"{result.mode}: timed {len(result.block_s)} of {result.blocks} blocks")
    return errors


def same_outputs_errors(captures: list[Capture]) -> list[str]:
    """Captures of one seed, mode and length must agree on every output
    that does not depend on record order."""
    errors = []
    first = captures[0]
    for other in captures[1:]:
        for name in ("head_root", "records", "op_counts", "store_pairs"):
            if getattr(other, name) != getattr(first, name):
                errors.append(f"{first.mode}: repeated captures differ in {name}")
    return errors


@dataclass
class Passes:
    """One cold run of the analysis bundle and both replays over a trace."""

    records: int
    analyze_s: float = 0.0
    #: wall time of each step of the analysis bundle
    analyze_step_s: list[float] = field(default_factory=list)
    #: wall time of each replay, from the call to its return, cut at the
    #: store's time stamps (see :class:`~perfbench.layers.StampStore`)
    memdb_segment_s: list[float] = field(default_factory=list)
    lsm_segment_s: list[float] = field(default_factory=list)
    memdb_ops_per_s: float = 0.0
    lsm_ops_per_s: float = 0.0
    #: wall time of the analysis bundle plus both replays
    total_s: float = 0.0
    ops_attempted: int = 0
    ops_failed: int = 0
    lsm_read_s: list[float] = field(default_factory=list)
    lsm_write_s: list[float] = field(default_factory=list)
    lsm_metrics: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    layer_s: dict[str, float] = field(default_factory=dict)
    layer_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Passes":
        return cls(**data)


def _analysis_bundle(
    path: Path, snapshot, tracer: Optional[Tracer], step_s: list[float]
) -> TraceAnalysis:
    """opdist, sizes, and read and update correlation, cold.  Appends the
    wall time of each of the four steps to ``step_s``."""
    with ExitStack() as stack:
        layer_span = tracer.span if tracer is not None else (lambda _name: nullcontext())

        @contextmanager
        def span(name: str):
            start = perf_counter()
            with layer_span(name):
                yield
            step_s.append(perf_counter() - start)

        if tracer is not None:
            read_chunks = tracer.iterated("core.trace.read", iter)
            analyze_chunks = repro.core.parallel.analyze_chunks
            stack.enter_context(
                patched(
                    repro.core.parallel,
                    "analyze_chunks",
                    lambda chunks, *a, **k: analyze_chunks(read_chunks(chunks), *a, **k),
                )
            )
        with span("core.analysis.opdist"):
            analysis = TraceAnalysis("bench", path)
        with span("core.analysis.sizes"):
            analysis.sizes.add_store_snapshot(snapshot)
        with span("core.trace.read"):
            analysis.trace  # loads the columnar trace
        with span("core.analysis.correlation"):
            analysis.correlation(OpType.READ)
            analysis.correlation(OpType.UPDATE)
    return analysis


def _replay(path: Path, backend: str, store, tracer: Optional[Tracer]):
    config = ReplayConfig(backend=backend, workers=1)
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(
                patched(
                    repro.replay.engine,
                    "open_trace_chunks",
                    tracer.iterated(
                        "core.trace.read", repro.replay.engine.open_trace_chunks
                    ),
                )
            )
            stack.enter_context(tracer.span("replay"))
        return replay_trace(
            path, config, registry=MetricsRegistry(), store_factory=lambda _shard: store
        )


def run_passes(
    path: Path,
    snapshot,
    op_counts: dict[str, int],
    tracer: Optional[Tracer] = None,
) -> Passes:
    """Analyze, then replay into a fresh memdb and a fresh LSM, checking
    the analysis totals, replay completeness and final-store equality."""
    records = sum(op_counts.values())
    result = Passes(records=records)
    mark = tracer.snapshot() if tracer is not None else None
    start = perf_counter()
    analysis = _analysis_bundle(path, snapshot, tracer, result.analyze_step_s)
    result.analyze_s = perf_counter() - start
    opdist = analysis.opdist
    if opdist.total_ops != records:
        result.errors.append(f"analysis counted {opdist.total_ops} ops of {records}")
    for op in OpType:
        seen = sum(
            opdist.distribution(kv_class).count(op)
            for kv_class in opdist.observed_classes()
        )
        if seen != op_counts[op.name]:
            result.errors.append(
                f"analysis counted {seen} {op.name} ops, capture {op_counts[op.name]}"
            )
    del analysis

    if tracer is not None:
        memdb = TimedStore(MemoryKVStore(), tracer, "kvstore.memdb")
        lsm = TimedStore(LSMStore(), tracer, "kvstore.lsm")
    else:
        memdb = StampStore(MemoryKVStore())
        lsm = LatencyStore(LSMStore())
    reports = {}
    for backend, store in (("memdb", memdb), ("lsm", lsm)):
        replay_start = perf_counter()
        report = _replay(path, backend, store, tracer)
        replay_end = perf_counter()
        reports[backend] = report
        if isinstance(store, StampStore):
            segments = intervals(replay_start, store.stamps, replay_end)
            setattr(result, f"{backend}_segment_s", segments)
        result.ops_attempted += report.total_records + report.dropped
        result.ops_failed += report.failed + report.dropped
        if report.applied != records or report.failed or report.dropped:
            result.errors.append(
                f"{backend} replay applied {report.applied} of {records} "
                f"({report.failed} failed, {report.dropped} dropped)"
            )
    result.total_s = perf_counter() - start
    result.memdb_ops_per_s = reports["memdb"].ops_per_s
    result.lsm_ops_per_s = reports["lsm"].ops_per_s
    fingerprints = {name: report.fingerprint for name, report in reports.items()}
    if fingerprints["memdb"] != fingerprints["lsm"]:
        result.errors.append(
            f"final stores differ: memdb {fingerprints['memdb']}, lsm {fingerprints['lsm']}"
        )
    result.lsm_metrics = lsm.inner.metrics.snapshot()
    if isinstance(lsm, LatencyStore):
        result.lsm_read_s = lsm.read_s
        result.lsm_write_s = lsm.write_s
    if tracer is not None:
        result.layer_s, result.layer_counts = tracer.since(mark)
    return result
