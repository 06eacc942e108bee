"""Per-layer timing from outside the program.

The benchmark never edits the package under test.  For a traced run it
wraps the public objects the sync driver, the analysis bundle and the
replay engine expose, and charges each call to a named layer.  A
layer's *self time* is its calls' wall time minus the time spent in
wrapped calls nested inside them, so the self times of all layers plus
the time no layer covers add up to the measured wall time.

Calls that return iterators (``KVStore.scan``, trace chunk readers) are
timed over their iteration, one ``next()`` at a time: a memdb scan sorts
its keys lazily on the first ``next()``, so timing only the call would
report almost nothing for the sort that dominates freezer scans.  Time
the consumer spends between ``next()`` calls is not charged to the
iterator's layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.kvstore.api import KVStore


class Tracer:
    """Self-time and call-count accounting for named layers.

    Single-threaded: wrapped calls must all happen on one thread, because
    nesting is tracked with one stack.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        # Wall time of wrapped calls completed inside each open call;
        # the bottom entry collects top-level calls.
        self._child: list[float] = [0.0]

    # -- accounting -----------------------------------------------------------

    def _close(self, layer: str, start: float) -> None:
        elapsed = perf_counter() - start
        child = self._child
        nested = child.pop()
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
        child[-1] += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_s), dict(self.counts)

    def since(
        self, mark: tuple[dict[str, float], dict[str, int]]
    ) -> tuple[dict[str, float], dict[str, int]]:
        """Self times and counts accumulated after ``mark`` was taken."""
        then_s, then_counts = mark
        self_s = {k: v - then_s.get(k, 0.0) for k, v in self.self_s.items()}
        counts = {k: v - then_counts.get(k, 0) for k, v in self.counts.items()}
        return self_s, counts

    # -- wrappers -------------------------------------------------------------

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.count(layer)
        self._child.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(layer, start)

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with each call charged to ``layer`` and counted."""
        child = self._child
        close = self._close
        count = self.count

        def wrapper(*args, **kwargs):
            count(layer)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, start)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted but not timed."""
        count = self.count

        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    def iterated(self, layer: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator; the call and every ``next()`` are
        charged to ``layer`` (the call is counted once)."""
        timed_call = self.timed(layer, fn)

        def wrapper(*args, **kwargs):
            return self._drain(layer, iter(timed_call(*args, **kwargs)))

        return wrapper

    def _drain(self, layer: str, it: Iterator) -> Iterator:
        child = self._child
        try:
            while True:
                child.append(0.0)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(layer, start)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                child.append(0.0)
                start = perf_counter()
                try:
                    close()
                finally:
                    self._close(layer, start)


class TimedStore(KVStore):
    """Pass-through store charging each call to ``<layer>.<op>``.

    ``get``, ``get_or_none`` and ``has`` are all point lookups and are
    charged to ``<layer>.get``.
    """

    def __init__(self, inner: KVStore, tracer: Tracer, layer: str) -> None:
        self.inner = inner
        self._get = tracer.timed(f"{layer}.get", inner.get)
        self._get_or_none = tracer.timed(f"{layer}.get", inner.get_or_none)
        self._has = tracer.timed(f"{layer}.get", inner.has)
        self._put = tracer.timed(f"{layer}.put", inner.put)
        self._delete = tracer.timed(f"{layer}.delete", inner.delete)
        self._scan = tracer.iterated(f"{layer}.scan", inner.scan)

    def get(self, key: bytes) -> bytes:
        return self._get(key)

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        return self._get_or_none(key)

    def has(self, key: bytes) -> bool:
        return self._has(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._put(key, value)

    def delete(self, key: bytes) -> None:
        self._delete(key)

    def scan(self, start: bytes, end: Optional[bytes] = None):
        return self._scan(start, end)

    def __len__(self) -> int:
        return len(self.inner)

    def close(self) -> None:
        self.inner.close()


#: operations between two time stamps of a replay (a few milliseconds)
SEGMENT_OPS = 256


class StampStore(KVStore):
    """Passes every call through and stamps the time after every
    ``SEGMENT_OPS``-th operation.  Replays of one trace into fresh stores
    make the same operations in the same order, so their segments between
    stamps hold the same work and can be compared one by one."""

    def __init__(self, inner: KVStore) -> None:
        self.inner = inner
        self.ops = 0
        self.stamps: list[float] = []

    def _tick(self) -> None:
        self.ops += 1
        if self.ops % SEGMENT_OPS == 0:
            self.stamps.append(perf_counter())

    def get(self, key: bytes) -> bytes:
        value = self.inner.get(key)
        self._tick()
        return value

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        value = self.inner.get_or_none(key)
        self._tick()
        return value

    def has(self, key: bytes) -> bool:
        value = self.inner.has(key)
        self._tick()
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self.inner.put(key, value)
        self._tick()

    def delete(self, key: bytes) -> None:
        self.inner.delete(key)
        self._tick()

    def scan(self, start: bytes, end: Optional[bytes] = None):
        self._tick()
        return self.inner.scan(start, end)

    def __len__(self) -> int:
        return len(self.inner)

    def close(self) -> None:
        self.inner.close()


class LatencyStore(StampStore):
    """A :class:`StampStore` that also times each read (``get_or_none``/
    ``get``) and each write (``put``/``delete``) client-side."""

    def __init__(self, inner: KVStore) -> None:
        super().__init__(inner)
        self.read_s: list[float] = []
        self.write_s: list[float] = []

    def get(self, key: bytes) -> bytes:
        start = perf_counter()
        value = self.inner.get(key)
        self.read_s.append(perf_counter() - start)
        self._tick()
        return value

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        start = perf_counter()
        value = self.inner.get_or_none(key)
        self.read_s.append(perf_counter() - start)
        self._tick()
        return value

    def put(self, key: bytes, value: bytes) -> None:
        start = perf_counter()
        self.inner.put(key, value)
        self.write_s.append(perf_counter() - start)
        self._tick()

    def delete(self, key: bytes) -> None:
        start = perf_counter()
        self.inner.delete(key)
        self.write_s.append(perf_counter() - start)
        self._tick()


@contextmanager
def patched(owner: object, name: str, replacement: object) -> Iterator[None]:
    """Temporarily replace ``owner.name`` (a module function, for example)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def instrument_sync_driver(driver, tracer: Tracer) -> None:
    """Wrap the layers a ``FullSyncDriver`` calls into.

    The driver's store must already be a :class:`TimedStore` (pass
    ``GethDatabase(store=TimedStore(...))`` as its database); RLP is
    wrapped separately with :func:`patched`, for the duration of the run.
    """
    timed = tracer.timed
    state = driver.state
    for name in ("get_account", "get_storage_hashed", "get_code"):
        setattr(state, name, timed("gethdb.state.read", getattr(state, name)))
    state.commit = timed("gethdb.state.commit", state.commit)
    nodes = state.node_store
    nodes.put = tracer.counted("trie.node_put", nodes.put)
    driver.workload.make_block_plan = timed(
        "workload.plan", driver.workload.make_block_plan
    )
    driver.freezer.maybe_freeze = timed(
        "gethdb.freezer.freeze", driver.freezer.maybe_freeze
    )

    db = driver.db
    timed_commit = timed("gethdb.batch.commit", db.commit_batch)

    def commit_batch() -> None:
        tracer.count("gethdb.batch.op", db.pending_ops)
        timed_commit()

    db.commit_batch = commit_batch
    traced = db.store
    for name in ("get", "get_or_none", "put", "delete"):
        setattr(traced, name, timed("kvstore.tracing", getattr(traced, name)))
    traced.scan = tracer.iterated("kvstore.tracing", traced.scan)
