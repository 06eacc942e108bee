import random
import time

import pytest

from perfbench.layers import SEGMENT_OPS, LatencyStore, StampStore, TimedStore, Tracer, patched
from repro.kvstore.memdb import MemoryKVStore

PAUSE = 0.05


def lazy_items(log):
    """Does its work on the first next(), like memdb's lazy sort."""
    try:
        time.sleep(PAUSE)
        yield 1
        yield 2
    finally:
        log.append("closed")


def test_iterator_is_timed_over_its_iteration_not_the_call():
    tracer = Tracer()
    scan = tracer.iterated("scan", lazy_items)
    it = scan([])
    assert tracer.self_s["scan"] < PAUSE / 2
    assert list(it) == [1, 2]
    assert tracer.self_s["scan"] >= PAUSE
    assert tracer.counts["scan"] == 1


def test_consumer_time_between_items_is_not_charged():
    tracer = Tracer()
    scan = tracer.iterated("scan", lambda: iter(range(3)))
    for _ in scan():
        time.sleep(PAUSE)
    assert tracer.self_s["scan"] < PAUSE / 2


def test_early_exit_closes_the_wrapped_iterator():
    tracer = Tracer()
    log = []
    for item in tracer.iterated("scan", lazy_items)(log):
        break
    assert item == 1
    assert log == ["closed"]


def test_nested_calls_are_subtracted_from_self_time():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: time.sleep(PAUSE))

    def outer_body():
        inner()
        inner()

    outer = tracer.timed("outer", outer_body)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    assert tracer.self_s["inner"] >= 2 * PAUSE
    assert tracer.self_s["outer"] < PAUSE / 2
    assert sum(tracer.self_s.values()) == pytest.approx(wall, abs=0.005)
    assert tracer.counts == {"inner": 2, "outer": 1}


def test_nested_iteration_charges_each_layer_its_own_part():
    tracer = Tracer()
    inner = tracer.iterated("inner", lazy_items)

    def outer_gen():
        for item in inner([]):
            time.sleep(PAUSE)  # the outer layer's own work per item
            yield item

    outer = tracer.iterated("outer", outer_gen)
    assert list(outer()) == [1, 2]
    assert PAUSE <= tracer.self_s["inner"] < 2 * PAUSE
    assert tracer.self_s["outer"] >= 2 * PAUSE


def test_exceptions_propagate_and_keep_the_stack_balanced():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed("boom", boom)()
    with tracer.span("after"):
        time.sleep(PAUSE / 5)
    assert tracer.self_s["after"] >= PAUSE / 5
    assert tracer._child == [pytest.approx(sum(tracer.self_s.values()))]


def test_since_reports_only_new_work():
    tracer = Tracer()
    work = tracer.timed("work", lambda: None)
    work()
    mark = tracer.snapshot()
    work()
    work()
    self_s, counts = tracer.since(mark)
    assert counts == {"work": 2}
    assert self_s["work"] >= 0.0


def test_timed_store_charges_memdb_lazy_sort_to_scan():
    tracer = Tracer()
    store = TimedStore(MemoryKVStore(), tracer, "kv")
    keys = 200_000
    order = list(range(1, keys + 1))
    random.Random(0).shuffle(order)  # unsorted, so the lazy sort does real work
    for i in order:
        store.put(i.to_bytes(4, "big"), b"v")
    scan = store.scan(b"")
    assert tracer.self_s.get("kv.scan", 0.0) < 0.005  # nothing sorted yet
    assert next(scan) == ((1).to_bytes(4, "big"), b"v")
    assert tracer.self_s["kv.scan"] > 0.02  # sorting 200k keys
    assert sum(1 for _ in scan) == keys - 1
    assert store.get_or_none(b"missing") is None
    assert store.has((7).to_bytes(4, "big"))
    store.delete((7).to_bytes(4, "big"))
    assert len(store) == keys - 1
    assert tracer.counts == {"kv.put": keys, "kv.scan": 1, "kv.get": 2, "kv.delete": 1}


def test_latency_store_times_reads_and_writes():
    store = LatencyStore(MemoryKVStore())
    store.put(b"a", b"1")
    store.delete(b"b")
    assert store.get_or_none(b"a") == b"1"
    assert list(store.scan(b"")) == [(b"a", b"1")]
    assert len(store.write_s) == 2
    assert len(store.read_s) == 1
    assert store.ops == 4


def test_stamp_store_stamps_after_every_segment_of_operations():
    store = StampStore(MemoryKVStore())
    for i in range(SEGMENT_OPS):
        store.put(i.to_bytes(4, "big"), b"v")
    assert len(store.stamps) == 1
    for i in range(SEGMENT_OPS - 1):
        assert store.get_or_none(i.to_bytes(4, "big")) == b"v"
    assert len(store.stamps) == 1
    assert store.has(b"\0\0\0\0")  # the 2 * SEGMENT_OPS-th operation
    assert len(store.stamps) == 2
    store.delete(b"\0\0\0\0")
    next(store.scan(b""))
    assert store.ops == 2 * SEGMENT_OPS + 2
    assert store.stamps == sorted(store.stamps)


def test_patched_restores_the_original():
    class Owner:
        value = 1

    with patched(Owner, "value", 2):
        assert Owner.value == 2
    assert Owner.value == 1
