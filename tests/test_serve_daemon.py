"""Service layer: admission queue, micro-batcher, cache (repro.serve.daemon).

The concurrency-sensitive behaviors (bounded-depth rejection, flush on
latency budget vs size) are driven through a deterministic fake engine
whose classify path can be gated by the test; the cache-correctness
tests (bit-identical hits, LRU order) run against the real session
engine.
"""

import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import metrics_registry
from repro.serve import (
    DaemonConfig,
    EngineResponse,
    ExplanationCache,
    PreparedRequest,
    RequestRejected,
    ServeDaemon,
)


def _sample(name: str) -> SimpleNamespace:
    return SimpleNamespace(program=SimpleNamespace(name=name), family="fake")


def _response(name: str, fingerprint: str) -> EngineResponse:
    return EngineResponse(
        name=name,
        fingerprint=fingerprint,
        probabilities=np.array([0.75, 0.25]),
        predicted_class=0,
        family="fake",
        explainer="CFGExplainer",
        explanation=SimpleNamespace(node_order=np.array([0])),
    )


class FakeEngine:
    """Deterministic engine double; ``gate`` stalls the classify stage
    and ``entered`` reports that the service thread reached it."""

    default_explainer = "CFGExplainer"

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.batches: list[int] = []

    def admit(self, sample, graph=None, deadline=None, stage_hook=None):
        if stage_hook is not None:
            for stage in ("sanitize", "verify", "reduce"):
                stage_hook(stage)
        return PreparedRequest(
            sample=sample,
            graph=None,
            fingerprint=f"fp-{sample.program.name}",
            deadline=deadline,
        )

    def classify(self, requests):
        self.entered.set()
        assert self.gate.wait(timeout=10), "classify gate never released"
        self.batches.append(len(requests))
        return np.tile([0.75, 0.25], (len(requests), 1))

    def execute(self, request, probabilities=None, explainer=None):
        return _response(request.sample.program.name, request.fingerprint)


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


# ----------------------------------------------------------------------
# admission queue
# ----------------------------------------------------------------------
def test_bounded_queue_rejects_with_backpressure():
    engine = FakeEngine()
    engine.gate.clear()  # service thread stalls inside classify
    config = DaemonConfig(
        max_queue_depth=1, max_batch=1, batch_window_ms=0.0, cache_capacity=0
    )
    before = metrics_registry().snapshot()
    with ServeDaemon(engine, config) as daemon:
        # First request: picked up by the service thread, stalls on the
        # gate.  Second: sits in the queue, filling its single slot.
        first = threading.Thread(target=daemon.submit, args=(_sample("a"),))
        first.start()
        assert engine.entered.wait(timeout=5)
        second = threading.Thread(target=daemon.submit, args=(_sample("b"),))
        second.start()
        assert _wait_for(daemon._queue.full)
        with pytest.raises(RequestRejected) as excinfo:
            daemon.submit(_sample("c"))
        assert excinfo.value.reason == "backpressure"
        engine.gate.set()
        first.join(timeout=10)
        second.join(timeout=10)
    assert sorted(engine.batches) == [1, 1]
    delta = metrics_registry().delta_since(before)
    assert delta.get("serve.rejected.backpressure", 0) == 1


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------
def test_flush_on_latency_budget_coalesces():
    engine = FakeEngine()
    engine.gate.clear()  # hold batch 1 so tickets 2..4 pile up
    config = DaemonConfig(
        max_queue_depth=32, max_batch=8, batch_window_ms=40.0, cache_capacity=0
    )
    before = metrics_registry().snapshot()
    with ServeDaemon(engine, config) as daemon:
        threads = [
            threading.Thread(target=daemon.submit, args=(_sample(f"g{i}"),))
            for i in range(4)
        ]
        threads[0].start()
        # The service thread must be inside classify (its first batch
        # closed) before the pile-up starts.
        assert engine.entered.wait(timeout=5)
        for thread in threads[1:]:
            thread.start()
        assert _wait_for(lambda: daemon._queue.qsize() == 3)
        engine.gate.set()
        for thread in threads:
            thread.join(timeout=10)
    delta = metrics_registry().delta_since(before)
    # Ticket 1 flushed alone (it was picked up before the others
    # arrived); tickets 2-4 coalesced into one batch, closed by the
    # latency budget (3 < max_batch) — never by the size cap.
    assert engine.batches == [1, 3]
    assert delta.get("serve.batch.flush_on_budget", 0) == 2
    assert delta.get("serve.batch.flush_on_size", 0) == 0


def test_flush_on_size_cap():
    engine = FakeEngine()
    config = DaemonConfig(
        max_queue_depth=32, max_batch=2, batch_window_ms=5000.0, cache_capacity=0
    )
    before = metrics_registry().snapshot()
    with ServeDaemon(engine, config) as daemon:
        threads = [
            threading.Thread(target=daemon.submit, args=(_sample(f"g{i}"),))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    delta = metrics_registry().delta_since(before)
    # With a 5-second budget the only way a batch closes is the size
    # cap, so the four tickets must flush in pairs — and quickly: a
    # budget flush would have stalled each pair for the full window.
    assert engine.batches == [2, 2]
    assert delta.get("serve.batch.flush_on_size", 0) == 2
    assert delta.get("serve.batch.flush_on_budget", 0) == 0


# ----------------------------------------------------------------------
# explanation cache
# ----------------------------------------------------------------------
def test_cache_hit_bit_identical_to_cold(serve_engine, serve_corpus):
    with ServeDaemon(serve_engine, DaemonConfig()) as daemon:
        cold = daemon.submit(serve_corpus[0])
        warm = daemon.submit(serve_corpus[0])
    assert not cold.cached
    assert warm.cached
    assert warm.fingerprint == cold.fingerprint
    # Bit-identical, not merely close: the cache returns the stored
    # arrays themselves (CFGExplainer's interpret loop is
    # deterministic, so this equals a cold recompute too).
    assert np.array_equal(warm.probabilities, cold.probabilities)
    assert np.array_equal(
        warm.explanation.node_order, cold.explanation.node_order
    )
    assert np.array_equal(
        warm.explanation.node_scores, cold.explanation.node_scores
    )
    assert warm.predicted_class == cold.predicted_class


def test_cache_hit_and_miss_counters(serve_engine, serve_corpus):
    before = metrics_registry().snapshot()
    with ServeDaemon(serve_engine, DaemonConfig()) as daemon:
        daemon.submit(serve_corpus[0])
        daemon.submit(serve_corpus[0])
        daemon.submit(serve_corpus[1])
    delta = metrics_registry().delta_since(before)
    assert delta.get("serve.cache.hit", 0) == 1
    assert delta.get("serve.cache.miss", 0) == 2


def test_lru_eviction_order():
    cache = ExplanationCache(capacity=2)
    a, b, c = (_response(n, f"fp-{n}") for n in ("a", "b", "c"))
    cache.put(a)
    cache.put(b)
    assert cache.get("fp-a") is not None  # refresh a: b is now LRU
    cache.put(c)  # evicts b
    assert cache.get("fp-b") is None
    assert cache.keys() == ["fp-a", "fp-c"]
    assert cache.get("fp-a").cached
    assert cache.get("fp-c").cached


def test_cache_capacity_zero_disables():
    cache = ExplanationCache(capacity=0)
    cache.put(_response("a", "fp-a"))
    assert cache.get("fp-a") is None
    assert len(cache) == 0


def test_concurrent_submissions_all_answered(serve_engine, serve_corpus):
    """Several client threads through the real engine: every request is
    answered with the right graph's response (no ticket mixups)."""
    results: dict[int, EngineResponse] = {}
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            results[index] = daemon.submit(serve_corpus[index % 3])
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    with ServeDaemon(serve_engine, DaemonConfig(max_batch=4)) as daemon:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors
    assert len(results) == 6
    for index, response in results.items():
        assert response.name == serve_corpus[index % 3].program.name


def test_submit_before_start_raises(serve_engine, serve_corpus):
    daemon = ServeDaemon(serve_engine, DaemonConfig())
    with pytest.raises(RuntimeError, match="not started"):
        daemon.submit(serve_corpus[0])


def test_stop_drains_admitted_tickets():
    engine = FakeEngine()
    config = DaemonConfig(max_queue_depth=8, max_batch=2, batch_window_ms=1.0)
    daemon = ServeDaemon(engine, config)
    daemon.start()
    responses = []
    threads = [
        threading.Thread(
            target=lambda n: responses.append(daemon.submit(_sample(n))),
            args=(f"g{i}",),
        )
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    daemon.stop()
    assert len(responses) == 4
    assert daemon._thread is None


@pytest.mark.parametrize("listing", ["dangling_jump", "unknown_mnemonic"])
def test_unparsable_text_rejected_as_quarantine(serve_engine, listing):
    text = (Path(__file__).parent / "data" / "hostile" / f"{listing}.asm").read_text()
    before = metrics_registry().snapshot()
    with ServeDaemon(serve_engine, DaemonConfig()) as daemon:
        with pytest.raises(RequestRejected) as excinfo:
            daemon.submit_text(text, name=listing)
    delta = metrics_registry().delta_since(before)
    assert excinfo.value.reason == "quarantine"
    [record] = excinfo.value.records
    assert (record.reason, record.stage) == ("construction_error", "construction")
    assert delta.get("serve.rejected.quarantine", 0) == 1
