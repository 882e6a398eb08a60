"""Service layer: admission queue, micro-batcher, cache, resilience.

:class:`ServeDaemon` is the front door over an
:class:`~repro.serve.engine.InferenceEngine`.  Division of labor by
thread:

* **Caller threads** run admission — sanitize → verify → reduce →
  fingerprint → scale are pure or read-only, so any number of clients
  may be admitted concurrently — plus the cache lookup, then either
  return a cached response immediately or enqueue a ticket.
* **One service thread** drains the bounded queue, coalesces tickets
  into micro-batches for ``forward_batch`` within a latency budget,
  explains each request, and fills the cache.  Model execution stays on
  this single thread because the shared A-hat/embedding caches mutate
  plain ``OrderedDict``s.

Rejections are typed (:class:`~repro.serve.engine.RequestRejected`):
``backpressure`` when the bounded queue is full, ``oversize`` /
``quarantine`` from the ingestion gate, ``quarantine`` for text the
parser or CFG recovery refuses.  Every decision increments a
``serve.*`` counter in the process-wide metrics registry.

**Resilience** (:mod:`repro.resilience`): every stage boundary —
sanitize, verify, reduce, classify, explain — runs under a per-request
:class:`~repro.resilience.Deadline`, a bounded jittered retry for
transient faults, and a per-stage :class:`~repro.resilience
.CircuitBreaker`.  An explainer that keeps failing falls down the
degradation ladder (requested explainer → ``Gradient`` saliency →
classification-only) and the submitter receives a typed
:class:`~repro.serve.engine.DegradedResponse` instead of an exception;
the only exceptions :meth:`ServeDaemon.submit` raises are the
deliberate :class:`RequestRejected` verdicts.  A
:class:`~repro.resilience.FaultPlan` passed to the constructor injects
deterministic chaos at the same boundaries for the chaos benchmarks.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.acfg import ACFG
from repro.malgen.corpus import LabeledSample
from repro.nn.guards import assert_finite_array
from repro.obs import add_counter
from repro.resilience import (
    SERVING_STAGES,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    corrupt_array,
    failure_kind,
)
from repro.serve.engine import (
    DegradedResponse,
    EngineResponse,
    InferenceEngine,
    PreparedRequest,
    RequestRejected,
    _admit_text,
    _bare_sample,
)

__all__ = ["DaemonConfig", "ExplanationCache", "ServeDaemon"]

#: The admission stages run on caller threads, in order.
_ADMISSION_STAGES = ("sanitize", "verify", "reduce")


class _BreakerOpen(RuntimeError):
    """Internal: a stage's circuit breaker shed this request."""

    def __init__(self, stage: str):
        super().__init__(f"circuit breaker open for stage {stage!r}")
        self.stage = stage


@dataclass(frozen=True)
class DaemonConfig:
    """Service knobs: queue bound, batching budget, cache, resilience."""

    #: Admission queue bound; a submission arriving when this many
    #: tickets are already waiting is rejected with ``backpressure``.
    max_queue_depth: int = 64
    #: Micro-batch size cap: the batcher flushes as soon as this many
    #: tickets are in hand, budget or not.
    max_batch: int = 8
    #: Latency budget: after the first ticket of a batch arrives, the
    #: batcher waits at most this long for more before flushing.
    batch_window_ms: float = 5.0
    #: Explanation cache capacity in entries (LRU eviction); 0 disables
    #: caching.
    cache_capacity: int = 256
    #: Deadlines, retry, breakers and the degradation ladder.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms cannot be negative")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity cannot be negative")


class ExplanationCache:
    """Content-addressed LRU of :class:`EngineResponse` by fingerprint.

    Thread-safe: caller threads look up while the service thread
    inserts.  A hit is returned as a ``cached=True`` copy of the stored
    response — the stored arrays are shared, not copied, so a cached
    response is bit-identical to the cold-path one.  Degraded responses
    are never stored: a fault must not be replayed from the cache after
    the faulting condition has passed.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, EngineResponse]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Fingerprints, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def get(self, fingerprint: str) -> EngineResponse | None:
        if self.capacity == 0:
            return None
        with self._lock:
            response = self._entries.get(fingerprint)
            if response is None:
                add_counter("serve.cache.miss")
                return None
            self._entries.move_to_end(fingerprint)
            add_counter("serve.cache.hit")
            return replace(response, cached=True)

    def put(self, response: EngineResponse) -> None:
        if self.capacity == 0:
            return
        if getattr(response, "degraded", False):
            return
        with self._lock:
            self._entries[response.fingerprint] = replace(response, cached=False)
            self._entries.move_to_end(response.fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                add_counter("serve.cache.evicted")


class _Ticket:
    """One enqueued request: the prepared work plus its rendezvous."""

    __slots__ = ("request", "explainer", "done", "response", "error")

    def __init__(self, request: PreparedRequest, explainer: str | None):
        self.request = request
        self.explainer = explainer
        self.done = threading.Event()
        self.response: EngineResponse | None = None
        self.error: BaseException | None = None


_SHUTDOWN = object()


class ServeDaemon:
    """Long-running serving front door over one engine.

    Use as a context manager (``with ServeDaemon(engine) as daemon:``)
    or call :meth:`start`/:meth:`stop` explicitly.  :meth:`submit`
    blocks the calling thread until its response is ready, so driving
    the daemon concurrently means one caller thread per in-flight
    request — exactly what :mod:`repro.serve.loadgen` does.  ``stop``
    drains already-admitted tickets before the service thread exits; it
    must not race new submissions.

    ``fault_plan`` arms deterministic chaos injection at every stage
    boundary (see :class:`~repro.resilience.FaultPlan`); ``None`` or an
    empty plan leaves the request path bit-identical to an uninjected
    daemon.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: DaemonConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.engine = engine
        self.config = config or DaemonConfig()
        self.resilience = self.config.resilience
        self.cache = ExplanationCache(self.config.cache_capacity)
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_queue_depth)
        self._thread: threading.Thread | None = None
        self._injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and not fault_plan.empty
            else None
        )
        self._breakers = {
            stage: CircuitBreaker(
                stage,
                failure_threshold=self.resilience.breaker_threshold,
                cooldown_ms=self.resilience.breaker_cooldown_ms,
            )
            for stage in SERVING_STAGES
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeDaemon":
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._thread = threading.Thread(
            target=self._serve_loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._queue.put(_SHUTDOWN)  # blocking put: shutdown waits its turn
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client API (any thread)
    # ------------------------------------------------------------------
    def submit(
        self, sample: LabeledSample, explainer: str | None = None
    ) -> EngineResponse:
        """Serve one submission; blocks until its response is ready.

        Raises :class:`RequestRejected` (``quarantine`` / ``oversize``
        from admission, ``backpressure`` when the queue is full) — the
        deliberate verdicts.  Every *failure* comes back as a typed
        :class:`DegradedResponse` instead of an exception.
        """
        return self._serve(sample, None, explainer)

    def submit_text(
        self, text: str, name: str = "submission", explainer: str | None = None
    ) -> EngineResponse:
        """Serve an assembly listing; unparsable text is ``quarantine``."""
        return self.submit(_admit_text(text, name=name), explainer=explainer)

    def submit_graph(self, graph: ACFG, name: str | None = None) -> EngineResponse:
        """Serve a bare (unscaled, unreduced) ACFG with no CFG attached."""
        return self._serve(_bare_sample(graph, name), graph, None)

    def _serve(
        self,
        sample: LabeledSample,
        graph: ACFG | None,
        explainer: str | None,
    ) -> EngineResponse:
        if self._thread is None:
            raise RuntimeError("daemon not started")
        add_counter("serve.submitted")
        deadline = None
        if self.resilience.deadline_ms is not None:
            deadline = Deadline.after_ms(self.resilience.deadline_ms)
        admitted = self._admit_resilient(sample, graph, explainer, deadline)
        if isinstance(admitted, DegradedResponse):
            return admitted
        request = admitted
        # Only default-explainer responses are cached, so a request for
        # a specific other explainer never consults the cache.
        use_cache = explainer in (None, self.engine.default_explainer)
        if use_cache:
            cached = self.cache.get(request.fingerprint)
            if cached is not None:
                return cached
        ticket = _Ticket(request, explainer)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            add_counter("serve.rejected.backpressure")
            raise RequestRejected(
                "backpressure",
                f"admission queue full ({self.config.max_queue_depth} waiting)",
            ) from None
        if deadline is None:
            ticket.done.wait()
        else:
            # The service thread resolves every ticket (it drains on
            # stop and survives batch failures); the generous grace is
            # a last-resort guard against a hung submitter.
            budget = deadline.remaining_ms() / 1000.0 + 30.0
            if not ticket.done.wait(timeout=budget):
                return self._degraded_unclassified(
                    ticket.request,
                    ticket.explainer,
                    "deadline",
                    DeadlineExceeded("service", deadline.budget_ms),
                )
        if ticket.error is not None:
            raise ticket.error
        return ticket.response

    # ------------------------------------------------------------------
    # resilient admission (caller threads)
    # ------------------------------------------------------------------
    def _admit_resilient(
        self,
        sample: LabeledSample,
        graph: ACFG | None,
        explainer: str | None,
        deadline: Deadline | None,
    ):
        """Admission with breakers, fault injection and bounded retry.

        Returns a :class:`PreparedRequest` on success, a
        :class:`DegradedResponse` when admission failed persistently,
        and raises only :class:`RequestRejected` (deliberate verdicts
        neither retry nor trip breakers — a hostile input is the
        pipeline *working*).
        """
        retry = self.resilience.retry
        key = getattr(sample.program, "name", "submission")
        for attempt in range(retry.max_retries + 1):
            entered: list[str] = []

            def hook(stage: str, _attempt: int = attempt) -> None:
                entered.append(stage)
                if not self._breakers[stage].allow():
                    raise _BreakerOpen(stage)
                if self._injector is not None:
                    self._injector.fire(stage, key, _attempt, has_output=False)

            try:
                request = self.engine.admit(
                    sample, graph=graph, deadline=deadline, stage_hook=hook
                )
            except RequestRejected:
                # The stages that ran did their job; resolve their
                # breaker probes as successes before re-raising.
                for stage in entered:
                    self._breakers[stage].record_success()
                raise
            except _BreakerOpen as error:
                for stage in entered[:-1]:
                    self._breakers[stage].record_success()
                return self._degraded_unadmitted(
                    key, explainer, "breaker_open", error.stage, error
                )
            except DeadlineExceeded as error:
                for stage in entered:
                    if stage != error.stage:
                        self._breakers[stage].record_success()
                return self._degraded_unadmitted(
                    key, explainer, "deadline", error.stage, error
                )
            except BaseException as error:
                failed = getattr(error, "stage", None)
                if failed not in self._breakers:
                    failed = entered[-1] if entered else "sanitize"
                for stage in entered:
                    if stage == failed:
                        break
                    self._breakers[stage].record_success()
                self._breakers[failed].record_failure()
                if attempt < retry.max_retries:
                    delay = retry.delay(attempt + 1, key=f"admit:{key}")
                    if (
                        deadline is not None
                        and deadline.remaining_ms() <= delay * 1000.0
                    ):
                        return self._degraded_unadmitted(
                            key, explainer, "deadline", failed,
                            DeadlineExceeded(failed, deadline.budget_ms),
                        )
                    add_counter("resilience.retry.admit")
                    if delay > 0:
                        time.sleep(delay)
                    continue
                return self._degraded_unadmitted(
                    key, explainer, "unavailable", failed, error
                )
            else:
                for stage in entered:
                    self._breakers[stage].record_success()
                return request
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # degraded-response builders
    # ------------------------------------------------------------------
    def _degraded_unadmitted(
        self,
        name: str,
        explainer: str | None,
        reason: str,
        stage: str,
        error: BaseException | None,
    ) -> DegradedResponse:
        """Nothing beyond the typed record is meaningful."""
        add_counter(f"resilience.degraded.{reason}")
        families = getattr(self.engine, "families", ()) or ()
        return DegradedResponse(
            name=name,
            fingerprint="",
            probabilities=np.zeros(len(families), dtype=float),
            predicted_class=-1,
            family="unknown",
            explainer=explainer or getattr(self.engine, "default_explainer", ""),
            explanation=None,
            degradation_reason=reason,
            failed_stage=stage,
            failure_kind=failure_kind(error) if error is not None else "exception",
            detail=str(error) if error is not None else "",
        )

    def _degraded_unclassified(
        self,
        request: PreparedRequest,
        explainer: str | None,
        reason: str,
        error: BaseException | None,
        stage: str = "classify",
    ) -> DegradedResponse:
        """Admitted but never classified: placeholder class fields."""
        add_counter(f"resilience.degraded.{reason}")
        families = getattr(self.engine, "families", ()) or ()
        return DegradedResponse(
            name=getattr(request.sample.program, "name", ""),
            fingerprint=request.fingerprint,
            probabilities=np.zeros(len(families), dtype=float),
            predicted_class=-1,
            family="unknown",
            explainer=explainer or getattr(self.engine, "default_explainer", ""),
            explanation=None,
            degradation_reason=reason,
            failed_stage=stage,
            failure_kind=failure_kind(error) if error is not None else "exception",
            detail=str(error) if error is not None else "",
        )

    # ------------------------------------------------------------------
    # resilient stage runner (service thread)
    # ------------------------------------------------------------------
    def _run_stage(
        self,
        stage: str,
        key: str,
        deadline: Deadline | None,
        func,
        attempt_offset: int = 0,
        array_output: bool = True,
    ):
        """Deadline check → breaker gate → fault injection → bounded retry.

        ``attempt_offset`` keeps the injected-fault attempt index
        monotonic across explainer ladder rungs, so a fallback rung
        re-rolls its faults instead of deterministically replaying the
        rung above it.  Raises :class:`DeadlineExceeded` /
        :class:`_BreakerOpen` immediately (no retry — those are
        decisions, not faults) and the last error once retries are
        exhausted.
        """
        retry = self.resilience.retry
        breaker = self._breakers[stage]
        for attempt in range(retry.max_retries + 1):
            if deadline is not None:
                deadline.check(stage)
            if not breaker.allow():
                raise _BreakerOpen(stage)
            try:
                kind = None
                if self._injector is not None:
                    kind = self._injector.fire(
                        stage, key, attempt_offset + attempt,
                        has_output=array_output,
                    )
                value = func()
                if array_output:
                    value = np.asarray(value, dtype=float)
                    if kind == "nonfinite":
                        value = corrupt_array(value)
                    assert_finite_array(value, f"serving {stage} output")
            except BaseException as error:
                breaker.record_failure()
                if attempt < retry.max_retries:
                    add_counter(f"resilience.retry.{stage}")
                    delay = retry.delay(attempt + 1, key=f"{stage}:{key}")
                    if (
                        deadline is not None
                        and deadline.remaining_ms() <= delay * 1000.0
                    ):
                        raise DeadlineExceeded(
                            stage, deadline.budget_ms
                        ) from error
                    if delay > 0:
                        time.sleep(delay)
                    continue
                raise
            else:
                breaker.record_success()
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    def _classify_ticket(self, ticket: _Ticket, row) -> np.ndarray:
        """Per-ticket classify: consume the batched row once, recompute
        individually on retry (isolating a poisoned batch to the ticket
        that poisoned it)."""
        request = ticket.request
        held = {"row": row}

        def func():
            value = held["row"]
            if value is not None:
                held["row"] = None
                return value
            return self.engine.classify([request])[0]

        return self._run_stage(
            "classify", request.fingerprint, request.deadline, func
        )

    def _respond_ticket(self, ticket: _Ticket, probabilities: np.ndarray) -> None:
        """Walk the explainer degradation ladder and resolve the ticket."""
        engine = self.engine
        request = ticket.request
        requested = ticket.explainer or engine.default_explainer
        available = getattr(engine, "explainers", None)
        ladder = [requested]
        if available is not None:
            for name in self.resilience.fallback_explainers:
                if name != requested and name in available:
                    ladder.append(name)
        per_rung = self.resilience.retry.max_retries + 1
        last_error: BaseException | None = None
        for rung, name in enumerate(ladder):
            try:
                response = self._run_stage(
                    "explain",
                    request.fingerprint,
                    request.deadline,
                    lambda name=name: engine.execute(
                        request, probabilities=probabilities, explainer=name
                    ),
                    attempt_offset=rung * per_rung,
                    array_output=False,
                )
            except (DeadlineExceeded, _BreakerOpen) as error:
                last_error = error
                break  # no budget / breaker shed: skip straight down
            except BaseException as error:
                last_error = error
                continue  # next rung
            else:
                if rung == 0:
                    if ticket.explainer in (None, engine.default_explainer):
                        self.cache.put(response)
                    ticket.response = response
                else:
                    add_counter("resilience.degraded.explainer_fallback")
                    ticket.response = DegradedResponse(
                        name=response.name,
                        fingerprint=response.fingerprint,
                        probabilities=response.probabilities,
                        predicted_class=response.predicted_class,
                        family=response.family,
                        explainer=name,
                        explanation=response.explanation,
                        degradation_reason="explainer_fallback",
                        failed_stage="explain",
                        failure_kind=(
                            failure_kind(last_error)
                            if last_error is not None else "exception"
                        ),
                        detail=str(last_error) if last_error is not None else "",
                    )
                ticket.done.set()
                return
        # Every rung failed (or a deadline/breaker cut the ladder):
        # classification-only, the real class fields are still served.
        if isinstance(last_error, DeadlineExceeded):
            reason = "deadline"
        elif isinstance(last_error, _BreakerOpen):
            reason = "breaker_open"
        else:
            reason = "classification_only"
        add_counter(f"resilience.degraded.{reason}")
        probabilities = np.asarray(probabilities, dtype=float)
        predicted = int(np.argmax(probabilities)) if probabilities.size else -1
        families = getattr(engine, "families", ()) or ()
        family = (
            families[predicted]
            if 0 <= predicted < len(families)
            else str(predicted)
        )
        ticket.response = DegradedResponse(
            name=getattr(request.sample.program, "name", ""),
            fingerprint=request.fingerprint,
            probabilities=probabilities,
            predicted_class=predicted,
            family=family,
            explainer=requested,
            explanation=None,
            degradation_reason=reason,
            failed_stage="explain",
            failure_kind=(
                failure_kind(last_error) if last_error is not None else "exception"
            ),
            detail=str(last_error) if last_error is not None else "",
        )
        ticket.done.set()

    # ------------------------------------------------------------------
    # service thread
    # ------------------------------------------------------------------
    def _resolve_expired(self, ticket: _Ticket) -> bool:
        """Drop a ticket whose deadline passed while it queued."""
        deadline = getattr(ticket.request, "deadline", None)
        if deadline is None or not deadline.expired:
            return False
        add_counter("resilience.deadline.dropped")
        ticket.response = self._degraded_unclassified(
            ticket.request,
            ticket.explainer,
            "deadline",
            DeadlineExceeded("queue", deadline.budget_ms),
            stage="queue",
        )
        ticket.done.set()
        return True

    def _collect_batch(self, first: _Ticket) -> tuple[list[_Ticket], bool]:
        """Coalesce tickets until ``max_batch`` or the latency budget.

        Returns ``(batch, saw_shutdown)``; the sentinel is consumed
        here (never re-enqueued — a blocking re-put could deadlock
        against a full queue) and reported via the flag.  Tickets whose
        deadline expired while queueing are resolved as degraded and
        never batched, and a non-positive remaining budget can never
        reach ``queue.get`` (``timeout=`` must be positive).
        """
        batch = [first]
        deadline = time.monotonic() + self.config.batch_window_ms / 1000.0
        while len(batch) < self.config.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                add_counter("serve.batch.flush_on_budget")
                return batch, False
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                add_counter("serve.batch.flush_on_budget")
                return batch, False
            if item is _SHUTDOWN:
                add_counter("serve.batch.flush_on_budget")
                return batch, True
            if self._resolve_expired(item):
                continue
            batch.append(item)
        add_counter("serve.batch.flush_on_size")
        return batch, False

    def _execute_batch(self, batch: list[_Ticket]) -> None:
        add_counter("serve.batch.count")
        add_counter("serve.batch.tickets", len(batch))
        # Batched classify fast path: skipped when the breaker is not
        # closed (per-ticket classify will gate each request through
        # it) and abandoned wholesale on failure — the per-ticket path
        # then isolates a poisoned request to its own ticket instead of
        # failing every neighbor in the batch.
        rows = None
        if self._breakers["classify"].state == "closed":
            try:
                rows = self.engine.classify([t.request for t in batch])
            except BaseException:
                rows = None
        for index, ticket in enumerate(batch):
            row = rows[index] if rows is not None else None
            try:
                probabilities = self._classify_ticket(ticket, row)
            except RequestRejected as error:
                ticket.error = error
                ticket.done.set()
            except BaseException as error:
                if isinstance(error, DeadlineExceeded):
                    reason = "deadline"
                elif isinstance(error, _BreakerOpen):
                    reason = "breaker_open"
                else:
                    reason = "unavailable"
                ticket.response = self._degraded_unclassified(
                    ticket.request, ticket.explainer, reason, error
                )
                ticket.done.set()
            else:
                self._respond_ticket(ticket, probabilities)

    def _serve_loop(self) -> None:
        draining = False
        while True:
            if draining and self._queue.empty():
                return
            item = self._queue.get()
            if item is _SHUTDOWN:
                draining = True
                continue
            if self._resolve_expired(item):
                continue
            batch, saw_shutdown = self._collect_batch(item)
            draining = draining or saw_shutdown
            try:
                self._execute_batch(batch)
            except BaseException as error:  # no lost tickets, ever
                add_counter("serve.batch.aborted")
                for ticket in batch:
                    if not ticket.done.is_set():
                        ticket.response = self._degraded_unclassified(
                            ticket.request, ticket.explainer, "unavailable", error
                        )
                        ticket.done.set()
