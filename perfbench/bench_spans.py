"""Request-scoped spans recorded from the benchmark's own code.

The program is not modified: :func:`instrument` wraps the public entry
points of each layer for the duration of the traced window and restores
them afterwards.  Spans live in per-thread lists (no shared stack, so
the daemon's service thread and the client threads never interleave
each other's nesting) and carry the id of the request they serve:

* client threads set the id around each ``submit_text`` call;
* the service thread takes it from the request handed to
  ``InferenceEngine.execute`` (explain) or ``classify`` (one batch
  serves several requests, so its span carries all their ids).

A layer's self time is its span's duration minus its children's.  Each
request's latency is split into the self times of the spans that
blocked it plus ``serve.wait``, the remainder: queue time, the batch
window and time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: ingest_sample stage_hook boundary -> span name.
STAGE_SPANS = {
    "sanitize": "harden.sanitize",
    "verify": "staticcheck.verify",
    "reduce": "reduce.reduce",
}

REQUEST_SPAN = "request"
WAIT = "serve.wait"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the parent span in the same thread's list, or -1.
    parent: int
    #: Request ids this span served (several for a batched classify).
    requests: tuple[str, ...]
    thread: str
    children_s: float = 0.0
    #: Graph size for spans that build an ACFG (from_sample).
    nodes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class SpanRecorder:
    """Per-thread span lists; a thread only ever touches its own."""

    def __init__(self):
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.requests = ()
            with self._lock:
                self._lists.append(local.spans)
        return local

    def set_requests(self, requests: tuple[str, ...]) -> None:
        self._state().requests = requests

    def begin(self, name: str, requests: tuple[str, ...] | None = None) -> int:
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        index = len(local.spans)
        local.spans.append(Span(
            name, time.perf_counter(), 0.0, parent,
            local.requests if requests is None else requests,
            threading.current_thread().name,
        ))
        local.stack.append(index)
        return index

    def end(self, index: int) -> Span:
        end = time.perf_counter()
        local = self._state()
        if not local.stack or local.stack[-1] != index:
            raise RuntimeError(f"span {local.spans[index].name!r} closed out of order")
        local.stack.pop()
        span = local.spans[index]
        span.end = end
        if span.parent >= 0:
            local.spans[span.parent].children_s += span.duration
        return span

    @contextlib.contextmanager
    def span(self, name: str, requests: tuple[str, ...] | None = None):
        index = self.begin(name, requests)
        try:
            yield
        finally:
            self.end(index)

    def spans(self) -> list[Span]:
        with self._lock:
            lists = list(self._lists)
        return [span for spans in lists for span in spans]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "requests": list(span.requests),
                    "thread": span.thread,
                }) + "\n")


def _timed(recorder: SpanRecorder, name: str, function, nodes=False):
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            span = recorder.end(index)
        if nodes:
            span.nodes = int(result.n)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap each layer's public entry points; restore them on exit."""
    import repro.acfg.ingest as ingest
    import repro.disasm as disasm
    import repro.serve.engine as engine
    import repro.staticcheck.verifier as verifier
    from repro.acfg.dataset import FeatureScaler
    from repro.serve.daemon import ExplanationCache
    from repro.serve.engine import InferenceEngine

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attribute, replacement):
        saved.append((owner, attribute, owner.__dict__[attribute]
                      if isinstance(owner, type) else getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # submission_from_text imports parse_program/build_cfg from
    # repro.disasm at call time, so the package attributes are the seam.
    patch(disasm, "parse_program",
          _timed(recorder, "disasm.parse", disasm.parse_program))
    patch(disasm, "build_cfg", _timed(recorder, "disasm.cfg", disasm.build_cfg))
    # Features are built by the sanitizer and again by the verifier.
    patch(ingest, "from_sample",
          _timed(recorder, "acfg.features", ingest.from_sample, nodes=True))
    patch(verifier, "from_sample",
          _timed(recorder, "acfg.features", verifier.from_sample, nodes=True))
    patch(engine, "fingerprint_graph",
          _timed(recorder, "obs.fingerprint", engine.fingerprint_graph))
    patch(FeatureScaler, "transform",
          _timed(recorder, "acfg.scale", FeatureScaler.transform))
    patch(InferenceEngine, "admit",
          _timed(recorder, "serve.admit", InferenceEngine.admit))
    patch(ExplanationCache, "get",
          _timed(recorder, "serve.cache", ExplanationCache.get))

    ingest_sample = engine.ingest_sample

    def traced_ingest(sample, policy, graph=None, skip_cfg_checks=False,
                      stage_hook=None):
        current: list[int] = []

        def hook(stage: str) -> None:
            if current:
                recorder.end(current.pop())
            current.append(recorder.begin(STAGE_SPANS[stage]))
            if stage_hook is not None:
                stage_hook(stage)

        try:
            return ingest_sample(sample, policy, graph=graph,
                                 skip_cfg_checks=skip_cfg_checks, stage_hook=hook)
        finally:
            if current:
                recorder.end(current.pop())

    patch(engine, "ingest_sample", traced_ingest)

    classify = InferenceEngine.classify

    def traced_classify(self, requests):
        names = tuple(r.sample.program.name for r in requests)
        with recorder.span("gnn.classify", names):
            return classify(self, requests)

    patch(InferenceEngine, "classify", traced_classify)

    execute = InferenceEngine.execute

    def traced_execute(self, request, probabilities=None, explainer=None):
        recorder.set_requests((request.sample.program.name,))
        try:
            return execute(self, request, probabilities, explainer)
        finally:
            recorder.set_requests(())

    patch(InferenceEngine, "execute", traced_execute)

    explain_graph = InferenceEngine.explain_graph

    def traced_explain(self, graph, original=None, lift=None, explainer=None,
                       step_size=None):
        with recorder.span(f"explain.{explainer or self.default_explainer}"):
            return explain_graph(self, graph, original, lift, explainer, step_size)

    patch(InferenceEngine, "explain_graph", traced_explain)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def record_batches():
    """Log the request names of every ``InferenceEngine.classify`` call.

    The daemon micro-batches, and a batch's probabilities can differ
    from a single-graph pass in the last bits; the correctness gate
    needs each batch's composition to reproduce it exactly.  Costs one
    tuple per batch, so untraced runs use it too.
    """
    from repro.serve.engine import InferenceEngine

    batches: list[tuple[str, ...]] = []
    classify = InferenceEngine.__dict__["classify"]

    def logged_classify(self, requests):
        batches.append(tuple(r.sample.program.name for r in requests))
        return classify(self, requests)

    InferenceEngine.classify = logged_classify
    try:
        yield batches
    finally:
        InferenceEngine.classify = classify


def attribute(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Blocking time per request: layer self times plus ``serve.wait``.

    Returns ``{request id: {layer: seconds}}`` for every request with a
    client-side ``request`` span.  Client-thread spans block their own
    request; a batched classify blocks every request in its batch; an
    explain blocks the request being executed.  ``serve.wait`` is the
    request's latency minus all of that, so each request's layers sum
    to its latency exactly.
    """
    latency: dict[str, float] = {}
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.name == REQUEST_SPAN:
            latency[span.requests[0]] = span.duration
            continue
        for request in span.requests:
            layers[request][span.name] += span.self_time
    result: dict[str, dict[str, float]] = {}
    for request, total in latency.items():
        split = dict(layers.get(request, {}))
        split[WAIT] = total - sum(split.values())
        result[request] = split
    return result
