"""Request-path benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload triage-cold --seed 1 --seconds 10 --trace 0

Sets up a serving engine (corpus, training, engine and daemon start).
A closed loop of two client threads, each submitting a listing and
waiting for the reply, then drives the in-process
:class:`repro.serve.ServeDaemon` through a fixed number of requests,
in three slices with one more set-up timed (and discarded) after each
of the first two; the median of the three set-ups is ``setup_s``.  The
number of requests is ``--seconds`` times the workload's rate on a
2-vCPU reference machine (:data:`REQUESTS_PER_SECOND`), so the window
lasts about ``--seconds`` there, and it does not depend on the clock:
every run with a seed sends the same listings, and its attempted and
failed counts repeat exactly.  The listings come from the seeded
request stream of the workload (:mod:`bench_inputs`).  After the
window a correctness gate compares every full response with a direct
:meth:`InferenceEngine.submit` on the same input, every cache hit with
its cold twin, and checks that no fatal hostile listing got a full
response; a mismatch exits 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up
once, runs an untraced window and then a traced one on the next part
of the stream, and reports the per-layer metrics (self time p50, calls
and share of blocking time per layer; daemon, cache, memory and failure
counters; tracing overhead).  A human-readable report goes to standard
output, followed by the result as one JSON object on the last line;
the full result, every request and the spans are written under
``perfbench/results/``.  Without the program's source next to
``perfbench/`` it exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

CLIENTS = 2
#: Explanation cache entries.  Holds the triage-repeat pool.  A cached
#: paper-scale explanation carries dense per-rung snapshots (~40 MB at
#: 700 blocks) and paper-scale never repeats a listing, so there the
#: cache keeps few: with more, peak RSS would track how many requests a
#: run sends rather than what the service holds once its cache is full.
CACHE_CAPACITY = {"paper-scale": 8}
DEFAULT_CACHE_CAPACITY = 64
SETUP_REPEATS = 3
SIGNATURE_FRACTION = 0.2
P90_MIN_REQUESTS = 100
TAIL_MIN_BEYOND = 10

#: Requests per second of ``--seconds``: about each workload's rate on
#: a 2-vCPU reference machine.
REQUESTS_PER_SECOND = {
    "triage-cold": 40,
    "triage-repeat": 90,
    "paper-scale": 2.5,
}


def request_count(workload: str, seconds: float) -> int:
    """Requests in one window: whole cycles of the workload's stream.

    A cycle is triage-cold's hostile block, triage-repeat's pool or
    paper-scale's family round, so every run serves the same mix
    whatever its seed.
    """
    from bench_inputs import HOSTILE_EVERY, REPEAT_POOL
    from repro.malgen.families import FAMILIES

    cycle = {
        "triage-cold": HOSTILE_EVERY,
        "triage-repeat": REPEAT_POOL,
        "paper-scale": len(FAMILIES),
    }[workload]
    return max(1, math.ceil(REQUESTS_PER_SECOND[workload] * seconds / cycle)) * cycle


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile that keeps ``inf`` samples as inf."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if ordered[low] == ordered[high]:
        return ordered[low]
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: list[float], q: float = 90.0) -> float | None:
    """The q-th percentile, or None without enough samples beyond it."""
    if len(values) < P90_MIN_REQUESTS:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= TAIL_MIN_BEYOND else None


#: glibc's ``mallopt`` parameter for the number of malloc arenas.
M_ARENA_MAX = -8


def _pin_process() -> None:
    """Process settings the measurements depend on; call before numpy loads.

    * One CPU.  The served path is bound by the interpreter lock: its
      threads never run Python at the same time.  On two vCPUs of a
      shared host every hand-off of the lock between the clients and
      the daemon's service thread waits for the other vCPU to be
      scheduled, which made triage-cold's throughput swing by a quarter
      between runs and cost a fifth of it on average; on one CPU a
      hand-off is a plain thread switch.  The price: work a change moves
      outside the lock to run in parallel would not show its gain here.
    * One BLAS thread, for the same reason.
    * One malloc arena: with an arena per thread, which thread happened
      to allocate which ACFG set paper-scale's peak RSS, and it moved by
      a quarter between runs of the same seed.  Skipped where the C
      library has no ``mallopt``.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass


def _import_program():
    """Put the checkout's ``src`` first on the path, or exit 2."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        sys.exit(2)
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build_engine(workload: str):
    """Corpus, training and engine, the same for every seed.

    The seed varies the requests only; the model under test is fixed.
    paper-scale trains with a ReduceConfig so reduce and lift run on
    every request.
    """
    from repro.acfg import IngestPolicy
    from repro.eval.pipeline import ExperimentConfig, run_pipeline
    from repro.reduce import ReduceConfig
    from repro.serve import InferenceEngine

    config = ExperimentConfig(
        samples_per_family=8,
        size_multiplier=1,
        gnn_hidden=(64, 48, 32),
        gnn_epochs=45,
        gnn_lr=0.01,
        explainer_epochs=30,
        pgexplainer_epochs=2,
        verify_mode=None,
        reduce=ReduceConfig() if workload == "paper-scale" else None,
    )
    artifacts = run_pipeline(config)
    return InferenceEngine(
        gnn=artifacts.gnn,
        scaler=artifacts.scaler,
        explainers=artifacts.explainers,
        families=tuple(artifacts.train_set.families),
        policy=IngestPolicy(
            on_bad_input="quarantine", verify="strict", reduce=config.reduce
        ),
        step_size=config.step_size,
    )


def set_up(workload: str):
    """Set up once; return (running daemon, seconds through daemon start)."""
    from repro.serve import DaemonConfig, ServeDaemon

    start = time.perf_counter()
    daemon = ServeDaemon(
        build_engine(workload),
        DaemonConfig(
            cache_capacity=CACHE_CAPACITY.get(workload, DEFAULT_CACHE_CAPACITY)
        ),
    ).start()
    return daemon, time.perf_counter() - start


def timed_set_up(workload: str) -> float:
    """One more set-up, timed through daemon start, then discarded."""
    daemon, seconds = set_up(workload)
    daemon.stop()
    return seconds


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Served:
    """What the gate and the quality metrics need from a full response.

    Kept instead of the response so the benchmark does not hold every
    explanation (graphs, subgraph ladders) alive and inflate peak RSS.
    """

    fingerprint: str
    probabilities: object
    predicted_class: int
    family: str
    explainer: str
    cached: bool
    node_order: object

    @classmethod
    def of(cls, response) -> "Served":
        return cls(
            response.fingerprint, response.probabilities, response.predicted_class,
            response.family, response.explainer, response.cached,
            response.explanation.node_order,
        )

    def top_nodes(self, fraction: float):
        """The ``Explanation.top_nodes`` of the served ranking."""
        from repro.explain.explanation import kept_count

        return self.node_order[: kept_count(fraction, len(self.node_order))].copy()


@dataclass
class Outcome:
    request: object
    rid: str
    start: float
    end: float
    #: "response", "degraded", "rejected" or "error" (untyped exception).
    status: str
    served: Served | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Did the request get its expected typed outcome?"""
        return self.status == self.request.expect

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def blocks(self) -> int:
        return len(self.served.node_order) if self.status == "response" else 0


def run_window(daemon, stream, stop: int, cursor: list[int], recorder=None):
    """Two closed-loop clients serve the stream up to index ``stop``.

    ``cursor`` holds the next stream index, so consecutive windows
    continue the stream instead of repeating it.  Returns (outcomes,
    seconds from the start to the last reply).
    """
    from bench_spans import REQUEST_SPAN
    from repro.serve import RequestRejected

    lock = threading.Lock()
    per_client: list[list[Outcome]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(CLIENTS + 1)

    def next_index() -> int:
        with lock:
            index = cursor[0]
            cursor[0] += 1
            return index

    def client(k: int) -> None:
        try:
            barrier.wait()
            while (sequence := next_index()) < stop:
                request = stream[sequence]
                rid = f"{request.name}@{sequence}"
                if recorder is not None:
                    recorder.set_requests((rid,))
                    span = recorder.begin(REQUEST_SPAN)
                served, detail = None, ""
                start = time.perf_counter()
                try:
                    response = daemon.submit_text(request.text, name=rid)
                    status = "degraded" if response.degraded else "response"
                    if status == "response":
                        served = Served.of(response)
                    del response
                except RequestRejected as rejection:
                    status, detail = "rejected", rejection.reason
                except Exception as error:  # an untyped escape is a failure
                    status, detail = "error", type(error).__name__
                end = time.perf_counter()
                if recorder is not None:
                    recorder.end(span)
                    recorder.set_requests(())
                per_client[k].append(
                    Outcome(request, rid, start, end, status, served, detail)
                )
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"perfbench-client-{k}")
        for k in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    # Both clients stopped one past ``stop``; the next window starts there.
    cursor[0] = stop
    if errors:
        raise errors[0]
    outcomes = sorted((o for c in per_client for o in c), key=lambda o: o.start)
    elapsed = max(o.end for o in outcomes) - start
    return outcomes, elapsed


def warm_cache(daemon, stream) -> list[Outcome]:
    """Serve each listing of a repeat pool once, before any timing.

    Their responses are the cold twins the gate compares hits with.
    """
    outcomes = []
    for index, request in enumerate(stream.pool):
        rid = f"{request.name}@warm{index}"
        start = time.perf_counter()
        response = daemon.submit_text(request.text, name=rid)
        status = "degraded" if response.degraded else "response"
        served = Served.of(response) if status == "response" else None
        outcomes.append(
            Outcome(request, rid, start, time.perf_counter(), status, served)
        )
    return outcomes


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
#: Batched vs single-graph classification tolerance, as documented by
#: the engine's own equivalence test.
BATCH_ATOL = 1e-8


def _bits(array) -> tuple:
    return array.dtype.str, array.shape, array.tobytes()


def gate(engine, outcomes: list[Outcome], batches) -> tuple[list[str], int]:
    """Check the serving contract after the window.

    * Every full response equals a direct ``InferenceEngine.submit`` on
      the same input bit for bit in fingerprint, class, explainer and
      ``node_order``.  Its probabilities equal the daemon's batch,
      recomputed by ``InferenceEngine.classify``, bit for bit, and the
      single-request ones within :data:`BATCH_ATOL`; a request the
      daemon classified alone must match bit for bit.
    * Every cache hit equals its cold twin bit for bit.
    * No fatal hostile listing got a full response.

    Returns (violations, full responses whose probabilities are not
    bit-identical to the single-request path).
    """
    import numpy as np

    from repro.serve.engine import submission_from_text

    def admit(name: str):
        return engine.admit(submission_from_text(text_of[name], name=name))

    violations: list[str] = []
    text_of = {o.rid: o.request.text for o in outcomes}
    batch_of = {name: batch for batch in batches for name in batch}
    cold: dict[tuple, Served] = {}
    rows: dict[str, object] = {}
    not_bitwise = 0
    for outcome in outcomes:
        request, served = outcome.request, outcome.served
        if request.expect == "rejected" and outcome.status == "response":
            violations.append(f"{outcome.rid}: fatal {request.kind} got a full response")
        if served is None or served.cached:
            continue
        cold.setdefault(served.fingerprint, served)
        # InferenceEngine.submit is execute(admit(sample)).
        direct = Served.of(engine.execute(admit(outcome.rid)))
        if (
            served.fingerprint != direct.fingerprint
            or served.predicted_class != direct.predicted_class
            or served.explainer != direct.explainer
            or _bits(served.node_order) != _bits(direct.node_order)
        ):
            violations.append(f"{outcome.rid}: response differs from engine.submit")
            continue
        if _bits(served.probabilities) == _bits(direct.probabilities):
            continue
        not_bitwise += 1
        batch = batch_of.get(outcome.rid, ())
        if outcome.rid not in rows and len(batch) > 1:
            rows.update(zip(batch, engine.classify([admit(name) for name in batch])))
        row = rows.get(outcome.rid)
        if (
            row is None
            or _bits(np.asarray(row, dtype=float)) != _bits(served.probabilities)
            or not np.allclose(
                served.probabilities, direct.probabilities, rtol=0.0, atol=BATCH_ATOL
            )
        ):
            violations.append(
                f"{outcome.rid}: probabilities differ from the recomputed batch "
                f"or from engine.submit beyond {BATCH_ATOL}"
            )
    for outcome in outcomes:
        served = outcome.served
        if served is None or not served.cached:
            continue
        twin = cold.get(served.fingerprint)
        if twin is None or (
            _bits(served.probabilities) != _bits(twin.probabilities)
            or _bits(served.node_order) != _bits(twin.node_order)
            or served.predicted_class != twin.predicted_class
        ):
            violations.append(f"{outcome.rid}: cache hit differs from its cold twin")
    return violations, not_bitwise


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def ground_truth(request, cache: dict):
    """The generator's labelled sample for a clean request."""
    from repro.disasm import build_cfg
    from repro.malgen.corpus import LabeledSample, block_motif_tags
    from repro.malgen.families import generate_program

    key = (request.family, request.program_seed, request.multiplier)
    if key not in cache:
        program, spans = generate_program(*key)
        cfg = build_cfg(program)
        cache[key] = LabeledSample(
            program=program, cfg=cfg, family=request.family, label=-1,
            motif_spans=spans, block_tags=block_motif_tags(cfg, spans),
        )
    return cache[key]


def quality(outcomes: list[Outcome]) -> tuple[float, float, list[str]]:
    """(served_accuracy, signature_recall, violations) over clean requests.

    Failed requests stay in both denominators: a failed clean request is
    a wrong prediction and a recall of 0.
    """
    from repro.explain.groundtruth import signature_recovery

    cache: dict = {}
    correct = clean = 0
    recalls, violations = [], []
    for outcome in outcomes:
        request = outcome.request
        if request.kind != "clean":
            continue
        clean += 1
        sample = ground_truth(request, cache)
        served = outcome.status == "response"
        if served and outcome.blocks != len(sample.cfg.blocks):
            violations.append(
                f"{outcome.rid}: explanation covers {outcome.blocks} blocks, "
                f"listing has {len(sample.cfg.blocks)}"
            )
            served = False
        correct += served and outcome.served.family == request.family
        if not sample.signature_blocks:
            continue
        recall = 0.0
        if served:
            recall = signature_recovery(
                sample, outcome.served, SIGNATURE_FRACTION
            ).recall
        recalls.append(recall)
    accuracy = correct / clean if clean else math.nan
    recall = statistics.fmean(recalls) if recalls else math.nan
    return accuracy, recall, violations


def tally(outcomes: list[Outcome]) -> dict[str, int]:
    statuses = [o.status for o in outcomes]
    return {
        "sent": len(outcomes),
        "succeeded": sum(1 for o in outcomes if o.status == "response"),
        "rejected": statuses.count("rejected"),
        "degraded": statuses.count("degraded"),
        "untyped_errors": statuses.count("error"),
        "failed": sum(1 for o in outcomes if not o.ok),
    }


def latencies(outcomes: list[Outcome]) -> list[float]:
    """Per-request latency; a request that failed counts as infinite."""
    return [o.latency_ms if o.ok else math.inf for o in outcomes]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, elapsed, setup_seconds, rss_mb) -> tuple[dict, dict]:
    counts = tally(outcomes)
    ok = counts["sent"] - counts["failed"]
    lat = latencies(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "throughput_rps": (ok / elapsed, "1/s"),
        "kblocks_per_s": (
            sum(o.blocks for o in outcomes if o.ok) / elapsed / 1000.0, "kblocks/s"
        ),
        "typed_outcome_ratio": (ok / counts["sent"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "counts": counts,
        "failed_ratio": counts["failed"] / counts["sent"],
        "latency_p90_ms": tail_percentile(lat),
        "latency_samples": len(lat),
        "elapsed_s": elapsed,
        "setup_seconds": setup_seconds,
        "failures": dict(Counter(
            f"{o.request.kind} expected {o.request.expect}, got {o.status} {o.detail}"
            for o in outcomes if not o.ok
        )),
    }
    return metrics, extra


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
def probe(engine, outcomes) -> tuple[dict, dict]:
    """Time each explainer once, then measure its tracemalloc peak.

    The probe listing is the run's median-size served clean listing.
    The default explainer, the only one requests use, is probed on it;
    the others on the same program generated at multiplier 1, which
    only differs on paper-scale, where SubgraphX alone takes ~40 s on a
    600-block graph.  ``verify_sample`` is measured on the probe listing
    too.
    """
    from bench_inputs import Request
    from bench_spec import EXPLAINERS
    from repro.malgen.families import generate_program
    from repro.serve.engine import submission_from_text
    from repro.staticcheck import verify_sample

    served = sorted(
        (o for o in outcomes if o.request.kind == "clean" and o.status == "response"),
        key=lambda o: (o.blocks, o.rid),
    )
    chosen: Request = served[len(served) // 2].request
    sample = submission_from_text(chosen.text, name="probe")
    small_program, _ = generate_program(chosen.family, chosen.program_seed, 1)
    prepared = {
        True: engine.admit(sample),
        False: engine.admit(submission_from_text(small_program.to_text(), name="probe")),
    }
    seconds, peak_mb = {}, {}

    def peak(function) -> float:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            function()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    for name in EXPLAINERS:
        request = prepared[name == engine.default_explainer]

        def explain(name=name, request=request):
            return engine.explain_graph(
                request.graph, request.original, request.lift, explainer=name
            )

        start = time.perf_counter()
        explain()
        seconds[f"explain.{name}"] = time.perf_counter() - start
        peak_mb[f"explain.{name}_peak_alloc_mb"] = peak(explain)
    peak_mb["staticcheck.verify_peak_alloc_mb"] = peak(lambda: verify_sample(sample))
    return seconds, peak_mb


def per_layer(spans, probe_seconds, peak_mb, delta, outcomes, overhead_ms) -> dict:
    from bench_spans import REQUEST_SPAN, WAIT, attribute
    from bench_spec import TIMED_LAYERS

    samples: dict[str, list[float]] = {layer.name: [] for layer in TIMED_LAYERS}
    dense_bytes = []
    for span in spans:
        if span.name != REQUEST_SPAN:
            samples[span.name].append(span.self_time)
        if span.nodes is not None:
            dense_bytes.append(float(span.nodes) ** 2 * 8.0)
    for name, value in probe_seconds.items():
        samples[name].append(value)
    blocking = attribute(spans)
    samples[WAIT] = [split[WAIT] for split in blocking.values()]
    total = sum(sum(split.values()) for split in blocking.values())

    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        values = samples[layer.name]
        share = sum(split.get(layer.name, 0.0) for split in blocking.values())
        metrics[f"{layer.name}_ms"] = (
            percentile(values, 50) * 1000.0 if values else 0.0, "ms"
        )
        metrics[f"{layer.name}_calls"] = (len(values), "count")
        metrics[f"{layer.name}_share"] = (share / total if total else 0.0, "ratio")

    def count(prefix: str) -> float:
        return sum(v for k, v in delta.items() if k.startswith(prefix))

    batches = count("serve.batch.count")
    lookups = count("serve.cache.hit") + count("serve.cache.miss")
    metrics.update({
        "serve.batch_size_mean": (
            count("serve.batch.tickets") / batches if batches else 0.0, "count"
        ),
        "serve.batches": (batches, "count"),
        "serve.flush_on_budget_ratio": (
            count("serve.batch.flush_on_budget") / batches if batches else 0.0, "ratio"
        ),
        "serve.cache_hit_ratio": (
            count("serve.cache.hit") / lookups if lookups else 0.0, "ratio"
        ),
        "serve.cache_lookups": (lookups, "count"),
        "acfg.dense_bytes": (percentile(dense_bytes, 50), "B"),
        "serve.rejected": (count("serve.rejected."), "count"),
        "serve.degraded": (count("resilience.degraded."), "count"),
        "resilience.retries": (count("resilience.retry."), "count"),
        "serve.untyped_errors": (
            sum(1 for o in outcomes if o.status == "error"), "count"
        ),
        "trace.overhead_ms": (overhead_ms, "ms"),
    })
    for name, value in peak_mb.items():
        metrics[name] = (value, "MB")
    return metrics


def median_request(spans) -> dict[str, float] | None:
    """The layer split of the traced request with median latency."""
    from bench_spans import attribute

    blocking = attribute(spans)
    if not blocking:
        return None
    ordered = sorted(blocking.values(), key=lambda split: sum(split.values()))
    return ordered[len(ordered) // 2]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_end_to_end(workload, seed, metrics, extra) -> None:
    from bench_spec import END_TO_END

    counts = extra["counts"]
    print(f"perfbench {workload} seed {seed}: closed loop, {CLIENTS} clients, "
          f"{counts['sent']} requests in {extra['elapsed_s']:.2f} s, "
          f"{SETUP_REPEATS} slices"
          + (f", after {extra['warm_up']} warm-up requests" if extra["warm_up"] else ""))
    print("  requests: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"  failed_ratio {extra['failed_ratio']:.6g} "
          f"({counts['failed']} of {counts['sent']} attempted)")
    for failure, count in extra["failures"].items():
        print(f"    {count} x {failure}")
    for spec in END_TO_END:
        value, unit = metrics[spec.name]
        print(f"  {spec.name:22s} {_fmt(value):>12s} {unit:10s} {spec.meaning}")
    for name in ("served_accuracy", "signature_recall"):
        print(f"  {name:22s} {_fmt(extra[name]):>12s} ratio      "
              "reported as measured; bounded only in the traced run's "
              "per-layer metrics")
    print(f"  {extra['not_bitwise_vs_submit']} of {counts['succeeded']} full "
          "responses differ from a single-request engine.submit in the last "
          f"bits of their probabilities (micro-batching; within {BATCH_ATOL})")
    p90 = extra["latency_p90_ms"]
    if p90 is None:
        print(f"  latency_p90_ms omitted: {extra['latency_samples']} samples, "
              f"needs >= {P90_MIN_REQUESTS} with >= {TAIL_MIN_BEYOND} beyond it")
    else:
        print(f"  latency_p90_ms         {_fmt(p90):>12s} ms         "
              f"over {extra['latency_samples']} samples")


def _target(prediction) -> str:
    parts = []
    if prediction.moves:
        parts.append(f"moves {'/'.join(prediction.moves)} on {', '.join(prediction.on)}")
    if prediction.no_change_on:
        parts.append(f"no change on {', '.join(prediction.no_change_on)}")
    text = "; ".join(parts)
    return f"{text} ({prediction.note})" if prediction.note else text


def report_per_layer(metrics, accounting) -> None:
    from bench_spec import OTHER_LAYER_METRICS, TIMED_LAYERS

    print("  per-layer: self time p50 | calls | share of blocking time, "
          "then the predicted effect")
    for layer in TIMED_LAYERS:
        (p50, _), (calls, _), (share, _) = (
            metrics[name] for name, _ in layer.metrics
        )
        print(f"  {layer.name + '_ms':30s} {_fmt(p50):>10s} ms | {calls:>6} | "
              f"{share:6.1%}  {_target(layer.prediction)}")
    for metric in OTHER_LAYER_METRICS:
        value, unit = metrics[metric.name]
        print(f"  {metric.name:30s} {_fmt(value):>10s} {metric.unit}  "
              f"{_target(metric.prediction)}")
    for line in accounting:
        print("  " + line)


def emit(correct: bool, counts: dict, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": counts["sent"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def write_result(stem: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    from bench_spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="window length on the reference machine; sets the request count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_process()
    _import_program()
    from bench_inputs import RequestStream
    from bench_spans import SpanRecorder, instrument, record_batches
    from repro.obs import metrics_registry

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Wall time of each part of the run, for sizing --seconds.
    phases = {"start": time.perf_counter()}
    stream = RequestStream(args.workload, args.seed)
    count = request_count(args.workload, args.seconds)
    windows = 1 if args.trace == 0 else 2
    # Generated before the window, so generation does not compete with serving.
    stream.prefetch(count * windows)
    phases["inputs"] = time.perf_counter()
    cursor = [0]

    daemon, seconds = set_up(args.workload)
    setup_seconds = [seconds]
    engine = daemon.engine
    try:
        with record_batches() as batches:
            warm = warm_cache(daemon, stream)
            if args.trace == 0:
                # The window is cut into slices with the other set-ups
                # between them: the machine's speed drifts within tens
                # of seconds, and slices spread over the whole run
                # average more of that drift than one stretch does.
                outcomes, elapsed = [], 0.0
                # The high-water mark after each phase, to show where
                # the peak arose.
                rss_trail = [("set-up 1", peak_rss_mb())]
                for k in range(SETUP_REPEATS):
                    stop = count * (k + 1) // SETUP_REPEATS
                    # The discarded set-up's garbage is not the window's.
                    gc.collect()
                    part, part_elapsed = run_window(daemon, stream, stop, cursor)
                    outcomes += part
                    elapsed += part_elapsed
                    rss_trail.append((f"slice {k + 1}", peak_rss_mb()))
                    if len(setup_seconds) < SETUP_REPEATS:
                        setup_seconds.append(timed_set_up(args.workload))
                        rss_trail.append((f"set-up {k + 2}", peak_rss_mb()))
                # Read before the gate: its direct re-execution is the
                # benchmark's work, not the server's.
                rss_mb = peak_rss_mb()
            else:
                gc.collect()
                plain, _ = run_window(daemon, stream, count, cursor)
                gc.collect()
                recorder = SpanRecorder()
                before = metrics_registry().snapshot()
                with instrument(recorder):
                    outcomes, _ = run_window(
                        daemon, stream, 2 * count, cursor, recorder
                    )
                delta = metrics_registry().delta_since(before)
    finally:
        daemon.stop()

    served = warm + outcomes if args.trace == 0 else warm + plain + outcomes
    phases["serve"] = time.perf_counter()
    violations, not_bitwise = gate(engine, served, batches)
    phases["gate"] = time.perf_counter()
    accuracy, recall, quality_violations = quality(outcomes)
    violations += quality_violations
    phases["quality"] = time.perf_counter()
    if args.trace == 0:
        metrics, extra = end_to_end(outcomes, elapsed, setup_seconds, rss_mb)
        extra.update(served_accuracy=accuracy, signature_recall=recall,
                     not_bitwise_vs_submit=not_bitwise, warm_up=len(warm),
                     peak_rss_trail_mb=rss_trail)
        report_end_to_end(args.workload, args.seed, metrics, extra)
    else:
        spans = recorder.spans()
        RESULTS.mkdir(exist_ok=True)
        recorder.write_jsonl(RESULTS / f"{stem}-spans.jsonl")
        untraced_p50 = percentile(latencies(plain), 50)
        traced_p50 = percentile(latencies(outcomes), 50)
        probe_seconds, peak_mb = probe(engine, outcomes)
        metrics = per_layer(
            spans, probe_seconds, peak_mb, delta, outcomes, traced_p50 - untraced_p50
        )
        metrics["gnn.served_accuracy"] = (accuracy, "ratio")
        metrics["explain.signature_recall"] = (recall, "ratio")
        split = median_request(spans) or {}
        accounting = [
            f"latency_p50_ms untraced {untraced_p50:.4g}, traced {traced_p50:.4g}, "
            f"overhead {traced_p50 - untraced_p50:.4g} ms",
            "median traced request: " + " + ".join(
                f"{name} {seconds * 1000:.3g}" for name, seconds in split.items()
            ) + f" = {sum(split.values()) * 1000:.4g} ms",
        ]
        extra = {
            "counts": tally(outcomes),
            "untraced_counts": tally(plain),
            "not_bitwise_vs_submit": not_bitwise,
            "warm_up": len(warm),
        }
        print(f"perfbench {args.workload} seed {args.seed} traced: "
              + ", ".join(f"{k} {v}" for k, v in extra["counts"].items()))
        report_per_layer(metrics, accounting)

    for violation in violations:
        print(f"  GATE FAILED: {violation}")
    correct = not violations
    first = min(o.start for o in outcomes)
    write_result(stem, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "violations": violations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "phase_s": {
            name: round(phases[name] - phases[previous], 3)
            for previous, name in zip(phases, list(phases)[1:])
        },
        "requests": [
            [o.rid, o.request.kind, round(o.start - first, 6),
             round(o.latency_ms, 4), o.status, o.blocks]
            for o in outcomes
        ],
    })
    emit(correct, extra["counts"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
