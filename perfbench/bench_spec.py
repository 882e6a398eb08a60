"""Metric and workload definitions for the request-path benchmark.

Single source of truth for what :mod:`perfbench.run` reports: the
end-to-end metrics a triage analyst sees, and the per-layer metrics of
the traced run.  Every layer metric records, before anything is
measured, which end-to-end metric it should move, on which workload,
and where the prediction is "no change".  ``BENCHMARK.json`` at the
repository root lists the same names and units; the self-tests check
that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The workloads.  An explainer-mix workload (each request naming one of
#: the six explainers) is left out: its runs, whose correctness gate
#: re-executes every explanation, made a full set of repeated runs of
#: all workloads too long at run lengths that are steady on a shared
#: two-core machine.  Every explainer is still timed, by the traced
#: run's probe (see run.probe).
WORKLOADS = ("triage-cold", "triage-repeat", "paper-scale")

#: The six explainers a serving engine carries (``Gradient`` is added
#: by :class:`repro.serve.InferenceEngine` itself).
EXPLAINERS = (
    "CFGExplainer",
    "GNNExplainer",
    "PGExplainer",
    "SubgraphX",
    "CFExplainer",
    "Gradient",
)

@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: What a user of the service sees, one row per workload.  Three more
#: are printed beside these on every run but carry no bound:
#: ``latency_p90_ms`` (only when the run supports it, see
#: :func:`run.tail_percentile`; paper-scale completes too few requests),
#: and ``served_accuracy`` / ``signature_recall``, whose spread across
#: seeds is sampling error over the few dozen distinct listings a run
#: serves; the traced run reports those two as per-layer metrics, which
#: carry no bound.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of 3 set-ups: corpus, training, engine and daemon start"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median submit_text latency; a failed request counts as infinite"),
    EndToEnd("throughput_rps", "1/s", "higher", 0.25,
             "requests with their expected typed outcome per second"),
    EndToEnd("kblocks_per_s", "kblocks/s", "higher", 0.25,
             "basic blocks of full responses served per second, in thousands"),
    EndToEnd("typed_outcome_ratio", "ratio", "higher", 0.02,
             "1 - failed_ratio: requests with their expected typed outcome "
             "over requests attempted"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2,
             "peak resident memory of the process through set-up and the window"),
)


@dataclass(frozen=True)
class Prediction:
    """Which end-to-end metrics a layer metric should move, and where."""

    moves: tuple[str, ...]
    on: tuple[str, ...]
    no_change_on: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class TimedLayer:
    """A layer boundary timed by a span: reported as p50, calls, share."""

    name: str
    prediction: Prediction

    @property
    def metrics(self) -> tuple[tuple[str, str], ...]:
        return (
            (f"{self.name}_ms", "ms"),
            (f"{self.name}_calls", "count"),
            (f"{self.name}_share", "ratio"),
        )


_ADMISSION = Prediction(
    moves=("throughput_rps", "latency_p50_ms"),
    on=("triage-repeat", "triage-cold", "paper-scale"),
    note="admission is nearly the whole path of a cache hit and runs on "
         "every request, so no workload bypasses it",
)

_PROBE_ONLY = Prediction(
    moves=(), on=(), no_change_on=WORKLOADS,
    note="no workload requests it; timed by the traced run's probe only",
)

_DEFAULT_EXPLAINER = Prediction(
    moves=("latency_p50_ms", "throughput_rps"),
    on=("triage-cold", "paper-scale"),
    no_change_on=("triage-repeat",),
    note="the default explainer serves every cold miss; cache hits never "
         "reach it",
)

#: Spans in request order.  ``serve.wait`` is not a span: it is each
#: request's latency minus the engine calls attributed to it.  Each
#: ``explain.*`` sample set also holds one probe call (see run.probe),
#: so explainers a workload never requests still report a time.
TIMED_LAYERS = (
    TimedLayer("disasm.parse", _ADMISSION),
    TimedLayer("disasm.cfg", _ADMISSION),
    TimedLayer("serve.admit", _ADMISSION),
    TimedLayer("harden.sanitize", _ADMISSION),
    TimedLayer("acfg.features", _ADMISSION),
    TimedLayer("staticcheck.verify", _ADMISSION),
    TimedLayer("reduce.reduce", _ADMISSION),
    TimedLayer("obs.fingerprint", _ADMISSION),
    TimedLayer("acfg.scale", _ADMISSION),
    TimedLayer("serve.cache", Prediction(
        moves=("throughput_rps",), on=("triage-repeat",),
        no_change_on=("paper-scale",),
        note="on paper-scale a lookup is a sliver of a 700-block request",
    )),
    TimedLayer("serve.wait", Prediction(
        moves=("latency_p50_ms",), on=("triage-cold",),
        no_change_on=("triage-repeat",),
        note="queue time, the 5 ms batch window and GIL contention; "
             "cache hits never reach the queue",
    )),
    TimedLayer("gnn.classify", Prediction(
        moves=("latency_p50_ms",), on=("paper-scale",),
        note="noise at small scale",
    )),
) + tuple(
    TimedLayer(
        f"explain.{name}",
        _DEFAULT_EXPLAINER if name == "CFGExplainer" else _PROBE_ONLY,
    )
    for name in EXPLAINERS
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric that is not a span timing."""

    name: str
    unit: str
    better: str
    prediction: Prediction


_MEMORY = Prediction(
    moves=("peak_rss_mb", "latency_p50_ms"),
    on=("paper-scale",),
    no_change_on=("triage-cold", "triage-repeat"),
    note="no change predicted at small scale",
)

_FAILURES = Prediction(
    moves=("typed_outcome_ratio",),
    on=("triage-cold",),
    no_change_on=("triage-repeat", "paper-scale"),
    note="registry deltas over the traced window",
)

OTHER_LAYER_METRICS = (
    LayerMetric("serve.batch_size_mean", "count", "higher", Prediction(
        moves=("latency_p50_ms",), on=("triage-cold",),
        no_change_on=("triage-repeat",),
    )),
    LayerMetric("serve.batches", "count", "higher", Prediction(
        moves=("latency_p50_ms",), on=("triage-cold",),
        note="base of serve.flush_on_budget_ratio",
    )),
    LayerMetric("serve.flush_on_budget_ratio", "ratio", "lower", Prediction(
        moves=("latency_p50_ms",), on=("triage-cold",),
        no_change_on=("triage-repeat",),
    )),
    LayerMetric("serve.cache_hit_ratio", "ratio", "higher", Prediction(
        moves=("throughput_rps",), on=("triage-repeat",),
        note="near 0 on triage-cold, where only the repeated flag-only "
             "hostile listing can hit",
    )),
    LayerMetric("serve.cache_lookups", "count", "higher", Prediction(
        moves=("throughput_rps",), on=("triage-repeat",),
        note="base of serve.cache_hit_ratio",
    )),
    LayerMetric("acfg.dense_bytes", "B", "lower", Prediction(
        moves=_MEMORY.moves, on=_MEMORY.on, no_change_on=_MEMORY.no_change_on,
        note="computed from tensor sizes (N*N*8 bytes of the dense float64 "
             "adjacency per from_sample call), not measured",
    )),
    LayerMetric("staticcheck.verify_peak_alloc_mb", "MB", "lower", _MEMORY),
) + tuple(
    LayerMetric(f"explain.{name}_peak_alloc_mb", "MB", "lower", _MEMORY)
    for name in EXPLAINERS
) + (
    LayerMetric("gnn.served_accuracy", "ratio", "higher", Prediction(
        moves=(), on=(), no_change_on=WORKLOADS,
        note="clean requests whose predicted family is the generator label, "
             "over clean requests attempted; unchanged by any change that "
             "keeps responses bit-identical",
    )),
    LayerMetric("explain.signature_recall", "ratio", "higher", Prediction(
        moves=(), on=(), no_change_on=WORKLOADS,
        note="mean top-20% planted-signature recall of the default explainer "
             "(repro.explain.groundtruth); a failed request counts as 0",
    )),
    LayerMetric("serve.rejected", "count", "lower", _FAILURES),
    LayerMetric("serve.degraded", "count", "lower", _FAILURES),
    LayerMetric("resilience.retries", "count", "lower", _FAILURES),
    LayerMetric("serve.untyped_errors", "count", "lower", Prediction(
        moves=("typed_outcome_ratio",), on=("triage-cold",),
        no_change_on=("triage-repeat", "paper-scale"),
        note="exceptions other than RequestRejected escaping submit_text",
    )),
    LayerMetric("trace.overhead_ms", "ms", "lower", Prediction(
        moves=("latency_p50_ms",), on=WORKLOADS,
        note="traced minus untraced latency_p50_ms; not a layer of the "
             "program, the cost of the benchmark's own spans",
    )),
)


def per_layer_metrics() -> list[tuple[str, str, str, Prediction]]:
    """Every per-layer metric as ``(name, unit, better, prediction)``."""
    rows: list[tuple[str, str, str, Prediction]] = []
    for layer in TIMED_LAYERS:
        for name, unit in layer.metrics:
            better = "higher" if name.endswith("_calls") else "lower"
            rows.append((name, unit, better, layer.prediction))
    for metric in OTHER_LAYER_METRICS:
        rows.append((metric.name, metric.unit, metric.better, metric.prediction))
    return rows
