"""Self-tests of the benchmark's own logic.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_spec  # noqa: E402
import run  # noqa: E402
from bench_inputs import (  # noqa: E402
    HOSTILE_EVERY,
    MALFORMED_KINDS,
    REPEAT_POOL,
    RequestStream,
)
from bench_spans import WAIT, SpanRecorder, attribute  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The forms BENCHMARK.json allows for metric names and units.
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_valid_and_unique():
    names = [m.name for m in bench_spec.END_TO_END]
    names += [name for name, _, _, _ in bench_spec.per_layer_metrics()]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [m.unit for m in bench_spec.END_TO_END]
    units += [unit for _, unit, _, _ in bench_spec.per_layer_metrics()]
    assert all(UNIT.match(unit) for unit in units)


def test_benchmark_json_matches_the_spec():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_spec.WORKLOADS)
    assert all(
        set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in BENCHMARK["workloads"]
    )
    spec = {m.name: m for m in bench_spec.END_TO_END}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(spec)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        expected = spec[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            expected.unit, expected.better, expected.bound
        )
        assert 0 < metric["bound"] <= 0.25
    setup = spec["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in bench_spec.END_TO_END)
    layers = [(name, unit, better) for name, unit, better, _ in bench_spec.per_layer_metrics()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers
    assert 1 <= len(layers) <= 128


def test_every_layer_metric_records_its_prediction():
    end_to_end = {m.name for m in bench_spec.END_TO_END}
    rows = bench_spec.per_layer_metrics()
    for name, _, _, prediction in rows:
        assert set(prediction.moves) <= end_to_end, name
        assert set(prediction.on) <= set(bench_spec.WORKLOADS), name
        assert set(prediction.no_change_on) <= set(bench_spec.WORKLOADS), name
        assert not set(prediction.on) & set(prediction.no_change_on), name
        # Either a target metric and workload, or "no change" everywhere.
        if prediction.moves:
            assert prediction.on, name
        else:
            assert set(prediction.no_change_on) == set(bench_spec.WORKLOADS), name
    predicted = {name: p for name, _, _, p in rows}
    # The predictions the benchmark was designed around.
    assert set(predicted["staticcheck.verify_ms"].on) == set(bench_spec.WORKLOADS)
    assert predicted["serve.wait_ms"].no_change_on == ("triage-repeat",)
    assert predicted["serve.cache_hit_ratio"].on == ("triage-repeat",)
    assert predicted["gnn.classify_ms"].on == ("paper-scale",)
    assert predicted["explain.SubgraphX_ms"].no_change_on == bench_spec.WORKLOADS
    assert predicted["explain.CFGExplainer_ms"].no_change_on == ("triage-repeat",)
    assert "paper-scale" in predicted["explain.CFGExplainer_ms"].on
    assert "tensor sizes" in predicted["acfg.dense_bytes"].note


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_keeps_failures_infinite():
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert run.percentile([1.0, 3.0], 50) == 2.0
    assert run.percentile([1.0, math.inf, math.inf], 50) == math.inf
    assert run.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert math.isnan(run.percentile([], 50))


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(v) for v in range(100)]) == pytest.approx(89.1)
    assert run.tail_percentile([float(v) for v in range(99)]) is None
    # 100 samples, but only 5 lie beyond the p90.
    assert run.tail_percentile([1.0] * 95 + [2.0] * 5) is None
    # Ties at the top leave nothing strictly beyond the p90.
    assert run.tail_percentile([1.0] * 89 + [2.0] * 11) is None


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def test_streams_are_a_pure_function_of_the_seed():
    first, again, other = (RequestStream("triage-cold", s) for s in (3, 3, 4))
    assert [first[i].text for i in range(40)] == [again[i].text for i in range(40)]
    assert [first[i].text for i in range(40)] != [other[i].text for i in range(40)]
    # Out-of-order access yields the same request.
    late = RequestStream("triage-cold", 3)
    assert late[37].text == first[37].text


def test_cold_stream_has_a_fixed_hostile_share_including_malformed_listings():
    stream = RequestStream("triage-cold", 5)
    requests = [stream[i] for i in range(HOSTILE_EVERY * 14)]
    hostile = [r for r in requests if r.kind != "clean"]
    assert len(hostile) == 14
    assert {r.kind for r in hostile} >= set(MALFORMED_KINDS)
    assert len({r.text for r in requests}) == len(requests)


def test_repeat_stream_cycles_a_small_pool():
    repeat = RequestStream("triage-repeat", 1)
    texts = [repeat[i].text for i in range(REPEAT_POOL * 5)]
    assert len(set(texts)) == len(set(texts[:REPEAT_POOL])) == REPEAT_POOL
    assert REPEAT_POOL <= run.DEFAULT_CACHE_CAPACITY
    assert "triage-repeat" not in run.CACHE_CAPACITY
    assert {r.text for r in repeat.pool} == set(texts)


def test_request_count_is_whole_cycles_and_ignores_the_clock():
    counts = {w: run.request_count(w, 10) for w in bench_spec.WORKLOADS}
    assert counts["triage-cold"] % HOSTILE_EVERY == 0
    assert counts["triage-repeat"] % REPEAT_POOL == 0
    assert counts["paper-scale"] % 12 == 0
    assert all(count >= 10 * run.REQUESTS_PER_SECOND[w] for w, count in counts.items())
    assert run.request_count("paper-scale", 0.01) == 12


# ----------------------------------------------------------------------
# failures count in the denominators
# ----------------------------------------------------------------------
def _served(request, family):
    sample = run.ground_truth(request, {})
    return run.Served(
        fingerprint=request.name, probabilities=np.zeros(12), predicted_class=0,
        family=family, explainer="CFGExplainer", cached=False,
        node_order=np.array(sample.signature_blocks + [
            i for i in range(len(sample.cfg.blocks))
            if i not in sample.signature_blocks
        ]),
    )


def test_failures_count_in_the_denominators():
    stream = RequestStream("triage-cold", 2)
    clean = [r for r in (stream[i] for i in range(HOSTILE_EVERY)) if r.kind == "clean"][:4]
    outcomes = [
        run.Outcome(r, r.name, 0.0, 0.010, "response", _served(r, r.family))
        for r in clean[:3]
    ]
    outcomes.append(run.Outcome(clean[3], clean[3].name, 0.0, 0.001, "error",
                                detail="ParseError"))
    counts = run.tally(outcomes)
    assert (counts["sent"], counts["failed"], counts["untyped_errors"]) == (4, 1, 1)
    assert run.latencies(outcomes)[-1] == math.inf
    accuracy, recall, violations = run.quality(outcomes)
    assert not violations
    assert accuracy == pytest.approx(3 / 4)
    served_only = run.quality(outcomes[:3])[1]
    with_signature = [r for r in clean if run.ground_truth(r, {}).signature_blocks]
    assert clean[3] in with_signature
    assert recall == pytest.approx(
        served_only * (len(with_signature) - 1) / len(with_signature)
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_and_attribution_sum_to_latency():
    recorder = SpanRecorder()
    recorder.set_requests(("r1",))
    outer = recorder.begin("request")
    admit = recorder.begin("serve.admit")
    with recorder.span("acfg.features"):
        pass
    recorder.end(admit)
    with recorder.span("gnn.classify", ("r1", "r2")):
        pass
    recorder.end(outer)
    spans = recorder.spans()
    by_name = {s.name: s for s in spans}
    assert by_name["serve.admit"].self_time == pytest.approx(
        by_name["serve.admit"].duration - by_name["acfg.features"].duration
    )
    split = attribute(spans)["r1"]
    assert sum(split.values()) == pytest.approx(by_name["request"].duration)
    assert split[WAIT] >= -1e-9
    assert "r2" not in attribute(spans)  # no client span for r2


def test_spans_must_close_in_order():
    recorder = SpanRecorder()
    first = recorder.begin("a")
    recorder.begin("b")
    with pytest.raises(RuntimeError, match="out of order"):
        recorder.end(first)


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triage-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
