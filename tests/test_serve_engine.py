"""Engine layer: the single-submission request path (repro.serve.engine)."""

from pathlib import Path

import numpy as np
import pytest

from repro.acfg import ACFG, IngestPolicy
from repro.acfg.graph import from_sample
from repro.harden import GraphSanitizer
from repro.obs import metrics_registry
from repro.reduce import ReduceConfig
from repro.serve import InferenceEngine, RequestRejected, submission_from_text


def test_submit_runs_full_path(serve_engine, serve_corpus):
    sample = serve_corpus[0]
    response = serve_engine.submit(sample)
    assert response.name == sample.program.name
    assert len(response.fingerprint) == 64
    assert response.probabilities.shape == (len(serve_engine.families),)
    assert np.isclose(response.probabilities.sum(), 1.0)
    assert response.family == serve_engine.families[response.predicted_class]
    assert response.explainer == "CFGExplainer"
    assert not response.cached
    explanation = response.explanation
    assert explanation.node_order.shape[0] == explanation.graph.n_real


def test_classify_matches_single_graph_path(serve_engine, serve_corpus):
    requests = [serve_engine.admit(sample) for sample in serve_corpus[:4]]
    batched = serve_engine.classify(requests)
    for request, probs in zip(requests, batched):
        single = serve_engine.gnn.predict_proba(request.graph)
        np.testing.assert_allclose(probs, single, atol=1e-8)


def test_fingerprint_stable_across_submissions(serve_engine, serve_corpus):
    first = serve_engine.admit(serve_corpus[0])
    second = serve_engine.admit(serve_corpus[0])
    assert first.fingerprint == second.fingerprint
    other = serve_engine.admit(serve_corpus[1])
    assert other.fingerprint != first.fingerprint


def test_bare_graph_submission_matches_sample_path(serve_engine, serve_corpus):
    sample = serve_corpus[0]
    via_sample = serve_engine.admit(sample)
    via_graph = serve_engine.admit(sample, graph=from_sample(sample))
    assert via_graph.fingerprint == via_sample.fingerprint
    response = serve_engine.submit_graph(from_sample(sample))
    assert response.fingerprint == via_sample.fingerprint


def test_submit_text_parses_and_serves(serve_engine):
    text = """
    start:
        mov r1, 4
        cmp r1, 0
        jnz body
    body:
        add r1, r1
        jmp done
    done:
        ret
    """
    response = serve_engine.submit_text(text, name="inline-demo")
    assert response.name == "inline-demo"
    assert response.explanation.node_order.size > 0


def test_hostile_graph_rejected_as_quarantine(serve_engine):
    adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
    features = np.full((2, 12), np.nan)
    hostile = ACFG(adjacency=adjacency, features=features, label=0, family="evil")
    with pytest.raises(RequestRejected) as excinfo:
        serve_engine.submit_graph(hostile)
    assert excinfo.value.reason == "quarantine"
    assert any(r.reason == "nan_feature" for r in excinfo.value.records)


def test_oversize_rejected_with_typed_reason(serve_corpus, serve_engine):
    tight = InferenceEngine(
        gnn=serve_engine.gnn,
        scaler=serve_engine.scaler,
        explainers=serve_engine.explainers,
        families=serve_engine.families,
        policy=IngestPolicy(
            on_bad_input="quarantine",
            verify="strict",
            sanitizer=GraphSanitizer(max_nodes=2),
        ),
    )
    with pytest.raises(RequestRejected) as excinfo:
        tight.submit(serve_corpus[0])
    assert excinfo.value.reason == "oversize"


def test_unknown_default_explainer_rejected(serve_engine):
    with pytest.raises(ValueError, match="unknown explainer"):
        InferenceEngine(
            gnn=serve_engine.gnn,
            scaler=serve_engine.scaler,
            explainers=serve_engine.explainers,
            families=serve_engine.families,
            default_explainer="nope",
        )


def test_reduced_engine_lifts_explanations(serve_engine, serve_corpus):
    reduced = InferenceEngine(
        gnn=serve_engine.gnn,
        scaler=serve_engine.scaler,
        explainers=serve_engine.explainers,
        families=serve_engine.families,
        policy=IngestPolicy(
            on_bad_input="quarantine", verify="strict", reduce=ReduceConfig()
        ),
    )
    sample = serve_corpus[0]
    request = reduced.admit(sample)
    original = from_sample(sample)
    if request.lift is None:
        pytest.skip("reduction was an identity on this sample")
    assert request.graph.n_real < original.n_real
    response = reduced.execute(request)
    # The explanation is lifted: it ranks *original* block indices.
    assert response.explanation.graph.n_real == original.n_real
    assert response.explanation.node_order.shape[0] == original.n_real


def test_serving_keeps_the_embedding_cache_bounded(
    serve_engine, serve_corpus, small_dataset, trained_theta
):
    """Cold requests miss the shared EmbeddingCache; its LRU caps them."""
    from repro.core import CFGExplainer
    from repro.gnn import EmbeddingCache

    bound = 8
    cache = EmbeddingCache(serve_engine.gnn, maxsize=bound)
    cache.populate(small_dataset[0])
    pinned = len(cache)
    engine = InferenceEngine(
        gnn=serve_engine.gnn,
        scaler=serve_engine.scaler,
        explainers={
            "CFGExplainer": CFGExplainer(
                serve_engine.gnn, trained_theta, embedding_cache=cache
            )
        },
        families=serve_engine.families,
    )
    listings = serve_corpus[:50]
    assert len({sample.program.name for sample in listings}) == 50
    for sample in listings:
        engine.submit(sample)
    assert cache.cache_info().misses >= bound
    assert len(cache) <= pinned + bound


def test_from_artifacts_duck_types(serve_engine, serve_corpus):
    class FakeArtifacts:
        class config:
            on_bad_input = None
            verify_mode = "strict"
            reduce = None
            step_size = 10

        gnn = serve_engine.gnn
        scaler = serve_engine.scaler
        explainers = serve_engine.explainers

        class train_set:
            families = serve_engine.families

    engine = InferenceEngine.from_artifacts(FakeArtifacts())
    # Serving never trusts input: on_bad_input=None is upgraded.
    assert engine.policy.on_bad_input == "quarantine"
    response = engine.submit(serve_corpus[0])
    assert response.fingerprint == serve_engine.submit(serve_corpus[0]).fingerprint


def test_submission_from_text_shape():
    sample = submission_from_text("a:\n  ret\n", name="tiny")
    assert sample.program.name == "tiny"
    assert sample.family == "unknown"
    assert len(sample.block_tags) == len(sample.cfg.blocks)


HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"


@pytest.mark.parametrize("listing", ["dangling_jump", "unknown_mnemonic"])
def test_unparsable_text_rejected_as_quarantine(serve_engine, listing):
    text = (HOSTILE_DIR / f"{listing}.asm").read_text()
    before = metrics_registry().snapshot()
    with pytest.raises(RequestRejected) as excinfo:
        serve_engine.submit_text(text, name=listing)
    delta = metrics_registry().delta_since(before)
    assert excinfo.value.reason == "quarantine"
    [record] = excinfo.value.records
    assert (record.name, record.reason, record.stage) == (
        listing, "construction_error", "construction"
    )
    assert record.detail.startswith("ParseError: ")
    assert delta.get("serve.rejected.quarantine", 0) == 1
