"""Algorithm 2's CSR rungs against the dense reference they replaced.

``interpret`` prunes by re-weighting one CSR edge structure per call
(:class:`repro.gnn.normalize.EdgeStructure`) and runs Φ_e through
``embed_csr``.  :func:`dense_interpret` below is the dense per-rung
Algorithm 2 — zero the pruned rows/columns of an N×N copy, normalize
it densely, embed — kept here as the reference every rung is checked
against.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.acfg.graph as acfg_graph
import repro.gnn.cache as gnn_cache
import repro.gnn.dgcnn as gnn_dgcnn
import repro.gnn.normalize as gnn_normalize
from repro.acfg import ACFG
from repro.acfg.graph import from_sample
from repro.core import CFGExplainer, CFGExplainerModel, interpret
from repro.explain.base import level_fractions
from repro.explain.explanation import kept_count
from repro.gnn import AHatCache, DGCNNClassifier
from repro.gnn.normalize import (
    EdgeStructure,
    normalized_adjacency,
    normalized_adjacency_csr,
)
from repro.malgen import generate_corpus
from repro.nn import Tensor, no_grad
from repro.reduce import reduce_acfg

SCORE_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# the dense reference
# ----------------------------------------------------------------------
def dense_embed(gnn, adjacency, features, active):
    with no_grad():
        a_hat = Tensor(normalized_adjacency(adjacency, active))
        return gnn.embed_normalized(a_hat, features, active)


def dense_interpret(theta, gnn, graph, step_size=10, mask_features=True):
    """Dense Algorithm 2: ``(node_order, first_pass_scores, rungs, snapshots)``.

    ``rungs`` lists ``(remaining node set, scores)`` per scoring pass;
    ``snapshots[k]`` is the pruned adjacency of ladder fraction k.
    """
    n_real = graph.n_real
    adjacency = graph.adjacency.copy()
    features = np.asarray(graph.features, dtype=np.float64).copy()
    active = np.zeros(graph.n, dtype=bool)
    active[:n_real] = True
    remaining = list(range(n_real))
    removal_order, snapshots, rungs = [], [], []
    first_pass = None
    target_sizes = [kept_count(f, n_real) for f in level_fractions(step_size)]
    for next_target in reversed([0] + target_sizes[:-1]):
        snapshots.append(adjacency.copy())
        if next_target >= len(remaining):
            continue
        scores = theta.node_scores(
            dense_embed(gnn, adjacency, features, active), n_real
        )
        rungs.append((frozenset(remaining), scores))
        if first_pass is None:
            first_pass = scores.copy()
        if next_target == 0:
            break
        prune_count = len(remaining) - next_target
        remaining.sort(key=lambda i: scores[i])
        pruned, remaining = remaining[:prune_count], remaining[prune_count:]
        for node in pruned:
            removal_order.append(node)
            adjacency[node, :] = 0.0
            adjacency[:, node] = 0.0
            if mask_features:
                features[node, :] = 0.0
    final = theta.node_scores(dense_embed(gnn, adjacency, features, active), n_real)
    survivors = sorted(remaining, key=lambda i: final[i], reverse=True)
    node_order = np.array(survivors + removal_order[::-1], dtype=int)
    return node_order, first_pass, rungs, snapshots[::-1]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def traced_interpret(monkeypatch, theta, gnn, graph, **kwargs):
    """``interpret`` plus, per rung, its keep mask, Â, features and Z."""
    rungs = []
    normalized = EdgeStructure.normalized
    embed_csr = gnn.embed_csr

    def record_rung(self, keep):
        a_hat = normalized(self, keep)
        rungs.append({"keep": keep.copy(), "a_hat": a_hat.matrix.copy()})
        return a_hat

    def record_embedding(a_hat, features, active_mask):
        z = embed_csr(a_hat, features, active_mask)
        rungs[-1]["features"] = np.array(features, copy=True)
        rungs[-1]["z"] = z
        return z

    with monkeypatch.context() as patch:
        patch.setattr(EdgeStructure, "normalized", record_rung)
        patch.setattr(gnn, "embed_csr", record_embedding)
        explanation = interpret(theta, gnn, graph, **kwargs)
    return explanation, rungs


def assert_rungs_match_dense(theta, gnn, graph, explanation, rungs, mask_features=True):
    n_real = graph.n_real
    active = np.zeros(graph.n, dtype=bool)
    active[:n_real] = True
    order = explanation.node_order
    assert rungs and rungs[0]["keep"].all(), "first pass must see the full graph"
    for rung in rungs:
        kept = np.flatnonzero(rung["keep"][:n_real])
        # every rung keeps a prefix of the final ordering
        assert set(kept.tolist()) == set(order[: kept.size].tolist())
        adjacency = graph.subgraph_adjacency(kept)
        expected = normalized_adjacency_csr(adjacency, active)
        got = rung["a_hat"]
        got.eliminate_zeros()
        np.testing.assert_array_equal(got.indptr, expected.indptr)
        np.testing.assert_array_equal(got.indices, expected.indices)
        assert got.data.tobytes() == expected.data.tobytes()
        features = graph.masked_features(kept) if mask_features else graph.features
        np.testing.assert_array_equal(rung["features"], features)
        reference = theta.node_scores(
            dense_embed(gnn, adjacency, features, active), n_real
        )
        np.testing.assert_allclose(
            theta.node_scores(rung["z"], n_real), reference,
            rtol=0, atol=SCORE_TOLERANCE,
        )


def with_random_features(graph, seed):
    """``graph`` with continuous random features on its real nodes."""
    rng = np.random.default_rng(seed)
    features = np.zeros_like(graph.features)
    features[: graph.n_real] = rng.standard_normal(
        (graph.n_real, graph.num_features)
    )
    return replace(graph, features=features)


def with_self_loops(graph, seed):
    rng = np.random.default_rng(seed)
    adjacency = graph.adjacency.copy()
    nodes = rng.choice(graph.n_real, size=max(1, graph.n_real // 4), replace=False)
    adjacency[nodes, nodes] = rng.choice([1.0, 2.0], size=nodes.size)
    return replace(graph, adjacency=adjacency)


def edgeless_graph(n=6, n_real=3):
    features = np.zeros((n, 12))
    features[:n_real] = np.arange(1, n_real + 1)[:, None] * 0.25
    return ACFG(np.zeros((n, n)), features, label=0, family="Bagle", n_real=n_real)


def _no_exact_ties(rungs):
    for remaining, scores in rungs:
        values = scores[sorted(remaining)]
        if np.unique(values).size != values.size:
            return False
    return True


@pytest.fixture(scope="module")
def large_sample():
    """One ~740-block program with its CFG (for reduce and lift)."""
    sample = generate_corpus(1, seed=5, families=("Rbot",), size_multiplier=4)[0]
    assert 450 <= sample.cfg.node_count <= 800
    return sample


@pytest.fixture(scope="module")
def dgcnn_pair():
    model = DGCNNClassifier(conv_channels=(8, 8, 4), rng=np.random.default_rng(3))
    theta = CFGExplainerModel(model.embedding_size, 12, rng=np.random.default_rng(4))
    return model, theta


# ----------------------------------------------------------------------
# rung equivalence
# ----------------------------------------------------------------------
class TestRungEquivalence:
    @pytest.mark.parametrize("step_size", [10, 20, 50])
    def test_padded_corpus_graphs(
        self, monkeypatch, trained_gnn, trained_theta, small_dataset, step_size
    ):
        _, test_set = small_dataset
        for graph in test_set.graphs[:3]:
            assert graph.n_real < graph.n  # dataset graphs are padded
            explanation, rungs = traced_interpret(
                monkeypatch, trained_theta, trained_gnn, graph, step_size=step_size
            )
            assert_rungs_match_dense(
                trained_theta, trained_gnn, graph, explanation, rungs
            )

    def test_unmasked_features(
        self, monkeypatch, trained_gnn, trained_theta, small_dataset
    ):
        graph = small_dataset[1].graphs[1]
        explanation, rungs = traced_interpret(
            monkeypatch, trained_theta, trained_gnn, graph, mask_features=False
        )
        assert_rungs_match_dense(
            trained_theta, trained_gnn, graph, explanation, rungs,
            mask_features=False,
        )

    def test_self_loop_edges(
        self, monkeypatch, trained_gnn, trained_theta, small_dataset
    ):
        graph = with_self_loops(small_dataset[1].graphs[2], seed=0)
        explanation, rungs = traced_interpret(
            monkeypatch, trained_theta, trained_gnn, graph, step_size=20
        )
        assert_rungs_match_dense(
            trained_theta, trained_gnn, graph, explanation, rungs
        )

    def test_edgeless_graph(self, monkeypatch, trained_gnn, trained_theta):
        graph = edgeless_graph()
        explanation, rungs = traced_interpret(
            monkeypatch, trained_theta, trained_gnn, graph, step_size=50
        )
        assert_rungs_match_dense(
            trained_theta, trained_gnn, graph, explanation, rungs
        )
        assert sorted(explanation.node_order.tolist()) == [0, 1, 2]

    def test_dgcnn(self, monkeypatch, dgcnn_pair, small_dataset):
        model, theta = dgcnn_pair
        graph = small_dataset[1].graphs[0]
        explanation, rungs = traced_interpret(
            monkeypatch, theta, model, graph, step_size=20
        )
        assert_rungs_match_dense(theta, model, graph, explanation, rungs)

    def test_lifted_paper_scale_path(
        self, monkeypatch, trained_gnn, trained_theta, large_sample
    ):
        original = from_sample(large_sample)
        reduced = reduce_acfg(original, cfg=large_sample.cfg)
        assert reduced.graph.n_real < original.n_real
        explainer = CFGExplainer(trained_gnn, trained_theta)
        lifted = explainer.explain_lifted(reduced.graph, original, reduced.lift)
        reduced_explanation, reduced_rungs = traced_interpret(
            monkeypatch, trained_theta, trained_gnn, reduced.graph
        )
        assert_rungs_match_dense(
            trained_theta, trained_gnn, reduced.graph,
            reduced_explanation, reduced_rungs,
        )
        np.testing.assert_array_equal(
            lifted.node_order, reduced.lift.lift_order(reduced_explanation.node_order)
        )
        for level in lifted.levels:
            kept = lifted.node_order[: kept_count(level.fraction, original.n_real)]
            np.testing.assert_array_equal(level.kept_nodes, kept)
            np.testing.assert_array_equal(
                level.adjacency, original.subgraph_adjacency(kept)
            )


class TestAgainstDenseOrdering:
    """Without exact ties the CSR and dense orderings must agree."""

    @pytest.mark.parametrize("step_size", [10, 20])
    def test_random_continuous_features(
        self, trained_gnn, trained_theta, small_dataset, step_size
    ):
        _, test_set = small_dataset
        for index, base in enumerate(test_set.graphs[:4]):
            graph = with_random_features(base, seed=index)
            order, first_pass, rungs, snapshots = dense_interpret(
                trained_theta, trained_gnn, graph, step_size=step_size
            )
            assert _no_exact_ties(rungs), "reference must be tie-free here"
            explanation = interpret(
                trained_theta, trained_gnn, graph, step_size=step_size
            )
            np.testing.assert_array_equal(explanation.node_order, order)
            np.testing.assert_allclose(
                explanation.node_scores, first_pass, rtol=0, atol=SCORE_TOLERANCE
            )
            assert len(explanation.levels) == len(snapshots)
            for level, snapshot in zip(explanation.levels, snapshots):
                np.testing.assert_array_equal(level.adjacency, snapshot)

    def test_dgcnn_random_continuous_features(self, dgcnn_pair, small_dataset):
        model, theta = dgcnn_pair
        graph = with_random_features(small_dataset[1].graphs[3], seed=9)
        order, _, rungs, _ = dense_interpret(theta, model, graph, step_size=20)
        assert _no_exact_ties(rungs)
        explanation = interpret(theta, model, graph, step_size=20)
        np.testing.assert_array_equal(explanation.node_order, order)


def test_identical_blocks_tie_exactly_and_break_by_index(
    monkeypatch, trained_gnn, trained_theta
):
    """Blocks 1 and 2 are interchangeable (same features, same
    neighbours); the CSR rungs score them bit-equal and the stable
    pruning order resolves the tie by index on every run."""
    n, n_real = 12, 9
    adjacency = np.zeros((n, n))
    for src, dst, weight in [
        (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 2),
        (4, 5, 1), (5, 6, 1), (6, 7, 1), (3, 7, 1), (7, 8, 2),
    ]:
        adjacency[src, dst] = weight
    rng = np.random.default_rng(11)
    features = np.zeros((n, 12))
    features[:n_real] = rng.random((n_real, 12))
    features[2] = features[1]
    graph = ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real)

    explanation, rungs = traced_interpret(
        monkeypatch, trained_theta, trained_gnn, graph, step_size=20
    )
    assert explanation.node_scores[1] == explanation.node_scores[2]
    for rung in rungs:
        if rung["keep"][1] and rung["keep"][2]:
            scores = trained_theta.node_scores(rung["z"], n_real)
            assert scores[1] == scores[2]
    order = explanation.node_order.tolist()
    smallest = set(explanation.levels[0].kept_nodes.tolist())
    if {1, 2} <= smallest:  # both survive: survivors keep index order
        assert order.index(1) < order.index(2)
    else:  # block 1 is pruned no later than block 2, so it ranks lower
        assert order.index(2) < order.index(1)
    again = interpret(trained_theta, trained_gnn, graph, step_size=20)
    np.testing.assert_array_equal(again.node_order, explanation.node_order)


# ----------------------------------------------------------------------
# work and memory guards
# ----------------------------------------------------------------------
def test_interpret_does_no_dense_cached_or_hashed_rung_work(
    monkeypatch, trained_gnn, trained_theta, small_dataset
):
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, name in [
        (AHatCache, "get"),
        (AHatCache, "_entry"),
        (ACFG, "subgraph_adjacency"),
        (gnn_normalize, "normalized_adjacency"),
        (gnn_dgcnn, "normalized_adjacency"),
        (acfg_graph, "content_digest"),
        (gnn_cache, "_digest"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    graph = small_dataset[1].graphs[0]
    before = trained_gnn.a_hat_cache.cache_info()
    explanation = interpret(trained_theta, trained_gnn, graph)
    assert len(explanation.levels) == 10
    assert counts == Counter()
    assert trained_gnn.a_hat_cache.cache_info() == before


def test_rungs_construct_no_scipy_matrices(
    monkeypatch, trained_gnn, trained_theta, small_dataset
):
    """Sparse constructions per call do not grow with the rung count."""
    from scipy.sparse._base import _spbase

    constructed = Counter()
    init = _spbase.__init__

    def counting_init(self, *args, **kwargs):
        constructed["matrices"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counting_init)
    graph = small_dataset[1].graphs[0]
    per_step = {}
    for step_size in (10, 50):
        constructed.clear()
        interpret(trained_theta, trained_gnn, graph, step_size=step_size)
        per_step[step_size] = constructed["matrices"]
    assert per_step[10] == per_step[50] > 0


@pytest.mark.parametrize("lifted", [False, True])
def test_peak_allocation_below_one_dense_matrix(
    trained_gnn, trained_theta, large_sample, lifted
):
    import tracemalloc

    original = from_sample(large_sample)
    dense_bytes = original.n * original.n * 8
    explainer = CFGExplainer(trained_gnn, trained_theta)
    reduced = reduce_acfg(original, cfg=large_sample.cfg) if lifted else None
    tracemalloc.start()
    try:
        if lifted:
            explanation = explainer.explain_lifted(
                reduced.graph, original, reduced.lift
            )
        else:
            explanation = explainer.explain(original)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert explanation.graph is original
    assert peak < dense_bytes, f"peak {peak} B >= one dense N×N ({dense_bytes} B)"


def test_edge_structure_full_keep_is_normalized_adjacency_csr(small_dataset):
    graph = with_self_loops(small_dataset[1].graphs[0], seed=1)
    active = np.zeros(graph.n, dtype=bool)
    active[: graph.n_real] = True
    got = EdgeStructure(graph.adjacency, active).normalized(np.ones(graph.n, bool))
    expected = normalized_adjacency_csr(graph.adjacency, active)
    assert got.matrix.data.tobytes() == expected.data.tobytes()
    np.testing.assert_array_equal(got.matrix.indices, expected.indices)
    np.testing.assert_array_equal(got.matrix.indptr, expected.indptr)
