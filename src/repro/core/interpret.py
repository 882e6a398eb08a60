"""Algorithm 2 — the interpretation stage of CFGExplainer.

Starting from the full graph, the trained scorer Θ_s is probed
iteratively: at each step the ``step_size`` percent lowest-scoring
remaining nodes are pruned — their adjacency rows and columns zeroed —
the embeddings are recomputed through the frozen Φ_e on the pruned
graph, and the loop repeats until only ``step_size`` percent of nodes
remain.  The removal order, reversed, is the node importance ordering
``V_ordered``; each rung of the subgraph ladder is a prefix of it.

A rung is a node mask, not a matrix: the graph's symmetrized edge
structure is built once per call (:class:`repro.gnn.normalize.
EdgeStructure`) and each rung only re-weights its data before Φ_e runs
through the CSR kernels (``embed_csr``).  Structurally identical nodes
therefore get bit-equal scores.
"""

from __future__ import annotations

import numpy as np

from repro.acfg.graph import ACFG
from repro.core.model import CFGExplainerModel
from repro.explain.base import Explainer, ladder_from_order, level_fractions
from repro.explain.explanation import Explanation, kept_count
from repro.gnn.cache import EmbeddingCache
from repro.gnn.model import GCNClassifier
from repro.gnn.normalize import EdgeStructure
from repro.nn import Tensor, no_grad
from repro.obs import span as obs_span

__all__ = ["interpret", "CFGExplainer"]


def interpret(
    explainer: CFGExplainerModel,
    gnn: GCNClassifier,
    graph: ACFG,
    step_size: int = 10,
    mask_features: bool = True,
    embedding_cache: EmbeddingCache | None = None,
) -> Explanation:
    """Run Algorithm 2 on one ACFG.

    Follows the paper with two departures, plus a tie rule:

    * The paper assumes ``step_size`` divides the graph evenly; here
      per-iteration prune counts come from per-level target sizes
      ``round(level% × N_real)`` so any graph size works and every
      ladder rung holds exactly its advertised share of nodes.
    * With ``mask_features=True`` the features of pruned nodes are
      zeroed alongside their adjacency rows/columns when re-scoring
      (the paper's pseudocode only masks ``A``).  The subgraph the
      evaluation classifies has both masked, so this keeps the
      re-scored embeddings on the distribution the scores are used
      against; pass ``False`` for the literal Algorithm 2.
    * Pruning sorts are stable, so nodes with exactly equal scores keep
      the order of the previous pass — node index on the first.  The
      CSR rungs score structurally identical blocks bit-equal, so such
      ties resolve by index, not by summation noise.

    ``gnn`` must provide ``embed_csr`` and ``classify``.
    ``embedding_cache`` (the pipeline's shared
    :class:`~repro.gnn.EmbeddingCache`) serves the full-graph rung —
    Z of the first iteration and the predicted class — without
    re-running Φ; pruned rungs always recompute, as they must.
    """
    if graph.n_real == 0:
        raise ValueError("cannot interpret a graph with no real nodes")
    n_real = graph.n_real
    active_mask = np.zeros(graph.n, dtype=bool)
    active_mask[:n_real] = True
    edges = EdgeStructure(graph.adjacency, active_mask)
    features = np.asarray(graph.features, dtype=np.float64).copy()
    keep = np.ones(graph.n, dtype=bool)

    def embed_rung() -> Tensor:
        with no_grad():
            return gnn.embed_csr(edges.normalized(keep), features, active_mask)

    if embedding_cache is not None:
        full = embedding_cache.forward(graph)
        z, predicted_class = Tensor(full.z), full.predicted_class
    else:
        z = embed_rung()
        with no_grad():
            predicted_class = int(np.argmax(gnn.classify(z).numpy()))

    remaining = list(range(n_real))
    removal_order: list[int] = []
    first_pass_scores: np.ndarray | None = None

    # Walk the ladder top-down: 100%, 100-step, ..., step.  The last
    # pass scores the smallest rung; those scores order its survivors.
    target_sizes = [kept_count(f, n_real) for f in level_fractions(step_size)]
    for next_target in reversed([0] + target_sizes[:-1]):
        if next_target >= len(remaining):
            continue
        if removal_order:
            z = embed_rung()
        scores = explainer.node_scores(z, n_real)
        if first_pass_scores is None:
            first_pass_scores = scores.copy()
        if next_target == 0:
            break
        # Lines 8-18: drop the lowest-scoring remaining nodes.
        prune_count = len(remaining) - next_target
        remaining.sort(key=lambda i: scores[i])
        pruned, remaining = remaining[:prune_count], remaining[prune_count:]
        removal_order.extend(pruned)
        keep[pruned] = False
        if mask_features:
            features[pruned] = 0.0

    # Line 19: removal order reversed = importance order (most important
    # first).  Nodes never pruned (the final rung) are the most
    # important of all; order them by their final-pass scores.
    survivors = sorted(remaining, key=lambda i: scores[i], reverse=True)
    node_order = np.array(survivors + removal_order[::-1], dtype=int)

    return Explanation(
        graph=graph,
        explainer_name="CFGExplainer",
        predicted_class=predicted_class,
        node_order=node_order,
        levels=ladder_from_order(graph, node_order, step_size),
        node_scores=first_pass_scores,
    )


class CFGExplainer(Explainer):
    """The paper's explainer behind the common :class:`Explainer` API."""

    name = "CFGExplainer"

    def __init__(
        self,
        model: GCNClassifier,
        theta: CFGExplainerModel,
        embedding_cache: EmbeddingCache | None = None,
    ):
        super().__init__(model)
        self.theta = theta
        self.embedding_cache = embedding_cache

    def explain(self, graph: ACFG, step_size: int = 10) -> Explanation:
        with obs_span("explain.CFGExplainer") as explain_span:
            explanation = interpret(
                self.theta,
                self.model,
                graph,
                step_size,
                embedding_cache=self.embedding_cache,
            )
            explain_span.add("explain.graphs", 1)
            # Algorithm 2 re-scores once per ladder rung.
            explain_span.add("explain.iterations", len(explanation.levels))
            return explanation
