"""Content-keyed caches for per-graph artifacts of the frozen GNN.

Two cost centers dominated the seed pipeline's redundant work:

* ``normalized_adjacency`` was rebuilt on *every* ``predict`` /
  ``embed`` call — O(N²) symmetrize/degree/scale passes per forward —
  even though the evaluation calls the classifier on the same graphs
  over and over.  :class:`AHatCache` memoizes Â (and its CSR form for
  the batched engine) behind a content key.
* Every explainer independently re-ran the frozen Φ over the training
  and test graphs to get embeddings Z and the predicted class.
  :class:`EmbeddingCache` computes them once — in batched passes — and
  hands them to CFGExplainer training, PGExplainer's offline stage and
  the Figure 2 / Tables III–IV experiments.

Keys are content hashes (array bytes), not object identities: a
caller may mutate an adjacency buffer in place between forward passes,
and identity-keyed caching would silently serve stale matrices.  Hashing
is O(N²) but a small constant compared to normalization or a forward
pass, and it makes the caches safe for arbitrary callers.  Callers
that hold an :class:`~repro.acfg.graph.ACFG` skip even that constant:
the graph memoizes its own digests (``ACFG.content_key`` /
``ACFG.embed_key``) and passes them in, so repeated passes over the
same graphs hash each one exactly once process-wide.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.acfg.graph import content_digest as _digest
from repro.gnn.normalize import normalized_adjacency_csr
from repro.nn.sparse import CSRMatrix
from repro.obs import add_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.acfg.dataset import ACFGDataset
    from repro.acfg.graph import ACFG
    from repro.gnn.model import GCNClassifier

__all__ = ["AHatCache", "CacheInfo", "CachedForward", "EmbeddingCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters, mirroring ``functools.lru_cache.cache_info``."""

    hits: int
    misses: int
    size: int
    maxsize: int


_F64 = np.dtype(np.float64).str


class _AHatEntry:
    """One cached Â: CSR canonical, dense and casts derived lazily.

    Â is *computed* in CSR form (:func:`normalized_adjacency_csr`) —
    the form the batched engine consumes — and the dense matrix the
    per-graph/explainer path wants is a cheap ``toarray`` fill from
    it, so neither representation is ever built twice.
    """

    __slots__ = ("_dense", "csr")

    def __init__(self, csr: CSRMatrix):
        #: CSR forms keyed by dtype string — the float64 canonical plus
        #: any compute-dtype casts the batched engine requested.
        self.csr: dict[str, CSRMatrix] = {_F64: csr}
        self._dense: np.ndarray | None = None

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.csr[_F64].toarray()
        return self._dense


class AHatCache:
    """LRU cache of normalized adjacencies keyed by graph content.

    ``get`` returns the dense Â consumed by the per-graph path;
    ``get_csr`` additionally memoizes the CSR form the batched engine
    packs into block-diagonal matrices.  Returned arrays are shared —
    treat them as read-only.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, _AHatEntry] = OrderedDict()

    def _entry(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None,
        key: bytes | None = None,
    ) -> _AHatEntry:
        if key is None:
            adjacency = np.asarray(adjacency, dtype=np.float64)
            mask = (
                np.ones(adjacency.shape[0], dtype=bool)
                if active_mask is None
                else np.asarray(active_mask, dtype=bool)
            )
            key = _digest(adjacency, mask)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            add_counter("cache.a_hat.hits")
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        add_counter("cache.a_hat.misses")
        adjacency = np.asarray(adjacency, dtype=np.float64)
        mask = (
            np.ones(adjacency.shape[0], dtype=bool)
            if active_mask is None
            else np.asarray(active_mask, dtype=bool)
        )
        entry = _AHatEntry(CSRMatrix(normalized_adjacency_csr(adjacency, mask)))
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def get(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None = None,
        key: bytes | None = None,
    ) -> np.ndarray:
        """The dense normalized adjacency Â, computed at most once.

        ``key`` short-circuits the content hash when the caller already
        holds the digest (``ACFG.content_key()``); it must equal what
        :func:`repro.acfg.graph.content_digest` yields for
        ``(adjacency, mask)`` — graph-keyed and array-keyed callers
        then share cache entries.
        """
        return self._entry(adjacency, active_mask, key).dense

    def get_csr(
        self,
        adjacency: np.ndarray,
        active_mask: np.ndarray | None = None,
        dtype=None,
        key: bytes | None = None,
    ) -> CSRMatrix:
        """Â in CSR form (per requested dtype), for batch packing."""
        entry = self._entry(adjacency, active_mask, key)
        dtype_str = np.dtype(np.float64 if dtype is None else dtype).str
        csr = entry.csr.get(dtype_str)
        if csr is None:
            csr = CSRMatrix(entry.csr[_F64].astype(dtype_str), dtype=dtype_str)
            entry.csr[dtype_str] = csr
        return csr

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


@dataclass(frozen=True)
class CachedForward:
    """Frozen-GNN outputs for one graph: embeddings and classification."""

    z: np.ndarray  # [N, f] node embeddings (padded rows zero)
    probs: np.ndarray  # [C] class probabilities
    predicted_class: int


class EmbeddingCache:
    """Shared store of frozen-GNN forward results, filled in batches.

    The pipeline populates it right after classifier training; explainer
    training (:func:`repro.core.training.precompute_embeddings`),
    PGExplainer's offline stage and Algorithm 2's first rung then reuse
    Z / the predicted class instead of re-running Φ per consumer.

    Entries from :meth:`populate` are pinned for the cache's lifetime.
    Entries computed on a :meth:`forward` miss — every cold request a
    serving engine explains — go to an LRU of at most ``maxsize``
    entries, so serving unique graphs cannot grow the cache without
    bound.  Returned entries are shared — treat them as read-only.
    """

    def __init__(self, model: "GCNClassifier", maxsize: int = 128):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.model = model
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._pinned: dict[bytes, CachedForward] = {}
        self._recent: OrderedDict[bytes, CachedForward] = OrderedDict()
        # Serving threads share one cache; the LRU's reorder/evict
        # steps are not atomic.
        self._lock = threading.Lock()

    @staticmethod
    def _key(graph: "ACFG") -> bytes:
        if hasattr(graph, "embed_key"):
            return graph.embed_key()
        return _digest(
            graph.adjacency, graph.features, np.asarray([graph.n_real])
        )

    def __len__(self) -> int:
        return len(self._pinned) + len(self._recent)

    def populate(self, dataset: "ACFGDataset | list[ACFG]", batch_size: int = 32) -> None:
        """Run batched forward passes over every graph not yet pinned."""
        pending = []
        with self._lock:
            for graph in dataset:
                key = self._key(graph)
                if key in self._pinned:
                    continue
                entry = self._recent.pop(key, None)
                if entry is not None:
                    self._pinned[key] = entry
                else:
                    pending.append(graph)
        computed = self._compute(pending, batch_size)
        with self._lock:
            self._pinned.update(computed)

    def _compute(
        self, graphs: "list[ACFG]", batch_size: int
    ) -> dict[bytes, CachedForward]:
        from repro.gnn.batch import iter_batches
        from repro.nn import no_grad

        computed: dict[bytes, CachedForward] = {}
        if not graphs:
            return computed
        if not hasattr(self.model, "embed_batch"):
            # Alternative Φ implementations without the batched engine
            # (e.g. DGCNN): one dense forward per graph.
            for graph in graphs:
                mask = np.zeros(graph.n, dtype=bool)
                mask[: graph.n_real] = True
                with no_grad():
                    z = self.model.embed(graph.adjacency, graph.features, mask)
                    probs = self.model.classify(z)
                probs_data = probs.numpy().reshape(-1).copy()
                computed[self._key(graph)] = CachedForward(
                    z=z.numpy().copy(),
                    probs=probs_data,
                    predicted_class=int(np.argmax(probs_data)),
                )
            return computed
        for batch in iter_batches(
            graphs, batch_size, a_hat_cache=getattr(self.model, "a_hat_cache", None)
        ):
            with no_grad():
                z = self.model.embed_batch(batch)
                probs = self.model.logits_batch(z, batch).softmax(axis=-1)
            z_data, probs_data = z.numpy(), probs.numpy()
            for i, graph in enumerate(batch.graphs):
                rows = slice(batch.offsets[i], batch.offsets[i + 1])
                computed[self._key(graph)] = CachedForward(
                    z=z_data[rows].copy(),
                    probs=probs_data[i].copy(),
                    predicted_class=int(np.argmax(probs_data[i])),
                )
        return computed

    def _get(self, key: bytes) -> CachedForward | None:
        with self._lock:
            entry = self._pinned.get(key)
            if entry is None:
                entry = self._recent.get(key)
                if entry is not None:
                    self._recent.move_to_end(key)
            if entry is not None:
                self.hits += 1
        if entry is not None:
            add_counter("cache.embedding.hits")
        return entry

    def lookup(self, graph: "ACFG") -> CachedForward | None:
        return self._get(self._key(graph))

    def forward(self, graph: "ACFG") -> CachedForward:
        """Cached forward results, computing (and storing) on a miss."""
        key = self._key(graph)
        entry = self._get(key)
        if entry is not None:
            return entry
        add_counter("cache.embedding.misses")
        entry = self._compute([graph], batch_size=1)[key]
        with self._lock:
            self.misses += 1
            self._recent[key] = entry
            while len(self._recent) > self.maxsize:
                self._recent.popitem(last=False)
        return entry

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self), self.maxsize)

    def clear(self) -> None:
        """Drop every cached forward (e.g. after the GNN's weights change)."""
        with self._lock:
            self._pinned.clear()
            self._recent.clear()
            self.hits = 0
            self.misses = 0
