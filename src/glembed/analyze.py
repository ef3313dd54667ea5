"""Post-hoc queries over a fitted bank: similarity, interaction scores,
per-dimension rankings, and neighbor-weight graphs.

All functions are read-only over effective (exponentiated if log-space)
parameters and return plain Python structures ready for tabular output.
A high embedding/context inner product marks entity pairs that raise each
other's conditional probability (complements); a low one marks pairs that
suppress it (substitutes or rarely co-occurring items).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmbeddingBank
from .contexts import SpatialLayout, knn_neighbors
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class SimilarityQuery:
    entity: int
    top_k: int
    space: str = "embedding"  # "embedding" or "context"


@dataclass(frozen=True)
class PairScore:
    a: int
    b: int
    score: float


def _vectors(bank: EmbeddingBank, space: str) -> np.ndarray:
    if space == "embedding":
        return bank.effective_embeddings()
    if space == "context":
        return bank.effective_context_vectors()
    raise ConfigError("space must be 'embedding' or 'context'")


def top_similar(bank: EmbeddingBank, query: SimilarityQuery) -> list[tuple[int, float]]:
    """Entities ranked by descending cosine similarity to the query vector.

    The query entity is excluded; ties break toward the lower entity id.
    Zero-norm rows other than the query score 0.
    """
    vecs = _vectors(bank, query.space)
    n = vecs.shape[0]
    if not 0 <= query.entity < n:
        raise IndexError(f"entity {query.entity} outside bank of {n} rows")
    if not 0 <= query.top_k < n:
        raise ConfigError("top_k must satisfy 0 <= top_k < N")
    v = vecs[query.entity]
    vn = np.linalg.norm(v)
    if vn == 0.0:
        raise DomainError("query entity has a zero vector; cosine undefined")
    norms = np.linalg.norm(vecs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(norms > 0, vecs @ v / (norms * vn), 0.0)
    ids = np.arange(n)
    order = np.lexsort((ids, -sims))
    order = order[order != query.entity][: query.top_k]
    return [(int(i), float(sims[i])) for i in order]


def interaction_pairs(bank: EmbeddingBank, direction: str = "highest",
                      count: int = 10) -> list[PairScore]:
    """Extreme embedding-context inner products over ordered pairs a != b, ties
    broken by (a, b): one stable sort of the flat score table, less its diagonal."""
    if direction not in ("highest", "lowest"):
        raise ConfigError("direction must be 'highest' or 'lowest'")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    emb = bank.effective_embeddings()
    cv = bank.effective_context_vectors()
    n = emb.shape[0]
    scores = emb @ cv.T
    order = np.argsort(-scores if direction == "highest" else scores, axis=None, kind="stable")
    a, b = np.divmod(order[order % (n + 1) != 0][:count], n)
    return [PairScore(int(i), int(j), float(scores[i, j])) for i, j in zip(a, b)]


def dimension_ranking(bank: EmbeddingBank, dim: int, top: int,
                      mode: str = "signed", space: str = "context") -> list[tuple[int, float]]:
    """Entities ranked by one latent dimension of the chosen table.

    ``signed`` sorts by the raw component, ``abs`` by its magnitude; ties
    break toward the lower entity id.
    """
    if mode not in ("signed", "abs"):
        raise ConfigError("mode must be 'signed' or 'abs'")
    if top < 0:
        raise ConfigError(f"top must be >= 0, got {top}")
    vecs = _vectors(bank, space)
    if not 0 <= dim < vecs.shape[1]:
        raise ConfigError(f"dimension {dim} out of range for K={vecs.shape[1]}")
    col = vecs[:, dim]
    key = np.abs(col) if mode == "abs" else col
    ids = np.arange(vecs.shape[0])
    order = np.lexsort((ids, -key))[: min(top, len(ids))]
    return [(int(i), float(col[i])) for i in order]


def neighbor_weight_graph(bank: EmbeddingBank, layout: SpatialLayout) -> list[tuple[int, int, float]]:
    """Edge list (entity, neighbor, inner product) over the k-NN graph,
    ready for external plotting."""
    nb = knn_neighbors(np.asarray(layout.positions), layout.k)
    emb = bank.effective_embeddings()
    cv = bank.effective_context_vectors()
    edges = []
    for n in range(nb.shape[0]):
        for m in nb[n]:
            edges.append((n, int(m), float(emb[n] @ cv[m])))
    return edges
