"""Planted-model generators for recovery and acceptance testing.

Each generator draws ground-truth parameter banks and emits data whose
conditional structure matches the corresponding model, so the generator
itself serves as the oracle for recovery tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank, seeded_rng
from .contexts import SpatialLayout, knn_neighbors
from .errors import ConfigError


@dataclass
class GaussianTruth:
    bank: EmbeddingBank
    layout: SpatialLayout
    noise_sd: float


def gen_gaussian_knn(n_entities=30, n_cols=500, dim=2, noise_sd=0.1, k=5,
                     coupling=0.9, seed=0):
    """Real-valued data whose conditional mean given the k-NN context equals
    the planted inner product exactly.

    Columns solve x = M x + eps with M[n, m] = emb[n] . cv[m] on neighbor
    edges; the conditional residual given the true context values is the
    injected noise, so an oracle predictor achieves MSE = noise_sd**2.
    ``coupling`` sets the spectral radius of M, which controls how much
    signal variance the feedback amplifies above the noise floor.
    """
    rng = seeded_rng(seed)
    positions = rng.uniform(0.0, 1.0, size=(n_entities, 3))
    nb = knn_neighbors(positions, k)
    emb = rng.uniform(0.5, 1.5, size=(n_entities, dim)) / np.sqrt(dim)
    cv = rng.uniform(0.5, 1.5, size=(n_entities, dim)) / np.sqrt(dim)
    m = np.zeros((n_entities, n_entities))
    for n in range(n_entities):
        m[n, nb[n]] = emb[n] @ cv[nb[n]].T
    radius = np.abs(np.linalg.eigvals(m)).max()
    cv *= coupling / radius
    m *= coupling / radius
    noise = rng.normal(0.0, noise_sd, size=(n_entities, n_cols))
    x = np.linalg.solve(np.eye(n_entities) - m, noise)
    rows = np.repeat(np.arange(n_entities), n_cols)
    cols = np.tile(np.arange(n_cols), n_entities)
    data = DataMatrix(n_entities, n_cols, rows, cols, x.ravel(), implicit_zero=False)
    return data, GaussianTruth(EmbeddingBank(emb, cv), SpatialLayout(positions, k), noise_sd)


@dataclass
class BasketTruth:
    bank: EmbeddingBank
    cluster_of: np.ndarray
    popularity: np.ndarray


def gen_poisson_baskets(n_items=50, n_baskets=2000, n_clusters=5, dim=8,
                        strength=0.8, noise=0.15, size_mean=3.0, thin=0.0,
                        pop_power=1.0, seed=0):
    """Count baskets grown sequentially from a planted multiplicative model.

    Items carry clustered embedding/context vectors and Zipf-like base
    popularities.  Each basket seeds with a popularity draw and then adds
    items with probability proportional to popularity times
    exp(emb . sum of basket context vectors), which is the multiplicative
    Poisson conditional the fitted model assumes.  ``thin`` independently
    drops grown items afterward, producing zero-inflated baskets whose
    zeros understate the planted co-occurrence.
    """
    if dim < n_clusters:
        raise ConfigError("basket generator needs dim >= n_clusters")
    rng = seeded_rng(seed)
    cluster_of = rng.integers(0, n_clusters, size=n_items)
    scale = np.sqrt(strength)
    emb = noise * rng.normal(size=(n_items, dim))
    cv = noise * rng.normal(size=(n_items, dim))
    emb[np.arange(n_items), cluster_of] += scale
    cv[np.arange(n_items), cluster_of] += scale
    popularity = (1.0 + rng.permutation(n_items).astype(np.float64)) ** -pop_power
    popularity /= popularity.sum()

    rows, cols, vals = [], [], []
    col = 0
    for _ in range(n_baskets):
        target = max(1, rng.poisson(size_mean))
        basket = [int(rng.choice(n_items, p=popularity))]
        while len(basket) < target:
            ctx_sum = cv[basket].sum(axis=0)
            eta = np.clip(emb @ ctx_sum, -30.0, 30.0)
            w = popularity * np.exp(eta)
            w[basket] = 0.0
            total = w.sum()
            if total <= 0:
                break
            basket.append(int(rng.choice(n_items, p=w / total)))
        if thin > 0.0:
            kept = [m for m in basket if rng.random() >= thin]
            basket = kept if kept else [basket[0]]
        for m in basket:
            rows.append(m)
            cols.append(col)
            vals.append(float(1 + rng.poisson(0.2)))
        col += 1
    data = DataMatrix(n_items, col, rows, cols, vals, implicit_zero=True)
    return data, BasketTruth(EmbeddingBank(emb, cv), cluster_of, popularity)


@dataclass
class CorpusTruth:
    cluster_of: np.ndarray


def gen_cluster_corpus(vocab_size=20, n_clusters=2, length=2000, seed=0):
    """Token sequence built from contiguous same-cluster blocks.

    Words within a cluster co-occur inside small windows; words from
    different clusters only meet at the block boundaries (one boundary per
    block pair), so fitted embeddings should separate the clusters.
    """
    rng = seeded_rng(seed)
    per = vocab_size // n_clusters
    cluster_of = np.repeat(np.arange(n_clusters), per)
    if len(cluster_of) < vocab_size:
        cluster_of = np.concatenate([
            cluster_of, np.full(vocab_size - len(cluster_of), n_clusters - 1)])
    block = length // n_clusters
    words = []
    for g in range(n_clusters):
        members = np.flatnonzero(cluster_of == g)
        n = block if g < n_clusters - 1 else length - block * (n_clusters - 1)
        words.extend(rng.choice(members, size=n).tolist())
    rows = np.asarray(words, dtype=np.int64)
    cols = np.arange(length, dtype=np.int64)
    data = DataMatrix(vocab_size, length, rows, cols, np.ones(length), implicit_zero=True)
    return data, CorpusTruth(cluster_of)
