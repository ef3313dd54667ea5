import collections
import importlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from glembed import contexts
from glembed.core import DataMatrix, EmbeddingBank, Link, Scratch, TermBatch
from glembed.contexts import (
    SpatialLayout,
    WindowContext,
    WindowSpec,
    build_basket_context,
    build_knn_context,
    build_window_context,
)
from glembed.errors import ConfigError, NumericAbortError
from glembed.families import (
    ClampCounters,
    Family,
    FamilySpec,
    Gradients,
    block_means,
    log_prior,
    term_log_likelihoods,
    weighted_term_gradient,
)
from glembed.evaluate import SplitSpec, leave_one_out_mse, make_split, normalized_predictive_ll
from glembed.train import (
    LOG_TERMS,
    ZERO_ESTIMATORS,
    OptimizerState,
    TrainConfig,
    _draw_zero_cells,
    _drawn_terms,
    _log_sample,
    _sampled_terms,
    adagrad_step,
    estimate_objective,
    full_gradient,
    minibatch_gradient,
    objective,
    sparse_gradient,
    train,
)

from helpers import (
    ExplicitContext,
    active_terms,
    add_at_cell_products,
    add_at_rows,
    categorical_term_log_likelihoods,
    categorical_weighted_gradient,
    cells,
    conditional_means,
    count_instance,
    dense_draw_zero_cells,
    dense_matrix,
    dense_values,
    dense_zero_cells,
    family_instance,
    fd_gradient,
    fresh_table_log_likelihood,
    gaussian_instance,
    prefix_gather_window_table,
    serial_sparse_train,
    sparse_counts,
    text_instance,
    zero_bank,
)


# the module, which the package's function ``train`` hides from attribute paths
TRAIN = importlib.import_module("glembed.train")


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_empty_data_is_zero():
    data = DataMatrix(2, 2, [], [], [], implicit_zero=False)
    bank = zero_bank(2, 2)
    spec = FamilySpec(Family.GAUSSIAN)
    assert objective(data, ExplicitContext({}), bank, spec, 0.0) == 0.0


def test_objective_single_gaussian_point_at_mean():
    data = DataMatrix(1, 1, [0], [0], [0.0])
    bank = zero_bank(1, 2)
    spec = FamilySpec(Family.GAUSSIAN, sigma2=1.0)
    got = objective(data, ExplicitContext({}), bank, spec, 0.0)
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_objective_l2_convention():
    # with L2 the objective drops by (w/2)(|emb|^2 + |cv|^2), fixing the
    # lambda convention that pairs with -lambda*theta gradients
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 21)
    base = objective(data, ctx, bank, spec, 0.0)
    reg = objective(data, ctx, bank, spec, 2.5)
    penalty = 0.5 * 2.5 * ((bank.embeddings ** 2).sum() + (bank.context_vectors ** 2).sum())
    assert reg == pytest.approx(base - penalty, rel=1e-12)


@pytest.mark.parametrize("zero_weight", [1.0, 0.3])
def test_bernoulli_objective_bits_equal_fresh_table_log_likelihoods(monkeypatch, zero_weight):
    # several column blocks, the last one narrower, and one term batch: the
    # scratch tables hold the same bits as tables allocated per block
    data, ctx, bank, spec = family_instance(Family.BERNOULLI, 41, vocab=30, length=200)
    monkeypatch.setattr("glembed.families.BLOCK_CELLS", 30 * 7)
    batch = _drawn_terms(data, 500, np.random.default_rng(3))

    def scores():
        return (objective(data, ctx, bank, spec, 0.5, zero_weight=zero_weight),
                term_log_likelihoods(data, ctx, bank, spec, batch, zero_weight=zero_weight))

    got = scores()
    calls = []

    def oracle(*args):
        calls.append(None)
        return fresh_table_log_likelihood(*args)

    monkeypatch.setattr("glembed.families._log_likelihood", oracle)
    want = scores()
    assert len(calls) == -(-200 // 7) + 1
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# full gradient
# ---------------------------------------------------------------------------

def test_full_gradient_matches_fd_on_random_instances():
    for seed in (41, 42):
        data, ctx, bank, spec = family_instance(Family.POISSON, seed)
        cfg = TrainConfig(reg_weight=1.0)
        g = full_gradient(data, ctx, bank, spec, cfg)
        fd_emb, fd_cv = fd_gradient(data, ctx, bank, spec, 1.0)
        np.testing.assert_allclose(g.embeddings, fd_emb, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(g.context_vectors, fd_cv, rtol=1e-5, atol=1e-7)


def test_full_gradient_zero_at_constructed_stationary_point():
    data = DataMatrix(1, 1, [0], [0], [0.0])
    bank = zero_bank(1, 3)
    spec = FamilySpec(Family.GAUSSIAN)
    g = full_gradient(data, ExplicitContext({}), bank, spec, TrainConfig(reg_weight=0.0))
    assert np.abs(g.embeddings).max() == 0.0
    assert np.abs(g.context_vectors).max() == 0.0


# ---------------------------------------------------------------------------
# every cell by column blocks
# ---------------------------------------------------------------------------

SCALAR_FAMILIES = [f for f in Family if f is not Family.CATEGORICAL]


def _every_cell_instance(builder, family, implicit, seed, n=6, t=7):
    """Data of ``family``'s support, with about half the cells zero; every cell
    is stored when not ``implicit``."""
    rng = np.random.default_rng(seed)
    nonzero = rng.random((n, t)) < 0.5
    if family is Family.BERNOULLI:
        values = nonzero.astype(np.float64)
    elif family in (Family.POISSON, Family.ADDITIVE_POISSON):
        values = np.where(nonzero, rng.poisson(1.5, (n, t)) + 1.0, 0.0)
    else:
        values = np.where(nonzero, rng.normal(size=(n, t)), 0.0)
    data = dense_matrix(values, implicit_zero=implicit)
    if builder == "knn":
        ctx = build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), 3), data)
    elif builder == "basket":
        ctx = build_basket_context(data)
    else:
        ctx = build_window_context(t, WindowSpec(2), data)
    log_space = family in (Family.NONNEG_GAUSSIAN, Family.ADDITIVE_POISSON)
    bank = EmbeddingBank(rng.normal(scale=0.3, size=(n, 3)), rng.normal(scale=0.3, size=(n, 3)),
                         log_space=log_space)
    return data, ctx, bank


def _every_cell_batch(data, zero_weight=1.0):
    rows, cols = np.indices((data.n_rows, data.n_cols)).reshape(2, -1)
    batch = cells(data, rows, cols)
    batch.weights = np.where(batch.stored, 1.0, zero_weight)
    return batch


@pytest.mark.parametrize("mean_link", [False, True])
@pytest.mark.parametrize("family", SCALAR_FAMILIES)
@pytest.mark.parametrize("builder, implicit", [
    ("knn", True), ("knn", False), ("basket", True), ("window", True), ("window", False)])
def test_column_blocks_match_member_oracle(builder, implicit, family, mean_link):
    # the exact objective and gradient score every cell as column-block
    # products; the oracle walks each cell's members through the batch kernels
    data, ctx, bank = _every_cell_instance(builder, family, implicit, seed=len(builder) + 7)
    base = Link.LOG if family is Family.ADDITIVE_POISSON else Link.IDENTITY
    link = {Link.LOG: Link.MEAN_LOG, Link.IDENTITY: Link.MEAN_IDENTITY}[base] if mean_link \
        else base
    spec = FamilySpec(family, link, sigma2=0.8)
    zero_weight = 0.3 if implicit else 1.0
    cfg = TrainConfig(reg_weight=0.5, zero_estimator="downweight", downweight=0.3)
    oracle = ExplicitContext.of(ctx, data)
    batch = _every_cell_batch(data, zero_weight)
    prior, prior_grad = log_prior(bank, 0.5, "l2")
    want = float(term_log_likelihoods(data, oracle, bank, spec, batch).sum()) + prior
    got = objective(data, ctx, bank, spec, 0.5, zero_weight=zero_weight)
    assert got == pytest.approx(want, rel=1e-12)
    g = full_gradient(data, ctx, bank, spec, cfg)
    ref = weighted_term_gradient(data, oracle, bank, spec, batch)
    for table, ref_table, reg in ((g.embeddings, ref.embeddings, prior_grad.embeddings),
                                  (g.context_vectors, ref.context_vectors,
                                   prior_grad.context_vectors)):
        np.testing.assert_allclose(table, ref_table + reg, rtol=1e-12, atol=1e-15)
    # the member oracle's own block pass gives the same objective
    assert objective(data, oracle, bank, spec, 0.5, zero_weight=zero_weight) == \
        pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("estimator", ["sparse", "minibatch"])
def test_basket_cell_alone_in_its_column_matches_member_oracle(estimator):
    # the stored cell alone in column 3 has no member, so its additive-Poisson
    # rate is floored and its coefficient is ~1e8; it must add nothing, not a
    # column spread and an own term that cancel only up to rounding
    data, ctx, bank = _every_cell_instance("basket", Family.ADDITIVE_POISSON, True, seed=12)
    values = dense_values(data)
    values[:, 3] = 0.0
    values[4, 3] = 2.0
    data = dense_matrix(values, implicit_zero=True)
    ctx = build_basket_context(data)
    spec = FamilySpec(Family.ADDITIVE_POISSON)
    oracle = ExplicitContext.of(ctx, data)
    cfg = TrainConfig(estimator=estimator, minibatch_size=30, negative_samples=3, reg_weight=0.5)
    if estimator == "sparse":
        zero_draw = np.argwhere(values == 0.0)  # every zero cell, column 3's among them
        got, want = (sparse_gradient(data, c, bank, spec, cfg, None, zero_draw=zero_draw)
                     for c in (ctx, oracle))
    else:
        draw = np.arange(data.n_terms)
        got, want = (minibatch_gradient(data, c, bank, spec, cfg, None, draw=draw)
                     for c in (ctx, oracle))
    for table, ref in ((got.embeddings, want.embeddings),
                       (got.context_vectors, want.context_vectors)):
        np.testing.assert_allclose(table, ref, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mean_link", [False, True])
@pytest.mark.parametrize("builder", ["knn", "window"])
def test_block_means_count_only_present_members(builder, mean_link):
    data, ctx, bank = _every_cell_instance(builder, Family.POISSON, False, seed=3)
    rng = np.random.default_rng(4)
    data = data.select_entries(np.flatnonzero(rng.random(data.nnz) >= 0.3))
    ctx = build_window_context(data.n_cols, WindowSpec(2), data) if builder == "window" \
        else ctx
    spec = FamilySpec(Family.POISSON, Link.MEAN_IDENTITY if mean_link else Link.IDENTITY)
    batch = _every_cell_batch(data)
    oracle = ExplicitContext.of(ctx, data)
    want, active = conditional_means(data, oracle, bank, spec, batch)
    got = np.empty((data.n_rows, data.n_cols))
    for block, means, _ in block_means(data, ctx, bank, spec):
        got[:, block.cols] = means
    np.testing.assert_allclose(got.ravel(), np.where(active, want, 0.0), rtol=1e-12)
    if builder == "knn":  # some neighbour cells are missing
        emb, cv = bank.embeddings, bank.context_vectors
        assert (oracle.block(data, emb, cv).at(batch)[1] < 3).any()


@pytest.mark.parametrize("family", [Family.POISSON, Family.ADDITIVE_POISSON])
def test_column_blocks_count_clamps_as_the_batch_path(family):
    data, ctx, bank = count_instance(61, n=7, t=9, density=0.35,
                                     log_space=family is Family.ADDITIVE_POISSON, scale=2.0)
    if family is Family.ADDITIVE_POISSON:
        bank.embeddings[:3] = -40.0  # rates far below the floor
    spec = FamilySpec(family)
    batch = _every_cell_batch(data)
    block, ref = ClampCounters(), ClampCounters()
    objective(data, ctx, bank, spec, 0.0, counters=block)
    term_log_likelihoods(data, ctx, bank, spec, batch, ref)
    full_gradient(data, ctx, bank, spec, TrainConfig(), block)
    weighted_term_gradient(data, ctx, bank, spec, batch, ref)
    assert block == ref
    assert block.eta_clamped + block.rate_floored > 0


def test_column_block_objective_memory_is_bounded():
    # a 2000 x 1000 text matrix has 2M cells; its per-cell arrays would take
    # hundreds of MiB
    rng = np.random.default_rng(0)
    length = 1000
    data = DataMatrix(2000, length, rng.integers(0, 2000, length), np.arange(length),
                      np.ones(length), implicit_zero=True)
    ctx = build_window_context(length, WindowSpec(2), data)
    bank = EmbeddingBank.init_random(2000, 8, seed=1)
    tracemalloc.start()
    try:
        value = objective(data, ctx, bank, FamilySpec(Family.BERNOULLI), 0.0, "none")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 32 * 2**20


def _column_terms(data, cols, weight=None):
    """The columns ``cols`` of categorical data as the softmax oracle's
    batch of their active terms."""
    cols = np.asarray(cols, dtype=np.int64)
    ones = np.ones(len(cols), dtype=bool)
    weights = None if weight is None else np.full(len(cols), weight)
    return TermBatch(active_terms(data)[cols], cols, ones, ones, weights)


@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
def test_categorical_column_blocks_match_the_softmax_oracle(link):
    data, ctx, bank, _ = family_instance(Family.CATEGORICAL, 71, vocab=7, length=40)
    spec = FamilySpec(Family.CATEGORICAL, link, vocab_size=data.n_rows)
    cfg = TrainConfig(reg_weight=0.5, estimator="minibatch", minibatch_size=9)
    prior, prior_grad = log_prior(bank, 0.5, "l2")

    def assert_matches(g, ref):
        for table, ref_table, reg in ((g.embeddings, ref.embeddings, prior_grad.embeddings),
                                      (g.context_vectors, ref.context_vectors,
                                       prior_grad.context_vectors)):
            np.testing.assert_allclose(table, ref_table + reg, rtol=1e-12, atol=1e-15)

    every = _column_terms(data, np.arange(data.n_cols))
    ll, _ = categorical_term_log_likelihoods(data, ctx, bank, spec, every)
    assert objective(data, ctx, bank, spec, 0.5) == pytest.approx(float(ll.sum()) + prior,
                                                                  rel=1e-12)
    assert_matches(full_gradient(data, ctx, bank, spec, cfg),
                   categorical_weighted_gradient(data, ctx, bank, spec, every))
    draw = np.array([31, 0, 17, 5, 39, 22, 8, 12, 3])
    assert_matches(minibatch_gradient(data, ctx, bank, spec, cfg, None, draw=draw),
                   categorical_weighted_gradient(data, ctx, bank, spec,
                                                 _column_terms(data, draw, 40 / 9)))


def test_categorical_zero_cells_are_never_downweighted():
    # a zero cell of categorical data is part of its column's softmax, not a term
    data, ctx, bank, spec = family_instance(Family.CATEGORICAL, 72)
    base = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.5))
    low = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.5, downweight=0.1,
                                                           zero_estimator="downweight"))
    assert base.embeddings.tobytes() == low.embeddings.tobytes()
    assert base.context_vectors.tobytes() == low.context_vectors.tobytes()


def test_categorical_objective_and_gradient_memory_is_bounded():
    # at vocabulary 2000 and 20k tokens, one (tokens, vocabulary) softmax
    # table takes 305 MiB
    rng = np.random.default_rng(1)
    length = 20000
    data = DataMatrix(2000, length, rng.integers(0, 2000, length), np.arange(length),
                      np.ones(length), implicit_zero=True)
    ctx = build_window_context(length, WindowSpec(2), data)
    bank = EmbeddingBank.init_random(2000, 8, seed=2)
    spec = FamilySpec(Family.CATEGORICAL, vocab_size=2000)
    for score in (lambda: objective(data, ctx, bank, spec, 0.0, "none"),
                  lambda: full_gradient(data, ctx, bank, spec, TrainConfig(regularizer="none"))):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


# ---------------------------------------------------------------------------
# minibatch estimator
# ---------------------------------------------------------------------------

def test_minibatch_full_size_equals_full_gradient():
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 23)
    cfg = TrainConfig(reg_weight=0.5, estimator="minibatch", minibatch_size=data.n_terms)
    g = minibatch_gradient(data, ctx, bank, spec, cfg, np.random.default_rng(0))
    ref = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(g.embeddings, ref.embeddings, rtol=1e-12)
    np.testing.assert_allclose(g.context_vectors, ref.context_vectors, rtol=1e-12)


def test_minibatch_three_term_average_identity():
    # with I=3 and |S|=1 the average of the three possible estimates is the
    # full data-term gradient: (3a + 3b + 3c)/3 = a + b + c
    data = DataMatrix(3, 1, [0, 1, 2], [0, 0, 0], [1.0, -2.0, 0.5])
    ctx = ExplicitContext({(0, 0): [(1, 0)], (1, 0): [(2, 0)], (2, 0): [(0, 0)]})
    bank = EmbeddingBank.init_random(3, 2, seed=5)
    spec = FamilySpec(Family.GAUSSIAN)
    cfg = TrainConfig(reg_weight=0.7, estimator="minibatch", minibatch_size=1)
    acc = np.zeros_like(bank.embeddings)
    for term in range(3):
        acc += minibatch_gradient(data, ctx, bank, spec, cfg, None,
                                  draw=np.array([term])).embeddings
    full = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(acc / 3, full.embeddings, atol=1e-12)


def test_minibatch_enumeration_is_unbiased():
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 24)
    total = data.n_terms
    cfg = TrainConfig(reg_weight=0.0, estimator="minibatch", minibatch_size=2)
    acc_e = np.zeros_like(bank.embeddings)
    acc_c = np.zeros_like(bank.context_vectors)
    subsets = list(itertools.combinations(range(total), 2))
    for s in subsets:
        g = minibatch_gradient(data, ctx, bank, spec, cfg, None, draw=np.array(s))
        acc_e += g.embeddings
        acc_c += g.context_vectors
    full = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(acc_e / len(subsets), full.embeddings, atol=1e-10)
    np.testing.assert_allclose(acc_c / len(subsets), full.context_vectors, atol=1e-10)


def test_minibatch_monte_carlo_mean_within_three_stderr():
    data, ctx, bank, spec = family_instance(Family.POISSON, 25)
    cfg = TrainConfig(reg_weight=0.0, estimator="minibatch", minibatch_size=5)
    rng = np.random.default_rng(77)
    draws = 10_000
    samples = np.empty((draws,) + bank.embeddings.shape)
    for i in range(draws):
        samples[i] = minibatch_gradient(data, ctx, bank, spec, cfg, rng).embeddings
    full = full_gradient(data, ctx, bank, spec, cfg).embeddings
    se = samples.std(axis=0) / math.sqrt(draws)
    gap = np.abs(samples.mean(axis=0) - full)
    assert (gap <= 3 * se + 1e-12).all()


# ---------------------------------------------------------------------------
# sparse zero/nonzero split estimator
# ---------------------------------------------------------------------------

def _sparse_fixture():
    # one nonzero cell and four zero cells in a single column
    data = DataMatrix(5, 1, [1], [0], [2.0], implicit_zero=True)
    ctx = build_basket_context(data)
    bank = EmbeddingBank.init_random(5, 2, seed=8, scale=0.8)
    spec = FamilySpec(Family.POISSON)
    return data, ctx, bank, spec


def test_sparse_all_nonzero_equals_full():
    vals = np.arange(1.0, 7.0).reshape(2, 3)
    data = dense_matrix(vals, implicit_zero=True)
    ctx = build_basket_context(data)
    bank = EmbeddingBank.init_random(2, 2, seed=9)
    spec = FamilySpec(Family.POISSON)
    cfg = TrainConfig(reg_weight=0.3, estimator="sparse", negative_samples=2)
    g = sparse_gradient(data, ctx, bank, spec, cfg, np.random.default_rng(0))
    ref = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(g.embeddings, ref.embeddings, rtol=1e-12)


def test_sparse_sampling_every_zero_equals_full_for_both_estimators():
    data, ctx, bank, spec = _sparse_fixture()
    zeros = np.array([(r, 0) for r in range(5) if r != 1])
    full = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.4))
    for zero_estimator in ("unbiased", "negative_sampling"):
        cfg = TrainConfig(reg_weight=0.4, estimator="sparse",
                          zero_estimator=zero_estimator, negative_samples=4)
        g = sparse_gradient(data, ctx, bank, spec, cfg, None, zero_draw=zeros)
        np.testing.assert_allclose(g.embeddings, full.embeddings, rtol=1e-12)
        np.testing.assert_allclose(g.context_vectors, full.context_vectors, rtol=1e-12)


def test_sparse_enumeration_is_unbiased():
    data, ctx, bank, spec = _sparse_fixture()
    cfg = TrainConfig(reg_weight=0.0, estimator="sparse", negative_samples=2)
    zeros = [(r, 0) for r in range(5) if r != 1]
    acc = np.zeros_like(bank.embeddings)
    subsets = list(itertools.combinations(zeros, 2))
    for s in subsets:
        acc += sparse_gradient(data, ctx, bank, spec, cfg, None,
                               zero_draw=np.array(s)).embeddings
    full = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(acc / len(subsets), full.embeddings, atol=1e-10)


def test_negative_sampling_is_unbiased_with_zero_portion_rescaled():
    # shared draws: NS equals UB with the zero portion scaled by S/Z = 1/2,
    # which is exact in floating point
    data, ctx, bank, spec = _sparse_fixture()
    kw = dict(reg_weight=0.0, estimator="sparse", negative_samples=2, seed=3)
    g_ub = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="unbiased", **kw),
                           np.random.default_rng(3))
    g_ns = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="negative_sampling", **kw),
                           np.random.default_rng(3))
    nz = weighted_term_gradient(data, ctx, bank, spec,
                                TermBatch(data.rows, data.cols, data.vals, [True], np.ones(1)))
    predicted = nz.embeddings + 0.5 * (g_ub.embeddings - nz.embeddings)
    np.testing.assert_array_equal(predicted, g_ns.embeddings)


def test_downweight_scales_zero_portion_by_gamma():
    data, ctx, bank, spec = _sparse_fixture()
    zeros = np.array([(0, 0), (3, 0)])
    kw = dict(reg_weight=0.0, estimator="sparse", negative_samples=2)
    g_ub = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="unbiased", **kw),
                           None, zero_draw=zeros)
    g_dw = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="downweight", downweight=0.25, **kw),
                           None, zero_draw=zeros)
    nz = weighted_term_gradient(data, ctx, bank, spec,
                                TermBatch(data.rows, data.cols, data.vals, [True], np.ones(1)))
    predicted = nz.embeddings + 0.25 * (g_ub.embeddings - nz.embeddings)
    np.testing.assert_allclose(predicted, g_dw.embeddings, rtol=1e-12)


def test_sparse_requires_implicit_zero_data():
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 26)
    cfg = TrainConfig(estimator="sparse")
    with pytest.raises(ConfigError):
        sparse_gradient(data, ctx, bank, spec, cfg, np.random.default_rng(0))


def test_sparse_no_zero_entries_contributes_nothing():
    vals = np.ones((2, 2))
    data = dense_matrix(vals, implicit_zero=True)
    ctx = build_basket_context(data)
    bank = EmbeddingBank.init_random(2, 2, seed=12)
    spec = FamilySpec(Family.POISSON)
    cfg = TrainConfig(reg_weight=0.0, estimator="sparse", negative_samples=3)
    g = sparse_gradient(data, ctx, bank, spec, cfg, np.random.default_rng(1))
    ref = full_gradient(data, ctx, bank, spec, cfg)
    np.testing.assert_allclose(g.embeddings, ref.embeddings, rtol=1e-12)


_ONE_PASS_CFG = TrainConfig(minibatch_size=6, negative_samples=2, reg_weight=0.5)


def _logged_objective(data, ctx, bank, spec, rng):
    sample = _log_sample(data, spec, rng)
    assert sample is not None
    return estimate_objective(data, ctx, bank, spec, _ONE_PASS_CFG, sample)


# entry point -> (family, with missing cells, call)
_ONE_PASS = {
    "objective-every-cell": (Family.GAUSSIAN, False,
                             lambda d, c, b, s, rng: objective(d, c, b, s, 0.5)),
    "objective-missing-cells": (Family.GAUSSIAN, True,
                                lambda d, c, b, s, rng: objective(d, c, b, s, 0.5)),
    "full-gradient-every-cell": (Family.GAUSSIAN, False,
                                 lambda d, c, b, s, rng: full_gradient(d, c, b, s, _ONE_PASS_CFG)),
    "full-gradient-missing-cells": (Family.GAUSSIAN, True, lambda d, c, b, s, rng:
                                    full_gradient(d, c, b, s, _ONE_PASS_CFG)),
    "minibatch": (Family.GAUSSIAN, False, lambda d, c, b, s, rng:
                  minibatch_gradient(d, c, b, s, _ONE_PASS_CFG, rng)),
    "minibatch-categorical": (Family.CATEGORICAL, False, lambda d, c, b, s, rng:
                              minibatch_gradient(d, c, b, s, _ONE_PASS_CFG, rng)),
    "sparse-poisson": (Family.POISSON, False, lambda d, c, b, s, rng:
                       sparse_gradient(d, c, b, s, _ONE_PASS_CFG, rng)),
    "sparse-bernoulli": (Family.BERNOULLI, False, lambda d, c, b, s, rng:
                         sparse_gradient(d, c, b, s, _ONE_PASS_CFG, rng)),
    "estimate-objective-log-sample": (Family.POISSON, False, _logged_objective),
    "leave-one-out": (Family.GAUSSIAN, True,
                      lambda d, c, b, s, rng: leave_one_out_mse(d, c, b, s)),
    "npll": (Family.POISSON, False,
             lambda d, c, b, s, rng: normalized_predictive_ll(d, c, b, s)),
}


@pytest.mark.parametrize("entry", sorted(_ONE_PASS))
def test_each_kernel_call_makes_one_context_pass(entry, monkeypatch):
    # every kernel scores its cells in pieces of one pass of ctx.block, however
    # many column blocks it covers, so basket and window contexts build their
    # column tables once per call (a sparse step: its nonzeros and sampled zeros)
    family, holey, call = _ONE_PASS[entry]
    monkeypatch.setattr("glembed.families.BLOCK_CELLS", 16)  # several column blocks
    # a log sample at test scale
    monkeypatch.setattr(importlib.import_module("glembed.train"), "LOG_TERMS", 4)
    kw = dict(n=8, t=10) if family is Family.GAUSSIAN else {}
    data, ctx, bank, spec = family_instance(family, 27, **kw)
    if holey:
        data = data.select_entries(np.arange(0, data.nnz, 2))
    assert data.every_cell_a_term != holey
    calls = []
    block = ctx.block

    def counted(*args, **kwargs):
        calls.append("block")
        return block(*args, **kwargs)
    monkeypatch.setattr(ctx, "block", counted)
    call(data, ctx, bank, spec, np.random.default_rng(0))
    assert calls == ["block"]


@pytest.mark.parametrize("holey", [False, True])
def test_knn_minibatch_step_builds_no_neighbor_matrix(holey, monkeypatch):
    # a step over listed cells gathers their members; the (N, N) neighbour
    # matrices of the column-block pass are built only for a table
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 28, n=8, t=10)
    if holey:
        data = data.select_entries(np.arange(0, data.nnz, 2))
    calls = []
    neighbor_matrix = contexts._neighbor_matrix

    def counted(*args):
        calls.append(args)
        return neighbor_matrix(*args)
    monkeypatch.setattr(contexts, "_neighbor_matrix", counted)
    cfg = TrainConfig(estimator="minibatch", minibatch_size=6)
    g = minibatch_gradient(data, ctx, bank, spec, cfg, np.random.default_rng(0))
    assert calls == [] and np.abs(g.embeddings).max() > 0
    full_gradient(data, ctx, bank, spec, cfg)
    # complete data are scored by column blocks: M, then G; data with missing
    # cells by their entries
    assert len(calls) == (0 if holey else 2)


def _zero_draw_matrices():
    rng = np.random.default_rng(40)
    for _ in range(6):
        n, t = rng.integers(1, 9, size=2)
        vals = np.where(rng.random((n, t)) < rng.uniform(0.1, 0.9),
                        rng.integers(1, 4, size=(n, t)), 0).astype(np.float64)
        vals[rng.integers(n)] = 0.0  # an empty row
        yield vals
    yield np.ones((3, 4))            # no zero cells
    yield np.zeros((2, 3))           # no stored entries
    vals = np.zeros((5, 6))
    vals[[1, 3], :] = 2.0            # empty rows around full ones
    vals[3, 5] = 0.0
    yield vals


@pytest.mark.parametrize("case", range(9))
def test_zero_cell_draw_matches_dense_oracle(case):
    data = dense_matrix(list(_zero_draw_matrices())[case], implicit_zero=True)
    n_zero = data.n_rows * data.n_cols - data.nnz
    for per_term in sorted({1, 3, max(n_zero - 1, 1), max(n_zero, 1), n_zero + 2}):
        for n_terms in (0, 1, 7):
            for seed in (0, 1):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _draw_zero_cells(data, n_terms, per_term, a)
                want = dense_draw_zero_cells(data, n_terms, per_term, b)
                for g, w in zip(got[:2], want[:2]):
                    np.testing.assert_array_equal(g, w)
                assert got[2:] == want[2:]
                assert a.integers(1 << 62) == b.integers(1 << 62)
    if n_zero:
        # many repeated queries, the first and last empty cells among them:
        # the lookup sorts its queries and returns the cells in that order
        zero_ids = np.flatnonzero(dense_values(data).ravel() == 0.0)
        rng = np.random.default_rng(case)
        q = np.concatenate([rng.integers(0, n_zero, 100_000), [n_zero - 1, 0, n_zero - 1]])
        rows, cols = data.zero_cells(q)
        np.testing.assert_array_equal(rows * data.n_cols + cols, zero_ids[np.sort(q)])


def test_zero_cells_outside_every_stored_key():
    # empty cells before the first stored key, between and after the last
    rng = np.random.default_rng(41)
    n, t = 300, 400
    keys = rng.choice(np.arange(50, n * t - 50), size=20_000, replace=False)
    data = DataMatrix(n, t, keys // t, keys % t, np.ones(len(keys)), implicit_zero=True)
    zero_ids = np.setdiff1d(np.arange(n * t), keys)
    q = np.concatenate([rng.integers(0, len(zero_ids), 100_000), np.arange(50),
                        len(zero_ids) - 1 - np.arange(50), [0, 0]])
    rows, cols = data.zero_cells(q)
    np.testing.assert_array_equal(rows * t + cols, zero_ids[np.sort(q)])


def test_zero_cells_of_empty_queries_empty_data_and_the_tail():
    rng = np.random.default_rng(43)
    data = DataMatrix(6, 7, [0, 2, 2, 3], [1, 0, 5, 6], [1.0, 2.0, 3.0, 1.0], implicit_zero=True)
    empty = DataMatrix(6, 7, [], [], [], implicit_zero=True)
    for d in (data, empty):
        rows, cols = d.zero_cells(np.empty(0, np.int64))
        assert rows.shape == cols.shape == (0,)
        q = rng.integers(0, 42 - d.nnz, 500)
        for got, want in zip(d.zero_cells(q), dense_zero_cells(d, q)):
            np.testing.assert_array_equal(got, want)
    rows, cols = empty.zero_cells(q)
    np.testing.assert_array_equal(rows * 7 + cols, np.sort(q))
    # every query past the last stored key, 27 = (3, 6): the empty cells
    # from key 28 on, each after every stored entry
    q = 28 - data.nnz + rng.integers(0, 42 - 28, 300)
    rows, cols = data.zero_cells(q)
    np.testing.assert_array_equal(rows * 7 + cols, np.sort(q) + data.nnz)


def _reference_kernels(monkeypatch):
    """Swap in the ``np.add.at`` scatters for the incidence, coefficient-matrix
    and CSR products (the column counts as a ``bincount``), the dense
    zero-cell lookup and the prefix-gather window table, which ignores the
    scratch; returns their call counts."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for module in ("core", "contexts", "evaluate"):
        monkeypatch.setattr(f"glembed.{module}.scatter_rows", counted("scatter", add_at_rows))
    monkeypatch.setattr("glembed.contexts.cell_products",
                        counted("products", add_at_cell_products))
    monkeypatch.setattr("glembed.contexts._column_tables", counted("csr", lambda data, cv: (
        add_at_rows(data.cols, cv[data.rows], data.n_cols, data.vals))))
    monkeypatch.setattr("glembed.contexts._spread", counted("csr", lambda data, R: (
        add_at_rows(data.rows, R[data.cols], data.n_rows, data.vals))))
    monkeypatch.setattr("glembed.contexts._column_counts", counted("counts", lambda data: (
        np.bincount(data.cols, minlength=data.n_cols))))
    monkeypatch.setattr(DataMatrix, "zero_cells", counted("zero_cells", dense_zero_cells))
    monkeypatch.setattr(WindowContext, "_window_table", counted(
        "window", lambda ctx, table, scratch, name: prefix_gather_window_table(ctx.half_width,
                                                                               table)))
    return calls


@pytest.mark.parametrize("case", ["sparse-window", "sparse-basket", "minibatch-knn",
                                  "full-window"])
def test_training_bytes_equal_the_reference_kernels(case, monkeypatch):
    # the incidence, coefficient-matrix and CSR scatters, the merge-count
    # zero lookup and the sliced window table, with the tables a fit reuses
    # from its scratch, give every bank byte of their plain references
    estimator, builder = case.split("-")

    def instance():
        # built afresh for each fit, so that no operator or count the data
        # keep from the first fit serves the reference fit
        if builder == "window":
            data, ctx, _ = text_instance(44, vocab=30, length=400)
            return data, ctx, FamilySpec(Family.BERNOULLI)
        if builder == "basket":
            data, ctx, _ = count_instance(45, n=20, t=60, density=0.3)
            return data, ctx, FamilySpec(Family.POISSON)
        data, ctx, _ = gaussian_instance(46, n=20, t=40, knn=3)
        return data, ctx, FamilySpec(Family.GAUSSIAN)
    cfg = TrainConfig(dim=4, estimator=estimator, minibatch_size=100, negative_samples=3,
                      n_iterations=6, log_every=3, reg_weight=0.1, step_size=0.2, seed=7)
    got, got_log = train(*instance(), cfg)
    calls = _reference_kernels(monkeypatch)
    data, ctx, spec = instance()
    want, want_log = train(data, ctx, spec, cfg)
    # scatter_rows serves the kNN pass and the basket's own-term correction
    assert (calls["scatter"] > 0) == (builder != "window")
    assert (calls["csr"] > 0) == (calls["counts"] > 0) == (builder != "knn")
    # the sparse steps draw zero cells, and so does the logged subsample of
    # the full-window instance (30 x 400 cells, above 2 * LOG_TERMS)
    assert (calls["zero_cells"] > 0) == data.implicit_zero
    assert (calls["products"] > 0) == (builder != "knn" and estimator != "full")
    assert (calls["window"] > 0) == (builder == "window")
    for table, ref in ((got.embeddings, want.embeddings),
                       (got.context_vectors, want.context_vectors)):
        np.testing.assert_array_equal(table.view(np.int64), ref.view(np.int64))
    assert [r.objective for r in got_log] == [r.objective for r in want_log]


def test_implicit_data_paths_never_build_the_dense_matrix(monkeypatch):
    # every estimator on implicit-zero window, basket and kNN data, and NPLL,
    # peak well below one (rows x cols) float array: 9.6 MB at 300 x 4000
    monkeypatch.setattr("glembed.families.BLOCK_CELLS", 1 << 12)
    window_data, window_ctx, _ = text_instance(3, vocab=300, length=4000)
    basket_data, basket_ctx, _ = count_instance(4, n=300, t=4000, density=0.002)
    positions = np.random.default_rng(5).uniform(size=(300, 3))
    knn_ctx = build_knn_context(SpatialLayout(positions, 4), basket_data)
    bound = 300 * 4000 * 8 / 2

    def peak_of(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for data, ctx, spec in ((window_data, window_ctx, FamilySpec(Family.BERNOULLI)),
                            (basket_data, basket_ctx, FamilySpec(Family.POISSON)),
                            (basket_data, knn_ctx, FamilySpec(Family.POISSON))):
        for estimator in ("sparse", "minibatch", "full"):
            cfg = TrainConfig(dim=3, estimator=estimator, minibatch_size=20, n_iterations=3,
                              log_every=1, negative_samples=2, reg_weight=0.1, seed=5)
            (bank, log), peak = peak_of(lambda: train(data, ctx, spec, cfg))
            assert len(log) == 4 and all(math.isfinite(r.objective) for r in log)
            assert peak < bound, (type(ctx).__name__, estimator, peak)
    make_split(basket_data, SplitSpec(test_frac=0.3, valid_frac=0.0, train_frac=0.7))
    for ctx in (basket_ctx, knn_ctx):
        report, peak = peak_of(lambda: normalized_predictive_ll(
            basket_data, ctx, bank, FamilySpec(Family.POISSON)))
        assert math.isfinite(report.estimate)
        assert peak < bound, (type(ctx).__name__, peak)


def test_knn_minibatch_fit_on_implicit_data_memory_is_bounded():
    # one (rows x cols) float array of this 2000 x 20000 matrix takes 305 MiB
    data = sparse_counts(2000, 20000, 200_000, seed=11)
    positions = np.random.default_rng(12).uniform(size=(data.n_rows, 3))
    ctx = build_knn_context(SpatialLayout(positions, 10), data)
    cfg = TrainConfig(dim=4, estimator="minibatch", minibatch_size=1000, n_iterations=5,
                      log_every=5, reg_weight=0.1, seed=3)
    tracemalloc.start()
    try:
        _, log = train(data, ctx, FamilySpec(Family.POISSON), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(math.isfinite(r.objective) for r in log)
    assert peak < 64 * 2**20


_BLAS_FIT = """
import hashlib, importlib
from glembed import contexts, synth
from glembed.families import Family, FamilySpec
train = importlib.import_module("glembed.train")
data, _ = synth.gen_cluster_corpus(vocab_size=120, length=3000, seed=5)
ctx = contexts.build_window_context(data.n_cols, contexts.WindowSpec(2), data)
cfg = train.TrainConfig(dim=8, estimator="sparse", negative_samples=10, n_iterations=5,
                        step_size=0.5, reg_weight=1.0, log_every=5)
bank, log = train.train(data, ctx, FamilySpec(Family.BERNOULLI), cfg)
print(hashlib.sha256(bank.embeddings.tobytes() + bank.context_vectors.tobytes()
                     + repr([r.objective for r in log]).encode()).hexdigest())
"""


def test_sparse_window_fit_bytes_do_not_depend_on_the_blas_thread_count():
    # the sparse step makes no BLAS call, so one and two OpenBLAS threads
    # give one bank; the variable is set in the child processes only
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", _BLAS_FIT], env=env, check=True,
                             capture_output=True, text=True).stdout
        digests.add(out.strip())
    assert len(digests) == 1, digests


def test_sparse_window_step_holds_less_than_one_gathered_table():
    # 25,000 tokens with 10 zero cells each: a batch of 275,000 cells, whose
    # (cells x dim) table of gathered rows takes 17.6 MB at dim 8; the step
    # once gathered two such tables, a peak of 2.8 of them
    rng = np.random.default_rng(66)
    vocab, length, dim = 400, 25_000, 8
    data = DataMatrix(vocab, length, rng.integers(0, vocab, length), np.arange(length),
                      np.ones(length), implicit_zero=True)
    ctx = build_window_context(length, WindowSpec(2), data)
    bank = EmbeddingBank.init_random(vocab, dim, seed=1)
    cfg = TrainConfig(dim=dim, estimator="sparse", negative_samples=10, reg_weight=0.1)
    # the batch as the worker builds it, ahead of the step
    batch = _sampled_terms(data, cfg, np.random.default_rng(2))
    assert len(batch) == 11 * length and batch.row_starts is not None
    tracemalloc.start()
    try:
        g = sparse_gradient(data, ctx, bank, FamilySpec(Family.BERNOULLI), cfg, None,
                            batch=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(g.embeddings).all() and np.isfinite(g.context_vectors).all()
    assert peak < len(batch) * dim * 8, peak


def test_sparse_window_steps_map_no_fresh_tables():
    # from the second fit in a process on, a sparse step takes its tables
    # from the fit's scratch and the data's CSR operators and window counts:
    # this thread takes well under 100 minor page faults per step, where
    # fresh tables cost about 4,400 at this shape.  The first step of a fit
    # sizes its scratch (about 2,300 pages if the allocator maps them
    # afresh), so the bound is taken over 30 steps
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("no per-thread resource usage on this platform")
    rng = np.random.default_rng(66)
    vocab, length = 400, 25_000
    data = DataMatrix(vocab, length, rng.integers(0, vocab, length), np.arange(length),
                      np.ones(length), implicit_zero=True)
    ctx = build_window_context(length, WindowSpec(2), data)
    spec = FamilySpec(Family.BERNOULLI)
    cfg = TrainConfig(dim=8, estimator="sparse", negative_samples=10, reg_weight=0.1,
                      n_iterations=30, log_every=30)
    train(data, ctx, spec, cfg)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    train(data, ctx, spec, cfg)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / cfg.n_iterations < 100, faults


@pytest.mark.parametrize("builder", ["window", "basket", "knn"])
def test_gradients_through_one_scratch_equal_fresh_scratch_gradients(builder, monkeypatch):
    # the kernel calls of a fit share one scratch: drawn cells and every
    # column, under two banks, give the bytes of calls that each take a
    # fresh scratch, and no returned gradient is overwritten by a later call
    if builder == "window":
        data, ctx, bank = text_instance(68, vocab=30, length=400)
        spec = FamilySpec(Family.BERNOULLI)
    elif builder == "basket":
        data, ctx, bank = count_instance(69, n=20, t=60, density=0.3)
        spec = FamilySpec(Family.POISSON)
    else:
        data, ctx, bank = gaussian_instance(70, n=20, t=40, knn=3)
        spec = FamilySpec(Family.GAUSSIAN)
    monkeypatch.setattr("glembed.families.BLOCK_CELLS", 4 * data.n_rows)  # blocks of 4 columns
    cfg = TrainConfig(minibatch_size=150, negative_samples=3)
    rng = np.random.default_rng(71)
    batches = [_sampled_terms(data, cfg, rng) if data.implicit_zero
               else _drawn_terms(data, cfg.minibatch_size, rng) for _ in range(2)]
    banks = [bank, EmbeddingBank(bank.embeddings[::-1] * 1.5, bank.context_vectors[::-1])]
    calls = [(b, c) for b in banks for c in (*batches, None)]
    scratch = Scratch()
    got = [weighted_term_gradient(data, ctx, b, spec, c, scratch=scratch) for b, c in calls]
    want = [weighted_term_gradient(data, ctx, b, spec, c) for b, c in calls]
    for g, w in zip(got, want):
        for table, ref in ((g.embeddings, w.embeddings), (g.context_vectors, w.context_vectors)):
            np.testing.assert_array_equal(table.view(np.int64), ref.view(np.int64))


# ---------------------------------------------------------------------------
# logged objective
# ---------------------------------------------------------------------------

def _logged_instance(case):
    """(data, ctx, spec, config) above the exact-logging threshold: explicit
    Gaussian kNN (one stratum), Poisson baskets with downweighted zeros (both
    strata subsampled) and Bernoulli windows (every nonzero term kept)."""
    if case == "gaussian-knn":
        data, ctx, _ = gaussian_instance(50, n=40, t=300, knn=4)
        spec = FamilySpec(Family.GAUSSIAN, sigma2=0.8)
        cfg = TrainConfig(dim=3, estimator="minibatch", minibatch_size=50)
    elif case == "poisson-basket":
        data, ctx, _ = count_instance(51, n=60, t=300, density=0.3)
        spec = FamilySpec(Family.POISSON)
        cfg = TrainConfig(dim=3, estimator="sparse", negative_samples=3,
                          zero_estimator="downweight", downweight=0.2)
    else:
        data, ctx, _ = text_instance(52, vocab=30, length=400)
        spec = FamilySpec(Family.BERNOULLI)
        cfg = TrainConfig(dim=3, estimator="sparse", negative_samples=3)
    cfg.n_iterations, cfg.log_every, cfg.reg_weight, cfg.step_size = 20, 10, 0.1, 0.3
    assert data.n_terms > 2 * LOG_TERMS
    return data, ctx, spec, cfg


def _exact(data, ctx, bank, spec, cfg):
    zero_weight = cfg.downweight if cfg.zero_estimator == "downweight" else 1.0
    return objective(data, ctx, bank, spec, cfg.reg_weight, cfg.regularizer, zero_weight)


LOGGED = ["gaussian-knn", "poisson-basket", "bernoulli-window"]


@pytest.mark.parametrize("case", LOGGED)
def test_logged_estimate_within_four_stderr_of_the_exact_objective(case):
    data, ctx, spec, cfg = _logged_instance(case)
    exact = []
    _, log = train(data, ctx, spec, cfg,
                   on_log=lambda it, bank, state: exact.append(_exact(data, ctx, bank, spec, cfg)))
    assert len(log) == len(exact) == 3
    for r, want in zip(log, exact):
        assert r.objective_stderr > 0.0
        assert abs(r.objective - want) <= 4 * r.objective_stderr


def test_logged_stderr_matches_the_spread_of_redrawn_subsamples():
    # both strata subsampled: over redrawn subsamples of one bank the
    # estimates centre on the exact objective and spread by their stderr
    data, ctx, spec, cfg = _logged_instance("poisson-basket")
    bank = EmbeddingBank.init_random(data.n_rows, 3, seed=1, scale=0.5)
    samples = [_log_sample(data, spec, np.random.default_rng(s)) for s in range(200)]
    assert np.count_nonzero(samples[0].stored) == np.count_nonzero(~samples[0].stored) \
        == LOG_TERMS
    est, err = np.array([estimate_objective(data, ctx, bank, spec, cfg, s) for s in samples]).T
    spread = est.std(ddof=1)
    assert 0.8 < spread / np.sqrt((err ** 2).mean()) < 1.25
    assert abs(est.mean() - _exact(data, ctx, bank, spec, cfg)) < 4 * spread / np.sqrt(len(est))


@pytest.mark.parametrize("case", LOGGED)
def test_one_seed_logs_identical_objectives(case):
    data, ctx, spec, cfg = _logged_instance(case)
    logs = [train(data, ctx, spec, cfg)[1] for _ in range(2)]
    a, b = ([(r.objective, r.objective_stderr) for r in log] for log in logs)
    assert a == b


@pytest.mark.parametrize("case", LOGGED)
def test_log_cadence_leaves_the_bank_bytes_unchanged(case):
    # the subsample comes from its own stream, never the training one
    data, ctx, spec, cfg = _logged_instance(case)
    banks = []
    for log_every in (1, 7, 10 ** 9):
        cfg.log_every = log_every
        bank, log = train(data, ctx, spec, cfg)
        assert len(log) == {1: 21, 7: 4, 10 ** 9: 2}[log_every]
        banks.append(bank.embeddings.tobytes() + bank.context_vectors.tobytes())
    assert banks[0] == banks[1] == banks[2]


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON, Family.CATEGORICAL])
def test_small_data_and_the_categorical_family_log_the_exact_objective(family):
    # categorical at 30 x 400 cells is above the threshold and still exact
    kw = dict(vocab=30, length=400) if family is Family.CATEGORICAL else {}
    data, ctx, _, spec = family_instance(family, 53, **kw)
    cfg = TrainConfig(dim=3, estimator="full", n_iterations=4, log_every=2,
                      reg_weight=0.1, step_size=0.2)
    exact = []
    _, log = train(data, ctx, spec, cfg,
                   on_log=lambda it, bank, state: exact.append(_exact(data, ctx, bank, spec, cfg)))
    assert [r.objective for r in log] == exact
    assert [r.objective_stderr for r in log] == [0.0] * 3


# ---------------------------------------------------------------------------
# adagrad
# ---------------------------------------------------------------------------

def _step_once(g_value, step_size=0.1, eps=1e-12, repeats=1):
    bank = zero_bank(1, 1)
    state = OptimizerState.for_bank(bank)
    cfg = TrainConfig(step_size=step_size, adagrad_epsilon=eps)
    deltas = []
    for _ in range(repeats):
        before = bank.embeddings[0, 0]
        g = Gradients(np.full((1, 1), g_value), np.zeros((1, 1)))
        adagrad_step(g, state, bank, cfg)
        deltas.append(bank.embeddings[0, 0] - before)
    return deltas, state


def test_adagrad_first_step_is_signed_step_size():
    deltas, _ = _step_once(3.0, step_size=0.1)
    assert deltas[0] == pytest.approx(0.1, rel=1e-9)
    deltas, _ = _step_once(-3.0, step_size=0.1)
    assert deltas[0] == pytest.approx(-0.1, rel=1e-9)


def test_adagrad_zero_gradient_changes_nothing():
    deltas, state = _step_once(0.0)
    assert deltas[0] == 0.0
    assert state.accum_embeddings[0, 0] == 0.0


def test_adagrad_second_equal_step_shrinks_by_sqrt2():
    deltas, _ = _step_once(2.0, repeats=2)
    assert deltas[1] / deltas[0] == pytest.approx(1 / math.sqrt(2), rel=1e-9)


def test_adagrad_effective_steps_nonincreasing_and_accumulator_monotone():
    deltas, state = _step_once(1.5, repeats=20)
    mags = np.abs(deltas)
    assert (np.diff(mags) <= 1e-15).all()
    assert state.accum_embeddings[0, 0] == pytest.approx(20 * 1.5 ** 2)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["full-knn", "sparse-window"])
def test_row_major_and_column_listed_entries_train_the_same_bytes(case):
    if case == "full-knn":
        data, ctx, _, spec = family_instance(Family.GAUSSIAN, 42, n=12, t=30)
        cfg = TrainConfig(dim=3, n_iterations=30, estimator="full", reg_weight=0.1,
                          seed=4, log_every=10)
    else:
        data, ctx, _, spec = family_instance(Family.BERNOULLI, 43, vocab=30, length=200)
        cfg = TrainConfig(dim=3, n_iterations=30, estimator="sparse", negative_samples=3,
                          step_size=0.5, reg_weight=0.1, seed=4, log_every=10)
    # listed row by row and column by column: each row's and each column's
    # entries in the same order, so the same X and Xt, in two key orders
    row_major, by_columns = (
        DataMatrix(data.n_rows, data.n_cols, data.rows[order], data.cols[order],
                   data.vals[order], implicit_zero=data.implicit_zero)
        for order in (np.lexsort((data.cols, data.rows)), np.lexsort((data.rows, data.cols))))
    assert np.shares_memory(row_major._key_vals, row_major.vals)
    assert not np.shares_memory(by_columns._key_vals, by_columns.vals)
    (a, log_a), (b, log_b) = (train(m, ctx, spec, cfg) for m in (row_major, by_columns))
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    assert a.context_vectors.tobytes() == b.context_vectors.tobytes()
    assert [r.objective for r in log_a] == [r.objective for r in log_b]


def test_train_zero_iterations_returns_initialization():
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 27)
    cfg = TrainConfig(dim=3, n_iterations=0, seed=5)
    fitted, log = train(data, ctx, spec, cfg)
    init = EmbeddingBank.init_random(data.n_rows, 3, seed=5)
    np.testing.assert_array_equal(fitted.embeddings, init.embeddings)
    np.testing.assert_array_equal(fitted.context_vectors, init.context_vectors)
    assert len(log) == 1


def test_train_ascends_on_smooth_objective():
    data, ctx, _, spec = family_instance(Family.GAUSSIAN, 28)
    cfg = TrainConfig(dim=3, n_iterations=500, step_size=0.1, estimator="full",
                      reg_weight=0.1, seed=2, log_every=100)
    _, log = train(data, ctx, spec, cfg)
    assert log[-1].objective >= log[0].objective


def test_train_is_bit_deterministic():
    data, ctx, _, spec = family_instance(Family.POISSON, 29)
    cfg = TrainConfig(dim=3, n_iterations=40, estimator="sparse",
                      negative_samples=2, seed=11, log_every=20)
    a, _ = train(data, ctx, spec, cfg)
    b, _ = train(data, ctx, spec, cfg)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.context_vectors, b.context_vectors)


def test_train_aborts_on_nonfinite_with_diagnostic():
    # a pathological step size overflows the Gaussian mean to inf, whose
    # residual turns the next update into nan
    data, ctx, _, spec = family_instance(Family.GAUSSIAN, 30)
    cfg = TrainConfig(dim=2, n_iterations=5, step_size=1e200, estimator="full",
                      reg_weight=0.0, seed=1, log_every=10)
    with np.errstate(all="ignore"), pytest.raises(NumericAbortError,
                                                  match=r"iteration \d+.*\[\d+,\d+\]"):
        train(data, ctx, spec, cfg)


def test_train_positive_effective_parameters_for_log_space_models():
    data, ctx, _, spec = family_instance(Family.ADDITIVE_POISSON, 36)
    seen = []
    cfg = TrainConfig(dim=2, n_iterations=60, estimator="sparse",
                      negative_samples=2, step_size=0.2, seed=4, log_every=20)
    train(data, ctx, spec, cfg,
          on_log=lambda it, bank, state: seen.append(
              min(bank.effective_embeddings().min(),
                  bank.effective_context_vectors().min())))
    assert seen and all(v > 0.0 for v in seen)


def test_train_binary_window_model_with_negative_sampling():
    # word-style training: binary indicators over window contexts, sparse
    # estimator without the unbiasedness rescale
    from glembed.synth import gen_cluster_corpus
    from glembed.contexts import WindowSpec, build_window_context

    data, truth = gen_cluster_corpus(vocab_size=12, n_clusters=2, length=800, seed=3)
    ctx = build_window_context(data.n_cols, WindowSpec(2), data)
    spec = FamilySpec(Family.BERNOULLI)
    cfg = TrainConfig(dim=4, step_size=0.5, estimator="sparse", n_iterations=200,
                      negative_samples=5, zero_estimator="negative_sampling",
                      reg_weight=0.1, seed=0, log_every=100)
    bank, log = train(data, ctx, spec, cfg)
    emb = bank.effective_embeddings()
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = unit @ unit.T
    same = truth.cluster_of[:, None] == truth.cluster_of[None, :]
    off = ~np.eye(12, dtype=bool)
    assert cos[same & off].mean() > cos[~same & off].mean() + 0.3


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(step_size=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(zero_estimator="bogus").validate()
    with pytest.raises(ConfigError):
        TrainConfig(estimator="minibatch", minibatch_size=None).validate()
    with pytest.raises(ConfigError):
        TrainConfig(downweight=0.0).validate()
    with pytest.raises(ConfigError, match="reg_weight"):
        TrainConfig(reg_weight=-1.0).validate()


@pytest.mark.parametrize("name", ["step_size", "adagrad_epsilon", "reg_weight", "downweight",
                                  "init_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_values(name, value):
    # a nan step size or reg weight used to pass and abort training at iteration 1
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        TrainConfig(**{name: value}).validate()


@pytest.mark.parametrize("log_every", [0, -3])
def test_log_every_below_one_is_config_error(log_every):
    # 0 used to divide by zero at iteration 1 and a negative value logged on
    # an odd cadence
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 0)
    with pytest.raises(ConfigError, match="log_every"):
        train(data, ctx, spec, TrainConfig(dim=bank.dim, n_iterations=3, log_every=log_every))


# ---------------------------------------------------------------------------
# one-step-ahead zero-cell draw
# ---------------------------------------------------------------------------

def _sparse_instance(case):
    """(data, ctx, spec) of a sparse archetype; the window and the Poisson
    basket instances are above the exact-logging threshold."""
    if case == "bernoulli-window":
        data, ctx, _ = text_instance(60, vocab=30, length=400)
        return data, ctx, FamilySpec(Family.BERNOULLI)
    if case == "poisson-basket":
        data, ctx, _ = count_instance(61, n=40, t=250, density=0.1)
        return data, ctx, FamilySpec(Family.POISSON)
    data, ctx, _ = count_instance(62, n=20, t=60, density=0.3, log_space=True)
    return data, ctx, FamilySpec(Family.ADDITIVE_POISSON, Link.LOG)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("zero_estimator", ZERO_ESTIMATORS)
@pytest.mark.parametrize("case", ["bernoulli-window", "poisson-basket",
                                  "additive_poisson-basket"])
def test_draws_ahead_give_the_serial_bank_and_log(case, zero_estimator, tied):
    data, ctx, spec = _sparse_instance(case)
    cfg = TrainConfig(dim=3, estimator="sparse", negative_samples=3,
                      zero_estimator=zero_estimator, downweight=0.3, tied=tied,
                      n_iterations=8, log_every=3, reg_weight=0.1, step_size=0.2, seed=9)
    got, got_log = train(data, ctx, spec, cfg)
    want, want_log = serial_sparse_train(data, ctx, spec, cfg)
    assert got.tied == want.tied == tied
    for table, ref in ((got.embeddings, want.embeddings),
                       (got.context_vectors, want.context_vectors)):
        assert table.tobytes() == ref.tobytes()
    assert [(r.iteration, r.objective, r.objective_stderr, r.eta_clamped, r.rate_floored)
            for r in got_log] == want_log
    assert (got_log[-1].objective_stderr > 0.0) == (data.n_terms > 2 * LOG_TERMS)


def _hygiene_fit(**kw):
    data, ctx, _ = text_instance(63, vocab=12, length=150)
    cfg = TrainConfig(dim=3, estimator="sparse", negative_samples=3, n_iterations=6,
                      log_every=2, reg_weight=0.1, step_size=0.2, seed=3)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return train(data, ctx, FamilySpec(Family.BERNOULLI), cfg)


def _nth_call(fn, n, then):
    """``fn`` that calls ``then(*args)`` after it on its ``n``-th call."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if next(calls) == n:
            then(*args)
        return out
    return wrapper


def test_sparse_draws_run_on_one_worker_that_ends_with_the_call(monkeypatch):
    drawn_on = []

    def noted(*args):
        drawn_on.append(threading.current_thread())
        return _draw_zero_cells(*args)
    monkeypatch.setattr(TRAIN, "_draw_zero_cells", noted)
    before = set(threading.enumerate())
    _, log = _hygiene_fit()
    assert set(threading.enumerate()) == before
    assert len(log) == 4 and len(drawn_on) == 6
    assert len(set(drawn_on)) == 1 and drawn_on[0] is not threading.current_thread()
    assert not drawn_on[0].is_alive()


def test_no_worker_outlives_a_numeric_abort(monkeypatch):
    def poison(grads, state, bank, config):
        bank.embeddings[0, 0] = np.nan
    monkeypatch.setattr(TRAIN, "adagrad_step", _nth_call(adagrad_step, 3, poison))
    before = set(threading.enumerate())
    with pytest.raises(NumericAbortError, match="iteration 3"):
        _hygiene_fit()
    assert set(threading.enumerate()) == before


def test_a_failing_draw_surfaces_unchanged_and_ends_the_worker(monkeypatch):
    failure = RuntimeError("zero-cell draw failed")

    def fail(*args):
        raise failure
    monkeypatch.setattr(TRAIN, "_draw_zero_cells", _nth_call(_draw_zero_cells, 3, fail))
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError) as info:
        _hygiene_fit()
    assert info.value is failure
    assert set(threading.enumerate()) == before


def test_repeated_fits_leave_no_worker_behind():
    # one fit per step size, as the step-size grid runs them
    before = set(threading.enumerate())
    banks = [_hygiene_fit(step_size=step)[0] for step in (0.01, 0.05, 0.1, 0.5)]
    assert set(threading.enumerate()) == before
    assert len({b.embeddings.tobytes() for b in banks}) == 4


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread pool was made")


def test_full_and_minibatch_fits_start_no_thread(monkeypatch):
    monkeypatch.setattr(TRAIN, "ThreadPoolExecutor", _no_thread)
    data, ctx, _, spec = family_instance(Family.POISSON, 64)
    for estimator in ("full", "minibatch"):
        cfg = TrainConfig(dim=3, estimator=estimator, minibatch_size=10, n_iterations=3)
        _, log = train(data, ctx, spec, cfg)
        assert len(log) == 2


@pytest.mark.parametrize("family, fault", [(Family.GAUSSIAN, "requires implicit-zero data"),
                                           (Family.CATEGORICAL, "does not apply")])
@pytest.mark.parametrize("n_iterations", [0, 3])
def test_sparse_on_data_it_cannot_fit_fails_before_any_work(family, fault, n_iterations,
                                                            monkeypatch):
    # it used to pass with no iterations, and otherwise fail at iteration 1
    # after the initial objective
    def no_objective(*args, **kwargs):
        raise AssertionError("objective logged")
    monkeypatch.setattr(TRAIN, "ThreadPoolExecutor", _no_thread)
    monkeypatch.setattr(TRAIN, "estimate_objective", no_objective)
    data, ctx, _, spec = family_instance(family, 65)
    cfg = TrainConfig(dim=3, estimator="sparse", n_iterations=n_iterations)
    with pytest.raises(ConfigError, match=f"sparse estimator {fault}"):
        train(data, ctx, spec, cfg)
