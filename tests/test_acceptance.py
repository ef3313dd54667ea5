"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from glembed.cli import main as cli_main
from glembed.contexts import build_basket_context, build_knn_context, SpatialLayout
from glembed.core import DataMatrix, EmbeddingBank, Link, TermBatch
from glembed.dataio import ingest, load_model, parse_run_config, read_locations
from glembed.evaluate import (
    SplitSpec,
    constant_predictor_mse,
    leave_fraction_out_mse,
    leave_one_out_mse,
    make_split,
    normalized_predictive_ll,
    popularity_npll,
)
from glembed.families import Family, FamilySpec, weighted_term_gradient
from glembed.synth import gen_cluster_corpus, gen_poisson_baskets
from glembed.train import TrainConfig, full_gradient, minibatch_gradient, sparse_gradient, train

from helpers import family_instance, fd_gradient


def _report(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness against finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for family in Family:
        for run in range(20):
            seed = 1000 + 37 * run + hash(family.value) % 97
            reg_weight = float(run % 2)  # lambda alternates over {0, 1}
            data, ctx, bank, spec = family_instance(family, seed)
            g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=reg_weight))
            fd_emb, fd_cv = fd_gradient(data, ctx, bank, spec, reg_weight)
            for got, want in ((g.embeddings, fd_emb), (g.context_vectors, fd_cv)):
                rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
                worst = max(worst, float(rel.max()))
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60.0,
            f"6 families x 20 instances match finite differences "
            f"(worst rel err {worst:.2e}) in {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. estimator unbiasedness by exact enumeration
# ---------------------------------------------------------------------------

def _enumeration_fixture():
    # five data terms: one nonzero cell and four implicit zeros in one column
    data = DataMatrix(5, 1, [1], [0], [2.0], implicit_zero=True)
    ctx = build_basket_context(data)
    bank = EmbeddingBank.init_random(5, 2, seed=17, scale=0.8)
    spec = FamilySpec(Family.POISSON)
    return data, ctx, bank, spec


def test_criterion_2_estimator_unbiasedness():
    data, ctx, bank, spec = _enumeration_fixture()
    cfg = TrainConfig(reg_weight=0.6, estimator="minibatch", minibatch_size=2,
                      negative_samples=2)
    full = full_gradient(data, ctx, bank, spec, cfg)

    mb_e = np.zeros_like(bank.embeddings)
    mb_c = np.zeros_like(bank.context_vectors)
    subsets = list(itertools.combinations(range(5), 2))
    for s in subsets:
        g = minibatch_gradient(data, ctx, bank, spec, cfg, None, draw=np.array(s))
        mb_e += g.embeddings
        mb_c += g.context_vectors
    mb_gap = max(np.abs(mb_e / len(subsets) - full.embeddings).max(),
                 np.abs(mb_c / len(subsets) - full.context_vectors).max())

    zeros = [(r, 0) for r in range(5) if r != 1]
    sp_e = np.zeros_like(bank.embeddings)
    sp_c = np.zeros_like(bank.context_vectors)
    zsubsets = list(itertools.combinations(zeros, 2))
    for s in zsubsets:
        g = sparse_gradient(data, ctx, bank, spec, cfg, None, zero_draw=np.array(s))
        sp_e += g.embeddings
        sp_c += g.context_vectors
    sp_gap = max(np.abs(sp_e / len(zsubsets) - full.embeddings).max(),
                 np.abs(sp_c / len(zsubsets) - full.context_vectors).max())

    _report(2, mb_gap <= 1e-10 and sp_gap <= 1e-10,
            f"minibatch enumeration gap {mb_gap:.2e}, zero-split enumeration "
            f"gap {sp_gap:.2e}, both <= 1e-10")


# ---------------------------------------------------------------------------
# 3. negative-sampling bias identity on shared draws
# ---------------------------------------------------------------------------

def test_criterion_3_negative_sampling_bias_identity():
    data, ctx, bank, spec = _enumeration_fixture()
    kw = dict(reg_weight=0.0, estimator="sparse", negative_samples=2)
    g_ub = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="unbiased", **kw),
                           np.random.default_rng(23))
    g_ns = sparse_gradient(data, ctx, bank, spec,
                           TrainConfig(zero_estimator="negative_sampling", **kw),
                           np.random.default_rng(23))
    nz = weighted_term_gradient(data, ctx, bank, spec,
                                TermBatch(data.rows, data.cols, data.vals, [True], np.ones(1)))
    # zeros sampled 2 of 4: the NS estimate is the UB estimate with its zero
    # portion scaled by 2/4, exactly
    ok = True
    for ns, ub, base in ((g_ns.embeddings, g_ub.embeddings, nz.embeddings),
                         (g_ns.context_vectors, g_ub.context_vectors, nz.context_vectors)):
        ok = ok and np.array_equal(ns, base + 0.5 * (ub - base))
    _report(3, ok, "NS estimate equals UB with zero portion rescaled by "
                   "#sampled/#zeros, bitwise on shared draws")


# ---------------------------------------------------------------------------
# 4 + 10. planted Gaussian recovery and protocol ordering
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_gaussian(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("planted")
    prefix = str(root / "plant")
    rc = cli_main(["gen-synthetic", "--kind", "gaussian-knn", "--entities", "30",
                   "--columns", "500", "--dim", "2", "--noise-sd", "0.1",
                   "--knn-k", "5", "--seed", "42", "--out-prefix", prefix])
    assert rc == 0
    data = ingest(f"{prefix}.data.tsv")
    positions = read_locations(f"{prefix}.locations.tsv", data.row_labels)
    layout = SpatialLayout(positions, 5)
    parts = make_split(data, SplitSpec("columns", 0.9, 0.05, 0.05, seed=1))
    spec = FamilySpec(Family.GAUSSIAN, Link.IDENTITY, sigma2=1.0)
    cfg = TrainConfig(dim=2, step_size=0.1, estimator="full", n_iterations=500,
                      reg_weight=0.0, seed=0, log_every=100)
    bank, log = train(parts.train, build_knn_context(layout, parts.train), spec, cfg)
    return dict(parts=parts, layout=layout, spec=spec, bank=bank,
                elapsed=time.perf_counter() - t0, noise_var=0.1 ** 2)


def test_criterion_4_planted_gaussian_recovery(planted_gaussian):
    p = planted_gaussian
    ctx_test = build_knn_context(p["layout"], p["parts"].test)
    rep = leave_one_out_mse(p["parts"].test, ctx_test, p["bank"], p["spec"])
    baseline = constant_predictor_mse(p["parts"].test)
    ok = (rep.estimate <= 1.2 * p["noise_var"]
          and rep.estimate <= 0.5 * baseline.estimate
          and p["elapsed"] < 300.0)
    _report(4, ok,
            f"leave-one-out MSE {rep.estimate:.5f} <= 1.2 x noise var "
            f"{p['noise_var']} and {rep.estimate / baseline.estimate:.1%} of the "
            f"zero-predictor baseline {baseline.estimate:.4f}; generated and "
            f"trained in {p['elapsed']:.0f}s < 300s")


def test_criterion_10_leave_25_is_harder(planted_gaussian):
    p = planted_gaussian
    ctx_test = build_knn_context(p["layout"], p["parts"].test)
    loo = leave_one_out_mse(p["parts"].test, ctx_test, p["bank"], p["spec"]).estimate
    pooled = [leave_fraction_out_mse(p["parts"].test, ctx_test, p["bank"], p["spec"],
                                     folds=4, seed=s).estimate for s in range(20)]
    med = float(np.median(pooled))
    _report(10, med >= loo,
            f"leave-25%-out median MSE {med:.5f} >= leave-one-out MSE {loo:.5f} "
            f"over 20 fold seeds")


# ---------------------------------------------------------------------------
# 5. planted Poisson baskets beat the popularity baseline
# ---------------------------------------------------------------------------

def test_criterion_5_planted_poisson_ordering():
    t0 = time.perf_counter()
    data, _ = gen_poisson_baskets(n_items=50, n_baskets=2000, strength=1.2,
                                  size_mean=4.0, noise=0.15, seed=5)
    parts = make_split(data, SplitSpec("columns", 0.9, 0.05, 0.05, seed=2))
    spec = FamilySpec(Family.POISSON, Link.MEAN_IDENTITY)
    cfg = TrainConfig(dim=8, step_size=0.5, estimator="sparse", n_iterations=500,
                      negative_samples=10, zero_estimator="unbiased",
                      reg_weight=0.1, regularizer="l2", seed=0, log_every=250)
    bank, _ = train(parts.train, build_basket_context(parts.train), spec, cfg)
    fitted = normalized_predictive_ll(parts.test, build_basket_context(parts.test),
                                      bank, spec)
    baseline = popularity_npll(parts.test, parts.train)
    elapsed = time.perf_counter() - t0
    margin = fitted.estimate - baseline.estimate
    _report(5, margin >= 0.1 and elapsed < 300.0,
            f"fitted npll {fitted.estimate:.4f} beats popularity "
            f"{baseline.estimate:.4f} by {margin:.3f} >= 0.1 nats on held-out "
            f"baskets in {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 6. downweighting helps on zero-inflated baskets
# ---------------------------------------------------------------------------

def _npll_for(seed, zero_estimator):
    # baskets far smaller than the planted co-purchase groups: the excess
    # zeros understate the affinity structure the test recovers
    data, _ = gen_poisson_baskets(n_items=80, n_baskets=2000, strength=1.5,
                                  size_mean=2.3, noise=0.15, n_clusters=4,
                                  dim=8, seed=seed)
    parts = make_split(data, SplitSpec("columns", 0.9, 0.05, 0.05, seed=seed))
    spec = FamilySpec(Family.POISSON, Link.MEAN_IDENTITY)
    cfg = TrainConfig(dim=8, step_size=0.5, estimator="sparse", n_iterations=300,
                      negative_samples=10, zero_estimator=zero_estimator,
                      downweight=0.1, reg_weight=0.1, seed=seed, log_every=10 ** 9)
    bank, _ = train(parts.train, build_basket_context(parts.train), spec, cfg)
    return normalized_predictive_ll(parts.test, build_basket_context(parts.test),
                                    bank, spec).estimate


def test_criterion_6_downweighting_analog():
    plain = [_npll_for(seed, "unbiased") for seed in range(5)]
    down = [_npll_for(seed, "downweight") for seed in range(5)]
    med_plain, med_down = float(np.median(plain)), float(np.median(down))
    _report(6, med_down >= med_plain,
            f"downweighted Poisson model median npll {med_down:.4f} >= plain "
            f"{med_plain:.4f} over 5 seeds")


# ---------------------------------------------------------------------------
# 7. positivity of log-space models during training
# ---------------------------------------------------------------------------

def test_criterion_7_positivity(planted_gaussian):
    failures = []

    def check(it, bank, state):
        emb = bank.effective_embeddings()
        cv = bank.effective_context_vectors()
        if not (np.isfinite(emb).all() and emb.min() > 0.0
                and np.isfinite(cv).all() and cv.min() > 0.0):
            failures.append(it)

    p = planted_gaussian
    ctx = build_knn_context(p["layout"], p["parts"].train)
    nonneg_spec = FamilySpec(Family.NONNEG_GAUSSIAN, Link.IDENTITY, sigma2=1.0)
    cfg = TrainConfig(dim=2, step_size=0.1, estimator="minibatch", minibatch_size=100,
                      n_iterations=150, reg_weight=0.1, seed=0, log_every=10)
    train(p["parts"].train, ctx, nonneg_spec, cfg, on_log=check)
    n_logs = 1 + 150 // 10

    basket, _ = gen_poisson_baskets(n_items=50, n_baskets=2000, strength=1.2,
                                    size_mean=4.0, noise=0.15, seed=5)
    additive_spec = FamilySpec(Family.ADDITIVE_POISSON, Link.MEAN_LOG)
    cfg2 = TrainConfig(dim=8, step_size=0.1, estimator="sparse", n_iterations=150,
                       negative_samples=10, reg_weight=0.1, seed=0, log_every=10)
    train(basket, build_basket_context(basket), additive_spec, cfg2, on_log=check)
    n_logs += 1 + 150 // 10

    _report(7, not failures,
            f"effective parameters stayed strictly positive at all {n_logs} "
            f"logged iterations of the nonneg-Gaussian and additive-Poisson runs")


# ---------------------------------------------------------------------------
# 8. planted word clusters separate under the categorical model
# ---------------------------------------------------------------------------

def test_criterion_8_cbow_cluster_semantics():
    data, truth = gen_cluster_corpus(vocab_size=20, n_clusters=2, length=2000, seed=11)
    from glembed.contexts import WindowSpec, build_window_context
    ctx = build_window_context(data.n_cols, WindowSpec(2), data)
    spec = FamilySpec(Family.CATEGORICAL, Link.IDENTITY, vocab_size=20)
    cfg = TrainConfig(dim=5, step_size=0.5, estimator="full", n_iterations=500,
                      reg_weight=0.0, regularizer="none", seed=0, log_every=250)
    bank, _ = train(data, ctx, spec, cfg)
    emb = bank.effective_embeddings()
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = unit @ unit.T
    same = truth.cluster_of[:, None] == truth.cluster_of[None, :]
    off = ~np.eye(20, dtype=bool)
    within = float(cos[same & off].mean())
    across = float(cos[~same & off].mean())
    _report(8, within - across >= 0.3,
            f"mean within-cluster cosine {within:.3f} exceeds across-cluster "
            f"{across:.3f} by {within - across:.2f} >= 0.3")


# ---------------------------------------------------------------------------
# 9. determinism and bit-exact round trip
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_round_trip(tmp_path):
    from glembed.cli import run_train
    from glembed.dataio import store_model

    prefix = str(tmp_path / "det")
    cli_main(["gen-synthetic", "--kind", "gaussian-knn", "--entities", "10",
              "--columns", "60", "--dim", "2", "--noise-sd", "0.1",
              "--knn-k", "3", "--seed", "9", "--out-prefix", prefix])
    cfg = parse_run_config("family = gaussian\nk = 2\ncontext = knn\nknn_k = 3\n"
                           "lambda = 0\niterations = 40\nestimator = full\n"
                           "step_size_grid = 0.1\nseed = 13\n")
    m1, m2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    for out in (m1, m2):
        run_train(cfg, f"{prefix}.data.tsv", f"{prefix}.locations.tsv", out, None)
    identical = Path(m1).read_bytes() == Path(m2).read_bytes()

    bank, meta, labels = load_model(m1)
    m3 = str(tmp_path / "c.model")
    store_model(m3, bank, meta, labels)
    round_trip = Path(m1).read_bytes() == Path(m3).read_bytes()
    _report(9, identical and round_trip,
            "identical config+seed give byte-identical model files and "
            "store/load/store is bit-exact")
