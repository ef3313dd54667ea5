import math

import numpy as np
import pytest

from glembed.core import DataMatrix, EmbeddingBank, Link, TermBatch
from glembed.errors import ConfigError, DataError
from glembed.evaluate import leave_one_out_mse, normalized_predictive_ll
from glembed.families import (
    Family,
    FamilySpec,
    _log_likelihood,
    _residual,
    block_means,
    log_likelihoods,
    log_prior,
    term_log_likelihoods,
    validate_data,
    weighted_term_gradient,
)
from glembed.train import TrainConfig, full_gradient, train

from helpers import (
    ExplicitContext,
    active_terms,
    assert_grad_close,
    categorical_term_log_likelihoods,
    cells,
    conditional_means,
    dense_matrix,
    family_instance,
    fd_gradient,
    gaussian_instance,
    text_instance,
    zero_bank,
)

ALL_FAMILIES = list(Family)
SCALAR_FAMILIES = [f for f in ALL_FAMILIES if f is not Family.CATEGORICAL]


# ---------------------------------------------------------------------------
# per-cell values on arrays of linear values
# ---------------------------------------------------------------------------

def loglik(family, x, svals, sigma2=1.0):
    """Per-cell log-likelihoods of x at the given linear values."""
    svals = np.asarray(svals, dtype=np.float64)
    return _log_likelihood(FamilySpec(family, sigma2=sigma2), svals,
                           np.broadcast_to(np.asarray(x, dtype=np.float64), svals.shape), None)


def test_log_likelihood_poisson_at_unit_rate():
    assert loglik(Family.POISSON, 0.0, [0.0])[0] == pytest.approx(-1.0)


def test_log_likelihood_gaussian_at_mean():
    assert loglik(Family.GAUSSIAN, 1.7, [1.7])[0] == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_log_likelihood_bernoulli_mass():
    # the linear value is the log-odds; at mean 0.25 the log mass of x=1
    # is log(0.25)
    eta = math.log(0.25 / 0.75)
    assert loglik(Family.BERNOULLI, 1.0, [eta])[0] == pytest.approx(math.log(0.25))
    assert loglik(Family.BERNOULLI, 0.0, [eta])[0] == pytest.approx(math.log(0.75))


def test_expected_sufficient_statistic_values():
    # one cell whose context sum is 1, so its linear value is emb[0]
    data = DataMatrix(2, 1, [0, 1], [0, 0], [1.0, 1.0], implicit_zero=True)
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    for family, eta, mean in ((Family.POISSON, 0.0, 1.0), (Family.GAUSSIAN, 2.3, 2.3),
                              (Family.BERNOULLI, 0.0, 0.5)):
        bank = EmbeddingBank(np.array([[eta], [0.0]]), np.array([[0.0], [1.0]]))
        got, _ = conditional_means(data, ctx, bank, FamilySpec(family),
                                   TermBatch([0], [0], [1.0], [True]))
        assert got[0] == pytest.approx(mean)


@pytest.mark.parametrize("family", SCALAR_FAMILIES)
def test_expected_statistic_is_normalizer_derivative(family):
    # the residual the gradient uses is d loglik / d linear value, which for
    # the canonical families is x minus the derivative of the normalizer
    spec = FamilySpec(family, sigma2=0.7)
    h = 1e-6
    if family is Family.ADDITIVE_POISSON:  # the linear value is the rate
        grid, xs = np.array([0.3, 0.9, 1.7, 2.5]), (0.0, 1.0, 3.0)
    elif family is Family.BERNOULLI:
        grid, xs = np.array([-1.2, -0.3, 0.4, 1.5]), (0.0, 1.0)
    else:
        grid, xs = np.array([-1.2, -0.3, 0.4, 1.5]), (0.0, 1.0, 3.0)
    for x in xs:
        xv = np.full(len(grid), x)
        resid = _residual(spec, grid, xv, None)
        up = _log_likelihood(spec, grid + h, xv, None)
        down = _log_likelihood(spec, grid - h, xv, None)
        np.testing.assert_allclose(resid, (up - down) / (2 * h), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family,x", [
    (Family.GAUSSIAN, 0.8),
    (Family.POISSON, 2.0),
    (Family.ADDITIVE_POISSON, 2.0),
    (Family.BERNOULLI, 1.0),
    (Family.BERNOULLI, 0.0),
])
def test_log_likelihood_peaks_where_mean_matches_statistic(family, x):
    # grid scan: the log-likelihood argmax over the linear value coincides
    # with the grid point whose residual x - mean is closest to zero
    spec = FamilySpec(family, sigma2=0.9 if family is Family.GAUSSIAN else 1.0)
    grid = np.linspace(-4.0, 4.0, 801)
    xv = np.full(len(grid), x)
    resid, ll = _residual(spec, grid, xv, None), _log_likelihood(spec, grid, xv, None)
    assert abs(int(ll.argmax()) - int(np.abs(resid).argmin())) <= 1


def test_poisson_and_additive_poisson_likelihoods_agree_when_rates_match():
    # the Poisson linear value is the log-rate, the additive Poisson's the
    # rate itself, so at matching rates the masses must coincide
    eta = 0.7
    for x in (0.0, 1.0, 3.0):
        assert loglik(Family.POISSON, x, [eta])[0] == pytest.approx(
            loglik(Family.ADDITIVE_POISSON, x, [math.exp(eta)])[0])


def softmax_log_likelihood(etas, active):
    """Categorical log-likelihood of ``active`` at column 0, whose one context
    member makes the linear value of every vocabulary row v equal etas[v]."""
    etas = np.asarray(etas, dtype=np.float64)
    data = DataMatrix(len(etas), 2, [active, 0], [0, 1], [1.0, 1.0], implicit_zero=True)
    ctx = ExplicitContext({(active, 0): [(0, 1)]})
    cv = np.zeros((len(etas), 1))
    cv[0] = 1.0
    bank = EmbeddingBank(etas[:, None], cv)
    spec = FamilySpec(Family.CATEGORICAL, vocab_size=len(etas))
    return categorical_term_log_likelihoods(data, ctx, bank, spec,
                                            cells(data, [active], [0]))[0][0]


def test_categorical_log_likelihood_softmax():
    assert softmax_log_likelihood([0.0, 0.0], 0) == pytest.approx(math.log(0.5))
    etas = np.array([1.0, 2.0, 3.0])
    ref = etas[1] - math.log(np.exp(etas).sum())
    assert softmax_log_likelihood(etas, 1) == pytest.approx(ref)


def test_family_spec_link_constraints():
    with pytest.raises(ConfigError):
        FamilySpec(Family.ADDITIVE_POISSON, Link.IDENTITY)  # needs a log link
    with pytest.raises(ConfigError):
        FamilySpec(Family.POISSON, Link.LOG)  # log-rate comes from the identity link
    with pytest.raises(ConfigError):
        FamilySpec(Family.GAUSSIAN, sigma2=0.0)
    with pytest.raises(ConfigError):
        FamilySpec(Family.CATEGORICAL, vocab_size=1)
    assert FamilySpec(Family.ADDITIVE_POISSON).link is Link.LOG


@pytest.mark.parametrize("kwargs, key", [
    (dict(family=Family.ADDITIVE_POISSON, link=Link.IDENTITY), "link"),
    (dict(family=Family.BERNOULLI, link="log"), "link"),
    (dict(family=Family.GAUSSIAN, link="bogus"), "link"),
    (dict(family=Family.GAUSSIAN, sigma2=0.0), "sigma2"),
    (dict(family=Family.POISSON, sigma2=math.nan), "sigma2"),
    (dict(family=Family.CATEGORICAL, vocab_size=1), "vocab_size"),
    (dict(family=Family.CATEGORICAL, vocab_size=-2), "vocab_size")])
def test_family_spec_errors_are_keyed_by_the_field(kwargs, key):
    with pytest.raises(ConfigError) as info:
        FamilySpec(**kwargs)
    assert info.value.key == key


def test_family_spec_takes_a_link_name_and_a_vocabulary_not_yet_read():
    assert FamilySpec(Family.POISSON, "mean_identity").link is Link.MEAN_IDENTITY
    assert FamilySpec(Family.ADDITIVE_POISSON, "").link is Link.LOG
    assert FamilySpec(Family.CATEGORICAL).vocab_size == 0


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON])
@pytest.mark.parametrize("sigma2", [math.nan, math.inf])
def test_family_spec_rejects_non_finite_sigma2(family, sigma2):
    with pytest.raises(ConfigError, match="sigma2 must be finite"):
        FamilySpec(family, sigma2=sigma2)


def test_log_space_families_require_log_space_banks():
    data, ctx, bank = dense_matrix(np.ones((2, 2))), None, zero_bank(2, 2)
    with pytest.raises(ConfigError):
        full_gradient(data, ctx, bank, FamilySpec(Family.NONNEG_GAUSSIAN),
                      TrainConfig(reg_weight=0.0))


# the held-out protocol of each family that has one
_HELD_OUT_SCORE = {Family.GAUSSIAN: leave_one_out_mse, Family.NONNEG_GAUSSIAN: leave_one_out_mse,
                   Family.POISSON: normalized_predictive_ll,
                   Family.ADDITIVE_POISSON: normalized_predictive_ll}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_kernel_rejects_a_bank_unlike_its_family(family):
    # a log-space bank under a family of linear parameters would be scored
    # with its exponentials, a linear bank under a log-space family with its
    # logs: every kernel refuses either, and so do a fit and a held-out score
    data, ctx, bank, spec = family_instance(family, seed=36)
    flipped = EmbeddingBank(bank.embeddings, bank.context_vectors, log_space=not bank.log_space)
    calls = [lambda b: next(log_likelihoods(data, ctx, b, spec, None)),
             lambda b: weighted_term_gradient(data, ctx, b, spec, None),
             lambda b: next(block_means(data, ctx, b, spec)),
             lambda b: train(data, ctx, spec, TrainConfig(n_iterations=1), bank=b)]
    if family in _HELD_OUT_SCORE:
        calls.append(lambda b: _HELD_OUT_SCORE[family](data, ctx, b, spec))
    for call in calls:
        call(bank)
        with pytest.raises(ConfigError, match="parameter bank"):
            call(flipped)


def test_validate_data_rejects_bad_support():
    with pytest.raises(DataError):
        validate_data(FamilySpec(Family.POISSON),
                      dense_matrix(np.array([[-1.0, 2.0]])))
    with pytest.raises(DataError):
        validate_data(FamilySpec(Family.BERNOULLI),
                      dense_matrix(np.array([[0.5, 1.0]])))


@pytest.mark.parametrize("fault, message", [
    ("rows", "rows must equal vocab_size"), ("two_terms", "exactly one active term"),
    ("no_term", "exactly one active term"), ("value", "indicator values 1")])
def test_validate_data_rejects_each_categorical_fault(fault, message):
    # words 0, 2, 1, 2 at positions 0..3 of a vocabulary of 3, and one fault
    n, rows, cols, vals = 3, [0, 2, 1, 2], [0, 1, 2, 3], [1.0] * 4
    spec = FamilySpec(Family.CATEGORICAL, vocab_size=3)
    validate_data(spec, DataMatrix(n, 4, rows, cols, vals, implicit_zero=True))
    if fault == "rows":
        n = 4
    elif fault == "two_terms":
        rows, cols, vals = rows + [0], cols + [1], vals + [1.0]
    elif fault == "no_term":
        rows, cols, vals = rows[:3], cols[:3], vals[:3]
    else:
        vals[1] = 2.0
    with pytest.raises(DataError, match=message):
        validate_data(spec, DataMatrix(n, 4, rows, cols, vals, implicit_zero=True))


def test_categorical_terms_are_implicit_zero_columns_scored_by_blocks():
    data, ctx, bank, spec = family_instance(Family.CATEGORICAL, 5)
    explicit = DataMatrix(data.n_rows, data.n_cols, data.rows, data.cols, data.vals)
    with pytest.raises(DataError, match="implicit-zero"):
        validate_data(spec, explicit)
    with pytest.raises(ConfigError, match="column block"):
        term_log_likelihoods(data, ctx, bank, spec, cells(data, data.rows, data.cols))


# ---------------------------------------------------------------------------
# full-data gradients, pointwise examples
# ---------------------------------------------------------------------------

def _pair_instance(x_n, x_m, emb_n, cv_m, implicit=False):
    """Two entities, one column: entry (0,0) has context {(1,0)}."""
    data = DataMatrix(2, 1, [0, 1], [0, 0], [x_n, x_m], implicit_zero=implicit)
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(np.array([[emb_n], [0.1]]), np.array([[0.1], [cv_m]]))
    return data, ctx, bank


def test_grad_gaussian_example_values():
    spec = FamilySpec(Family.GAUSSIAN, sigma2=1.0)
    data, ctx, bank = _pair_instance(x_n=3.0, x_m=0.5, emb_n=1.0, cv_m=2.0)
    g0 = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert g0.embeddings[0, 0] == pytest.approx(2.0)  # (3 - 1*1) * 1
    assert_grad_close(g0, fd_gradient(data, ctx, bank, spec, 0.0))
    g1 = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0))
    assert g1.embeddings[0, 0] == pytest.approx(1.0)  # 2 - lambda * emb_n
    assert_grad_close(g1, fd_gradient(data, ctx, bank, spec, 1.0))


def test_grad_gaussian_zero_at_stationary_point():
    spec = FamilySpec(Family.GAUSSIAN, sigma2=1.0)
    data, ctx, bank = _pair_instance(x_n=1.0, x_m=0.5, emb_n=1.0, cv_m=2.0)
    # x_n equals the model mean and the other entry has an empty context
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    rest = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert abs(g.embeddings[0, 0]) < 1e-12
    assert np.abs(rest.embeddings[0]).max() < 1e-12


def test_grad_nonneg_gaussian_stationary_and_regularizer():
    spec = FamilySpec(Family.NONNEG_GAUSSIAN, sigma2=1.0)
    data = DataMatrix(2, 1, [0, 1], [0, 0], [1.0, 1.0])
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(np.zeros((2, 1)), np.zeros((2, 1)), log_space=True)
    g0 = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert g0.embeddings[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert_grad_close(g0, fd_gradient(data, ctx, bank, spec, 0.0))
    # all stored parameters zero: the L2-on-effective regularizer adds
    # exactly -1 per coordinate
    g1 = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0))
    np.testing.assert_allclose(g1.embeddings - g0.embeddings, -1.0, atol=1e-12)
    np.testing.assert_allclose(g1.context_vectors - g0.context_vectors, -1.0, atol=1e-12)


def test_grad_nonneg_gaussian_is_chain_rule_image():
    rng = np.random.default_rng(9)
    stored_e = rng.normal(scale=0.3, size=(4, 2))
    stored_c = rng.normal(scale=0.3, size=(4, 2))
    data = dense_matrix(rng.normal(size=(4, 3)))
    ctx = ExplicitContext({(0, 0): [(1, 0), (2, 0)], (3, 1): [(0, 1)]})
    log_bank = EmbeddingBank(stored_e, stored_c, log_space=True)
    lin_bank = EmbeddingBank(np.exp(stored_e), np.exp(stored_c))
    cfg = TrainConfig(reg_weight=0.0)
    g_log = full_gradient(data, ctx, log_bank, FamilySpec(Family.NONNEG_GAUSSIAN), cfg)
    g_lin = full_gradient(data, ctx, lin_bank, FamilySpec(Family.GAUSSIAN), cfg)
    np.testing.assert_allclose(g_log.embeddings, g_lin.embeddings * np.exp(stored_e),
                               rtol=1e-12)
    np.testing.assert_allclose(g_log.context_vectors,
                               g_lin.context_vectors * np.exp(stored_c), rtol=1e-12)


def test_grad_poisson_example_values():
    spec = FamilySpec(Family.POISSON)
    # context sum 1 via x_m=0.5, cv_m=2; eta = 0 so the rate is 1
    data, ctx, bank = _pair_instance(1.0, 0.5, emb_n=0.0, cv_m=2.0, implicit=True)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert g.embeddings[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, 0.0))
    data2, ctx2, bank2 = _pair_instance(2.0, 0.5, emb_n=0.0, cv_m=2.0, implicit=True)
    g2 = full_gradient(data2, ctx2, bank2, spec, TrainConfig(reg_weight=0.0))
    assert g2.embeddings[0, 0] == pytest.approx(1.0)  # (2 - 1) * 1
    assert_grad_close(g2, fd_gradient(data2, ctx2, bank2, spec, 0.0))


def test_grad_poisson_zero_context_sum():
    spec = FamilySpec(Family.POISSON)
    data, ctx, bank = _pair_instance(5.0, 0.5, emb_n=0.3, cv_m=0.0, implicit=True)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert g.embeddings[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_grad_additive_poisson_examples():
    spec = FamilySpec(Family.ADDITIVE_POISSON, Link.LOG)
    # rate = effective emb (1) * context sum (2) = x -> zero residual
    data = DataMatrix(2, 1, [0, 1], [0, 0], [2.0, 1.0], implicit_zero=True)
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(np.zeros((2, 1)), np.array([[0.0], [math.log(2.0)]]),
                         log_space=True)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert g.embeddings[0, 0] == pytest.approx(0.0, abs=1e-12)
    # rate 1, x=3: pre-chain slope (3/1 - 1) * 1 = 2, chained through exp at
    # stored 0 stays 2
    data2 = DataMatrix(2, 1, [0, 1], [0, 0], [3.0, 1.0], implicit_zero=True)
    bank2 = EmbeddingBank(np.zeros((2, 1)), np.zeros((2, 1)), log_space=True)
    g2 = full_gradient(data2, ctx, bank2, spec, TrainConfig(reg_weight=0.0))
    assert g2.embeddings[0, 0] == pytest.approx(2.0)
    assert_grad_close(g2, fd_gradient(data2, ctx, bank2, spec, 0.0))
    # regularizer contribution at stored zero is -1 per coordinate
    g3 = full_gradient(data2, ctx, bank2, spec, TrainConfig(reg_weight=1.0))
    np.testing.assert_allclose(g3.embeddings - g2.embeddings, -1.0, atol=1e-12)


def test_grad_bernoulli_residual_examples():
    # mean 0.5 at eta=0: the per-term slope is +-0.5 times the context sum
    data, ctx, bank = text_instance(0, vocab=2, length=3, w=1)
    bank.embeddings[:] = 0.0
    spec = FamilySpec(Family.BERNOULLI)
    cell_rows = np.array([1])
    cell_cols = np.array([1])
    words = {int(c): int(r) for r, c in zip(data.rows, data.cols)}
    v = (bank.effective_context_vectors()[words[0]]
         + bank.effective_context_vectors()[words[2]])

    def single_term(x):
        return weighted_term_gradient(
            data, ctx, bank, spec, TermBatch(cell_rows, cell_cols, [x], [x != 0.0], np.ones(1)))

    g0 = single_term(0.0)
    np.testing.assert_allclose(g0.embeddings[1], -0.5 * v, rtol=1e-12)
    g1 = single_term(1.0)
    np.testing.assert_allclose(g1.embeddings[1], 0.5 * v, rtol=1e-12)
    np.testing.assert_allclose(g0.embeddings[1], -g1.embeddings[1], rtol=1e-12)
    # finite differences of the single-term log-likelihood agree
    h = 1e-6
    for x, g in ((0.0, g0), (1.0, g1)):
        for k in range(bank.dim):
            bank.embeddings[1, k] = h
            up = term_log_likelihoods(data, ctx, bank, spec,
                                      TermBatch(cell_rows, cell_cols, [x], [x != 0.0]))
            bank.embeddings[1, k] = -h
            dn = term_log_likelihoods(data, ctx, bank, spec,
                                      TermBatch(cell_rows, cell_cols, [x], [x != 0.0]))
            bank.embeddings[1, k] = 0.0
            assert (up[0] - dn[0]) / (2 * h) == pytest.approx(g.embeddings[1, k], abs=1e-6)


def test_grad_bernoulli_saturated_mean_has_tiny_residual():
    data, ctx, bank = text_instance(1, vocab=2, length=3, w=1)
    spec = FamilySpec(Family.BERNOULLI)
    bank.embeddings[:] = 0.0
    bank.embeddings[1, 0] = 40.0
    bank.context_vectors[:] = 0.0
    bank.context_vectors[:, 0] = 1.0
    g = weighted_term_gradient(data, ctx, bank, spec,
                               TermBatch([1], [1], [1.0], [True], np.ones(1)))
    assert np.abs(g.embeddings).max() < 1e-12  # mean ~= 1, residual vanishes


def test_grad_categorical_symmetric_softmax():
    data, ctx, bank = text_instance(2, vocab=2, length=6, w=1)
    bank.embeddings[:] = 0.5  # identical rows -> uniform softmax
    spec = FamilySpec(Family.CATEGORICAL, vocab_size=2)
    ll, _ = categorical_term_log_likelihoods(data, ctx, bank, spec,
                                             cells(data, active_terms(data), np.arange(6)))
    np.testing.assert_allclose(ll, math.log(0.5), atol=1e-12)


def test_grad_categorical_matches_fd():
    data, ctx, bank, spec = family_instance(Family.CATEGORICAL, 13)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0))
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, 1.0))


def test_grad_categorical_zero_context_vectors():
    data, ctx, bank, spec = family_instance(Family.CATEGORICAL, 14)
    bank.context_vectors[:] = 0.0
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert np.abs(g.embeddings).max() < 1e-12
    bank.embeddings[:] = bank.embeddings[0]  # equal rows: stationary point
    g2 = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert np.abs(g2.embeddings).max() < 1e-12
    assert np.abs(g2.context_vectors).max() < 1e-12


def test_bernoulli_zero_bank_is_stationary_in_embeddings():
    data, ctx, bank, spec = family_instance(Family.BERNOULLI, 15)
    bank.embeddings[:] = 0.0
    bank.context_vectors[:] = 0.0
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=0.0))
    assert np.abs(g.embeddings).max() < 1e-12
    assert np.abs(g.context_vectors).max() < 1e-12


# ---------------------------------------------------------------------------
# gradient vs finite differences across families and links
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("reg_weight", [0.0, 1.0])
def test_gradients_match_finite_differences(family, reg_weight):
    data, ctx, bank, spec = family_instance(family, seed=hash(family.value) % 1000)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=reg_weight))
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, reg_weight))


@pytest.mark.parametrize("family,link", [
    (Family.GAUSSIAN, Link.MEAN_IDENTITY),
    (Family.POISSON, Link.MEAN_IDENTITY),
    (Family.ADDITIVE_POISSON, Link.MEAN_LOG),
    (Family.CATEGORICAL, Link.MEAN_IDENTITY),
])
def test_mean_link_gradients_match_finite_differences(family, link):
    data, ctx, bank, base = family_instance(family, seed=31)
    spec = FamilySpec(family, link, sigma2=base.sigma2, vocab_size=base.vocab_size)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0))
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, 1.0))


def test_lognormal_regularizer_matches_finite_differences():
    data, ctx, bank, spec = family_instance(Family.ADDITIVE_POISSON, seed=32)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0, regularizer="lognormal"))
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, 1.0, regularizer="lognormal"))


def test_log_prior_rejects_an_unknown_regularizer():
    bank = EmbeddingBank.init_random(3, 2, seed=0)
    with pytest.raises(ConfigError, match="^unknown regularizer 'l1'$"):
        log_prior(bank, 0.5, "l1")


def test_downweighted_zero_terms_match_finite_differences():
    data, ctx, bank, spec = family_instance(Family.POISSON, seed=33)
    cfg = TrainConfig(reg_weight=1.0, zero_estimator="downweight", downweight=0.1)
    g = full_gradient(data, ctx, bank, spec, cfg)
    assert_grad_close(g, fd_gradient(data, ctx, bank, spec, 1.0, zero_weight=0.1))


def test_tied_bank_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    data, ctx, _ = gaussian_instance(35)
    emb = rng.normal(scale=0.3, size=(data.n_rows, 3))
    bank = EmbeddingBank(emb, emb)
    spec = FamilySpec(Family.GAUSSIAN)
    g = full_gradient(data, ctx, bank, spec, TrainConfig(reg_weight=1.0))
    fd_emb, _ = fd_gradient(data, ctx, bank, spec, 1.0)
    np.testing.assert_allclose(g.embeddings, fd_emb, rtol=1e-5, atol=1e-7)
