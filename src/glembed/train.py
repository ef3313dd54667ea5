"""Objective, stochastic gradient estimators, and the Adagrad training loop.

The objective is the sum of conditional log-likelihoods over all data terms
plus the log-prior regularizers.  Three gradient estimators are provided:

* full: every data term, exact;
* minibatch: a uniform subsample of terms, rescaled by I/|S| so the
  estimator is unbiased;
* sparse: the nonzero terms computed exactly plus a per-nonzero-term draw
  of zero cells.  The sampled zero sum is rescaled by (#zeros / #sampled)
  for the unbiased variant, left unscaled for negative sampling (a biased,
  zero-downweighting estimator), or rescaled and then multiplied by gamma
  for explicit downweighting.

The regularizer gradient is always added once, never rescaled with the
data subsample.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank, TermBatch
from .errors import ConfigError, NumericAbortError
from .families import (
    ClampCounters,
    Family,
    FamilySpec,
    Gradients,
    active_terms,
    block_gradient,
    block_log_likelihood,
    categorical_term_log_likelihoods,
    categorical_weighted_gradient,
    log_prior,
    term_log_likelihoods,
    validate_bank,
    validate_data,
    weighted_term_gradient,
)

ZERO_ESTIMATORS = ("unbiased", "negative_sampling", "downweight")
ESTIMATORS = ("full", "minibatch", "sparse")
REGULARIZERS = ("l2", "lognormal", "none")


@dataclass
class TrainConfig:
    """Optimizer, regularizer, subsampling, and schedule settings."""

    dim: int = 10
    step_size: float = 0.1
    adagrad_epsilon: float = 1e-6
    minibatch_size: int = 0
    n_iterations: int = 500
    negative_samples: int = 10
    zero_estimator: str = "unbiased"
    downweight: float = 0.1
    reg_weight: float = 0.0
    regularizer: str = "l2"
    estimator: str = "full"
    tied: bool = False
    seed: int = 0
    log_every: int = 50
    init_scale: float = 0.1

    def validate(self) -> None:
        for name in ("step_size", "adagrad_epsilon", "reg_weight", "downweight", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step_size <= 0:
            raise ConfigError("step_size must be positive")
        if self.adagrad_epsilon <= 0:
            raise ConfigError("adagrad_epsilon must be positive")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}")
        if self.zero_estimator not in ZERO_ESTIMATORS:
            raise ConfigError(f"zero_estimator must be one of {ZERO_ESTIMATORS}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(f"regularizer must be one of {REGULARIZERS}")
        if self.reg_weight < 0:
            raise ConfigError(f"reg_weight must be >= 0, got {self.reg_weight}")
        if not 0.0 < self.downweight <= 1.0:
            raise ConfigError("downweight factor must be in (0, 1]")
        if self.estimator == "sparse" and self.negative_samples < 1:
            raise ConfigError("sparse estimator needs negative_samples >= 1")
        if self.estimator == "minibatch" and (self.minibatch_size or 0) < 1:
            raise ConfigError("minibatch estimator needs a positive minibatch_size")
        if self.n_iterations < 0 or self.dim < 1 or self.log_every < 1:
            raise ConfigError("n_iterations must be >= 0, dim >= 1 and log_every >= 1")


@dataclass
class OptimizerState:
    """Adagrad accumulators (nonnegative, nondecreasing)."""

    accum_embeddings: np.ndarray
    accum_context: np.ndarray

    @classmethod
    def for_bank(cls, bank: EmbeddingBank) -> "OptimizerState":
        acc = np.zeros_like(bank.embeddings)
        return cls(acc, acc if bank.tied else np.zeros_like(bank.context_vectors))


@dataclass
class LogRecord:
    iteration: int
    objective: float
    eta_clamped: int
    rate_floored: int
    elapsed_sec: float


def _zero_weight(data: DataMatrix, config: TrainConfig) -> float:
    if data.implicit_zero and config.zero_estimator == "downweight":
        return config.downweight
    return 1.0


def _terms_of(data: DataMatrix, spec: FamilySpec, term_ids: np.ndarray) -> TermBatch:
    """Terms by flat id: a column block (categorical), a row-major cell
    (implicit-zero data) or a stored entry."""
    ones = np.ones(len(term_ids), dtype=bool)
    if spec.family is Family.CATEGORICAL:
        return TermBatch(active_terms(data)[term_ids], term_ids, ones, ones)
    if data.implicit_zero:
        rows = term_ids // data.n_cols
        cols = term_ids % data.n_cols
        return TermBatch(rows, cols, *data.lookup(rows, cols))
    return TermBatch(data.rows[term_ids], data.cols[term_ids], data.vals[term_ids], ones)


def _every_cell_a_term(data: DataMatrix, spec: FamilySpec) -> bool:
    """Whether every cell of ``data`` is a term (implicit-zero data, or
    explicit data with no missing cell), so that the exact objective and
    gradient score it by column blocks."""
    return spec.family is not Family.CATEGORICAL and data.n_terms == data.n_rows * data.n_cols


def _all_terms(data: DataMatrix, spec: FamilySpec) -> TermBatch:
    """Every data term when not every cell is one: the column blocks of
    categorical data, or the stored entries of explicit data."""
    if spec.family is Family.CATEGORICAL:
        return _terms_of(data, spec, np.arange(data.n_cols, dtype=np.int64))
    return TermBatch(data.rows, data.cols, data.vals, np.ones(data.nnz, dtype=bool))


def _drawn_terms(data, spec, config: TrainConfig, rng, draw=None) -> TermBatch:
    """``minibatch_size`` distinct terms drawn uniformly (or the term ids in
    ``draw``), each weighted by #terms / #drawn."""
    total = data.n_cols if spec.family is Family.CATEGORICAL else data.n_terms
    if draw is None:
        draw = rng.choice(total, size=min(config.minibatch_size, total), replace=False)
    draw = np.asarray(draw, dtype=np.int64)
    batch = _terms_of(data, spec, draw)
    batch.weights = np.full(len(draw), total / len(draw))
    return batch.downweight_zeros(_zero_weight(data, config))


def _draw_zero_cells(data: DataMatrix, n_terms: int, per_term: int, rng):
    """Per nonzero term, ``per_term`` distinct zero cells, drawn uniformly.

    Returns (rows, cols, n_sampled, n_zero), rows and cols flattened over
    terms.  Distinctness holds within a term's draw; different terms may
    repeat cells.
    """
    n_zero = data.n_rows * data.n_cols - data.nnz
    if n_zero == 0 or n_terms == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0, n_zero
    k = min(per_term, n_zero)
    if k == n_zero:
        picked = np.tile(np.arange(n_zero), n_terms)
    else:
        # redraw rows until each term's draw is duplicate-free; cheap when
        # the zero set dwarfs the per-term sample
        idx = rng.integers(0, n_zero, size=(n_terms, k))
        for _ in range(200):
            srt = np.sort(idx, axis=1)
            bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            if not bad.any():
                break
            idx[bad] = rng.integers(0, n_zero, size=(int(bad.sum()), k))
        else:
            for row in range(n_terms):
                idx[row] = rng.choice(n_zero, size=k, replace=False)
        picked = idx.ravel()
    rows, cols = data.zero_cells(picked)
    return rows, cols, n_terms * k, n_zero


def _sampled_terms(data, config: TrainConfig, rng, zero_draw=None, unbiased=False) -> TermBatch:
    """Every nonzero term plus zero cells drawn per nonzero term.

    The zeros are weighted by #zeros/#sampled, by 1 under negative sampling
    (unless ``unbiased``), and then by the zero weight.  ``zero_draw`` may
    supply them as an (S, 2) array of (row, col).
    """
    n_zero = data.n_rows * data.n_cols - data.nnz
    if zero_draw is None:
        zr, zc, n_sampled, n_zero = _draw_zero_cells(data, data.nnz, config.negative_samples, rng)
    else:
        zr, zc = np.asarray(zero_draw, dtype=np.int64).T
        n_sampled = len(zr)
    unbiased = unbiased or config.zero_estimator != "negative_sampling"
    w = n_zero / max(n_sampled, 1) if unbiased else 1.0
    batch = TermBatch(np.concatenate([data.rows, zr]), np.concatenate([data.cols, zc]),
                      np.concatenate([data.vals, np.zeros(n_sampled)]),
                      np.arange(data.nnz + n_sampled) < data.nnz,
                      np.concatenate([np.ones(data.nnz), np.full(n_sampled, w)]))
    return batch.downweight_zeros(_zero_weight(data, config))


def _gradient(data, ctx, bank, spec, batch: TermBatch | None, config, counters) -> Gradients:
    """Gradient of the batch's weighted log-likelihood plus the log-prior;
    a batch of None stands for every cell of ``data``."""
    validate_bank(spec, bank)
    if batch is None:
        g = block_gradient(data, ctx, bank, spec, _zero_weight(data, config), counters)
    elif spec.family is Family.CATEGORICAL:
        g = categorical_weighted_gradient(data, ctx, bank, spec, batch, counters)
    else:
        g = weighted_term_gradient(data, ctx, bank, spec, batch, counters)
    _, reg = log_prior(bank, config.reg_weight, config.regularizer)
    g.embeddings += reg.embeddings
    if not bank.tied:
        g.context_vectors += reg.context_vectors
    return g


def _score(data, ctx, bank, spec, batch: TermBatch, reg_weight, regularizer, counters) -> float:
    """The batch's weighted log-likelihood plus the log-prior."""
    validate_bank(spec, bank)
    kernel = categorical_term_log_likelihoods if spec.family is Family.CATEGORICAL \
        else term_log_likelihoods
    ll, _ = kernel(data, ctx, bank, spec, batch, counters)
    if batch.weights is not None:
        ll = ll * batch.weights
    return float(ll.sum()) + log_prior(bank, reg_weight, regularizer)[0]


def objective(data, ctx, bank, spec, reg_weight, regularizer="l2",
              zero_weight=1.0, counters=None) -> float:
    """Exact objective: data log-likelihood terms plus log-prior, with the
    zero cells of implicit-zero data weighted by ``zero_weight`` (gamma)."""
    if not _every_cell_a_term(data, spec):
        return _score(data, ctx, bank, spec, _all_terms(data, spec),
                      reg_weight, regularizer, counters)
    validate_bank(spec, bank)
    return block_log_likelihood(data, ctx, bank, spec, zero_weight, counters) \
        + log_prior(bank, reg_weight, regularizer)[0]


def full_gradient(data, ctx, bank, spec, config: TrainConfig, counters=None) -> Gradients:
    """Exact gradient of the objective."""
    batch = None if _every_cell_a_term(data, spec) else _all_terms(data, spec)
    return _gradient(data, ctx, bank, spec, batch, config, counters)


def minibatch_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                       draw=None, counters=None) -> Gradients:
    """Unbiased subsampled gradient: I/|S| times a uniform term subsample,
    or the term ids in ``draw``."""
    return _gradient(data, ctx, bank, spec, _drawn_terms(data, spec, config, rng, draw),
                     config, counters)


def sparse_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                    zero_draw=None, counters=None) -> Gradients:
    """Zero/nonzero split gradient for implicit-zero data: the nonzero terms
    plus zero cells drawn per nonzero term, or the (row, col) pairs in
    ``zero_draw``, in one batch."""
    if not data.implicit_zero:
        raise ConfigError("sparse estimator requires implicit-zero data")
    if spec.family is Family.CATEGORICAL:
        raise ConfigError("sparse estimator does not apply to the categorical family")
    return _gradient(data, ctx, bank, spec, _sampled_terms(data, config, rng, zero_draw),
                     config, counters)


def adagrad_step(grads: Gradients, state: OptimizerState, bank: EmbeddingBank,
                 config: TrainConfig) -> None:
    """In-place ascent step: G += g^2; theta += step * g / (eps + sqrt(G))."""
    eps = config.adagrad_epsilon
    state.accum_embeddings += grads.embeddings ** 2
    bank.embeddings += config.step_size * grads.embeddings / (
        eps + np.sqrt(state.accum_embeddings))
    if not bank.tied:
        state.accum_context += grads.context_vectors ** 2
        bank.context_vectors += config.step_size * grads.context_vectors / (
            eps + np.sqrt(state.accum_context))


def estimate_objective(data, ctx, bank, spec, config: TrainConfig, rng,
                       counters=None) -> float:
    """Objective value for logging: exact when cheap, else the unbiased
    sparse estimate with the configured zero weighting."""
    if spec.family is Family.CATEGORICAL or not data.implicit_zero:
        return objective(data, ctx, bank, spec, config.reg_weight, config.regularizer,
                         zero_weight=_zero_weight(data, config), counters=counters)
    return _score(data, ctx, bank, spec, _sampled_terms(data, config, rng, unbiased=True),
                  config.reg_weight, config.regularizer, counters)


def _check_finite(bank: EmbeddingBank, iteration: int) -> None:
    for name, table in (("embeddings", bank.embeddings),
                        ("context_vectors", bank.context_vectors)):
        if not np.isfinite(table).all():
            n, k = np.argwhere(~np.isfinite(table))[0]
            raise NumericAbortError(
                f"iteration {iteration}: {name}[{n},{k}] became non-finite")


def train(data, ctx, spec, config: TrainConfig, bank: EmbeddingBank | None = None,
          on_log=None):
    """Fit a bank by Adagrad ascent; returns (bank, list of LogRecords).

    Deterministic given the seed.  ``on_log`` is called as
    ``on_log(iteration, bank, state)`` at every logging point.
    """
    config.validate()
    validate_data(spec, data)
    if bank is None:
        bank = EmbeddingBank.init_random(
            data.n_rows, config.dim, seed=config.seed,
            log_space=spec.needs_log_space, tied=config.tied,
            scale=config.init_scale)
    validate_bank(spec, bank)
    seqs = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(seqs[0])
    log_rng = np.random.default_rng(seqs[1])
    state = OptimizerState.for_bank(bank)
    counters = ClampCounters()
    log: list[LogRecord] = []
    t0 = time.perf_counter()

    def record(it):
        obj = estimate_objective(data, ctx, bank, spec, config, log_rng, counters)
        log.append(LogRecord(it, obj, counters.eta_clamped, counters.rate_floored,
                             time.perf_counter() - t0))
        counters.reset()
        if on_log is not None:
            on_log(it, bank, state)

    record(0)
    for it in range(1, config.n_iterations + 1):
        if config.estimator == "full":
            g = full_gradient(data, ctx, bank, spec, config, counters)
        elif config.estimator == "minibatch":
            g = minibatch_gradient(data, ctx, bank, spec, config, rng, counters=counters)
        else:
            g = sparse_gradient(data, ctx, bank, spec, config, rng, counters=counters)
        adagrad_step(g, state, bank, config)
        _check_finite(bank, it)
        if it % config.log_every == 0 or it == config.n_iterations:
            record(it)
    return bank, log


def log_to_tsv(log: list[LogRecord]) -> str:
    """Training log as a tab-delimited stream, one record per interval."""
    lines = ["iteration\tobjective\teta_clamped\trate_floored\telapsed_sec"]
    for r in log:
        lines.append(f"{r.iteration}\t{r.objective:.10g}\t{r.eta_clamped}"
                     f"\t{r.rate_floored}\t{r.elapsed_sec:.3f}")
    return "\n".join(lines) + "\n"
