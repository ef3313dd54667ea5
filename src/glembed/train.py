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

import time
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank
from .errors import ConfigError, NumericAbortError
from .families import (
    ClampCounters,
    Family,
    FamilySpec,
    Gradients,
    categorical_term_log_likelihoods,
    categorical_weighted_gradient,
    full_data_gradient,
    regularizer_gradient,
    regularizer_penalty,
    term_log_likelihoods,
    validate_bank,
    validate_data,
    weighted_term_gradient,
    _all_cells,
)

ZERO_ESTIMATORS = ("unbiased", "negative_sampling", "downweight")
ESTIMATORS = ("full", "minibatch", "sparse")
REGULARIZERS = ("l2", "lognormal", "none")
DEFAULT_STEP_GRID = (0.01, 0.05, 0.1, 0.5)


@dataclass
class TrainConfig:
    """Optimizer, regularizer, subsampling, and schedule settings."""

    dim: int = 10
    step_size: float = 0.1
    adagrad_epsilon: float = 1e-6
    minibatch_size: int | None = None          # None = full data term sum
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
    step_size_grid: tuple[float, ...] = DEFAULT_STEP_GRID

    def validate(self) -> None:
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
        if not 0.0 < self.downweight <= 1.0:
            raise ConfigError("downweight factor must be in (0, 1]")
        if self.estimator == "sparse" and self.negative_samples < 1:
            raise ConfigError("sparse estimator needs negative_samples >= 1")
        if self.estimator == "minibatch" and (self.minibatch_size or 0) < 1:
            raise ConfigError("minibatch estimator needs a positive minibatch_size")
        if self.n_iterations < 0 or self.dim < 1:
            raise ConfigError("n_iterations must be >= 0 and dim >= 1")


@dataclass
class OptimizerState:
    """Adagrad accumulators (nonnegative, nondecreasing) plus loop state."""

    accum_embeddings: np.ndarray
    accum_context: np.ndarray
    iteration: int = 0
    rng: np.random.Generator | None = None

    @classmethod
    def for_bank(cls, bank: EmbeddingBank, rng=None) -> "OptimizerState":
        acc = np.zeros_like(bank.embeddings)
        return cls(acc, acc if bank.tied else np.zeros_like(bank.context_vectors), 0, rng)


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


def objective(data, ctx, bank, spec, reg_weight, regularizer="l2",
              zero_weight=1.0, counters=None) -> float:
    """Exact objective: data log-likelihood terms plus log-prior.

    Zero-valued cells of implicit-zero data are weighted by ``zero_weight``
    (1 for the plain objective, gamma for the downweighted variant).
    """
    validate_bank(spec, bank)
    if spec.family is Family.CATEGORICAL:
        positions = np.arange(data.n_cols, dtype=np.int64)
        ll, _ = categorical_term_log_likelihoods(data, ctx, bank, spec, positions, counters)
        total = float(ll.sum())
    else:
        rows, cols, xvals, stored = _all_cells(data)
        ll, _ = term_log_likelihoods(data, ctx, bank, spec, rows, cols, xvals,
                                     stored_mask=stored, counters=counters)
        if zero_weight != 1.0:
            ll = np.where(stored, ll, zero_weight * ll)
        total = float(ll.sum())
    return total + regularizer_penalty(bank, reg_weight, regularizer)


def full_gradient(data, ctx, bank, spec, config: TrainConfig, counters=None) -> Gradients:
    """Exact gradient of the objective; dispatches to the family forms."""
    return full_data_gradient(
        data, ctx, bank, spec, config.reg_weight,
        regularizer=config.regularizer,
        zero_weight=_zero_weight(data, config),
        counters=counters,
    )


def _term_count(data: DataMatrix, spec: FamilySpec) -> int:
    if spec.family is Family.CATEGORICAL:
        return data.n_cols
    return data.n_terms


def _cell_of_term(data: DataMatrix, term_ids: np.ndarray):
    """Map flat term ids to (row, col, value, stored) arrays."""
    if data.implicit_zero:
        rows = term_ids // data.n_cols
        cols = term_ids % data.n_cols
        return (rows, cols) + data.lookup(rows, cols)
    rows = data.rows[term_ids]
    cols = data.cols[term_ids]
    return rows, cols, data.vals[term_ids], np.ones(len(term_ids), dtype=bool)


def minibatch_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                       draw=None, counters=None) -> Gradients:
    """Unbiased subsampled gradient: I/|S| times a uniform term subsample.

    ``draw`` overrides the random subsample with explicit term ids (used by
    the enumeration tests and reproducibility diagnostics).
    """
    validate_bank(spec, bank)
    total = _term_count(data, spec)
    size = total if config.minibatch_size is None else min(config.minibatch_size, total)
    if draw is None:
        draw = rng.choice(total, size=size, replace=False)
    draw = np.asarray(draw, dtype=np.int64)
    scale = total / len(draw)
    if spec.family is Family.CATEGORICAL:
        g = categorical_weighted_gradient(
            data, ctx, bank, spec, draw, np.full(len(draw), scale), counters)
    else:
        rows, cols, xvals, stored = _cell_of_term(data, draw)
        weights = np.full(len(draw), scale)
        zw = _zero_weight(data, config)
        if zw != 1.0:
            weights = np.where(stored, weights, zw * weights)
        g = weighted_term_gradient(
            data, ctx, bank, spec, rows, cols, xvals, weights,
            stored_mask=stored, counters=counters)
    _add_regularizer(g, bank, config)
    return g


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


def sparse_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                    zero_draw=None, counters=None) -> Gradients:
    """Zero/nonzero split gradient for implicit-zero data.

    The nonzero term sum is exact.  Sampled zero terms are weighted by
    #zeros/#sampled (unbiased), 1 (negative sampling), or
    gamma * #zeros/#sampled (downweight).  ``zero_draw`` may supply the
    sampled zero cells as an (S, 2) array of (row, col) for enumeration
    tests.
    """
    validate_bank(spec, bank)
    if not data.implicit_zero:
        raise ConfigError("sparse estimator requires implicit-zero data")
    if spec.family is Family.CATEGORICAL:
        raise ConfigError("sparse estimator does not apply to the categorical family")
    g = weighted_term_gradient(
        data, ctx, bank, spec, data.rows, data.cols, data.vals,
        np.ones(data.nnz), stored_mask=np.ones(data.nnz, dtype=bool),
        counters=counters)
    n_zero = data.n_rows * data.n_cols - data.nnz
    if zero_draw is not None:
        zero_draw = np.asarray(zero_draw, dtype=np.int64)
        zr, zc = zero_draw[:, 0], zero_draw[:, 1]
        n_sampled = len(zr)
    else:
        zr, zc, n_sampled, n_zero = _draw_zero_cells(
            data, data.nnz, config.negative_samples, rng)
    if n_sampled:
        if config.zero_estimator == "unbiased":
            w = n_zero / n_sampled
        elif config.zero_estimator == "negative_sampling":
            w = 1.0
        else:
            w = config.downweight * n_zero / n_sampled
        gz = weighted_term_gradient(
            data, ctx, bank, spec, zr, zc, np.zeros(n_sampled),
            np.full(n_sampled, w), stored_mask=np.zeros(n_sampled, dtype=bool),
            counters=counters)
        g.embeddings += gz.embeddings
        if not bank.tied:
            g.context_vectors += gz.context_vectors
    _add_regularizer(g, bank, config)
    return g


def _add_regularizer(g: Gradients, bank: EmbeddingBank, config: TrainConfig) -> None:
    reg = regularizer_gradient(bank, config.reg_weight, config.regularizer)
    g.embeddings += reg.embeddings
    if not bank.tied:
        g.context_vectors += reg.context_vectors


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
    state.iteration += 1


def estimate_objective(data, ctx, bank, spec, config: TrainConfig, rng,
                       counters=None) -> float:
    """Objective value for logging: exact when cheap, else the unbiased
    sparse estimate with the configured zero weighting."""
    zw = _zero_weight(data, config)
    if spec.family is Family.CATEGORICAL or not data.implicit_zero:
        return objective(data, ctx, bank, spec, config.reg_weight,
                         config.regularizer, zero_weight=zw, counters=counters)
    ll_nz, _ = term_log_likelihoods(
        data, ctx, bank, spec, data.rows, data.cols, data.vals,
        stored_mask=np.ones(data.nnz, dtype=bool), counters=counters)
    total = float(ll_nz.sum())
    zr, zc, n_sampled, n_zero = _draw_zero_cells(
        data, data.nnz, config.negative_samples, rng)
    if n_sampled:
        ll_z, _ = term_log_likelihoods(
            data, ctx, bank, spec, zr, zc, np.zeros(n_sampled),
            stored_mask=np.zeros(n_sampled, dtype=bool), counters=counters)
        total += zw * (n_zero / n_sampled) * float(ll_z.sum())
    return total + regularizer_penalty(bank, config.reg_weight, config.regularizer)


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
    state = OptimizerState.for_bank(bank, rng)
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
