"""Objective, stochastic gradient estimators, and the Adagrad training loop.

The objective is the sum of conditional log-likelihoods over all data terms
plus the log-prior regularizers.  The objective and every gradient
estimator pick the cells to score and hand them to one kernel of
``families`` (``log_likelihoods`` or ``weighted_term_gradient``), which
scores them in pieces through one context pass: the distinct columns of the
matrix (every column when every cell is a term, or drawn columns of the
categorical family) or one ``TermBatch`` of listed cells (the stored
entries of data with missing cells, or drawn cells).  Three gradient
estimators are provided:

* full: every data term, exact;
* minibatch: a uniform subsample of terms (of columns, for the categorical
  family), rescaled by I/|S| so the estimator is unbiased;
* sparse: the nonzero terms computed exactly plus a per-nonzero-term draw
  of zero cells.  The sampled zero sum is rescaled by (#zeros / #sampled)
  for the unbiased variant, left unscaled for negative sampling (a biased,
  zero-downweighting estimator), or rescaled and then multiplied by gamma
  for explicit downweighting.

The regularizer gradient is always added once, never rescaled with the
data subsample.

The logged objective is exact for data of at most 2 * LOG_TERMS terms and
for the categorical family.  Otherwise every log point scores one fixed
stratified subsample of terms, drawn once per run from its own seeded
stream, and logs the estimate with its standard error.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank, Scratch, TermBatch
from .errors import ConfigError, NumericAbortError
from .families import (
    ClampCounters,
    Family,
    FamilySpec,
    Gradients,
    log_likelihoods,
    log_prior,
    term_log_likelihoods,
    validate_bank,
    validate_data,
    weighted_term_gradient,
)

ZERO_ESTIMATORS = ("unbiased", "negative_sampling", "downweight")
ESTIMATORS = ("full", "minibatch", "sparse")
REGULARIZERS = ("l2", "lognormal", "none")
# terms per stratum of the logged objective's subsample
LOG_TERMS = 4096


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
        """Raise a ``ConfigError`` keyed by the field at fault, if any."""
        for name in ("step_size", "adagrad_epsilon", "reg_weight", "downweight", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}", name)
        for name in ("step_size", "adagrad_epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", name)
        for name, choices in (("estimator", ESTIMATORS), ("zero_estimator", ZERO_ESTIMATORS),
                              ("regularizer", REGULARIZERS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}", name)
        for name, least in (("reg_weight", 0), ("minibatch_size", 0), ("n_iterations", 0),
                            ("dim", 1), ("log_every", 1), ("seed", 0)):
            if (getattr(self, name) or 0) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}", name)
        if not 0.0 < self.downweight <= 1.0:
            raise ConfigError("downweight factor must be in (0, 1]", "downweight")
        if self.estimator == "sparse" and self.negative_samples < 1:
            raise ConfigError("sparse estimator needs negative_samples >= 1", "negative_samples")
        if self.estimator == "minibatch" and (self.minibatch_size or 0) < 1:
            raise ConfigError("minibatch estimator needs a positive minibatch_size",
                              "minibatch_size")


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
    """One log point; ``objective_stderr`` is the standard error of a
    subsampled objective, 0.0 when the objective is exact."""

    iteration: int
    objective: float
    objective_stderr: float
    eta_clamped: int
    rate_floored: int
    elapsed_sec: float


def _zero_weight(data: DataMatrix, config: TrainConfig) -> float:
    if data.implicit_zero and config.zero_estimator == "downweight":
        return config.downweight
    return 1.0


def _every_term(data: DataMatrix) -> TermBatch | None:
    """Every data term: None, every cell, when each cell is one, else the
    stored entries."""
    if data.every_cell_a_term:
        return None
    return TermBatch(data.rows, data.cols, data.vals, np.ones(data.nnz, dtype=bool))


def _draw(total: int, size: int, rng, draw=None) -> np.ndarray:
    """``size`` distinct ids below ``total`` drawn uniformly, or the ids in
    ``draw``."""
    if draw is None:
        draw = rng.choice(total, size=min(size, total), replace=False)
    return np.asarray(draw, dtype=np.int64)


def _drawn_terms(data, config: TrainConfig, rng, draw=None) -> TermBatch:
    """``minibatch_size`` distinct terms drawn uniformly (or the term ids in
    ``draw``), each weighted by #terms / #drawn.  A term id is a row-major
    cell of implicit-zero data, or a stored entry."""
    draw = _draw(data.n_terms, config.minibatch_size, rng, draw)
    weights = np.full(len(draw), data.n_terms / len(draw))
    if data.implicit_zero:
        rows, cols = np.divmod(draw, data.n_cols)
        batch = TermBatch(rows, cols, *data.lookup(rows, cols), weights)
    else:
        batch = TermBatch(data.rows[draw], data.cols[draw], data.vals[draw],
                          np.ones(len(draw), dtype=bool), weights)
    return batch.downweight_zeros(_zero_weight(data, config))


def _draw_zero_cells(data: DataMatrix, n_terms: int, per_term: int, rng):
    """Per nonzero term, ``per_term`` distinct zero cells, drawn uniformly.

    Returns (rows, cols, n_sampled, n_zero), rows and cols of every term's
    cells in row-major order.  Distinctness holds within a term's draw;
    different terms may repeat cells.
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
        srt = np.empty_like(idx)
        for _ in range(200):
            srt[...] = idx
            srt.sort(axis=1)
            bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            if not bad.any():
                break
            idx[bad] = rng.integers(0, n_zero, size=(int(bad.sum()), k))
        else:
            for row in range(n_terms):
                idx[row] = rng.choice(n_zero, size=k, replace=False)
        del srt, bad
        picked = idx.ravel()
    rows, cols = data.zero_cells(picked)
    return rows, cols, n_terms * k, n_zero


def _sampled_batches(pool: ThreadPoolExecutor, data: DataMatrix, config: TrainConfig, rng):
    """The ``_sampled_terms`` batch of each of the ``n_iterations`` sparse
    steps.  Each batch is built on ``pool``'s worker while the caller takes
    the step before it; the builds run one after another, so they consume
    ``rng`` in the order of a serial loop."""
    pending = pool.submit(_sampled_terms, data, config, rng)
    for it in range(1, config.n_iterations + 1):
        batch = pending.result()
        if it < config.n_iterations:
            pending = pool.submit(_sampled_terms, data, config, rng)
        yield batch


def _sampled_terms(data, config: TrainConfig, rng, zero_draw=None) -> TermBatch:
    """Every nonzero term plus zero cells drawn per nonzero term, in
    row-major cell order.

    The zeros are weighted by #zeros/#sampled (by 1 under negative
    sampling), and then by the zero weight.  ``zero_draw`` may supply them
    as an (S, 2) array of (row, col).
    """
    n_zero = data.n_rows * data.n_cols - data.nnz
    if zero_draw is None:
        zr, zc, n_sampled, n_zero = _draw_zero_cells(data, data.nnz, config.negative_samples, rng)
    else:
        zr, zc = np.asarray(zero_draw, dtype=np.int64).T
        n_sampled = len(zr)
    unbiased = config.zero_estimator != "negative_sampling"
    w = n_zero / max(n_sampled, 1) if unbiased else 1.0
    return data.with_unstored(zr, zc, w).downweight_zeros(_zero_weight(data, config))


@dataclass
class LogSample:
    """The fixed term subsample that every log point scores: ``batch``,
    weighted by N/n within each stratum, and ``strata``, the (n, N) of its
    consecutive strata (n terms drawn of N)."""

    batch: TermBatch
    strata: list[tuple[int, int]]


def _log_sample(data, spec, config: TrainConfig, rng) -> LogSample | None:
    """A stratified subsample of at most LOG_TERMS terms per stratum: the
    stored entries of explicit data, or the nonzero terms and the zero
    cells of implicit-zero data.  None when the objective is logged exactly:
    for the categorical family and for data of at most 2 * LOG_TERMS terms."""
    if spec.family is Family.CATEGORICAL or data.n_terms <= 2 * LOG_TERMS:
        return None
    if not data.implicit_zero:
        draw = rng.choice(data.nnz, LOG_TERMS, replace=False)
        return LogSample(_drawn_terms(data, config, rng, draw), [(LOG_TERMS, data.nnz)])
    n_zero = data.n_rows * data.n_cols - data.nnz
    nz = np.arange(data.nnz) if data.nnz <= LOG_TERMS \
        else rng.choice(data.nnz, LOG_TERMS, replace=False)
    zr, zc = data.zero_cells(rng.choice(n_zero, min(LOG_TERMS, n_zero), replace=False))
    m1, m0 = len(nz), len(zr)
    batch = TermBatch(np.concatenate([data.rows[nz], zr]), np.concatenate([data.cols[nz], zc]),
                      np.concatenate([data.vals[nz], np.zeros(m0)]), np.arange(m1 + m0) < m1,
                      np.concatenate([np.full(m1, data.nnz / max(m1, 1)),
                                      np.full(m0, n_zero / max(m0, 1))]))
    return LogSample(batch.downweight_zeros(_zero_weight(data, config)),
                     [(m1, data.nnz), (m0, n_zero)])


def _stratified_stderr(z: np.ndarray, strata) -> float:
    """Standard error of the sum of the weighted terms ``z`` as an estimate
    of the total: per stratum, (1 - n/N) * n * var(z) with the
    finite-population correction, which is N^2 (1 - n/N) var(y) / n of the
    unweighted terms y = z * n/N."""
    var, at = 0.0, 0
    for n, total in strata:
        if 1 < n < total:
            var += (1 - n / total) * n * float(z[at:at + n].var(ddof=1))
        at += n
    return math.sqrt(var)


def _gradient(data, ctx, bank, spec, cells, config, counters, weight=1.0,
              scratch=None) -> Gradients:
    """Gradient of the weighted log-likelihood of ``cells`` (a ``TermBatch``,
    or distinct column ids, every column when None), each term further
    weighted by ``weight``, plus the log-prior; the kernel's tables come
    from ``scratch`` (a fresh one when None)."""
    validate_bank(spec, bank)
    g = weighted_term_gradient(data, ctx, bank, spec, cells, counters,
                               _zero_weight(data, config), weight, scratch=scratch)
    _, reg = log_prior(bank, config.reg_weight, config.regularizer)
    g.embeddings += reg.embeddings
    if not bank.tied:
        g.context_vectors += reg.context_vectors
    return g


def objective(data, ctx, bank, spec, reg_weight, regularizer="l2",
              zero_weight=1.0, counters=None) -> float:
    """Exact objective: data log-likelihood terms plus log-prior, with the
    zero cells of implicit-zero data weighted by ``zero_weight`` (gamma)."""
    validate_bank(spec, bank)
    ll = sum(float(z.sum()) for z in log_likelihoods(data, ctx, bank, spec, _every_term(data),
                                                     zero_weight, counters))
    return ll + log_prior(bank, reg_weight, regularizer)[0]


def full_gradient(data, ctx, bank, spec, config: TrainConfig, counters=None,
                  scratch=None) -> Gradients:
    """Exact gradient of the objective."""
    return _gradient(data, ctx, bank, spec, _every_term(data), config, counters,
                     scratch=scratch)


def minibatch_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                       draw=None, counters=None, scratch=None) -> Gradients:
    """Unbiased subsampled gradient: I/|S| times a uniform term subsample,
    or the term ids in ``draw``.  A categorical term is a whole column."""
    if spec.family is Family.CATEGORICAL:
        cols = _draw(data.n_cols, config.minibatch_size, rng, draw)
        return _gradient(data, ctx, bank, spec, cols, config, counters, data.n_cols / len(cols),
                         scratch)
    return _gradient(data, ctx, bank, spec, _drawn_terms(data, config, rng, draw),
                     config, counters, scratch=scratch)


def sparse_fault(implicit_zero: bool, family: Family) -> str | None:
    """Why the sparse estimator cannot fit data of ``family`` with this
    ``implicit_zero`` flag, or None when it can."""
    if family is Family.CATEGORICAL:
        return "sparse estimator does not apply to the categorical family"
    if not implicit_zero:
        return "sparse estimator requires implicit-zero data"
    return None


def _check_sparse(data, spec) -> None:
    fault = sparse_fault(data.implicit_zero, spec.family)
    if fault is not None:
        raise ConfigError(fault)


def sparse_gradient(data, ctx, bank, spec, config: TrainConfig, rng,
                    zero_draw=None, counters=None, batch=None, scratch=None) -> Gradients:
    """Zero/nonzero split gradient for implicit-zero data: the nonzero terms
    plus zero cells drawn per nonzero term, or the (row, col) pairs in
    ``zero_draw``, in one batch.  ``batch`` may supply that batch as
    ``_sampled_terms`` builds it."""
    _check_sparse(data, spec)
    if batch is None:
        batch = _sampled_terms(data, config, rng, zero_draw)
    return _gradient(data, ctx, bank, spec, batch, config, counters, scratch=scratch)


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


def estimate_objective(data, ctx, bank, spec, config: TrainConfig, sample: LogSample | None,
                       counters=None) -> tuple[float, float]:
    """Objective value for logging and its standard error: exact, with
    stderr 0, when ``sample`` is None, else the stratified estimate from
    the terms of ``sample``."""
    if sample is None:
        return objective(data, ctx, bank, spec, config.reg_weight, config.regularizer,
                         zero_weight=_zero_weight(data, config), counters=counters), 0.0
    validate_bank(spec, bank)
    z = term_log_likelihoods(data, ctx, bank, spec, sample.batch, counters)
    return (float(z.sum()) + log_prior(bank, config.reg_weight, config.regularizer)[0],
            _stratified_stderr(z, sample.strata))


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

    The sparse estimator builds each step's batch (its zero-cell draw
    merged with the stored entries in row-major cell order) one step ahead,
    on one worker thread that lives for the call, while this thread takes
    the step before.  The builds consume the training stream in the order
    of a serial loop, so the bank and log are the same bytes; the cost is
    the memory of one more batch.  The full and minibatch estimators start
    no thread.  The steps' kernel tables come from one ``Scratch`` kept
    for the call, so from the second step on a step takes no fresh table
    of their size.
    """
    config.validate()
    validate_data(spec, data)
    if config.estimator == "sparse":
        _check_sparse(data, spec)
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
    sample = _log_sample(data, spec, config, log_rng)

    def record(it):
        obj, stderr = estimate_objective(data, ctx, bank, spec, config, sample, counters)
        log.append(LogRecord(it, obj, stderr, counters.eta_clamped, counters.rate_floored,
                             time.perf_counter() - t0))
        counters.reset()
        if on_log is not None:
            on_log(it, bank, state)

    record(0)
    scratch = Scratch()
    sparse = config.estimator == "sparse"
    with ThreadPoolExecutor(1) if sparse else nullcontext() as pool:
        batches = _sampled_batches(pool, data, config, rng) if sparse else None
        for it in range(1, config.n_iterations + 1):
            if config.estimator == "full":
                g = full_gradient(data, ctx, bank, spec, config, counters, scratch)
            elif config.estimator == "minibatch":
                g = minibatch_gradient(data, ctx, bank, spec, config, rng, counters=counters,
                                       scratch=scratch)
            else:
                g = sparse_gradient(data, ctx, bank, spec, config, None, counters=counters,
                                    batch=next(batches), scratch=scratch)
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
