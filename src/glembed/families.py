"""Conditional families: log-likelihoods, moments, and analytic gradients.

Each observation x is scored under an exponential-family conditional whose
natural parameter comes from the context inner product (see core).  Every
kernel runs one loop, ``_pieces``, over one pass of ``ctx.block``: each
``TermBatch`` of listed cells is one piece (the pass's ``at``/``scatter_at``),
and distinct columns are one ``ColumnBlock`` per piece (``table``/``scatter``).
Each piece gives its weighted log-likelihoods (``log_likelihoods``), its means
(``block_means``) or its share of the gradient (``weighted_term_gradient``).
Each kernel takes its pass from ``_pass``, which checks the bank, reads its
effective tables and hands one ``core.Scratch`` to the pass and its column
blocks (a fresh one per call unless the caller keeps one, as a fit does for
its steps), so a piece's tables are valid until the next piece is drawn.
A categorical term is a whole column, the softmax over its vocabulary rows,
so that family is scored by columns only.

Conventions fixed here:

* Gaussian: parameterized by the mean with fixed variance sigma2; the
  gradient residual is (x - mean) / sigma2.
* Poisson: the linear value is the log-rate (rate = exp(eta)); eta is
  clamped to +-ETA_CLAMP before exponentiation, with a counter.
* Additive Poisson: the linear value (of effective, positive parameters)
  is the rate itself; the gradient residual is x/rate - 1 with the rate
  floored at RATE_FLOOR, with a counter.
* Bernoulli: the linear value is the log-odds (canonical); the mean is
  logistic(eta) and the residual x - logistic(eta).
* Categorical: the mean of a column is the softmax of its linear values
  over the vocabulary rows, and the residual the one-hot column minus it.
* Log-space banks (nonnegative Gaussian, additive Poisson) store logs of
  the effective parameters; gradients are returned in stored coordinates,
  i.e. the effective-parameter gradient times the effective parameter, and
  the L2 penalty applies to the effective parameters.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, log_softmax, softmax

from .core import DataMatrix, EmbeddingBank, Link, Scratch, TermBatch
from .errors import ConfigError, DataError

ETA_CLAMP = 30.0
RATE_FLOOR = 1e-8
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class Family(Enum):
    GAUSSIAN = "gaussian"
    NONNEG_GAUSSIAN = "nonneg_gaussian"
    POISSON = "poisson"
    ADDITIVE_POISSON = "additive_poisson"
    BERNOULLI = "bernoulli"
    CATEGORICAL = "categorical"


_LOG_SPACE_FAMILIES = (Family.NONNEG_GAUSSIAN, Family.ADDITIVE_POISSON)


@dataclass(frozen=True)
class FamilySpec:
    """Which conditional family, its link (a ``Link`` or its name; when
    unset, log for additive Poisson and identity otherwise) and fixed
    hyperparameters; a categorical ``vocab_size`` of 0 is a vocabulary not
    yet read.  A fault raises a ``ConfigError`` keyed by its field."""

    family: Family
    link: Link | str | None = None
    sigma2: float = 1.0
    vocab_size: int = 0

    def __post_init__(self):
        link = self.link or (Link.LOG if self.family is Family.ADDITIVE_POISSON else Link.IDENTITY)
        try:
            object.__setattr__(self, "link", Link(link))
        except ValueError:
            raise ConfigError(f"unknown link {link!r}", "link") from None
        if not math.isfinite(self.sigma2):
            raise ConfigError(f"sigma2 must be finite, got {self.sigma2}", "sigma2")
        if self.family in (Family.GAUSSIAN, Family.NONNEG_GAUSSIAN) and self.sigma2 <= 0:
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}", "sigma2")
        if self.family is Family.ADDITIVE_POISSON and not self.link.is_log:
            raise ConfigError("additive Poisson requires a log link (rate = linear value)", "link")
        if self.family is not Family.ADDITIVE_POISSON and self.link.is_log:
            raise ConfigError(f"{self.family.value} uses an identity-style link", "link")
        if self.family is Family.CATEGORICAL and self.vocab_size != 0 and self.vocab_size < 2:
            raise ConfigError(f"categorical family needs vocab_size >= 2, got {self.vocab_size}",
                              "vocab_size")

    @property
    def needs_log_space(self) -> bool:
        return self.family in _LOG_SPACE_FAMILIES


def validate_bank(spec: FamilySpec, bank: EmbeddingBank) -> None:
    """Raise a ConfigError unless ``bank`` stores logs just when ``spec`` needs them."""
    if bank.log_space != spec.needs_log_space:
        raise ConfigError(f"{spec.family.value} requires a {'non-' if bank.log_space else ''}"
                          "log-space parameter bank")


class ValueRule(NamedTuple):  # whether each value (of an array, or one float) may be held
    holds: Callable[[np.ndarray], np.ndarray]
    message: str


# each family's value rule: ``ingest`` checks a file's values by it, naming
# the first faulty line, and ``validate_data`` a matrix's.  A categorical
# entry is 1, and 0 passes for the zeros that the implicit-zero read drops
VALUE_RULES = {
    Family.POISSON: ValueRule(lambda v: v >= 0, "poisson data must be nonnegative"),
    Family.ADDITIVE_POISSON: ValueRule(lambda v: v >= 0,
                                       "additive_poisson data must be nonnegative"),
    Family.BERNOULLI: ValueRule(lambda v: np.isin(v, (0.0, 1.0)), "bernoulli data must be 0/1"),
    Family.CATEGORICAL: ValueRule(lambda v: np.isin(v, (0.0, 1.0)),
                                  "categorical entries must be indicator values 1"),
}


def validate_data(spec: FamilySpec, data: DataMatrix) -> None:
    """Raise a line-less DataError unless ``data`` keeps its family's value
    rule and, if categorical, has ``spec.vocab_size`` rows, one entry per
    column and implicit zeros: the rules that the transforms decide."""
    rule = VALUE_RULES.get(spec.family)
    if rule and not rule.holds(data.vals).all():
        raise DataError(rule.message)
    if spec.family is Family.CATEGORICAL:
        if data.n_rows != spec.vocab_size:
            raise DataError("categorical data rows must equal vocab_size")
        if not (data.counts(1) == 1).all():
            raise DataError("categorical data needs exactly one active term per column")
        if not data.implicit_zero:
            raise DataError("categorical data must be implicit-zero: the unstored "
                            "rows of a column are the terms not at its position")


@dataclass
class ClampCounters:
    """Telemetry for numerical guards hit during likelihood/gradient passes."""

    eta_clamped: int = 0
    rate_floored: int = 0

    def reset(self) -> None:
        self.eta_clamped = 0
        self.rate_floored = 0


@dataclass
class Gradients:
    """Gradient tables shaped like the bank; for tied banks both fields
    reference one array holding the combined gradient."""

    embeddings: np.ndarray
    context_vectors: np.ndarray


def _rescaled(spec, svals, counts, w):
    """The linear values and weights of cells with ``counts`` members: under
    a mean link, divided by the count, with weight 0 and the placeholder
    linear value 1.0 (which keeps the moment formulas finite and out of the
    clamp counters) where the context is empty.  ``w`` None means weights
    of 1; other links return it as given."""
    if spec.link.rescales_by_count:
        active = np.broadcast_to(counts > 0, svals.shape)
        svals = np.where(active, svals / np.maximum(counts, 1), 1.0)
        w = np.where(active, 1.0 if w is None else w, 0.0)
    return svals, w


def _coefficients(spec, svals, x, counts, w, counters, weight=1.0):
    """Per cell, the derivative of its log-likelihood times its weight ``w``
    and ``weight`` with respect to its linear value before the mean-link
    divisor: the coefficient of the passes' scatters, written over
    ``svals``, which the caller gives up."""
    coef = _residual(spec, svals, x, counters, out=svals)
    if w is not None:
        coef *= w
    if weight != 1.0:
        coef *= weight
    if spec.link.rescales_by_count:
        coef /= np.maximum(counts, 1)
    return coef


def _mean(spec, svals, counters, out=None):
    """Per-cell mean (expected sufficient statistic) at the given linear
    values, counting the clamped and floored cells; the categorical
    linear values are (vocabulary, columns) tables.  The means go into
    ``out`` when given (it may be ``svals``), else into a new table; the
    Gaussian families' means are ``svals`` itself, and the categorical
    family's softmax always takes a new table."""
    fam = spec.family
    if fam in (Family.GAUSSIAN, Family.NONNEG_GAUSSIAN):
        return svals
    if fam is Family.POISSON:
        if counters is not None:
            counters.eta_clamped += svals.size - np.count_nonzero(np.abs(svals) <= ETA_CLAMP)
        mean = np.clip(svals, -ETA_CLAMP, ETA_CLAMP, out=out)
        return np.exp(mean, out=mean)
    if fam is Family.ADDITIVE_POISSON:
        if counters is not None:
            counters.rate_floored += svals.size - np.count_nonzero(svals >= RATE_FLOOR)
        return np.maximum(svals, RATE_FLOOR, out=out)
    if fam is Family.BERNOULLI:
        # 1 / (1 + e^-eta), in one table
        mean = np.negative(svals, out=out)
        np.exp(mean, out=mean)
        mean += 1.0
        return np.divide(1.0, mean, out=mean)
    return softmax(svals, axis=0)


def _residual(spec, svals, x, counters, out=None):
    """Per-cell residual d loglik / d linear value, in ``out`` when given
    (it may be ``svals``), else in a new table; the categorical family's
    takes a new table either way."""
    if spec.family in (Family.GAUSSIAN, Family.NONNEG_GAUSSIAN):
        resid = np.subtract(x, svals, out=out)
        resid /= spec.sigma2
        return resid
    mean = _mean(spec, svals, counters, out)  # the residual takes its place
    if spec.family is Family.ADDITIVE_POISSON:
        np.divide(x, mean, out=mean)
        mean -= 1.0
        return mean
    return np.subtract(x, mean, out=mean)


def _log_likelihood(spec, svals, x, counters, scratch=None):
    """Per-cell log-likelihood at the given linear values, in a new table,
    or for the Bernoulli family in tables of ``scratch`` (a fresh one when
    None), valid until it is called again with that scratch.

    Log-likelihoods include base-measure constants, so they are true log
    probabilities, comparable across models.
    """
    fam = spec.family
    if fam in (Family.GAUSSIAN, Family.NONNEG_GAUSSIAN):
        return -((x - svals) ** 2) / (2.0 * spec.sigma2) \
            - 0.5 * math.log(spec.sigma2) - _HALF_LOG_2PI
    if fam is Family.BERNOULLI:
        scratch = Scratch() if scratch is None else scratch
        # log(1 + e^eta) as np.logaddexp(0, eta) computes it, in a third of its
        # time, in one table
        softplus = np.abs(svals, out=scratch.take("softplus", svals.shape))
        np.negative(softplus, out=softplus)
        np.exp(softplus, out=softplus)
        np.log1p(softplus, out=softplus)
        # the second table holds max(eta, 0), then the log-likelihoods
        ll = np.maximum(svals, 0.0, out=scratch.take("log-likelihood", svals.shape))
        softplus += ll
        np.multiply(x, svals, out=ll)
        ll -= softplus
        return ll
    if fam is Family.CATEGORICAL:
        return x * log_softmax(svals, axis=0)
    mean = _mean(spec, svals, counters)
    if fam is Family.POISSON:
        return x * np.clip(svals, -ETA_CLAMP, ETA_CLAMP) - mean - gammaln(x + 1.0)
    return x * np.log(mean) - mean - gammaln(x + 1.0)


# cells per column block of a pass over columns, bounding its (rows x block
# columns) tables
BLOCK_CELLS = 1 << 17


def _pieces(data, scored, spec, cells, zero_weight, scratch):
    """The cells ``cells`` of ``data`` in pieces scored by the pass ``scored``
    of ``ctx.block``: per piece, (piece, x, svals, w, counts, scatter), its
    values, linear values and weights as ``_rescaled`` returns them, member
    counts (None for a ``TermBatch`` under a link that does not read
    them), and the pass's scatter for it.

    A ``TermBatch``, or each of a tuple of them (a sparse step's stored
    entries and zero cells), is one piece, weighted by its sampling weights,
    through ``at``/``scatter_at``.  Distinct column ids (every column when
    None) are one ``ColumnBlock`` of at most ``BLOCK_CELLS`` cells per
    piece, taken from ``scratch``, through ``table``/``scatter``.  The
    unstored cells of either are further weighted by ``zero_weight``
    (gamma).  A categorical term is a whole column, the softmax over its
    vocabulary rows, so that family is scored by columns only, and its zero
    cells keep weight 1: they are part of their column's softmax, not terms.
    """
    if isinstance(cells, (TermBatch, tuple)):
        if spec.family is Family.CATEGORICAL:
            raise ConfigError("categorical terms are scored per column block")
        for batch in (cells,) if isinstance(cells, TermBatch) else cells:
            w = 1.0 if batch.weights is None else batch.weights
            w = batch.weights if zero_weight == 1.0 else np.where(batch.stored, w,
                                                                  zero_weight * w)
            svals, counts = scored.at(batch)
            yield batch, batch.vals, *_rescaled(spec, svals, counts, w), counts, scored.scatter_at
        return
    if spec.family is Family.CATEGORICAL:
        zero_weight = 1.0
    width = max(1, BLOCK_CELLS // max(data.n_rows, 1))
    for block in data.column_blocks(width, cells, scratch):
        svals, counts = scored.table(block)
        w = None if zero_weight == 1.0 else np.where(block.stored, 1.0, zero_weight)
        yield block, block.x, *_rescaled(spec, svals, counts, w), counts, scored.scatter


def _pass(data, ctx, bank, spec, scratch=None):
    """A kernel call's pass of ``ctx.block`` over ``data`` once ``bank`` is
    checked against ``spec``: (scored, scratch, emb, cv), with ``scratch``
    a fresh one when None and ``bank``'s effective tables that the pass
    reads.  The pass counts the members of listed cells only under a mean
    link, the one link that reads them."""
    validate_bank(spec, bank)
    scratch = Scratch() if scratch is None else scratch
    emb, cv = bank.effective_embeddings(), bank.effective_context_vectors()
    return ctx.block(data, emb, cv, scratch, spec.link.rescales_by_count), scratch, emb, cv


def log_likelihoods(data, ctx, bank, spec, cells, zero_weight=1.0, counters=None):
    """Per piece of ``cells`` (``TermBatch``es, or distinct column ids, every
    column when None), each cell's log-likelihood given its context times
    its weight, 0 where a mean link drops an empty context; a piece's
    table is valid until the next piece is drawn."""
    scored, scratch, _, _ = _pass(data, ctx, bank, spec)
    for _, x, svals, w, _, _ in _pieces(data, scored, spec, cells, zero_weight, scratch):
        ll = _log_likelihood(spec, svals, x, counters, scratch)
        if w is not None:
            ll *= w
        yield ll


def term_log_likelihoods(data, ctx, bank, spec, batch: TermBatch, counters=None,
                         zero_weight=1.0):
    """Each cell of ``batch``'s weighted log-likelihood, its one piece of
    ``log_likelihoods``."""
    return next(log_likelihoods(data, ctx, bank, spec, batch, zero_weight, counters))


def weighted_term_gradient(data, ctx, bank, spec, cells, counters=None, zero_weight=1.0,
                           weight=1.0, scratch=None) -> Gradients:
    """Gradient in stored coordinates of the sum of ``log_likelihoods`` of
    ``cells``, each term further weighted by ``weight``.

    The one gradient kernel of every estimator: the full gradient (every
    column, or the stored entries of data with missing cells), a minibatch
    (drawn cells, or the drawn columns of the categorical family) and the
    sparse zero/nonzero split (two batches: the stored entries and the zero
    cells).  Its tables come from ``scratch`` (a fresh one when None), which
    a fit keeps for all its steps.
    """
    scored, scratch, emb, cv = _pass(data, ctx, bank, spec, scratch)
    for piece, x, svals, w, counts, scatter in _pieces(data, scored, spec, cells, zero_weight,
                                                       scratch):
        scatter(piece, _coefficients(spec, svals, x, counts, w, counters, weight))
    return _stored_gradients(bank, emb, cv, *scored.gradients())


def _stored_gradients(bank, emb, cv, g_emb, g_cv) -> Gradients:
    """Effective-parameter gradients chained into stored coordinates, with
    the two tables merged for a tied bank."""
    if bank.log_space:
        g_emb *= emb
        g_cv *= cv
    if bank.tied:
        total = g_emb + g_cv
        return Gradients(total, total)
    return Gradients(g_emb, g_cv)


def block_means(data, ctx, bank, spec, cols=None):
    """The conditional mean of every cell of the distinct columns ``cols``
    (of every column when None), one ``ColumnBlock`` of columns at a time,
    in the order of ``cols``: yields (cells, means, counts), the (n_rows,
    block columns) means, 0 where a mean link drops an empty context, and
    the member counts, broadcastable to them.  The Gaussian means are the
    pass's linear values, so a block's tables are valid until the next
    block is drawn."""
    scored, scratch, _, _ = _pass(data, ctx, bank, spec)
    for cells, _, svals, w, counts, _ in _pieces(data, scored, spec, cols, 1.0, scratch):
        m = _mean(spec, svals, None)
        yield cells, (m if w is None else m * w), counts


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def log_prior(bank: EmbeddingBank, reg_weight: float, regularizer: str):
    """Log prior -(w/2)||.||^2 and its gradient in stored coordinates,
    complete per table: (value, Gradients).

    ``l2`` puts the prior on the effective parameters, ``lognormal`` on the
    stored ones (the logs, for a log-space bank).
    """
    if regularizer == "none" or reg_weight == 0.0:
        g = np.zeros_like(bank.embeddings)
        return 0.0, Gradients(g, g if bank.tied else np.zeros_like(bank.context_vectors))
    if regularizer == "l2":
        tables = [bank.effective_embeddings(), bank.effective_context_vectors()]
    elif regularizer == "lognormal":
        tables = [bank.embeddings, bank.context_vectors]
    else:
        raise ConfigError(f"unknown regularizer {regularizer!r}")
    if bank.tied:
        tables = tables[:1]
    grads = []
    for t in tables:
        g = -reg_weight * t
        if regularizer == "l2" and bank.log_space:
            g = g * t
        grads.append(g)
    value = -0.5 * reg_weight * sum(float((t ** 2).sum()) for t in tables)
    return value, Gradients(grads[0], grads[-1])
