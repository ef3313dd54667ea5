"""Held-out evaluation: splits, the held-out protocols, and the baselines
that anchor the test suite.

Two split flavors: whole-column splits (time frames, shopping trips) and
per-entry holdout of nonzero ratings.  Both are deterministic per seed and
partition the input.  One table, ``SCORERS``, maps each protocol to its
scorer and to whether a higher estimate is better, and ``PROTOCOLS`` lists
the protocols that score each family, the first validating a grid step:
squared error (LOO, leave-fraction-out) for the Gaussian families, the
normalized predictive log-likelihood (NPLL) for the Poisson ones and the
mean held-out log-likelihood per term for the Bernoulli and categorical
ones.  LOO, leave-fraction-out and NPLL read each held-out entry's mean
from ``families.block_means`` over the columns that hold held-out
entries, and the held-out log-likelihood reads ``log_likelihoods`` over
every term, a column block at a time, in O(rows x block columns +
entries) memory.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank, check_seed, scatter_rows, seeded_rng
from .errors import ConfigError
from .families import Family, FamilySpec, block_means, log_likelihoods, validate_data

MIN_BASKET_ITEMS = 2  # held-out baskets need at least two distinct items


@dataclass(frozen=True)
class SplitSpec:
    """How to carve train/validation/test out of one matrix; a fault raises a
    ``ConfigError`` keyed by its field, or by the fractions of a sum over 1.
    The train part is the remainder: ``train_frac`` enters only that sum (of
    a ``columns`` split) and ``make_split``'s empty-part check."""

    variant: str = "columns"        # "columns" | "ratings"
    train_frac: float = 0.9
    valid_frac: float = 0.05
    test_frac: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("columns", "ratings"):
            raise ConfigError(f"unknown split variant {self.variant!r}", "variant")
        fracs = ("train_frac", "valid_frac", "test_frac")
        for name in fracs:
            f = getattr(self, name)
            if not (math.isfinite(f) and f >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {f}", name)
        held = fracs if self.variant == "columns" else fracs[1:]  # ratings: holdout only
        if sum(getattr(self, name) for name in held) > 1 + 1e-9:
            raise ConfigError(f"{self.variant} split fractions must sum to <= 1", held)
        check_seed(self.seed)


@dataclass
class SplitResult:
    train: DataMatrix
    valid: DataMatrix
    test: DataMatrix
    dropped_test_columns: int = 0


@dataclass
class EvalReport:
    """Point estimate with its standard error across test entries.

    stderr is population std / sqrt(n), so duplicating the test set scales
    it by exactly 1/sqrt(2).
    """

    metric: str
    estimate: float
    stderr: float
    n_entries: int
    excluded: int = 0

    @staticmethod
    def from_scores(metric: str, scores: np.ndarray, excluded: int = 0) -> "EvalReport":
        scores = np.asarray(scores, dtype=np.float64)
        n = len(scores)
        if n == 0:
            raise ConfigError(f"no entries left to score for {metric}")
        est = float(scores.mean())
        se = float(scores.std() / math.sqrt(n))
        return EvalReport(metric, est, se, n, excluded)

    def to_tsv(self) -> str:
        return (
            "metric\testimate\tstderr\tn\texcluded_count\n"
            f"{self.metric}\t{self.estimate:.6g}\t{self.stderr:.6g}"
            f"\t{self.n_entries}\t{self.excluded}\n"
        )


def make_split(data: DataMatrix, spec: SplitSpec) -> SplitResult:
    """Deterministic train/validation/test partition of the columns (the
    ``columns`` variant) or of the stored entries (``ratings``).

    One permutation of the n ids (columns or entry positions) is cut at
    floor(n x test fraction) and then floor(n x validation fraction) ids:
    test, validation, and the remainder to train, each part in increasing
    id order; ``train_frac`` does not size the train part.  Held-out
    basket columns of implicit-zero data with fewer than two distinct items
    are dropped from the test part (and counted).  Entries held out of a
    ratings split become implicit zeros of the training matrix for
    implicit-zero data and missing cells for explicit data.  A part of a
    positive fraction that comes out empty is a ``ConfigError``.
    """
    rng = np.random.default_rng(spec.seed)
    columns = spec.variant == "columns"
    n = data.n_cols if columns else data.nnz
    n_test, n_valid = int(n * spec.test_frac), int(n * spec.valid_frac)
    test, valid, train = map(np.sort, np.split(rng.permutation(n), [n_test, n_test + n_valid]))
    dropped = 0
    if columns and data.implicit_zero:
        kept = test[data.counts(1)[test] >= MIN_BASKET_ITEMS]
        dropped, test = len(test) - len(kept), kept
    take = data.select_columns if columns else data.select_entries
    result = SplitResult(take(train), take(valid), take(test), dropped)
    for name, frac, part in (
        ("train", spec.train_frac, result.train),
        ("validation", spec.valid_frac, result.valid),
        ("test", spec.test_frac, result.test),
    ):
        if frac > 0 and part.nnz == 0:
            raise ConfigError(f"{name} split came out empty; adjust fractions")
    return result


# a held-out protocol: its scorer, by the name of its function in this module,
# and whether a higher estimate is better
Protocol = namedtuple("Protocol", "scorer higher_is_better")
# each protocol by name; only l25-mse takes folds and a fold seed
SCORERS = {"loo-mse": Protocol("leave_one_out_mse", False),
           "l25-mse": Protocol("leave_fraction_out_mse", False),
           "npll": Protocol("normalized_predictive_ll", True),
           "heldout-ll": Protocol("heldout_ll", True)}
# per family, the protocols that score its models; the first validates a grid step
PROTOCOLS = {Family.GAUSSIAN: ("loo-mse", "l25-mse"),
             Family.NONNEG_GAUSSIAN: ("loo-mse", "l25-mse"),
             Family.POISSON: ("npll",), Family.ADDITIVE_POISSON: ("npll",),
             Family.BERNOULLI: ("heldout-ll",), Family.CATEGORICAL: ("heldout-ll",)}


def check_protocol(family: Family, protocol: str, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``protocol`` scores models of ``family``."""
    if protocol not in PROTOCOLS.get(family, ()):
        raise error(f"{protocol} does not score {family.value} models")


def scorer(protocol: str):
    """``protocol``'s scorer, looked up by name at each call, so that a wrapper
    set on this module's function (as the bench's tracer sets) is called."""
    return globals()[SCORERS[protocol].scorer]


def _cell_means(data, ctx, bank, spec, rows, cols):
    """Each listed cell's conditional mean given its context in ``data`` (0
    where a mean link drops an empty context), its member count and the sum
    of the means of its column, read from ``block_means`` over the listed
    columns only, a column block at a time: O(rows x block columns + cells)
    memory and O(rows x listed columns) time."""
    order = np.argsort(cols, kind="stable")  # the cells column by column
    sorted_cols = cols[order]
    means, colsums = np.empty(len(rows)), np.empty(len(rows))
    counts = np.empty(len(rows), dtype=np.int64)
    for cells, m, c in block_means(data, ctx, bank, spec, np.unique(cols)):
        e = order[slice(*np.searchsorted(sorted_cols, [cells.cols[0], cells.cols[-1] + 1]))]
        r, t = rows[e], np.searchsorted(cells.cols, cols[e])
        means[e] = m[r, t]
        counts[e] = np.broadcast_to(c, m.shape)[r, t]
        colsums[e] = m.sum(axis=0)[t]
    return means, counts, colsums


def _squared_errors(data, ctx, bank, spec, test_data, entries):
    """Squared error of the listed entries of ``test_data`` against their Gaussian
    means given their contexts in ``data``, and whether any member was left."""
    rows, cols, vals = test_data.entries(entries)
    means, counts, _ = _cell_means(data, ctx, bank, spec, rows, cols)
    return (vals - means) ** 2, counts > 0


def leave_one_out_mse(test_data: DataMatrix, ctx, bank: EmbeddingBank,
                      spec: FamilySpec) -> EvalReport:
    """Squared error of predicting each held-out entry from the true values
    of its context members.  Empty-context entries are excluded and counted."""
    check_protocol(spec.family, "loo-mse")
    err2, keep = _squared_errors(test_data, ctx, bank, spec, test_data, np.arange(test_data.nnz))
    return EvalReport.from_scores("leave_one_out_mse", err2[keep], int((~keep).sum()))


def check_folds(folds: int, seed: int) -> None:
    """Raise a ConfigError unless ``leave_fraction_out_mse`` can fold the
    entities ``folds`` ways (at least two) under ``seed`` (at least 0)."""
    if folds < 2:
        raise ConfigError("fold count must be >= 2 (folds=1 would empty every context)")
    check_seed(seed)


def leave_fraction_out_mse(test_data: DataMatrix, ctx, bank: EmbeddingBank,
                           spec: FamilySpec, folds: int = 4, seed: int = 0) -> EvalReport:
    """Fold the entities, predict each fold's entries from the test data less
    that fold's entries (so no in-fold cell is a member), and pool the squared
    errors over all folds.  Entries left with an empty context are excluded."""
    check_protocol(spec.family, "l25-mse")
    check_folds(folds, seed)
    if test_data.implicit_zero:
        raise ConfigError("leave-fraction-out needs explicit test data: a removed "
                          "implicit-zero entry would read as a zero member")
    rng = seeded_rng(seed)
    fold_of = np.empty(test_data.n_rows, dtype=np.int64)
    fold_of[rng.permutation(test_data.n_rows)] = np.arange(test_data.n_rows) % folds
    entry_fold = fold_of[test_data.rows]
    err2 = np.empty(test_data.nnz)
    keep = np.empty(test_data.nnz, dtype=bool)
    for f in range(folds):
        cells = np.flatnonzero(entry_fold == f)
        rest = test_data.select_entries(np.flatnonzero(entry_fold != f))
        err2[cells], keep[cells] = _squared_errors(rest, ctx, bank, spec, test_data, cells)
    return EvalReport.from_scores("leave_25pct_out_mse" if folds == 4 else
                                  f"leave_fold_out_mse_{folds}", err2[keep],
                                  int((~keep).sum()))


def normalized_predictive_ll(test_data: DataMatrix, ctx, bank: EmbeddingBank,
                             spec: FamilySpec) -> EvalReport:
    """Per held-out nonzero entry: log of its conditional mean over the sum
    of all entities' conditional means at the same column."""
    check_protocol(spec.family, "npll")
    mu, _, z = _cell_means(test_data, ctx, bank, spec, *test_data.entries()[:2])
    keep = ~((mu <= 0.0) | (z <= 0.0) | ~np.isfinite(z))
    return EvalReport.from_scores("normalized_predictive_ll", np.log(mu[keep] / z[keep]),
                                  int((~keep).sum()))


def heldout_ll(test_data: DataMatrix, ctx, bank: EmbeddingBank, spec: FamilySpec) -> EvalReport:
    """Mean log-likelihood per held-out term: per cell of implicit-zero data
    (its zeros too) or per stored entry, and per column for the categorical
    family, whose column is one term.  The estimate is ``train.objective``'s
    data sum without the prior, piece by piece as it sums, over the term
    count; the stderr pools the pieces' spreads, so memory is one column
    block.  The categorical shape, which ingest leaves unchecked, is checked
    first (``validate_data``)."""
    check_protocol(spec.family, "heldout-ll")
    validate_data(spec, test_data)
    if test_data.n_terms == 0:
        raise ConfigError("no entries left to score for heldout_ll")
    total, n, mean, m2 = 0.0, 0, 0.0, 0.0
    for z in log_likelihoods(test_data, ctx, bank, spec, test_data.every_term()):
        total += float(z.sum())
        t = z.sum(axis=0) if spec.family is Family.CATEGORICAL else z.ravel()
        k, mu = t.size, float(t.mean())  # the pieces' sums of squares pooled (Chan et al.)
        m2 += float(((t - mu) ** 2).sum()) + (mu - mean) ** 2 * n * k / (n + k)
        n, mean = n + k, mean + (mu - mean) * k / (n + k)
    return EvalReport("heldout_ll", total / n, math.sqrt(m2 / n) / math.sqrt(n), n)


def popularity_npll(test_data: DataMatrix, train_data: DataMatrix,
                    smoothing: float = 1.0) -> EvalReport:
    """Item-popularity baseline for the normalized log-likelihood: each
    entity's score is its (smoothed) share of training units, context-free."""
    pop = scatter_rows(train_data.rows, train_data.vals, train_data.n_rows) + smoothing
    logshare = np.log(pop / pop.sum())
    scores = logshare[test_data.rows]
    return EvalReport.from_scores("popularity_npll", scores)


def constant_predictor_mse(test_data: DataMatrix, value: float = 0.0) -> EvalReport:
    """Squared error of predicting every entry with one constant (the
    zero-predictor anchor when value=0)."""
    err2 = (test_data.vals - value) ** 2
    return EvalReport.from_scores("constant_predictor_mse", err2)
