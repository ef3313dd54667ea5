"""Held-out evaluation: splits, squared-error protocols, normalized
predictive log-likelihood, and the baselines that anchor the test suite.

Two split flavors: whole-column splits (time frames, shopping trips) and
per-entry holdout of nonzero ratings.  Both are deterministic per seed and
partition the input.  LOO, leave-fraction-out and NPLL read each held-out
entry's mean from ``families.block_means`` over the columns that hold
held-out entries, a column block at a time, in O(rows x block columns +
entries) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, EmbeddingBank, scatter_rows, seeded_rng
from .errors import ConfigError
from .families import Family, FamilySpec, block_means

MIN_BASKET_ITEMS = 2  # held-out baskets need at least two distinct items


@dataclass(frozen=True)
class SplitSpec:
    """How to carve train/validation/test out of one matrix; a fault raises a
    ``ConfigError`` keyed by its field, or by the fractions of a sum over 1."""

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")


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
    id order.  Held-out basket columns of implicit-zero data with fewer
    than two distinct items are dropped from the test part (and counted).
    Entries held out of a ratings split become implicit zeros of the
    training matrix.
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


# per family, the held-out protocols that score its models: squared error for
# the Gaussian families, the normalized predictive log-likelihood for Poisson
PROTOCOLS = {Family.GAUSSIAN: ("loo-mse", "l25-mse"),
             Family.NONNEG_GAUSSIAN: ("loo-mse", "l25-mse"),
             Family.POISSON: ("npll",), Family.ADDITIVE_POISSON: ("npll",)}


def check_protocol(family: Family, protocol: str, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``protocol`` scores models of ``family``."""
    if protocol not in PROTOCOLS.get(family, ()):
        raise error(f"{protocol} does not score {family.value} models")


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


def leave_fraction_out_mse(test_data: DataMatrix, ctx, bank: EmbeddingBank,
                           spec: FamilySpec, folds: int = 4, seed: int = 0) -> EvalReport:
    """Fold the entities, predict each fold's entries from the test data less
    that fold's entries (so no in-fold cell is a member), and pool the squared
    errors over all folds.  Entries left with an empty context are excluded."""
    check_protocol(spec.family, "l25-mse")
    if folds < 2:
        raise ConfigError("fold count must be >= 2 (folds=1 would empty every context)")
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
