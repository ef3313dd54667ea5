import math
import tracemalloc

import numpy as np
import pytest

from glembed.core import DataMatrix, EmbeddingBank, Link, TermBatch
from glembed.contexts import (
    KnnContext,
    SpatialLayout,
    WindowSpec,
    build_basket_context,
    build_knn_context,
    build_window_context,
)
from glembed.errors import ConfigError, DataError
from glembed.evaluate import (
    PROTOCOLS,
    SCORERS,
    EvalReport,
    SplitSpec,
    check_protocol,
    constant_predictor_mse,
    heldout_ll,
    leave_fraction_out_mse,
    leave_one_out_mse,
    make_split,
    normalized_predictive_ll,
    popularity_npll,
)
from glembed.families import Family, FamilySpec, log_likelihoods, term_log_likelihoods
from glembed.synth import gen_gaussian_knn
from glembed.train import objective

from helpers import (
    ExplicitContext,
    MemberPass,
    categorical_term_log_likelihoods,
    conditional_means,
    count_instance,
    dense_matrix,
    dense_values,
    family_instance,
    scalar_fold_of,
    scalar_leave_fraction_out,
    scalar_linear_value,
    scalar_npll,
    sparse_counts,
    term_leave_fraction_out,
    term_leave_one_out,
    zero_bank,
)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _column_data(n=4, t=20, implicit=False, seed=0):
    rng = np.random.default_rng(seed)
    if implicit:
        vals = np.where(rng.random((n, t)) < 0.6, rng.poisson(2.0, (n, t)) + 1, 0)
        return dense_matrix(vals.astype(float), implicit_zero=True)
    return dense_matrix(rng.normal(size=(n, t)))


def test_split_all_train():
    data = _column_data()
    parts = make_split(data, SplitSpec("columns", 1.0, 0.0, 0.0, seed=0))
    assert parts.train.n_cols == 20
    assert parts.valid.n_cols == 0 and parts.test.n_cols == 0


def test_split_floor_with_remainder_to_train():
    data = _column_data(t=20)
    parts = make_split(data, SplitSpec("columns", 0.9, 0.05, 0.05, seed=3))
    assert (parts.train.n_cols, parts.valid.n_cols, parts.test.n_cols) == (18, 1, 1)


def test_split_deterministic_per_seed():
    data = _column_data(implicit=True)
    a = make_split(data, SplitSpec("columns", 0.8, 0.1, 0.1, seed=9))
    b = make_split(data, SplitSpec("columns", 0.8, 0.1, 0.1, seed=9))
    np.testing.assert_array_equal(a.test.vals, b.test.vals)
    np.testing.assert_array_equal(a.train.cols, b.train.cols)


def test_split_partitions_entries():
    data = _column_data(implicit=True, seed=4)
    parts = make_split(data, SplitSpec("columns", 0.8, 0.1, 0.1, seed=5))
    total = parts.train.nnz + parts.valid.nnz + parts.test.nnz
    dropped_entries = data.nnz - total
    assert parts.dropped_test_columns >= 0
    # only entries of dropped test columns may be missing
    assert dropped_entries >= 0
    if parts.dropped_test_columns == 0:
        assert dropped_entries == 0


def test_split_drops_small_test_baskets_and_counts_them():
    vals = np.zeros((4, 10))
    vals[0, :] = 1.0  # every column has exactly one item
    vals[1, :3] = 1.0  # first three columns have two
    data = dense_matrix(vals, implicit_zero=True)
    parts = make_split(data, SplitSpec("columns", 0.0, 0.0, 1.0, seed=0))
    assert parts.test.n_cols == 3
    assert parts.dropped_test_columns == 7


def test_split_ratings_holdout_partitions_nonzeros():
    data = _column_data(implicit=True, seed=6)
    parts = make_split(data, SplitSpec("ratings", 0.0, 0.05, 0.2, seed=7))
    n = data.nnz
    assert parts.test.nnz == int(0.2 * n)
    assert parts.valid.nnz == int(0.05 * n)
    assert parts.train.nnz == n - parts.test.nnz - parts.valid.nnz
    keys = set(zip(data.rows.tolist(), data.cols.tolist()))
    for part in (parts.train, parts.valid, parts.test):
        part_keys = set(zip(part.rows.tolist(), part.cols.tolist()))
        assert part_keys <= keys
        keys -= part_keys
    assert not keys


@pytest.mark.parametrize("fracs", [(math.nan, 0.05, 0.05), (0.9, 0.05, math.nan),
                                   (0.9, math.inf, 0.05), (0.5, -0.1, 0.1)])
@pytest.mark.parametrize("variant", ["columns", "ratings"])
def test_split_fractions_must_be_finite_and_nonnegative(fracs, variant):
    # a nan test fraction used to fail as a bare ValueError, and a nan train
    # fraction passed
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        SplitSpec(variant, *fracs)


@pytest.mark.parametrize("args, key", [
    (("rows", 0.9, 0.05, 0.05), "variant"), (("columns", 0.9, math.nan, 0.05), "valid_frac"),
    (("columns", 0.9, 0.2, 0.05), ("train_frac", "valid_frac", "test_frac")),
    (("ratings", 0.9, 0.6, 0.6), ("valid_frac", "test_frac"))])
def test_split_spec_errors_are_keyed_by_the_fields_at_fault(args, key):
    with pytest.raises(ConfigError) as info:
        SplitSpec(*args)
    assert info.value.key == key
    SplitSpec("ratings", 0.9, 0.5, 0.5)  # the train fraction is not in a ratings sum


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("protocol", ["loo-mse", "l25-mse", "npll", "heldout-ll"])
def test_check_protocol_is_the_family_protocol_table(family, protocol):
    gaussian = family in (Family.GAUSSIAN, Family.NONNEG_GAUSSIAN)
    poisson = family in (Family.POISSON, Family.ADDITIVE_POISSON)
    text = family in (Family.BERNOULLI, Family.CATEGORICAL)
    applies = {"npll": poisson, "heldout-ll": text}.get(protocol, gaussian)
    assert (protocol in PROTOCOLS.get(family, ())) == applies
    assert protocol in SCORERS
    if applies:
        check_protocol(family, protocol)
    else:
        with pytest.raises(ConfigError, match=f"{protocol} does not score {family.value}"):
            check_protocol(family, protocol)


def test_split_empty_requested_split_is_config_error():
    data = _column_data(t=5)
    with pytest.raises(ConfigError):
        make_split(data, SplitSpec("columns", 0.9, 0.0, 0.05, seed=0))  # floor -> 0 test cols


# ---------------------------------------------------------------------------
# leave-one-out
# ---------------------------------------------------------------------------

def test_leave_one_out_near_zero_for_oracle_predictor():
    data, truth = gen_gaussian_knn(n_entities=12, n_cols=60, dim=2,
                                   noise_sd=1e-9, k=3, seed=1)
    ctx = build_knn_context(truth.layout, data)
    spec = FamilySpec(Family.GAUSSIAN)
    rep = leave_one_out_mse(data, ctx, truth.bank, spec)
    assert rep.estimate < 1e-12
    assert rep.n_entries == data.nnz


def test_leave_one_out_zero_bank_gives_mean_square():
    data, truth = gen_gaussian_knn(n_entities=10, n_cols=40, dim=2, k=3, seed=2)
    ctx = build_knn_context(truth.layout, data)
    bank = zero_bank(10, 2)
    rep = leave_one_out_mse(data, ctx, bank, FamilySpec(Family.GAUSSIAN))
    assert rep.estimate == pytest.approx(float((data.vals ** 2).mean()))
    base = constant_predictor_mse(data)
    assert rep.estimate == pytest.approx(base.estimate)


def test_leave_one_out_rejects_poisson_models():
    data, ctx, _ = count_instance(3)
    bank = zero_bank(data.n_rows, 2)
    with pytest.raises(ConfigError):
        leave_one_out_mse(data, ctx, bank, FamilySpec(Family.POISSON))


# ---------------------------------------------------------------------------
# leave-fraction-out
# ---------------------------------------------------------------------------

def test_leave_fraction_out_rejects_single_fold():
    data, truth = gen_gaussian_knn(n_entities=8, n_cols=10, k=2, seed=3)
    ctx = build_knn_context(truth.layout, data)
    with pytest.raises(ConfigError):
        leave_fraction_out_mse(data, ctx, truth.bank, FamilySpec(Family.GAUSSIAN), folds=1)


def test_leave_fraction_out_equals_loo_when_context_ignored():
    data, truth = gen_gaussian_knn(n_entities=8, n_cols=12, k=3, seed=4)
    ctx = build_knn_context(truth.layout, data)
    bank = EmbeddingBank(np.random.default_rng(0).normal(size=(8, 2)), np.zeros((8, 2)))
    spec = FamilySpec(Family.GAUSSIAN)
    loo = leave_one_out_mse(data, ctx, bank, spec)
    l25 = leave_fraction_out_mse(data, ctx, bank, spec, folds=4, seed=1)
    assert l25.estimate == pytest.approx(loo.estimate, rel=1e-12)


def test_leave_fraction_out_is_harder_than_loo_on_planted_model():
    data, truth = gen_gaussian_knn(n_entities=16, n_cols=80, dim=2, k=4, seed=5)
    ctx = build_knn_context(truth.layout, data)
    spec = FamilySpec(Family.GAUSSIAN)
    loo = leave_one_out_mse(data, ctx, truth.bank, spec).estimate
    pooled = [leave_fraction_out_mse(data, ctx, truth.bank, spec, folds=4, seed=s).estimate
              for s in range(20)]
    assert np.median(pooled) >= loo


# ---------------------------------------------------------------------------
# batched protocols against the scalar oracles
# ---------------------------------------------------------------------------

def _scoring_instance(builder, seed, folds, fold_seed):
    """Gaussian test data with a context of the given kind, holding one entry
    whose members all share its fold and, but for kNN, one entry with an
    empty context.  The kNN data is complete; the window and explicit data
    have holes."""
    rng = np.random.default_rng(seed)
    n, t = 12, 7
    fold_of = scalar_fold_of(n, folds, fold_seed)
    same_fold = [m for m in range(n) if m != 0 and fold_of[m] == fold_of[0]]
    values = rng.normal(size=(n, t))
    if builder == "knn":
        neighbors = np.array([rng.choice([m for m in range(n) if m != i], 2, replace=False)
                              for i in range(n)])
        neighbors[0] = same_fold[:2]
        return dense_matrix(values), KnnContext(neighbors)
    stored = rng.random((n, t)) < 0.7
    if builder == "window":
        # (0, 6) sees only column 5, stored for entity 0's fold mates alone;
        # column 1 is empty, so (0, 0) has an empty context
        stored[:, 1] = False
        stored[:, 5] = False
        stored[same_fold, 5] = True
        stored[0, [0, 6]] = True
        rows, cols = np.nonzero(stored)
        data = DataMatrix(n, t, rows, cols, values[rows, cols])
        return data, build_window_context(t, WindowSpec(1), data)
    stored[0, :2] = True
    stored[same_fold, 1] = True
    rows, cols = np.nonzero(stored)
    data = DataMatrix(n, t, rows, cols, values[rows, cols])
    cells = list(zip(rows.tolist(), cols.tolist()))
    mapping = {}
    for r, c in cells:
        picks = rng.choice(len(cells), rng.integers(0, 4), replace=False)
        mapping[(r, c)] = [cells[p] for p in picks if cells[p] != (r, c)]
    mapping[(0, 0)] = []
    mapping[(0, 1)] = [(m, 1) for m in same_fold]
    return data, ExplicitContext(mapping)


def _assert_protocols_match_oracles(data, ctx, bank, spec, folds, seed):
    """LOO and leave-fraction-out against the entry-by-entry oracles; returns
    the leave-fraction-out report."""
    l25 = leave_fraction_out_mse(data, ctx, bank, spec, folds=folds, seed=seed)
    ref = scalar_leave_fraction_out(data, ctx, bank, spec, folds=folds, seed=seed)
    assert (l25.n_entries, l25.excluded) == (ref.n_entries, ref.excluded)
    np.testing.assert_allclose([l25.estimate, l25.stderr],
                               [ref.estimate, ref.stderr], rtol=1e-12)

    loo = leave_one_out_mse(data, ctx, bank, spec)
    preds = [scalar_linear_value(data, ctx, bank, spec.link, r, c)
             for r, c in zip(data.rows.tolist(), data.cols.tolist())]
    err2 = [(x - p) ** 2 for x, p in zip(data.vals.tolist(), preds) if p is not None]
    assert loo.excluded == data.nnz - len(err2)
    assert loo.estimate == pytest.approx(np.mean(err2), rel=1e-12)
    return l25


@pytest.mark.parametrize("builder", ["knn", "window", "explicit"])
@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
@pytest.mark.parametrize("folds", [2, 4])
def test_batched_protocols_match_scalar_oracles(builder, link, folds):
    spec = FamilySpec(Family.GAUSSIAN, link)
    for seed in range(3):
        data, ctx = _scoring_instance(builder, seed, folds, fold_seed=seed)
        rng = np.random.default_rng(100 + seed)
        bank = EmbeddingBank(rng.normal(size=(data.n_rows, 3)),
                             rng.normal(size=(data.n_rows, 3)))
        l25 = _assert_protocols_match_oracles(data, ctx, bank, spec, folds, seed)
        assert l25.excluded >= 1


def _holey_instance(builder, seed):
    """Random explicit Gaussian data missing 10-60% of its cells, with a
    context of the given kind; explicit contexts may list missing cells."""
    rng = np.random.default_rng(seed)
    n, t = 10, 6
    values = rng.normal(size=(n, t))
    rows, cols = np.nonzero(rng.random((n, t)) >= rng.uniform(0.1, 0.6))
    data = DataMatrix(n, t, rows, cols, values[rows, cols])
    if builder == "knn":
        return data, build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), 3), data)
    if builder == "window":
        return data, build_window_context(t, WindowSpec(int(rng.integers(1, 3))), data)
    every = [(r, c) for r in range(n) for c in range(t)]
    return data, ExplicitContext({
        cell: [every[p] for p in rng.choice(len(every), 4, replace=False) if every[p] != cell]
        for cell in every})


@pytest.mark.parametrize("builder", ["knn", "window", "explicit"])
@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
def test_missing_cells_are_never_members_on_any_path(builder, link):
    # at, scatter_at, LOO and L25 all follow the oracles' member rule on
    # data with holes, for every cell of the matrix, missing ones included
    spec = FamilySpec(Family.GAUSSIAN, link)
    for seed in range(8):
        data, ctx = _holey_instance(builder, seed)
        rng = np.random.default_rng(300 + seed)
        bank = EmbeddingBank(rng.normal(size=(data.n_rows, 3)),
                             rng.normal(size=(data.n_rows, 3)))
        rows, cols = np.indices((data.n_rows, data.n_cols)).reshape(2, -1)
        batch = TermBatch(rows, cols, *data.lookup(rows, cols))
        emb, cv = bank.embeddings, bank.context_vectors
        scored, ref = ctx.block(data, emb, cv), MemberPass(ctx, data, emb, cv)
        H, counts = scored.at(batch)
        ref_H, ref_counts = ref.at(batch)
        np.testing.assert_allclose(H, ref_H, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(counts, ref_counts)
        coef = rng.normal(size=len(batch))
        scored.scatter_at(batch, coef)
        ref.scatter_at(batch, coef)
        for got, want in zip(scored.gradients(), ref.gradients()):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        _assert_protocols_match_oracles(data, ctx, bank, spec, 3, seed)


def _no_present_neighbour_instance(seed):
    """Explicit kNN data in which the stored cell (0, 1) has no present
    neighbour, so its context is empty."""
    rng = np.random.default_rng(seed)
    n, t = 8, 5
    values = rng.normal(size=(n, t))
    stored = rng.random((n, t)) < 0.8
    neighbors = np.array([[(i + 1) % n, (i + 2) % n] for i in range(n)])
    stored[0, 1] = True
    stored[[1, 2], 1] = False
    rows, cols = np.nonzero(stored)
    return DataMatrix(n, t, rows, cols, values[rows, cols]), KnnContext(neighbors)


# the default block size, then one and two or three columns per block
_BLOCK_CELLS = [None, 1, 25]


@pytest.mark.parametrize("block_cells", _BLOCK_CELLS)
@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
@pytest.mark.parametrize("case", ["knn-holey", "window-holey", "explicit-holey", "knn-fold",
                                  "window-fold", "explicit-fold", "knn-no-neighbour"])
def test_block_reader_matches_term_path(monkeypatch, case, link, block_cells):
    # LOO and L25 read each entry's mean and member count from column blocks;
    # the term path scores the same entries as one batch
    if block_cells is not None:
        monkeypatch.setattr("glembed.families.BLOCK_CELLS", block_cells)
    spec = FamilySpec(Family.GAUSSIAN, link)
    builder, kind = case.split("-", 1)
    for seed in range(3):
        if kind == "holey":
            data, ctx = _holey_instance(builder, seed)
        elif kind == "fold":  # an entry whose members all share its fold
            data, ctx = _scoring_instance(builder, seed, 3, fold_seed=seed)
        else:
            data, ctx = _no_present_neighbour_instance(seed)
        rng = np.random.default_rng(500 + seed)
        bank = EmbeddingBank(rng.normal(size=(data.n_rows, 3)),
                             rng.normal(size=(data.n_rows, 3)))
        loo = leave_one_out_mse(data, ctx, bank, spec)
        l25 = leave_fraction_out_mse(data, ctx, bank, spec, folds=3, seed=seed)
        for got, want in ((loo, term_leave_one_out(data, ctx, bank, spec)),
                          (l25, term_leave_fraction_out(data, ctx, bank, spec, 3, seed))):
            assert (got.n_entries, got.excluded) == (want.n_entries, want.excluded)
            np.testing.assert_allclose([got.estimate, got.stderr],
                                       [want.estimate, want.stderr], rtol=1e-12)
        if kind == "no-neighbour":
            assert loo.excluded >= 1
        if kind == "fold":
            assert l25.excluded >= 1


@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
@pytest.mark.parametrize("builder", ["knn", "window"])
def test_sparse_held_out_data_score_only_listed_columns(monkeypatch, builder, link):
    # most columns hold no entry; LOO and L25 score the columns that do,
    # in blocks of two columns, and match the term and scalar oracles
    monkeypatch.setattr("glembed.families.BLOCK_CELLS", 2 * 12)
    scored_cols = []
    column_blocks = DataMatrix.column_blocks

    def recorded(self, width, cols, scratch):
        for cells in column_blocks(self, width, cols, scratch):
            scored_cols.extend(np.arange(self.n_cols)[cells.cols].tolist())
            yield cells
    monkeypatch.setattr(DataMatrix, "column_blocks", recorded)
    spec = FamilySpec(Family.GAUSSIAN, link)
    for seed in range(3):
        rng = np.random.default_rng(900 + seed)
        n, t = 12, 80
        listed = rng.choice(t, 9, replace=False)
        rows = np.concatenate([rng.choice(n, 5, replace=False) for _ in listed])
        cols = np.repeat(listed, 5)
        data = DataMatrix(n, t, rows, cols, rng.normal(size=len(rows)))
        ctx = build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), 3), data) \
            if builder == "knn" else build_window_context(t, WindowSpec(2), data)
        bank = EmbeddingBank(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        scored_cols.clear()
        loo = leave_one_out_mse(data, ctx, bank, spec)
        assert scored_cols == sorted(listed.tolist())
        l25 = leave_fraction_out_mse(data, ctx, bank, spec, folds=4, seed=seed)
        for got, want in ((loo, term_leave_one_out(data, ctx, bank, spec)),
                          (l25, term_leave_fraction_out(data, ctx, bank, spec, 4, seed)),
                          (l25, scalar_leave_fraction_out(data, ctx, bank, spec, 4, seed))):
            assert (got.n_entries, got.excluded) == (want.n_entries, want.excluded)
            np.testing.assert_allclose([got.estimate, got.stderr],
                                       [want.estimate, want.stderr], rtol=1e-12)


@pytest.mark.parametrize("block_cells", _BLOCK_CELLS)
@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
@pytest.mark.parametrize("builder", ["basket", "knn"])
def test_block_npll_matches_term_path(monkeypatch, builder, link, block_cells):
    if block_cells is not None:
        monkeypatch.setattr("glembed.families.BLOCK_CELLS", block_cells)
    spec = FamilySpec(Family.POISSON, link)
    for seed in range(4):
        rng = np.random.default_rng(70 + seed)
        n, t = 9, 8
        counts = np.where(rng.random((n, t)) < 0.4, rng.poisson(1.5, (n, t)) + 1, 0)
        counts[:, 0] = 0
        counts[seed, 0] = 2  # alone in its basket: empty context, zero mean under a mean link
        data = dense_matrix(counts.astype(np.float64), implicit_zero=True)
        ctx = build_basket_context(data) if builder == "basket" else \
            build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), 3), data)
        bank = EmbeddingBank(rng.normal(scale=0.4, size=(n, 3)),
                             rng.normal(scale=0.4, size=(n, 3)))
        rep = normalized_predictive_ll(data, ctx, bank, spec)
        ref = scalar_npll(data, ctx, bank, spec)
        assert (rep.n_entries, rep.excluded) == (ref.n_entries, ref.excluded)
        np.testing.assert_allclose([rep.estimate, rep.stderr],
                                   [ref.estimate, ref.stderr], rtol=1e-12)
        if builder == "basket" and link is Link.MEAN_IDENTITY:
            assert rep.excluded >= 1


def test_npll_memory_is_bounded():
    # one (rows x cols) float table of this 2000 x 20000 matrix takes 305 MiB
    data = sparse_counts(2000, 20000, 200_000, seed=11)
    ctx = build_basket_context(data)
    bank = EmbeddingBank.init_random(data.n_rows, 4, seed=1)
    tracemalloc.start()
    try:
        rep = normalized_predictive_ll(data, ctx, bank, FamilySpec(Family.POISSON))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_entries + rep.excluded == data.nnz
    assert peak < 64 * 2**20


def _heldout_instance(case, seed, scale):
    """(data, ctx, bank, spec, per-term log-likelihoods) of a text instance:
    implicit-zero or explicit-with-missing-cells Bernoulli, or categorical;
    the per-term values come from the term path, a cell's through the pass's
    ``at`` and a categorical column's from the vocabulary oracle."""
    family = Family.CATEGORICAL if case == "categorical" else Family.BERNOULLI
    data, ctx, bank, spec = family_instance(family, seed, vocab=6, length=30, scale=scale)
    if case == "bernoulli-explicit":  # every cell 0/1, a third of them missing
        rng = np.random.default_rng(seed)
        values = dense_matrix(dense_values(data))
        data = values.select_entries(np.sort(rng.choice(values.nnz, 120, replace=False)))
        ctx = build_window_context(data.n_cols, WindowSpec(2), data)
    if family is Family.CATEGORICAL:
        batch = TermBatch(*data.entries(), np.ones(data.nnz, dtype=bool))
        terms = categorical_term_log_likelihoods(data, ctx, bank, spec, batch)[0]
    else:
        rows, cols = (np.indices((data.n_rows, data.n_cols)).reshape(2, -1)
                      if data.implicit_zero else data.entries()[:2])
        terms = term_log_likelihoods(data, ctx, bank, spec,
                                     TermBatch(rows, cols, *data.lookup(rows, cols)))
    return data, ctx, bank, spec, terms


@pytest.mark.parametrize("block_cells", _BLOCK_CELLS)
@pytest.mark.parametrize("scale", [0.3, 0.01])  # 0.01: terms that differ little
@pytest.mark.parametrize("case", ["bernoulli-implicit", "bernoulli-explicit", "categorical"])
def test_heldout_ll_is_the_objective_per_term_with_the_terms_spread(monkeypatch, case, scale,
                                                                     block_cells):
    # the estimate is the validation score of a Bernoulli or categorical grid
    # step, the objective per term, byte for byte; the stderr pools the column
    # blocks' spreads into that of all terms
    if block_cells is not None:
        monkeypatch.setattr("glembed.families.BLOCK_CELLS", block_cells)
    for seed in range(3):
        data, ctx, bank, spec, terms = _heldout_instance(case, seed, scale)
        rep = heldout_ll(data, ctx, bank, spec)
        n = data.n_cols if case == "categorical" else data.n_terms
        assert (rep.metric, rep.n_entries, rep.excluded) == ("heldout_ll", n, 0)
        assert rep.estimate == objective(data, ctx, bank, spec, 0.0, "none") / n
        # the kernel's terms, a copy per piece; the term path's agree with them
        pieces = [np.array(z.sum(axis=0) if case == "categorical" else z.ravel())
                  for z in log_likelihoods(data, ctx, bank, spec, data.every_term())]
        kernel = np.concatenate(pieces)
        np.testing.assert_allclose(np.sort(kernel), np.sort(terms), rtol=1e-12)
        np.testing.assert_allclose(rep.stderr, kernel.std() / math.sqrt(n), rtol=1e-9)


def test_heldout_ll_refuses_a_categorical_column_of_two_terms_and_other_families():
    data, ctx, bank, spec = family_instance(Family.CATEGORICAL, 0, vocab=6, length=30)
    rows, cols, vals = data.entries()
    two = DataMatrix(data.n_rows, data.n_cols, np.append(rows, (rows[0] + 1) % 6),
                     np.append(cols, 0), np.append(vals, 1.0), implicit_zero=True)
    with pytest.raises(DataError, match="exactly one active term per column"):
        heldout_ll(two, ctx, bank, spec)
    data, ctx, bank, spec = family_instance(Family.GAUSSIAN, 0)
    with pytest.raises(ConfigError, match="heldout-ll does not score gaussian models"):
        heldout_ll(data, ctx, bank, spec)


@pytest.mark.parametrize("family", [Family.BERNOULLI, Family.CATEGORICAL])
def test_heldout_ll_memory_is_one_column_block(family):
    # one (rows x cols) float table of this 1000 x 8000 text takes 61 MiB
    rng = np.random.default_rng(3)
    data = DataMatrix(1000, 8000, rng.integers(0, 1000, 8000), np.arange(8000), np.ones(8000),
                      implicit_zero=True)
    ctx = build_window_context(data.n_cols, WindowSpec(2), data)
    bank = EmbeddingBank.init_random(data.n_rows, 4, seed=1)
    spec = FamilySpec(family, vocab_size=1000 if family is Family.CATEGORICAL else 0)
    tracemalloc.start()
    try:
        rep = heldout_ll(data, ctx, bank, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_entries == (8000 if family is Family.CATEGORICAL else 8_000_000)
    assert peak < 16 * 2**20


def test_leave_fraction_out_rejects_implicit_zero_test_data():
    # removing a fold's entries from implicit-zero data would leave zero members
    data, ctx, bank = count_instance(3, n=6, t=5)
    with pytest.raises(ConfigError, match="implicit-zero"):
        leave_fraction_out_mse(data, ctx, bank, FamilySpec(Family.GAUSSIAN), folds=2)


@pytest.mark.parametrize("link", [Link.IDENTITY, Link.MEAN_IDENTITY])
def test_batched_npll_matches_entry_loop(link):
    spec = FamilySpec(Family.POISSON, link)
    for seed in range(4):
        data, ctx, bank = count_instance(50 + seed, n=7, t=6)
        rep = normalized_predictive_ll(data, ctx, bank, spec)
        ref = scalar_npll(data, ctx, bank, spec)
        assert (rep.n_entries, rep.excluded) == (ref.n_entries, ref.excluded)
        np.testing.assert_allclose([rep.estimate, rep.stderr],
                                   [ref.estimate, ref.stderr], rtol=1e-12)


# ---------------------------------------------------------------------------
# normalized predictive log-likelihood
# ---------------------------------------------------------------------------

def test_npll_two_item_example():
    # means 1 and 3 at one column; the observed second item scores log(3/4)
    data = DataMatrix(2, 1, [0, 1], [0, 0], [1.0, 1.0], implicit_zero=True)
    ctx = build_basket_context(data)
    emb = np.array([[5.0], [1.0]])
    cv = np.array([[math.log(3.0)], [0.0]])
    bank = EmbeddingBank(emb, cv)
    spec = FamilySpec(Family.POISSON, Link.IDENTITY)
    means, _ = conditional_means(data, ctx, bank, spec,
                                 TermBatch([0, 1], [0, 0], data.vals, [True, True]))
    np.testing.assert_allclose(means, [1.0, 3.0])
    rep = normalized_predictive_ll(data, ctx, bank, spec)
    scores = sorted([math.log(1 / 4), math.log(3 / 4)])
    assert rep.estimate == pytest.approx(np.mean(scores))
    assert rep.n_entries == 2


def test_npll_uniform_means_score_log_one_over_n():
    data, ctx, _ = count_instance(7, n=6, t=5)
    bank = zero_bank(6, 3)
    spec = FamilySpec(Family.POISSON, Link.IDENTITY)
    rep = normalized_predictive_ll(data, ctx, bank, spec)
    assert rep.estimate == pytest.approx(math.log(1 / 6))
    assert rep.stderr == pytest.approx(0.0, abs=1e-15)


def test_npll_normalizer_sums_to_one():
    data, ctx, bank = count_instance(8, n=5, t=4)
    spec = FamilySpec(Family.POISSON, Link.IDENTITY)
    col = int(data.cols[0])
    rows = np.arange(5)
    cols = np.full(5, col)
    xv = dense_values(data)[rows, cols]
    means, _ = conditional_means(data, ctx, bank, spec, TermBatch(rows, cols, xv, xv != 0))
    scores = np.log(means / means.sum())
    assert np.exp(scores).sum() == pytest.approx(1.0)


def test_npll_scores_are_nonpositive():
    data, ctx, bank = count_instance(9, n=7, t=6)
    spec = FamilySpec(Family.POISSON, Link.MEAN_IDENTITY)
    rep = normalized_predictive_ll(data, ctx, bank, spec)
    assert rep.estimate <= 0.0


def test_popularity_baseline_scores():
    train = DataMatrix(3, 2, [0, 0, 1], [0, 1, 0], [2.0, 2.0, 1.0], implicit_zero=True)
    test = DataMatrix(3, 1, [0, 2], [0, 0], [1.0, 1.0], implicit_zero=True)
    rep = popularity_npll(test, train, smoothing=1.0)
    pops = np.array([5.0, 2.0, 1.0])  # counts + smoothing
    expected = np.mean([math.log(5 / 8), math.log(1 / 8)])
    assert rep.estimate == pytest.approx(expected)


# ---------------------------------------------------------------------------
# report arithmetic
# ---------------------------------------------------------------------------

def test_a_report_of_no_entries_is_a_config_error():
    with pytest.raises(ConfigError, match="no entries left to score for m$"):
        EvalReport.from_scores("m", np.array([]))


def test_report_stderr_formula():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    rep = EvalReport.from_scores("m", scores)
    assert rep.stderr == pytest.approx(scores.std() / 2.0)
    assert rep.n_entries == 4


def test_report_duplication_halves_variance():
    scores = np.array([0.2, -1.0, 0.5, 2.0, 1.1])
    single = EvalReport.from_scores("m", scores)
    doubled = EvalReport.from_scores("m", np.concatenate([scores, scores]))
    assert doubled.estimate == pytest.approx(single.estimate)
    assert doubled.stderr == pytest.approx(single.stderr / math.sqrt(2.0))


def test_report_tsv_round_trip_fields():
    rep = EvalReport("m", 1.5, 0.25, 10, 2)
    lines = rep.to_tsv().strip().splitlines()
    assert lines[0].split("\t") == ["metric", "estimate", "stderr", "n", "excluded_count"]
    assert lines[1].split("\t") == ["m", "1.5", "0.25", "10", "2"]
