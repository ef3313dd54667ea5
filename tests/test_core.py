import numpy as np
import pytest

import glembed
from glembed.core import (DataMatrix, EmbeddingBank, Link, Scratch, TermBatch, scatter_rows,
                          sorted_keys)
from glembed.contexts import build_knn_context, SpatialLayout
from glembed.errors import DataError
from glembed.families import Family, FamilySpec

from helpers import (
    ExplicitContext,
    add_at_rows,
    cells,
    dense_matrix,
    dense_values,
    linear_values_at,
)


def linear_values(data, ctx, bank, link, rows, cols):
    """(linear values, active) of a batch of cells, through the pass's ``at``
    (a log link is the additive Poisson's, whose linear value is the rate)."""
    spec = FamilySpec(Family.ADDITIVE_POISSON if link.is_log else Family.GAUSSIAN, link)
    svals, _, active = linear_values_at(data, ctx, bank, spec, cells(data, rows, cols))
    return svals, active


def test_public_names_resolve_and_scalar_path_is_gone():
    for name in glembed.__all__:
        assert hasattr(glembed, name), name
    removed = ["DataIndex", "natural_parameter", "resolve_params", "context_inner_sum",
               "ContextMap", "ExplicitContext", "log_likelihood", "log_normalizer",
               "expected_sufficient_statistic", "categorical_log_likelihood",
               "RateDomainError", "DegenerateContextError", "SharingScheme",
               "_residuals_and_loglik", "regularizer_penalty", "regularizer_gradient"]
    for module in (glembed, glembed.core, glembed.contexts, glembed.families, glembed.errors):
        assert not [n for n in removed if hasattr(module, n)], module.__name__


def test_data_matrix_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        DataMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])


@pytest.mark.parametrize("rows, cols, vals", [([0], [0, 1], [1.0, 2.0]),
                                              ([0, 1], [0], [1.0, 2.0]),
                                              ([0, 1], [0, 1], [1.0])])
def test_data_matrix_rejects_arrays_of_unequal_length(rows, cols, vals):
    with pytest.raises(DataError, match="^rows, cols, vals must have equal length$"):
        DataMatrix(2, 2, rows, cols, vals)


def test_bank_rejects_tables_of_unequal_shape():
    for cv in (np.zeros((3, 2)), np.zeros((2, 3))):
        with pytest.raises(DataError, match="^embedding and context tables must have equal shape$"):
            EmbeddingBank(np.zeros((2, 2)), cv)


@pytest.mark.parametrize("listing", ["row_major", "shuffled"])
def test_select_entries_rejects_a_repeated_position(listing):
    rows, cols = [0, 0, 1, 2], [0, 2, 1, 0]
    if listing == "shuffled":
        rows, cols = rows[::-1], cols[::-1]
    data = DataMatrix(3, 3, rows, cols, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DataError, match="^entry position 1 selected twice$"):
        data.select_entries([3, 1, 0, 1])


def test_duplicate_message_names_first_repeating_entry():
    # (0, 0) sorts first, but (2, 1) repeats an earlier entry first
    rows, cols = [2, 0, 1, 2, 0, 2], [1, 0, 3, 1, 0, 1]
    seen, first = set(), None
    for r, c in zip(rows, cols):
        if (r, c) in seen:
            first = (r, c)
            break
        seen.add((r, c))
    for implicit_zero in (False, True):
        with pytest.raises(DataError) as err:
            DataMatrix(3, 4, rows, cols, [1.0] * 6, implicit_zero=implicit_zero)
        assert str(err.value) == f"duplicate entry at (row={first[0]}, col={first[1]})"


@pytest.mark.parametrize("implicit_zero", [False, True])
def test_lookup_matches_dict_oracle(implicit_zero):
    rng = np.random.default_rng(8)
    n, t = 7, 9
    cells = rng.permutation(n * t)[:25]  # entries in no particular order
    rows, cols = cells // t, cells % t
    vals = rng.integers(1, 5, size=25).astype(np.float64)
    d = DataMatrix(n, t, rows, cols, vals, implicit_zero=implicit_zero)
    oracle = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    qr, qc = np.indices((n, t)).reshape(2, -1)[:, rng.permutation(n * t)]
    got, stored = d.lookup(qr, qc)
    for r, c, v, s in zip(qr.tolist(), qc.tolist(), got.tolist(), stored.tolist()):
        assert s == ((r, c) in oracle)
        assert v == oracle.get((r, c), 0.0)
    empty = DataMatrix(n, t, [], [], [], implicit_zero=implicit_zero)
    got, stored = empty.lookup(qr, qc)
    assert not stored.any() and not got.any()
    # many random queries, repeated, with cells before the first and after
    # the last stored key: the lookup sorts its queries before searching
    n, t = 300, 400
    keys = rng.choice(np.arange(10, n * t - 10), size=5000, replace=False)
    vals = rng.integers(1, 5, size=len(keys)).astype(np.float64)
    d = DataMatrix(n, t, keys // t, keys % t, vals, implicit_zero=implicit_zero)
    oracle = dict(zip(keys.tolist(), vals.tolist()))
    q = np.concatenate([rng.integers(0, n * t, 100_000), keys[:500], keys[:500],
                        [0, 9, n * t - 10, n * t - 1, 0]])
    got, stored = d.lookup(q // t, q % t)
    np.testing.assert_array_equal(stored, [k in oracle for k in q.tolist()])
    np.testing.assert_array_equal(got, [oracle.get(k, 0.0) for k in q.tolist()])
    assert stored.sum() >= 1000 and (~stored).sum() > 90_000


@pytest.mark.parametrize("implicit_zero", [False, True])
def test_lookup_of_complete_data_and_broadcast_queries_matches_dict_oracle(implicit_zero):
    # complete data (every cell stored, so a cell's key is its sorted
    # position) and holey data, each queried by 1-D and broadcast 2-D cells
    rng = np.random.default_rng(9)
    n, t = 6, 7
    keys = rng.permutation(n * t)  # entries in no particular order
    vals = rng.integers(1, 9, n * t).astype(np.float64)
    for m in (n * t, 20):
        d = DataMatrix(n, t, keys[:m] // t, keys[:m] % t, vals[:m], implicit_zero=implicit_zero)
        oracle = dict(zip(keys[:m].tolist(), vals[:m].tolist()))
        q = rng.integers(0, n * t, 200)
        for qr, qc in ((q // t, q % t),
                       (rng.integers(0, n, (11, 4)), rng.integers(0, t, (11, 1))),
                       (rng.integers(0, n, 5), rng.integers(0, t, (3, 1)))):
            got, stored = d.lookup(qr, qc)
            r, c = np.broadcast_arrays(qr, qc)
            assert got.shape == stored.shape == r.shape
            want = [oracle.get(k) for k in (r * t + c).ravel().tolist()]
            np.testing.assert_array_equal(stored.ravel(), [w is not None for w in want])
            np.testing.assert_array_equal(got.ravel(), [0.0 if w is None else w for w in want])


def test_sorted_cell_keys_of_row_major_cells_have_no_permutation():
    keys, order, repeat = sorted_keys(np.array([0, 0, 1, 2]) * 4 + np.array([1, 3, 0, 2]))
    assert keys.tolist() == [1, 3, 4, 10] and order is None and repeat == -1
    for rows, cols in (([], []), ([2], [1])):
        keys, order, repeat = sorted_keys(np.array(rows, np.int64) * 4
                                          + np.array(cols, np.int64))
        assert keys.tolist() == [r * 4 + c for r, c in zip(rows, cols)]
        assert order is None and repeat == -1
    # nondecreasing is not enough: a repeated cell is sorted, not distinct
    keys, order, repeat = sorted_keys(np.array([0, 1, 1, 2]) * 4 + np.array([1, 0, 0, 2]))
    assert keys.tolist() == [1, 4, 4, 10] and order.tolist() == [0, 1, 2, 3] and repeat == 2


@pytest.mark.parametrize("case", ["explicit", "implicit_zero", "complete"])
def test_row_major_entries_are_their_own_key_index(case):
    # the same entries listed in row-major order and shuffled
    rng = np.random.default_rng(13)
    n, t = 6, 9
    keys = np.arange(n * t) if case == "complete" else np.sort(rng.permutation(n * t)[:30])
    vals = rng.integers(1, 5, size=len(keys)).astype(np.float64)
    shuffle = rng.permutation(len(keys))
    ordered, shuffled = (DataMatrix(n, t, k // t, k % t, v, implicit_zero=case == "implicit_zero")
                         for k, v in ((keys, vals), (keys[shuffle], vals[shuffle])))
    assert np.shares_memory(ordered._key_vals, ordered.vals)
    assert not np.shares_memory(shuffled._key_vals, shuffled.vals)
    for qr, qc in (np.divmod(rng.permutation(n * t), t),
                   (rng.integers(0, n, (5, 3)), rng.integers(0, t, (5, 1)))):
        for got, want in zip(ordered.lookup(qr, qc), shuffled.lookup(qr, qc)):
            np.testing.assert_array_equal(got, want)
    n_zero = n * t - ordered.nnz
    q = rng.integers(0, max(n_zero, 1), size=40 if n_zero else 0)
    for got, want in zip(ordered.zero_cells(q), shuffled.zero_cells(q)):
        np.testing.assert_array_equal(got, want)
    # the sparse step's stored piece: every entry in row-major cell order
    a, b = ordered.stored_terms(), shuffled.stored_terms()
    for name in ("rows", "cols", "vals", "stored", "weights", "row_starts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.rows * t + a.cols, keys)
    np.testing.assert_array_equal(a.vals, vals)
    np.testing.assert_array_equal(a.row_starts, np.searchsorted(keys // t, np.arange(n + 1)))
    assert a.stored.ndim == 0 and a.stored and a.weights is None


def test_row_major_sorts_per_cell_columns_and_keeps_0d_ones():
    batch = TermBatch([2, 0, 1, 0], [1, 3, 0, 0], 0.0, False, [1.0, 2.0, 3.0, 4.0])
    grouped, order = batch.row_major(3, 4)
    np.testing.assert_array_equal(order, [3, 1, 2, 0])
    np.testing.assert_array_equal(grouped.rows, [0, 0, 1, 2])
    np.testing.assert_array_equal(grouped.cols, [0, 3, 0, 1])
    np.testing.assert_array_equal(grouped.weights, [4.0, 2.0, 3.0, 1.0])
    np.testing.assert_array_equal(grouped.row_starts, [0, 2, 3, 4])
    assert grouped.vals.ndim == grouped.stored.ndim == 0
    assert grouped.vals == 0.0 and not grouped.stored
    again, none = grouped.row_major(3, 4)
    assert again is grouped and none is None


def test_scratch_tables_of_alternating_sizes_share_one_buffer():
    # a sparse step's two pieces take their per-cell tables by one name
    scratch = Scratch()
    big = scratch.take("H", (50,))
    small = scratch.take("H", (4, 5))
    assert small.shape == (4, 5) and np.shares_memory(big, small)
    assert np.shares_memory(big, scratch.take("H", (50,)))
    assert not np.shares_memory(big, scratch.take("H", (51,)))
    counts = scratch.take("H", (10,), np.int64)
    assert counts.dtype == np.int64 and counts.shape == (10,)


def _entry_bytes(data):
    return sum(v.nbytes for v in vars(data).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("listing", ["row_major", "column_major", "shuffled"])
def test_a_matrix_keeps_16_bytes_per_entry_in_key_order_and_24_in_any_other(listing):
    # the sorted keys and their values; another listing adds the key
    # position of each entry, and a part of either split keeps its listing's
    rng = np.random.default_rng(21)
    n, t = 40, 70
    keys = np.sort(rng.permutation(n * t)[:1500])
    order = {"row_major": np.arange(len(keys)), "shuffled": rng.permutation(len(keys)),
             "column_major": np.lexsort((keys // t, keys % t))}[listing]
    data = DataMatrix(n, t, keys[order] // t, keys[order] % t, rng.normal(size=len(keys)))
    per_entry = 16 if listing == "row_major" else 24
    assert _entry_bytes(data) == per_entry * data.nnz
    for part in (data.select_columns(np.arange(0, t, 3)), data.select_entries(np.arange(0, 1500, 2)),
                 data.select_entries(rng.permutation(1500)[:500])):
        assert _entry_bytes(part) <= 24 * part.nnz
    assert _entry_bytes(data.select_columns(np.arange(0, t, 3))) == per_entry * (
        data.select_columns(np.arange(0, t, 3)).nnz)
    # rows, columns and values are computed in the listing's order
    np.testing.assert_array_equal(data.rows, keys[order] // t)
    np.testing.assert_array_equal(data.cols, keys[order] % t)
    at = rng.permutation(len(keys))[:200]
    for got, want in zip(data.entries(at), (data.rows[at], data.cols[at], data.vals[at])):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("implicit_zero", [False, True])
def test_select_columns_keeps_the_entries_of_the_kept_columns(implicit_zero):
    rng = np.random.default_rng(15)
    n, t = 5, 12
    keys = rng.permutation(n * t)[:35]
    data = DataMatrix(n, t, keys // t, keys % t, rng.integers(1, 5, 35).astype(np.float64),
                      implicit_zero=implicit_zero, col_labels=[f"c{j}" for j in range(t)])
    for keep in ([7, 2, 11], [0, 1, 2, 3], [], [5]):
        part = data.select_columns(keep)
        assert part.n_cols == len(keep) and part.col_labels == [f"c{j}" for j in keep]
        np.testing.assert_array_equal(dense_values(part), dense_values(data)[:, keep])
        # the kept entries in their entry order
        kept = np.isin(data.cols, keep)
        np.testing.assert_array_equal(part.rows, data.rows[kept])
        np.testing.assert_array_equal(part.vals, data.vals[kept])


def test_scatter_rows_is_add_at_into_zeros_byte_for_byte():
    rng = np.random.default_rng(31)
    for case in range(30):
        n = int(rng.integers(1, 50))
        e = 0 if case == 0 else int(rng.integers(1, 400))
        d = 1 if case % 5 == 1 else int(rng.integers(1, 9))
        idx = rng.integers(0, n, e)
        if case % 3 == 1:
            idx = np.sort(idx)
        elif case % 3 == 2:  # runs of one index, in no order
            idx = np.repeat(rng.integers(0, n, e // 5 + 1), 5)[:e]
        # magnitudes from 1e-8 to 1e8, both signs, and signed zeros
        v = rng.choice([-1.0, 1.0], (e, d)) * 10.0 ** rng.uniform(-8, 8, (e, d))
        v[rng.random((e, d)) < 0.05] = 0.0
        v[rng.random((e, d)) < 0.05] = -0.0
        scale = rng.choice([-1.0, 1.0], e) * 10.0 ** rng.uniform(-8, 8, e)
        for got, want in ((scatter_rows(idx, v, n), add_at_rows(idx, v, n)),
                          (scatter_rows(idx, v, n, scale), add_at_rows(idx, v, n, scale)),
                          (scatter_rows(idx, v[:, 0], n), add_at_rows(idx, v[:, 0], n))):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # an (E, k) index, each row of v scaled per position (the kNN scatter)
        k = int(rng.integers(1, 4))
        idx2 = rng.integers(0, n, (e, k))
        scale2 = 10.0 ** rng.uniform(-8, 8, (e, k))
        np.testing.assert_array_equal(scatter_rows(idx2, v, n, scale2).view(np.int64),
                                      add_at_rows(idx2, v, n, scale2).view(np.int64))
    # an all-negative-zero row sums to +0, as add.at into zeros leaves it
    got = scatter_rows(np.array([1, 1]), np.full((2, 2), -0.0), 3)
    assert not np.signbit(got).any()


def test_data_matrix_rejects_out_of_range():
    with pytest.raises(DataError):
        DataMatrix(2, 2, [2], [0], [1.0])


def test_data_matrix_rejects_stored_zero_when_implicit():
    with pytest.raises(DataError):
        DataMatrix(2, 2, [0], [0], [0.0], implicit_zero=True)


def test_value_lookup_semantics():
    d = DataMatrix(3, 3, [0, 1], [1, 2], [4.0, 5.0], implicit_zero=True)
    vals, stored = d.lookup([0, 2], [1, 2])
    assert vals.tolist() == [4.0, 0.0] and stored.tolist() == [True, False]  # implicit zero
    e = DataMatrix(3, 3, [0], [1], [4.0], implicit_zero=False)
    assert e.lookup([2], [2])[1].tolist() == [False]  # a missing explicit cell
    assert d.n_terms == 9 and e.n_terms == 1


def test_natural_parameter_zero_context_vectors():
    data = dense_matrix(np.ones((3, 2)))
    ctx = ExplicitContext({(0, 0): [(1, 0), (2, 0)]})
    bank = EmbeddingBank(np.ones((3, 2)), np.zeros((3, 2)))
    assert linear_values(data, ctx, bank, Link.IDENTITY, [0], [0])[0][0] == 0.0


def test_natural_parameter_scalar_case():
    # K=1: emb=2, one context member with x=0.5 and context vector 3
    data = DataMatrix(2, 1, [0, 1], [0, 0], [9.0, 0.5])
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(np.array([[2.0], [0.0]]), np.array([[0.0], [3.0]]))
    expected = 2.0 * (0.5 * 3.0)  # independent scalar evaluation
    for link in (Link.IDENTITY, Link.LOG, Link.MEAN_IDENTITY, Link.MEAN_LOG):
        got, active = linear_values(data, ctx, bank, link, [0], [0])
        assert active[0] and got[0] == pytest.approx(expected)


def test_natural_parameter_empty_context_policies():
    # an empty context sums to 0 under a plain link; a mean link drops the cell
    data = dense_matrix(np.ones((2, 1)))
    bank = EmbeddingBank(np.ones((2, 1)), np.ones((2, 1)))
    for link, value, active in ((Link.IDENTITY, 0.0, True), (Link.LOG, 0.0, True),
                                (Link.MEAN_IDENTITY, 1.0, False),
                                (Link.MEAN_LOG, 1.0, False)):
        got = linear_values(data, ExplicitContext({}), bank, link, [0], [0])
        assert (got[0][0], got[1][0]) == (value, active)


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    n, t, k = 6, 5, 3
    x = rng.normal(size=(n, t))
    pos = rng.uniform(size=(n, 3))
    data = dense_matrix(x)
    ctx = build_knn_context(SpatialLayout(pos, 2), data)
    bank = EmbeddingBank(rng.normal(size=(n, k)), rng.normal(size=(n, k)))

    perm = rng.permutation(n)
    data_p = dense_matrix(x[perm])
    ctx_p = build_knn_context(SpatialLayout(pos[perm], 2), data_p)
    bank_p = EmbeddingBank(bank.embeddings[perm], bank.context_vectors[perm])

    inv = np.argsort(perm)
    rows, cols = np.indices((n, t)).reshape(2, -1)
    a, _ = linear_values(data, ctx, bank, Link.IDENTITY, rows, cols)
    b, _ = linear_values(data_p, ctx_p, bank_p, Link.IDENTITY, inv[rows], cols)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_linearity_in_context_values():
    # finite-difference slope in one context member's value equals emb . cv
    rng = np.random.default_rng(5)
    bank = EmbeddingBank(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    ctx = ExplicitContext({(0, 0): [(1, 0), (2, 0)]})
    h = 1e-6

    def eta(bump):
        x = np.array([[0.0], [0.7 + bump], [-0.3]])
        return linear_values(dense_matrix(x), ctx, bank, Link.IDENTITY, [0], [0])[0][0]

    slope = (eta(h) - eta(-h)) / (2 * h)
    assert slope == pytest.approx(float(bank.embeddings[0] @ bank.context_vectors[1]), rel=1e-6)


def test_context_mean_equals_identity_for_single_member():
    rng = np.random.default_rng(6)
    data = dense_matrix(rng.normal(size=(2, 1)))
    ctx = ExplicitContext({(0, 0): [(1, 0)]})
    bank = EmbeddingBank(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    a, _ = linear_values(data, ctx, bank, Link.IDENTITY, [0], [0])
    b, _ = linear_values(data, ctx, bank, Link.MEAN_IDENTITY, [0], [0])
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def test_tied_scheme_role_swap_is_noop():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(3, 2))
    bank = EmbeddingBank(emb, emb)
    data = dense_matrix(rng.normal(size=(3, 2)))
    ctx = ExplicitContext({(0, 1): [(1, 1), (2, 1)]})
    a, _ = linear_values(data, ctx, bank, Link.IDENTITY, [0], [1])
    swapped = EmbeddingBank(bank.context_vectors, bank.embeddings)
    b, _ = linear_values(data, ctx, swapped, Link.IDENTITY, [0], [1])
    assert a[0] == pytest.approx(b[0], rel=1e-15)


def test_bank_requires_finite_values():
    with pytest.raises(DataError):
        EmbeddingBank(np.array([[np.nan]]), np.array([[0.0]]))
