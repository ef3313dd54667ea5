import numpy as np
import pytest

import glembed
from glembed.core import DataMatrix, EmbeddingBank, Link, scatter_rows, sorted_cell_keys
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
    keys, order, repeat = sorted_cell_keys(np.array([0, 0, 1, 2]), np.array([1, 3, 0, 2]), 4)
    assert keys.tolist() == [1, 3, 4, 10] and order is None and repeat == -1
    for rows, cols in (([], []), ([2], [1])):
        keys, order, repeat = sorted_cell_keys(np.array(rows, np.int64),
                                               np.array(cols, np.int64), 4)
        assert keys.tolist() == [r * 4 + c for r, c in zip(rows, cols)]
        assert order is None and repeat == -1
    # nondecreasing is not enough: a repeated cell is sorted, not distinct
    keys, order, repeat = sorted_cell_keys(np.array([0, 1, 1, 2]), np.array([1, 0, 0, 2]), 4)
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
    zr, zc = ordered.zero_cells(q)
    a, b = ordered.with_unstored(zr, zc, 2.5), shuffled.with_unstored(zr, zc, 2.5)
    for name in ("rows", "cols", "vals", "stored", "weights", "row_starts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


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
