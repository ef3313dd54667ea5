import numpy as np
import pytest

from glembed.contexts import (
    CELL_CHUNK,
    KnnContext,
    SpatialLayout,
    WindowSpec,
    build_basket_context,
    build_knn_context,
    build_window_context,
    knn_neighbors,
)
from glembed import contexts
from glembed.core import DataMatrix, EmbeddingBank, Link, TermBatch, cell_products, scatter_rows
from glembed.errors import ConfigError, DataError
from glembed.families import Family, FamilySpec, weighted_term_gradient

from helpers import (
    MemberPass,
    add_at_basket_members,
    add_at_cell_products,
    add_at_scatter,
    add_at_term_gradient,
    add_at_window_members,
    cells,
    count_instance,
    dense_matrix,
    dense_values,
    gaussian_instance,
    lexsort_knn_neighbors,
    text_instance,
)


def context_table(ctx, data, rows, cols):
    """Per cell, the context's sum of x_j over each entity row and its member
    count: entry m is the pass's ``at`` with cv = the identity and every
    embedding the unit vector of row m."""
    eye = np.eye(data.n_rows)
    batch = cells(data, rows, cols)
    at = [ctx.block(data, np.tile(unit, (data.n_rows, 1)), eye).at(batch) for unit in eye]
    return np.stack([H for H, _ in at], axis=1), at[0][1]


def word_per_position(length, w):
    """A text whose word at position p is p, so member rows name member columns."""
    data = DataMatrix(length, length, np.arange(length), np.arange(length),
                      np.ones(length), implicit_zero=True)
    return data, build_window_context(length, WindowSpec(w), data)


def brute_force_knn(positions, k):
    """Independent all-pairs oracle: plain loops, (distance, id) ordering."""
    n = len(positions)
    out = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d = float(((positions[i] - positions[j]) ** 2).sum())
            cand.append((d, j))
        cand.sort()
        out[i] = [j for _, j in cand[:k]]
    return out


def test_knn_line_example():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    nb = knn_neighbors(pos, 1)
    assert nb.tolist() == [[1], [0], [1]]


def test_knn_exhaustive_neighborhood():
    rng = np.random.default_rng(0)
    pos = rng.uniform(size=(6, 3))
    nb = knn_neighbors(pos, 5)
    for i in range(6):
        assert sorted(nb[i].tolist()) == sorted(set(range(6)) - {i})


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    pos = rng.uniform(size=(100, 3))
    np.testing.assert_array_equal(knn_neighbors(pos, 10), brute_force_knn(pos, 10))


# positions and a neighbour count: random ones, a lattice full of distance
# ties, and each random position held by three entities
_KNN_LAYOUTS = {
    "random_300": lambda rng: (rng.uniform(size=(300, 3)), 10),
    "random_2000": lambda rng: (rng.uniform(size=(2000, 3)), 10),
    "lattice_12": lambda rng: (np.stack(np.meshgrid(*[np.arange(12.0)] * 3), -1).reshape(-1, 3),
                               30),
    "repeated": lambda rng: (np.repeat(rng.uniform(size=(100, 3)), 3, axis=0), 10),
}


@pytest.mark.parametrize("layout", sorted(_KNN_LAYOUTS))
def test_knn_matches_the_per_entity_lexsort_exactly(layout):
    pos, k = _KNN_LAYOUTS[layout](np.random.default_rng(11))
    nb = knn_neighbors(pos, k)
    assert nb.dtype == np.int64 and nb.flags.owndata
    np.testing.assert_array_equal(nb, lexsort_knn_neighbors(pos, k))


def test_knn_tie_break_prefers_lower_id():
    # entity 0 is equidistant from 1 and 2
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
    nb = knn_neighbors(pos, 1)
    assert nb[0, 0] == 1


def test_knn_requires_k_below_n():
    with pytest.raises(ConfigError):
        knn_neighbors(np.zeros((3, 3)), 3)


def test_knn_context_time_invariant_and_no_self():
    data, ctx, _ = gaussian_instance(2, n=6, t=4, knn=3)
    table, counts = context_table(ctx, data, [2] * 4, range(4))
    # with cv = I the sum over entity m is x[m, col]: the same rows, this column
    np.testing.assert_array_equal(table != 0, np.broadcast_to(table[0] != 0, table.shape))
    np.testing.assert_array_equal(table[:, table[0] != 0], dense_values(data)[table[0] != 0].T)
    assert table[0, 2] == 0 and (counts == 3).all() and (table[0] != 0).sum() == 3


def test_knn_neighbor_with_a_missing_cell_is_not_a_member():
    data = DataMatrix(3, 1, [0, 1], [0, 0], [1.0, 2.0])  # cell (2, 0) is missing
    ctx = KnnContext(np.array([[1, 2], [0, 2], [0, 1]]))
    table, counts = context_table(ctx, data, [0, 1, 2], [0, 0, 0])
    np.testing.assert_array_equal(table, [[0, 2, 0], [1, 0, 0], [1, 2, 0]])
    assert counts.tolist() == [1, 1, 2]


def test_basket_context_examples():
    vals = np.zeros((10, 3))
    vals[[2, 5, 9], 0] = 1.0
    vals[4, 1] = 2.0  # single-item basket
    data = dense_matrix(vals, implicit_zero=True)
    ctx = build_basket_context(data)
    table, counts = context_table(ctx, data, [2, 4, 0], [0, 1, 0])
    assert np.flatnonzero(table[0]).tolist() == [5, 9] and counts[0] == 2
    assert not table[1].any() and counts[1] == 0
    # zero cell in a populated column sees every stored entry
    assert np.flatnonzero(table[2]).tolist() == [2, 5, 9] and counts[2] == 3


def test_basket_context_symmetry():
    data, ctx, _ = count_instance(3, n=6, t=5)
    table, _ = context_table(ctx, data, data.rows, data.cols)
    member = {(n, c): set(np.flatnonzero(row).tolist())
              for n, c, row in zip(data.rows.tolist(), data.cols.tolist(), table)}
    for (n, col), rows in member.items():
        for m in rows:
            assert n in member[(m, col)]


def test_basket_context_requires_implicit_zero():
    with pytest.raises(DataError):
        build_basket_context(dense_matrix(np.ones((2, 2))))


def test_window_positions_examples():
    for length, w, pos, expected in ((5, 1, 2, [1, 3]), (5, 2, 0, [1, 2]),
                                     (3, 5, 0, [1, 2]), (3, 5, 1, [0, 2]),
                                     (3, 5, 2, [0, 1])):
        data, ctx = word_per_position(length, w)
        table, counts = context_table(ctx, data, [0], [pos])
        assert np.flatnonzero(table[0]).tolist() == expected
        assert counts[0] == len(expected)


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(0)


def test_window_context_length_must_match_the_data():
    data = dense_matrix(np.eye(3), implicit_zero=True)
    build_window_context(3, WindowSpec(1), data)
    with pytest.raises(DataError, match="matrix length disagrees with window context"):
        build_window_context(4, WindowSpec(1), data)


def test_window_context_size_bounds():
    length, w = 9, 2
    data, ctx, _ = text_instance(4, vocab=4, length=length, w=w)
    _, counts = context_table(ctx, data, [0] * length, range(length))
    assert (min(w, length - 1) <= counts).all() and (counts <= min(2 * w, length - 1)).all()


def test_window_context_members_exclude_own_column():
    data, ctx = word_per_position(7, 2)
    table, _ = context_table(ctx, data, [0] * 7, range(7))
    assert not np.diag(table).any()
    assert (table.sum(axis=1) == [2, 3, 4, 4, 4, 3, 2]).all()


def _window_data(length, storage, rng):
    """Data over ``length`` positions whose values span 16 decades: a word
    per position drawn from 4 (so words repeat inside windows), two words
    per position of 5, or every cell of 5 rows explicit with about 30% of
    them missing."""
    vocab = 4 if storage == "word" else 5
    if storage == "word":
        rows, cols = rng.integers(0, vocab, length), np.arange(length)
    elif storage == "two":
        rows = np.stack([rng.integers(0, 2, length), rng.integers(2, vocab, length)], 1).ravel()
        cols = np.repeat(np.arange(length), 2)
    else:
        rows, cols = np.divmod(np.flatnonzero(rng.random(vocab * length) >= 0.3), length)
    vals = rng.choice([-1.0, 1.0], len(rows)) * 10.0 ** rng.uniform(-8, 8, len(rows))
    if storage == "holey":
        vals[::7] = 0.0  # stored zeros are members that add nothing
    return DataMatrix(vocab, length, rows, cols, vals, implicit_zero=storage != "holey")


@pytest.mark.parametrize("storage", ["word", "two", "holey"])
@pytest.mark.parametrize("length, w", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 3), (4, 4),
                                       (3, 7), (7, 1), (7, 3), (50, 1), (50, 3)])
def test_window_members_equal_the_add_at_oracle_byte_for_byte(length, w, storage):
    # a half width at or past the length reaches every other position; the
    # members of a position are summed in increasing row id, a word's
    # repeats inside one window first, and carried back by the transpose
    rng = np.random.default_rng(length * 10 + w)
    data = _window_data(length, storage, rng)
    ctx = build_window_context(length, WindowSpec(w), data)
    Mt, M, counts = ctx._members(data)
    assert all(np.all(np.diff(Mt.indices[a:b]) > 0) for a, b in zip(Mt.indptr, Mt.indptr[1:]))
    want_Mt, want_M, want_counts = add_at_window_members(w, data)
    np.testing.assert_array_equal(counts, want_counts)
    assert counts.dtype == np.int64
    cv = rng.normal(size=(data.n_rows, 3)) * 10.0 ** rng.uniform(-8, 8, (data.n_rows, 3))
    R = rng.normal(size=(length, 3)) * 10.0 ** rng.uniform(-8, 8, (length, 3))
    for got, want in ((Mt @ cv, want_Mt @ cv), (M @ R, want_M @ R)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert ctx._members(data)[0] is Mt  # built once per data


@pytest.mark.parametrize("implicit", [False, True])
def test_csr_products_equal_scatter_rows_byte_for_byte(implicit):
    # the data's CSR operators hold each row's (column's) entries in entry
    # order, so on entries in no particular order their products add the
    # products of scatter_rows over the entries, in its order; values and
    # tables span 16 decades, so a sum in another order would differ
    rng = np.random.default_rng(67 + implicit)
    n, t, dim = 40, 70, 5
    keys = rng.permutation(n * t)[:1200]
    vals = rng.choice([-1.0, 1.0], len(keys)) * 10.0 ** rng.uniform(-8, 8, len(keys))
    data = DataMatrix(n, t, keys // t, keys % t, vals, implicit_zero=implicit)
    assert (np.diff(data.rows) < 0).any() and (np.diff(data.cols) < 0).any()
    cv = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-8, 8, (n, dim))
    R = rng.normal(size=(t, dim)) * 10.0 ** rng.uniform(-8, 8, (t, dim))
    for got, want in ((data.Xt @ cv, scatter_rows(data.cols, cv[data.rows], t, data.vals)),
                      (data.X @ R, scatter_rows(data.rows, R[data.cols], n, data.vals))):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(contexts._column_counts(data),
                                  np.bincount(data.cols, minlength=t))
    # an empty matrix has zero sums and counts
    empty = DataMatrix(n, t, [], [], [], implicit_zero=implicit)
    assert not (empty.Xt @ cv).any() and not (empty.X @ R).any()
    assert not contexts._column_counts(empty).any()


@pytest.mark.parametrize("builder", ["knn", "basket", "window"])
def test_vectorized_sums_match_generic(builder):
    # the fast array paths must agree with the member-by-member definition
    rng = np.random.default_rng(11)
    if builder == "knn":
        data, ctx, bank = gaussian_instance(6, n=6, t=5, knn=2)
    elif builder == "basket":
        data, ctx, bank = count_instance(7, n=6, t=5)
    else:
        data, ctx, bank = text_instance(8, vocab=5, length=9, w=2)
    n_cells = 12
    rows = rng.integers(0, data.n_rows, n_cells)
    cols = rng.integers(0, data.n_cols, n_cells)
    batch = cells(data, rows, cols)
    emb, cv = bank.effective_embeddings(), bank.effective_context_vectors()
    fast, slow = ctx.block(data, emb, cv), MemberPass(ctx, data, emb, cv)
    fast_h, fast_c = fast.at(batch)
    slow_h, slow_c = slow.at(batch)
    np.testing.assert_allclose(fast_h, slow_h, atol=1e-12)
    np.testing.assert_array_equal(fast_c, slow_c)
    coef = rng.normal(size=n_cells)
    fast.scatter_at(batch, coef)
    slow.scatter_at(batch, coef)
    for fast_g, slow_g in zip(fast.gradients(), slow.gradients()):
        np.testing.assert_allclose(fast_g, slow_g, atol=1e-12)


def test_builders_validate_inputs():
    data = dense_matrix(np.ones((3, 2)))
    with pytest.raises(DataError):
        build_knn_context(SpatialLayout(np.zeros((2, 3)), 1), data)


@pytest.mark.parametrize("holey", [False, True])
def test_knn_sums_in_chunks_equal_one_einsum(holey):
    data, ctx, bank = gaussian_instance(12, n=9, t=7, k=4, knn=3)
    rng = np.random.default_rng(5)
    if holey:  # about 30% of the cells go missing
        data = data.select_entries(np.flatnonzero(rng.random(data.nnz) >= 0.3))
    n_cells = 2 * CELL_CHUNK + 123
    rows = rng.integers(0, data.n_rows, n_cells)
    cols = rng.integers(0, data.n_cols, n_cells)
    batch = cells(data, rows, cols)
    emb, cv = bank.embeddings, bank.context_vectors
    scored = ctx.block(data, emb, cv)
    H, counts = scored.at(batch)
    nb = ctx.neighbors[rows]
    vals, present = (a.reshape(nb.shape) for a in data.lookup(nb.ravel(), np.repeat(cols, 3)))
    S = np.einsum("ek,ekd->ed", vals, cv[nb])
    np.testing.assert_array_equal(H, np.einsum("ed,ed->e", emb[rows], S))
    np.testing.assert_array_equal(counts, present.sum(axis=1))
    assert present.all() != holey
    # the scatter adds in the same order as one np.add.at
    coef = rng.normal(size=n_cells)
    scored.scatter_at(batch, coef)
    g_emb, g_cv = scored.gradients()
    want_emb, want_cv = np.zeros_like(emb), np.zeros_like(cv)
    np.add.at(want_emb, rows, coef[:, None] * S)
    back = emb[rows] * coef[:, None]
    np.add.at(want_cv, nb.ravel(), (vals[:, :, None] * back[:, None, :]).reshape(-1, bank.dim))
    np.testing.assert_array_equal(g_emb, want_emb)
    np.testing.assert_array_equal(g_cv, want_cv)


def _scatter_instance(builder, storage, seed=23, n=9, t=11):
    """Data with about half its cells nonzero, stored as ``storage`` says
    (implicit zeros; every cell explicit; about 30% of explicit cells
    missing), the ``builder``'s context and a random bank."""
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((n, t)) < 0.5, rng.poisson(1.5, (n, t)) + 1.0, 0.0)
    values[:, 4] = 0.0
    values[2, 4] = 3.0  # an entry alone in its column
    data = dense_matrix(values, implicit_zero=storage == "implicit")
    if storage == "holey":
        data = data.select_entries(np.flatnonzero(rng.random(data.nnz) >= 0.3))
    if builder == "knn":
        ctx = build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), 3), data)
    elif builder == "basket":
        ctx = build_basket_context(data)
    else:
        ctx = build_window_context(t, WindowSpec(2), data)
    return data, ctx, rng


@pytest.mark.parametrize("builder, storage", [
    ("knn", "implicit"), ("knn", "complete"), ("knn", "holey"), ("basket", "implicit"),
    ("window", "implicit"), ("window", "complete"), ("window", "holey")])
def test_scatters_equal_add_at_oracle_byte_for_byte(builder, storage):
    data, ctx, rng = _scatter_instance(builder, storage)
    n_cells = CELL_CHUNK + 517  # the kNN scatter once went by chunks of cells
    rows = rng.integers(0, data.n_rows, n_cells)
    cols = rng.integers(0, data.n_cols, n_cells)
    if storage != "implicit":  # explicit batches hold stored cells only
        keep = data.lookup(rows, cols)[1]
        rows, cols = rows[keep], cols[keep]
    batch = cells(data, rows, cols)
    batch.weights = 10.0 ** rng.uniform(-3, 3, len(batch))
    coef = rng.normal(size=len(batch)) * 10.0 ** rng.uniform(-8, 8, len(batch))
    emb, cv = rng.normal(scale=0.3, size=(2, data.n_rows, 4))
    scored = ctx.block(data, emb, cv)
    scored.scatter_at(batch, coef)
    for got, want in zip(scored.gradients(), add_at_scatter(ctx, data, emb, cv, batch, coef)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if storage == "implicit":
        specs = [FamilySpec(Family.POISSON, Link.IDENTITY),
                 FamilySpec(Family.POISSON, Link.MEAN_IDENTITY),
                 FamilySpec(Family.ADDITIVE_POISSON, Link.LOG)]
    else:
        specs = [FamilySpec(Family.GAUSSIAN, Link.IDENTITY),
                 FamilySpec(Family.GAUSSIAN, Link.MEAN_IDENTITY)]
    for spec in specs:
        bank = EmbeddingBank(rng.normal(scale=0.3, size=(data.n_rows, 4)),
                             rng.normal(scale=0.3, size=(data.n_rows, 4)),
                             log_space=spec.needs_log_space)
        g = weighted_term_gradient(data, ctx, bank, spec, batch)
        ref = add_at_term_gradient(data, ctx, bank, spec, batch)
        for table, ref_table in ((g.embeddings, ref.embeddings),
                                 (g.context_vectors, ref.context_vectors)):
            np.testing.assert_array_equal(table.view(np.int64), ref_table.view(np.int64))


def _cells_in_row_major_order(data, rng, n_cells):
    """Random cells of ``data`` (stored ones only when it has missing cells),
    many repeated, rows 0 and 3 left empty, sorted by row-major key."""
    rows = rng.choice(np.setdiff1d(np.arange(data.n_rows), [0, 3]), n_cells)
    cols = rng.integers(0, data.n_cols, n_cells)
    if not data.implicit_zero:
        keep = data.lookup(rows, cols)[1]
        rows, cols = rows[keep], cols[keep]
    order = np.argsort(rows * data.n_cols + cols, kind="stable")
    return rows[order], cols[order]


@pytest.mark.parametrize("n_cells", [0, 1, 40, CELL_CHUNK + 517])
def test_cell_products_equal_add_at_oracle_byte_for_byte(n_cells):
    rng = np.random.default_rng(24)
    n_rows, n_cols = 9, 11
    rows = np.sort(rng.choice([1, 2, 4, 5, 8], n_cells))  # rows 0, 3, 6, 7 empty
    cols = rng.integers(0, n_cols, n_cells)
    starts = np.searchsorted(rows, np.arange(n_rows + 1))
    coef = rng.normal(size=n_cells) * 10.0 ** rng.uniform(-8, 8, n_cells)
    col_table, row_table = rng.normal(size=(n_cols, 4)), rng.normal(size=(n_rows, 4))
    got = cell_products(starts, cols, coef, col_table, row_table)
    want = add_at_cell_products(starts, cols, coef, col_table, row_table)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
    if n_cells:
        with pytest.raises(IndexError):
            cell_products(starts, np.full(n_cells, n_cols), coef, col_table, row_table)


@pytest.mark.parametrize("builder, storage", [
    ("basket", "implicit"), ("window", "implicit"), ("window", "complete"),
    ("window", "holey")])
@pytest.mark.parametrize("n_cells", [0, 1, 300, CELL_CHUNK + 517])
def test_row_major_scatters_equal_add_at_oracle_byte_for_byte(builder, storage, n_cells):
    # cells in row-major order, with their row starts, repeated cells and
    # empty rows: the coefficient matrix adds in the order of np.add.at
    data, ctx, rng = _scatter_instance(builder, storage)
    rows, cols = _cells_in_row_major_order(data, rng, n_cells)
    batches = [cells(data, rows, cols).row_major(data.n_rows, data.n_cols)[0]]
    if storage == "implicit" and n_cells:
        # the sparse estimator's two pieces: every stored entry, and the zero
        # cells with one value, storedness and weight for all
        zero = ~data.lookup(rows, cols)[1]
        batches.append(data.stored_terms())
        batches.append(TermBatch(rows[zero], cols[zero], 0.0, False, 3.5,
                                 np.searchsorted(rows[zero], np.arange(data.n_rows + 1))))
    emb, cv = rng.normal(scale=0.3, size=(2, data.n_rows, 4))
    for batch in batches:
        keys = batch.rows * data.n_cols + batch.cols
        assert (np.diff(keys) >= 0).all()
        np.testing.assert_array_equal(batch.row_starts,
                                      np.searchsorted(batch.rows, np.arange(data.n_rows + 1)))
        coef = rng.normal(size=len(batch)) * 10.0 ** rng.uniform(-8, 8, len(batch))
        scored = ctx.block(data, emb, cv)
        scored.scatter_at(batch, coef)
        for got, want in zip(scored.gradients(),
                             add_at_scatter(ctx, data, emb, cv, batch, coef)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("builder", ["basket", "window", "knn"])
def test_zero_piece_scores_as_its_batch_of_per_cell_arrays(builder):
    # zero cells with one value, storedness and weight for all read and
    # scatter as the same cells listed with per-cell arrays
    data, ctx, rng = _scatter_instance(builder, "implicit")
    rows, cols = _cells_in_row_major_order(data, rng, 700)
    zero = ~data.lookup(rows, cols)[1]
    rows, cols = rows[zero], cols[zero]
    starts = np.searchsorted(rows, np.arange(data.n_rows + 1))
    piece = TermBatch(rows, cols, 0.0, False, 3.5, starts)
    listed = TermBatch(rows, cols, np.zeros(len(rows)), np.zeros(len(rows), bool),
                       np.full(len(rows), 3.5), starts)
    emb, cv = rng.normal(scale=0.3, size=(2, data.n_rows, 4))
    coef = rng.normal(size=len(rows))
    passes = ctx.block(data, emb, cv), ctx.block(data, emb, cv)
    for scored, batch in zip(passes, (piece, listed)):
        scored.scatter_at(batch, coef)
    for got, want in zip(passes[0].at(piece), passes[1].at(listed)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(passes[0].gradients(), passes[1].gradients()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("builder", ["basket", "window"])
def test_shuffled_batch_scatters_as_its_row_major_grouping(builder):
    # a batch in any order is grouped by a stable sort of its cell keys, so
    # equal cells keep their batch order; the sums are those of the grouping
    data, ctx, rng = _scatter_instance(builder, "implicit")
    rows, cols = _cells_in_row_major_order(data, rng, CELL_CHUNK + 517)
    shuffle = rng.permutation(len(rows))
    batch = cells(data, rows[shuffle], cols[shuffle])
    grouped, order = batch.row_major(data.n_rows, data.n_cols)
    np.testing.assert_array_equal(order, np.argsort(
        batch.rows * data.n_cols + batch.cols, kind="stable"))
    coef = rng.normal(size=len(batch)) * 10.0 ** rng.uniform(-8, 8, len(batch))
    emb, cv = rng.normal(scale=0.3, size=(2, data.n_rows, 4))
    shuffled, in_order = ctx.block(data, emb, cv), ctx.block(data, emb, cv)
    shuffled.scatter_at(batch, coef)
    in_order.scatter_at(grouped, coef[order])
    for got, want in zip(shuffled.gradients(), in_order.gradients()):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("builder", ["basket", "window"])
def test_column_table_at_in_chunks_equals_whole_batch_gathers(builder):
    data, ctx, rng = _scatter_instance(builder, "implicit")
    rows, cols = _cells_in_row_major_order(data, rng, 2 * CELL_CHUNK + 123)
    batch = cells(data, rows, cols)
    emb, cv = rng.normal(scale=0.3, size=(2, data.n_rows, 4))
    H, counts = ctx.block(data, emb, cv).at(batch)
    members, _, colcount = (add_at_window_members(2, data) if builder == "window"
                            else add_at_basket_members(data))
    colsum = members @ cv
    want = np.einsum("ed,ed->e", emb[rows], colsum[cols])
    want_counts = colcount[cols]
    if builder == "basket":
        want -= batch.vals * np.einsum("nd,nd->n", emb, cv)[rows]
        want_counts = want_counts - batch.stored
    np.testing.assert_array_equal(H.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(counts, want_counts)
    # a pass made for a link that reads no counts gathers none
    H, counts = ctx.block(data, emb, cv, counts=False).at(batch)
    assert counts is None
    np.testing.assert_array_equal(H.view(np.int64), want.view(np.int64))
    bad = cells(data, np.r_[rows[:3], 1], np.r_[cols[:3], data.n_cols - 1])
    bad.cols[-1] = data.n_cols
    for call in (lambda p: p.at(bad), lambda p: p.scatter_at(bad, np.ones(4))):
        with pytest.raises(IndexError):
            call(ctx.block(data, emb, cv))
