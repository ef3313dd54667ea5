"""Shared oracles and instance builders for the test suite.

The finite-difference gradient here is the independent oracle for every
analytic gradient: it only touches the objective function, never the
gradient code paths it checks.  ``members`` restates each context builder's
membership rule one cell at a time; the scalar loops (``ExplicitContext``,
``MemberPass``, ``scalar_linear_value`` and the scoring protocols) walk
those members entry by entry and never call the context passes they
check.  ``add_at_rows``, ``add_at_cell_products``, ``add_at_scatter`` and
``add_at_term_gradient`` are the scatters as ``np.add.at`` calls into
zeroed tables, the oracle of the library's incidence, coefficient-matrix
and CSR products;
``prefix_gather_window_table`` and ``dense_zero_cells`` are the window
table and the zero-cell lookup by plain fancy indexing.
``line_loop_read_triplets`` and ``fstring_write_triplets`` read and write a
triplet file one line at a time, the oracle of the run-at-a-time reader and
writer; given a family, the reader also checks each value by its own
statement of the family's value rule, the oracle of ``families.VALUE_RULES``.
``rebuild_ingest`` applies the ingest transforms to per-entry rows, columns
and values and builds one matrix at the end, the oracle of the chain of
matrices derived from their keys.  ``categorical_term_log_likelihoods`` and
``categorical_weighted_gradient`` score categorical columns as batches of
their active terms, one (columns, vocabulary) softmax table per batch: the
oracle of the column-block softmax.  ``serial_sparse_train`` is the sparse
estimator's training loop with every zero-cell draw taken on the calling
thread just before its step, the oracle of the one-step-ahead draw.
``lexsort_knn_neighbors`` and ``lexsort_interaction_pairs`` rank the
neighbours of one entity at a time and the off-diagonal pairs by a
three-key lexsort, the oracles of the one-sort kNN and pair rankings.
``fresh_table_log_likelihood`` is the per-cell log-likelihood with the
Bernoulli tables allocated afresh, the oracle of the scratch tables.
``dense_values`` is a matrix as one dense array (NaN at missing cells), and
``conditional_means``, ``term_squared_errors``, ``term_leave_one_out`` and
``term_leave_fraction_out`` score held-out cells as one ``TermBatch``
through the pass's ``at``: the oracles of the sorted-key lookup and of the
column-block protocols.  ``zero_bank`` is a bank of zero tables.
"""

import math

import numpy as np

from glembed.core import DataMatrix, EmbeddingBank, Link, TermBatch, sorted_keys
from glembed.contexts import (
    CELL_CHUNK,
    BasketContext,
    KnnContext,
    SpatialLayout,
    WindowContext,
    WindowSpec,
    build_basket_context,
    build_knn_context,
    build_window_context,
)
from glembed.dataio import _detect_delimiter, atomic_write, read_text, read_triplets
from glembed.errors import CompatibilityError, DataError
from glembed.evaluate import EvalReport
from glembed.families import (
    ClampCounters,
    Family,
    FamilySpec,
    _log_likelihood,
    _mean,
    _residual,
    _stored_gradients,
)
from glembed.train import (
    OptimizerState,
    _log_sample,
    adagrad_step,
    estimate_objective,
    objective,
    sparse_gradient,
)


def dense_values(data):
    """``data`` as a dense (n_rows, n_cols) array: absent cells read 0 in
    implicit-zero data and NaN (missing) otherwise."""
    shape = (data.n_rows, data.n_cols)
    x = np.zeros(shape) if data.implicit_zero else np.full(shape, np.nan)
    x[data.rows, data.cols] = data.vals
    return x


def fresh_table_log_likelihood(spec, svals, x, counters, scratch=None):
    """``families._log_likelihood`` with each Bernoulli table a new one, the
    same operations in the same order; other families call it as is."""
    if spec.family is not Family.BERNOULLI:
        return _log_likelihood(spec, svals, x, counters)
    softplus = np.abs(svals)
    np.negative(softplus, out=softplus)
    np.exp(softplus, out=softplus)
    np.log1p(softplus, out=softplus)
    softplus += np.maximum(svals, 0.0)
    ll = x * svals
    ll -= softplus
    return ll


def zero_bank(n_rows, dim, log_space=False, tied=False):
    """An ``EmbeddingBank`` of zero tables."""
    emb = np.zeros((n_rows, dim))
    return EmbeddingBank(emb, emb if tied else np.zeros((n_rows, dim)), log_space=log_space)


def linear_values_at(data, ctx, bank, spec, batch):
    """(linear values, member counts, active) of a batch of cells through
    the pass's ``at``: divided by the member count under a mean link, which
    drops an empty context (linear value 1.0, inactive)."""
    svals, counts = ctx.block(data, bank.effective_embeddings(),
                              bank.effective_context_vectors()).at(batch)
    active = np.ones(len(batch), dtype=bool)
    if spec.link.rescales_by_count:
        active = counts > 0
        svals = np.where(active, svals / np.maximum(counts, 1), 1.0)
    return svals, counts, active


def conditional_means(data, ctx, bank, spec, batch, counters=None):
    """Means of a batch of cells given their contexts, through the pass's
    ``at``: (means, active)."""
    svals, _, active = linear_values_at(data, ctx, bank, spec, batch)
    return _mean(spec, svals, counters), active


def term_squared_errors(data, ctx, bank, spec, test_data, entries):
    """Squared errors of the listed entries of ``test_data`` against their
    Gaussian means given their contexts in ``data``, scored as one
    ``TermBatch``, and whether any member was left: the term-path oracle of
    the column-block reader."""
    rows, cols = test_data.rows[entries], test_data.cols[entries]
    batch = TermBatch(rows, cols, test_data.vals[entries], data.lookup(rows, cols)[1])
    means, counts, _ = linear_values_at(data, ctx, bank, spec, batch)
    return (batch.vals - means) ** 2, counts > 0


def term_leave_one_out(test_data, ctx, bank, spec):
    """``evaluate.leave_one_out_mse`` through ``term_squared_errors``."""
    err2, keep = term_squared_errors(test_data, ctx, bank, spec, test_data,
                                     np.arange(test_data.nnz))
    return EvalReport.from_scores("leave_one_out_mse", err2[keep], int((~keep).sum()))


def term_leave_fraction_out(test_data, ctx, bank, spec, folds=4, seed=0):
    """``evaluate.leave_fraction_out_mse`` through ``term_squared_errors``."""
    fold_of = scalar_fold_of(test_data.n_rows, folds, seed)
    entry_fold = fold_of[test_data.rows]
    err2 = np.empty(test_data.nnz)
    keep = np.empty(test_data.nnz, dtype=bool)
    for f in range(folds):
        cells = np.flatnonzero(entry_fold == f)
        rest = test_data.select_entries(np.flatnonzero(entry_fold != f))
        err2[cells], keep[cells] = term_squared_errors(rest, ctx, bank, spec, test_data, cells)
    return EvalReport.from_scores("leave_fraction_out_mse", err2[keep], int((~keep).sum()))


def fd_gradient(data, ctx, bank, spec, reg_weight, regularizer="l2",
                zero_weight=1.0, step=1e-6):
    """Central finite differences of the full objective in stored coordinates."""
    g_emb = np.zeros_like(bank.embeddings)
    g_cv = np.zeros_like(bank.context_vectors)
    for table, g in ((bank.embeddings, g_emb), (bank.context_vectors, g_cv)):
        for idx in np.ndindex(*table.shape):
            orig = table[idx]
            table[idx] = orig + step
            up = objective(data, ctx, bank, spec, reg_weight, regularizer, zero_weight)
            table[idx] = orig - step
            down = objective(data, ctx, bank, spec, reg_weight, regularizer, zero_weight)
            table[idx] = orig
            g[idx] = (up - down) / (2 * step)
        if bank.tied:
            return g_emb, g_emb
    return g_emb, g_cv


def assert_grad_close(analytic, fd_pair, rtol=1e-5, atol=1e-7):
    fd_emb, fd_cv = fd_pair
    np.testing.assert_allclose(analytic.embeddings, fd_emb, rtol=rtol, atol=atol)
    np.testing.assert_allclose(analytic.context_vectors, fd_cv, rtol=rtol, atol=atol)


def scalar_fold_of(n_rows, folds, seed):
    """Entity folds of the leave-fraction-out protocol, assigned one by one."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n_rows, dtype=np.int64)
    perm = rng.permutation(n_rows)
    for rank, row in enumerate(perm.tolist()):
        fold_of[row] = rank % folds
    return fold_of


def members(ctx, data, row, col):
    """Cells (row_j, col_j) in the context of cell (row, col) of ``data``.
    A cell missing from explicit data is never a member."""
    if isinstance(ctx, ExplicitContext):
        listed = ctx.mapping.get((row, col), [])
    elif isinstance(ctx, KnnContext):
        listed = [(int(m), col) for m in ctx.neighbors[row]]
    else:
        listed = list(zip(data.rows.tolist(), data.cols.tolist()))
        if isinstance(ctx, BasketContext):
            listed = [(m, c) for m, c in listed if c == col and m != row]
        elif isinstance(ctx, WindowContext):
            listed = [(m, c) for m, c in listed if 0 < abs(c - col) <= ctx.half_width]
        else:
            raise TypeError(f"no membership rule for {type(ctx).__name__}")
    stored = set(zip(data.rows.tolist(), data.cols.tolist()))
    return [j for j in listed if data.implicit_zero or j in stored]


class ExplicitContext:
    """Context map given as an explicit cell -> member cells dictionary; its
    block pass walks ``members`` one cell at a time."""

    def __init__(self, mapping):
        self.mapping = {cell: [tuple(j) for j in js] for cell, js in mapping.items()}

    @classmethod
    def of(cls, ctx, data):
        """The members of every cell of ``data`` under ``ctx``, listed."""
        return cls({(r, c): members(ctx, data, r, c)
                    for r in range(data.n_rows) for c in range(data.n_cols)})

    def block(self, data, emb, cv, scratch=None):
        """A ``MemberPass``; like the kNN pass it takes nothing from ``scratch``."""
        return MemberPass(self, data, emb, cv)


def add_at_rows(idx, v, n, scale=None):
    """``core.scatter_rows`` as ``np.add.at`` into zeros: its byte-level
    oracle."""
    idx = np.asarray(idx)
    tail = (1,) * (idx.ndim - 1)
    contrib = v.reshape(v.shape[:1] + tail + v.shape[1:])
    if scale is not None:
        contrib = scale.reshape(scale.shape + (1,) * (v.ndim - 1)) * contrib
    contrib = np.broadcast_to(contrib, idx.shape + v.shape[1:]).reshape((idx.size,) + v.shape[1:])
    out = np.zeros((n,) + v.shape[1:])
    np.add.at(out, idx.ravel(), contrib)
    return out


def lexsort_knn_neighbors(positions, k):
    """``contexts.knn_neighbors`` one entity at a time: a lexsort of its row
    of squared distances by (distance, id), less the entity itself."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    ids = np.arange(n)
    neighbors = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        order = np.lexsort((ids, d2[i]))
        neighbors[i] = order[order != i][:k]
    return neighbors


def lexsort_interaction_pairs(bank, direction, count):
    """``analyze.interaction_pairs`` as (a, b, score) triples: a lexsort of the
    off-diagonal scores by (score, a, b), highest or lowest first."""
    scores = bank.effective_embeddings() @ bank.effective_context_vectors().T
    a_idx, b_idx = np.nonzero(~np.eye(len(scores), dtype=bool))
    flat = scores[a_idx, b_idx]
    order = np.lexsort((b_idx, a_idx, -flat if direction == "highest" else flat))[:count]
    return [(int(a_idx[i]), int(b_idx[i]), float(flat[i])) for i in order]


def prefix_gather_window_table(half_width, table):
    """``WindowContext._window_table`` as a fancy-index gather of the prefix
    sums at min(p + w + 1, L) and max(p - w, 0) for every position p."""
    w, length = half_width, len(table)
    prefix = np.concatenate([np.zeros((1,) + table.shape[1:]), np.cumsum(table, axis=0)])
    p = np.arange(length)
    return prefix[np.minimum(p + w + 1, length)] - prefix[np.maximum(p - w, 0)] - table


# the values each family's data may hold, one value at a time, and the
# message of a value outside them
LINE_LOOP_VALUE_RULES = {
    Family.POISSON: (lambda v: v >= 0, "poisson data must be nonnegative"),
    Family.ADDITIVE_POISSON: (lambda v: v >= 0, "additive_poisson data must be nonnegative"),
    Family.BERNOULLI: (lambda v: v in (0.0, 1.0), "bernoulli data must be 0/1"),
    Family.CATEGORICAL: (lambda v: v in (0.0, 1.0),
                         "categorical entries must be indicator values 1"),
}


def line_loop_read_triplets(path, family=None):
    """``dataio.read_triplets`` one line at a time: each line is split,
    stripped and parsed with ``float`` on its own.  Given ``family``, a
    value that its ``LINE_LOOP_VALUE_RULES`` entry refuses is a faulty line,
    as ``dataio.ingest(path, family=family)`` reads the file."""
    holds, message = LINE_LOOP_VALUE_RULES.get(family, (lambda v: True, None))
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    delim = _detect_delimiter(lines[0])
    row_index, col_index = {}, {}
    rows, cols, vals = [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(delim)
        if len(parts) != 3:
            raise DataError(f"{path}:{ln}: expected 3 fields, got {len(parts)}")
        rk, ck, vtext = (p.strip() for p in parts)
        for key in (rk, ck):
            if "\t" in key:
                raise DataError(f"{path}:{ln}: tab inside id {key!r}")
        try:
            v = float(vtext)
        except ValueError:
            raise DataError(f"{path}:{ln}: bad value {vtext!r}") from None
        if not math.isfinite(v):
            raise DataError(f"{path}:{ln}: non-finite value {vtext!r}")
        if not holds(v):
            raise DataError(f"{path}:{ln}: {message}")
        rows.append(row_index.setdefault(rk, len(row_index)))
        cols.append(col_index.setdefault(ck, len(col_index)))
        vals.append(v)
    row_labels, col_labels = list(row_index), list(col_index)
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    _, _, e = sorted_keys(rows * len(col_labels) + cols)
    if e >= 0:
        ln = [n for n, line in enumerate(lines[1:], start=2) if line.strip()][e]
        raise DataError(f"{path}:{ln}: duplicate entry for "
                        f"({row_labels[rows[e]]}, {col_labels[cols[e]]})")
    return row_labels, col_labels, rows, cols, np.asarray(vals, np.float64)


def rebuild_ingest(path, *, implicit_zero=False, lag=False, rating_shift=False,
                   min_row_count=0, min_col_count=0, row_vocab=None):
    """``dataio.ingest`` on the file's per-entry rows, columns and values:
    each transform rewrites them in entry order, and one ``DataMatrix`` is
    built from them at the end."""
    row_labels, col_labels, rows, cols, vals = read_triplets(path)
    if row_vocab is not None:
        lookup = {k: i for i, k in enumerate(row_vocab)}
        try:
            remap = np.asarray([lookup[k] for k in row_labels], np.int64)
        except KeyError as e:
            raise CompatibilityError(f"row id {e.args[0]!r} not in the model vocabulary") from None
        rows = remap[rows]
        row_labels = list(row_vocab)
    n_rows, n_cols = len(row_labels), len(col_labels)
    if lag:
        # lag cell (r, c) is x[r, c + 1] - x[r, c], absent cells read as 0;
        # implicit-zero data list only the cells an entry touches, explicit
        # data every cell, in key order
        if n_cols < 2:
            raise DataError("lag transform needs at least 2 columns")
        col_labels = col_labels[1:]
        n_cols -= 1
        later, earlier = cols > 0, cols < n_cols
        k_later = rows[later] * n_cols + cols[later] - 1
        k_earlier = rows[earlier] * n_cols + cols[earlier]
        keys = np.union1d(k_later, k_earlier) if implicit_zero else np.arange(n_rows * n_cols)
        plus, minus = np.zeros(len(keys)), np.zeros(len(keys))
        plus[np.searchsorted(keys, k_later)] = vals[later]
        minus[np.searchsorted(keys, k_earlier)] = vals[earlier]
        rows, cols = np.divmod(keys, n_cols)
        vals = plus - minus
    if rating_shift:
        vals = vals - 2.0
        vals = np.where(vals < 0.0, 0.0, vals)
    if implicit_zero:
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if min_row_count > 0:
        keep, rows, row_labels = _min_count_filter(rows, row_labels, min_row_count)
        cols, vals = cols[keep], vals[keep]
    if min_col_count > 0:
        keep, cols, col_labels = _min_count_filter(cols, col_labels, min_col_count)
        rows, vals = rows[keep], vals[keep]
    return DataMatrix(len(row_labels), len(col_labels), rows, cols, vals,
                      implicit_zero=implicit_zero, row_labels=row_labels, col_labels=col_labels)


def _min_count_filter(ids, labels, min_count):
    """Keep the ids of at least ``min_count`` entries, renumbered from 0 in
    order: (the mask of the entries kept, their new ids, the kept labels)."""
    kept = np.flatnonzero(np.bincount(ids, minlength=len(labels)) >= min_count)
    remap = np.full(len(labels), -1, np.int64)
    remap[kept] = np.arange(len(kept))
    new = remap[ids]
    keep = new >= 0
    return keep, new[keep], [labels[i] for i in kept]


def fstring_write_triplets(path, data):
    """``dataio.write_triplets`` with one f-string per entry."""
    rl = data.row_labels or [str(i) for i in range(data.n_rows)]
    cl = data.col_labels or [str(i) for i in range(data.n_cols)]
    lines = ["row\tcol\tvalue"]
    for r, c, v in zip(data.rows.tolist(), data.cols.tolist(), data.vals.tolist()):
        lines.append(f"{rl[r]}\t{cl[c]}\t{v:.17g}")
    atomic_write(path, "\n".join(lines) + "\n")


def dense_zero_cells(data, q):
    """``DataMatrix.zero_cells`` of implicit-zero data by indexing every
    zero cell id of the dense matrix at the sorted queries."""
    ids = np.flatnonzero(dense_values(data).ravel() == 0.0)[np.sort(np.asarray(q, dtype=np.int64))]
    return ids // data.n_cols, ids % data.n_cols


def add_at_cell_products(starts, cols, coef, col_table, row_table):
    """``core.cell_products`` as ``np.add.at`` calls into zeros: its
    byte-level oracle."""
    rows = np.repeat(np.arange(len(row_table)), np.diff(starts))
    by_row = np.zeros((len(row_table),) + col_table.shape[1:])
    np.add.at(by_row, rows, coef[:, None] * col_table[cols])
    by_col = np.zeros((len(col_table),) + row_table.shape[1:])
    np.add.at(by_col, cols, coef[:, None] * row_table[rows])
    return by_row, by_col


def add_at_scatter(ctx, data, emb, cv, batch, coef):
    """``scatter_at(batch, coef)`` of a kNN, basket or window pass, then its
    ``gradients()``, as ``np.add.at`` calls: the kNN contributions in batch
    order, one chunk of cells at a time; the basket and window ones over
    the batch in row-major cell order, equal cells in batch order (a 0-d
    value or storedness holds for every cell), with the basket's own-term
    coefficients summed per row and taken off after the column spread."""
    g_emb, g_cv = np.zeros_like(emb), np.zeros_like(cv)
    if isinstance(ctx, KnnContext):
        nb = ctx.neighbors[batch.rows]
        vals, _ = data.lookup(nb, batch.cols[:, None])
        S = np.einsum("ek,ekd->ed", vals, cv[nb])
        np.add.at(g_emb, batch.rows, coef[:, None] * S)
        back = emb[batch.rows] * coef[:, None]
        for lo in range(0, len(nb), CELL_CHUNK):
            hi = lo + CELL_CHUNK
            contrib = vals[lo:hi, :, None] * back[lo:hi, None, :]
            np.add.at(g_cv, nb[lo:hi].ravel(), contrib.reshape(-1, cv.shape[1]))
        return g_emb, g_cv
    order = np.argsort(batch.rows * data.n_cols + batch.cols, kind="stable")
    rows, cols, vals, stored, coef = (np.broadcast_to(a, order.shape)[order]
                                      for a in (batch.rows, batch.cols, batch.vals,
                                                batch.stored, coef))
    colsum = np.zeros((data.n_cols, cv.shape[1]))
    np.add.at(colsum, data.cols, data.vals[:, None] * cv[data.rows])
    if isinstance(ctx, WindowContext):
        colsum = prefix_gather_window_table(ctx.half_width, colsum)
    own_coef = np.zeros(len(emb))
    if isinstance(ctx, BasketContext):
        # a cell with no member (alone in its column) adds nothing
        colcount = np.bincount(data.cols, minlength=data.n_cols)
        coef = np.where(colcount[cols] > stored, coef, 0.0)
        np.add.at(own_coef, rows, coef * vals)
    np.add.at(g_emb, rows, coef[:, None] * colsum[cols])
    R = np.zeros((data.n_cols, emb.shape[1]))
    np.add.at(R, cols, coef[:, None] * emb[rows])
    if isinstance(ctx, WindowContext):
        R = prefix_gather_window_table(ctx.half_width, R)
    np.add.at(g_cv, data.rows, data.vals[:, None] * R[data.cols])
    if isinstance(ctx, BasketContext):
        g_emb -= own_coef[:, None] * cv
        g_cv -= own_coef[:, None] * emb
    return g_emb, g_cv


def add_at_term_gradient(data, ctx, bank, spec, batch):
    """``weighted_term_gradient`` with its scatters as ``np.add.at`` calls."""
    emb = bank.effective_embeddings()
    cv = bank.effective_context_vectors()
    svals, counts, active = linear_values_at(data, ctx, bank, spec, batch)
    resid = _residual(spec, svals, batch.vals, None)
    w = batch.weights
    coef = np.where(active, resid if w is None else resid * w, 0.0)
    if spec.link.rescales_by_count:
        coef = coef / np.maximum(counts, 1)
    return _stored_gradients(bank, emb, cv, *add_at_scatter(ctx, data, emb, cv, batch, coef))


class MemberPass:
    """``ctx.block`` of any context map, walking ``members`` one cell at a
    time: ``table``/``scatter`` over every cell of a column block,
    ``at``/``scatter_at`` over the cells of a batch."""

    def __init__(self, ctx, data, emb, cv):
        self.ctx, self.data, self.emb, self.cv = ctx, data, emb, cv
        self.g_emb = np.zeros_like(emb)
        self.g_cv = np.zeros_like(cv)

    def _block_cells(self, cells):
        """(n, t) of every cell of a column block, row by row."""
        cols = np.arange(self.data.n_cols)[cells.cols]
        return [(n, int(cols[t])) for n, t in np.ndindex(*cells.x.shape)]

    def _members(self, cells):
        """[(x_j, row_j) per member] of each cell (n, t) of ``cells``."""
        x = dense_values(self.data)
        for n, t in cells:
            yield [(x[j], j[0]) for j in members(self.ctx, self.data, n, t)]

    def _linear(self, cells):
        H, counts = [], []
        for (n, _), js in zip(cells, self._members(cells)):
            H.append(sum((xj * (self.emb[n] @ self.cv[m]) for xj, m in js), 0.0))
            counts.append(len(js))
        return np.array(H, dtype=np.float64), np.array(counts, dtype=np.int64)

    def _scatter(self, cells, coef):
        for (n, _), js, c in zip(cells, self._members(cells), coef):
            for xj, m in js:
                self.g_emb[n] += c * xj * self.cv[m]
                self.g_cv[m] += c * xj * self.emb[n]

    def table(self, cells):
        H, counts = self._linear(self._block_cells(cells))
        return H.reshape(cells.x.shape), counts.reshape(cells.x.shape)

    def scatter(self, cells, coef):
        self._scatter(self._block_cells(cells), coef.ravel())

    def at(self, batch):
        return self._linear(list(zip(batch.rows.tolist(), batch.cols.tolist())))

    def scatter_at(self, batch, coef):
        self._scatter(list(zip(batch.rows.tolist(), batch.cols.tolist())), coef)

    def gradients(self):
        return self.g_emb, self.g_cv


def scalar_linear_value(data, ctx, bank, link, row, col, drop_rows=()):
    """emb[row] . sum_j x_j * cv[row_j] over the members of (row, col) whose
    row is not in ``drop_rows``, divided by their number under a mean link;
    None when no member is left."""
    kept = [j for j in members(ctx, data, row, col) if j[0] not in drop_rows]
    if not kept:
        return None
    cv = bank.effective_context_vectors()
    x = dense_values(data)
    total = np.zeros(bank.dim)
    for j in kept:
        total += x[j] * cv[j[0]]
    if link.rescales_by_count:
        total /= len(kept)
    return float(bank.effective_embeddings()[row] @ total)


def scalar_leave_fraction_out(test_data, ctx, bank, spec, folds=4, seed=0):
    """Reference leave-fraction-out squared error: per entry, the context
    members outside the entry's fold, summed one at a time."""
    fold_of = scalar_fold_of(test_data.n_rows, folds, seed)
    err2 = []
    excluded = 0
    for r, c, x in zip(test_data.rows.tolist(), test_data.cols.tolist(),
                       test_data.vals.tolist()):
        fold_mates = set(np.flatnonzero(fold_of == fold_of[r]).tolist())
        pred = scalar_linear_value(test_data, ctx, bank, spec.link, r, c, fold_mates)
        if pred is None:
            excluded += 1
        else:
            err2.append((x - pred) ** 2)
    return EvalReport.from_scores("leave_fraction_out_mse", np.array(err2), excluded)


def scalar_npll(test_data, ctx, bank, spec):
    """Reference normalized predictive log-likelihood: the conditional-mean
    table of every entity at every held-out column, scored entry by entry."""
    n = test_data.n_rows
    cols_with = np.unique(test_data.cols)
    col_pos = {int(c): i for i, c in enumerate(cols_with)}
    rows_all = np.tile(np.arange(n, dtype=np.int64), len(cols_with))
    cols_all = np.repeat(cols_with, n)
    xv = dense_values(test_data)[rows_all, cols_all]
    means, active = conditional_means(test_data, ctx, bank, spec,
                                      TermBatch(rows_all, cols_all, xv, xv != 0.0))
    mean_table = np.where(active, means, 0.0).reshape(len(cols_with), n)
    normalizer = mean_table.sum(axis=1)
    scores = []
    excluded = 0
    for r, c in zip(test_data.rows.tolist(), test_data.cols.tolist()):
        i = col_pos[c]
        mu = mean_table[i, r]
        z = normalizer[i]
        if mu <= 0.0 or z <= 0.0 or not np.isfinite(z):
            excluded += 1
            continue
        scores.append(math.log(mu / z))
    return EvalReport.from_scores("normalized_predictive_ll", np.array(scores), excluded)


def dense_draw_zero_cells(data, n_terms, per_term, rng):
    """Reference zero-cell draw: the same random index draws as
    ``train._draw_zero_cells``, mapped through every zero cell id of the
    dense matrix."""
    n_zero = int((dense_values(data) == 0.0).sum())
    if n_zero == 0 or n_terms == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0, n_zero
    k = min(per_term, n_zero)
    if k == n_zero:
        picked = np.tile(np.arange(n_zero), n_terms)
    else:
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
    return *dense_zero_cells(data, picked), n_terms * k, n_zero


def serial_sparse_train(data, ctx, spec, config):
    """``train`` of the sparse estimator as a serial loop: the same seeded
    streams, then per step the zero-cell draw inside ``sparse_gradient`` and
    the Adagrad step, all on the calling thread.  Returns the bank and the
    log as (iteration, objective, stderr, eta_clamped, rate_floored)."""
    bank = EmbeddingBank.init_random(data.n_rows, config.dim, seed=config.seed,
                                     log_space=spec.needs_log_space, tied=config.tied,
                                     scale=config.init_scale)
    rng, log_rng = (np.random.default_rng(s)
                    for s in np.random.SeedSequence(config.seed).spawn(2))
    state = OptimizerState.for_bank(bank)
    counters = ClampCounters()
    sample = _log_sample(data, spec, log_rng)
    log = []

    def record(it):
        obj, stderr = estimate_objective(data, ctx, bank, spec, config, sample, counters)
        log.append((it, obj, stderr, counters.eta_clamped, counters.rate_floored))
        counters.reset()

    record(0)
    for it in range(1, config.n_iterations + 1):
        g = sparse_gradient(data, ctx, bank, spec, config, rng, counters=counters)
        adagrad_step(g, state, bank, config)
        if it % config.log_every == 0 or it == config.n_iterations:
            record(it)
    return bank, log


def cells(data, rows, cols):
    """TermBatch of the given cells of ``data`` with their stored values."""
    return TermBatch(rows, cols, *data.lookup(rows, cols))


def dense_lag(rows, cols, vals, n_rows, n_cols, implicit_zero):
    """Reference lag transform on the dense matrix: (rows, cols, vals) of
    x[:, 1:] - x[:, :-1], nonzero cells only when ``implicit_zero``."""
    dense = np.zeros((n_rows, n_cols))
    dense[rows, cols] = vals
    dense = dense[:, 1:] - dense[:, :-1]
    rr, cc = np.nonzero(dense) if implicit_zero else np.indices(dense.shape).reshape(2, -1)
    rr, cc = rr.ravel(), cc.ravel()
    return rr, cc, dense[rr, cc]


def dense_matrix(values, implicit_zero=False):
    """DataMatrix from a dense 2-D array; zeros stored only when explicit."""
    values = np.asarray(values, dtype=np.float64)
    n, t = values.shape
    if implicit_zero:
        rows, cols = np.nonzero(values)
    else:
        rows, cols = np.indices(values.shape).reshape(2, -1)
    return DataMatrix(n, t, rows.ravel(), cols.ravel(),
                      values[rows.ravel(), cols.ravel()], implicit_zero=implicit_zero)


def sparse_counts(n, t, nnz, seed):
    """Implicit-zero (n, t) counts of 1-3 at ``nnz`` distinct random cells."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(n * t, nnz, replace=False)
    return DataMatrix(n, t, keys // t, keys % t, rng.integers(1, 4, nnz).astype(np.float64),
                      implicit_zero=True)


def gaussian_instance(seed, n=5, t=8, k=3, knn=2, log_space=False, scale=0.3):
    rng = np.random.default_rng(seed)
    data = dense_matrix(rng.normal(size=(n, t)))
    ctx = build_knn_context(SpatialLayout(rng.uniform(size=(n, 3)), knn), data)
    bank = EmbeddingBank(rng.normal(scale=scale, size=(n, k)),
                         rng.normal(scale=scale, size=(n, k)), log_space=log_space)
    return data, ctx, bank


def count_instance(seed, n=5, t=8, k=3, density=0.45, log_space=False, scale=0.25):
    rng = np.random.default_rng(seed)
    counts = np.where(rng.random((n, t)) < density, rng.poisson(1.5, (n, t)) + 1, 0)
    if counts.sum() == 0:
        counts[0, 0] = 1
    data = dense_matrix(counts.astype(np.float64), implicit_zero=True)
    ctx = build_basket_context(data)
    bank = EmbeddingBank(rng.normal(scale=scale, size=(n, k)),
                         rng.normal(scale=scale, size=(n, k)), log_space=log_space)
    return data, ctx, bank


def text_instance(seed, vocab=5, length=8, k=3, w=2, scale=0.3):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, vocab, size=length)
    data = DataMatrix(vocab, length, words, np.arange(length), np.ones(length),
                      implicit_zero=True)
    ctx = build_window_context(length, WindowSpec(w), data)
    bank = EmbeddingBank(rng.normal(scale=scale, size=(vocab, k)),
                         rng.normal(scale=scale, size=(vocab, k)))
    return data, ctx, bank


def family_instance(family, seed, **kw):
    """Matched (data, ctx, bank, spec) for any family at test scale."""
    if family is Family.GAUSSIAN:
        data, ctx, bank = gaussian_instance(seed, **kw)
        return data, ctx, bank, FamilySpec(Family.GAUSSIAN, Link.IDENTITY, sigma2=0.8)
    if family is Family.NONNEG_GAUSSIAN:
        data, ctx, bank = gaussian_instance(seed, log_space=True, **kw)
        return data, ctx, bank, FamilySpec(Family.NONNEG_GAUSSIAN, Link.IDENTITY, sigma2=1.2)
    if family is Family.POISSON:
        data, ctx, bank = count_instance(seed, **kw)
        return data, ctx, bank, FamilySpec(Family.POISSON, Link.IDENTITY)
    if family is Family.ADDITIVE_POISSON:
        data, ctx, bank = count_instance(seed, log_space=True, **kw)
        return data, ctx, bank, FamilySpec(Family.ADDITIVE_POISSON, Link.LOG)
    if family is Family.BERNOULLI:
        data, ctx, bank = text_instance(seed, **kw)
        return data, ctx, bank, FamilySpec(Family.BERNOULLI, Link.IDENTITY)
    data, ctx, bank = text_instance(seed, **kw)
    return data, ctx, bank, FamilySpec(Family.CATEGORICAL, Link.IDENTITY,
                                       vocab_size=data.n_rows)


def active_terms(data):
    """The single active row per column of categorical indicator data."""
    act = np.full(data.n_cols, -1, dtype=np.int64)
    act[data.cols] = data.rows
    if (act < 0).any():
        raise DataError("categorical data needs one active term per column")
    return act


def _vocabulary_table(data, ctx, bank, spec, batch):
    """Per vocabulary row v, the pass of ``ctx.block`` whose every embedding
    row is emb[v]; and the (columns, vocabulary) linear values, the member
    counts and the columns kept under the empty-context policy, from those
    passes' ``at`` at the batch's active terms."""
    emb = bank.effective_embeddings()
    passes = [ctx.block(data, np.tile(e, (len(emb), 1)), bank.effective_context_vectors())
              for e in emb]
    at = [p.at(batch) for p in passes]
    H, counts = np.stack([h for h, _ in at], axis=1), at[0][1]
    active = np.ones(len(batch), dtype=bool)
    if spec.link.rescales_by_count:
        active = counts > 0
        H = H / np.maximum(counts, 1)[:, None]
    return passes, H, counts, active


def categorical_term_log_likelihoods(data, ctx, bank, spec, batch, counters=None):
    """Softmax log-likelihood of the active term of each column of a batch
    whose rows are the active terms and cols their columns."""
    _, H, _, active = _vocabulary_table(data, ctx, bank, spec, batch)
    Hm = H - H.max(axis=1, keepdims=True)
    lse = np.log(np.exp(Hm).sum(axis=1)) + H.max(axis=1)
    ll = H[np.arange(len(batch)), batch.rows] - lse
    return np.where(active, ll, 0.0), active


def categorical_weighted_gradient(data, ctx, bank, spec, batch, counters=None):
    """Gradient of the weighted softmax log-likelihood of the batch's
    columns: row v's coefficient at a column is the column's weight times
    its one-hot minus softmax residual, scattered by the ``scatter_at`` of
    row v's pass."""
    emb = bank.effective_embeddings()
    cv = bank.effective_context_vectors()
    passes, H, counts, active = _vocabulary_table(data, ctx, bank, spec, batch)
    w = np.where(active, 1.0 if batch.weights is None else batch.weights, 0.0)
    expH = np.exp(H - H.max(axis=1, keepdims=True))
    resid = -expH / expH.sum(axis=1, keepdims=True)
    resid[np.arange(len(batch)), batch.rows] += 1.0  # one-hot minus softmax
    coef = w[:, None] * resid
    if spec.link.rescales_by_count:
        coef = coef / np.maximum(counts, 1)[:, None]
    g_emb, g_cv = np.zeros_like(emb), np.zeros_like(cv)
    for v, scored in enumerate(passes):
        scored.scatter_at(batch, coef[:, v])
        row_emb, row_cv = scored.gradients()
        g_emb[v] = row_emb.sum(axis=0)
        g_cv += row_cv
    return _stored_gradients(bank, emb, cv, g_emb, g_cv)
