"""Context construction: which other observations condition each data point.

Three builders cover the application patterns:

* spatial k-nearest-neighbor contexts (same column, nearby entities),
* same-column basket contexts (the other stored entries of a column),
* sliding window contexts over column positions (text).

A context map has one method, ``block(data, emb, cv, scratch=None)``, which
returns a pass over the cells of ``data``.  The pass gives the linear values
``emb[n] . sum_j x_j * cv[row_j]`` of cells with their member counts, and
adds coefficient-weighted gradients of those values into one pair of
(emb, cv) gradient tables, ``gradients()``.  It takes the cells two ways:

* ``table``/``scatter``: every cell of a ``ColumnBlock``, as matrix
  products of the entity relation, the data and the column relation (the
  exact objective, the full gradient and the held-out protocols);
* ``at``/``scatter_at``: the listed cells of a ``TermBatch``, one value
  per cell (the sampled estimators and the logged objective).

kNN members are read with ``DataMatrix.lookup``.  The column-table passes
(baskets, windows) go between entities and columns through the data's own
CSR operators: their per-column sums are ``data.Xt @ cv``, and the members'
share of the gradient ``data.X @ R`` for per-column coefficient sums R, so
no step gathers a table per stored entry.  They scatter the listed cells of
a batch, grouped in row-major cell order, through ``core.cell_products``:
one sparse coefficient matrix C of the cells, whose products C @ sums and
C.T @ emb add into the embedding rows and the per-column sums.  The kNN
pass and the basket's own-term correction scatter onto rows through
``core.scatter_rows``, one product with a sparse incidence matrix.  Each of
these products adds into a zeroed table in entry or cell order, so its sums
are byte for byte those of the ``add.at`` ufunc method into zeros.  The
window table reads its prefix sums in runs of positions, each window end a
slice or one edge row: the same rows as a gather at the clipped window ends,
and the same subtractions.

A pass takes its per-cell and window tables from ``scratch``, a
``core.Scratch`` that the caller keeps from step to step (a fresh one when
None), so a step maps no fresh table of that size; the kNN pass takes none.
A table that a pass returns from the scratch is valid until the next call
that takes the same table.  A member is a present cell: a cell missing from
explicit data is never one.  Maps are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import ColumnBlock, DataMatrix, Scratch, TermBatch, cell_products, scatter_rows
from .errors import ConfigError, DataError

# cells per chunk of a pass's ``at``, bounding its gathers: the kNN pass's
# (cells, k, dim) neighbour context vectors, the column-table passes' two
# (cells, dim) rows; ``scatter_at`` gathers no such array
CELL_CHUNK = 1 << 12


@dataclass(frozen=True)
class SpatialLayout:
    """Per-entity coordinates (zero-fill unused axes) and neighbor count."""

    positions: np.ndarray  # (N, 3)
    k: int


@dataclass(frozen=True)
class WindowSpec:
    """Symmetric window half-size (>= 1) over column positions."""

    half_width: int

    def __post_init__(self):
        if self.half_width < 1:
            raise ConfigError(f"half_width must be >= 1, got {self.half_width}", "half_width")


class KnnContext:
    """Same-column contexts over each entity's k nearest spatial neighbors;
    a neighbor whose cell is missing is not a member."""

    def __init__(self, neighbors: np.ndarray):
        self.neighbors = np.asarray(neighbors, dtype=np.int64)  # (N, k)

    def block(self, data, emb, cv, scratch=None):
        """One pass over the cells of ``data``.

        With S[n, t] = sum_{j in c(n, t)} x_j * cv[row_j], the pass's
        ``table(cells)`` returns (H, counts) for a ``ColumnBlock``: H[n, t] =
        emb[n] . S[n, t] for the block's cells and their member counts,
        broadcastable to H.  ``scatter(cells, coef)`` adds coef[n, t] times
        the gradient of H[n, t] with respect to emb and cv.  ``at(batch)``
        and ``scatter_at(batch, coef)`` do the same for the cells of a
        ``TermBatch``, with H and coef of one value per cell.
        ``gradients()`` returns the (emb, cv) sums of every scatter.  The
        other maps' ``block`` share this contract.  Here a block's H = M @
        x, where M holds emb[n] . cv[nb[n, k]] at (n, nb[n, k]), and the
        pass takes nothing from ``scratch``.
        """
        return _KnnPass(self.neighbors, data, emb, cv)


class BasketContext:
    """Contexts are the other stored entries of the same column."""

    def block(self, data, emb, cv, scratch=None):
        """See ``KnnContext.block``: H = emb @ colsum.T, less x[n, t] *
        (emb[n] . cv[n]) at each stored cell."""
        return _ColumnTablePass(data, emb, cv, _column_counts(data), lambda table, *_: table,
                                own=True, scratch=scratch)


class WindowContext:
    """Contexts are the stored entries at other columns within a window of
    ``half_width`` positions on either side, truncated at the ends."""

    def __init__(self, half_width: int):
        self.half_width = int(half_width)

    def _window_table(self, table: np.ndarray, scratch: Scratch, name: str) -> np.ndarray:
        """Per-position sum of `table` over the window, excluding the
        position, in the scratch table ``name``."""
        w, length = self.half_width, len(table)
        prefix = scratch.take("window prefix", (length + 1,) + table.shape[1:])
        prefix[0] = 0.0
        np.cumsum(table, axis=0, out=prefix[1:])
        # prefix[min(p + w + 1, length)] - prefix[max(p - w, 0)] for every
        # position p, in runs of positions where each end is a slice of the
        # prefix sums or one edge row
        hi, lo = min(w + 1, length), min(w, length)
        out = scratch.take(name, table.shape)
        cuts = sorted({0, lo, length - hi, length})
        for a, b in zip(cuts, cuts[1:]):
            upper = prefix[a + hi:b + hi] if b <= length - hi else prefix[length]
            lower = prefix[a - lo:b - lo] if a >= lo else prefix[0]
            np.subtract(upper, lower, out=out[a:b])
        out -= table
        return out

    def _counts(self, data: DataMatrix) -> np.ndarray:
        """Per column: the member count, computed once per data."""
        def build():
            counts = _column_counts(data)[:, None].astype(np.float64)
            return self._window_table(counts, Scratch(), "counts")[:, 0].astype(np.int64)
        return data.memo(("window counts", self.half_width), build)

    def block(self, data, emb, cv, scratch=None):
        """See ``KnnContext.block``: H = emb @ window_table(colsum).T."""
        return _ColumnTablePass(data, emb, cv, self._counts(data), self._window_table,
                                own=False, scratch=scratch)


def _column_tables(data: DataMatrix, cv: np.ndarray) -> np.ndarray:
    """Per column: the sum of x_j * cv[row_j] over its stored entries j."""
    return data.Xt @ cv


def _column_counts(data: DataMatrix) -> np.ndarray:
    """Per column: the count of its stored entries, computed once per data."""
    return data.memo("column counts", lambda: np.diff(data.Xt.indptr).astype(np.int64))


def _spread(data: DataMatrix, R):
    """(n_rows, dim) table whose row m sums x_j * R[col_j] over the stored
    entries j of row m."""
    return data.X @ R


def _neighbor_matrix(neighbors, weights):
    """Sparse (N, N) matrix holding weights[n, k] at (n, neighbors[n, k])."""
    n, k = neighbors.shape
    return sparse.csr_matrix((weights.ravel(), neighbors.ravel(), np.arange(0, n * k + 1, k)),
                             shape=(n, n))


class _KnnPass:
    """``KnnContext.block``: a block's H = M @ x, and its gradient through
    G[n, k] = sum_t coef[n, t] x[nb[n, k], t]; M, W and G are built by the
    first ``table`` and ``scatter``.  A listed cell's H = emb[n] . S, with S
    summed over its members' values and context vectors a chunk of cells
    at a time, and its gradient scattered onto its row and its members'."""

    def __init__(self, neighbors, data: DataMatrix, emb, cv):
        self.neighbors, self.data, self.emb, self.cv = neighbors, data, emb, cv
        self.M = self.W = self.G = None
        self.g_emb, self.g_cv = np.zeros_like(emb), np.zeros_like(cv)
        self._batch = self._members = None

    def table(self, cells: ColumnBlock):
        nb = self.neighbors
        if self.M is None:
            self.M = _neighbor_matrix(nb, np.einsum("nd,nkd->nk", self.emb, self.cv[nb]))
            # with no cell missing every neighbor is a member; else count the present ones
            if not self.data.every_cell_a_term:
                self.W = _neighbor_matrix(nb, np.ones(nb.shape))
        if self.W is None:
            return self.M @ cells.x, nb.shape[1]
        return self.M @ cells.x, (self.W @ cells.stored.astype(np.float64)).astype(np.int64)

    def scatter(self, cells: ColumnBlock, coef):
        if self.G is None:
            self.G = np.zeros(self.neighbors.shape)
        for k, nb in enumerate(self.neighbors.T):
            self.G[:, k] += np.einsum("nt,nt->n", coef, cells.x[nb])

    def _members_of(self, batch: TermBatch):
        """Per cell of ``batch``: its neighbor rows, their values (0 at
        missing cells), the count of present ones, the context sum S and the
        cell's embedding row, kept for a ``scatter_at`` of the same batch."""
        if self._batch is not batch:
            nb = self.neighbors[batch.rows]                        # (E, k)
            vals, present = self.data.lookup(nb, batch.cols[:, None])
            counts = np.full(len(nb), nb.shape[1], dtype=np.int64) \
                if self.data.every_cell_a_term else present.sum(axis=1)
            S = np.empty((len(nb), self.cv.shape[1]))
            for lo in range(0, len(nb), CELL_CHUNK):
                hi = lo + CELL_CHUNK
                S[lo:hi] = np.einsum("ek,ekd->ed", vals[lo:hi], self.cv[nb[lo:hi]])
            self._batch = batch
            self._members = nb, vals, counts, S, np.take(self.emb, batch.rows, axis=0)
        return self._members

    def at(self, batch: TermBatch):
        _, _, counts, S, emb_rows = self._members_of(batch)
        return np.einsum("ed,ed->e", emb_rows, S), counts

    def scatter_at(self, batch: TermBatch, coef):
        nb, vals, _, S, emb_rows = self._members_of(batch)
        self.g_emb += scatter_rows(batch.rows, S, len(self.emb), coef)
        self.g_cv += scatter_rows(nb, emb_rows * coef[:, None], len(self.cv), vals)

    def gradients(self):
        if self.G is None:
            return self.g_emb, self.g_cv
        G = _neighbor_matrix(self.neighbors, self.G)
        return self.g_emb + G @ self.cv, self.g_cv + G.T @ self.emb


class _ColumnTablePass:
    """``block`` of the contexts whose sums are per-column tables: S[n, t] =
    sums[t], less the cell's own stored term x[n, t] * cv[n] when ``own``
    (baskets).  ``spread(table, scratch, name)`` maps per-column tables
    onto per-column context tables (the window sum, or none).  It is
    symmetric, so it also carries the per-column coefficient sums R =
    coef.T @ emb back to the members' columns, once per pass."""

    def __init__(self, data: DataMatrix, emb, cv, counts, spread, own, scratch):
        self.data, self.emb, self.cv = data, emb, cv
        self.scratch = Scratch() if scratch is None else scratch
        self.spread = spread
        self.sums = spread(_column_tables(data, cv), self.scratch, "sums")
        self.counts = counts
        self.own = np.einsum("nd,nd->n", emb, cv) if own else None
        self.g_emb = np.zeros_like(emb)
        self.R = None  # set by the first scatter
        self.own_coef = np.zeros(len(emb))  # sum_t coef[n, t] * x[n, t]

    def table(self, cells: ColumnBlock):
        H = np.matmul(self.emb, self.sums[cells.cols].T,
                      out=self.scratch.take("H", cells.x.shape))
        counts = self.counts[cells.cols]
        if self.own is not None:
            H -= cells.x * self.own[:, None]
            counts = counts - cells.stored
        return H, counts

    def _drop_memberless(self, coef, cols, stored):
        """``coef`` with 0 at the cells that have no member: such a cell adds
        nothing, since its coefficient (which a floored rate makes huge)
        would cancel against its own term only up to rounding."""
        return np.where(self.counts[cols] > stored, coef, 0.0)

    def scatter(self, cells: ColumnBlock, coef):
        if self.own is not None:
            coef = self._drop_memberless(coef, cells.cols, cells.stored)
            self.own_coef += np.einsum("nt,nt->n", coef, cells.x)
        self.g_emb += coef @ self.sums[cells.cols]
        if self.R is None:
            self.R = np.zeros_like(self.sums)
        self.R[cells.cols] += coef.T @ self.emb

    def at(self, batch: TermBatch):
        H = self.scratch.take("H", (len(batch),))
        for lo in range(0, len(batch), CELL_CHUNK):
            hi = lo + CELL_CHUNK
            H[lo:hi] = np.einsum("ed,ed->e", np.take(self.emb, batch.rows[lo:hi], axis=0),
                                 np.take(self.sums, batch.cols[lo:hi], axis=0))
        # an unbuffered take: the columns of a batch are in range
        counts = np.take(self.counts, batch.cols, mode="clip",
                         out=self.scratch.take("counts", (len(batch),), self.counts.dtype))
        if self.own is not None and batch.stored.any():  # a piece of zeros has no own term
            H -= batch.vals * self.own[batch.rows]
            counts -= batch.stored
        return H, counts

    def scatter_at(self, batch: TermBatch, coef):
        batch, order = batch.row_major(len(self.emb), len(self.sums))
        if order is not None:
            coef = coef[order]
        if self.own is not None:
            coef = self._drop_memberless(coef, batch.cols, batch.stored)
            if batch.stored.any():
                self.own_coef += scatter_rows(batch.rows, batch.vals, len(self.emb), coef)
        g_emb, R = cell_products(batch.row_starts, batch.cols, coef, self.sums, self.emb)
        self.g_emb += g_emb
        if self.R is None:
            self.R = R
        else:
            self.R += R

    def gradients(self):
        R = np.zeros_like(self.sums) if self.R is None else self.R
        g_cv = _spread(self.data, self.spread(R, self.scratch, "spread"))
        if self.own is not None:
            self.g_emb -= self.own_coef[:, None] * self.cv
            g_cv -= self.own_coef[:, None] * self.emb
        return self.g_emb, g_cv


def knn_neighbors(positions: np.ndarray, k: int) -> np.ndarray:
    """k nearest entities per entity by Euclidean distance.

    All-pairs computation, one stable sort per row with the entity's own entry
    set to sort first; distance ties broken by lower entity id.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if not 1 <= k < n:
        raise ConfigError(f"neighbor count k={k} must satisfy 1 <= k < N={n}")
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, -1.0)
    return np.argsort(d2, axis=1, kind="stable")[:, 1:k + 1].astype(np.int64)


def build_knn_context(layout: SpatialLayout, data: DataMatrix) -> KnnContext:
    """Same-column context over each entity's k nearest neighbors."""
    pos = np.asarray(layout.positions, dtype=np.float64)
    if pos.shape[0] != data.n_rows:
        raise DataError(f"{pos.shape[0]} positions for {data.n_rows} entities")
    return KnnContext(knn_neighbors(pos, layout.k))


def build_basket_context(data: DataMatrix) -> BasketContext:
    """Each cell's context is the other stored entries of its column."""
    if not data.implicit_zero:
        raise DataError("basket contexts require implicit-zero data")
    return BasketContext()


def build_window_context(length: int, spec: WindowSpec, data: DataMatrix) -> WindowContext:
    """Symmetric window of half-size w over the positions of ``data``."""
    if data.n_cols != length:
        raise DataError("matrix length disagrees with window context")
    return WindowContext(spec.half_width)
