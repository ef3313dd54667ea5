"""Data model: sparse observation matrices, parameter banks, links.

Observations live in a sparse row/column matrix where the row indexes an
entity (neuron, item, vocabulary term) and the column indexes an occasion
(time frame, shopping trip, text position).  Each observation is modeled
conditional on the values at a set of other indices (its context), through
a natural parameter of the form

    eta = link( embedding[row] . sum_{j in context} context_vector[row_j] * x_j )

Mean-rescaled links divide the context sum by the number of members before
applying the base link.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's Generator of ``seed``; a negative seed is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", "seed")
    return np.random.default_rng(seed)


def sorted_cell_keys(rows: np.ndarray, cols: np.ndarray, n_cols: int):
    """Sorted row-major keys ``row * n_cols + col`` of a list of cells, the
    stable permutation that sorts them (None when the cells are listed in
    strictly increasing key order, so already sorted and distinct), and the
    first entry, in entry order, whose cell an earlier entry already holds
    (-1 when all are distinct)."""
    keys = np.multiply(rows, n_cols, dtype=np.int64)
    keys += cols
    if np.all(keys[1:] > keys[:-1]):
        return keys, None, -1
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # equal keys keep their entry order, so each later copy follows an equal key
    repeats = order[1:][keys[1:] == keys[:-1]]
    return keys, order, int(repeats.min()) if len(repeats) else -1


def scatter_rows(idx, v: np.ndarray, n: int, scale=None) -> np.ndarray:
    """Sums of the rows of ``v`` by index: out[i] is the sum of scale[p] *
    v[p[0]] over the positions p of ``idx`` with idx[p] == i.

    ``v`` is (E,) or (E, d), and ``out`` (n,) or (n, d).  ``idx`` is (E,),
    or (E, k) when ``scale`` (None for ones) is (E, k) too.  The sums are
    one product with the sparse (n, E) incidence matrix whose column e
    holds scale[e, :] at rows idx[e, :].  Its CSC product adds each
    scale[p] * v[p[0]] into a zeroed table in C order of the positions p:
    the same products added in the same order as by the unbuffered
    ``add.at`` ufunc method into zeros, so the sums are equal byte for
    byte.
    """
    idx = np.asarray(idx)
    k = idx.shape[1] if idx.ndim == 2 else 1
    # int32 indices when they fit, as scipy would pick after a pass over them
    itype = np.int32 if max(n, idx.size) < 2**31 else np.int64
    w = np.ones(idx.size) if scale is None else np.ravel(scale)
    incidence = sparse.csc_matrix(
        (w, idx.ravel().astype(itype), np.arange(0, idx.size + 1, k, dtype=itype)),
        shape=(n, len(v)))
    return incidence @ v


def cell_products(starts, cols, coef, col_table: np.ndarray, row_table: np.ndarray):
    """(C @ col_table, C.T @ row_table) for the sparse (len(row_table),
    len(col_table)) coefficient matrix C whose row n holds coef[e] at column
    cols[e] for the cells e in starts[n]:starts[n + 1].

    Its CSR product adds each coef[e] * col_table[cols[e]] into zeroed row
    n, and the CSC product of C.T each coef[e] * row_table[n] into zeroed
    row cols[e], both in order of e: the same products added in the same
    order as by the ``add.at`` ufunc method into zeros over the cells in
    order, so the sums are equal byte for byte.  A column outside
    ``col_table`` raises an IndexError.
    """
    cols = np.asarray(cols)
    shape = (len(row_table), len(col_table))
    if len(cols) and not 0 <= cols.min() <= cols.max() < shape[1]:
        raise IndexError(f"cell column outside 0..{shape[1] - 1}")
    itype = np.int32 if max(*shape, len(cols)) < 2**31 else np.int64
    C = sparse.csr_matrix((coef, cols.astype(itype), np.asarray(starts, dtype=itype)),
                          shape=shape)
    return C @ col_table, C.T @ row_table


class Scratch:
    """Named work tables that one caller's passes reuse from call to call,
    so that a step maps and zeroes no fresh multi-megabyte table.

    ``take`` returns the table last taken under ``name`` when its shape and
    dtype match, else a new one; its contents are left as they were, and it
    stays valid until ``name`` is taken again.
    """

    def __init__(self):
        self._tables: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        table = self._tables.get(name)
        if table is None or table.shape != shape or table.dtype != dtype:
            table = self._tables[name] = np.empty(shape, dtype)
        return table


def _csr(rows, cols, vals, shape):
    """The entries (rows, cols, vals) as a CSR matrix of ``shape``, each
    row's entries in entry order (a stable sort by row)."""
    order = np.argsort(rows, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    itype = np.int32 if max(*shape, len(rows)) < 2**31 else np.int64
    return sparse.csr_matrix((vals[order], cols[order].astype(itype), starts.astype(itype)),
                             shape=shape)


def _split_sorted_keys(keys: np.ndarray, n_rows: int, n_cols: int):
    """(rows, cols, starts) of nondecreasing row-major cell keys: the cells
    of row n are starts[n]:starts[n + 1].  A search per row replaces the
    integer division per key."""
    starts = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    rows = np.repeat(np.arange(n_rows), np.diff(starts))
    return rows, keys - rows * n_cols, starts


class DataMatrix:
    """Sparse observations indexed by (row, col).

    When ``implicit_zero`` is true, absent cells are observations with value
    zero (count/binary data); the number of data terms is then
    ``n_rows * n_cols``.  When false, absent cells are missing and only the
    stored entries are data terms.  ``lookup`` searches the entries' sorted
    row-major cell keys and ``column_blocks`` hands out runs of columns: no
    dense (n_rows, n_cols) array is built.  Entries listed in row-major
    order are their own key-order values; any other order keeps one copy
    of the values sorted by key.

    The entries are also two sparse operators, built on first use and kept:
    ``X``, the (n_rows, n_cols) CSR matrix, and ``Xt``, its transpose as a
    CSR matrix.  Each row of ``X`` (column, for ``Xt``) holds its entries in
    entry order, so ``X @ R`` adds into each output row the products that
    ``scatter_rows(rows, R[cols], n_rows, vals)`` adds, in the same order:
    the sums are equal byte for byte, and no (entries x dim) table is
    gathered.  ``memo`` keeps other tables that depend only on the entries.
    The entries must not change after construction.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        implicit_zero: bool = False,
        row_labels: list[str] | None = None,
        col_labels: list[str] | None = None,
    ):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.implicit_zero = bool(implicit_zero)
        self.row_labels = row_labels
        self.col_labels = col_labels
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise DataError("rows, cols, vals must have equal length")
        if len(self.rows) and (
            self.rows.min() < 0
            or self.rows.max() >= self.n_rows
            or self.cols.min() < 0
            or self.cols.max() >= self.n_cols
        ):
            raise DataError("entry index outside matrix shape")
        if self.implicit_zero and len(self.vals) and np.any(self.vals == 0.0):
            raise DataError("implicit-zero matrix must not store explicit zeros")
        self._keys, order, repeat = sorted_cell_keys(self.rows, self.cols, self.n_cols)
        if repeat >= 0:
            raise DataError(f"duplicate entry at (row={self.rows[repeat]}, col={self.cols[repeat]})")
        self._key_vals = self.vals if order is None else self.vals[order]
        self._memo: dict = {}

    @property
    def X(self) -> sparse.csr_matrix:
        """The entries as an (n_rows, n_cols) CSR matrix, each row's in entry order."""
        return self.memo("X", lambda: _csr(self.rows, self.cols, self.vals,
                                           (self.n_rows, self.n_cols)))

    @property
    def Xt(self) -> sparse.csr_matrix:
        """The transpose of ``X`` as an (n_cols, n_rows) CSR matrix, each
        column's entries in entry order."""
        return self.memo("Xt", lambda: _csr(self.cols, self.rows, self.vals,
                                            (self.n_cols, self.n_rows)))

    def memo(self, key, build):
        """``build()``, called on the first use of ``key`` and kept with the
        matrix: for tables that depend only on its entries."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def n_terms(self) -> int:
        """Number of data terms in the objective."""
        return self.n_rows * self.n_cols if self.implicit_zero else self.nnz

    @property
    def every_cell_a_term(self) -> bool:
        """Whether every cell is a data term (implicit-zero data, or explicit
        data with no missing cell), so that column blocks can score them all."""
        return self.n_terms == self.n_rows * self.n_cols

    def lookup(self, rows, cols):
        """(vals, stored) of the cells (rows, cols) inside the shape, two
        broadcastable index arrays; absent cells read 0.  On complete data
        the sorted keys are 0..nnz-1, so a cell's key is its position."""
        keys = np.asarray(rows, dtype=np.int64) * self.n_cols + np.asarray(cols, dtype=np.int64)
        if self.nnz == self.n_rows * self.n_cols:
            return self._key_vals[keys], np.ones(keys.shape, dtype=bool)
        # queries searched in sorted order: a third of the time when unsorted
        flat = keys.ravel()
        order = np.argsort(flat)
        at = np.empty(flat.size, dtype=np.intp)
        at[order] = np.searchsorted(self._keys, flat[order])
        at = at.reshape(keys.shape)
        stored = at < self.nnz
        stored[stored] = self._keys[at[stored]] == keys[stored]
        vals = np.zeros(keys.shape)
        vals[stored] = self._key_vals[at[stored]]
        return vals, stored

    def zero_cells(self, q: np.ndarray):
        """(rows, cols) of the q-th cells without a stored entry, counting
        in row-major order from 0, for the queries ``q`` in sorted order: the
        cells come back in row-major order."""
        # the stored entry at sorted position i has keys[i] - i empty cells
        # before it, so the q-th empty cell follows every entry with at most
        # q: merge those nondecreasing counts into the sorted queries, and
        # count the entries at or before each query
        ids = np.sort(np.asarray(q, dtype=np.int64))
        counts = np.bincount(np.searchsorted(ids, self._keys - np.arange(self.nnz)),
                             minlength=len(ids) + 1)
        ids += np.cumsum(counts, out=counts)[:len(ids)]
        del counts
        return _split_sorted_keys(ids, self.n_rows, self.n_cols)[:2]

    def with_unstored(self, rows, cols, weight: float) -> "TermBatch":
        """Every stored entry, weight 1, and the unstored cells (rows, cols),
        weight ``weight``, as one ``TermBatch`` in row-major cell order with
        its row starts; equal listed cells keep their order."""
        # one stable sort of the keys tagged in the low bit, 0 for a stored
        # entry; two sorted runs when the cells come sorted, so one merge
        tagged = np.concatenate([self._keys * 2,
                                 (np.asarray(rows) * self.n_cols + np.asarray(cols)) * 2 + 1])
        tagged.sort(kind="stable")
        stored = (tagged & 1) == 0
        rows, cols, starts = _split_sorted_keys(np.right_shift(tagged, 1, out=tagged),
                                               self.n_rows, self.n_cols)
        vals = np.zeros(len(tagged))
        vals[stored] = self._key_vals
        return TermBatch(rows, cols, vals, stored, np.where(stored, 1.0, weight), starts)

    def column_blocks(self, width: int, cols: Sequence[int] | None, scratch: Scratch):
        """Every cell of the columns ``cols`` (of every column, left to
        right, when None), as ``ColumnBlock``s of at most ``width`` columns,
        read from the rows of ``Xt``.  Their tables are taken from
        ``scratch``, so each block's are valid until the next block is
        drawn."""
        rows, vals, starts = self.Xt.indices, self.Xt.data, self.Xt.indptr
        ids = np.arange(self.n_cols) if cols is None else np.asarray(cols, dtype=np.int64)
        for lo in range(0, len(ids), width):
            block = ids[lo:lo + width]
            counts = starts[block + 1] - starts[block]
            # the block's entries column by column, and their row-major positions in it
            ends = np.cumsum(counts)
            entries = np.repeat(starts[block] + counts - ends, counts) + np.arange(ends[-1])
            at = np.multiply(rows[entries], len(block), dtype=np.int64) \
                + np.repeat(np.arange(len(block)), counts)
            x = scratch.take("x", (self.n_rows, len(block)))
            x.fill(0.0)
            np.put(x, at, vals[entries])
            stored = scratch.take("stored", x.shape, bool)
            if self.implicit_zero:  # stores no zero
                np.not_equal(x, 0.0, out=stored)
            else:
                stored.fill(False)
                np.put(stored, at, True)
            yield ColumnBlock(slice(block[0], block[-1] + 1) if cols is None else block, x, stored)

    def select_columns(self, keep: Sequence[int]) -> "DataMatrix":
        """New matrix over the given columns, reindexed 0..len(keep)-1."""
        keep = np.asarray(keep, dtype=np.int64)
        kept = np.zeros(self.n_cols, dtype=bool)
        kept[keep] = True
        mask = kept[self.cols]
        new_ids = np.zeros(self.n_cols, dtype=np.int64)
        new_ids[keep] = np.arange(len(keep))
        labels = None if self.col_labels is None else [self.col_labels[c] for c in keep.tolist()]
        return DataMatrix(
            self.n_rows,
            len(keep),
            self.rows[mask],
            new_ids[self.cols[mask]],
            self.vals[mask],
            implicit_zero=self.implicit_zero,
            row_labels=self.row_labels,
            col_labels=labels,
        )

    def select_entries(self, positions: Sequence[int]) -> "DataMatrix":
        """New matrix with the same shape keeping only the given stored entries."""
        idx = np.asarray(positions, dtype=np.int64)
        return DataMatrix(
            self.n_rows,
            self.n_cols,
            self.rows[idx],
            self.cols[idx],
            self.vals[idx],
            implicit_zero=self.implicit_zero,
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )


@dataclass
class TermBatch:
    """Data terms, each with the weight of its sample: the cell list of the
    term kernels and of a context pass's ``at``/``scatter_at``.

    Term e is cell (rows[e], cols[e]) with value vals[e]; ``stored`` is False
    for an implicit zero.  ``weights`` are sampling weights, None for ones.
    ``row_starts``, when not None, says that the terms are in row-major cell
    order, those of row n at row_starts[n]:row_starts[n + 1].  The
    categorical family's terms are whole columns, scored by ``ColumnBlock``s
    instead.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    stored: np.ndarray
    weights: np.ndarray | None = None
    row_starts: np.ndarray | None = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        self.stored = np.asarray(self.stored, dtype=bool)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.rows)

    def row_major(self, n_rows: int, n_cols: int):
        """(batch, order): these terms in row-major cell order with their row
        starts, equal cells in batch order, and the permutation that sorts
        them, None when they carry their row starts already."""
        if self.row_starts is not None:
            return self, None
        order = np.argsort(self.rows * n_cols + self.cols, kind="stable")
        rows = self.rows[order]
        batch = TermBatch(rows, self.cols[order], self.vals[order], self.stored[order],
                          None if self.weights is None else self.weights[order],
                          np.searchsorted(rows, np.arange(n_rows + 1)))
        return batch, order


@dataclass
class ColumnBlock:
    """Every cell of the columns ``cols`` of a matrix (a slice, or an array
    of distinct column ids) as dense (n_rows, #cols) tables: the values, 0
    where no entry is stored, and the storedness."""

    cols: slice | np.ndarray
    x: np.ndarray
    stored: np.ndarray


class EmbeddingBank:
    """Embedding and context-vector tables, one row per entity.

    With ``log_space`` set the stored values are logarithms and the effective
    parameters are their exponentials (strictly positive by construction).
    A tied bank holds one array as both tables.
    """

    def __init__(self, embeddings: np.ndarray, context_vectors: np.ndarray, log_space: bool = False):
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float64)
        self.context_vectors = (
            self.embeddings
            if context_vectors is embeddings
            else np.ascontiguousarray(context_vectors, dtype=np.float64)
        )
        self.log_space = bool(log_space)
        if self.embeddings.shape != self.context_vectors.shape:
            raise DataError("embedding and context tables must have equal shape")
        if not (np.isfinite(self.embeddings).all() and np.isfinite(self.context_vectors).all()):
            raise DataError("parameter banks must be finite")

    @classmethod
    def init_random(
        cls,
        n_rows: int,
        dim: int,
        seed: int,
        log_space: bool = False,
        tied: bool = False,
        scale: float = 0.1,
    ) -> "EmbeddingBank":
        # i.i.d. uniform in [-scale/sqrt(dim), +scale/sqrt(dim)]; small symmetric
        # init keeps exp() in multiplicative models well away from overflow.
        rng = seeded_rng(seed)
        half = scale / np.sqrt(dim)
        emb = rng.uniform(-half, half, size=(n_rows, dim))
        cv = emb if tied else rng.uniform(-half, half, size=(n_rows, dim))
        return cls(emb, cv, log_space=log_space)

    @property
    def n_rows(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def tied(self) -> bool:
        return self.context_vectors is self.embeddings

    def effective_embeddings(self) -> np.ndarray:
        return np.exp(self.embeddings) if self.log_space else self.embeddings

    def effective_context_vectors(self) -> np.ndarray:
        return np.exp(self.context_vectors) if self.log_space else self.context_vectors



class Link(Enum):
    """Map from the context inner product to the natural parameter."""

    IDENTITY = "identity"
    LOG = "log"
    MEAN_IDENTITY = "mean_identity"
    MEAN_LOG = "mean_log"

    @property
    def rescales_by_count(self) -> bool:
        return self in (Link.MEAN_IDENTITY, Link.MEAN_LOG)

    @property
    def is_log(self) -> bool:
        return self in (Link.LOG, Link.MEAN_LOG)

