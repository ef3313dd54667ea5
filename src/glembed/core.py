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


# keys per chunk that DataMatrix.select maps at once (and counts, at least): its
# temporaries hold a few times this many, whatever the entry count
KEY_CHUNK = 2**14


def check_seed(seed: int) -> None:
    """Raise a ConfigError keyed ``seed`` if ``seed`` is negative."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", "seed")


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's Generator of ``seed``; a negative seed is a ConfigError."""
    check_seed(seed)
    return np.random.default_rng(seed)


def sorted_keys(keys: np.ndarray):
    """Integer ``keys`` sorted, the stable permutation that sorts them (None
    when they are listed in strictly increasing order, so already sorted and
    distinct: then they come back as they are), and the first key, in list
    order, that an earlier key repeats (-1 when all are distinct)."""
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
    C = sparse.csr_matrix((coef, cols.astype(itype, copy=False), np.asarray(starts, dtype=itype)),
                          shape=shape)
    return C @ col_table, C.T @ row_table


class Scratch:
    """Named work tables that one caller's passes reuse from call to call,
    so that a step maps and zeroes no fresh multi-megabyte table.

    ``take`` returns a table on the front of the buffer last taken under
    ``name`` when that is of ``dtype`` and large enough, else on a new one;
    its contents are left as they were, and it stays valid until ``name``
    is taken again.
    """

    def __init__(self):
        self._tables: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = int(np.prod(shape))
        table = self._tables.get(name)
        if table is None or table.size < size or table.dtype != dtype:
            table = self._tables[name] = np.empty(size, dtype)
        return table[:size].reshape(shape)


def _csr(rows, cols, vals, shape):
    """The entries (rows, cols, vals) as a CSR matrix of ``shape``, each
    row's entries in entry order: a stable sort by row, none when the rows
    are already in order."""
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        cols, vals = cols[order], vals[order]
    starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    itype = np.int32 if max(*shape, len(rows)) < 2**31 else np.int64
    return sparse.csr_matrix((vals, cols.astype(itype), starts.astype(itype)), shape=shape)


def _split_sorted_keys(keys: np.ndarray, n_rows: int, n_cols: int):
    """(rows, cols, starts) of nondecreasing row-major cell keys, rows and
    cols int32 when the shape allows: the cells of row n are
    starts[n]:starts[n + 1].  A search per row gives the rows; the columns
    are the remainders of the keys, computed in place over ``keys``, which
    they overwrite."""
    itype = np.int32 if max(n_rows, n_cols) < 2**31 else np.int64
    starts = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    rows = np.repeat(np.arange(n_rows, dtype=itype), np.diff(starts))
    return rows, np.remainder(keys, n_cols, out=keys).astype(itype, copy=False), starts


class DataMatrix:
    """Sparse observations indexed by (row, col).

    When ``implicit_zero`` is true, absent cells are observations with value
    zero (count/binary data); the number of data terms is then
    ``n_rows * n_cols``.  When false, absent cells are missing and only the
    stored entries are data terms.  ``lookup`` searches the entries' sorted
    row-major cell keys and ``column_blocks`` hands out runs of columns: no
    dense (n_rows, n_cols) array is built.

    The keys (``row * n_cols + col``) and their values in key order are the
    only per-entry arrays: 16 bytes per entry for entries listed in
    row-major order.  Entries listed in any other order also keep the key
    position of each entry, 24 bytes per entry, so that entry positions
    (minibatch draws, ``select_entries``, ``write_triplets`` order) are
    those of the listing.  ``entries`` computes rows, columns and values for
    a selection of positions, and ``rows``, ``cols``, ``vals`` for all.

    The entries are also two sparse operators, built on first use and kept:
    ``X``, the (n_rows, n_cols) CSR matrix, and ``Xt``, its transpose as a
    CSR matrix.  Each row of ``X`` (column, for ``Xt``) holds its entries in
    entry order, so ``X @ R`` adds into each output row the products that
    ``scatter_rows(rows, R[cols], n_rows, vals)`` adds, in the same order:
    the sums are equal byte for byte, and no (entries x dim) table is
    gathered.  ``memo`` keeps other tables that depend only on the entries.
    The entries must not change after construction.
    """

    def __init__(self, n_rows: int, n_cols: int, rows: Sequence[int], cols: Sequence[int],
                 vals: Sequence[float], implicit_zero: bool = False,
                 row_labels: list[str] | None = None, col_labels: list[str] | None = None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise DataError("rows, cols, vals must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise DataError("entry index outside matrix shape")
        keys = np.multiply(rows, int(n_cols), dtype=np.int64)
        keys += cols
        keys, order, repeat = sorted_keys(keys)
        if repeat >= 0:
            raise DataError(f"duplicate entry at (row={rows[repeat]}, col={cols[repeat]})")
        self._store(n_rows, n_cols, keys, vals if order is None else vals[order], order,
                    implicit_zero, row_labels, col_labels)

    @classmethod
    def from_keys(cls, n_rows: int, n_cols: int, keys: np.ndarray, key_vals: np.ndarray,
                  order: np.ndarray | None = None, implicit_zero: bool = False,
                  row_labels: list[str] | None = None,
                  col_labels: list[str] | None = None) -> "DataMatrix":
        """The matrix of the distinct, sorted cell keys ``keys`` inside the
        shape and their values ``key_vals``, with no copy.  Its entries are
        listed in the order that ``order`` sorts by key, as ``sorted_keys``
        returns it (None for key order)."""
        data = cls.__new__(cls)
        data._store(n_rows, n_cols, keys, key_vals, order, implicit_zero, row_labels, col_labels)
        return data

    def _store(self, n_rows, n_cols, keys, key_vals, order, implicit_zero, row_labels, col_labels):
        self.n_rows, self.n_cols = int(n_rows), int(n_cols)
        self.implicit_zero = bool(implicit_zero)
        self.row_labels, self.col_labels = row_labels, col_labels
        if self.implicit_zero and np.any(key_vals == 0.0):
            raise DataError("implicit-zero matrix must not store explicit zeros")
        self._keys, self._key_vals, self._at = keys, key_vals, None
        if order is not None:  # entry order[k] holds the key at position k
            self._at = np.empty_like(order)
            self._at[order] = np.arange(len(order))
        self._memo: dict = {}

    def entries(self, at=slice(None)):
        """(rows, cols, vals) of the entries at positions ``at``, an index
        array or a slice (every entry, by default), computed from their keys."""
        k = at if self._at is None else self._at[at]
        return *np.divmod(self._keys[k], self.n_cols or 1), self._key_vals[k]

    rows = property(lambda self: self.entries()[0], doc="Every entry's row, in entry order.")
    cols = property(lambda self: self.entries()[1], doc="Every entry's column, in entry order.")

    @property
    def vals(self) -> np.ndarray:
        """Every entry's value, in entry order."""
        return self._key_vals if self._at is None else self._key_vals[self._at]

    @property
    def X(self) -> sparse.csr_matrix:
        """The entries as an (n_rows, n_cols) CSR matrix, each row's in entry order."""
        return self.memo("X", lambda: _csr(*self.entries(), (self.n_rows, self.n_cols)))

    @property
    def Xt(self) -> sparse.csr_matrix:
        """The transpose of ``X`` as an (n_cols, n_rows) CSR matrix, each
        column's entries in entry order."""
        def build():
            rows, cols, vals = self.entries()
            return _csr(cols, rows, vals, (self.n_cols, self.n_rows))
        return self.memo("Xt", build)

    def memo(self, key, build):
        """``build()``, called on the first use of ``key`` and kept with the
        matrix: for tables that depend only on its entries."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def nnz(self) -> int:
        return len(self._keys)

    @property
    def n_terms(self) -> int:
        """Number of data terms in the objective."""
        return self.n_rows * self.n_cols if self.implicit_zero else self.nnz

    @property
    def every_cell_a_term(self) -> bool:
        """Whether every cell is a data term (implicit-zero data, or explicit
        data with no missing cell), so that column blocks can score them all."""
        return self.n_terms == self.n_rows * self.n_cols

    def every_term(self) -> "TermBatch | None":
        """Every data term as the kernels take cells: None, every cell, when
        each cell is one, else the stored entries."""
        return None if self.every_cell_a_term else TermBatch(*self.entries(), np.ones(self.nnz, bool))

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
        """(rows, cols, starts) of the q-th cells without a stored entry,
        counting in row-major order from 0, for the queries ``q`` in sorted
        order: the cells come back in row-major order, as
        ``_split_sorted_keys`` gives them.  Queries given in nondecreasing
        order are read as they are, and no query array is written."""
        # the stored entry at sorted position i has keys[i] - i empty cells
        # before it, so the q-th empty cell follows every entry with at most
        # q: merge those nondecreasing counts into the sorted queries, and
        # count the entries at or before each query
        q = np.asarray(q, dtype=np.int64)
        if np.any(q[1:] < q[:-1]):
            q = np.sort(q)
        counts = np.bincount(np.searchsorted(q, self._keys - np.arange(self.nnz)),
                             minlength=len(q) + 1)
        keys = np.add(q, np.cumsum(counts, out=counts)[:len(q)], out=counts[:len(q)])
        return _split_sorted_keys(keys, self.n_rows, self.n_cols)

    def stored_terms(self) -> "TermBatch":
        """Every stored entry, weight 1, as a ``TermBatch`` in row-major cell
        order with its row starts (as ``_split_sorted_keys`` gives them):
        the fixed piece of each sparse step."""
        rows, cols, starts = _split_sorted_keys(self._keys.copy(), self.n_rows, self.n_cols)
        return TermBatch(rows, cols, self._key_vals, True, None, starts)

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
            stored.fill(False)
            np.put(stored, at, True)
            yield ColumnBlock(slice(block[0], block[-1] + 1) if cols is None else block, x, stored)

    def counts(self, axis: int) -> np.ndarray:
        """The entry count of each row (``axis`` 0) or column (1) from the
        keys: a search over them for rows, and for columns a chunk at a time."""
        if axis == 0:
            return np.diff(np.searchsorted(self._keys, np.arange(self.n_rows + 1) * self.n_cols))
        counts = np.zeros(self.n_cols, dtype=np.int64)
        step = max(KEY_CHUNK, self.n_cols)  # a count per chunk costs n_cols
        for lo in range(0, self.nnz, step):
            counts += np.bincount(self._keys[lo:lo + step] % self.n_cols, minlength=self.n_cols)
        return counts

    def select(self, axis: int, keep: Sequence[int], labels: list[str] | None = None):
        """New matrix over the rows (``axis`` 0) or columns (1) ``keep`` (-1:
        an id with no entry), renumbered 0..len(keep)-1 and labelled
        ``labels`` (their own, by default), in this one's entry order.  The
        keys are mapped ``KEY_CHUNK`` at a time, with no per-entry row or
        column table.  When they list the entries and ``keep`` increases
        they stay sorted, and the values are shared unless an entry drops."""
        keep = np.asarray(keep, dtype=np.int64)
        new_ids = np.full((self.n_rows, self.n_cols)[axis], -1, dtype=np.int64)
        given = np.flatnonzero(keep >= 0)
        new_ids[keep[given]] = given
        shape = (len(keep), self.n_cols) if axis == 0 else (self.n_rows, len(keep))
        names = [self.row_labels, self.col_labels]
        names[axis] = labels or names[axis] and [names[axis][i] for i in keep.tolist()]
        if np.any(new_ids < 0):
            kept = np.empty(self.nnz, dtype=bool)
            for lo in range(0, self.nnz, KEY_CHUNK):
                ids = np.divmod(self._keys[lo:lo + KEY_CHUNK], self.n_cols)[axis]
                kept[lo:lo + KEY_CHUNK] = new_ids[ids] >= 0
            keys, vals = self._keys[kept], self._key_vals[kept]
        else:
            kept, keys, vals = None, self._keys.copy(), self._key_vals
        for lo in range(0, len(keys), KEY_CHUNK):
            cell = np.divmod(keys[lo:lo + KEY_CHUNK], self.n_cols)
            cell[axis][:] = new_ids[cell[axis]]
            keys[lo:lo + KEY_CHUNK] = cell[0] * shape[1] + cell[1]
        if self._at is not None:  # the kept entries in this matrix's entry order
            at = self._at if kept is None else (np.cumsum(kept) - 1)[self._at[kept[self._at]]]
            keys, vals = keys[at], vals[at]
        keys, order, _ = sorted_keys(keys)
        return DataMatrix.from_keys(*shape, keys, vals if order is None else vals[order], order,
                                    self.implicit_zero, *names)

    def select_columns(self, keep: Sequence[int]) -> "DataMatrix":
        """``select`` of the columns ``keep``."""
        return self.select(1, keep)

    def map_values(self, fn) -> "DataMatrix":
        """New matrix of the same entries, valued ``fn(vals)`` for an elementwise ``fn``."""
        data = DataMatrix.from_keys(self.n_rows, self.n_cols, self._keys, fn(self._key_vals),
                                    None, self.implicit_zero, self.row_labels, self.col_labels)
        data._at = self._at
        return data

    def lagged(self, every_cell: bool) -> "DataMatrix":
        """The lag transform, an explicit matrix of one column fewer: column
        c holds x[:, c + 1] - x[:, c], absent cells read as 0, at every cell
        when ``every_cell`` and else at the cells that an entry touches, in
        key order: the difference of two column selections."""
        if self.n_cols < 2:
            raise DataError("lag transform needs at least 2 columns")
        n = self.n_cols - 1
        later, earlier = self.select(1, np.arange(1, n + 1)), self.select(1, np.arange(n))
        keys = np.arange(self.n_rows * n) if every_cell else np.union1d(later._keys, earlier._keys)
        vals = np.zeros(len(keys))
        vals[np.searchsorted(keys, later._keys)] = later._key_vals
        vals[np.searchsorted(keys, earlier._keys)] -= earlier._key_vals
        return DataMatrix.from_keys(self.n_rows, n, keys, vals, None, False,
                                    self.row_labels, later.col_labels)

    def select_entries(self, positions: Sequence[int]) -> "DataMatrix":
        """New matrix with the same shape keeping only the given stored
        entries, distinct, in the given order."""
        at = np.asarray(positions, dtype=np.int64)
        # the key positions of the entries, sorted as the keys they hold
        at, order, repeat = sorted_keys(at if self._at is None else self._at[at])
        if repeat >= 0:
            raise DataError(f"entry position {positions[repeat]} selected twice")
        return DataMatrix.from_keys(self.n_rows, self.n_cols, self._keys[at], self._key_vals[at],
                                    order, self.implicit_zero, self.row_labels, self.col_labels)


@dataclass
class TermBatch:
    """Data terms, each with the weight of its sample: the cell list of the
    term kernels and of a context pass's ``at``/``scatter_at``.

    Term e is cell (rows[e], cols[e]) with value vals[e]; ``stored`` is False
    for an implicit zero.  ``weights`` are sampling weights, None for ones.
    A 0-d ``vals``, ``stored`` or ``weights`` holds for every term.
    ``rows`` and ``cols`` are int64, or int32 as given.
    ``row_starts``, when not None, says that the terms are in row-major cell
    order, those of row n at row_starts[n]:row_starts[n + 1].  The
    categorical family's terms are whole columns, scored by ``ColumnBlock``s.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    stored: np.ndarray
    weights: np.ndarray | None = None
    row_starts: np.ndarray | None = None

    def __post_init__(self):
        self.rows, self.cols = (a if a.dtype == np.int32 else a.astype(np.int64, copy=False)
                                for a in map(np.asarray, (self.rows, self.cols)))
        self.vals = np.asarray(self.vals, dtype=np.float64)
        self.stored = np.asarray(self.stored, dtype=bool)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.rows)

    def row_major(self, n_rows: int, n_cols: int):
        """(batch, order): these terms in row-major cell order with their row
        starts, equal cells in batch order, and the permutation that sorts
        them, None when they carry their row starts already.  A 0-d column
        stays as it is."""
        if self.row_starts is not None:
            return self, None
        order = np.argsort(np.multiply(self.rows, n_cols, dtype=np.int64) + self.cols,
                           kind="stable")
        batch = TermBatch(*(a if a is None or a.ndim == 0 else a[order] for a in
                            (self.rows, self.cols, self.vals, self.stored, self.weights)))
        batch.row_starts = np.searchsorted(batch.rows, np.arange(n_rows + 1))
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
        self.context_vectors = self.embeddings if context_vectors is embeddings \
            else np.ascontiguousarray(context_vectors, dtype=np.float64)
        self.log_space = bool(log_space)
        if self.embeddings.shape != self.context_vectors.shape:
            raise DataError("embedding and context tables must have equal shape")
        if not (np.isfinite(self.embeddings).all() and np.isfinite(self.context_vectors).all()):
            raise DataError("parameter banks must be finite")

    @classmethod
    def init_random(cls, n_rows: int, dim: int, seed: int, log_space: bool = False,
                    tied: bool = False, scale: float = 0.1) -> "EmbeddingBank":
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

