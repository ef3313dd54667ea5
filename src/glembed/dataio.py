"""File formats and ingestion: triplet data, entity locations, model
persistence, and run configuration.

All formats are line-oriented text.  Triplet and locations files carry a
header line whose delimiter (tab or comma) sets the delimiter for the rest
of the file.  Model files round-trip banks bit-exactly by printing floats
with 17 significant digits.  Writes go through a temp-and-rename so
readers never observe partial files.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import sys
import tempfile
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import count, filterfalse, repeat

import numpy as np

from .core import DataMatrix, EmbeddingBank, Link, sorted_cell_keys
from .errors import CompatibilityError, ConfigError, DataError
from .families import Family, FamilySpec, default_link
from .train import TrainConfig, sparse_fault

MODEL_MAGIC = "#glembed-model v1"
# characters per run of lines that read_triplets parses at once
RUN_CHARS = 2**18
# characters per span of a text that read_triplets parses on forked children
SPAN_CHARS = 2**23
# lines per run that write_triplets formats at once
WRITE_RUN_LINES = 2**13


def check_output_path(path: str) -> str:
    """The directory that ``path`` is written into; a ConfigError when it
    does not exist."""
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d):
        raise ConfigError(f"{path}: output directory {d} does not exist")
    return d


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or the pieces it yields in turn, to ``path`` through a
    temp file and a rename."""
    d = check_output_path(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-glembed-")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str, error: type = DataError) -> str:
    """The text of ``path``; an unreadable or undecodable file raises
    ``error`` naming the path."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {exc.encoding} text ({exc.reason} at byte {exc.start})") \
            from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None


def _detect_delimiter(header: str) -> str:
    return "\t" if "\t" in header else ","


# ---------------------------------------------------------------------------
# triplet files
# ---------------------------------------------------------------------------

def read_triplets(path: str):
    """Parse a (row_id, col_id, value) file.

    Ids may be arbitrary strings; they map to dense 0-based indices in
    first-seen order.  Values keep Python's ``float()`` syntax (``1_0``,
    full-width digits, surrounding whitespace).  Returns (row_labels,
    col_labels, rows, cols, vals).

    A text longer than ``SPAN_CHARS`` is cut after a ``\n`` into spans, at
    most one per CPU; forked children parse the later spans while this
    process parses the first (``_span_cuts`` names when it stays in one
    span).  The spans' ids are merged in span order, so first-seen order is
    the file's.  A fault in a child's span, or a child that dies, re-parses
    the whole text here, and a fault in the first span is raised as it is,
    so every error names the line the one-span parse names.
    The text is dropped before the entries are sorted for the duplicate
    check.  Line numbers are only computed for an error; the file is read
    again to number a duplicate's line.
    """
    text = read_text(path)
    if not text:
        raise DataError(f"{path}: empty file")
    # the header is the first line: it ends at or before the first '\n'
    delim = _detect_delimiter(text[:text.find("\n") + 1 or len(text)].splitlines()[0])
    cuts = _span_cuts(text)
    parts = _parse_in_children(text, cuts, delim, path) if len(cuts) > 2 else None
    if parts is None:
        parts = [_parse_span(text, 0, len(text), delim, path)]
    del text
    if len(parts) == 1:
        row_labels, col_labels, rows, cols, vals = parts[0]
    else:
        row_labels, rows = _merged_ids(parts, 0)
        col_labels, cols = _merged_ids(parts, 1)
        vals = np.concatenate([p[4] for p in parts])
    del parts
    _, _, e = sorted_cell_keys(rows, cols, len(col_labels))
    if e >= 0:
        lines = read_text(path).splitlines()
        ln = [n for n, line in enumerate(lines[1:], start=2) if line.strip()][e]
        raise DataError(f"{path}:{ln}: duplicate entry for "
                        f"({row_labels[rows[e]]}, {col_labels[cols[e]]})")
    return row_labels, col_labels, rows, cols, vals


def _merged_ids(parts: list[tuple], k: int) -> tuple[list[str], np.ndarray]:
    """The labels and ids of the spans' rows (``k`` = 0) or columns (1),
    merged in span order: a label keeps the id of the first span it is in."""
    index: dict[str, int] = {}
    ids = np.concatenate([_first_seen_ids(index, p[k])[p[k + 2]] for p in parts])
    return list(index), ids


def _span_cuts(text: str) -> list[int]:
    """The offsets that cut ``text`` into the spans read_triplets parses at
    once, each cut just after a ``\n``: one span per ``SPAN_CHARS``
    characters, at most one per CPU, and one span in this process when it
    may not fork children: no ``fork`` start method, another Python thread
    alive, a daemonic process, or Python 3.12 or later (whose ``os.fork``
    warns in a process with a second OS thread, and numpy's OpenBLAS pool is
    one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, -(-len(text) // SPAN_CHARS))
    if (n < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1 or multiprocessing.current_process().daemon
            or sys.version_info >= (3, 12)):
        return [0, len(text)]
    return sorted({0, len(text)} | {text.find("\n", len(text) * i // n) + 1 or len(text)
                                    for i in range(1, n)})


def _parse_in_children(text: str, cuts: list[int], delim: str, path: str):
    """The ``_parse_span`` parts of the spans between ``cuts``: the first
    parsed here, each later one by a forked child that inherits ``text`` and
    sends its part back.  None when a child's span is faulty, or a child
    dies or cannot be forked; a fault in the first span raises its error.
    No child outlives the call: on any exit but success the children are
    killed, and all are joined."""
    fork = multiprocessing.get_context("fork")
    children = []
    parts = None
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_span, args=(send, text, start, stop, delim))
            child.start()
            children.append((child, receive))
            send.close()
        first = _parse_span(text, cuts[0], cuts[1], delim, path)
        received = [receive.recv() for _, receive in children]
        if None not in received:
            parts = [first, *received]
    except (EOFError, OSError):  # a child died before it sent, or could not fork
        pass
    finally:
        for child, receive in children:
            if parts is None:
                child.kill()
            child.join()
            receive.close()
    return parts


def _send_span(send, text: str, start: int, stop: int, delim: str) -> None:
    """Send the parent the ``_parse_span`` part of ``text[start:stop]``, or
    None when the span is faulty."""
    try:
        part = _parse_span(text, start, stop, delim, "")
    except DataError:
        part = None
    send.send(part)


def _parse_span(text: str, start: int, stop: int, delim: str, path: str):
    """Parse the lines of ``text[start:stop]``, which starts a line and ends
    just after a ``\n`` or at the end of the text; the text's first line is
    its header and is skipped.  Returns the span's row and column labels in
    first-seen order, the entries' row and column ids into them, and the
    values.

    The span is worked through in runs of whole lines of about
    ``RUN_CHARS`` characters, each split, checked and parsed by C-level
    passes, so memory is O(span text + one run + entries).  A faulty line
    raises the DataError of the line loop, its line number counted from
    the span's first line as line 1: the file's line number in the span
    that starts the text.
    """
    row_index: dict[str, int] = {}
    col_index: dict[str, int] = {}
    rows, cols, vals = [], [], []
    ln = 1  # line number of the run's first line
    while start < stop:
        # a run ends just after the first '\n' past RUN_CHARS (or at the end
        # of the span): a line boundary whatever other breaks (\x0c,
        # \u2028, ...) the text holds
        end = text.find("\n", start + RUN_CHARS, stop) + 1 or stop
        lines = text[start:end].splitlines()
        if start == 0:
            del lines[0]
            ln += 1
        start = end
        body = list(filter(str.strip, lines))
        fields = delim.join(body).split(delim) if body else []
        v = None
        if set(map(str.count, body, repeat(delim))) <= {2}:
            try:
                v = np.fromiter(map(float, fields[2::3]), np.float64, len(body))
            except ValueError:
                pass
        if v is None or not np.isfinite(v).all():
            _raise_first_line_fault(path, lines, ln, delim)
        rows.append(_first_seen_ids(row_index, list(map(str.strip, fields[0::3]))))
        cols.append(_first_seen_ids(col_index, list(map(str.strip, fields[1::3]))))
        vals.append(v)
        ln += len(lines)
    # one at a time, so that each run list is freed before the next is joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return list(row_index), list(col_index), rows, cols, vals


def _first_seen_ids(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """The ids of ``keys``; keys not yet in ``index`` join it in first-seen
    order."""
    new = filterfalse(index.__contains__, dict.fromkeys(keys))
    index.update(zip(new, count(len(index))))
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def _raise_first_line_fault(path: str, lines: list[str], ln: int, delim: str) -> None:
    """Raise the DataError of the first faulty line of a run whose first
    line is line ``ln`` of the file."""
    for ln, line in enumerate(lines, start=ln):
        if not line.strip():
            continue
        parts = line.split(delim)
        if len(parts) != 3:
            raise DataError(f"{path}:{ln}: expected 3 fields, got {len(parts)}")
        vtext = parts[2].strip()
        try:
            v = float(vtext)
        except ValueError:
            raise DataError(f"{path}:{ln}: bad value {vtext!r}") from None
        if not math.isfinite(v):
            raise DataError(f"{path}:{ln}: non-finite value {vtext!r}")
    raise AssertionError("no faulty line in the run")


def write_triplets(path: str, data: DataMatrix) -> None:
    atomic_write(path, _triplet_text(data))


def _triplet_text(data: DataMatrix) -> Iterator[str]:
    """The triplet file of ``data`` in pieces of ``WRITE_RUN_LINES`` lines,
    each formatted by one ``%`` over the line template repeated per line."""
    rl = data.row_labels or [str(i) for i in range(data.n_rows)]
    cl = data.col_labels or [str(i) for i in range(data.n_cols)]
    yield "row\tcol\tvalue\n"
    for s in range(0, data.nnz, WRITE_RUN_LINES):
        run = slice(s, s + WRITE_RUN_LINES)
        vals = data.vals[run].tolist()
        fields = [None] * (3 * len(vals))
        fields[0::3] = map(rl.__getitem__, data.rows[run].tolist())
        fields[1::3] = map(cl.__getitem__, data.cols[run].tolist())
        fields[2::3] = vals
        yield ("%s\t%s\t%.17g\n" * len(vals)) % tuple(fields)


def ingest(path: str, *, implicit_zero=False, lag=False, rating_shift=False,
           min_row_count=0, min_col_count=0, row_vocab: list[str] | None = None) -> DataMatrix:
    """Load a triplet file and apply the preprocessing transforms in order:
    lag, rating shift-and-clamp, then minimum-count filters.

    ``row_vocab`` pins the row universe and ordering (evaluation against a
    trained model); unknown row ids then raise CompatibilityError.
    """
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
        # columns become successive differences in column-index order; the
        # first column is consumed.  Lag cell (r, c) is x[r, c + 1] - x[r, c]
        # with absent cells read as 0; implicit-zero data list only the cells
        # an entry touches, explicit data every cell
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
    n_rows, n_cols = len(row_labels), len(col_labels)

    return DataMatrix(n_rows, n_cols, rows, cols, vals,
                      implicit_zero=implicit_zero,
                      row_labels=row_labels, col_labels=col_labels)


def _min_count_filter(ids: np.ndarray, labels: list[str], min_count: int):
    """Keep the ids of at least ``min_count`` entries, renumbered from 0 in
    order: (the mask of the entries kept, their new ids, the kept labels)."""
    kept = np.flatnonzero(np.bincount(ids, minlength=len(labels)) >= min_count)
    remap = np.full(len(labels), -1, np.int64)
    remap[kept] = np.arange(len(kept))
    new = remap[ids]
    keep = new >= 0
    return keep, new[keep], [labels[i] for i in kept]


# ---------------------------------------------------------------------------
# locations files
# ---------------------------------------------------------------------------

def read_locations(path: str, row_labels: list[str]) -> np.ndarray:
    """Per-entity coordinates aligned with the given row order.

    Rows are (entity_id, x, y[, z]); missing axes are zero-filled.  Every
    modeled entity must appear exactly once.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    delim = _detect_delimiter(lines[0])
    seen: dict[str, np.ndarray] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delim)]
        if len(parts) not in (3, 4):
            raise DataError(f"{path}:{ln}: expected entity_id plus 2 or 3 coordinates")
        key = parts[0]
        if key in seen:
            raise DataError(f"{path}:{ln}: duplicate location for {key!r}")
        try:
            coords = [float(p) for p in parts[1:]]
        except ValueError:
            raise DataError(f"{path}:{ln}: bad coordinate") from None
        if not all(math.isfinite(x) for x in coords):
            raise DataError(f"{path}:{ln}: non-finite coordinate")
        vec = np.zeros(3)
        vec[: len(coords)] = coords
        seen[key] = vec
    out = np.zeros((len(row_labels), 3))
    for i, key in enumerate(row_labels):
        if key not in seen:
            raise DataError(f"{path}: no location for entity {key!r}")
        out[i] = seen[key]
    return out


def write_locations(path: str, positions: np.ndarray, row_labels: list[str] | None = None) -> None:
    labels = row_labels or [str(i) for i in range(len(positions))]
    lines = ["entity\tx\ty\tz"]
    for key, p in zip(labels, np.asarray(positions)):
        lines.append(f"{key}\t{p[0]:.17g}\t{p[1]:.17g}\t{p[2]:.17g}")
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

@dataclass
class ModelMeta:
    family: str
    link: str
    sharing: str = "per_row"
    log_space: bool = False
    dim: int = 0
    n_entities: int = 0
    sigma2: float = 1.0
    vocab_size: int = 0
    seed: int = 0
    context: str = "basket"
    context_param: int = 0
    config_digest: str = ""

    def family_spec(self) -> FamilySpec:
        return FamilySpec(Family(self.family), Link(self.link),
                          sigma2=self.sigma2, vocab_size=self.vocab_size)


def store_model(path: str, bank: EmbeddingBank, meta: ModelMeta,
                row_labels: list[str] | None = None) -> None:
    labels = row_labels or [str(i) for i in range(bank.n_rows)]
    if len(labels) != bank.n_rows:
        raise DataError("one label per bank row required")
    if len(set(labels)) != len(labels):
        raise DataError("row labels must be distinct")
    if (meta.sharing == "tied") != bank.tied:
        raise DataError(f"sharing={meta.sharing} does not match a "
                        f"{'tied' if bank.tied else 'untied'} bank")
    head = [MODEL_MAGIC]
    for f in fields(ModelMeta):
        v = getattr(meta, f.name)
        if f.name == "log_space":
            v = int(v)
        head.append(f"{f.name}={v}")
    head.append("#entities")
    lines = head
    for i, key in enumerate(labels):
        nums = [f"{v:.17g}" for v in bank.embeddings[i]]
        nums += [f"{v:.17g}" for v in bank.context_vectors[i]]
        lines.append(key + "\t" + "\t".join(nums))
    atomic_write(path, "\n".join(lines) + "\n")


def load_model(path: str):
    """Read a model file back into (bank, meta, row_labels)."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a glembed model file")
    kv = {}
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        if line == "#entities":
            body_at = i + 1
            break
        if "=" not in line:
            raise DataError(f"{path}:{i + 1}: bad header line {line!r}")
        k, v = line.split("=", 1)
        kv[k] = (v, i + 1)
    if body_at is None:
        raise DataError(f"{path}: missing #entities section")
    casts = {"log_space": lambda s: bool(int(s)), "dim": int, "n_entities": int,
             "sigma2": float, "vocab_size": int, "seed": int, "context_param": int,
             "family": lambda s: Family(s).value, "link": lambda s: Link(s).value}
    meta_args = {}
    for f in fields(ModelMeta):
        if f.name not in kv:
            raise DataError(f"{path}: header missing {f.name}")
        v, ln = kv[f.name]
        try:
            meta_args[f.name] = casts.get(f.name, str)(v)
        except ValueError:
            raise DataError(f"{path}:{ln}: bad value for {f.name}: {v!r}") from None
    meta = ModelMeta(**meta_args)
    if meta.sharing not in ("per_row", "global", "tied"):
        raise DataError(f"{path}:{kv['sharing'][1]}: bad value for sharing: {meta.sharing!r}")
    tied = meta.sharing == "tied"
    labels, emb_rows, cv_rows, seen = [], [], [], set()
    for ln, line in enumerate(lines[body_at:], start=body_at + 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + 2 * meta.dim:
            raise DataError(f"{path}:{ln}: expected {1 + 2 * meta.dim} fields")
        if parts[0] in seen:
            raise DataError(f"{path}:{ln}: repeated entity label {parts[0]!r}")
        seen.add(parts[0])
        labels.append(parts[0])
        try:
            nums = [float(p) for p in parts[1:]]
        except ValueError:
            raise DataError(f"{path}:{ln}: bad parameter value") from None
        if not all(map(math.isfinite, nums)):
            raise DataError(f"{path}:{ln}: non-finite parameter value")
        if tied and nums[: meta.dim] != nums[meta.dim:]:
            raise DataError(f"{path}:{ln}: tied model row has context vector "
                            f"unlike its embedding")
        emb_rows.append(nums[: meta.dim])
        cv_rows.append(nums[meta.dim:])
    if len(labels) != meta.n_entities:
        raise DataError(f"{path}: {len(labels)} entity rows, header says {meta.n_entities}")
    emb = np.asarray(emb_rows)
    cv = emb if tied else np.asarray(cv_rows)
    bank = EmbeddingBank(emb, cv, log_space=meta.log_space)
    return bank, meta, labels


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_ARCHETYPE_DEFAULTS = {
    # family -> (reg weight, iterations, estimator, minibatch, regularizer)
    "gaussian": (10.0, 500, "minibatch", 100, "l2"),
    "nonneg_gaussian": (0.1, 500, "minibatch", 100, "l2"),
    "poisson": (1.0, 3000, "sparse", None, "l2"),
    "additive_poisson": (1.0, 3000, "sparse", None, "l2"),
    "bernoulli": (1.0, 3000, "sparse", None, "l2"),
    "categorical": (0.0, 1000, "full", None, "none"),
}
_DEFAULT_CONTEXT = {
    "gaussian": "knn", "nonneg_gaussian": "knn",
    "poisson": "basket", "additive_poisson": "basket",
    "bernoulli": "window", "categorical": "window",
}
_IMPLICIT_FAMILIES = ("poisson", "additive_poisson", "bernoulli", "categorical")
DEFAULT_STEP_GRID = (0.01, 0.05, 0.1, 0.5)


@dataclass
class RunConfig:
    """Flat key=value training configuration with per-family defaults."""

    family: str
    k: int = 10
    context: str = ""
    knn_k: int = 10
    window_w: int = 2
    link: str = ""
    sigma2: float = 1.0
    reg_weight: float | None = None
    regularizer: str = ""
    estimator: str = ""
    zero_estimator: str = "unbiased"
    gamma: float = 0.1
    minibatch_size: int = 0
    iterations: int | None = None
    negative_samples: int = 10
    step_size_grid: tuple[float, ...] = ()
    seed: int = 0
    split: str = ""
    train_frac: float = 0.9
    valid_frac: float = 0.05
    test_frac: float = 0.05
    implicit_zero: int | None = None
    lag: bool = False
    rating_shift: bool = False
    min_row_count: int = 0
    min_col_count: int = 0

    def __post_init__(self):
        if self.family not in _ARCHETYPE_DEFAULTS:
            raise ConfigError(f"unknown family {self.family!r}", "family")
        for f in fields(self):
            v = getattr(self, f.name)
            values = v if isinstance(v, tuple) else (v,)
            if "float" in f.type and not all(math.isfinite(x) for x in values if x is not None):
                raise ConfigError(f"{f.name} must be finite, got {v}", f.name)
        if self.implicit_zero not in (None, 0, 1):
            raise ConfigError(f"implicit_zero must be 0 or 1, got {self.implicit_zero}",
                              "implicit_zero")
        reg_w, iters, estim, mb, regzr = _ARCHETYPE_DEFAULTS[self.family]
        if self.reg_weight is None:
            self.reg_weight = reg_w
        if self.iterations is None:
            self.iterations = iters
        if not self.estimator:
            self.estimator = estim
        if self.minibatch_size == 0:
            self.minibatch_size = mb or 0
        if not self.regularizer:
            self.regularizer = regzr
        if not self.context:
            self.context = _DEFAULT_CONTEXT[self.family]
        if not self.link:
            self.link = default_link(Family(self.family)).value
        if self.link not in {m.value for m in Link}:
            raise ConfigError(f"unknown link {self.link!r}", "link")
        if not self.step_size_grid:
            self.step_size_grid = DEFAULT_STEP_GRID
        if self.implicit_zero is None:
            self.implicit_zero = int(self.family in _IMPLICIT_FAMILIES)
        if not self.split:
            self.split = "none" if self.context == "window" else "columns"
        if self.context not in ("knn", "basket", "window"):
            raise ConfigError(f"unknown context builder {self.context!r}", "context")
        if self.family == "categorical" and self.context != "window":
            # a categorical column holds one entry, so the knn or basket
            # context of its active term is empty
            raise ConfigError(f"categorical family needs a window context, got "
                              f"{self.context!r}", "context")
        if self.split not in ("columns", "ratings", "none"):
            raise ConfigError(f"unknown split {self.split!r}", "split")
        if self.estimator == "sparse":
            fault = sparse_fault(bool(self.implicit_zero), Family(self.family))
            if fault is not None:
                # name the line that departs from the family's defaults: a family
                # that defaults to sparse fails only on an explicit implicit_zero = 0
                default = _ARCHETYPE_DEFAULTS[self.family][2]
                raise ConfigError(fault, "implicit_zero" if default == "sparse" else "estimator")
        for step in self.step_size_grid:
            try:
                self.train_config(step).validate()
            except ConfigError as exc:  # keyed by a TrainConfig field: name its config key
                key = {"dim": "k", "n_iterations": "iterations", "downweight": "gamma",
                       "step_size": "step_size_grid"}.get(exc.key, exc.key)
                raise ConfigError(str(exc), key) from None

    def family_spec(self, vocab_size: int = 0) -> FamilySpec:
        return FamilySpec(Family(self.family), Link(self.link),
                          sigma2=self.sigma2, vocab_size=vocab_size)

    def train_config(self, step_size: float) -> TrainConfig:
        return TrainConfig(
            dim=self.k,
            step_size=step_size,
            minibatch_size=self.minibatch_size,
            n_iterations=self.iterations,
            negative_samples=self.negative_samples,
            zero_estimator=self.zero_estimator,
            downweight=self.gamma,
            reg_weight=self.reg_weight,
            regularizer=self.regularizer,
            estimator=self.estimator,
            seed=self.seed,
        )

    def canonical_text(self) -> str:
        parts = []
        for f in fields(RunConfig):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(f"{x:g}" for x in v)
            parts.append(f"{f.name}={v}")
        return "\n".join(parts) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# value parsers by the first type of a RunConfig field's annotation
_PARSERS = {"bool": lambda v: _BOOL_WORDS[v.lower()], "int": int, "float": float, "str": str,
            "tuple": lambda v: tuple(float(s) for s in v.split(",") if s.strip())}


def parse_run_config(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment.  Unknown keys fail."""
    parsers = {f.name: _PARSERS[f.type.split("[")[0].split(" |")[0]]
               for f in fields(RunConfig)}
    kv: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "lambda":  # accepted alias for the regularization weight
            key = "reg_weight"
        if key not in parsers:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        line_of[key] = ln
        try:
            kv[key] = parsers[key](val)
        except (KeyError, ValueError):
            raise ConfigError(f"config line {ln}: bad value for {key}: {val!r}") from None
    if "family" not in kv:
        raise ConfigError("config must set family")
    try:
        return RunConfig(**kv)  # type: ignore[arg-type]
    except ConfigError as exc:
        if exc.key not in line_of:
            raise
        raise ConfigError(f"config line {line_of[exc.key]}: {exc}", exc.key) from None


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(read_text(path, ConfigError))
