"""File formats and ingestion: triplet data, entity locations, model
persistence, and run configuration.

All formats are line-oriented UTF-8 text under any locale.  Triplet and
locations files carry a header line whose delimiter (tab or comma) sets the
delimiter for the rest of the file.  Model files round-trip banks
bit-exactly by printing floats with 17 significant digits.  Writes go
through a temp-and-rename so readers never observe partial files.

Triplet runs and model bodies take one of two paths.  A *plain* text
(``_plain_fields``: ASCII, every line of its width, no blank line, no
whitespace or line break but the delimiter and ``\n``) is split, checked and
parsed by C-level passes with no Python step per line; any other text, and a
plain one with a value that is not a finite ``float()``, is read line by
line.  Both paths give the same matrix, bank and labels, and only the line
path (or the fault walk) raises, so every error and line number is the line
loop's.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import re
import sys
import tempfile
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, count, repeat

import numpy as np

from .core import DataMatrix, EmbeddingBank, sorted_keys
from .errors import CompatibilityError, ConfigError, DataError
from .contexts import WindowSpec
from .evaluate import SplitSpec
from .families import VALUE_RULES, Family, FamilySpec, ValueRule
from .train import TrainConfig, sparse_fault

MODEL_MAGIC = "#glembed-model v1"
# bytes per run of lines that read_triplets reads and parses at once
RUN_CHARS = 2**18
# bytes per span of a file that read_triplets parses on forked children
SPAN_CHARS = 2**23
# lines per run that write_triplets formats at once
WRITE_RUN_LINES = 2**13
# per delimiter, the bytes that _plain_fields' shape check drops: all but the
# delimiter, '\n' and every other byte that str.strip strips or
# str.splitlines splits on (and a tab in a comma text), so that any of those
# spoils the comparison
_NOT_SHAPE = {d: bytes(sorted(set(range(256)) - set(
    f"{d}\n \r\x0b\x0c\x1c\x1d\x1e\x1f\t".encode()))) for d in "\t,"}


def check_output_path(path: str) -> str:
    """The directory that ``path`` is written into; a ConfigError when it
    does not exist."""
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d):
        raise ConfigError(f"{path}: output directory {d} does not exist")
    return d


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or the pieces it yields in turn, to ``path`` as UTF-8
    through a temp file and a rename."""
    d = check_output_path(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-glembed-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str, error: type = DataError) -> str:
    """The text of ``path``, the join of its ``_runs``; an unreadable or
    undecodable file raises ``error`` with the message of ``_runs``."""
    try:
        return "".join(_runs(path, 0, sys.maxsize))
    except DataError as exc:
        raise error(str(exc)) from None


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
    """
    data = _read_matrix(path)
    return (data.row_labels, data.col_labels, *data.entries())


def _read_matrix(path: str, rule: ValueRule | None = None) -> DataMatrix:
    """The explicit, labelled matrix of a triplet file (``_parse_spans``),
    its entries in file order and its keys those of the duplicate check.  A
    faulty span, a duplicate or a value that ``rule`` refuses is numbered by
    the fault walk (``_raise_first_fault``)."""
    head = next(_runs(path, 0, sys.maxsize), "")
    if not head:
        raise DataError(f"{path}: empty file")
    # the header is the first line: it ends at or before the first '\n'
    delim = _detect_delimiter(head[:head.find("\n") + 1 or len(head)].splitlines()[0])
    del head
    parsed = _parse_spans(path, delim)
    if parsed is None or rule and not rule.holds(parsed[-1]).all():
        _raise_first_fault(path, delim, rule=rule)  # a faulty line wins over any duplicate
    row_labels, col_labels, rows, cols, vals = parsed
    keys = np.multiply(rows, len(col_labels), dtype=np.int64)
    keys += cols
    del rows, cols
    keys, order, e = sorted_keys(keys)
    if e >= 0:
        _raise_first_fault(path, delim, e)
    return DataMatrix.from_keys(len(row_labels), len(col_labels), keys,
                                vals if order is None else vals[order], order,
                                row_labels=row_labels, col_labels=col_labels)


def _runs(path: str, start: int, stop: int) -> Iterator[str]:
    """The text of bytes ``start:stop`` of ``path``, which start a line, in
    runs of whole lines: ``RUN_CHARS`` bytes extended to just after the next
    ``\n`` (or to ``stop``), each decoded as UTF-8.  No run cuts a character
    or a ``\r\n``, so the runs split into the lines of the text.  A fault
    raises a DataError naming the path, at the byte offset in the file."""
    try:
        with open(path, "rb") as f:
            f.seek(start)
            while start < stop and (run := f.read(min(RUN_CHARS, stop - start))):
                run += b"" if run.endswith(b"\n") else f.readline(stop - start - len(run))
                try:
                    text = run.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: not {exc.encoding} text ({exc.reason} at "
                                    f"byte {start + exc.start})") from None
                yield text
                start += len(run)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _span_cuts(path: str) -> list[int]:
    """The byte offsets that cut ``path`` into the spans read_triplets
    parses at once, each cut just after a ``\n``: one span per
    ``SPAN_CHARS`` bytes, at most one per CPU, and one span in this process
    when it may not fork children: no ``fork`` start method, another Python
    thread alive, a daemonic process, or Python 3.12 or later (whose
    ``os.fork`` warns in a process with a second OS thread, and numpy's
    OpenBLAS pool is one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        n = min(cpus, -(-size // SPAN_CHARS))
        if (n < 2 or "fork" not in multiprocessing.get_all_start_methods()
                or threading.active_count() > 1 or multiprocessing.current_process().daemon
                or sys.version_info >= (3, 12)):
            return [0, size]
        # a cut follows the first '\n' at or after its share of the bytes
        return sorted({0, size} | {f.seek(size * i // n) + len(f.readline()) for i in range(1, n)})


def _parse_spans(path: str, delim: str) -> tuple | None:
    """The ``_parse_span`` part of the file ``path``, merged from those of
    its spans (``_span_cuts``) in span order: a label keeps the id of the
    first span it is in; or None when a span is faulty, the first without
    waiting for the children's parts.  The first span is parsed here, each
    later one by a forked child that reads it from the file and sends its
    part back, so no process holds the file's text.  A child that dies or
    cannot be forked makes this process parse the file in one span.  No
    child outlives the call: on any exit before every part has arrived the
    children are killed, and all are joined."""
    cuts = _span_cuts(path)
    fork = multiprocessing.get_context("fork")
    children = []
    parts = None
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_span, args=(send, path, start, stop, delim))
            child.start()
            children.append((child, receive))
            send.close()
        parts = [_parse_span(path, cuts[0], cuts[1], delim)]
        # a faulty first span waits for no part
        parts += [_received_part(receive) for _, receive in children] if parts[0] else []
    except (EOFError, OSError):  # a child died before it sent, or could not fork
        parts = None
    finally:
        for child, receive in children:
            if len(parts or ()) < len(cuts) - 1:
                child.kill()
            child.join()
            receive.close()
    if parts is None:  # the one-span parse, here
        parts = [_parse_span(path, 0, cuts[-1], delim)]
    if None in parts:
        return None
    # the first part's ids are its first-seen ones, so already those of the
    # merge: its indexes and arrays grow in place, and only later parts are
    # remapped
    index, out = parts[0][:2], parts[0][2:]
    at = np.cumsum([0, *(len(p[4]) for p in parts)]).tolist()
    for a in out:
        a.resize(at[-1], refcheck=False)
    for p, s, e in zip(parts[1:], at[1:], at[2:]):
        for k in (0, 1):  # mode="clip" takes into ``out`` unbuffered; every id is in range
            # the index's lookup gives a label new to it the next id
            ids = np.fromiter(map(index[k].__getitem__, p[k]), np.int32, len(p[k]))
            np.take(ids, p[k + 2], out=out[k][s:e], mode="clip")
        out[2][s:e] = p[4]
    return list(index[0]), list(index[1]), *out


def _send_span(send, path: str, start: int, stop: int, delim: str) -> None:
    """Send the parent the ``_parse_span`` part of bytes ``start:stop`` of
    ``path``, or None when the span is faulty."""
    try:
        part = _parse_span(path, start, stop, delim)
    except DataError:  # an undecodable byte, which the parent's fault walk raises
        part = None
    # the labels go as lists, in id order; the arrays as raw bytes, which the
    # parent reads without a copy
    send.send(part and (list(map(list, part[:2])), [a.dtype.str for a in part[2:]]))
    for a in part[2:] if part else ():
        send.send_bytes(a)


def _received_part(receive):
    """The ``_send_span`` part that ``receive`` brings, or None."""
    head = receive.recv()
    return head and (*head[0], *(np.frombuffer(receive.recv_bytes(), t) for t in head[1]))


def _parse_span(path: str, start: int, stop: int, delim: str):
    """Parse the lines of bytes ``start:stop`` of ``path``, which start a
    line and end just after a ``\n`` or at the end of the file; the file's
    first line is its header and is skipped.  Returns the span's row and
    column ids by label (in first-seen order), the entries' row and column
    ids, and the values; or None when a line is faulty, for the fault walk
    (``_raise_first_fault``) to find and number.

    The span is read in runs of whole lines (``_runs``), so memory is O(one
    run + entries).  A plain run (``_plain_fields``; in the first run, after
    a header that ends at its first ``\n``) is split and checked by C-level
    passes and its ids are used as they are; any other run, or a plain one
    with a value that is not a finite ``float()`` (such as an empty value),
    goes through ``_parse_lines``, which alone tells a blank line from a
    faulty one.  Both give the same ids and values.  Each id is mapped to
    its first-seen index by one dict lookup.
    """
    index = (defaultdict(count().__next__), defaultdict(count().__next__))  # ids by label
    out = [np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)]  # rows, cols, vals
    n = 0
    header = start == 0  # whether the next run starts with the header
    for run in _runs(path, start, stop):
        cut = run.find("\n") + 1 if header else 0
        fields = (_plain_fields(run[cut:], delim, 3)
                  if not header or cut and _one_line(run[:cut - 1]) else None)
        v = None if fields is None else _finite_floats(fields[2::3])
        if v is None:
            parsed = _parse_lines(run, delim, header)
            if parsed is None:
                return None
            *keys, v = parsed
        else:
            keys = fields[0::3], fields[1::3]
        header = False
        if n + len(v) > len(out[2]):  # grown in place by a quarter: no run arrays to join
            for a in out:
                a.resize(max(len(a) * 5 // 4, n + len(v)), refcheck=False)
        for k in (0, 1):
            out[k][n:n + len(v)] = np.fromiter(map(index[k].__getitem__, keys[k]), np.int32,
                                               len(v))
        out[2][n:n + len(v)] = v
        n += len(v)
    for a in out:
        a.resize(n, refcheck=False)
    return *index, *out


def _plain_fields(text: str, delim: str, width: int) -> list[str] | None:
    """The fields of the lines of ``text`` in order, each line ended by a
    ``\n`` (the last one may not be), when ``text`` is plain: ASCII, with
    ``width`` fields of ``delim`` to every line, no blank line, and no other
    byte that ``str.splitlines`` splits on or ``str.strip`` strips (no tab
    in a comma text).  Else None.  The lines of a plain text are its
    ``splitlines``, and no field of it has anything to strip.  One split
    gives the fields, and one ``bytes.translate`` comparison checks the
    shape."""
    if not text:
        return []
    body = text[:-1] if text[-1] == "\n" else text
    shape = ((delim * (width - 1) + "\n") * (body.count("\n") + 1))[:-1]
    if not body.isascii() or body.encode().translate(None, _NOT_SHAPE[delim]) != shape.encode():
        return None
    return body.replace("\n", delim).split(delim)


def _finite_floats(texts: list[str]) -> np.ndarray | None:
    """The ``float()`` of each of ``texts``, or None when one does not parse
    or is not finite."""
    try:
        v = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None
    return v if np.isfinite(v).all() else None


def _parse_lines(run: str, delim: str, header: bool):
    """The stripped row ids, column ids and values of the non-blank lines of
    ``run`` (after its first, if ``header``), each line's field count
    checked on its own; or None when a line is faulty."""
    body = list(filter(str.strip, run.splitlines()[header:]))
    fields = delim.join(body).split(delim) if body else []
    try:  # fields misaligned by a line of another field count are a fault too
        v = np.fromiter(map(float, fields[2::3]), np.float64, len(body))
    except ValueError:
        return None
    keys = [list(map(str.strip, fields[k::3])) for k in (0, 1)]
    # a tab inside an id of a comma file would split the line that
    # write_triplets writes for it
    if (not set(map(str.count, body, repeat(delim))) <= {2} or not np.isfinite(v).all()
            or delim == "," and "\t" in "".join(keys[0]) + "".join(keys[1])):
        return None
    return *keys, v


def _raise_first_fault(path: str, delim: str, duplicate: int = -1,
                       rule: ValueRule | None = None) -> None:
    """Raise the DataError that the line loop raises for the faulty triplet
    file ``path`` of delimiter ``delim``, reading it once: that of an
    undecodable byte anywhere in it, else that of its first faulty line (one
    that does not parse, or given ``rule``, whose value it does not hold),
    else the duplicate entry of its non-blank body line ``duplicate``
    (counted from 0)."""
    runs = _runs(path, 0, sys.maxsize)
    lines = enumerate(chain.from_iterable(map(str.splitlines, runs)), 1)
    try:  # the body: every non-blank line after the header
        for e, (ln, line) in enumerate(filter(lambda p: p[0] > 1 and p[1].strip(), lines)):
            parts = line.split(delim)
            if len(parts) != 3:
                raise DataError(f"{path}:{ln}: expected 3 fields, got {len(parts)}")
            rk, ck, vtext = map(str.strip, parts)
            for key in (rk, ck):
                if "\t" in key:
                    raise DataError(f"{path}:{ln}: tab inside id {key!r}")
            try:
                v = float(vtext)
            except ValueError:
                raise DataError(f"{path}:{ln}: bad value {vtext!r}") from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{ln}: non-finite value {vtext!r}")
            if rule and not rule.holds(v):
                raise DataError(f"{path}:{ln}: {rule.message}")
            if e == duplicate:
                raise DataError(f"{path}:{ln}: duplicate entry for ({rk}, {ck})")
    finally:
        for _ in runs:  # an undecodable byte anywhere wins
            pass
    raise AssertionError(f"{path}: no fault found")


def write_triplets(path: str, data: DataMatrix) -> None:
    atomic_write(path, _triplet_text(data))


def _triplet_text(data: DataMatrix) -> Iterator[str]:
    """The triplet file of ``data`` in pieces of ``WRITE_RUN_LINES`` lines,
    each formatted by one ``%`` over the line template repeated per line."""
    rl = data.row_labels or [str(i) for i in range(data.n_rows)]
    cl = data.col_labels or [str(i) for i in range(data.n_cols)]
    yield "row\tcol\tvalue\n"
    for s in range(0, data.nnz, WRITE_RUN_LINES):
        rows, cols, vals = data.entries(slice(s, s + WRITE_RUN_LINES))
        fields = [None] * (3 * len(vals))
        fields[0::3] = map(rl.__getitem__, rows.tolist())
        fields[1::3] = map(cl.__getitem__, cols.tolist())
        fields[2::3] = vals.tolist()
        yield ("%s\t%s\t%.17g\n" * len(vals)) % tuple(fields)


def ingest(path: str, *, family: Family | None = None, implicit_zero=False, lag=False,
           rating_shift=False, min_row_count=0, min_col_count=0,
           row_vocab: list[str] | None = None) -> DataMatrix:
    """Load a triplet file and apply the preprocessing transforms in order:
    ``row_vocab`` (the row universe and order of a trained model; an unknown
    row id raises CompatibilityError), lag, rating shift-and-clamp, the
    implicit-zero drop, then minimum-count filters.  Each derives a new
    matrix from the keys of the one before, in its entry order.  Given
    ``family`` and neither lag nor rating shift, every value of the file,
    kept or not, must pass the family's ``VALUE_RULES`` entry, and the first
    that does not names its line."""
    _check_min_counts(min_row_count, min_col_count)  # before the file is read
    data = _read_matrix(path, None if lag or rating_shift else VALUE_RULES.get(family))
    if row_vocab is not None:
        lookup = {k: i for i, k in enumerate(row_vocab)}
        try:
            remap = [lookup[k] for k in data.row_labels]
        except KeyError as e:
            raise CompatibilityError(f"row id {e.args[0]!r} not in the model vocabulary") from None
        keep = np.full(len(row_vocab), -1)
        keep[remap] = np.arange(len(remap))
        data = data.select(0, keep, list(row_vocab))
    if lag:
        data = data.lagged(every_cell=not implicit_zero)
    if rating_shift:
        data = data.map_values(lambda v: np.maximum(v - 2.0, 0.0))
    if implicit_zero:
        if not data.vals.all():
            data = data.select_entries(np.flatnonzero(data.vals))
        data.implicit_zero = True  # set on a fresh matrix that stores no zero, before any use
    for axis, least in ((0, min_row_count), (1, min_col_count)):
        if least > 0:
            data = data.select(axis, np.flatnonzero(data.counts(axis) >= least))
    return data


def _check_min_counts(min_row_count: int, min_col_count: int) -> None:
    for key, least in (("min_row_count", min_row_count), ("min_col_count", min_col_count)):
        if least < 0:
            raise ConfigError(f"{key} must be >= 0, got {least}", key)


# ---------------------------------------------------------------------------
# locations files
# ---------------------------------------------------------------------------

def read_locations(path: str, row_labels: list[str]) -> np.ndarray:
    """Per-entity coordinates aligned with the given row order.

    Rows are (entity_id, x, y[, z]); missing axes are zero-filled.  Every
    modeled entity must appear exactly once.  The first line is a header:
    one that reads as a row is an error, not an entity skipped.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    delim = _detect_delimiter(lines[0])
    header = [p.strip() for p in lines[0].split(delim)]
    try:
        headless = len(header) in (3, 4) and all(math.isfinite(float(p)) for p in header[1:])
    except ValueError:
        headless = False
    if headless:
        raise DataError(f"{path}:1: expected a header line, got a location row")
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

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# value parsers by the first type of a field's annotation (RunConfig, ModelMeta)
_PARSERS = {"bool": lambda v: _BOOL_WORDS[v.lower()], "int": int, "float": float, "str": str,
            "tuple": lambda v: tuple(float(s) for s in v.split(",") if s.strip())}


def _parser_of(f) -> Callable[[str], object]:
    return _PARSERS[f.type.split("[")[0].split(" |")[0]]


def _one_line(text: str) -> bool:
    """Whether ``text`` holds no line break that ``str.splitlines`` splits on."""
    return text.splitlines() in ([], [text])


def _read_fields(cls, lines: Iterable[tuple[int, str]], fault: Callable, build=None,
                 spaced: bool = False):
    """``build(**values)`` (``cls`` by default) of the fields of the dataclass
    ``cls`` that the (line number, ``key=value`` text) pairs ``lines`` set,
    each value parsed by its field's type; ``spaced`` strips keys and values.
    A line not key=value, an unknown, repeated or unparsable key, or a
    ConfigError of ``build`` keyed by fields that lines set raises ``fault(the
    line's number, ConfigError)``, at the last such line for several keys."""
    parsers = {f.name: _parser_of(f) for f in fields(cls)}
    values, line_of = {}, {}
    for ln, line in lines:
        try:
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}")
            key, val = map(str.strip, line.split("=", 1)) if spaced else line.split("=", 1)
            if key not in parsers or key in values:
                raise ConfigError(f"{'duplicate' if key in values else 'unknown'} key {key!r}")
            values[key], line_of[key] = parsers[key](val), ln
        except (KeyError, ValueError):
            raise fault(ln, ConfigError(f"bad value for {key}: {val!r}")) from None
        except ConfigError as exc:
            raise fault(ln, exc) from None
    try:
        return (build or cls)(**values)
    except ConfigError as exc:
        at = [line_of[k] for k in (exc.key if isinstance(exc.key, tuple) else (exc.key,))
              if k in line_of]
        raise fault(max(at), exc) if at else exc from None


def _renamed(exc: ConfigError, names: dict) -> ConfigError:
    """``exc`` keyed, and its message led, by ``names[exc.key]`` if any."""
    key, msg = names.get(exc.key, exc.key), str(exc)
    led = key != exc.key and msg.startswith(exc.key)
    return ConfigError(key + msg[len(exc.key):] if led else msg, key)


@dataclass
class ModelMeta:
    """A model file's header.  ``check`` holds its rules; store_model runs it
    before writing, load_model after reading."""

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

    def _run_config(self) -> RunConfig:
        """The RunConfig whose settings this header records, as ``model_meta``
        writes them; a fault is keyed by the field of the setting at fault."""
        try:  # the context takes the parameter of its own setting, if any
            return RunConfig(family=self.family, link=self.link, sigma2=self.sigma2, k=self.dim,
                             seed=self.seed, context=self.context,
                             knn_k=self.context_param, window_w=self.context_param)
        except ConfigError as exc:
            raise _renamed(exc, _FIELD_OF) from None

    def family_spec(self) -> FamilySpec:
        return self._run_config().family_spec(self.vocab_size)

    def header(self) -> dict[str, str]:
        """The header text of each field, as store_model writes it."""
        return {f.name: f"{int(v) if f.type == 'bool' and v in (0, 1) else v}"
                for f in fields(self) for v in [getattr(self, f.name)]}

    def check(self, bank: EmbeddingBank | None = None) -> None:
        """Raise a ConfigError keyed by the field at fault: a value its header
        text does not read back as; a family, link, sigma2, dim, seed, context,
        context_param, vocab_size or log_space of no header that
        ``RunConfig.model_meta`` writes; an unknown sharing; given ``bank``,
        also a dim, n_entities, sharing or log_space that does not describe it."""
        for f, text in zip(fields(self), self.header().values()):
            try:
                same = _parser_of(f)(text) == getattr(self, f.name) and _one_line(text)
            except (KeyError, ValueError):
                same = False
            if not same:
                raise ConfigError(f"{f.name}={getattr(self, f.name)!r} does not read back "
                                  f"from its header text", f.name)
        cfg = self._run_config()
        log_space = cfg.family_spec(self.vocab_size).needs_log_space
        # RunConfig takes an empty link for the family's default
        faults = [("link", cfg.link != self.link, "is not a link name"),
                  ("context_param", cfg.context_param != self.context_param,
                   f"is not {cfg.context_param} for a {self.context} context"),
                  ("sharing", self.sharing not in ("per_row", "global", "tied"),
                   "is not per_row, global or tied"),
                  ("log_space", self.log_space != log_space,
                   f"is not {log_space} for the {self.family} family")]
        if bank is not None:
            faults += [("dim", self.dim != bank.dim, f"does not match a bank of dim {bank.dim}"),
                       ("n_entities", self.n_entities != bank.n_rows,
                        f"does not match a bank of {bank.n_rows} rows"),
                       ("sharing", (self.sharing == "tied") != bank.tied,
                        f"does not match a{' tied' if bank.tied else 'n untied'} bank"),
                       ("log_space", self.log_space != bank.log_space,
                        "does not match the bank's log_space")]
        for key, bad, why in faults:
            if bad:
                raise ConfigError(f"{key}={getattr(self, key)} {why}", key)


def store_model(path: str, bank: EmbeddingBank, meta: ModelMeta,
                row_labels: list[str] | None = None) -> None:
    """Write ``bank`` under the header ``meta``.  A header that
    ``ModelMeta.check`` rejects against the bank, or a label that would not
    read back (a tab or a line break in it, or one repeated), raises a
    DataError before anything is written."""
    labels = row_labels or [str(i) for i in range(bank.n_rows)]
    if len(labels) != bank.n_rows:
        raise DataError("one label per bank row required")
    if len(set(labels)) != len(labels):
        raise DataError("row labels must be distinct")
    bad = [key for key in labels if "\t" in key or not _one_line(key)]
    if bad:
        raise DataError(f"row label {bad[0]!r} holds a tab or a line break")
    try:
        meta.check(bank)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    lines = [MODEL_MAGIC, *(f"{k}={v}" for k, v in meta.header().items()), "#entities"]
    for i, key in enumerate(labels):
        nums = [f"{v:.17g}" for v in (*bank.embeddings[i], *bank.context_vectors[i])]
        lines.append(key + "\t" + "\t".join(nums))
    atomic_write(path, "\n".join(lines) + "\n")


def load_model(path: str):
    """Read a model file back into (bank, meta, row_labels).  A header line not
    as store_model writes it, or a ``ModelMeta.check`` fault of the header (or
    then of the bank it describes), names its line."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a glembed model file")
    end = lines.index("#entities") if "#entities" in lines else len(lines)

    def read(**values):
        if end == len(lines):
            raise DataError(f"{path}: missing #entities section")
        missing = [f.name for f in fields(ModelMeta) if f.name not in values]
        if missing:
            raise DataError(f"{path}: header missing {missing[0]}")
        meta = ModelMeta(**values)
        written = meta.header()
        for key, text in (line.partition("=")[::2] for line in lines[1:end]):
            if text != written[key]:
                raise ConfigError(f"{key} is written {written[key]!r}, not {text!r}", key)
        meta.check()
        bank, labels = _read_entities(path, lines, end + 1, meta)
        meta.check(bank)
        return bank, meta, labels
    return _read_fields(ModelMeta, enumerate(lines[1:end], start=2), build=read,
                        fault=lambda ln, exc: DataError(f"{path}:{ln}: bad header line: {exc}"))


def _read_entities(path: str, lines: list[str], body_at: int, meta: ModelMeta):
    """The bank and labels of the entity lines ``lines[body_at:]`` under the
    checked header ``meta``.  A plain body (``_plain_fields`` of ``1 + 2 *
    dim`` fields a line) whose labels are distinct, whose values are finite
    ``float()`` values and, if tied, whose context vectors equal its
    embeddings, is split, parsed and checked by C-level passes; any other
    goes to ``_read_entity_lines``, which raises its fault naming the line.
    Both give the same bank and labels."""
    dim, tied = meta.dim, meta.sharing == "tied"
    width = 1 + 2 * dim
    fields = _plain_fields("\n".join(lines[body_at:]), "\t", width)
    if fields is not None:
        labels = fields[::width]
        del fields[::width]
        v = _finite_floats(fields)
        if v is not None and len(set(labels)) == len(labels):
            v = v.reshape(len(labels), 2 * dim)
            emb, cv = v[:, :dim], v[:, dim:]
            if not tied or np.array_equal(emb, cv):
                return EmbeddingBank(emb, emb if tied else cv, log_space=meta.log_space), labels
    return _read_entity_lines(path, lines, body_at, meta)


def _read_entity_lines(path: str, lines: list[str], body_at: int, meta: ModelMeta):
    """``_read_entities`` one line at a time, each checked on its own: a
    faulty line raises a DataError naming it, and a ConfigError keyed by
    ``dim`` when every entity line holds one number of fields other than
    ``1 + 2 * dim``."""
    tied = meta.sharing == "tied"
    labels, emb_rows, cv_rows, seen = [], [], [], set()
    for ln, line in enumerate(lines[body_at:], start=body_at + 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + 2 * meta.dim:
            if len({s.count("\t") for s in lines[body_at:] if s.strip()}) == 1:
                raise ConfigError(f"dim={meta.dim} does not match entity lines of "
                                  f"{len(parts)} fields", "dim")
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
    emb = np.asarray(emb_rows).reshape(-1, meta.dim)
    cv = emb if tied else np.asarray(cv_rows).reshape(-1, meta.dim)
    return EmbeddingBank(emb, cv, log_space=meta.log_space), labels


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_CONTEXTS = ("knn", "basket", "window")
# per family, the settings it defaults to (a RunConfig field left at its
# declared default takes the family's value) and how its model shares vectors
_DEFAULTED = ("reg_weight", "iterations", "estimator", "minibatch_size", "regularizer",
              "context", "implicit_zero", "sharing")
FAMILY_DEFAULTS = {family: dict(zip(_DEFAULTED, row)) for family, row in {
    "gaussian": (10.0, 500, "minibatch", 100, "l2", "knn", 0, "per_row"),
    "nonneg_gaussian": (0.1, 500, "minibatch", 100, "l2", "knn", 0, "per_row"),
    "poisson": (1.0, 3000, "sparse", 0, "l2", "basket", 1, "per_row"),
    "additive_poisson": (1.0, 3000, "sparse", 0, "l2", "basket", 1, "per_row"),
    "bernoulli": (1.0, 3000, "sparse", 0, "l2", "window", 1, "global"),
    "categorical": (0.0, 1000, "full", 0, "none", "window", 1, "global"),
}.items()}
DEFAULT_STEP_GRID = (0.01, 0.05, 0.1, 0.5)
# TrainConfig, SplitSpec and WindowSpec fields set by a RunConfig key of another
# name (any other by the key of its name, if any), which their faults are about
_KEY_OF = {"dim": "k", "n_iterations": "iterations", "downweight": "gamma",
           "step_size": "step_size_grid", "variant": "split", "half_width": "window_w"}
# the ModelMeta field that records each RunConfig setting of another name
_FIELD_OF = {"k": "dim", "knn_k": "context_param", "window_w": "context_param"}


@dataclass
class RunConfig:
    """Flat key=value training configuration with per-family defaults.  Each
    setting is checked by building what it configures: the ``FamilySpec``,
    the ``SplitSpec`` (unless ``split`` is none), the ``WindowSpec`` of a
    window context and the ``TrainConfig`` of every grid step."""

    family: str | None = None
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
        if self.family is None:
            raise ConfigError("config must set family")
        if self.family not in FAMILY_DEFAULTS:
            raise ConfigError(f"unknown family {self.family!r}", "family")
        if self.implicit_zero not in (None, 0, 1):
            raise ConfigError(f"implicit_zero must be 0 or 1, got {self.implicit_zero}",
                              "implicit_zero")
        defaults = FAMILY_DEFAULTS[self.family]
        for f in fields(self):
            if f.name in defaults and getattr(self, f.name) == f.default:
                setattr(self, f.name, defaults[f.name])
        self.step_size_grid = self.step_size_grid or DEFAULT_STEP_GRID
        self.split = self.split or ("none" if self.context == "window" else "columns")
        try:
            self.link = self.family_spec().link.value
            self._check()
        except ConfigError as exc:  # keyed by a field of what it builds: name the setting
            raise _renamed(exc, _KEY_OF) from None

    def _check(self) -> None:
        if self.context not in _CONTEXTS:
            raise ConfigError(f"unknown context builder {self.context!r}", "context")
        if self.family == "categorical" and self.context != "window":
            # a categorical column holds one entry, so the knn or basket
            # context of its active term is empty
            raise ConfigError(f"categorical family needs a window context, got "
                              f"{self.context!r}", "context")
        if self.context == "knn" and self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}", "knn_k")
        if self.context == "window":
            WindowSpec(**self._fields_of(WindowSpec))
        if self.split != "none":
            self.split_spec()
        for name in ("train_frac", "valid_frac", "test_frac"):
            if not math.isfinite(getattr(self, name)):  # unused under split = none
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}", name)
        _check_min_counts(self.min_row_count, self.min_col_count)
        fault = sparse_fault(bool(self.implicit_zero), Family(self.family))
        if self.estimator == "sparse" and fault is not None:
            raise ConfigError(fault, ("estimator", "implicit_zero"))
        for step in self.step_size_grid:
            self.train_config(step).validate()

    def _fields_of(self, cls) -> dict:
        """The values of the settings that set fields of ``cls``, by field."""
        keys = {f.name for f in fields(self)}
        return {f.name: getattr(self, _KEY_OF.get(f.name, f.name)) for f in fields(cls)
                if _KEY_OF.get(f.name, f.name) in keys}

    def family_spec(self, vocab_size: int = 0) -> FamilySpec:
        return FamilySpec(Family(self.family), self.link, sigma2=self.sigma2,
                          vocab_size=vocab_size)

    @property
    def context_param(self) -> int:
        """The parameter of the context: ``knn_k``, ``window_w`` or 0 (basket)."""
        return {"knn": self.knn_k, "window": self.window_w}.get(self.context, 0)

    def model_meta(self, bank: EmbeddingBank, vocab_size: int = 0) -> ModelMeta:
        """The header ``glembed train`` stores with ``bank``, fitted under this
        config to data of ``vocab_size`` rows (0 unless categorical)."""
        return ModelMeta(family=self.family, link=self.link,
                         sharing=FAMILY_DEFAULTS[self.family]["sharing"],
                         log_space=bank.log_space, dim=self.k, n_entities=bank.n_rows,
                         sigma2=self.sigma2, vocab_size=vocab_size, seed=self.seed,
                         context=self.context, context_param=self.context_param,
                         config_digest=self.digest())

    def split_spec(self) -> SplitSpec:
        return SplitSpec(**self._fields_of(SplitSpec))

    def train_config(self, step_size: float) -> TrainConfig:
        return TrainConfig(**{**self._fields_of(TrainConfig), "step_size": step_size})

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


def parse_run_config(text: str) -> RunConfig:
    """Parse key=value lines: '#' starts a comment, keys and values are
    stripped, and ``lambda`` names ``reg_weight``.  Unknown keys fail."""
    lines = [(ln, re.sub(r"^\s*lambda\s*=", "reg_weight=", line))
             for ln, raw in enumerate(text.splitlines(), start=1)
             for line in [raw.split("#", 1)[0]] if line.strip()]
    return _read_fields(RunConfig, lines, spaced=True,
                        fault=lambda ln, exc: ConfigError(f"config line {ln}: {exc}", exc.key))
