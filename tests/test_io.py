import errno
import itertools
import multiprocessing
import multiprocessing.connection
import os
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glembed import dataio
from glembed.cli import main
from glembed.core import DataMatrix, EmbeddingBank
from glembed.dataio import (
    ModelMeta,
    RunConfig,
    ingest,
    load_model,
    parse_run_config,
    read_locations,
    read_triplets,
    store_model,
    write_locations,
    write_triplets,
)
from glembed.errors import CompatibilityError, ConfigError, DataError
from glembed.evaluate import SplitSpec, make_split
from glembed.families import VALUE_RULES, Family

from helpers import (
    LINE_LOOP_VALUE_RULES,
    dense_lag,
    dense_matrix,
    dense_values,
    fstring_write_triplets,
    line_loop_read_triplets,
    rebuild_ingest,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# triplet files
# ---------------------------------------------------------------------------

def test_read_triplets_tab_and_comma(tmp_path):
    t = _write(tmp_path, "a.tsv", "row\tcol\tvalue\nitem1\tt0\t2\nitem2\tt0\t1.5\n")
    rl, cl, rows, cols, vals = read_triplets(t)
    assert rl == ["item1", "item2"] and cl == ["t0"]
    np.testing.assert_array_equal(vals, [2.0, 1.5])
    c = _write(tmp_path, "a.csv", "row,col,value\nitem1,t0,2\nitem1,t1,3\n")
    rl, cl, *_ = read_triplets(c)
    assert rl == ["item1"] and cl == ["t0", "t1"]


def test_read_triplets_first_seen_index_order(tmp_path):
    t = _write(tmp_path, "b.tsv", "row\tcol\tvalue\nz\tc\t1\na\tb\t2\nz\tb\t3\n")
    rl, cl, rows, cols, _ = read_triplets(t)
    assert rl == ["z", "a"] and cl == ["c", "b"]
    assert rows.tolist() == [0, 1, 0] and cols.tolist() == [0, 1, 1]


def test_read_triplets_duplicate_names_line(tmp_path):
    t = _write(tmp_path, "dup.tsv", "row\tcol\tvalue\nx\ty\t1\nx\ty\t2\n")
    with pytest.raises(DataError, match=r":3:"):
        read_triplets(t)


def test_read_triplets_duplicate_names_first_repeating_line(tmp_path):
    # (a, c) sorts first, but (z, b) on line 6 repeats first; line 3 is blank
    t = _write(tmp_path, "dup2.tsv",
               "row\tcol\tvalue\nz\tb\t1\n\na\tc\t2\nq\tb\t3\nz\tb\t4\na\tc\t5\n")
    with pytest.raises(DataError, match=r":6: duplicate entry for \(z, b\)"):
        read_triplets(t)


def test_read_triplets_malformed_names_line(tmp_path):
    t = _write(tmp_path, "bad.tsv", "row\tcol\tvalue\nx\ty\t1\nonly_two\tfields\n")
    with pytest.raises(DataError, match=r":3:"):
        read_triplets(t)
    t2 = _write(tmp_path, "bad2.tsv", "row\tcol\tvalue\nx\ty\tnot_a_number\n")
    with pytest.raises(DataError, match=r":2:.*not_a_number"):
        read_triplets(t2)


def test_write_read_round_trip(tmp_path):
    data = dense_matrix(np.array([[1.25, 0.0], [-3.5, 2.0]]))
    path = str(tmp_path / "rt.tsv")
    write_triplets(path, data)
    rl, cl, rows, cols, vals = read_triplets(path)
    back = DataMatrix(len(rl), len(cl), rows, cols, vals)
    np.testing.assert_array_equal(dense_values(back), dense_values(data))


# run sizes that put a run boundary at every offset of the short lines below
_RUN_SIZES = (*range(1, 24), dataio.RUN_CHARS)

_ORACLE_FILES = {
    "tab": "row\tcol\tvalue\nitem1\tt0\t2\nitem2\tt0\t1.5\nitem1\tt1\t-3\n",
    "comma": "row,col,value\nitem1,t0,2\nitem1,t1,3\nq,t0,4e-3\n",
    # every str.splitlines break; open() folds \r\n and a lone \r into \n
    "breaks": ("row\tcol\tvalue\r\na\tx\t1\r\nb\tx\t2\rc\tx\t3\x0cd\tx\t4\u2028e\tx\t5"
               "\x0bf\tx\t6\x1cg\tx\t7\x1dh\tx\t8\x1ei\tx\t9\x85j\tx\t10\u2029k\tx\t11\r\n"
               "l\tx\t12\r\n\r\nm\tx\t13\r\n"),
    "blanks_padding_unicode": ("row\tcol\tvalue\n\n   \n\t\t\n a \t  b\t 1.5 \n\u3000\n"
                               "ünï\t日本\t2\n ünï \tb\t 3 \n\n"
                               "a\t日本\t4\n \t \t \n"),
    "float_syntax": ("row\tcol\tvalue\nr\ta\t1_0\nr\tb\t１２\nr\tc\t+.5\nr\td\t-0.0\n"
                     "r\te\t5e-324\nr\tf\t1e-310\nr\tg\t-2.2250738585072014e-308\n"
                     "r\th\t1e308\nr\ti\t-1.7976931348623157E+308\nr\tj\t١٢\nr\tk\t0.1\n"),
    "no_trailing_newline": "row,col,value\nx,y,1\nx,z,2",
    "header_only": "row\tcol\tvalue\n",
    "header_only_no_newline": "row\tcol\tvalue",
    "blank_header": "\n\nx,y,1\n",
    "only_blank_lines": "row\tcol\tvalue\n\n \n\t\n",
}


def _assert_same_as_oracle(path):
    want = line_loop_read_triplets(path)
    got = read_triplets(path)
    assert got[:2] == want[:2]
    for g, w in zip(got[2:], want[2:]):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("name", sorted(_ORACLE_FILES))
def test_read_triplets_matches_the_line_loop_at_every_run_boundary(tmp_path, monkeypatch, name):
    path = _write(tmp_path, name + ".tsv", _ORACLE_FILES[name])
    for run_chars in _RUN_SIZES:
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        _assert_same_as_oracle(path)


def test_read_triplets_matches_the_line_loop_on_random_files(tmp_path, monkeypatch):
    # ids reappear across runs, so first-seen order spans run boundaries
    rng = np.random.default_rng(5)
    for trial in range(6):
        n = int(rng.integers(1, 400))
        cells = rng.permutation(40 * 60)[:n]
        vals = rng.normal(scale=10.0 ** rng.integers(-5, 6), size=n).tolist()
        lines = ["row\tcol\tvalue"] + [f"e{c % 40}\tt{c // 40}\t{v!r}" for c, v in zip(cells, vals)]
        lines[1::7] = [" " + line + " " for line in lines[1::7]]
        lines.insert(int(rng.integers(1, len(lines) + 1)), "   ")
        path = _write(tmp_path, f"rand{trial}.tsv", "\n".join(lines))
        for run_chars in (1, 7, 100, 1000, dataio.RUN_CHARS):
            monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
            _assert_same_as_oracle(path)


def _error_text(read, path):
    with pytest.raises(DataError) as exc:
        read(path)
    return str(exc.value)


# each fault follows blank lines and valid lines that fill earlier runs
_FAULTS = {
    "two_fields": "x\ty",
    "four_fields": "x\ty\t1\t2",
    "one_field": "x",
    "bad_value": "x\ty\tone",
    "empty_value": "x\ty\t ",
    "nan": "x\ty\tnan",
    "inf": "x\ty\t inf ",
    "minus_infinity": "x\ty\t-Infinity",
    "duplicate": "r4\tc1\t9",
    "bad_value_then_two_fields": "x\ty\tbad\nx\ty",
    "nan_then_four_fields": "x\ty\tNaN\nx\ty\t1\t2",
    "two_fields_then_bad_value": "x\ty\nx\ty\tbad",
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_read_triplets_raises_the_line_loops_error(tmp_path, monkeypatch, fault):
    valid = [f"r{i}\tc{i % 3}\t{i}.5" for i in range(12)]
    text = "row\tcol\tvalue\n" + "\n".join(valid[:6] + ["", "  "] + valid[6:] + ["", "\t", ""])
    path = _write(tmp_path, "fault.tsv", text + "\n" + _FAULTS[fault] + "\nz\tz\t1\n")
    want = _error_text(line_loop_read_triplets, path)
    for run_chars in (1, 16, 40, 100, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, path) == want


# comma-file lines whose first faulty line is line 15 of the file, each
# followed by a later fault; a tab inside an id is one
_COMMA_FAULTS = {
    "tab_in_row_id": "a\tb,c,1\nx,y,nan",
    "tab_in_col_id": "a,c\td,1\nx,y",
    "bad_value_then_tab_in_id": "x,y,one\na\tb,c,1",
    "two_fields_then_tab_in_id": "x,y\na\tb,c,1",
}


@pytest.mark.parametrize("fault", sorted(_COMMA_FAULTS))
def test_read_triplets_rejects_a_tab_inside_an_id_of_a_comma_file(tmp_path, monkeypatch, fault):
    # tabs around an id or a value are padding, stripped as before
    valid = [f"r{i}, \tc{i % 3}\t ,{i}.5\t" for i in range(12)]
    text = "row,col,value\n" + "\n".join(valid[:6] + [""] + valid[6:])
    path = _write(tmp_path, "fault.csv", text + "\n" + _COMMA_FAULTS[fault] + "\nz,z,1\n")
    want = _error_text(line_loop_read_triplets, path)
    assert want.startswith(f"{path}:15: ") and ("tab inside id" in want) == fault.startswith("tab")
    for run_chars in (1, 16, 40, 100, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, path) == want
    _assert_same_as_oracle(_write(tmp_path, "padded.csv", text))


def test_read_triplets_empty_file_error_matches_the_line_loop(tmp_path):
    path = _write(tmp_path, "empty.tsv", "")
    assert _error_text(read_triplets, path) == _error_text(line_loop_read_triplets, path)


def _assert_read_peak_within_four_times_the_file(tmp_path):
    # a whole-file split (one string per field) would need about 8x
    n = 200_000
    vals = np.random.default_rng(3).normal(size=n).tolist()
    text = "row\tcol\tvalue\n" + "".join(
        "e%d\tt%d\t%.17g\n" % (i % 300, i // 300, v) for i, v in enumerate(vals))
    path = _write(tmp_path, "big.tsv", text)
    size = len(text)
    del text, vals
    tracemalloc.start()
    try:
        _, _, rows, _, _ = read_triplets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert peak < 4 * size


def test_read_triplets_memory_is_within_four_times_the_file(tmp_path):
    _assert_read_peak_within_four_times_the_file(tmp_path)


def test_read_triplets_memory_is_within_four_times_the_file_on_spans(
        tmp_path, monkeypatch, forked):
    # the children's memory is their own; this process holds the text, its
    # own span and the parts it receives
    _force_spans(monkeypatch, 2**20, cpus=2)
    _assert_read_peak_within_four_times_the_file(tmp_path)
    assert len(forked) == 1


def test_row_major_ingest_and_split_hold_under_80_bytes_per_entry(tmp_path, monkeypatch):
    # a row-major file's matrix and its column-split parts are their own key
    # indexes; a sorted copy of each one's values and keys took about 93
    n_rows, n_cols = 300, 1000
    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    vals = np.random.default_rng(5).normal(size=n_rows * n_cols)
    path = str(tmp_path / "row_major.tsv")
    write_triplets(path, DataMatrix(n_rows, n_cols, rows, cols, vals))
    del rows, cols, vals
    _force_spans(monkeypatch, dataio.SPAN_CHARS, cpus=1)  # one span, all in this process
    tracemalloc.start()
    try:
        data = ingest(path)
        make_split(data, SplitSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.nnz == n_rows * n_cols
    assert peak / data.nnz < 80


def _row_major_file(tmp_path, id_chars=0):
    """A row-major triplet file of 300 x 1000 entries whose ids are padded
    by ``id_chars`` characters, and its entry count."""
    n_rows, n_cols = 300, 1000
    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    pad = "x" * id_chars
    data = DataMatrix(n_rows, n_cols, rows, cols, np.random.default_rng(5).normal(size=len(rows)),
                      row_labels=[f"r{i:03d}{pad}" for i in range(n_rows)],
                      col_labels=[f"c{j:04d}{pad}" for j in range(n_cols)])
    path = str(tmp_path / f"row_major_{id_chars}.tsv")
    write_triplets(path, data)
    return path, data.nnz


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_major_ingest_and_split_hold_under_50_bytes_per_entry(tmp_path, monkeypatch):
    # keys and values are the only per-entry arrays of the matrix and of its
    # column-split parts, and the file is read a run at a time; with rows,
    # columns, values and keys per matrix and the whole text read, about 70
    path, nnz = _row_major_file(tmp_path)
    _force_spans(monkeypatch, dataio.SPAN_CHARS, cpus=1)  # one span, all in this process

    def setup():
        data = ingest(path)
        make_split(data, SplitSpec())
        return data

    data, peak = _traced_peak(setup)
    assert data.nnz == nnz
    assert peak / nnz < 50


@pytest.mark.parametrize("spans", [1, 2])
def test_ingest_holds_no_text_of_lines_with_long_ids(tmp_path, monkeypatch, forked, spans):
    # lines of about 220 characters: a reader that holds the file's text
    # needs over 200 bytes per entry, one that reads it a run at a time the
    # same as for short ids
    path, nnz = _row_major_file(tmp_path, id_chars=100)
    assert os.path.getsize(path) / nnz > 200
    _force_spans(monkeypatch, os.path.getsize(path) // spans + 1, cpus=spans)
    data, peak = _traced_peak(lambda: ingest(path))
    assert data.nnz == nnz and len(data.row_labels[0]) == 104
    assert len(forked) == spans - 1
    assert peak / nnz < 40


@pytest.mark.parametrize("id_chars", [0, 100])
@pytest.mark.parametrize("spans", [1, 2])
def test_ingest_merges_span_parts_in_place(tmp_path, monkeypatch, forked, spans, id_chars):
    # this process's own part grows in place and only the child's part is
    # remapped into it: 29.3 and 29.6 bytes per entry on two spans, where a
    # concatenation of both parts held 33.2 and 33.5; one span holds the
    # transients of a run of short lines too, 34.3 and 24.9
    path, nnz = _row_major_file(tmp_path, id_chars)
    _force_spans(monkeypatch, os.path.getsize(path) // spans + 1, cpus=spans)
    data, peak = _traced_peak(lambda: ingest(path))
    assert data.nnz == nnz and len(forked) == spans - 1
    assert peak / nnz < (31 if spans == 2 else 35)


def test_read_triplets_names_a_duplicate_line_of_a_row_major_file(tmp_path):
    path = _write(tmp_path, "dup.tsv", "row\tcol\tvalue\na\tx\t1\na\ty\t2\n\na\ty\t3\nb\tx\t4\n")
    assert _error_text(read_triplets, path) == f"{path}:5: duplicate entry for (a, y)"
    assert _error_text(read_triplets, path) == _error_text(line_loop_read_triplets, path)


# ---------------------------------------------------------------------------
# the multi-span parse: later spans on forked children
# ---------------------------------------------------------------------------

def _force_spans(monkeypatch, span_chars, cpus=64):
    """Cut texts into spans of about ``span_chars`` characters, at most
    ``cpus`` of them, whatever the host's CPU count."""
    monkeypatch.setattr(dataio, "SPAN_CHARS", span_chars)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def forked(monkeypatch):
    """The pids of the parse children started during the test, in order."""
    fork = multiprocessing.get_context("fork")
    pids = []

    class Recorded(fork.Process):
        def start(self):
            super().start()
            pids.append(self.pid)

    monkeypatch.setattr(fork, "Process", Recorded)
    return pids


def _assert_no_child_left(pids):
    for pid in pids:  # reaped: no zombie, no running child
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", sorted(_ORACLE_FILES))
def test_read_triplets_matches_the_line_loop_across_spans(tmp_path, monkeypatch, forked, name):
    # span sizes from one character up put a span cut after every '\n'
    path = _write(tmp_path, name + ".tsv", _ORACLE_FILES[name])
    for span_chars in (1, 2, 3, 5, 8, 13, 21, 34):
        _force_spans(monkeypatch, span_chars)
        for run_chars in (1, dataio.RUN_CHARS):
            monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
            _assert_same_as_oracle(path)
    # a header with no '\n' before its end is one span
    assert bool(forked) != name.startswith("header_only")
    _assert_no_child_left(forked)


def test_read_triplets_matches_the_line_loop_on_random_files_across_spans(
        tmp_path, monkeypatch, forked):
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = int(rng.integers(1, 400))
        cells = rng.permutation(40 * 60)[:n]
        vals = rng.normal(scale=10.0 ** rng.integers(-5, 6), size=n).tolist()
        lines = ["row\tcol\tvalue"] + [f"e{c % 40}\tt{c // 40}\t{v!r}" for c, v in zip(cells, vals)]
        lines[1::7] = [" " + line + " " for line in lines[1::7]]
        lines.insert(int(rng.integers(1, len(lines) + 1)), "   ")
        text = "\n".join(lines)
        path = _write(tmp_path, f"rand{trial}.tsv", text)
        for spans in (2, 3, 7, 16):
            _force_spans(monkeypatch, len(text) // spans + 1)
            for run_chars in (1, 100, dataio.RUN_CHARS):
                monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
                _assert_same_as_oracle(path)
    assert forked
    _assert_no_child_left(forked)


# three spans of four body lines each, every line 7 characters with its '\n'
_SPANNED = ["r\tc\tvv",
            "b\tx\t10", "a\ty\t11", "b\ty\t12", "a\tx\t13",
            "c\tz\t14", "a\tz\t15", "b\tw\t16", "c\tx\t17",
            "d\tw\t18", "c\ty\t19", "a\tw\t20", "d\tz\t21"]


def _three_spans(tmp_path, monkeypatch, lines):
    path = _write(tmp_path, "spanned.tsv", "".join(line + "\n" for line in lines))
    _force_spans(monkeypatch, 1, cpus=3)
    assert dataio._span_cuts(path) == [0, 35, 63, 91]
    return path


def test_read_triplets_merges_span_ids_in_first_seen_order(tmp_path, monkeypatch, forked):
    # the second span sees a and b again after the first span, and first
    # sees c, which the third span sees again
    path = _three_spans(tmp_path, monkeypatch, _SPANNED)
    rl, cl, rows, cols, vals = read_triplets(path)
    assert rl == ["b", "a", "c", "d"] and cl == ["x", "y", "z", "w"]
    assert rows.tolist() == [0, 1, 0, 1, 2, 1, 0, 2, 3, 2, 1, 3]
    assert cols.tolist() == [0, 1, 1, 0, 2, 2, 3, 0, 3, 1, 3, 2]
    assert vals.tolist() == list(range(10, 22))
    assert len(forked) == 2
    _assert_same_as_oracle(path)


def test_read_triplets_names_a_duplicate_line_across_spans(tmp_path, monkeypatch, forked):
    # line 11 of the third span repeats (b, y) of line 4 in the first
    lines = _SPANNED.copy()
    lines[10] = "b\ty\t19"
    path = _three_spans(tmp_path, monkeypatch, lines)
    assert _error_text(read_triplets, path) == f"{path}:11: duplicate entry for (b, y)"
    assert _error_text(read_triplets, path) == _error_text(line_loop_read_triplets, path)
    assert len(forked) == 4


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("span", ["parent", "child"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_read_triplets_raises_the_line_loops_error_from_any_span(
        tmp_path, monkeypatch, forked, fault, span, cpus):
    valid = [f"r{i}\tc{i % 3}\t{i}.5" for i in range(12)]
    body = valid[:6] + ["", "  "] + valid[6:] + ["", "\t", ""]
    bad = _FAULTS[fault].split("\n") + ["z\tz\t1"]
    lines = ["row\tcol\tvalue"] + (bad + body if span == "parent" else body + bad)
    text = "\n".join(lines) + "\n"
    path = _write(tmp_path, "fault.tsv", text)
    _force_spans(monkeypatch, 1, cpus=cpus)
    cuts = dataio._span_cuts(path)
    assert len(cuts) == cpus + 1
    first_bad = text.index("\n" + bad[0] + "\n") + 1
    assert (first_bad < cuts[1]) == (span == "parent")
    want = _error_text(line_loop_read_triplets, path)
    for run_chars in (1, 16, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, path) == want
    assert len(forked) == 3 * (cpus - 1)
    _assert_no_child_left(forked)


@pytest.mark.parametrize("span", ["parent", "child"])
def test_read_triplets_rejects_a_tab_inside_a_comma_id_on_any_span(
        tmp_path, monkeypatch, forked, span):
    body = [f"r{i},c{i % 3},{i}.5" for i in range(12)]
    bad = ["a\tb,c,1", "x,y,nan"]  # the first faulty line wins
    lines = ["row,col,value"] + (bad + body if span == "parent" else body + bad)
    text = "\n".join(lines) + "\n"
    path = _write(tmp_path, "fault.csv", text)
    _force_spans(monkeypatch, len(text) // 2 + 1, cpus=2)
    cuts = dataio._span_cuts(path)
    assert len(cuts) == 3 and (text.index("a\tb") < cuts[1]) == (span == "parent")
    err = _error_text(read_triplets, path)
    assert err == f"{path}:{lines.index(bad[0]) + 1}: tab inside id 'a\\tb'"
    assert err == _error_text(line_loop_read_triplets, path)
    assert len(forked) == 1
    _assert_no_child_left(forked)


@pytest.mark.parametrize("case", ["success", "fault_in_a_child", "fault_in_the_parent"])
def test_read_triplets_leaves_no_child_behind(tmp_path, monkeypatch, forked, case):
    lines = _SPANNED.copy()
    if case == "fault_in_a_child":
        lines[10] = "c\ty\tnn"
    elif case == "fault_in_the_parent":
        lines[2] = "a\ty\t1\t"
    path = _three_spans(tmp_path, monkeypatch, lines)
    if case == "success":
        read_triplets(path)
    else:
        assert _error_text(read_triplets, path) == _error_text(line_loop_read_triplets, path)
    assert len(forked) == 2
    _assert_no_child_left(forked)


def _parses(monkeypatch):
    """The byte ranges ``dataio._parse_span`` parses in this process, in order."""
    parse, parent, spans = dataio._parse_span, os.getpid(), []

    def counted(path, start, stop, delim):
        if os.getpid() == parent:
            spans.append((start, stop))
        return parse(path, start, stop, delim)

    monkeypatch.setattr(dataio, "_parse_span", counted)
    return spans


@pytest.mark.parametrize("case", ["success", "fault_in_the_child", "fault_in_the_parent",
                                  "child_dies"])
def test_two_span_read_rereads_the_file_only_when_the_child_fails(
        tmp_path, monkeypatch, forked, case):
    lines = _SPANNED.copy()
    if case == "fault_in_the_child":
        lines[10] = "c\ty\tnn"
    elif case == "fault_in_the_parent":
        lines[2] = "a\ty\t1\t"
    elif case == "child_dies":
        parse_span, parent = dataio._parse_span, os.getpid()

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return parse_span(*args)

        monkeypatch.setattr(dataio, "_parse_span", dies_in_a_child)
    text = "".join(line + "\n" for line in lines)
    path = _write(tmp_path, "spanned.tsv", text)
    _force_spans(monkeypatch, len(text) // 2 + 1, cpus=2)
    cuts = dataio._span_cuts(path)
    assert len(cuts) == 3
    parses = _parses(monkeypatch)
    if case.startswith("fault"):
        assert _error_text(read_triplets, path) == _error_text(line_loop_read_triplets, path)
    else:
        _assert_same_as_oracle(path)
    # this process parses its own span, and the whole file once more only
    # when the child dies: a fault in the child's span is numbered by the
    # fault walk, which parses no span
    reparse = [(0, len(text))] if case == "child_dies" else []
    assert parses == [(0, cuts[1])] + reparse
    assert len(forked) == 1
    _assert_no_child_left(forked)


def test_two_span_read_holds_no_text_while_the_part_arrives(tmp_path, monkeypatch, forked):
    # this process's own part of the 100k entries takes about half of the
    # text's size, so less than the text is held only when the text is not
    text = "row\tcol\tvalue\n" + "".join(
        "e%d\tt%d\t%.17g\n" % (i % 300, i // 300, i / 7) for i in range(100_000))
    path = _write(tmp_path, "big.tsv", text)
    size = len(text)
    del text
    _force_spans(monkeypatch, size // 2 + 1, cpus=2)
    recv, held = multiprocessing.connection.Connection.recv, []

    def traced_recv(self):
        held.append(tracemalloc.get_traced_memory()[0])
        return recv(self)

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", traced_recv)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, _, rows, _, _ = read_triplets(path)
    finally:
        tracemalloc.stop()
    assert len(rows) == 100_000 and len(forked) == 1 and len(held) == 1
    assert held[0] - before < size


def test_read_triplets_reparses_here_when_a_child_dies(tmp_path, monkeypatch, forked):
    parse_span, parent = dataio._parse_span, os.getpid()

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return parse_span(*args)

    monkeypatch.setattr(dataio, "_parse_span", dies_in_a_child)
    path = _three_spans(tmp_path, monkeypatch, _SPANNED)
    _assert_same_as_oracle(path)
    assert len(forked) == 2
    _assert_no_child_left(forked)


def test_read_triplets_parses_here_when_a_child_cannot_be_forked(tmp_path, monkeypatch, forked):
    fork = os.fork
    forks = []

    def fails_the_second_time():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fails_the_second_time)
    path = _three_spans(tmp_path, monkeypatch, _SPANNED)
    _assert_same_as_oracle(path)
    assert len(forks) == 2 and len(forked) == 1
    _assert_no_child_left(forked)


def test_read_triplets_kills_its_children_when_it_leaves_by_an_exception(
        tmp_path, monkeypatch, forked):
    parent = os.getpid()

    def stuck_children_and_a_failing_parent(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("interrupted")

    monkeypatch.setattr(dataio, "_parse_span", stuck_children_and_a_failing_parent)
    path = _three_spans(tmp_path, monkeypatch, _SPANNED)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="interrupted"):
        read_triplets(path)
    assert time.monotonic() - started < 30
    assert len(forked) == 2
    _assert_no_child_left(forked)


@pytest.mark.parametrize("spans", [1, 3])
def test_a_faulty_line_wins_over_an_earlier_duplicate(tmp_path, monkeypatch, forked, spans):
    # line 5 repeats (b, x) of line 2, in the first span; line 11 has a bad
    # value, in the third span when there are three
    lines = _SPANNED.copy()
    lines[4] = "b\tx\t13"
    lines[10] = "c\ty\tnn"
    path = _three_spans(tmp_path, monkeypatch, lines)
    if spans == 1:
        _force_spans(monkeypatch, dataio.SPAN_CHARS, cpus=1)
    want = f"{path}:11: bad value 'nn'"
    assert _error_text(line_loop_read_triplets, path) == want
    for run_chars in (1, 16, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, path) == want
    assert len(forked) == 3 * (spans - 1)
    _assert_no_child_left(forked)


# per family with a value rule: a value it refuses, then two it keeps
_VALUE_FAULTS = {Family.POISSON: ("-5", "0", "3"), Family.ADDITIVE_POISSON: ("-0.5", "0", "2.5"),
                 Family.BERNOULLI: ("0.5", "0", "1"), Family.CATEGORICAL: ("2", "0", "1")}


def test_every_value_rule_has_a_line_loop_statement_and_a_fault_case():
    assert set(VALUE_RULES) == set(LINE_LOOP_VALUE_RULES) == set(_VALUE_FAULTS)


def _ingest_of(family):
    return lambda path: ingest(path, family=family)


@pytest.mark.parametrize("spans", [1, 3])
@pytest.mark.parametrize("family", sorted(_VALUE_FAULTS, key=lambda f: f.value))
def test_ingest_names_the_first_value_its_familys_rule_refuses(
        tmp_path, monkeypatch, forked, family, spans):
    bad, *kept = _VALUE_FAULTS[family]
    body = [f"e{i % 7}\tt{i}\t{kept[i % 2]}" for i in range(60)]
    path = _write(tmp_path, "kept.tsv", "row\tcol\tvalue\n" + "\n".join(body) + "\n")
    _force_spans(monkeypatch, os.path.getsize(path) // spans + 1, cpus=spans)
    data, plain = ingest(path, family=family), ingest(path)
    want = line_loop_read_triplets(path, family)
    assert (data.row_labels, data.col_labels) == want[:2] == (plain.row_labels, plain.col_labels)
    for g, p, w in zip(data.entries(), plain.entries(), want[2:]):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(p, w)
    # a refused value on a line of the first span, then on one of the last,
    # each followed by another
    for at in (4, 50):
        lines = body.copy()
        for k in (at, at + 3):
            lines[k] = lines[k].rpartition("\t")[0] + f"\t {bad} "
        path = _write(tmp_path, f"refused{at}.tsv", "row\tcol\tvalue\n" + "\n".join(lines))
        want = f"{path}:{at + 2}: {LINE_LOOP_VALUE_RULES[family][1]}"
        assert _error_text(lambda p: line_loop_read_triplets(p, family), path) == want
        for run_chars in (1, dataio.RUN_CHARS):
            monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
            assert _error_text(_ingest_of(family), path) == want
        assert ingest(path).nnz == len(lines)  # no family, no rule
    assert len(forked) == 8 * (spans - 1)  # eight reads
    _assert_no_child_left(forked)


# line 4 and line 11 of _SPANNED, in its first and third spans, and the
# error the first of them raises; a Poisson count of -2 is refused
_VALUE_FAULT_ORDER = {
    "value_then_parse_fault": ("b\ty\t-2", "c\ty\tnn", "4: poisson data must be nonnegative"),
    "parse_then_value_fault": ("b\ty\tnn", "c\ty\t-2", "4: bad value 'nn'"),
    "value_fault_then_duplicate": ("b\ty\t-2", "b\tx\t19",
                                   "4: poisson data must be nonnegative"),
    "duplicate_then_value_fault": ("b\tx\t12", "c\ty\t-2",
                                   "11: poisson data must be nonnegative"),
}


@pytest.mark.parametrize("spans", [1, 3])
@pytest.mark.parametrize("case", sorted(_VALUE_FAULT_ORDER))
def test_the_first_faulty_line_of_any_kind_wins(tmp_path, monkeypatch, forked, case, spans):
    lines = _SPANNED.copy()
    lines[3], lines[10], at = _VALUE_FAULT_ORDER[case]
    path = _three_spans(tmp_path, monkeypatch, lines)
    if spans == 1:
        _force_spans(monkeypatch, dataio.SPAN_CHARS, cpus=1)
    want = f"{path}:{at}"
    assert _error_text(lambda p: line_loop_read_triplets(p, Family.POISSON), path) == want
    for run_chars in (1, 16, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(_ingest_of(Family.POISSON), path) == want
    assert len(forked) == 3 * (spans - 1)
    _assert_no_child_left(forked)


def test_a_value_transform_leaves_the_value_rule_to_the_matrix_it_makes(tmp_path):
    # a lag's differences and a rating shift's clamped values are on no line
    # of the file: ingest checks no raw value under either
    path = _write(tmp_path, "raw.tsv", "row\tcol\tvalue\na\tx\t-3\na\ty\t-1\nb\tx\t1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: poisson data must be nonnegative")):
        ingest(path, family=Family.POISSON)
    assert ingest(path, family=Family.POISSON, lag=True).vals.tolist() == [2.0, -1.0]
    assert ingest(path, family=Family.POISSON, rating_shift=True).vals.tolist() == [0.0] * 3


def test_a_faulty_first_span_kills_its_stuck_children(tmp_path, monkeypatch, forked):
    # the children never send a part: the faulty line of the first span is
    # raised without waiting for them
    parse_span, parent = dataio._parse_span, os.getpid()

    def stuck_in_a_child(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return parse_span(*args)

    monkeypatch.setattr(dataio, "_parse_span", stuck_in_a_child)
    lines = _SPANNED.copy()
    lines[2] = "a\ty\t1\t"
    path = _three_spans(tmp_path, monkeypatch, lines)
    started = time.monotonic()
    err = _error_text(read_triplets, path)
    assert time.monotonic() - started < 10
    assert err == f"{path}:3: expected 3 fields, got 4"
    assert err == _error_text(line_loop_read_triplets, path)
    assert len(forked) == 2
    _assert_no_child_left(forked)


@pytest.fixture
def no_process(monkeypatch):
    """Make starting a process fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", refuse)
    monkeypatch.setattr(os, "fork", refuse)


def _in_process_when(monkeypatch, condition):
    if condition == "no_fork_start_method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif condition == "daemonic_process":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    elif condition == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif condition == "python_3_12":
        monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))


@pytest.mark.parametrize("condition", ["no_fork_start_method", "another_thread", "daemonic_process",
                                       "one_cpu", "python_3_12"])
def test_read_triplets_parses_in_process_when_it_may_not_fork(
        tmp_path, monkeypatch, no_process, condition):
    _force_spans(monkeypatch, 1, cpus=3)
    path = _write(tmp_path, "spanned.tsv", "".join(line + "\n" for line in _SPANNED))
    with pytest.raises(AssertionError, match="a process was started"):
        read_triplets(path)  # no condition holds: the forked path is taken
    _in_process_when(monkeypatch, condition)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if condition == "another_thread":
        thread.start()
    try:
        _assert_same_as_oracle(path)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(10)
            assert not thread.is_alive()


# ---------------------------------------------------------------------------
# the streamed read: runs and spans are byte ranges of the file
# ---------------------------------------------------------------------------

# a CRLF file, a lone-CR file and one with every str.splitlines break
_BREAK_FILES = {
    "crlf": ("row\tcol\tvalue\r\na\tx\t1\r\nb\tx\t2\r\n\r\nc\tx\t3\r\n", "\r\n"),
    "lone_cr": ("row\tcol\tvalue\ra\tx\t1\rb\tx\t2\r\rc\tx\t3\r", "\r"),
    "breaks": (_ORACLE_FILES["breaks"], "\r\n"),
}


@pytest.mark.parametrize("spans", [1, 3])
@pytest.mark.parametrize("name", sorted(_BREAK_FILES))
def test_line_breaks_give_the_line_loops_matrices_and_line_numbers(
        tmp_path, monkeypatch, forked, name, spans):
    text, brk = _BREAK_FILES[name]
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    good.write_bytes(text.encode())
    bad.write_bytes((text + f"z\tx\tbad{brk}y\tx\t1{brk}").encode())
    want = _error_text(line_loop_read_triplets, str(bad))
    assert re.fullmatch(rf"{re.escape(str(bad))}:\d+: bad value 'bad'", want)
    _force_spans(monkeypatch, 1 if spans > 1 else dataio.SPAN_CHARS, cpus=spans)
    for run_chars in (1, 4, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        _assert_same_as_oracle(str(good))
        assert _error_text(read_triplets, str(bad)) == want
    # a lone CR is no cut point: that file is one span
    assert bool(forked) == (spans > 1 and name != "lone_cr")
    _assert_no_child_left(forked)


def test_a_character_that_straddles_a_run_or_span_share_is_read_whole(
        tmp_path, monkeypatch, forked):
    lines = ["row\tcol\tvalue"] + [f"日本{i // 5}\tü{i % 5}€\t{i}" for i in range(40)]
    data = ("\n".join(lines) + "\n").encode()
    path = tmp_path / "utf8.tsv"
    path.write_bytes(data)
    # a run reads RUN_CHARS bytes, then on to the next b'\n'
    inside = [k for k in range(1, 80) if 0x80 <= data[k] < 0xC0]  # continuation bytes
    assert len(inside) > 20
    for run_chars in inside:
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        _assert_same_as_oracle(str(path))
    # a span cut is sought from a share of the bytes, then on past the next b'\n'
    monkeypatch.setattr(dataio, "RUN_CHARS", 1)
    shares_inside = 0
    for spans in (2, 3, 5, 7):
        _force_spans(monkeypatch, len(data) // spans + 1, cpus=spans)
        shares_inside += sum(0x80 <= data[len(data) * i // spans] < 0xC0 for i in range(1, spans))
        assert all(data[cut - 1] == ord("\n") for cut in dataio._span_cuts(str(path))[1:-1])
        _assert_same_as_oracle(str(path))
    assert shares_inside and forked
    _assert_no_child_left(forked)


# undecodable bytes inside a line, and a character cut off by the end of the file
_BAD_BYTES = {"latin1": b"caf\xe9", "invalid_start": b"\xff", "cut_short": b"\xe6\x97",
              "cut_off_by_the_end": b"\xe6\x97"}


@pytest.mark.parametrize("bad, span", [(bad, span) for bad in sorted(_BAD_BYTES)
                                       for span in ("parent", "child")
                                       if (bad, span) != ("cut_off_by_the_end", "parent")])
def test_an_undecodable_byte_gives_read_texts_error_at_its_offset_in_the_file(
        tmp_path, monkeypatch, forked, bad, span):
    body = [f"r{i}\tc{i % 3}\t{i}.5".encode() for i in range(12)]
    if bad == "cut_off_by_the_end":  # in the last span
        data = b"\n".join([b"row\tcol\tvalue", *body, b"x\ty\t" + _BAD_BYTES[bad]])
    else:
        line = b"x\t" + _BAD_BYTES[bad] + b"\t1"
        lines = [line] + body if span == "parent" else body + [line]
        data = b"\n".join([b"row\tcol\tvalue", *lines]) + b"\n"
    path = tmp_path / "bad.tsv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    want = f"{path}: not utf-8 text ({exc.value.reason} at byte {exc.value.start})"
    assert _error_text(line_loop_read_triplets, str(path)) == want  # read_text's error
    _force_spans(monkeypatch, len(data) // 2 + 1, cpus=2)
    assert (exc.value.start < dataio._span_cuts(str(path))[1]) == (span == "parent")
    for run_chars in (1, 5, 16, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, str(path)) == want
    assert forked  # the runs of one line start both spans' parses
    _assert_no_child_left(forked)


@pytest.mark.parametrize("spans", [1, 2])
def test_an_undecodable_byte_wins_over_an_earlier_faulty_line(tmp_path, monkeypatch, forked, spans):
    # read_text decodes the whole file before any line is parsed
    body = [f"r{i}\tc{i % 3}\t{i}.5".encode() for i in range(12)]
    data = b"\n".join([b"row\tcol\tvalue", b"a\tb\tbad", *body, b"x\tcaf\xe9\t1", b""])
    path = tmp_path / "bad.tsv"
    path.write_bytes(data)
    want = _error_text(line_loop_read_triplets, str(path))
    at = data.index(b"\xe9")
    assert want == f"{path}: not utf-8 text (invalid continuation byte at byte {at})"
    _force_spans(monkeypatch, len(data) // spans + 1, cpus=spans)
    for run_chars in (1, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        assert _error_text(read_triplets, str(path)) == want
    assert bool(forked) == (spans > 1)
    _assert_no_child_left(forked)


@pytest.mark.parametrize("labelled", [True, False])
def test_write_triplets_bytes_match_the_line_writer(tmp_path, monkeypatch, labelled):
    vals = np.array([-0.0, 0.0, 5e-324, 1e-310, -2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 0.1, 1 / 3, -2.5, 123456789.0, 1e16, 1e17])
    n = len(vals)
    rows, cols = np.arange(n) % 4, np.arange(n) // 4
    labels = (["ünï", "a b", "r,2", "日本"], ["t0", "t1", "t 2", "€"]) if labelled else (None, None)
    data = DataMatrix(4, 4, rows, cols, vals, row_labels=labels[0], col_labels=labels[1])
    empty = DataMatrix(2, 2, rows[:0], cols[:0], vals[:0])
    for run_lines in (1, 3, n, dataio.WRITE_RUN_LINES):
        monkeypatch.setattr(dataio, "WRITE_RUN_LINES", run_lines)
        for name, m in (("data", data), ("empty", empty)):
            got, want = tmp_path / f"{name}.got.tsv", tmp_path / f"{name}.want.tsv"
            write_triplets(str(got), m)
            fstring_write_triplets(str(want), m)
            assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# the plain path: runs split and checked by C-level passes
# ---------------------------------------------------------------------------

# per file: its delimiter and the lines that spoil the run they are in, each
# of them set between blocks of plain lines; the runs of RUN_CHARS 1, 7 and
# 100 alternate between plain and not
_SPOILERS = {
    "tab": ("\t", ["", "\t\t", "a\tb\t1\r", " e3 \ts1\t2", "ünï\ts2\t3", "r\ts3\t１２",
                   "r\ts4\t 4"]),
    "tab_nan": ("\t", ["", "x\ty\tnan", "\t\t"]),
    "tab_then_bad_field_count": ("\t", ["\t\t", "x\ty", "x\ty\tnan"]),
    "comma": (",", ["a,b,1\t", "\te1\t,s1,2", "", "a , s2,3"]),
    "comma_tab_inside_an_id": (",", ["a,b,1\t", "a\tb,s1,2"]),
}


def _mixed_file(tmp_path, name, block=30):
    """The file of ``_SPOILERS[name]``: a header and blocks of ``block``
    plain lines, one spoiler after each block, ids seen again across
    blocks, and ``1_0`` and ``-0`` among the plain values."""
    delim, spoilers = _SPOILERS[name]
    lines = [delim.join(("row", "col", "value"))]
    for b, spoiler in enumerate([*spoilers, None]):
        lines += [delim.join((f"e{i % 11}", f"t{b}_{i}", "1_0" if i == 3 else "-0" if i == 4
                              else f"{i}.{b}5")) for i in range(block)]
        lines += [] if spoiler is None else [spoiler]
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    return str(path), spoilers


def _assert_same_outcome_as_oracle(path):
    """Assert that read_triplets gives the line loop's result or error;
    whether the line loop raised."""
    try:
        line_loop_read_triplets(path)
    except DataError as exc:
        assert _error_text(read_triplets, path) == str(exc)
        return True
    _assert_same_as_oracle(path)
    return False


def _line_parses(monkeypatch):
    """The runs that ``dataio._parse_lines`` parses in this process."""
    parse, runs = dataio._parse_lines, []

    def counted(run, delim, header):
        runs.append(run)
        return parse(run, delim, header)
    monkeypatch.setattr(dataio, "_parse_lines", counted)
    return runs


@pytest.mark.parametrize("name", sorted(_SPOILERS))
def test_runs_that_alternate_plain_and_not_match_the_line_loop(
        tmp_path, monkeypatch, forked, name):
    path, spoilers = _mixed_file(tmp_path, name)
    size = os.path.getsize(path)
    runs = _line_parses(monkeypatch)
    for spans in (1, 3):
        _force_spans(monkeypatch, size // spans + 1, cpus=spans)
        for run_chars in (1, 7, 100, dataio.RUN_CHARS):
            monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
            runs.clear()
            if _assert_same_outcome_as_oracle(path) or spans > 1:
                continue
            # in this process, only the runs that hold a spoiler take the
            # per-line parse: at one line a run, exactly the spoilers
            n_runs = len(list(dataio._runs(path, 0, size)))
            assert 0 < len(runs) <= min(len(spoilers), n_runs)
            assert run_chars == dataio.RUN_CHARS or len(runs) < n_runs
            if run_chars == 1:
                assert runs == [line + "\n" for line in spoilers]
    assert len(forked) == 2 * 4
    _assert_no_child_left(forked)


_PLAIN_FILES = {
    "tab": _ORACLE_FILES["tab"],
    "comma": _ORACLE_FILES["comma"],
    "no_trailing_newline": _ORACLE_FILES["no_trailing_newline"],
    "header_only": _ORACLE_FILES["header_only"],
    "long": "row\tcol\tvalue\n" + "".join(
        f"e{i % 7}\tt{i // 7}\t{v}\n" for i, v in enumerate(
            ["1_0", "+.5", "-0.0", "5e-324", "1e308",
             *map(repr, np.linspace(-3, 3, 500).tolist())])),
}


@pytest.mark.parametrize("name", sorted(_PLAIN_FILES))
def test_a_plain_file_takes_no_per_line_parse(tmp_path, monkeypatch, name):
    # so the plain path cannot switch itself off unseen
    path = _write(tmp_path, name + ".tsv", _PLAIN_FILES[name])
    runs = _line_parses(monkeypatch)
    for run_chars in (1, 7, 100, dataio.RUN_CHARS):
        monkeypatch.setattr(dataio, "RUN_CHARS", run_chars)
        _assert_same_as_oracle(path)
    assert runs == []


# ---------------------------------------------------------------------------
# ingest transforms
# ---------------------------------------------------------------------------

def test_ingest_lag_transform(tmp_path):
    lines = ["row\tcol\tvalue"]
    vals = np.array([[1.0, 4.0, 9.0]])
    for c in range(3):
        lines.append(f"n0\tt{c}\t{vals[0, c]}")
    p = _write(tmp_path, "lag.tsv", "\n".join(lines) + "\n")
    data = ingest(p, lag=True)
    np.testing.assert_array_equal(dense_values(data), [[3.0, 5.0]])
    assert data.col_labels == ["t1", "t2"]


@pytest.mark.parametrize("implicit_zero", [False, True])
def test_ingest_lag_matches_dense_oracle(tmp_path, implicit_zero):
    # random shapes, entry orders, holes, stored zeros and negative values:
    # the same cells in the same order with the same bits (signed zeros too)
    rng = np.random.default_rng(17)
    for trial in range(40):
        n, t = rng.integers(1, 6), rng.integers(2, 8)
        cells = rng.permutation(n * t)[: rng.integers(1, n * t + 1)]
        vals = np.round(rng.normal(scale=3.0, size=len(cells)), rng.integers(0, 4))
        lines = ["row\tcol\tvalue"] + [f"r{c // t}\tc{c % t}\t{v:.17g}" for c, v in zip(cells, vals)]
        p = _write(tmp_path, f"lag{trial}.tsv", "\n".join(lines) + "\n")
        rl, cl, rows, cols, x = read_triplets(p)
        if len(cl) < 2:
            continue
        want = dense_lag(rows, cols, x, len(rl), len(cl), implicit_zero)
        data = ingest(p, implicit_zero=implicit_zero, lag=True)
        assert (data.n_rows, data.n_cols) == (len(rl), len(cl) - 1)
        np.testing.assert_array_equal(data.rows, want[0])
        np.testing.assert_array_equal(data.cols, want[1])
        np.testing.assert_array_equal(data.vals, want[2])
        np.testing.assert_array_equal(np.signbit(data.vals), np.signbit(want[2]))


def test_ingest_lag_on_implicit_data_builds_no_dense_matrix(tmp_path):
    # 2000 x 5000 cells, 5000 entries: a dense lag would need 80 MB
    n, t = 2000, 5000
    lines = ["row\tcol\tvalue"] + [f"r{i % n}\tc{i}\t{1 + i % 3}" for i in range(t)]
    p = _write(tmp_path, "wide.tsv", "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        data = ingest(p, implicit_zero=True, lag=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (data.n_rows, data.n_cols) == (n, t - 1)
    assert data.nnz == 2 * t - 2
    assert peak < 10 * 2**20


def test_ingest_rating_shift_boundaries(tmp_path):
    p = _write(tmp_path, "r.tsv",
               "row\tcol\tvalue\nm0\tu0\t3\nm1\tu0\t1\nm2\tu0\t2\nm3\tu1\t5\n")
    data = ingest(p, implicit_zero=True, rating_shift=True)
    # 3 -> 1 kept; 1 -> 0 and 2 -> 0 dropped; 5 -> 3 kept
    assert data.lookup([0, 3], [0, 1])[0].tolist() == [1.0, 3.0]
    assert data.nnz == 2


def test_ingest_min_count_threshold_boundary(tmp_path):
    lines = ["row\tcol\tvalue"]
    for c in range(9):
        lines.append(f"rare\tt{c}\t1")
    for c in range(10):
        lines.append(f"common\tt{c}\t1")
    p = _write(tmp_path, "min.tsv", "\n".join(lines) + "\n")
    data = ingest(p, implicit_zero=True, min_row_count=10)
    assert data.row_labels == ["common"]
    assert data.nnz == 10


def loop_min_count_filter(entries, min_row_count, min_col_count):
    """The min-count filters of ``ingest`` one entry at a time: rows of fewer
    than ``min_row_count`` entries go first, then columns of fewer than
    ``min_col_count`` of the rest.  Returns (row labels, column labels,
    kept (row, col, value) entries)."""
    labels = [list(dict.fromkeys(e[axis] for e in entries)) for axis in (0, 1)]
    for axis, min_count in ((0, min_row_count), (1, min_col_count)):
        if min_count > 0:
            counts = {}
            for e in entries:
                counts[e[axis]] = counts.get(e[axis], 0) + 1
            labels[axis] = [k for k in labels[axis] if counts.get(k, 0) >= min_count]
            entries = [e for e in entries if counts[e[axis]] >= min_count]
    return labels[0], labels[1], entries


@pytest.mark.parametrize("min_row_count, min_col_count", [(0, 3), (5, 3), (6, 2)])
def test_ingest_min_count_filters_match_a_loop_oracle(tmp_path, min_row_count, min_col_count):
    rng = np.random.default_rng(min_row_count + 10 * min_col_count)
    cells = np.argwhere(rng.random((8, 12)) < 0.45)
    entries = [(f"r{r}", f"c{c}", float(rng.integers(1, 5))) for r, c in rng.permutation(cells)]
    p = _write(tmp_path, "counts.tsv", "row\tcol\tvalue\n"
               + "".join(f"{r}\t{c}\t{v:g}\n" for r, c, v in entries))
    data = ingest(p, implicit_zero=True, min_row_count=min_row_count,
                  min_col_count=min_col_count)
    row_labels, col_labels, kept = loop_min_count_filter(entries, min_row_count, min_col_count)
    assert 0 < len(kept) < len(entries)
    assert (data.row_labels, data.col_labels) == (row_labels, col_labels)
    assert (data.n_rows, data.n_cols) == (len(row_labels), len(col_labels))
    assert [(data.row_labels[r], data.col_labels[c], v) for r, c, v in
            zip(data.rows.tolist(), data.cols.tolist(), data.vals.tolist())] == kept


def test_ingest_implicit_zero_drops_a_stored_zero(tmp_path):
    p = _write(tmp_path, "z.tsv", "row\tcol\tvalue\na\ty\t1\nb\tx\t0\nb\ty\t-0\na\tx\t2\n")
    data = ingest(p, implicit_zero=True)
    assert data.implicit_zero and (data.row_labels, data.col_labels) == (["a", "b"], ["y", "x"])
    assert [a.tolist() for a in data.entries()] == [[0, 0], [0, 1], [1.0, 2.0]]


def _assert_same_matrix(got, want):
    assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
    assert (got.n_rows, got.n_cols, got.implicit_zero) == (want.n_rows, want.n_cols,
                                                           want.implicit_zero)
    for a, b in zip(got.entries(), want.entries()):  # entries in entry order
        np.testing.assert_array_equal(a, b)
    assert got.vals.tobytes() == want.vals.tobytes()  # value bits, signed zeros too


@pytest.mark.parametrize("implicit_zero", [False, True])
@pytest.mark.parametrize("order", ["shuffled", "row_major"])
def test_ingest_matches_the_rebuild_oracle(tmp_path, order, implicit_zero):
    # every combination of transforms, on stored zeros of both signs, values
    # that the rating shift clamps, holes, rows and columns that the minimum
    # counts drop, and a row vocabulary equal to the file's or a shuffled
    # superset of it (a renumbering out of order, with rows of no entry)
    rng = np.random.default_rng(29 if order == "shuffled" else 31)
    cells = np.flatnonzero(rng.random(7 * 9) < 0.55)
    if order == "shuffled":
        cells = rng.permutation(cells)
    vals = rng.choice([-3.0, -0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 5.0], size=len(cells))
    p = _write(tmp_path, "m.tsv", "row\tcol\tvalue\n" + "".join(
        f"r{c // 9}\tc{c % 9}\t{v!r}\n" for c, v in zip(cells.tolist(), vals.tolist())))
    own = read_triplets(p)[0]
    vocabs = [None, own, list(rng.permutation(own + ["x0", "x1"]))]
    for vocab, lag, shift, min_row, min_col in itertools.product(
            vocabs, (False, True), (False, True), (0, 3), (0, 3)):
        kw = dict(implicit_zero=implicit_zero, lag=lag, rating_shift=shift,
                  min_row_count=min_row, min_col_count=min_col, row_vocab=vocab)
        _assert_same_matrix(ingest(p, **kw), rebuild_ingest(p, **kw))
    for read in (ingest, rebuild_ingest):
        with pytest.raises(CompatibilityError, match=re.escape(f"row id {own[1]!r} not in")):
            read(p, implicit_zero=implicit_zero, row_vocab=own[:1] + own[2:])


@pytest.mark.parametrize("transform, bound", [
    ("read", 30), ("min_row_count", 35), ("min_col_count", 35), ("row_vocab", 30)])
def test_ingest_transforms_hold_no_more_than_the_read(tmp_path, monkeypatch, forked,
                                                      transform, bound):
    # a row vocabulary equal to the file's labels and minimum counts that
    # drop nothing add one key array at most (8 bytes per entry) to the
    # matrix (16), under the two-span read's own peak of about 29.3; a rebuild
    # from rows, columns and values took 33.3 and 41.3
    path, nnz = _row_major_file(tmp_path)
    kw = {"read": {}, "row_vocab": {"row_vocab": [f"r{i:03d}" for i in range(300)]}}.get(
        transform, {transform: 1})
    _force_spans(monkeypatch, os.path.getsize(path) // 2 + 1, cpus=2)
    data, peak = _traced_peak(lambda: ingest(path, **kw))
    assert data.nnz == nnz and len(forked) == 1
    assert peak / nnz <= bound


def test_lag_of_one_column_is_a_data_error(tmp_path):
    p = _write(tmp_path, "one.tsv", "row\tcol\tvalue\na\tt0\t1\nb\tt0\t2\n")
    with pytest.raises(DataError, match="lag transform needs at least 2 columns"):
        ingest(p, lag=True)


def test_ingest_row_vocab_remap_and_unknown(tmp_path):
    p = _write(tmp_path, "v.tsv", "row\tcol\tvalue\nb\tt0\t1\na\tt0\t2\n")
    data = ingest(p, row_vocab=["a", "b", "c"])
    assert data.n_rows == 3
    assert data.lookup([0, 1], [0, 0])[0].tolist() == [2.0, 1.0]
    with pytest.raises(CompatibilityError):
        ingest(p, row_vocab=["a"])


# ---------------------------------------------------------------------------
# locations
# ---------------------------------------------------------------------------

def test_locations_round_trip_and_zero_fill(tmp_path):
    path = str(tmp_path / "loc.tsv")
    write_locations(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), ["a", "b"])
    pos = read_locations(path, ["b", "a"])
    np.testing.assert_array_equal(pos, [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    p2 = _write(tmp_path, "loc2.tsv", "entity\tx\ty\nq\t1\t2\n")
    pos = read_locations(p2, ["q"])
    np.testing.assert_array_equal(pos, [[1.0, 2.0, 0.0]])


def test_locations_missing_entity(tmp_path):
    p = _write(tmp_path, "loc3.tsv", "entity\tx\ty\tz\nq\t1\t2\t3\n")
    with pytest.raises(DataError, match="no location"):
        read_locations(p, ["q", "r"])


# locations fault -> (file text, the message naming its line or, for an
# empty file, the file)
LOCATION_FAULTS = {
    "empty": ("", ": empty file"),
    "two_fields": ("entity\tx\ty\tz\n0\t1\t2\t3\n1\t1\n", ":3: expected entity_id"),
    "five_fields": ("entity\tx\ty\tz\n0\t1\t2\t3\t4\n", ":2: expected entity_id"),
    "duplicate_id": ("entity\tx\ty\n0\t1\t2\n1\t0\t0\n0\t3\t4\n", ":4: duplicate location"),
    "bad_coordinate": ("entity\tx\ty\n0\t1\tnorth\n", ":2: bad coordinate"),
    "nan_coordinate": ("entity\tx\ty\n0\t1\tnan\n", ":2: non-finite coordinate"),
    "infinite_coordinate": ("entity\tx\ty\tz\n0\t1\t2\t-inf\n", ":2: non-finite coordinate"),
    "no_header": ("0\t1\t2\n1\t3\t4\n", ":1: expected a header line"),
}


@pytest.mark.parametrize("fault", sorted(LOCATION_FAULTS))
def test_locations_fault_is_a_data_error_naming_its_line(tmp_path, fault):
    text, named = LOCATION_FAULTS[fault]
    p = _write(tmp_path, "loc.tsv", text)
    with pytest.raises(DataError, match=re.escape(p + named)):
        read_locations(p, ["0", "1"])


@pytest.fixture(scope="module")
def knn_train_input(tmp_path_factory):
    root = tmp_path_factory.mktemp("knn")
    prefix = str(root / "toy")
    assert main(["gen-synthetic", "--kind", "gaussian-knn", "--entities", "12",
                 "--columns", "40", "--seed", "4", "--out-prefix", prefix]) == 0
    cfg = root / "toy.cfg"
    cfg.write_text("family = gaussian\nk = 2\nknn_k = 3\niterations = 5\n"
                   "step_size_grid = 0.1\n")
    return root, f"{prefix}.data.tsv", str(cfg)


@pytest.mark.parametrize("fault", sorted(LOCATION_FAULTS))
def test_locations_fault_exits_3_from_train(knn_train_input, tmp_path, capsys, fault):
    root, data, cfg = knn_train_input
    text, named = LOCATION_FAULTS[fault]
    p = _write(tmp_path, "loc.tsv", text)
    model = tmp_path / "m.model"
    capsys.readouterr()
    rc = main(["train", "--config", cfg, "--data", data, "--locations", p, "--out", str(model)])
    assert rc == 3
    assert f"error: {p}{named}" in capsys.readouterr().err
    assert not model.exists()


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _meta(dim, n):
    return ModelMeta(family="gaussian", link="identity", sharing="per_row",
                     log_space=False, dim=dim, n_entities=n, sigma2=1.0,
                     vocab_size=0, seed=3, context="knn", context_param=2,
                     config_digest="abc")


def test_model_store_load_store_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    bank = EmbeddingBank(rng.normal(size=(4, 3)) * 1e-3, rng.normal(size=(4, 3)) * 17.0)
    p1 = str(tmp_path / "m1.model")
    p2 = str(tmp_path / "m2.model")
    store_model(p1, bank, _meta(3, 4), ["w", "x", "y", "z"])
    loaded, meta, labels = load_model(p1)
    np.testing.assert_array_equal(loaded.embeddings, bank.embeddings)
    np.testing.assert_array_equal(loaded.context_vectors, bank.context_vectors)
    assert labels == ["w", "x", "y", "z"]
    store_model(p2, loaded, meta, labels)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_model_tied_sharing_aliases_on_load(tmp_path):
    emb = np.random.default_rng(6).normal(size=(3, 2))
    bank = EmbeddingBank(emb, emb)
    meta = _meta(2, 3)
    meta.sharing = "tied"
    p = str(tmp_path / "t.model")
    store_model(p, bank, meta, ["a", "b", "c"])
    loaded, _, _ = load_model(p)
    assert loaded.tied


def test_model_sharing_must_match_the_bank(tmp_path):
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(3, 2))
    p = str(tmp_path / "s.model")
    with pytest.raises(DataError, match="sharing=per_row"):
        store_model(p, EmbeddingBank(emb, emb), _meta(2, 3), ["a", "b", "c"])
    meta = _meta(2, 3)
    meta.sharing = "tied"
    with pytest.raises(DataError, match="sharing=tied"):
        store_model(p, EmbeddingBank(emb, rng.normal(size=(3, 2))), meta, ["a", "b", "c"])


def test_model_store_refuses_a_log_space_unlike_the_bank(tmp_path):
    # load_model would build a log-space bank from the header's log_space
    meta = _meta(2, 3)
    meta.log_space = True
    with pytest.raises(DataError, match="log_space=True"):
        store_model(str(tmp_path / "s.model"), EmbeddingBank.init_random(3, 2, seed=0), meta)
    assert list(tmp_path.iterdir()) == []


def test_model_load_rejects_tied_file_with_distinct_context_columns(tmp_path):
    emb = np.random.default_rng(8).normal(size=(3, 2))
    meta = _meta(2, 3)
    meta.sharing = "tied"
    p = str(tmp_path / "t.model")
    store_model(p, EmbeddingBank(emb, emb), meta, ["a", "b", "c"])
    lines = Path(p).read_text().splitlines()
    at = lines.index("b\t" + "\t".join(f"{v:.17g}" for v in np.concatenate([emb[1], emb[1]])))
    lines[at] = lines[at].rsplit("\t", 1)[0] + "\t0.5"
    Path(p).write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"t.model:{at + 1}: tied"):
        load_model(p)


def test_model_store_rejects_repeated_labels(tmp_path):
    bank = EmbeddingBank.init_random(3, 2, seed=0)
    with pytest.raises(DataError, match="distinct"):
        store_model(str(tmp_path / "d.model"), bank, _meta(2, 3), ["a", "b", "a"])


def test_model_load_rejects_repeated_labels_naming_the_line(tmp_path):
    # a repeated label would make ingest(row_vocab=labels) map both to one row
    p = tmp_path / "d.model"
    store_model(str(p), EmbeddingBank.init_random(3, 2, seed=0), _meta(2, 3), ["a", "b", "c"])
    lines = p.read_text().splitlines()
    at = lines.index("#entities") + 3
    assert lines[at].startswith("c\t")
    lines[at] = "a" + lines[at][1:]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"d.model:{at + 1}: repeated entity label 'a'"):
        load_model(str(p))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_model_load_rejects_non_finite_parameters_naming_the_line(tmp_path, value):
    p = tmp_path / "f.model"
    store_model(str(p), EmbeddingBank.init_random(3, 2, seed=0), _meta(2, 3), ["a", "b", "c"])
    lines = p.read_text().splitlines()
    at = lines.index("#entities") + 2
    lines[at] = lines[at].rsplit("\t", 1)[0] + "\t" + value
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"f.model:{at + 1}: non-finite parameter value"):
        load_model(str(p))


def test_model_load_rejects_entity_lines_of_mixed_field_counts(tmp_path):
    # one short line among full ones is that line's fault, not a dim mismatch
    p = tmp_path / "m.model"
    store_model(str(p), EmbeddingBank.init_random(3, 2, seed=0), _meta(2, 3), ["a", "b", "c"])
    lines = p.read_text().splitlines()
    at = lines.index("#entities") + 2
    lines[at] = lines[at].rsplit("\t", 1)[0]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:{at + 1}: expected 5 fields$"):
        load_model(str(p))


def test_blank_lines_inside_a_locations_file_and_a_model_body_are_skipped(tmp_path):
    loc = _write(tmp_path, "loc.tsv", "entity\tx\ty\n\nq\t1\t2\n  \n\t\nr\t3\t4\n\n")
    np.testing.assert_array_equal(read_locations(loc, ["r", "q"]), [[3, 4, 0], [1, 2, 0]])
    p = tmp_path / "m.model"
    bank = EmbeddingBank.init_random(3, 2, seed=0)
    store_model(str(p), bank, _meta(2, 3), ["a", "b", "c"])
    lines = p.read_text().splitlines()
    at = lines.index("#entities") + 1
    p.write_text("\n".join(lines[:at] + ["", " "] + lines[at:at + 2] + ["\t"]
                           + lines[at + 2:] + [""]) + "\n")
    loaded, meta, labels = load_model(str(p))
    assert labels == ["a", "b", "c"] and meta == _meta(2, 3)
    np.testing.assert_array_equal(loaded.embeddings, bank.embeddings)
    np.testing.assert_array_equal(loaded.context_vectors, bank.context_vectors)


def _body_variants():
    """Per model: its config, whether its bank is tied, its labels, and a
    rewrite of the file's text; a plain body is one that store_model writes
    for ASCII labels, or its ``\\r\\n`` rewrite."""
    labels = [f"w{i}" for i in range(40)]
    odd = labels[:5] + ["ünï"] + labels[6:]

    def blank(text):
        lines = text.split("\n")
        at = lines.index("#entities") + 10
        return "\n".join(lines[:at] + [""] + lines[at:])
    same = str
    return {
        "per_row": ("family = gaussian\nk = 3\n", False, labels, same),
        "global": ("family = bernoulli\nk = 3\n", False, labels, same),
        "tied_log_space": ("family = additive_poisson\nk = 3\n", True, labels, same),
        "log_space": ("family = nonneg_gaussian\nk = 3\n", False, labels, same),
        "crlf": ("family = gaussian\nk = 3\n", False, labels, lambda t: t.replace("\n", "\r\n")),
        "non_ascii_label": ("family = gaussian\nk = 3\n", False, odd, same),
        "padded_label": ("family = gaussian\nk = 3\n", False, labels[:-1] + [" w "], same),
        "blank_line": ("family = gaussian\nk = 3\n", False, labels, blank),
    }


@pytest.mark.parametrize("name", sorted(_body_variants()))
def test_model_bodies_load_to_the_line_loops_bank_and_labels(tmp_path, monkeypatch, name):
    config, tied, labels, rewrite = _body_variants()[name]
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 8, size=(40, 3))
    emb[0, 0] = -0.0
    bank = EmbeddingBank(emb, emb if tied else rng.normal(size=(40, 3)),
                         log_space=name.endswith("log_space"))
    meta = parse_run_config(config).model_meta(bank)
    meta.sharing = "tied" if tied else meta.sharing
    p = tmp_path / "m.model"
    store_model(str(p), bank, meta, labels)
    p.write_bytes(rewrite(p.read_text()).encode())
    with monkeypatch.context() as m:  # every body read line by line
        m.setattr(dataio, "_read_entities", dataio._read_entity_lines)
        want = load_model(str(p))
    read, bodies = dataio._read_entity_lines, []

    def counted(path, lines, body_at, meta):
        bodies.append(body_at)
        return read(path, lines, body_at, meta)
    monkeypatch.setattr(dataio, "_read_entity_lines", counted)
    got = load_model(str(p))
    assert got[1:] == want[1:] == (meta, labels)
    for b in (got[0], want[0]):
        assert (b.tied, b.log_space) == (tied, bank.log_space)
        for table, stored in ((b.embeddings, bank.embeddings),
                              (b.context_vectors, bank.context_vectors)):
            assert table.flags.c_contiguous
            np.testing.assert_array_equal(table.view(np.int64), stored.view(np.int64))
    # a plain body takes no per-line read
    assert len(bodies) == (name in ("non_ascii_label", "padded_label", "blank_line"))


def test_atomic_write_leaves_no_temp_file_and_the_old_target_when_a_piece_raises(tmp_path):
    target = tmp_path / "out.tsv"
    target.write_text("old\n")

    def pieces():
        yield "new\n" * 1000
        raise RuntimeError("piece failed")
    with pytest.raises(RuntimeError, match="piece failed"):
        dataio.atomic_write(str(target), pieces())
    assert [f.name for f in tmp_path.iterdir()] == ["out.tsv"]
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\r", "\x0c", "x y", "\x85", "a\r\n"])
def test_model_store_refuses_a_label_it_cannot_read_back(tmp_path, label):
    with pytest.raises(DataError, match="holds a tab or a line break"):
        store_model(str(tmp_path / "l.model"), EmbeddingBank.init_random(3, 2, seed=0),
                    _meta(2, 3), ["a0", label, "c"])
    assert list(tmp_path.iterdir()) == []


def test_model_empty_and_padded_labels_round_trip(tmp_path):
    p1, p2 = str(tmp_path / "m1.model"), str(tmp_path / "m2.model")
    store_model(p1, EmbeddingBank.init_random(3, 2, seed=0), _meta(2, 3), ["", " x ", "y"])
    loaded, meta, labels = load_model(p1)
    assert labels == ["", " x ", "y"]
    store_model(p2, loaded, meta, labels)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


# one model file per sharing value: (a config, the file with the header
# glembed train writes for that config, the header, the embeddings and the
# context vectors, None when tied).  No family defaults to tied vectors, so
# the tied file has no config: it is the additive Poisson header with its
# sharing set to tied
_FROZEN_MODELS = {
    "per_row": ("family = gaussian\nk = 2\nknn_k = 3\n", """\
#glembed-model v1
family=gaussian
link=identity
sharing=per_row
log_space=0
dim=2
n_entities=3
sigma2=1.0
vocab_size=0
seed=0
context=knn
context_param=3
config_digest=b3f61d9864fd
#entities
a\t0.5\t-1.25\t3\t0.10000000000000001
b\t-0\t1e-300\t25000000\t0.33333333333333331
c\t-2\t0.25\t7\t-0.75
""", ModelMeta("gaussian", "identity", "per_row", False, 2, 3, 1.0, 0, 0, "knn", 3, "b3f61d9864fd"),
        [[0.5, -1.25], [-0.0, 1e-300], [-2.0, 0.25]], [[3.0, 0.1], [2.5e7, 1 / 3], [7.0, -0.75]]),
    "global": ("family = categorical\nk = 2\n", """\
#glembed-model v1
family=categorical
link=identity
sharing=global
log_space=0
dim=2
n_entities=3
sigma2=1.0
vocab_size=3
seed=0
context=window
context_param=2
config_digest=ef2bdff4770e
#entities
w0\t0.5\t-1.25\t3\t0.10000000000000001
w1\t-0\t1e-300\t25000000\t0.33333333333333331
w2\t-2\t0.25\t7\t-0.75
""", ModelMeta("categorical", "identity", "global", False, 2, 3, 1.0, 3, 0, "window", 2,
               "ef2bdff4770e"),
        [[0.5, -1.25], [-0.0, 1e-300], [-2.0, 0.25]], [[3.0, 0.1], [2.5e7, 1 / 3], [7.0, -0.75]]),
    "tied": (None, """\
#glembed-model v1
family=additive_poisson
link=log
sharing=tied
log_space=1
dim=2
n_entities=2
sigma2=1.0
vocab_size=0
seed=0
context=basket
context_param=0
config_digest=1039fd371fb1
#entities
i0\t0.5\t-1.25\t0.5\t-1.25
i1\t-2\t0.25\t-2\t0.25
""", ModelMeta("additive_poisson", "log", "tied", True, 2, 2, 1.0, 0, 0, "basket", 0,
               "1039fd371fb1"),
        [[0.5, -1.25], [-2.0, 0.25]], None),
}


@pytest.mark.parametrize("sharing", sorted(_FROZEN_MODELS))
def test_model_header_format_is_frozen(tmp_path, sharing):
    config, text, want, emb, cv = _FROZEN_MODELS[sharing]
    p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
    p1.write_text(text)
    bank, meta, labels = load_model(str(p1))
    assert meta == want and bank.tied == (cv is None)
    np.testing.assert_array_equal(bank.embeddings, emb)
    np.testing.assert_array_equal(bank.context_vectors, emb if cv is None else cv)
    assert np.signbit(bank.embeddings).tolist() == np.signbit(emb).tolist()
    if config is not None:  # the header glembed train writes for the config
        vocab = len(labels) if meta.family == "categorical" else 0
        assert parse_run_config(config).model_meta(bank, vocab) == meta
    store_model(str(p2), bank, meta, labels)
    assert p2.read_bytes() == p1.read_bytes()


def test_model_load_rejects_foreign_files(tmp_path):
    p = _write(tmp_path, "x.model", "something else\n")
    with pytest.raises(DataError):
        load_model(p)


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

def test_run_config_defaults_by_family():
    pois = parse_run_config("family = poisson\n")
    assert pois.reg_weight == 1.0
    assert pois.iterations == 3000
    assert pois.estimator == "sparse"
    assert pois.context == "basket"
    assert pois.implicit_zero == 1
    gauss = parse_run_config("family = gaussian\n")
    assert gauss.reg_weight == 10.0
    assert gauss.iterations == 500
    assert gauss.estimator == "minibatch"
    assert gauss.minibatch_size == 100
    assert gauss.implicit_zero == 0
    ng = parse_run_config("family = nonneg_gaussian\n")
    assert ng.reg_weight == 0.1
    cat = parse_run_config("family = categorical\n")
    assert cat.regularizer == "none" and cat.split == "none"


def test_run_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_run_config("family = poisson\nbogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config("family = poisson\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="family"):
        parse_run_config("seed = 1\n")


def test_run_config_lambda_alias_and_grid():
    cfg = parse_run_config(
        "family = poisson\nlambda = 2.5\nstep_size_grid = 0.1, 0.5\n# comment\n")
    assert cfg.reg_weight == 2.5
    assert cfg.step_size_grid == (0.1, 0.5)


@pytest.mark.parametrize("line, key", [
    ("iterations = -5", "iterations"), ("lambda = -2", "reg_weight"),
    ("reg_weight = -0.5", "reg_weight"), ("minibatch_size = -1", "minibatch_size"),
    ("implicit_zero = 2", "implicit_zero"), ("implicit_zero = -1", "implicit_zero")])
def test_run_config_rejects_out_of_range_values_naming_the_key(line, key):
    # these used to be replaced by the family default without a word
    with pytest.raises(ConfigError, match=key):
        parse_run_config(f"family = gaussian\n{line}\n")


@pytest.mark.parametrize("text, line", [
    ("family = gaussian\niterations = -5", 2),
    ("# a comment\nfamily = gaussian\n\nlink = bogus\n", 4),
    ("family = poisson\nsplit = none\ncontext = ring\n", 3)])
def test_run_config_value_errors_name_the_config_line(text, line):
    with pytest.raises(ConfigError, match=f"^config line {line}: "):
        parse_run_config(text)


def test_run_config_line_without_equals_names_its_line():
    with pytest.raises(ConfigError, match="^config line 3: expected key=value, got 'k 2 '$"):
        parse_run_config("family = gaussian\n\nk 2 # two dimensions\n")


@pytest.mark.parametrize("key", ["sigma2", "lambda", "reg_weight", "gamma", "train_frac",
                                 "valid_frac", "test_frac", "step_size_grid"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_config_rejects_non_finite_values_naming_the_line(key, value):
    # these used to pass, and a nan step size or weight aborted training at
    # iteration 1 as a numeric failure
    text = f"family = gaussian\nseed = 1\n{key} = 0.1, {value}\n" if key == "step_size_grid" \
        else f"family = gaussian\nseed = 1\n{key} = {value}\n"
    name = "reg_weight" if key == "lambda" else key
    with pytest.raises(ConfigError, match=f"^config line 3: {name} must be finite"):
        parse_run_config(text)


@pytest.mark.parametrize("key", ["train_frac", "valid_frac", "test_frac"])
def test_run_config_rejects_a_non_finite_fraction_under_split_none(key):
    # the fractions are unused without a split, but a non-finite one is still a fault
    with pytest.raises(ConfigError, match=f"^config line 3: {key} must be finite"):
        parse_run_config(f"family = gaussian\nsplit = none\n{key} = nan\n")
    cfg = parse_run_config(f"family = gaussian\nsplit = none\n{key} = 2\n")
    assert getattr(cfg, key) == 2.0


@pytest.mark.parametrize("text, line", [
    # a fraction sum over 1 names the last fraction line set
    ("family = gaussian\ntest_frac = 0.3\nseed = 1\ntrain_frac = 0.8\n", 4),
    ("family = poisson\nsplit = ratings\nvalid_frac = 0.6\ntest_frac = 0.6\n", 4),
    # a sparse fault names the later of the estimator and implicit_zero lines set
    ("family = poisson\nimplicit_zero = 0\n", 2),
    ("family = gaussian\nestimator = sparse\n", 2),
    ("family = poisson\nimplicit_zero = 0\nestimator = sparse\n", 3)])
def test_run_config_fault_of_several_keys_names_the_last_line(text, line):
    with pytest.raises(ConfigError, match=f"^config line {line}: "):
        parse_run_config(text)


@pytest.mark.parametrize("kwargs, key", [
    (dict(gamma=5.0), "gamma"), (dict(k=0), "k"), (dict(iterations=-1), "iterations"),
    (dict(step_size_grid=(0.1, -1.0)), "step_size_grid"), (dict(split="bogus"), "split"),
    (dict(context="window", window_w=0), "window_w"), (dict(knn_k=0), "knn_k"),
    (dict(link="log"), "link"), (dict(sigma2=-1.0), "sigma2"),
    (dict(min_col_count=-1), "min_col_count")])
def test_run_config_error_is_keyed_by_the_setting_not_the_built_field(kwargs, key):
    with pytest.raises(ConfigError) as info:
        RunConfig(family="gaussian", **kwargs)
    assert info.value.key == key


def test_readme_family_defaults_table_has_the_rows_of_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    head = readme.index("| family | `lambda` | `iterations` | `estimator` | `minibatch_size` "
                        "| `regularizer` | `context` | `implicit_zero` | sharing |")
    rows = {}
    for line in readme[head + 2:head + 2 + len(dataio.FAMILY_DEFAULTS)]:
        family, *cells = (c.strip().strip("`") for c in line.strip("|").split("|"))
        rows[family] = [type(v)(c) for v, c in zip(dataio.FAMILY_DEFAULTS[family].values(), cells)]
    assert rows == {f: list(d.values()) for f, d in dataio.FAMILY_DEFAULTS.items()}
    assert set(rows) == {f.value for f in Family}


def test_run_config_unset_and_zero_keys_keep_their_resolution():
    cfg = parse_run_config("family = gaussian\nlambda = 0\niterations = 0\nimplicit_zero = 1\n")
    assert (cfg.reg_weight, cfg.iterations, cfg.implicit_zero) == (0.0, 0, 1)
    cfg = RunConfig(family="gaussian", minibatch_size=0)
    assert (cfg.reg_weight, cfg.iterations, cfg.minibatch_size, cfg.implicit_zero) == \
        (10.0, 500, 100, 0)
    # the canonical text of a config that was valid before is unchanged
    assert parse_run_config("family = gaussian\n").digest() == "91b1680c9c7d"


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_run_config_canonical_text_parses_back_to_the_config(family):
    cfg = parse_run_config(f"family = {family}\n")
    assert parse_run_config(cfg.canonical_text()) == cfg


def test_run_config_canonical_text_parses_back_non_default_values():
    # a value of every field type: bool, int, int | None, float,
    # float | None, tuple[float, ...] and str; explicit data need an
    # estimator other than the family's default sparse one
    cfg = RunConfig(family="poisson", lag=True, rating_shift=True, k=7, iterations=12,
                    implicit_zero=0, min_col_count=2, sigma2=0.3, reg_weight=2.5,
                    step_size_grid=(0.2, 0.03), zero_estimator="downweight", split="ratings",
                    estimator="full")
    back = parse_run_config(cfg.canonical_text())
    assert back == cfg
    assert [type(v) for v in vars(back).values()] == [type(v) for v in vars(cfg).values()]


def test_run_config_digest_is_stable_and_sensitive():
    a = parse_run_config("family = poisson\nseed = 1\n")
    b = parse_run_config("family = poisson\nseed = 1\n")
    c = parse_run_config("family = poisson\nseed = 2\n")
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_run_config_train_config_round_trip():
    cfg = parse_run_config("family = bernoulli\nk = 7\ngamma = 0.2\n"
                           "zero_estimator = downweight\n")
    tc = cfg.train_config(0.3)
    tc.validate()
    assert tc.dim == 7 and tc.downweight == 0.2 and tc.step_size == 0.3
    assert tc.estimator == "sparse"
