"""Structure guards: each fails when a change writes a design decision twice."""

import ast
import re
from pathlib import Path

import pytest

LIB = Path(__file__).resolve().parents[1] / "src" / "glembed"
TOP = sorted(LIB.glob("*.py"))
# every file below the package, as a recursive grep of a checkout reads it
TREE = sorted(p for p in LIB.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
NOT_DATAIO = [p for p in TREE if p.name != "dataio.py"]
TRIPLET_READER = ("read_triplets", "_read_matrix", "_parse_spans", "_parse_span", "_send_span",
                  "_runs")
ABSENT = {  # per guard: the files it reads and a pattern that no line of them may match
    "one-scatter-path": (TREE, r"np\.add\.at|np\.bincount\(.*weights"),
    "one-context-interface": (TOP, r"def (sums|scatter_add)\("),
    "one-scoring-driver": (TOP, r"def (_term_pass|_block_terms|block_gradient"
                                r"|block_log_likelihood)\("),
    "one-place-starts-processes": ([p for p in NOT_DATAIO if p.match("*.py")],
                                   r"multiprocessing|os\.fork"),
    "one-place-per-run-setting": (TREE, r"_DEFAULT_CONTEXT|_IMPLICIT_FAMILIES|_GAUSSIAN_FAMILIES"
                                        r"|_POISSON_FAMILIES|def default_link\("),
    "cli-builds-no-model-schema": ([LIB / "cli.py"], r"ModelMeta\(|sharing"),
    "one-value-parser-table": ([LIB / "dataio.py"], r"casts *="),
    "only-dataio-names-the-contexts": (NOT_DATAIO, r"_CONTEXTS"),
    "no-step-gathers-entries": (TOP, r"cv\[data\.rows\]|R\[data\.cols\]|_by_column"),
    "one-place-weights-a-term": (TREE, r"downweight_zeros|class LogSample"),
    "evaluate-checks-no-bank": ([LIB / "evaluate.py"], r"validate_bank"),
}


def _lines(path):
    return path.read_text(encoding="utf-8").split("\n")


def _tree(module):
    return ast.parse((LIB / f"{module}.py").read_text(encoding="utf-8"))


def _defs(nodes, kinds=ast.FunctionDef):  # by name, the last of a name
    return {n.name: n for n in nodes if isinstance(n, kinds)}


def _calls(node, *names):  # of a function or method named one of names
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) in names]


@pytest.mark.parametrize("files, pattern", ABSENT.values(), ids=ABSENT.keys())
def test_no_library_line_matches_the_guards_pattern(files, pattern):
    assert [f"{p.name}:{ln}: {line}" for p in files
            for ln, line in enumerate(_lines(p), start=1) if re.search(pattern, line)] == []


def test_one_key_value_reader_and_only_run_config_reads_the_context_names():
    assert sum('split("=", 1)' in line for line in _lines(LIB / "dataio.py")) == 1
    assert [getattr(n, "name", type(n).__name__) for n in _tree("dataio").body
            if not isinstance(n, ast.Assign) and any(isinstance(m, ast.Name)
            and m.id == "_CONTEXTS" for m in ast.walk(n))] == ["RunConfig"]


def test_one_entry_store_and_no_file_text():
    matrix = _defs(_tree("core").body, (ast.FunctionDef, ast.ClassDef))["DataMatrix"]
    assert [t.lineno for n in ast.walk(matrix)
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
            for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and t.attr in ("rows", "cols")] == []
    dataio = _defs(_tree("dataio").body, (ast.FunctionDef, ast.ClassDef))
    assert [(name, n.lineno) for name in (*TRIPLET_READER, "_raise_first_fault", "ingest")
            for n in ast.walk(dataio[name])
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "read_text"] == []


def test_one_decoder_and_one_fault_walk():
    tree = _tree("dataio")
    funcs = _defs(tree.body)
    decodes = {n.lineno for n in _calls(tree, "decode")}
    assert decodes - {n.lineno for n in _calls(funcs["_runs"], "decode")} == set()
    for n in {n.lineno: n for n in _calls(tree, "open", "fdopen")}.values():  # last of a line
        mode = (n.args[1:2] + [k.value for k in n.keywords if k.arg == "mode"])[:1]
        mode = mode[0].value if mode else "r"
        assert "b" in mode or set(mode) & set("wax"), (n.lineno, mode)  # no text-mode read
    assert [(name, n.lineno) for name in (*TRIPLET_READER, "_received_part", "ingest")
            for n in ast.walk(funcs[name])
            if isinstance(n, ast.JoinedStr) and "{path}:{ln}:" in ast.unparse(n)] == []


def test_one_ingest_path():
    dataio, core = _tree("dataio"), _tree("core")
    assert [n.lineno for n in ast.walk(dataio) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "DataMatrix"] == []
    assert "_min_count_filter" not in _defs(ast.walk(dataio))
    funcs = _defs(ast.walk(core))
    assert sorted({name for name, f in funcs.items() for n in ast.walk(f)
                   if isinstance(n, ast.For) and "KEY_CHUNK" in ast.unparse(n.iter)}) == ["select"]
    assert [ast.unparse(n) for n in funcs["select_columns"].body[1:]] == [
        "return self.select(1, keep)"]


def test_cli_main_returns_the_errors_exit_code_from_one_handler():
    cli = _tree("cli")
    handlers = [h for n in ast.walk(_defs(ast.walk(cli))["main"]) if isinstance(n, ast.Try)
                for h in n.handlers]
    assert [(ast.unparse(h.type), ast.unparse(h.body[-1])) for h in handlers] == [
        ("GlembedError", "return e.exit_code")]
    assert [n.lineno for n in ast.walk(cli) if isinstance(n, ast.Return)
            and isinstance(n.value, ast.Constant) and n.value.value in (2, 3, 4)] == []


@pytest.mark.parametrize("call", ["validate_bank", "ctx.block"])
def test_only_families_pass_checks_the_bank_and_starts_a_pass(call):
    name = call.rpartition(".")[2]  # any call of validate_bank, of block only ctx.block
    assert sorted(fname for fname, f in _defs(ast.walk(_tree("families"))).items()
                  if any(call in (name, ast.unparse(c.func)) for c in _calls(f, name))
                  ) == ["_pass"]


def test_make_split_draws_one_permutation_and_no_wrapper_is_back():
    assert len(_calls(_defs(ast.walk(_tree("evaluate")))["make_split"], "permutation")) == 1
    assert [(m, n.name) for m in ("analyze", "cli", "core", "evaluate", "families")
            for n in ast.walk(_tree(m)) if isinstance(n, (ast.ClassDef, ast.FunctionDef))
            and n.name in ("SimilarityQuery", "sorted_cell_keys")] == []


def test_no_private_name_is_imported_across_library_modules():
    assert [(p.name, node.lineno, a.name) for p in TOP
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_")] == []


def test_ci_holds_no_structure_guard_of_its_own():  # they live here, in the tier-1 run
    text = (LIB.parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "python - <<" not in text
    assert [line for line in text.split("\n") if "grep" in line and "src/" in line] == []
