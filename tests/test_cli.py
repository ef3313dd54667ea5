import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from glembed import cli
from glembed.cli import main
from glembed.contexts import SpatialLayout, knn_neighbors
from glembed.core import EmbeddingBank
from glembed.dataio import (
    ModelMeta,
    ingest,
    load_model,
    parse_run_config,
    read_locations,
    store_model,
    write_triplets,
)
from glembed.errors import DataError
from glembed.evaluate import leave_one_out_mse, normalized_predictive_ll
from glembed.synth import gen_cluster_corpus, gen_gaussian_knn, gen_poisson_baskets
from glembed.train import objective

CFG_GAUSSIAN = """\
family = gaussian
k = 2
context = knn
knn_k = 3
lambda = 0
iterations = 60
estimator = full
step_size_grid = 0.1
seed = 11
split = columns
"""


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    prefix = str(root / "toy")
    rc = main(["gen-synthetic", "--kind", "gaussian-knn", "--entities", "12",
               "--columns", "80", "--dim", "2", "--noise-sd", "0.1",
               "--knn-k", "3", "--seed", "4", "--out-prefix", prefix])
    assert rc == 0
    cfg = root / "toy.cfg"
    cfg.write_text(CFG_GAUSSIAN)
    return {
        "root": root,
        "data": f"{prefix}.data.tsv",
        "locations": f"{prefix}.locations.tsv",
        "config": str(cfg),
    }


def test_split_command_writes_partitions(toy_run, capsys):
    prefix = str(toy_run["root"] / "parts")
    rc = main(["split", "--data", toy_run["data"], "--seed", "3",
               "--out-prefix", prefix])
    assert rc == 0
    for part in ("train", "valid", "test"):
        assert (toy_run["root"] / f"parts.{part}.tsv").exists()
    assert "dropped 0 test columns" in capsys.readouterr().out


def test_split_rejects_a_tab_inside_an_id_of_a_comma_file(tmp_path, capsys):
    data = tmp_path / "tabbed.csv"
    data.write_text("row,col,value\na\tb,c0,1.0\na,c1,2.0\nb,c0,3.0\n")
    rc = main(["split", "--data", str(data), "--out-prefix", str(tmp_path / "sp")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {data}:2: tab inside id 'a\\tb'\n"
    assert list(tmp_path.iterdir()) == [data]


def test_train_evaluate_and_queries(toy_run, capsys):
    root = toy_run["root"]
    model = str(root / "toy.model")
    rc = main(["train", "--config", toy_run["config"], "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", model,
               "--log", str(root / "toy.log")])
    assert rc == 0
    log_lines = (root / "toy.log").read_text().splitlines()
    assert log_lines[0].split("\t") == ["iteration", "objective", "eta_clamped",
                                        "rate_floored", "elapsed_sec"]
    assert len(log_lines) >= 3
    capsys.readouterr()

    rc = main(["split", "--data", toy_run["data"], "--seed", "3",
               "--out-prefix", str(root / "ev")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", model, "--test", str(root / "ev.test.tsv"),
               "--protocol", "loo-mse", "--locations", toy_run["locations"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("metric\testimate")
    assert "leave_one_out_mse" in out

    rc = main(["evaluate", "--model", model, "--test", str(root / "ev.test.tsv"),
               "--protocol", "l25-mse", "--locations", toy_run["locations"],
               "--fold-seed", "2"])
    assert rc == 0
    assert "leave_25pct_out_mse" in capsys.readouterr().out

    rc = main(["query-similar", "--model", model, "--entity", "3", "--top", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3

    rc = main(["query-pairs", "--model", model, "--count", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("#")
    assert len(out.splitlines()) == 6

    rc = main(["rank-dimensions", "--model", model, "--dim", "1", "--top", "5"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 6

    rc = main(["export-graph", "--model", model, "--locations", toy_run["locations"]])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 12 * 3


def test_identical_config_and_seed_give_identical_model_bytes(toy_run):
    root = toy_run["root"]
    m1, m2 = str(root / "d1.model"), str(root / "d2.model")
    for out in (m1, m2):
        rc = main(["train", "--config", toy_run["config"], "--data", toy_run["data"],
                   "--locations", toy_run["locations"], "--out", out])
        assert rc == 0
    assert Path(m1).read_bytes() == Path(m2).read_bytes()


def test_zero_iteration_training_returns_initialization(toy_run):
    root = toy_run["root"]
    cfg = root / "zero.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("iterations = 60", "iterations = 0"))
    model = str(root / "zero.model")
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", model])
    assert rc == 0
    bank, meta, _ = load_model(model)
    init = EmbeddingBank.init_random(12, 2, seed=11)
    np.testing.assert_array_equal(bank.embeddings, init.embeddings)


def test_protocol_typo_is_usage_error(toy_run, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", "x", "--test", "y", "--protocol", "nope"])
    assert exc.value.code == 2
    assert "loo-mse" in capsys.readouterr().err  # usage lists valid protocols


def test_rank_dimension_out_of_range_is_config_error(toy_run, capsys):
    model = str(toy_run["root"] / "toy.model")
    rc = main(["rank-dimensions", "--model", model, "--dim", "9", "--top", "3"])
    assert rc == 2


def test_unknown_entity_is_data_error(toy_run, capsys):
    model = str(toy_run["root"] / "toy.model")
    rc = main(["query-similar", "--model", model, "--entity", "missing", "--top", "2"])
    assert rc == 3


def test_family_protocol_mismatch_is_compatibility_error(toy_run, capsys):
    model = str(toy_run["root"] / "toy.model")
    rc = main(["evaluate", "--model", model, "--test", toy_run["data"],
               "--protocol", "npll"])
    assert rc == 3


def test_grid_search_without_validation_is_config_error(toy_run, capsys):
    root = toy_run["root"]
    cfg = root / "grid.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("step_size_grid = 0.1",
                                        "step_size_grid = 0.1, 0.5")
                   .replace("split = columns", "split = none"))
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(root / "g.model")])
    assert rc == 2


@pytest.mark.parametrize("old, new", [("step_size_grid = 0.1", "step_size_grid = nan"),
                                      ("lambda = 0", "lambda = inf"),
                                      ("seed = 11", "seed = 11\nsigma2 = nan")])
def test_non_finite_config_value_is_config_error(toy_run, capsys, old, new):
    # exit 2 naming the line, not a numeric abort (exit 4) at iteration 1
    root = toy_run["root"]
    cfg = root / "nonfinite.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace(old, new))
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(root / "nf.model")])
    assert rc == 2
    assert "config line" in capsys.readouterr().err


def test_grid_search_picks_a_step_on_validation(toy_run, capsys):
    root = toy_run["root"]
    cfg = root / "grid2.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("step_size_grid = 0.1",
                                        "step_size_grid = 0.05, 0.1")
                   .replace("iterations = 60", "iterations = 30"))
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(root / "g2.model")])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("validation score") == 2


def test_grid_search_builds_one_context(toy_run, monkeypatch):
    # a context map holds no data, so the training split's scores every grid
    # step on validation: one locations read and one kNN build, where a second
    # context for validation made two; each score equals one from a context
    # built afresh on the validation split
    root = toy_run["root"]
    cfg = root / "grid4.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("step_size_grid = 0.1",
                                        "step_size_grid = 0.02, 0.05, 0.1, 0.2")
                   .replace("iterations = 60", "iterations = 20"))
    build, score_of, read = cli.build_knn_context, cli._validation_score, cli.read_locations
    builds, reads, scores = [], [], []

    def counted_build(layout, data):
        builds.append(data)
        return build(layout, data)

    def counted_read(*args):
        reads.append(args)
        return read(*args)

    def checked_score(cfg, spec, bank, valid, ctx):
        score = score_of(cfg, spec, bank, valid, ctx)
        fresh = build(SpatialLayout(read(toy_run["locations"], valid.row_labels), cfg.knn_k),
                      valid)
        assert score == -leave_one_out_mse(valid, fresh, bank, spec).estimate
        scores.append((score, bank.embeddings.tobytes(), bank.context_vectors.tobytes()))
        return score
    monkeypatch.setattr(cli, "build_knn_context", counted_build)
    monkeypatch.setattr(cli, "read_locations", counted_read)
    monkeypatch.setattr(cli, "_validation_score", checked_score)
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(root / "g4.model")])
    assert rc == 0
    assert len(builds) == 1 and len(reads) == 1 and len(scores) == 4
    bank, _, _ = load_model(str(root / "g4.model"))
    best = max(scores, key=lambda s: s[0])
    assert (bank.embeddings.tobytes(), bank.context_vectors.tobytes()) == best[1:]


# glembed gen-synthetic kind -> (train config without a step grid, the score
# that validates its steps)
_GRID_SEARCHED = {
    "poisson-baskets": ("family = poisson\nk = 3\niterations = 20\nnegative_samples = 3\n"
                        "seed = 3\n", normalized_predictive_ll),
    "text-clusters": ("family = bernoulli\nk = 3\niterations = 20\nnegative_samples = 3\n"
                      "seed = 3\nsplit = columns\nvalid_frac = 0.1\ntest_frac = 0\n", None),
}


@pytest.mark.parametrize("kind", sorted(_GRID_SEARCHED))
def test_grid_search_scores_each_step_and_stores_the_best(tmp_path, capsys, monkeypatch, kind):
    # a Poisson step is scored by its validation NPLL, a Bernoulli step by
    # its validation objective per term; one score line per step, and the
    # stored bank is the bank of the best score
    text, protocol = _GRID_SEARCHED[kind]
    prefix = str(tmp_path / "d")
    assert main(["gen-synthetic", "--kind", kind, "--entities", "20", "--columns", "250",
                 "--seed", "2", "--out-prefix", prefix]) == 0
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(text + "step_size_grid = 0.02, 0.5\n")
    score_of, scores = cli._validation_score, []

    def checked_score(cfg, spec, bank, valid, ctx):
        score = score_of(cfg, spec, bank, valid, ctx)
        want = protocol(valid, ctx, bank, spec).estimate if protocol else \
            objective(valid, ctx, bank, spec, 0.0, "none") / valid.n_terms
        assert score == want and np.isfinite(score)
        scores.append((score, bank.embeddings.tobytes(), bank.context_vectors.tobytes()))
        return score
    monkeypatch.setattr(cli, "_validation_score", checked_score)
    model = tmp_path / "grid.model"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", f"{prefix}.data.tsv",
                 "--out", str(model)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["step_size 0.02", "step_size 0.5"]
    assert [float(line.rsplit(" ", 1)[1]) for line in lines] == \
        pytest.approx([s[0] for s in scores], rel=1e-5)
    bank, _, _ = load_model(str(model))
    best = max(scores, key=lambda s: s[0])
    assert scores[0][1:] != scores[1][1:]
    assert (bank.embeddings.tobytes(), bank.context_vectors.tobytes()) == best[1:]


def test_numeric_abort_exits_4_and_leaves_no_output(toy_run, tmp_path, capsys):
    cfg = tmp_path / "huge_step.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("step_size_grid = 0.1", "step_size_grid = 1e200"))
    model, log = tmp_path / "m.model", tmp_path / "m.log"
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(model), "--log", str(log)])
    assert rc == 4
    assert capsys.readouterr().err == \
        "error: iteration 2: embeddings[0,0] became non-finite\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_missing_locations_for_knn_context(toy_run):
    rc = main(["train", "--config", toy_run["config"], "--data", toy_run["data"],
               "--out", str(toy_run["root"] / "noloc.model")])
    assert rc == 2


def test_evaluate_empty_test_split_is_config_error(toy_run, tmp_path):
    model = str(toy_run["root"] / "toy.model")
    empty = tmp_path / "empty.tsv"
    empty.write_text("row\tcol\tvalue\n")
    rc = main(["evaluate", "--model", model, "--test", str(empty),
               "--protocol", "loo-mse", "--locations", toy_run["locations"]])
    assert rc == 2


def test_loo_and_l25_score_the_same_entries_with_a_missing_neighbor_cell(
        toy_run, tmp_path, capsys):
    # a missing explicit cell is never a context member, so an entry whose
    # neighbor cells are all missing has an empty context under both protocols
    model = str(toy_run["root"] / "toy.model")
    data = ingest(toy_run["data"])
    positions = read_locations(toy_run["locations"], data.row_labels)
    gone = [[data.row_labels[m], "0"] for m in knn_neighbors(positions, 3)[0]]
    lines = Path(toy_run["data"]).read_text().splitlines()
    holey = tmp_path / "holey.tsv"
    holey.write_text("\n".join(ln for ln in lines if ln.split("\t")[:2] not in gone) + "\n")
    reports = {}
    for protocol in ("loo-mse", "l25-mse"):
        capsys.readouterr()
        rc = main(["evaluate", "--model", model, "--test", str(holey),
                   "--protocol", protocol, "--locations", toy_run["locations"]])
        assert rc == 0
        reports[protocol] = capsys.readouterr().out.splitlines()[1].split("\t")[3:]
    n_entries = len(lines) - 1 - len(gone)
    assert reports["loo-mse"] == reports["l25-mse"] == [str(n_entries - 1), "1"]


@pytest.mark.parametrize("which", ["data", "locations"])
def test_nonfinite_input_is_data_error_naming_the_line(toy_run, tmp_path, capsys, which):
    lines = Path(toy_run[which]).read_text().splitlines()
    fields = lines[3].split("\t")
    fields[-1] = "nan" if which == "data" else "inf"
    lines[3] = "\t".join(fields)
    bad = tmp_path / f"bad.{which}.tsv"
    bad.write_text("\n".join(lines) + "\n")
    paths = {"data": toy_run["data"], "locations": toy_run["locations"], which: str(bad)}
    capsys.readouterr()
    rc = main(["train", "--config", toy_run["config"], "--data", paths["data"],
               "--locations", paths["locations"], "--out", str(tmp_path / "bad.model")])
    assert rc == 3
    assert f"{bad}:4: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["link = bogus", "lag = maybe", "rating_shift = 2"])
def test_unusable_config_value_is_config_error(toy_run, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CFG_GAUSSIAN + line + "\n")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(tmp_path / "bad.model")])
    assert rc == 2
    assert repr(line.split(" = ")[1]) in capsys.readouterr().err


# a field of a model header, its value in the stored model, a value of it
# that store_model refuses and load_model rejects, and the stored header's
# fields that differ from those of the Gaussian kNN model below, if any
_CATEGORICAL = dict(family="categorical", context="window")
_BAD_HEADERS = {"header": ("dim", 2, "ten"), "link": ("link", "identity", "idnetity"),
                # an unknown value must not decide tiedness
                "sharing": ("sharing", "per_row", "Tied"),
                "context": ("context", "knn", "bogus"),
                "context_param": ("context_param", 2, -4),
                "dim": ("dim", 2, -1),
                "family": ("family", "gaussian", "gausian"),
                "gaussian_log_link": ("link", "identity", "log"),
                # FamilySpec reads an empty link as the family's default
                "empty_link": ("link", "identity", ""),
                "sigma2": ("sigma2", 1.0, 0),
                # the bank has 12 rows of 2 dimensions
                "dim_of_the_bank": ("dim", 2, 3),
                "n_entities_of_the_bank": ("n_entities", 12, 13),
                # glembed train refuses these settings, so it writes no such header
                "categorical_knn": ("context", "window", "knn", _CATEGORICAL),
                "categorical_basket": ("context", "window", "basket", _CATEGORICAL),
                "basket_context_param": ("context_param", 0, 5,
                                         dict(context="basket", context_param=0)),
                "negative_seed": ("seed", 0, -1),
                # a Gaussian bank stores the parameters themselves, not their logs
                "gaussian_log_space": ("log_space", 0, 1),
                # values that parse, but not as store_model writes them
                "spaced_seed": ("seed", 0, " 0"), "spaced_sigma2": ("sigma2", 1.0, " 1.0"),
                "spaced_dim": ("dim", 2, "2 "), "signed_seed": ("seed", 0, "+0"),
                "underscored_seed": ("seed", 0, "0_0"), "exponent_sigma2": ("sigma2", 1.0, "1e0"),
                "worded_log_space": ("log_space", 0, "False")}
# a line added to the header, which no ModelMeta writes, that load_model rejects
_ADDED_HEADER_LINES = {"unknown_key": "colour=blue", "repeated_key": "seed=7"}


@pytest.mark.parametrize("part", [*_BAD_HEADERS, *_ADDED_HEADER_LINES, "body"])
def test_malformed_model_file_is_data_error_naming_the_line(toy_run, tmp_path, capsys, part):
    bank = EmbeddingBank.init_random(12, 2, seed=0)
    meta = ModelMeta("gaussian", "identity", dim=2, n_entities=12, context="knn",
                     context_param=2)
    if part in _BAD_HEADERS:
        key, value, bad_value, *changes = _BAD_HEADERS[part]
        meta = replace(meta, **(changes[0] if changes else {}))
    good = tmp_path / "good.model"
    store_model(str(good), bank, meta)
    lines = good.read_text().splitlines()
    if part in _BAD_HEADERS:
        with pytest.raises(DataError, match=key):
            store_model(str(tmp_path / "refused.model"), bank, replace(meta, **{key: bad_value}))
        assert list(tmp_path.iterdir()) == [good]  # no target and no temp file
        at = lines.index(f"{key}={value}")
        lines[at] = f"{key}={bad_value}"
    elif part in _ADDED_HEADER_LINES:
        at = lines.index("#entities")
        lines.insert(at, _ADDED_HEADER_LINES[part])
    else:
        at = lines.index("#entities") + 2
        lines[at] = lines[at].replace("\t", "\tabc\t", 1).rsplit("\t", 1)[0]
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{bad}:{at + 1}: bad ")):
        load_model(str(bad))
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(bad), "--test", toy_run["data"],
               "--protocol", "loo-mse", "--locations", toy_run["locations"]])
    assert rc == 3
    assert f"{bad}:{at + 1}: bad " in capsys.readouterr().err


@pytest.mark.parametrize("family, link", [("gaussian", "identity"),
                                          ("nonneg_gaussian", "identity"),
                                          ("additive_poisson", "log")])
def test_a_log_space_unlike_the_family_is_refused_and_names_its_line(tmp_path, capsys,
                                                                      family, link):
    # either flip: store_model refuses a bank of the other space before it
    # writes, and load_model names the flipped header line
    needs = family != "gaussian"
    meta = ModelMeta(family, link, log_space=needs, dim=2, n_entities=12, context="knn",
                     context_param=2)
    good = tmp_path / "good.model"
    store_model(str(good), EmbeddingBank.init_random(12, 2, seed=0, log_space=needs), meta)
    with pytest.raises(DataError, match=f"log_space={not needs} is not {needs} for the {family}"):
        store_model(str(tmp_path / "refused.model"),
                    EmbeddingBank.init_random(12, 2, seed=0, log_space=not needs),
                    replace(meta, log_space=not needs))
    assert list(tmp_path.iterdir()) == [good]
    lines = good.read_text().splitlines()
    at = lines.index(f"log_space={int(needs)}")
    lines[at] = f"log_space={int(not needs)}"
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    named = f"{bad}:{at + 1}: bad header line: log_space"
    with pytest.raises(DataError, match=re.escape(named)):
        load_model(str(bad))
    capsys.readouterr()
    assert main(["query-similar", "--model", str(bad), "--entity", "0"]) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["no_entities_line", "missing_field"])
def test_model_file_without_its_entities_line_or_a_field_exits_3(tmp_path, capsys, fault):
    meta = ModelMeta("gaussian", "identity", dim=2, n_entities=12, context="knn",
                     context_param=2)
    p = tmp_path / "m.model"
    store_model(str(p), EmbeddingBank.init_random(12, 2, seed=0), meta)
    lines = p.read_text().splitlines()
    if fault == "no_entities_line":
        lines, named = lines[:lines.index("#entities")], f"{p}: missing #entities section"
    else:
        lines.remove("seed=0")
        named = f"{p}: header missing seed"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(named)):
        load_model(str(p))
    capsys.readouterr()
    assert main(["query-similar", "--model", str(p), "--entity", "0"]) == 3
    assert capsys.readouterr().err == f"error: {named}\n"


def test_query_similar_top_zero_is_empty_success(toy_run, capsys):
    model = str(toy_run["root"] / "toy.model")
    rc = main(["query-similar", "--model", model, "--entity", "0", "--top", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["rank\tentity\tsimilarity"]


def test_query_similar_on_a_zero_vector_is_a_domain_error(tmp_path, capsys):
    emb = np.random.default_rng(0).normal(size=(4, 2))
    emb[1] = 0.0
    meta = ModelMeta("gaussian", "identity", dim=2, n_entities=4, context="knn",
                     context_param=2)
    model = str(tmp_path / "zero.model")
    store_model(model, EmbeddingBank(emb, emb + 1.0), meta, ["a", "b", "c", "d"])
    assert main(["query-similar", "--model", model, "--entity", "a", "--top", "2"]) == 0
    capsys.readouterr()
    assert main(["query-similar", "--model", model, "--entity", "b", "--top", "2"]) == 1
    assert capsys.readouterr() == ("", "error: query entity has a zero vector; "
                                       "cosine undefined\n")


def test_store_model_needs_one_label_per_bank_row(tmp_path):
    meta = ModelMeta("gaussian", "identity", dim=2, n_entities=3, context="knn",
                     context_param=1)
    with pytest.raises(DataError, match="one label per bank row required"):
        store_model(str(tmp_path / "m.model"), EmbeddingBank.init_random(3, 2, seed=0), meta,
                    ["a", "b"])
    assert list(tmp_path.iterdir()) == []


def test_poisson_basket_pipeline_with_npll(tmp_path, capsys):
    prefix = str(tmp_path / "shop")
    rc = main(["gen-synthetic", "--kind", "poisson-baskets", "--entities", "20",
               "--columns", "250", "--dim", "4", "--clusters", "4", "--seed", "2",
               "--out-prefix", prefix])
    assert rc == 0
    rc = main(["split", "--data", f"{prefix}.data.tsv", "--implicit-zero",
               "--seed", "1", "--out-prefix", prefix])
    assert rc == 0
    cfg = tmp_path / "shop.cfg"
    cfg.write_text("family = poisson\nk = 4\nlink = mean_identity\n"
                   "lambda = 0.1\niterations = 40\nnegative_samples = 5\n"
                   "step_size_grid = 0.5\nseed = 3\nsplit = none\n")
    model = str(tmp_path / "shop.model")
    rc = main(["train", "--config", str(cfg), "--data", f"{prefix}.train.tsv",
               "--out", model])
    assert rc == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", model, "--test", f"{prefix}.test.tsv",
               "--protocol", "npll"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized_predictive_ll" in out
    estimate = float(out.splitlines()[1].split("\t")[1])
    assert estimate <= 0.0


# the C locale, whose encoding Python takes for ASCII when it neither coerces
# the locale nor turns on its UTF-8 mode, and a UTF-8 locale
_LOCALES = {"c": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            "utf8": {"LC_ALL": "C.UTF-8", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}}


def test_every_file_is_utf8_under_every_locale(tmp_path):
    # non-ASCII ids in the data, the split parts and the model, and a
    # non-ASCII comment in the config, through split, train and evaluate
    # run as commands under each locale
    prefix = str(tmp_path / "shop")
    assert main(["gen-synthetic", "--kind", "poisson-baskets", "--entities", "20",
                 "--columns", "120", "--seed", "2", "--out-prefix", prefix]) == 0
    head, *body = Path(f"{prefix}.data.tsv").read_text().splitlines()
    data = tmp_path / "data.tsv"
    data.write_bytes("".join(f"{line}\n" for line in [head, *(
        f"ünï{r}\t日本{c}\t{v}" for r, c, v in map(str.split, body))]).encode())
    cfg = tmp_path / "shop.cfg"
    cfg.write_bytes("# Warenkörbe\nfamily = poisson\nk = 3\niterations = 10\n"
                    "negative_samples = 3\nstep_size_grid = 0.5\nsplit = none\n".encode())
    files = {}
    for name, env in _LOCALES.items():
        out = tmp_path / name
        out.mkdir()
        part = str(out / "part")
        for argv in (["split", "--data", str(data), "--implicit-zero", "--seed", "1",
                      "--out-prefix", part],
                     ["train", "--config", str(cfg), "--data", f"{part}.train.tsv",
                      "--out", f"{part}.model"],
                     ["evaluate", "--model", f"{part}.model", "--test", f"{part}.test.tsv",
                      "--protocol", "npll"]):
            run = subprocess.run([sys.executable, "-m", "glembed.cli", *argv],
                                 env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
                                     p for p in sys.path if p)), capture_output=True)
            assert run.returncode == 0, run.stderr.decode()
        files[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert sorted(files["c"]) == ["part.model", "part.test.tsv", "part.train.tsv",
                                  "part.valid.tsv"]
    assert "ünï".encode() in files["c"]["part.model"]
    assert "日本".encode() in files["c"]["part.train.tsv"]
    assert files["c"] == files["utf8"]


def test_evaluate_applies_the_familys_value_rules_to_the_test_file(tmp_path, capsys):
    # glembed train refuses a negative Poisson count with exit 3; so does evaluate
    prefix = str(tmp_path / "shop")
    assert main(["gen-synthetic", "--kind", "poisson-baskets", "--entities", "20",
                 "--columns", "120", "--seed", "2", "--out-prefix", prefix]) == 0
    cfg = tmp_path / "shop.cfg"
    cfg.write_text("family = poisson\nk = 3\niterations = 10\nnegative_samples = 3\n"
                   "step_size_grid = 0.5\nsplit = none\n")
    model = str(tmp_path / "shop.model")
    assert main(["train", "--config", str(cfg), "--data", f"{prefix}.data.tsv",
                 "--out", model]) == 0
    lines = Path(f"{prefix}.data.tsv").read_text().splitlines()
    row, col, _ = lines[1].split("\t")
    test = tmp_path / "test.tsv"
    for value, code in (("1", 0), ("-5", 3)):
        test.write_text("\n".join([lines[0], f"{row}\t{col}\t{value}", *lines[2:40]]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--model", model, "--test", str(test),
                     "--protocol", "npll"]) == code
    assert capsys.readouterr().err == "error: poisson data must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ["gen-synthetic", "--kind", "poisson-baskets", "--out", "{out}"],
    ["split", "--data", "{data}", "--out", "{out}"],
])
def test_a_prefix_of_a_long_option_is_not_taken_for_it(tmp_path, capsys, argv):
    data = tmp_path / "d.tsv"
    data.write_text("row\tcol\tvalue\na\tx\t1\n")
    out = tmp_path / "pb.tsv"
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=out, data=data) for a in argv])
    assert exc.value.code == 2
    assert "--out-prefix" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv"]


# glembed gen-synthetic options -> the generator call whose data they write:
# the dim and the cluster count default to each generator's own
_GENERATED = {
    "gaussian_defaults": (["--kind", "gaussian-knn"], lambda: gen_gaussian_knn(12, 40, dim=2)),
    "poisson_defaults": (["--kind", "poisson-baskets"], lambda: gen_poisson_baskets(12, 40)),
    "poisson_given": (["--kind", "poisson-baskets", "--dim", "3", "--clusters", "3"],
                      lambda: gen_poisson_baskets(12, 40, n_clusters=3, dim=3)),
    "text_defaults": (["--kind", "text-clusters"], lambda: gen_cluster_corpus(12, length=40)),
    "text_clusters": (["--kind", "text-clusters", "--clusters", "4"],
                      lambda: gen_cluster_corpus(12, n_clusters=4, length=40)),
}


@pytest.mark.parametrize("case", sorted(_GENERATED))
def test_gen_synthetic_writes_its_generators_data(tmp_path, case):
    argv, generate = _GENERATED[case]
    prefix = str(tmp_path / "g")
    assert main(["gen-synthetic", *argv, "--entities", "12", "--columns", "40",
                 "--out-prefix", prefix]) == 0
    want = tmp_path / "want.tsv"
    write_triplets(str(want), generate()[0])
    assert Path(f"{prefix}.data.tsv").read_bytes() == want.read_bytes()


def test_categorical_window_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "txt")
    rc = main(["gen-synthetic", "--kind", "text-clusters", "--entities", "10",
               "--columns", "300", "--seed", "6", "--out-prefix", prefix])
    assert rc == 0
    cfg = tmp_path / "txt.cfg"
    cfg.write_text("family = categorical\nk = 3\nwindow_w = 2\n"
                   "iterations = 30\nestimator = full\nstep_size_grid = 0.5\n"
                   "seed = 4\n")
    model = str(tmp_path / "txt.model")
    rc = main(["train", "--config", str(cfg), "--data", f"{prefix}.data.tsv",
               "--out", model, "--log", str(tmp_path / "txt.log")])
    assert rc == 0
    bank, meta, labels = load_model(model)
    assert meta.family == "categorical" and meta.vocab_size == 10
    assert meta.sharing == "global"
    capsys.readouterr()
    rc = main(["query-similar", "--model", model, "--entity", labels[0], "--top", "2"])
    assert rc == 0


# every input fault of a subcommand that reads files: (argv with {placeholders},
# exit code, the path the error line names); {missing} does not exist,
# {latin1} is not UTF-8 and {nodir} lies in a directory that does not exist
_TRAIN = ["train", "--config", "{config}", "--data", "{data}", "--locations", "{locations}",
          "--out", "{out}"]
_EVALUATE = ["evaluate", "--model", "{model}", "--test", "{data}", "--protocol", "loo-mse",
             "--locations", "{locations}"]
_EXPORT = ["export-graph", "--model", "{model}", "--locations", "{locations}"]
# a value of each key that TrainConfig.validate rejects
_BAD_TRAIN_SETTINGS = {"estimator": "bogus", "zero_estimator": "nope", "regularizer": "xx",
                       "gamma": "5", "k": "0", "negative_samples": "0"}
# a fault of each setting checked when the config is parsed, and the config
# line the error names: each fails before the data file is read
_PARSE_TIME_FAULTS = {
    "sigma2_zero": ("family = gaussian\nsigma2 = 0\n", 2),
    "bernoulli_log_link": ("family = bernoulli\nlink = log\n", 2),
    "additive_poisson_identity_link": ("family = additive_poisson\nlink = identity\n", 2),
    "window_w_zero": ("family = bernoulli\nwindow_w = 0\n", 2),
    "knn_k_zero": ("family = gaussian\nknn_k = 0\n", 2),
    "negative_test_frac": ("family = gaussian\ntest_frac = -0.1\n", 2),
    "fractions_over_one": ("family = gaussian\ntrain_frac = 0.9\nvalid_frac = 0.2\n", 3),
    "negative_min_row_count": ("family = gaussian\nmin_row_count = -3\n", 2),
    "k_zero": ("family = gaussian\nk = 0\n", 2),
    "negative_seed": ("family = gaussian\nseed = -1\n", 2),
}
# configs whose fault glembed train finds in its arguments: a grid search
# with no validation part (a window context's default split is none), and a
# kNN context, which needs --locations
_ARGUMENT_FAULT_CFGS = {"grid_bernoulli": "family = bernoulli\n",
                        "grid_categorical": "family = categorical\n",
                        "grid_no_valid": "family = gaussian\nvalid_frac = 0\n",
                        "knn": "family = gaussian\n"}
_INPUT_FAULTS = {
    "split-data-missing": (["split", "--data", "{missing}", "--out-prefix", "{out}"], 3,
                           "{missing}"),
    "split-data-latin1": (["split", "--data", "{latin1}", "--out-prefix", "{out}"], 3,
                          "{latin1}"),
    "split-out-nodir": (["split", "--data", "{data}", "--out-prefix", "{nodir}"], 2, "{nodir}"),
    "train-config-missing": (_TRAIN[:2] + ["{missing}"] + _TRAIN[3:], 2, "{missing}"),
    "train-config-latin1": (_TRAIN[:2] + ["{latin1}"] + _TRAIN[3:], 2, "{latin1}"),
    "train-data-missing": (_TRAIN[:4] + ["{missing}"] + _TRAIN[5:], 3, "{missing}"),
    "train-data-latin1": (_TRAIN[:4] + ["{latin1}"] + _TRAIN[5:], 3, "{latin1}"),
    "train-locations-missing": (_TRAIN[:6] + ["{missing}"] + _TRAIN[7:], 3, "{missing}"),
    "train-locations-latin1": (_TRAIN[:6] + ["{latin1}"] + _TRAIN[7:], 3, "{latin1}"),
    # checked before the data are read, so before any training
    "train-out-nodir": (_TRAIN[:4] + ["{missing}"] + _TRAIN[5:8] + ["{nodir}"], 2, "{nodir}"),
    "train-log-nodir": (_TRAIN + ["--log", "{nodir}"], 2, "{nodir}"),
    "train-empty-train-part": (_TRAIN[:2] + ["{empty_train_cfg}"] + _TRAIN[3:], 2, None),
    "train-invalid-data-before-split": (_TRAIN[:2] + ["{poisson_cfg}"] + _TRAIN[3:], 3, None),
    # a categorical column holds one entry, so these contexts of its active term are empty
    "train-categorical-knn-context": (_TRAIN[:2] + ["{categorical_knn_cfg}"] + _TRAIN[3:], 2,
                                      "config line 2"),
    "train-categorical-basket-context": (_TRAIN[:2] + ["{categorical_basket_cfg}"] + _TRAIN[3:],
                                         2, "config line 2"),
    # the sparse estimator needs implicit-zero data of a non-categorical family
    "train-sparse-explicit-data": (_TRAIN[:2] + ["{sparse_explicit_cfg}"] + _TRAIN[3:], 2,
                                   "config line 2"),
    "train-sparse-categorical": (_TRAIN[:2] + ["{sparse_categorical_cfg}"] + _TRAIN[3:], 2,
                                 "config line 2"),
    # training settings out of range fail before the data are read
    **{f"train-bad-{key}": (_TRAIN[:2] + [f"{{bad_{key}_cfg}}"] + _TRAIN[3:], 2, "config line 2")
       for key in _BAD_TRAIN_SETTINGS},
    **{f"train-{name}": (_TRAIN[:2] + [f"{{{name}_cfg}}", "--data", "{missing}"] + _TRAIN[5:],
                         2, f"config line {line}")
       for name, (_, line) in _PARSE_TIME_FAULTS.items()},
    # split arguments are checked before the data are read
    "split-negative-min-row-count": (["split", "--data", "{missing}", "--out-prefix", "{out}",
                                      "--min-row-count", "-5"], 2, "min_row_count"),
    "split-negative-min-col-count": (["split", "--data", "{missing}", "--out-prefix", "{out}",
                                      "--min-col-count", "-1"], 2, "min_col_count"),
    "split-negative-test-frac": (["split", "--data", "{missing}", "--out-prefix", "{out}",
                                  "--test-frac", "-1"], 2, "test_frac"),
    # a seed below 0 is a setting fault, not numpy's error at the first draw
    "split-negative-seed": (["split", "--data", "{missing}", "--out-prefix", "{out}",
                             "--seed", "-1"], 2, "seed must be >= 0"),
    "evaluate-negative-fold-seed": (_EVALUATE[:6] + ["l25-mse"] + _EVALUATE[7:]
                                    + ["--fold-seed", "-1"], 2, "seed must be >= 0"),
    # (two clusters: the basket generator needs dim >= clusters, and dim is 2)
    **{f"gen-synthetic-{kind}-negative-seed": (["gen-synthetic", "--kind", kind, "--clusters", "2",
                                                "--seed", "-1", "--out-prefix", "{out}"], 2,
                                               "seed must be >= 0")
       for kind in ("gaussian-knn", "poisson-baskets", "text-clusters")},
    # argument faults are found before the data or test file is read, so a
    # file that does not exist is never opened (which would exit 3)
    **{f"train-{name}-before-the-data": (_TRAIN[:2] + [f"{{{name}_cfg}}", "--data", "{missing}"]
                                         + _TRAIN[5:], 2, "grid search needs a validation split")
       for name in ("grid_bernoulli", "grid_categorical", "grid_no_valid")},
    "train-knn-without-locations-before-the-data": (
        _TRAIN[:2] + ["{knn_cfg}", "--data", "{missing}", "--out", "{out}"], 2,
        "knn context needs --locations"),
    "evaluate-knn-without-locations-before-the-test": (
        _EVALUATE[:4] + ["{missing}"] + _EVALUATE[5:7], 2, "knn context needs --locations"),
    **{f"evaluate-l25-{option[2:]}-before-the-test": (
        _EVALUATE[:4] + ["{missing}", "--protocol", "l25-mse"] + _EVALUATE[7:] + [option, value],
        2, named) for option, value, named in (("--folds", "1", "fold count must be >= 2"),
                                               ("--fold-seed", "-1", "seed must be >= 0"))},
    "evaluate-model-missing": (_EVALUATE[:2] + ["{missing}"] + _EVALUATE[3:], 3, "{missing}"),
    "evaluate-model-latin1": (_EVALUATE[:2] + ["{latin1}"] + _EVALUATE[3:], 3, "{latin1}"),
    "evaluate-test-missing": (_EVALUATE[:4] + ["{missing}"] + _EVALUATE[5:], 3, "{missing}"),
    "evaluate-test-latin1": (_EVALUATE[:4] + ["{latin1}"] + _EVALUATE[5:], 3, "{latin1}"),
    "evaluate-locations-missing": (_EVALUATE[:-1] + ["{missing}"], 3, "{missing}"),
    "query-similar-model-missing": (["query-similar", "--model", "{missing}", "--entity", "0"],
                                    3, "{missing}"),
    "query-pairs-model-latin1": (["query-pairs", "--model", "{latin1}"], 3, "{latin1}"),
    "query-pairs-negative-count": (["query-pairs", "--model", "{model}", "--count", "-1"], 2,
                                   "count"),
    "rank-dimensions-model-missing": (["rank-dimensions", "--model", "{missing}", "--dim", "0"],
                                      3, "{missing}"),
    "rank-dimensions-negative-top": (["rank-dimensions", "--model", "{model}", "--dim", "0",
                                      "--top", "-1"], 2, "top"),
    "export-graph-model-missing": (_EXPORT[:2] + ["{missing}"] + _EXPORT[3:], 3, "{missing}"),
    "export-graph-locations-latin1": (_EXPORT[:-1] + ["{latin1}"], 3, "{latin1}"),
    "export-graph-out-nodir": (_EXPORT + ["--out", "{nodir}"], 2, "{nodir}"),
    "gen-synthetic-out-nodir": (["gen-synthetic", "--kind", "text-clusters",
                                 "--out-prefix", "{nodir}"], 2, "{nodir}"),
}


@pytest.fixture(scope="module")
def fault_paths(toy_run):
    root = toy_run["root"] / "faults"
    root.mkdir()
    latin1 = root / "latin1.tsv"
    latin1.write_bytes("row\tcol\tvalue\ncaf\xe9\t0\t1.5\n".encode("latin-1"))
    empty_train_cfg = root / "empty_train.cfg"
    empty_train_cfg.write_text(CFG_GAUSSIAN + "train_frac = 0\nvalid_frac = 0\ntest_frac = 1\n")
    # Gaussian data hold negative values; the train part alone is empty
    poisson_cfg = root / "poisson.cfg"
    poisson_cfg.write_text(empty_train_cfg.read_text().replace("gaussian", "poisson"))
    categorical_cfgs = {}
    for context in ("knn", "basket"):
        cfg = root / f"categorical_{context}.cfg"
        cfg.write_text(f"family = categorical\ncontext = {context}\n")
        categorical_cfgs[f"categorical_{context}_cfg"] = str(cfg)
    sparse_cfgs = {}
    for name, text in (("explicit", "family = poisson\nimplicit_zero = 0\n"),
                       ("categorical", "family = categorical\nestimator = sparse\n")):
        cfg = root / f"sparse_{name}.cfg"
        cfg.write_text(text)
        sparse_cfgs[f"sparse_{name}_cfg"] = str(cfg)
    bad_train_cfgs = {}
    for key, value in _BAD_TRAIN_SETTINGS.items():
        cfg = root / f"bad_{key}.cfg"
        cfg.write_text(f"family = poisson\n{key} = {value}\n")
        bad_train_cfgs[f"bad_{key}_cfg"] = str(cfg)
    parse_time_cfgs = {}
    for name, (text, _) in _PARSE_TIME_FAULTS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(text)
        parse_time_cfgs[f"{name}_cfg"] = str(cfg)
    argument_cfgs = {}
    for name, text in _ARGUMENT_FAULT_CFGS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(text)
        argument_cfgs[f"{name}_cfg"] = str(cfg)
    model = root / "fault.model"
    assert main(["train", "--config", toy_run["config"], "--data", toy_run["data"],
                 "--locations", toy_run["locations"], "--out", str(model)]) == 0
    return dict(data=toy_run["data"], locations=toy_run["locations"],
                config=toy_run["config"], model=str(model), out=str(root / "out"),
                missing=str(root / "missing.tsv"), latin1=str(latin1),
                nodir=str(root / "no-such-dir" / "out"),
                empty_train_cfg=str(empty_train_cfg), poisson_cfg=str(poisson_cfg),
                **categorical_cfgs, **sparse_cfgs, **bad_train_cfgs, **parse_time_cfgs,
                **argument_cfgs)


@pytest.mark.parametrize("case", sorted(_INPUT_FAULTS))
def test_input_fault_is_one_error_line_and_its_exit_code(fault_paths, capsys, case):
    argv, code, named = _INPUT_FAULTS[case]
    capsys.readouterr()
    rc = main([a.format(**fault_paths) for a in argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert rc == code, captured.err
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
    if named is not None:
        assert named.format(**fault_paths) in lines[0]
    assert "model written" not in captured.out


# the model header field that records each config key of a header setting
_HEADER_FIELD = {"sigma2": "sigma2", "link": "link", "knn_k": "context_param",
                 "window_w": "context_param", "k": "dim", "seed": "seed"}
_HEADER_SETTING_FAULTS = sorted(
    name for name, (text, line) in _PARSE_TIME_FAULTS.items()
    if text.splitlines()[line - 1].split(" = ")[0] in _HEADER_FIELD)


def test_every_header_setting_has_a_parse_time_fault():
    keys = {_PARSE_TIME_FAULTS[name][0].splitlines()[_PARSE_TIME_FAULTS[name][1] - 1]
            .split(" = ")[0] for name in _HEADER_SETTING_FAULTS}
    assert keys == set(_HEADER_FIELD)


@pytest.mark.parametrize("name", _HEADER_SETTING_FAULTS)
def test_a_config_fault_of_a_header_setting_is_a_header_fault(tmp_path, name):
    # the header of the config without the faulty line, with the faulty value
    # in the field that records it: store_model refuses it and load_model
    # names its line
    text, line = _PARSE_TIME_FAULTS[name]
    lines = text.splitlines()
    key, value = lines[line - 1].split(" = ")
    cfg = parse_run_config("\n".join(lines[:line - 1] + lines[line:]))
    bank = EmbeddingBank.init_random(3, cfg.k, seed=0, log_space=cfg.family_spec().needs_log_space)
    meta = cfg.model_meta(bank)
    field = _HEADER_FIELD[key]
    with pytest.raises(DataError, match=field):
        store_model(str(tmp_path / "refused.model"), bank,
                    replace(meta, **{field: type(getattr(meta, field))(value)}))
    good = tmp_path / "good.model"
    store_model(str(good), bank, meta)
    header = good.read_text().splitlines()
    at = header.index(f"{field}={meta.header()[field]}")
    header[at] = f"{field}={value}"
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(header) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{bad}:{at + 1}: bad header line: ")):
        load_model(str(bad))
