import re
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
)
from glembed.errors import DataError
from glembed.evaluate import leave_one_out_mse

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


def test_grid_search_builds_the_validation_context_once(toy_run, monkeypatch):
    # one kNN context for the training split and one for validation, not one
    # per grid step; each score equals one from a context built afresh
    root = toy_run["root"]
    cfg = root / "grid4.cfg"
    cfg.write_text(CFG_GAUSSIAN.replace("step_size_grid = 0.1",
                                        "step_size_grid = 0.02, 0.05, 0.1, 0.2")
                   .replace("iterations = 60", "iterations = 20"))
    build, score_of = cli.build_knn_context, cli._validation_score
    builds, scores = [], []

    def counted_build(layout, data):
        builds.append(data)
        return build(layout, data)

    def checked_score(cfg, spec, bank, valid, ctx):
        score = score_of(cfg, spec, bank, valid, ctx)
        fresh = build(SpatialLayout(read_locations(toy_run["locations"], valid.row_labels),
                                    cfg.knn_k), valid)
        assert score == -leave_one_out_mse(valid, fresh, bank, spec).estimate
        scores.append((score, bank.embeddings.tobytes(), bank.context_vectors.tobytes()))
        return score
    monkeypatch.setattr(cli, "build_knn_context", counted_build)
    monkeypatch.setattr(cli, "_validation_score", checked_score)
    rc = main(["train", "--config", str(cfg), "--data", toy_run["data"],
               "--locations", toy_run["locations"], "--out", str(root / "g4.model")])
    assert rc == 0
    assert len(builds) == 2 and len(scores) == 4
    bank, _, _ = load_model(str(root / "g4.model"))
    best = max(scores, key=lambda s: s[0])
    assert (bank.embeddings.tobytes(), bank.context_vectors.tobytes()) == best[1:]


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
                "negative_seed": ("seed", 0, -1)}
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


def test_query_similar_top_zero_is_empty_success(toy_run, capsys):
    model = str(toy_run["root"] / "toy.model")
    rc = main(["query-similar", "--model", model, "--entity", "0", "--top", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["rank\tentity\tsimilarity"]


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
    model = root / "fault.model"
    assert main(["train", "--config", toy_run["config"], "--data", toy_run["data"],
                 "--locations", toy_run["locations"], "--out", str(model)]) == 0
    return dict(data=toy_run["data"], locations=toy_run["locations"],
                config=toy_run["config"], model=str(model), out=str(root / "out"),
                missing=str(root / "missing.tsv"), latin1=str(latin1),
                nodir=str(root / "no-such-dir" / "out"),
                empty_train_cfg=str(empty_train_cfg), poisson_cfg=str(poisson_cfg),
                **categorical_cfgs, **sparse_cfgs, **bad_train_cfgs, **parse_time_cfgs)


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
    bank = EmbeddingBank.init_random(3, cfg.k, seed=0)
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
