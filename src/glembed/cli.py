"""Command-line surface: split, train, evaluate, query, and synthesize.

``main`` returns 0 on success, and when a command ends in a package error
it prints the error and returns that error class's ``exit_code`` (see
``errors``).  argparse itself exits 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .analyze import dimension_ranking, interaction_pairs, neighbor_weight_graph, top_similar
from .contexts import (SpatialLayout, WindowSpec, build_basket_context, build_knn_context,
                       build_window_context)
from .core import DataMatrix
from .dataio import (FAMILY_DEFAULTS, RunConfig, atomic_write, check_output_path, ingest,
                     load_model, parse_run_config, read_locations, read_text, store_model,
                     write_locations, write_triplets)
from .errors import CompatibilityError, ConfigError, DataError, GlembedError
from .evaluate import (PROTOCOLS, SplitSpec, check_folds, check_protocol,
                       leave_fraction_out_mse, leave_one_out_mse, make_split,
                       normalized_predictive_ll)
from .families import Family, validate_data
from .synth import gen_cluster_corpus, gen_gaussian_knn, gen_poisson_baskets
from .train import log_to_tsv, objective, train


def _check_locations(kind: str, locations_path: str | None) -> None:
    """A kNN context needs a locations file: checked before any data are read."""
    if kind == "knn" and not locations_path:
        raise ConfigError("knn context needs --locations")


def _build_context(kind: str, data: DataMatrix, param: int, locations_path: str | None):
    if kind == "knn":
        positions = read_locations(locations_path, data.row_labels)
        return build_knn_context(SpatialLayout(positions, param), data)
    if kind == "basket":
        return build_basket_context(data)
    return build_window_context(data.n_cols, WindowSpec(param), data)


def _validation_score(cfg: RunConfig, spec, bank, valid: DataMatrix, ctx) -> float:
    """Higher-is-better score on the validation split in the train split's
    context map ``ctx``: a held-out protocol of the family, else the objective per term."""
    protocols = PROTOCOLS.get(spec.family, ())
    if "loo-mse" in protocols:
        return -leave_one_out_mse(valid, ctx, bank, spec).estimate
    if "npll" in protocols:
        return normalized_predictive_ll(valid, ctx, bank, spec).estimate
    n_terms = valid.n_cols if cfg.family == "categorical" else valid.n_terms
    return objective(valid, ctx, bank, spec, 0.0, "none") / max(n_terms, 1)


def run_train(cfg: RunConfig, data_path: str, locations_path: str | None,
              model_out: str, log_out: str | None):
    """Check the arguments, then ingest, split, grid-search the step size on
    validation, train and persist."""
    for path in (model_out, log_out):
        if path:
            check_output_path(path)
    _check_locations(cfg.context, locations_path)
    grid = cfg.step_size_grid
    # a split with a nonzero validation fraction makes a nonempty validation
    # part, or make_split raises
    if len(grid) > 1 and (cfg.split == "none" or cfg.valid_frac == 0):
        raise ConfigError("step-size grid search needs a validation split; "
                          "set step_size_grid to a single value or enable a split")
    data = ingest(data_path, implicit_zero=bool(cfg.implicit_zero), lag=cfg.lag,
                  rating_shift=cfg.rating_shift, min_row_count=cfg.min_row_count,
                  min_col_count=cfg.min_col_count)
    vocab = data.n_rows if cfg.family == "categorical" else 0
    spec = cfg.family_spec(vocab)
    validate_data(spec, data)
    if cfg.split == "none":
        train_m, valid_m = data, None
    else:
        parts = make_split(data, cfg.split_spec())
        train_m, valid_m = parts.train, parts.valid
    if train_m.nnz == 0:
        raise ConfigError("train split is empty")
    ctx = _build_context(cfg.context, train_m, cfg.context_param, locations_path)

    best = None
    for step in grid:
        bank, log = train(train_m, ctx, spec, cfg.train_config(step))
        if len(grid) == 1:
            best = (step, bank, log, float("nan"))
            break
        score = _validation_score(cfg, spec, bank, valid_m, ctx)
        print(f"step_size {step:g}: validation score {score:.6g}", file=sys.stderr)
        if best is None or score > best[3]:
            best = (step, bank, log, score)
    step, bank, log, _ = best

    meta = cfg.model_meta(bank, vocab)
    store_model(model_out, bank, meta, data.row_labels)
    if log_out:
        atomic_write(log_out, log_to_tsv(log))
    return bank, meta, log


def run_evaluate(model_path: str, test_path: str, protocol: str,
                 locations_path: str | None = None, folds: int = 4,
                 fold_seed: int = 0, out=None):
    """Score a stored model on held-out data and print the report; the
    arguments are checked against the model before the test data are read."""
    out = out or sys.stdout
    bank, meta, labels = load_model(model_path)
    check_protocol(Family(meta.family), protocol, CompatibilityError)
    _check_locations(meta.context, locations_path)
    if protocol == "l25-mse":
        check_folds(folds, fold_seed)
    test = ingest(test_path, implicit_zero=bool(FAMILY_DEFAULTS[meta.family]["implicit_zero"]),
                  row_vocab=labels)
    if test.nnz == 0:
        raise ConfigError("test split is empty")
    spec = meta.family_spec()
    validate_data(spec, test)
    ctx = _build_context(meta.context, test, meta.context_param, locations_path)
    if protocol == "loo-mse":
        report = leave_one_out_mse(test, ctx, bank, spec)
    elif protocol == "l25-mse":
        report = leave_fraction_out_mse(test, ctx, bank, spec, folds=folds, seed=fold_seed)
    else:
        report = normalized_predictive_ll(test, ctx, bank, spec)
    out.write(report.to_tsv())
    return report


def _label_index(labels: list[str], key: str) -> int:
    try:
        return labels.index(key)
    except ValueError:
        raise DataError(f"unknown entity id {key!r}") from None


def cmd_split(args) -> int:
    spec = SplitSpec(args.variant, args.train_frac, args.valid_frac,
                     args.test_frac, args.seed)
    data = ingest(args.data, implicit_zero=args.implicit_zero, lag=args.lag,
                  rating_shift=args.rating_shift,
                  min_row_count=args.min_row_count, min_col_count=args.min_col_count)
    parts = make_split(data, spec)
    for name, part in (("train", parts.train), ("valid", parts.valid),
                       ("test", parts.test)):
        write_triplets(f"{args.out_prefix}.{name}.tsv", part)
    print(f"train {parts.train.nnz} entries / valid {parts.valid.nnz} / "
          f"test {parts.test.nnz}; dropped {parts.dropped_test_columns} "
          f"test columns below the two-item minimum")
    return 0


def cmd_train(args) -> int:
    cfg = parse_run_config(read_text(args.config, ConfigError))
    run_train(cfg, args.data, args.locations, args.out, args.log)
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    run_evaluate(args.model, args.test, args.protocol, args.locations,
                 folds=args.folds, fold_seed=args.fold_seed)
    return 0


def cmd_query_similar(args) -> int:
    bank, meta, labels = load_model(args.model)
    entity = _label_index(labels, args.entity)
    ranked = top_similar(bank, entity, args.top, args.space)
    print("rank\tentity\tsimilarity")
    for rank, (i, sim) in enumerate(ranked, start=1):
        print(f"{rank}\t{labels[i]}\t{sim:.6g}")
    return 0


def cmd_query_pairs(args) -> int:
    bank, meta, labels = load_model(args.model)
    pairs = interaction_pairs(bank, args.direction, args.count)
    print("# score = embedding[a] . context_vector[b]; a high score means "
          "having b in the context raises a's probability, a low score lowers it")
    print("a\tb\tscore")
    for p in pairs:
        print(f"{labels[p.a]}\t{labels[p.b]}\t{p.score:.6g}")
    return 0


def cmd_rank_dimensions(args) -> int:
    bank, meta, labels = load_model(args.model)
    ranked = dimension_ranking(bank, args.dim, args.top, mode=args.mode,
                               space=args.space)
    print("rank\tentity\tcomponent")
    for rank, (i, v) in enumerate(ranked, start=1):
        print(f"{rank}\t{labels[i]}\t{v:.6g}")
    return 0


def cmd_export_graph(args) -> int:
    bank, meta, labels = load_model(args.model)
    positions = read_locations(args.locations, labels)
    k = args.k or meta.context_param or 1
    edges = neighbor_weight_graph(bank, SpatialLayout(positions, k))
    lines = ["entity\tneighbor\tweight"]
    for n, m, w in edges:
        lines.append(f"{labels[n]}\t{labels[m]}\t{w:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _given(args, *names) -> dict:
    """The options ``names`` given on the command line, by name; the generator
    keeps its own default for the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_gen_synthetic(args) -> int:
    positions = None  # a kNN layout's, written after the data
    if args.kind == "gaussian-knn":
        data, truth = gen_gaussian_knn(
            n_entities=args.entities, n_cols=args.columns, noise_sd=args.noise_sd,
            k=args.knn_k, seed=args.seed, **_given(args, "dim"))
        positions = truth.layout.positions
        summary = f"{data.n_rows} entities x {data.n_cols} columns, noise sd {truth.noise_sd}"
    elif args.kind == "poisson-baskets":
        data, truth = gen_poisson_baskets(
            n_items=args.entities, n_baskets=args.columns, thin=args.thin, seed=args.seed,
            **_given(args, "dim", "n_clusters"))
        summary = f"{data.n_rows} items x {data.n_cols} baskets, {data.nnz} purchases"
    else:
        data, truth = gen_cluster_corpus(
            vocab_size=args.entities, length=args.columns, seed=args.seed,
            **_given(args, "n_clusters"))
        summary = f"vocab {data.n_rows}, {data.n_cols} positions"
    write_triplets(f"{args.out_prefix}.data.tsv", data)
    if positions is not None:
        write_locations(f"{args.out_prefix}.locations.tsv", positions)
    print(f"{args.kind}: {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no parser takes a prefix of a long option for it: --out is not --out-prefix
    parser = partial(argparse.ArgumentParser, allow_abbrev=False)
    p = parser(prog="glembed",
               description="Train, evaluate, and query context-conditional embedding models.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=parser)

    sp = sub.add_parser("split", help="partition a triplet file into train/valid/test")
    sp.add_argument("--data", required=True)
    sp.add_argument("--variant", choices=("columns", "ratings"), default="columns")
    sp.add_argument("--train-frac", type=float, default=0.9, dest="train_frac")
    sp.add_argument("--valid-frac", type=float, default=0.05, dest="valid_frac")
    sp.add_argument("--test-frac", type=float, default=0.05, dest="test_frac")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--implicit-zero", action="store_true", dest="implicit_zero")
    sp.add_argument("--lag", action="store_true")
    sp.add_argument("--rating-shift", action="store_true", dest="rating_shift")
    sp.add_argument("--min-row-count", type=int, default=0, dest="min_row_count")
    sp.add_argument("--min-col-count", type=int, default=0, dest="min_col_count")
    sp.add_argument("--out-prefix", required=True, dest="out_prefix")
    sp.set_defaults(func=cmd_split)

    tp = sub.add_parser("train", help="fit a model per a key=value config file")
    tp.add_argument("--config", required=True)
    tp.add_argument("--data", required=True)
    tp.add_argument("--locations", default=None)
    tp.add_argument("--out", required=True)
    tp.add_argument("--log", default=None)
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("evaluate", help="score a stored model on held-out data")
    ep.add_argument("--model", required=True)
    ep.add_argument("--test", required=True)
    ep.add_argument("--protocol", required=True,
                    choices=list(dict.fromkeys(p for ps in PROTOCOLS.values() for p in ps)))
    ep.add_argument("--locations", default=None)
    ep.add_argument("--folds", type=int, default=4)
    ep.add_argument("--fold-seed", type=int, default=0, dest="fold_seed")
    ep.set_defaults(func=cmd_evaluate)

    qs = sub.add_parser("query-similar", help="nearest entities by cosine similarity")
    qs.add_argument("--model", required=True)
    qs.add_argument("--entity", required=True)
    qs.add_argument("--top", type=int, default=3)
    qs.add_argument("--space", choices=("embedding", "context"), default="embedding")
    qs.set_defaults(func=cmd_query_similar)

    qp = sub.add_parser("query-pairs", help="extreme embedding-context inner products")
    qp.add_argument("--model", required=True)
    qp.add_argument("--direction", choices=("highest", "lowest"), default="highest")
    qp.add_argument("--count", type=int, default=10)
    qp.set_defaults(func=cmd_query_pairs)

    rd = sub.add_parser("rank-dimensions", help="entities ranked along one latent dimension")
    rd.add_argument("--model", required=True)
    rd.add_argument("--dim", type=int, required=True)
    rd.add_argument("--top", type=int, default=10)
    rd.add_argument("--mode", choices=("signed", "abs"), default="signed")
    rd.add_argument("--space", choices=("context", "embedding"), default="context")
    rd.set_defaults(func=cmd_rank_dimensions)

    eg = sub.add_parser("export-graph", help="neighbor edge list with interaction weights")
    eg.add_argument("--model", required=True)
    eg.add_argument("--locations", required=True)
    eg.add_argument("--k", type=int, default=0)
    eg.add_argument("--out", default=None)
    eg.set_defaults(func=cmd_export_graph)

    gs = sub.add_parser("gen-synthetic", help="planted-model data for recovery tests")
    gs.add_argument("--kind", required=True,
                    choices=("gaussian-knn", "poisson-baskets", "text-clusters"))
    gs.add_argument("--entities", type=int, default=30)
    gs.add_argument("--columns", type=int, default=500)
    gs.add_argument("--dim", type=int, help="default: 2 for gaussian-knn, 8 for poisson-baskets")
    gs.add_argument("--noise-sd", type=float, default=0.1, dest="noise_sd")
    gs.add_argument("--knn-k", type=int, default=5, dest="knn_k")
    gs.add_argument("--clusters", type=int, dest="n_clusters",
                    help="default: 5 for poisson-baskets, 2 for text-clusters")
    gs.add_argument("--thin", type=float, default=0.0)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out-prefix", required=True, dest="out_prefix")
    gs.set_defaults(func=cmd_gen_synthetic)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GlembedError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
