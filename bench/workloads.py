"""The benchmark's workloads, each an application archetype of the paper.

Each workload generates its input files from a seed, then runs the steps of
``glembed train`` followed by ``glembed evaluate`` through the library:
ingest, split, context build, ``train`` with a single step size, model store,
and held-out scoring.  glembed's modules are always reached through module
attributes at call time, so the traced run can wrap them (see ``tracer.py``).

Each workload scores a held-out loss: LOO MSE, or the negative mean
log-likelihood per term.  The model must beat the workload's anchor, a
reference predictor, on that loss.
"""

from __future__ import annotations

import importlib
import io
from types import SimpleNamespace

import numpy as np

# importlib, not ``from glembed import train``: the package re-exports the
# function ``train`` under the name of its module
M = SimpleNamespace(**{
    name: importlib.import_module(f"glembed.{name}")
    for name in ("cli", "contexts", "core", "dataio", "evaluate", "synth", "train")})


class Workload:
    """One archetype: its shapes, its run configuration and its stages.

    ``score`` returns the held-out losses of its protocols; the first is the
    one the benchmark reports and checks against ``anchor_loss``.
    """

    name = family = context = split = ""
    # a stage's sample is the mean of this many back-to-back repetitions, so
    # that short stages average over the machine's fast and slow phases
    setup_reps = 1
    eval_reps = 1
    full: dict = {}
    small: dict = {}

    def __init__(self, small: bool = False):
        self.shape = dict(self.small if small else self.full)

    def run_config(self):
        """The workload's fixed configuration; only its data vary with the
        seed.  Its own ``seed`` is the default, 0, as in a config file that
        sets none."""
        s = self.shape
        return M.dataio.RunConfig(
            family=self.family, k=s["k"], context=self.context,
            knn_k=s.get("knn_k", 10), window_w=s.get("window_w", 2),
            reg_weight=s["reg_weight"], estimator=s["estimator"],
            minibatch_size=s.get("minibatch_size", 0),
            iterations=s["iterations"], negative_samples=s.get("negative_samples", 10),
            step_size_grid=(s["step_size"],), split=self.split)

    def model_meta(self, cfg, bank):
        """The header ``glembed train`` writes for this configuration: a copy
        of the one ``cli.run_train`` builds, which ``smoke.py`` checks by
        comparing the two stored model files byte for byte."""
        return M.dataio.ModelMeta(
            family=cfg.family, link=cfg.link,
            sharing="global" if cfg.family in ("bernoulli", "categorical") else "per_row",
            log_space=bank.log_space, dim=cfg.k, n_entities=bank.n_rows,
            sigma2=cfg.sigma2, vocab_size=0, seed=cfg.seed, context=cfg.context,
            context_param=cfg.knn_k if cfg.context == "knn"
            else (cfg.window_w if cfg.context == "window" else 0),
            config_digest=cfg.digest())

    def write_test_split(self, st, files):
        """The held-out file ``glembed evaluate`` reads (``glembed split`` output)."""
        M.dataio.write_triplets(files["test"], st["test"])

    def fit(self, st, cfg):
        spec = cfg.family_spec(0)
        return M.train.train(st["train"], st["ctx"], spec, cfg.train_config(cfg.step_size_grid[0]))


class GaussKnnMinibatch(Workload):
    name = "gauss-knn-minibatch"
    family, context, split = "gaussian", "knn", "columns"
    full = dict(entities=300, columns=3000, gen_dim=4, knn_k=10, k=8, reg_weight=10.0,
                estimator="minibatch", minibatch_size=100, iterations=300, step_size=0.1)
    small = dict(entities=30, columns=200, gen_dim=2, knn_k=5, k=4, reg_weight=10.0,
                 estimator="minibatch", minibatch_size=50, iterations=60, step_size=0.1)

    def generate(self, files, seed):
        s = self.shape
        data, truth = M.synth.gen_gaussian_knn(
            n_entities=s["entities"], n_cols=s["columns"], dim=s["gen_dim"],
            k=s["knn_k"], seed=seed)
        M.dataio.write_triplets(files["data"], data)
        M.dataio.write_locations(files["locations"], truth.layout.positions)

    def setup(self, files, cfg):
        data = M.dataio.ingest(files["data"])
        parts = M.evaluate.make_split(data, M.evaluate.SplitSpec(
            cfg.split, cfg.train_frac, cfg.valid_frac, cfg.test_frac, cfg.seed))
        positions = M.dataio.read_locations(files["locations"], data.row_labels)
        ctx = M.contexts.build_knn_context(
            M.contexts.SpatialLayout(positions, cfg.knn_k), parts.train)
        return dict(data=data, train=parts.train, test=parts.test, ctx=ctx)

    def score(self, files):
        loo = M.cli.run_evaluate(files["model"], files["test"], "loo-mse",
                                 files["locations"], out=io.StringIO())
        l25 = M.cli.run_evaluate(files["model"], files["test"], "l25-mse",
                                 files["locations"], out=io.StringIO())
        return [loo.estimate, l25.estimate]

    def anchor_loss(self, st, files, cfg):
        return M.evaluate.constant_predictor_mse(st["test"]).estimate


class BernoulliWindowSparse(Workload):
    name = "bernoulli-window-sparse"
    family, context, split = "bernoulli", "window", "none"
    setup_reps, eval_reps = 10, 6
    # the held-out corpus is kept short: scoring enumerates all vocab x length
    # cells, and its peak memory must stay below the training peak
    full = dict(vocab=2000, length=20000, score_length=1000, window_w=2, k=8,
                reg_weight=1.0, estimator="sparse", negative_samples=10,
                iterations=20, step_size=0.5)
    small = dict(vocab=60, length=1500, score_length=200, window_w=2, k=4,
                 reg_weight=1.0, estimator="sparse", negative_samples=5,
                 iterations=10, step_size=0.5)

    def generate(self, files, seed):
        s = self.shape
        seq = np.random.SeedSequence(seed).generate_state(2)
        data, _ = M.synth.gen_cluster_corpus(
            vocab_size=s["vocab"], length=s["length"], seed=int(seq[0]))
        held, _ = M.synth.gen_cluster_corpus(
            vocab_size=s["vocab"], length=s["score_length"], seed=int(seq[1]))
        # scoring maps words onto the model's vocabulary, which holds only
        # the words of the training corpus
        keep = np.isin(held.rows, data.rows)
        held = M.core.DataMatrix(s["vocab"], int(keep.sum()), held.rows[keep],
                                 np.arange(int(keep.sum())), held.vals[keep],
                                 implicit_zero=True)
        M.dataio.write_triplets(files["data"], data)
        M.dataio.write_triplets(files["test"], held)

    def setup(self, files, cfg):
        data = M.dataio.ingest(files["data"], implicit_zero=True)
        ctx = M.contexts.build_window_context(
            data.n_cols, M.contexts.WindowSpec(cfg.window_w), data)
        return dict(data=data, train=data, test=None, ctx=ctx)

    def write_test_split(self, st, files):
        """The held-out corpus is generated, not split off."""

    def _mean_loglik(self, files, bank, labels, spec):
        held = M.dataio.ingest(files["test"], implicit_zero=True, row_vocab=labels)
        ctx = M.contexts.build_window_context(
            held.n_cols, M.contexts.WindowSpec(self.shape["window_w"]), held)
        return M.train.objective(held, ctx, bank, spec, 0.0, "none") / held.n_terms

    def score(self, files):
        bank, meta, labels = M.dataio.load_model(files["model"])
        return [-self._mean_loglik(files, bank, labels, meta.family_spec())]

    def anchor_loss(self, st, files, cfg):
        """The untrained bank: the one ``train`` starts from."""
        tc = cfg.train_config(cfg.step_size_grid[0])
        spec = cfg.family_spec(0)
        bank = M.core.EmbeddingBank.init_random(
            st["data"].n_rows, tc.dim, seed=tc.seed, log_space=spec.needs_log_space,
            tied=tc.tied, scale=tc.init_scale)
        return -self._mean_loglik(files, bank, st["data"].row_labels, spec)


WORKLOADS = {w.name: w for w in (GaussKnnMinibatch, BernoulliWindowSparse)}
