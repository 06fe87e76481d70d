"""Workload definitions: inputs, the CLI commands run on them, and why each
workload is in the benchmark.

Every workload is closed-loop: one client runs the commands one after
another, each command waiting for the previous one. A pass runs
``commands`` in order; then the ``REPEATED`` commands (train and score) run
again until the run's time is used up, at least ``MIN_REPEATS`` times in
all, and the scoring commands until they have ``SCORE_MIN_SAMPLES`` samples
or ``SCORE_MIN_SECONDS`` of them. Inputs live in ``inputs/`` and commands
run in a per-pass directory, so paths to inputs start with ``../inputs/``.

Which per-layer metric should move which end-to-end metric, and where:

    layer metric                  moves                 shows on       flat on
    topics.recover_*, minimize_*  total_s (cv), ops_ok  walkthrough    fit_large (small
                                                                       share), ingest_1m
    saw.update_theta              train_s               fit_large      ingest_1m
    saw.update_theta              total_s (cv)          walkthrough
    anchors.*, cooccur.*          train_s               fit_large      walkthrough (d=60)
    survival.fit_elastic_net_cox  train_s               ingest_1m      saw fits (narrow Z)
    survival.predict_median       score_s               ingest_1m
    evaluation.c_index            score_s, peak_rss_mb  ingest_1m
    corpus.*                      total_s (ingest)      ingest_1m
    corpus.*                      setup_s               fit_large
    cli.import_s                  score_s               walkthrough    ingest_1m
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_REPEATS = 2
SCORE_MIN_SAMPLES = 4
SCORE_MIN_SECONDS = 10.0
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
REPEATED = ("train", "predict", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    commands: tuple[tuple[str, ...], ...]
    truth: str | None    # planted ground truth, when the inputs have one
    min_c_index: float   # the planted signal must be found at least this well


# The README walkthrough keeps the README's seed for its corpus and for cv: with
# a corpus per workload seed, total time spread by a third across seeds (each
# fit's iteration count changes); with cv folds per workload seed, still by a
# fifth. The workload seed drives train (its anchor search).
README_SEED = "7"
WALKTHROUGH_SYNTH = ("--d", "60", "--k", "5", "--n", "1000", "--doc-length", "300",
                     "--beta", "3,-3,0,3,-3", "--seed", README_SEED)
FIT_LARGE = dict(d=400, k=10, n=4000, doc_length=300, train_fraction=0.75,
                 beta=(3.0, -3.0, 0.0, 3.0, -3.0, 0.0, 3.0, -3.0, 0.0, 0.0))
# Planted corpora of this size converge in 9 to 12 outer iterations; capping
# at 8 makes train time measure the cost per iteration, not the seed's data.
FIT_LARGE_OUTER_ITERS = "8"
INGEST_1M = dict(n_rows=1_000_000, n_patients=10_000, n_numeric=60, n_categorical=60,
                 n_values=5, n_tilted=20, censor_fraction=0.2)


def _score(model_corpus: str, method: str) -> tuple[tuple[str, ...], ...]:
    return (
        ("predict", "--model", "model.json", "--corpus", model_corpus, "--out", "preds.csv"),
        ("evaluate", "--predictions", "preds.csv", "--corpus", model_corpus,
         "--method", method, "--out", "metrics.csv"),
    )


def workload(name: str, seed: int) -> Workload:
    s = str(seed)
    if name == "walkthrough":
        corpus = "../inputs/corpus.json"
        return Workload(
            name=name,
            why=("The README walkthrough on the README corpus: the topic solver dominates cv "
                 "(k=8 cells fail today); import time dominates the short commands."),
            method="saw",
            commands=(("train", "--corpus", corpus, "--method", "saw", "--k", "5", "--lam", "0.1",
                       "--alpha", "0.5", "--seed", s, "--out", "model.json"),
                      *_score(corpus, "saw"),
                      ("report", "--model", "model.json", "--out", "report.txt"),
                      ("cv", "--corpus", corpus, "--ks", "2,5,8", "--lams", "0.1,1",
                       "--alphas", "0.5", "--folds", "3", "--seed", README_SEED,
                       "--out-dir", "cv")),
            truth="../inputs/truth.json", min_c_index=0.6,
        )
    if name == "fit_large":
        test = "../inputs/test.json"
        return Workload(
            name=name,
            why=("d=400 makes co-occurrence (d^2), anchor projections and the theta "
                 "half-step carry a fit of 8 outer iterations; held-out c-index checks quality."),
            method="saw",
            commands=(("train", "--corpus", "../inputs/train.json", "--method", "saw",
                       "--k", str(FIT_LARGE["k"]), "--lam", "0.1", "--alpha", "0.5",
                       "--max-outer-iters", FIT_LARGE_OUTER_ITERS, "--seed", s,
                       "--out", "model.json"),
                      *_score(test, "saw")),
            truth="../inputs/truth.json", min_c_index=0.6,
        )
    if name == "ingest_1m":
        return Workload(
            name=name,
            why=("1M event rows make the corpus layer dominate; encox fits a wide Z once "
                 "and scores 10k patients; no topic work, so topic changes must not move it."),
            method="encox",
            commands=(("ingest", "--events", "../inputs/events.csv",
                       "--labels", "../inputs/labels.csv", "--out", "corpus.json"),
                      ("train", "--corpus", "corpus.json", "--method", "encox",
                       "--lam", "0.1", "--alpha", "0.5", "--seed", s, "--out", "model.json"),
                      *_score("corpus.json", "encox")),
            truth=None, min_c_index=0.65,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("walkthrough", "fit_large", "ingest_1m")
