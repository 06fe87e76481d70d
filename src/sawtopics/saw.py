"""Joint topic-survival fitting by alternating minimization.

The objective is block convex: the KL representation cost of the topic side
plus the elastic-net regularized Cox partial likelihood on the per-document
topic proportions. Anchors are found once up front; the alternation then
switches between an elastic-net Cox fit (warm-started, so it can only lower
the objective) and a monotone pass of the simplex KL kernel over all free
theta rows, which the Cox term couples together.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, default_candidates, stable_anchors
from .cooccur import CooccurrenceStats, build_cooccurrence
from .corpus import (Corpus, SurvivalLabels, Vocabulary, document_frequencies,
                     normalize_columns, vocabulary_hash)
from .seeding import derive_seed
from .survival import (CoxModel, RiskSets, breslow_baseline, elastic_net_penalty,
                       fit_elastic_net_cox, predict_median)
from .topics import (TopicModel, doc_topic_features, kl_residuals, minimize_simplex_kl,
                     recover_topics_unsupervised, recover_word_topic_matrix)

log = logging.getLogger(__name__)

OBJECTIVE_SLACK = 1e-9  # relative tolerance for "non-increasing" checks


@dataclass(frozen=True)
class SawConfig:
    k: int = 5
    lam: float = 0.1
    alpha: float = 0.5
    outer_tol: float = 1e-6
    max_outer_iters: int = 50
    theta_step: float = 1.0
    theta_iters: int = 100
    recover_tol: float = 1e-10
    recover_iters: int = 4000  # multiplicative updates crawl near simplex faces
    beta_tol: float = 1e-9
    beta_iters: int = 10000
    anchor_runs: int = 10
    projection_dim: int | None = None  # None: min(d, 1000)
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        for name in ("outer_tol", "recover_tol", "beta_tol", "theta_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_outer_iters < 0 or self.anchor_runs < 1:
            raise ValueError("max_outer_iters must be >= 0 and anchor_runs >= 1")


@dataclass(frozen=True)
class FitTrace:
    """Joint objective after each half-step (beta or theta), starting from
    the initialization value."""

    objective_values: tuple[float, ...]
    converged: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class SawModel:
    topic_model: TopicModel
    cox: CoxModel
    config: SawConfig
    trace: FitTrace
    vocab: Vocabulary | None
    vocab_hash: str
    method: str = "saw"

    def __post_init__(self):
        if self.topic_model.theta.shape[1] != self.cox.beta.size:
            raise ValueError("topic model and Cox coefficients disagree on k")


@dataclass(frozen=True, eq=False)
class Predictions:
    patient_ids: tuple[str, ...]
    risk: np.ndarray
    median: np.ndarray
    saturated: np.ndarray


def _check_feasible(theta: np.ndarray, anchors: AnchorSet) -> None:
    sums = theta.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6) or np.any(theta < -1e-9):
        raise ValueError("theta rows must lie on the simplex")
    for g, a in enumerate(anchors.indices):
        expect = np.zeros(theta.shape[1])
        expect[g] = 1.0
        if not np.array_equal(theta[a], expect):
            raise ValueError(f"anchor row {a} is not the indicator of topic {g}")


def joint_objective(
    theta: np.ndarray,
    beta: np.ndarray,
    stats: CooccurrenceStats,
    Xbar,
    labels: SurvivalLabels,
    anchors: AnchorSet,
    lam: float,
    alpha: float,
    risk_sets: RiskSets | None = None,
) -> float:
    """KL representation cost over non-anchor words + Cox partial
    likelihood on topic features + elastic-net penalty."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _check_feasible(theta, anchors)
    rs = risk_sets if risk_sets is not None else RiskSets(labels)
    eta = doc_topic_features(theta, Xbar) @ beta
    kl = float(kl_residuals(theta, stats, anchors).sum())
    return kl + rs.nll(eta) + elastic_net_penalty(beta, lam, alpha)


def update_theta(
    theta: np.ndarray,
    beta: np.ndarray,
    stats: CooccurrenceStats,
    Xbar,
    labels: SurvivalLabels,
    anchors: AnchorSet,
    step: float = 1.0,
    max_iters: int = 100,
    inner_tol: float = 1e-12,
    risk_sets: RiskSets | None = None,
) -> tuple[np.ndarray, bool]:
    """One budgeted pass of the theta subproblem at fixed beta.

    The simplex KL kernel runs on all free rows jointly, with the Cox
    partial likelihood of the document features as its coupling term, so
    the full subproblem objective never increases. Returns the updated
    theta and a stall flag set when no step length made progress.
    """
    theta = np.array(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    aidx = np.asarray(anchors.indices, dtype=int)
    free = np.setdiff1d(np.arange(stats.Qbar.shape[0]), aidx)
    if not free.size:  # every word is an anchor; nothing to optimize
        return theta, True
    rs = risk_sets if risk_sets is not None else RiskSets(labels)
    Xb = Xbar.tocsr() if hasattr(Xbar, "tocsr") else np.asarray(Xbar, dtype=float)
    Xf = Xb[free]
    XfT = Xf.T  # once per half-step; every line-search probe reuses it
    eta_const = np.asarray(Xb[aidx].T @ (theta[aidx] @ beta)).ravel()

    def cox_term(th):
        eta = np.asarray(XfT @ (th @ beta)).ravel() + eta_const
        return rs.nll(eta), lambda: np.outer(np.asarray(Xf @ rs.eta_gradient(eta)).ravel(), beta)

    theta[free], _, _, steps = minimize_simplex_kl(
        stats.Qbar[free], stats.Qbar[aidx], theta[free], tol=inner_tol,
        max_iter=max_iters, step0=step, coupling=cox_term)
    return theta, bool(steps[0] == 0)


def _prepare(corpus: Corpus, config: SawConfig):
    if corpus.n_docs < 2:
        raise ValueError("need at least 2 documents")
    if corpus.labels.n_events < 1:
        raise ValueError("need at least 1 observed event to fit a survival model")
    stats = build_cooccurrence(corpus)
    cand = default_candidates(document_frequencies(corpus), corpus.n_docs)
    r = config.projection_dim if config.projection_dim is not None else min(stats.n_words, 1000)
    anchors = stable_anchors(
        stats, config.k, T=config.anchor_runs, r=r,
        seed=derive_seed(config.seed, "anchors"), candidates=cand,
    )
    tm = recover_topics_unsupervised(
        stats, anchors, tol=config.recover_tol,
        max_iter=config.recover_iters, step0=config.theta_step,
    )
    Xbar = normalize_columns(corpus)
    rs = RiskSets(corpus.labels)
    return stats, anchors, tm, Xbar, rs


def _finish(corpus, config, stats, anchors, theta, beta, baseline, obj, converged,
            iterations, method) -> SawModel:
    residuals = kl_residuals(theta, stats, anchors)
    A = recover_word_topic_matrix(theta, stats.p)
    tm = TopicModel(theta, A, anchors, residuals)
    cox = CoxModel(beta, baseline, config.lam, config.alpha)
    trace = FitTrace(tuple(float(v) for v in obj), converged, iterations)
    return SawModel(tm, cox, config, trace, corpus.vocab,
                    vocabulary_hash(corpus.vocab), method=method)


def fit_saw(corpus: Corpus, config: SawConfig) -> SawModel:
    """Full pipeline: co-occurrence stats, stabilized anchors, unsupervised
    initialization, then alternate a warm-started elastic-net Cox fit with a
    monotone theta pass until the joint objective stops improving.

    With ``max_outer_iters == 0`` the unsupervised initialization itself is
    returned (beta zero, no baseline hazard).
    """
    stats, anchors, tm, Xbar, rs = _prepare(corpus, config)
    labels = corpus.labels
    theta = tm.theta
    beta = np.zeros(config.k)
    obj = [joint_objective(theta, beta, stats, Xbar, labels, anchors,
                           config.lam, config.alpha, risk_sets=rs)]
    if config.max_outer_iters == 0:
        return _finish(corpus, config, stats, anchors, theta, beta, None,
                       obj, False, 0, "saw")
    converged = False
    outer_done = 0
    for _ in range(config.max_outer_iters):
        prev = obj[-1]
        Z = doc_topic_features(theta, Xbar)
        cox = fit_elastic_net_cox(
            Z, labels, config.lam, config.alpha, tol=config.beta_tol,
            beta0=beta, max_iter=config.beta_iters, fit_baseline=False,
        )
        beta = cox.beta
        obj.append(joint_objective(theta, beta, stats, Xbar, labels, anchors,
                                   config.lam, config.alpha, risk_sets=rs))
        theta, stalled = update_theta(
            theta, beta, stats, Xbar, labels, anchors,
            step=config.theta_step, max_iters=config.theta_iters, risk_sets=rs,
        )
        obj.append(joint_objective(theta, beta, stats, Xbar, labels, anchors,
                                   config.lam, config.alpha, risk_sets=rs))
        outer_done += 1
        dec = prev - obj[-1]
        if dec < -OBJECTIVE_SLACK * max(abs(prev), 1.0):
            raise RuntimeError(
                f"joint objective increased across outer iteration {outer_done}: "
                f"{prev} -> {obj[-1]}"
            )
        if dec <= config.outer_tol * max(abs(prev), 1e-12):
            converged = True
            if stalled:
                log.debug("theta step stalled at outer iteration %d", outer_done)
            break
    baseline = breslow_baseline(beta, doc_topic_features(theta, Xbar), labels)
    return _finish(corpus, config, stats, anchors, theta, beta, baseline,
                   obj, converged, outer_done, "saw")


def fit_usaw(corpus: Corpus, config: SawConfig) -> SawModel:
    """Two-stage baseline: unsupervised topics, then a single elastic-net
    Cox fit on the resulting features. No alternation."""
    stats, anchors, tm, Xbar, rs = _prepare(corpus, config)
    labels = corpus.labels
    theta = tm.theta
    beta0 = np.zeros(config.k)
    obj = [joint_objective(theta, beta0, stats, Xbar, labels, anchors,
                           config.lam, config.alpha, risk_sets=rs)]
    Z = doc_topic_features(theta, Xbar)
    cox = fit_elastic_net_cox(
        Z, labels, config.lam, config.alpha, tol=config.beta_tol,
        max_iter=config.beta_iters, fit_baseline=True,
    )
    obj.append(joint_objective(theta, cox.beta, stats, Xbar, labels, anchors,
                               config.lam, config.alpha, risk_sets=rs))
    return _finish(corpus, config, stats, anchors, theta, cox.beta, cox.baseline,
                   obj, True, 1, "usaw")


def predict(model: SawModel, new_corpus: Corpus) -> Predictions:
    """Risk scores and median survival predictions for a new corpus built
    on the same vocabulary as the training data."""
    if vocabulary_hash(new_corpus.vocab) != model.vocab_hash:
        raise ValueError("vocabulary mismatch between model and corpus")
    Xbar = normalize_columns(new_corpus)
    Z = doc_topic_features(model.topic_model.theta, Xbar)
    risk = Z @ model.cox.beta
    n = new_corpus.n_docs
    median = np.empty(n)
    saturated = np.empty(n, dtype=bool)
    for i in range(n):
        median[i], saturated[i] = predict_median(model.cox, Z[i])
    return Predictions(new_corpus.patient_ids, risk, median, saturated)
