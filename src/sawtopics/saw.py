"""Joint topic-survival fitting by alternating minimization.

The objective is block convex: the KL representation cost of the topic side
plus the elastic-net regularized Cox partial likelihood on the per-document
topic proportions. Anchors are found once up front; the alternation then
switches between an elastic-net Cox fit (warm-started, so it can only lower
the objective) and ``update_theta``, a monotone exponentiated-gradient pass
over all free theta rows, which the Cox term couples together. Topic
recovery and its Newton simplex solver live in ``topics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, default_candidates, stable_anchors
from .cooccur import CooccurrenceStats, build_cooccurrence
from .corpus import Corpus, Vocabulary, document_frequencies, normalize_columns, vocabulary_hash
from .seeding import derive_seed
from .survival import (CoxModel, SurvivalLabels, breslow_baseline, elastic_net_penalty,
                       fit_elastic_net_cox, predict_median)
from .topics import (LOG_FLOOR, TopicModel, doc_topic_features, kl_divergence, kl_residuals,
                     recover_topics_unsupervised, recover_word_topic_matrix, sum_plogp)

OBJECTIVE_SLACK = 1e-9  # relative tolerance for "non-increasing" checks


@dataclass(frozen=True)
class SawConfig:
    k: int = 5
    lam: float = 0.1
    alpha: float = 0.5
    outer_tol: float = 1e-6
    max_outer_iters: int = 50
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
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be > 0")
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
) -> float:
    """KL representation cost over non-anchor words + Cox partial
    likelihood on topic features + elastic-net penalty."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _check_feasible(theta, anchors)
    eta = doc_topic_features(theta, Xbar) @ beta
    kl = float(kl_residuals(theta, stats, anchors).sum())
    return kl + labels.risk_sets.nll(eta) + elastic_net_penalty(beta, lam, alpha)


def update_theta(
    theta: np.ndarray,
    beta: np.ndarray,
    stats: CooccurrenceStats,
    Xbar,
    labels: SurvivalLabels,
    anchors: AnchorSet,
    max_iters: int = 100,
    inner_tol: float = 1e-12,
) -> np.ndarray:
    """One budgeted pass of the theta subproblem at fixed beta: minimize
    sum_w KL(Qbar_w || theta_w @ B) plus the Cox partial likelihood of the
    document features over the free (non-anchor) rows of theta, for a
    sparse ``Xbar``.

    Exponentiated gradient with one step size for all rows (1 at the start,
    1.5 times larger after a step that needed no halving) and a halving line
    search on the total, so the subproblem objective never increases. Stops
    after ``max_iters`` steps, when the relative objective drop falls below
    ``inner_tol``, when the objective reaches zero, or when no step length
    yields a decrease (numerical optimum). Returns the updated theta.
    """
    theta = np.array(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    aidx = np.asarray(anchors.indices, dtype=int)
    free = np.setdiff1d(np.arange(stats.Qbar.shape[0]), aidx)
    if not free.size:  # every word is an anchor; nothing to optimize
        return theta
    rs = labels.risk_sets
    Xb = Xbar.tocsr()
    Xf = Xb[free]
    XfT = Xf.T  # once per half-step; every line-search probe reuses it
    eta_const = Xb[aidx].T @ (theta[aidx] @ beta)
    P, B = stats.Qbar[free], stats.Qbar[aidx]
    plogp = sum_plogp(P)

    def objective(th):
        value, grad = rs.partial_likelihood(XfT @ (th @ beta) + eta_const)
        return kl_divergence(P, th @ B, plogp).sum() + value, grad

    th = theta[free]
    f, grad = objective(th)
    step = 1.0
    for _ in range(max_iters):
        G = -((P / np.maximum(th @ B, LOG_FLOOR)) @ B.T) + np.outer(Xf @ grad(), beta)
        shifted = G - G.min(axis=1, keepdims=True)
        s = step
        for halving in range(60):
            W = th * np.exp(-s * shifted)
            tot = W.sum(axis=1, keepdims=True)
            if np.all(np.isfinite(tot) & (tot > 0)):
                cand = W / tot
                fc, grad_cand = objective(cand)
                if np.isfinite(fc) and fc <= f:
                    break
            s *= 0.5
        else:
            break  # no step length decreases: numerical optimum
        drop = f - fc
        th, f, grad = cand, fc, grad_cand
        step = s if halving else min(s * 1.5, 1e12)
        if drop <= inner_tol * max(abs(f), 1e-10) or f <= 1e-15:
            break
    theta[free] = th
    return theta


def _prepare(corpus: Corpus, config: SawConfig):
    if corpus.n_docs < 2:
        raise ValueError("need at least 2 documents")
    if corpus.labels.n_events < 1:
        raise ValueError("need at least 1 observed event to fit a survival model")
    stats = build_cooccurrence(corpus)
    cand = default_candidates(document_frequencies(corpus), corpus.n_docs)
    anchors = stable_anchors(
        stats, config.k, T=config.anchor_runs, r=config.projection_dim,
        seed=derive_seed(config.seed, "anchors"), candidates=cand,
    )
    tm = recover_topics_unsupervised(stats, anchors)
    return stats, anchors, tm, normalize_columns(corpus)


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
    returned, with beta zero and the baseline hazard fitted for it.
    """
    stats, anchors, tm, Xbar = _prepare(corpus, config)
    labels = corpus.labels
    theta = tm.theta
    beta = np.zeros(config.k)
    obj = [joint_objective(theta, beta, stats, Xbar, labels, anchors,
                           config.lam, config.alpha)]
    converged = False
    outer_done = 0
    for _ in range(config.max_outer_iters):
        prev = obj[-1]
        Z = doc_topic_features(theta, Xbar)
        cox = fit_elastic_net_cox(Z, labels, config.lam, config.alpha, beta0=beta,
                                  fit_baseline=False)
        beta = cox.beta
        obj.append(joint_objective(theta, beta, stats, Xbar, labels, anchors,
                                   config.lam, config.alpha))
        theta = update_theta(theta, beta, stats, Xbar, labels, anchors)
        obj.append(joint_objective(theta, beta, stats, Xbar, labels, anchors,
                                   config.lam, config.alpha))
        outer_done += 1
        dec = prev - obj[-1]
        if dec < -OBJECTIVE_SLACK * max(abs(prev), 1.0):
            raise RuntimeError(
                f"joint objective increased across outer iteration {outer_done}: "
                f"{prev} -> {obj[-1]}"
            )
        if dec <= config.outer_tol * max(abs(prev), 1e-12):
            converged = True
            break
    baseline = breslow_baseline(beta, doc_topic_features(theta, Xbar), labels)
    return _finish(corpus, config, stats, anchors, theta, beta, baseline,
                   obj, converged, outer_done, "saw")


def fit_usaw(corpus: Corpus, config: SawConfig) -> SawModel:
    """Two-stage baseline: unsupervised topics, then a single elastic-net
    Cox fit on the resulting features. No alternation."""
    stats, anchors, tm, Xbar = _prepare(corpus, config)
    labels = corpus.labels
    theta = tm.theta
    beta0 = np.zeros(config.k)
    obj = [joint_objective(theta, beta0, stats, Xbar, labels, anchors,
                           config.lam, config.alpha)]
    Z = doc_topic_features(theta, Xbar)
    cox = fit_elastic_net_cox(Z, labels, config.lam, config.alpha)
    obj.append(joint_objective(theta, cox.beta, stats, Xbar, labels, anchors,
                               config.lam, config.alpha))
    return _finish(corpus, config, stats, anchors, theta, cox.beta, cox.baseline,
                   obj, True, 1, "usaw")


def predict(model: SawModel, new_corpus: Corpus) -> Predictions:
    """Risk scores and median survival predictions for a new corpus built
    on the same vocabulary as the training data."""
    if vocabulary_hash(new_corpus.vocab) != model.vocab_hash:
        raise ValueError("vocabulary mismatch between model and corpus")
    Z = doc_topic_features(model.topic_model.theta, normalize_columns(new_corpus))
    return cox_predictions(model.cox, Z, new_corpus.patient_ids)


def cox_predictions(cox: CoxModel, Z, patient_ids) -> Predictions:
    """Risk scores Z @ beta (Z dense or scipy sparse) and the median
    survival times they imply."""
    risk = Z @ cox.beta
    median, saturated = predict_median(cox, risk)
    return Predictions(patient_ids, risk, median, saturated)
