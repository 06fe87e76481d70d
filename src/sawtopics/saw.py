"""Joint topic-survival fitting by alternating minimization.

The objective is block convex: the KL representation cost of the topic side
plus the elastic-net regularized Cox partial likelihood on the per-document
topic proportions. Anchors and the unsupervised topics are found once up
front, and an elastic-net Cox fit on their features follows (the two-stage
fit ends there). Each outer iteration then runs ``update_theta``, projected
Newton-CG over all free theta rows, which the Cox term couples, stopped by a
Frank-Wolfe gap certificate, and ends on a Cox fit warm-started on the new
features (so it can only lower the objective). Recovery and each theta
half-step return ``(theta, kl)``: the theta and each word's KL term at it,
which the joint objective sums. The Bayes step runs once, on the final theta,
to give the model's word-topic matrix A. Topic recovery and its Newton
simplex solver live in ``topics``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .anchors import AnchorSet, default_candidates, stable_anchors
from .cooccur import CooccurrenceStats, build_cooccurrence
from .corpus import Corpus, Vocabulary, document_frequencies, normalize_columns
from .seeding import derive_seed
from .survival import CoxModel, SurvivalLabels, elastic_net_penalty, fit_elastic_net_cox
from .topics import (LOG_FLOOR, RIDGE_FLOOR, ConvergenceError, doc_topic_features,
                     face_system, kl_divergence, newton_budget, recover_topics_unsupervised,
                     recover_word_topic_matrix, sum_plogp)

OBJECTIVE_SLACK = 1e-9  # relative tolerance for "non-increasing" checks
THETA_GAP_TOL = 1e-6  # coupled Frank-Wolfe gap, relative to the objective, that certifies theta
CG_MAX_ITERS = 50  # conjugate-gradient steps per Newton step
ARMIJO = 1e-4  # share of the linear decrease that a step must achieve

log = logging.getLogger(__name__)


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
        for key, low in (("k", 1), ("max_outer_iters", 0), ("anchor_runs", 1),
                         ("projection_dim", 1)):
            value = getattr(self, key)
            if value is None and key == "projection_dim":
                continue
            if not (isinstance(value, Real) and float(value).is_integer()):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value!r}")
            object.__setattr__(self, key, int(value))
        for key in ("lam", "outer_tol"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class FitTrace:
    """Joint objective after each half-step (beta or theta), starting from
    the unsupervised topics at beta = 0; ``iterations`` counts the outer
    iterations, each a theta half-step and then a Cox fit."""

    objective_values: tuple[float, ...]
    converged: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class SawModel:
    """A fitted saw or usaw model: theta (word -> topic posterior, anchor rows
    pinned to indicators), A (theta's Bayes step), the anchors, each word's KL
    term at theta (``residuals``) and the Cox model fitted on theta's features."""

    theta: np.ndarray
    A: np.ndarray
    anchors: AnchorSet
    residuals: np.ndarray
    cox: CoxModel
    config: SawConfig
    trace: FitTrace
    vocab: Vocabulary
    method: str = "saw"

    def __post_init__(self):
        shape = (len(self.vocab), self.config.k)
        if self.theta.shape != shape or self.A.shape != shape or self.cox.beta.shape != shape[1:]:
            raise ValueError(f"theta {self.theta.shape}, A {self.A.shape} and beta "
                             f"{self.cox.beta.shape} disagree with (words, k) = {shape}")
        _check_feasible(self.theta, self.anchors)
        r = self.residuals
        if not (r.shape == shape[:1] and np.all(r >= 0) and np.all(np.isfinite(r))
                and not r[list(self.anchors.indices)].any()):
            raise ValueError(f"residuals must be {shape[0]} finite KL terms >= 0, "
                             "0 on the anchor rows")

    word_score = property(lambda self: self.theta @ self.cox.beta)


def _check_feasible(theta: np.ndarray, anchors: AnchorSet) -> None:
    d, k = theta.shape
    if not (np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-6) and np.all(theta >= -1e-9)):
        raise ValueError("theta rows must lie on the simplex")
    if len(anchors.indices) != k or not all(0 <= a < d for a in anchors.indices):
        raise ValueError(f"anchors must be {k} word indices in [0, {d})")
    for g, a in enumerate(anchors.indices):
        expect = np.zeros(k)
        expect[g] = 1.0
        if not np.array_equal(theta[a], expect):
            raise ValueError(f"anchor row {a} is not the indicator of topic {g}")


def _project_to_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of V onto the simplex; -inf entries end at 0."""
    U = -np.sort(-V, axis=1)
    css = np.cumsum(np.where(np.isfinite(U), U, 0.0), axis=1) - 1.0
    r = np.sum(U * np.arange(1, V.shape[1] + 1) > css, axis=1)
    tau = css[np.arange(len(V)), r - 1] / r
    return np.maximum(V - tau[:, None], 0.0)


def update_theta(
    theta: np.ndarray,
    beta: np.ndarray,
    stats: CooccurrenceStats,
    Xbar,
    labels: SurvivalLabels,
    anchors: AnchorSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum_w KL(Qbar_w || theta_w @ B) plus the Cox partial likelihood
    of the document features (which couples them) over the free rows of theta,
    for ``Xbar`` in either layout of ``normalize_columns``, until the coupled
    Frank-Wolfe gap, summed over the free rows, is at most THETA_GAP_TOL *
    max(|f|, 1). Projected Newton-CG: CG on each row's face (support and
    Frank-Wolfe vertex), preconditioned by the separable face systems, then an
    Armijo halving search along the projection onto the faces. Each Newton
    step solves the face system regularized by the row's Frank-Wolfe gap, the
    ridge that the preconditioner and recovery carry, so that faces made
    singular by duplicate anchors keep Newton's fast local convergence; the
    ridge vanishes as the certificate closes. Raises
    ConvergenceError if ``newton_budget(k)`` steps, or a step that lowers
    nothing, leave the gap above. Returns the updated theta and each word's
    KL term at it, kept from the objective of the accepted iterate (0 on the
    anchor rows)."""
    theta = np.array(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d, k = theta.shape
    aidx = np.asarray(anchors.indices, dtype=int)
    free = np.setdiff1d(np.arange(d), aidx)
    kl = np.zeros(d)
    if not free.size:  # every word is an anchor; nothing to optimize
        return theta, kl
    XT = Xbar.T  # no copy of the design: Xbar and this view share its arrays
    Xsq = Xbar ** 2
    P, B = stats.Qbar[free], stats.Qbar[aidx]
    plogp = sum_plogp(P)
    u = theta @ beta  # per word; the anchor entries stay

    def objective(th):
        u[free] = th @ beta
        value, grad, hess = labels.risk_sets.partial_likelihood(XT @ u)
        terms = kl_divergence(P, th @ B, plogp)
        return terms.sum() + value, terms, grad, hess

    th = theta[free]
    f, terms, grad, hess_eta = objective(th)
    budget = newton_budget(k)
    products = halvings = 0
    for step in range(budget + 1):
        g_eta = grad()
        q = th @ B
        pos = q >= LOG_FLOOR  # below kl_divergence's floor the KL is flat in q
        qs = np.where(pos, q, 1.0)
        # the KL gradient plus one, exact where it vanishes, and the Cox term
        G = np.where(pos, (q - P) / qs, 1.0) @ B.T + np.outer((Xbar @ g_eta)[free], beta)
        g_min = G.min(axis=1, keepdims=True)  # at each row's Frank-Wolfe vertex
        row_gap = np.sum(th * G, axis=1) - g_min[:, 0]
        gap, tol = float(row_gap.sum()), THETA_GAP_TOL * max(abs(f), 1.0)
        if gap <= tol:
            break
        worst = free[np.argmax(row_gap)]
        if step == budget:
            raise ConvergenceError(f"theta half-step: coupled Frank-Wolfe gap {gap:.3g} > "
                                   f"{tol:.3g} after {budget} Newton steps; worst row {worst}",
                                   int(worst), gap)
        work = (th > 0) | (G == g_min)
        c = (Xsq @ (g_eta + labels.observed))[free]  # diagonal of a bound on the Cox curvature
        H, M = face_system(np.where(pos, P / qs ** 2, 0.0), B, work, row_gap,
                           c[:, None, None] * np.outer(beta, beta))
        Minv = np.linalg.inv(M)[:, :k, :k]
        # the face system CG solves: the face rows of H with the row's gap as
        # its ridge, as M and recovery carry it, and the Cox term's face rows
        Hw = np.where(work[:, :, None], H, 0.0)
        Hw[:, np.arange(k), np.arange(k)] += work * np.maximum(row_gap, RIDGE_FLOOR)[:, None]
        beta_w, size = work * beta, work.sum(axis=1, keepdims=True)
        # preconditioned CG from 0 on the faces, stopped by a forcing term
        x, p, rz_old = np.zeros_like(th), np.zeros_like(th), np.inf
        r = np.where(work, -G, 0.0)
        forcing = min(0.01, gap / max(abs(f), 1.0))  # on the squared preconditioned residual
        for j in range(CG_MAX_ITERS):
            # back to a zero sum on the face: a near-singular face system
            # can return a direction that leaves the simplex
            z = np.where(work, (Minv @ r[..., None])[..., 0], 0.0)
            z = np.where(work, z - z.sum(axis=1, keepdims=True) / size, 0.0)
            rz = float(np.sum(r * z))
            if j and rz <= forcing * rz0:
                break
            rz0 = rz0 if j else rz
            p = z + (rz / rz_old) * p
            cox = (Xbar @ hess_eta(XT @ np.bincount(free, p @ beta, minlength=d)))[free]
            Hp = (Hw @ p[..., None])[..., 0] + cox[:, None] * beta_w
            products += 1
            curv = float(np.sum(p * Hp))
            if not curv > 0:
                break
            x += (rz / curv) * p
            r -= (rz / curv) * Hp
            rz_old = rz
        for i in range(60):
            cand = _project_to_simplex(np.where(work, th + 0.5 ** i * x, -np.inf))
            fc, cand_terms, grad, hess_eta = objective(cand)
            if fc <= f + ARMIJO * float(np.sum(G * (cand - th))):
                break
            halvings += 1
        else:
            raise ConvergenceError(f"theta half-step: coupled Frank-Wolfe gap {gap:.3g} > "
                                   f"{tol:.3g}, no step lowers the objective; worst row {worst}",
                                   int(worst), gap)
        th, f, terms = cand, fc, cand_terms
    log.debug("theta half-step: %d Newton steps, %d Hessian products, %d halvings, "
              "coupled gap %.3g <= tolerance %.3g", step, products, halvings, gap, tol)
    theta[free], kl[free] = th, terms
    return theta, kl


def fit_saw(corpus: Corpus, config: SawConfig) -> SawModel:
    """Full pipeline: co-occurrence stats, stabilized anchors and the
    unsupervised topics, one elastic-net Cox fit on their features (all that
    ``max_outer_iters == 0`` runs), then outer iterations of a monotone theta
    pass followed by a Cox fit warm-started on the new theta's features,
    until the joint objective stops improving. The returned Cox model is the
    last fit, on the returned theta's features; A is that theta's Bayes
    step, and the residuals are its KL terms, from the solver that produced it.
    """
    if corpus.n_docs < 2:
        raise ValueError("need at least 2 documents")
    labels = corpus.labels
    if labels.n_events < 1:
        raise ValueError("need at least 1 observed event to fit a survival model")
    stats = build_cooccurrence(corpus)
    cand = default_candidates(document_frequencies(corpus), corpus.n_docs)
    anchors = stable_anchors(
        stats, config.k, T=config.anchor_runs, r=config.projection_dim,
        seed=derive_seed(config.seed, "anchors"), candidates=cand,
    )
    theta, residuals = recover_topics_unsupervised(stats, anchors)
    Xbar = normalize_columns(corpus)
    Z = doc_topic_features(theta, Xbar)

    def objective(beta):  # the joint objective at the current theta
        return (float(residuals.sum()) + labels.risk_sets.partial_likelihood(Z @ beta)[0]
                + elastic_net_penalty(beta, config.lam, config.alpha))

    beta = np.zeros(config.k)
    obj = [objective(beta)]
    cox = fit_elastic_net_cox(Z, labels, config.lam, config.alpha, beta0=beta)
    obj.append(objective(cox.beta))
    converged, iterations = False, 0
    while iterations < config.max_outer_iters and not converged:
        prev = obj[-1]
        theta, residuals = update_theta(theta, cox.beta, stats, Xbar, labels, anchors)
        Z = doc_topic_features(theta, Xbar)
        obj.append(objective(cox.beta))
        cox = fit_elastic_net_cox(Z, labels, config.lam, config.alpha, beta0=cox.beta)
        obj.append(objective(cox.beta))
        iterations += 1
        dec = prev - obj[-1]
        if dec < -OBJECTIVE_SLACK * max(abs(prev), 1.0):
            raise RuntimeError(
                f"joint objective increased across outer iteration {iterations}: "
                f"{prev} -> {obj[-1]}"
            )
        converged = bool(dec <= config.outer_tol * max(abs(prev), 1e-12))
    trace = FitTrace(tuple(float(v) for v in obj), converged, iterations)
    return SawModel(theta, recover_word_topic_matrix(theta, stats.p), anchors, residuals, cox,
                    config, trace, corpus.vocab)


def fit_usaw(corpus: Corpus, config: SawConfig) -> SawModel:
    """Two-stage baseline: unsupervised topics, then a single elastic-net
    Cox fit on their features; ``fit_saw`` with no outer iteration."""
    model = fit_saw(corpus, replace(config, max_outer_iters=0))
    return replace(model, config=config, method="usaw")
