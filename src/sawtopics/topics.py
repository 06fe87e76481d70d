"""Topic recovery: represent each word's co-occurrence profile as a convex
combination of the anchor rows by KL minimization on the simplex, solved
for all rows at once, then convert the word-to-topic posteriors into the word-topic matrix by a
Bayes step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .cooccur import CooccurrenceStats

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-12  # floor inside logs so disjoint supports stay finite


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, worst_row: int):
        super().__init__(message)
        self.worst_row = worst_row


@dataclass(frozen=True, eq=False)
class TopicModel:
    """Row-stochastic theta (word -> topic posterior, anchor rows pinned to
    indicators), the column-stochastic word-topic matrix A (None until the
    Bayes step runs), and the per-row KL residuals of the fit."""

    theta: np.ndarray
    A: np.ndarray | None
    anchors: AnchorSet
    residuals: np.ndarray


def _plogp(P: np.ndarray) -> np.ndarray:
    """Row-wise sum of P log P, with 0 log 0 = 0."""
    return np.sum(P * np.log(np.where(P > 0, P, 1.0)), axis=-1)


def kl_divergence(P, Q, plogp=None):
    """Row-wise KL(P || Q) along the last axis (a float for single rows),
    with 0 log 0 = 0 and Q floored at LOG_FLOOR inside the log. ``plogp``
    is the rows' constant sum P log P when the caller has it already."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError(f"length mismatch: {P.shape} vs {Q.shape}")
    if plogp is None:
        plogp = _plogp(P)
    return plogp - np.sum(P * np.log(np.maximum(Q, LOG_FLOOR)), axis=-1)


def minimize_simplex_kl(
    P: np.ndarray,
    B: np.ndarray,
    theta0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    step0: float = 1.0,
    coupling=None,
):
    """Minimize sum_i KL(P_i || theta_i @ B) over row-stochastic theta by
    exponentiated gradient with a halving line search, so the objective
    never increases. theta starts uniform unless ``theta0`` is given.

    Without ``coupling`` the rows separate: each row keeps its own step
    size and line search, and stops on its own when its relative objective
    drop falls below ``tol``, when its objective reaches zero, or when no
    step length yields a decrease (numerical optimum). ``coupling`` maps
    theta to a (value, gradient thunk) pair added to the objective; the rows
    then share one step size, one line search on the total and one stop.

    Returns theta, the objective, the converged flags and the accepted step
    counts, per row when separable and as one-element arrays when coupled.
    Rows that exhaust ``max_iter`` are left unconverged for the caller.
    """
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    m, k = P.shape[0], B.shape[0]
    theta = np.full((m, k), 1.0 / k) if theta0 is None else np.array(theta0, dtype=float)
    plogp = _plogp(P)
    coupled = coupling is not None
    # step sizes, line searches and stops act per unit: each row is its own
    # unit when separable, and all rows form one unit when coupled

    def rows(units):  # the theta rows that a selection of units covers
        return slice(None) if coupled else units

    def objective(th, units):
        r = rows(units)
        kl = kl_divergence(P[r], th @ B, plogp[r])
        if not coupled:
            return kl, None
        value, grad = coupling(th)
        return np.array([kl.sum() + value]), grad

    f, grad_c = objective(theta, np.arange(m))
    step = np.full(f.size, float(step0))
    steps = np.zeros(f.size, dtype=int)
    converged = np.zeros(f.size, dtype=bool)
    act = np.arange(f.size)
    for _ in range(max_iter):
        if not act.size:
            break
        th = theta[rows(act)]
        G = -((P[rows(act)] / np.maximum(th @ B, LOG_FLOOR)) @ B.T)
        if coupled:
            G = G + grad_c()
        shifted = G - G.min(axis=1, keepdims=True)
        s = step[act]
        halved = np.zeros(act.size, dtype=bool)
        todo = np.arange(act.size)  # positions in act still searching for a step
        for _ in range(60):
            W = th[rows(todo)] * np.exp(-s[todo, None] * shifted[rows(todo)])
            tot = W.sum(axis=1, keepdims=True)
            ok = np.isfinite(tot) & (tot > 0)
            cand = W / np.where(ok, tot, 1.0)
            fc, grad_cand = objective(cand, act[todo])
            good = (ok.all() if coupled else ok[:, 0]) & np.isfinite(fc) & (fc <= f[act[todo]])
            if good.any():
                win = todo[good]
                u = act[win]
                drop = f[u] - fc[good]
                theta[rows(u)] = cand[rows(good)]
                f[u] = fc[good]
                converged[u] = (drop <= tol * np.maximum(np.abs(f[u]), 1e-10)) | (f[u] <= 1e-15)
                step[u] = np.where(halved[win], s[win], np.minimum(s[win] * 1.5, 1e12))
                steps[u] += 1
                grad_c = grad_cand
            todo = todo[~good]
            if not todo.size:
                break
            s[todo] *= 0.5
            halved[todo] = True
        converged[act[todo]] = True  # no step length decreases: numerical optimum
        act = act[~converged[act]]
    return theta, f, converged, steps


def recover_topics_unsupervised(
    stats: CooccurrenceStats,
    anchors: AnchorSet,
    tol: float = 1e-10,
    max_iter: int = 4000,  # multiplicative updates crawl near simplex faces
    step0: float = 1.0,
) -> TopicModel:
    """Solve all non-anchor rows in one separable batch; anchor rows are
    pinned to indicator vectors. Raises ConvergenceError (with the worst
    offending row) if any row exhausts its iteration budget."""
    d = stats.Qbar.shape[0]
    aidx = np.asarray(anchors.indices, dtype=int)
    if aidx.size and (aidx.min() < 0 or aidx.max() >= d):
        raise ValueError("anchor indices out of range for these stats")
    k = aidx.size
    theta = np.zeros((d, k))
    theta[aidx, np.arange(k)] = 1.0
    residuals = np.zeros(d)
    free = np.setdiff1d(np.arange(d), aidx)
    theta[free], residuals[free], converged, _ = minimize_simplex_kl(
        stats.Qbar[free], stats.Qbar[aidx], tol=tol, max_iter=max_iter, step0=step0)
    failed = free[~converged]
    if failed.size:
        worst = int(failed[np.argmax(residuals[failed])])
        raise ConvergenceError(
            f"{failed.size} row(s) failed to converge within {max_iter} iterations; "
            f"worst row {worst}",
            worst_row=worst,
        )
    return TopicModel(theta, None, anchors, residuals)


def kl_residuals(theta: np.ndarray, stats: CooccurrenceStats, anchors: AnchorSet) -> np.ndarray:
    """Per-row KL(Qbar_w || theta_w @ B); exact zeros on anchor rows."""
    aidx = np.asarray(anchors.indices, dtype=int)
    out = kl_divergence(stats.Qbar, theta @ stats.Qbar[aidx])
    out[aidx] = 0.0
    return out


def recover_word_topic_matrix(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Bayes step: A[w, g] proportional to theta[w, g] * p[w], columns
    normalized to sum to 1."""
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    unnorm = theta * p[:, None]
    mass = unnorm.sum(axis=0)
    dead = np.flatnonzero(mass <= 0)
    if dead.size:
        raise ValueError(f"topic(s) with zero word mass: {dead.tolist()}")
    return unnorm / mass


def doc_topic_features(theta: np.ndarray, Xbar) -> np.ndarray:
    """Per-document topic proportions: row i is (Xbar column i)^T theta."""
    theta = np.asarray(theta, dtype=float)
    if Xbar.shape[0] != theta.shape[0]:
        raise ValueError(
            f"dimension mismatch: Xbar has {Xbar.shape[0]} rows, theta has {theta.shape[0]}"
        )
    return np.asarray(Xbar.T @ theta)


def topic_report(model: TopicModel, words: tuple[str, ...], top_n: int = 10,
                 beta: np.ndarray | None = None) -> str:
    """Per topic: its anchor word, optional coefficient, and the top words
    by within-topic probability."""
    if model.A is None:
        raise ValueError("word-topic matrix not recovered yet")
    lines = []
    for g, a in enumerate(model.anchors.indices):
        head = f"topic {g}: anchor={words[a]}"
        if beta is not None:
            head += f" beta={beta[g]:+.4g}"
        lines.append(head)
        top = np.argsort(-model.A[:, g], kind="stable")[:top_n]
        for w in top:
            lines.append(f"    {words[w]}\t{model.A[w, g]:.6f}")
    return "\n".join(lines) + "\n"
