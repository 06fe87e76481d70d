"""Topic recovery: represent each word's co-occurrence profile as a convex
combination of the anchor rows by KL minimization on the simplex, solved
for all rows at once by an active-set Newton method that certifies each row
by its Frank-Wolfe gap. Recovery returns theta with each word's KL term, as
the theta half-step ``saw.update_theta`` (whose Cox term couples the rows)
does; the Bayes step ``recover_word_topic_matrix`` turns a fitted theta into
the word-topic matrix. ``newton_simplex_kl`` is the module's one simplex
solver; it and ``update_theta`` both build ``face_system``s.
"""

from __future__ import annotations

import numpy as np

from .anchors import AnchorSet
from .cooccur import CooccurrenceStats

LOG_FLOOR = 1e-12  # floor inside logs so disjoint supports stay finite
GAP_TOL = 1e-10  # Frank-Wolfe gap that certifies a recovered row
RIDGE_FLOOR = 1e-10  # least ridge on a face system, so singular faces solve


class ConvergenceError(RuntimeError):
    """Recovery left rows uncertified: ``worst_row`` has the largest
    Frank-Wolfe gap, ``gap``."""

    def __init__(self, message: str, worst_row: int, gap: float):
        super().__init__(message)
        self.worst_row = worst_row
        self.gap = gap


def sum_plogp(P: np.ndarray) -> np.ndarray:
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
        plogp = sum_plogp(P)
    return plogp - np.sum(P * np.log(np.maximum(Q, LOG_FLOOR)), axis=-1)


def newton_budget(k: int) -> int:
    """Newton iterations a row may take. From the uniform start a step
    drops at most one coordinate, so the budget grows with k."""
    return 100 + 10 * k


def face_system(W: np.ndarray, B: np.ndarray, work: np.ndarray, ridge: np.ndarray, extra):
    """Per row, the KL Hessian H = B diag(W_i) B^T (W_i = P_i / q_i^2, from
    the products of B's row pairs) and the bordered KKT matrix of a Newton
    step on the face ``work`` that keeps the row's sum: the face block of
    H + ``extra``, ``ridge`` (floored at RIDGE_FLOOR, so that singular faces
    solve) on its diagonal, the identity off the face and a border of ones."""
    a, k = work.shape
    upper = np.triu_indices(k)
    H = np.empty((a, k, k))
    H[:, upper[0], upper[1]] = H[:, upper[1], upper[0]] = W @ (B[upper[0]] * B[upper[1]]).T
    M = np.zeros((a, k + 1, k + 1))
    M[:, :k, :k] = np.where(work[:, :, None] & work[:, None, :], H + extra, 0.0)
    M[:, np.arange(k), np.arange(k)] += np.where(work, np.maximum(ridge, RIDGE_FLOOR)[:, None], 1.0)
    M[:, :k, k] = M[:, k, :k] = work
    return H, M


def _solve_rows(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of M x = rhs; a singular system leaves its row NaN."""
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(M)):
            try:
                out[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def newton_simplex_kl(P: np.ndarray, B: np.ndarray):
    """Minimize KL(P_i || theta_i @ B) over the simplex for every row i by
    an active-set Newton method, batched over the rows; theta starts uniform.

    Each iteration takes, per row, a Newton step on the support under the
    sum-to-one constraint (all face Hessians B diag(P/q^2) B^T, with a
    ridge of the row's gap for singular faces, solved at once), cut by a
    ratio test at the simplex boundary, where the blocking coordinate
    leaves the support, and by a halving line search on the exact
    objective change, so the objective never rises. When the Frank-Wolfe
    vertex (the coordinate of most negative gradient) lies off the support,
    the row counts as face-optimal and that vertex joins the support. A row
    whose Newton step is singular, not a descent direction or without
    decrease takes a pairwise Frank-Wolfe step instead, which also breaks
    add/drop cycles. A row stops once its Frank-Wolfe gap theta.g - min g
    is at most GAP_TOL, or when not even that step lowers its objective.

    The steps minimize the KL itself, without kl_divergence's LOG_FLOOR: a
    step that would leave q = 0 where P > 0 is rejected, and columns that
    no anchor row covers are constant.

    Returns theta, the per-row objective, Frank-Wolfe gap and accepted step
    count. Rows still above GAP_TOL when ``newton_budget(k)`` iterations
    run out are left to the caller.
    """
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    m, k = P.shape[0], B.shape[0]
    budget = newton_budget(k)
    theta = np.full((m, k), 1.0 / k)
    gap = np.zeros(m)
    steps = np.zeros(m, dtype=int)
    fw = np.zeros(m, dtype=bool)  # the row's last Newton step failed
    act = np.arange(m)
    for it in range(budget + 1):
        th, p = theta[act], P[act]
        q = th @ B
        pos = q > 0  # where q = 0, P = 0 too or no anchor row has mass
        qs = np.where(pos, q, 1.0)
        # the gradient plus one (B's rows sum to one), formed from (q - P) / q
        # so that it stays exact where it vanishes
        g = np.where(pos, (q - p) / qs, 1.0) @ B.T
        fv = g.argmin(axis=1)  # the Frank-Wolfe vertex
        gap[act] = np.sum(th * g, axis=1) - g[np.arange(act.size), fv]
        run = gap[act] > GAP_TOL
        act = act[run]
        if it == budget or not act.size:
            break
        th, p, pos, qs, g, fv = (v[run] for v in (th, p, pos, qs, g, fv))
        a = act.size
        rows = np.arange(a)
        supp = th > 0
        # a row whose Frank-Wolfe vertex lies off the support is face-optimal
        # enough: that vertex joins the support
        add = ~supp[rows, fv]
        work = supp.copy()
        work[rows, fv] = True

        # the row's gap is its ridge
        H, M = face_system(np.where(pos, p / qs ** 2, 0.0), B, work, gap[act], 0.0)
        rhs = np.concatenate([np.where(work, -g, 0.0), np.zeros((a, 1))], axis=1)
        d = np.where(work, _solve_rows(M, rhs)[:, :k], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d < 0, th / -d, np.inf)
        block = ratio.argmin(axis=1)
        t_max = ratio[rows, block]
        slope = np.sum(g * d, axis=1)
        newton = (~fw[act] & np.isfinite(slope) & (slope < 0) & (t_max > 0)
                  & (~add | (d[rows, fv] > 0)))
        t = np.minimum(1.0, t_max)
        pw = rows[~newton]  # pairwise Frank-Wolfe: mass moves from the worst
        if pw.size:         # support coordinate to the best coordinate
            s = fv[pw]
            w = np.where(supp[pw], g[pw], -np.inf).argmax(axis=1)
            d[pw] = 0.0
            d[pw, s] = 1.0
            d[pw, w] = -1.0
            block[pw] = w
            t_max[pw] = th[pw, w]
            curv = H[pw, s, s] - 2.0 * H[pw, s, w] + H[pw, w, w]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_line = (g[pw, w] - g[pw, s]) / curv  # the minimum along the line
            t[pw] = np.where(curv > 0, np.minimum(t_line, t_max[pw]), t_max[pw])
        dq = d @ B
        moved = np.zeros(a, dtype=bool)
        todo = rows
        for _ in range(60):
            # the exact objective change, which stays resolvable where a
            # difference of two objective values would round to zero; it is
            # +inf (or NaN) where q would leave a column of P at 0 or below
            x = np.where(pos[todo], t[todo, None] * dq[todo] / qs[todo], 0.0)
            # a step to t_max sets the blocking coordinate to exactly 0, while
            # its x can round to just above -1: where that step leaves q = 0
            # on a column with q > 0 now, x = -1 makes the change +inf
            at = np.flatnonzero(t[todo] == t_max[todo])
            r = todo[at]
            cand = th[r] + t[r, None] * d[r]
            cand[np.arange(r.size), block[r]] = 0.0
            x[at] = np.where(pos[r] & (np.maximum(cand, 0.0) @ B == 0), -1.0, x[at])
            with np.errstate(divide="ignore", invalid="ignore"):
                change = -np.sum(np.where(p[todo] > 0, p[todo] * np.log1p(x), 0.0), axis=1)
            ok = (change < 0) | ((change <= 0) & (t[todo] == t_max[todo]))
            moved[todo[ok]] = True
            todo = todo[~ok]
            if not todo.size:
                break
            t[todo] *= 0.5
        new = th + t[:, None] * d
        hit = moved & (t == t_max)
        new[rows[hit], block[hit]] = 0.0
        theta[act[moved]] = np.maximum(new[moved], 0.0)
        steps[act[moved]] += 1
        fw[act] = ~moved
        act = act[moved | newton]  # drop rows where not even a Frank-Wolfe step helps
    return theta, kl_divergence(P, theta @ B), gap, steps


def recover_topics_unsupervised(stats: CooccurrenceStats,
                                anchors: AnchorSet) -> tuple[np.ndarray, np.ndarray]:
    """Solve all non-anchor rows in one batch, each certified by its
    Frank-Wolfe gap; anchor rows are pinned to indicator vectors. Returns
    the row-stochastic theta (word -> topic posterior) and each word's KL
    term at it (0 on the anchor rows). Raises ConvergenceError (with the row
    of largest gap) if any row ends above GAP_TOL."""
    d = stats.Qbar.shape[0]
    aidx = np.asarray(anchors.indices, dtype=int)
    if aidx.size and (aidx.min() < 0 or aidx.max() >= d):
        raise ValueError("anchor indices out of range for these stats")
    k = aidx.size
    theta = np.zeros((d, k))
    theta[aidx, np.arange(k)] = 1.0
    kl = np.zeros(d)
    free = np.setdiff1d(np.arange(d), aidx)
    theta[free], kl[free], gap, _ = newton_simplex_kl(stats.Qbar[free], stats.Qbar[aidx])
    failed = gap > GAP_TOL
    if failed.any():
        worst = int(np.argmax(gap))
        raise ConvergenceError(
            f"{int(failed.sum())} row(s) failed to reach Frank-Wolfe gap {GAP_TOL:g} "
            f"within {newton_budget(k)} Newton iterations; worst row {free[worst]} "
            f"has gap {gap[worst]:.3g}",
            worst_row=int(free[worst]), gap=float(gap[worst]),
        )
    return theta, kl


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


def topic_report(A: np.ndarray, anchors: AnchorSet, words: tuple[str, ...], top_n: int,
                 beta: np.ndarray) -> str:
    """Per topic: its anchor word, its Cox coefficient, and the top words
    by within-topic probability (the topic's column of A)."""
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    lines = []
    for g, a in enumerate(anchors.indices):
        lines.append(f"topic {g}: anchor={words[a]} beta={beta[g]:+.4g}")
        for w in np.argsort(-A[:, g], kind="stable")[:top_n]:
            lines.append(f"    {words[w]}\t{A[w, g]:.6f}")
    return "\n".join(lines) + "\n"
