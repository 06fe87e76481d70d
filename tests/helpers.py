"""Shared brute-force oracles for the test suite.

These stay deliberately independent of the library's own code paths: pair
enumeration for concordance, LP-based convex hull membership, central finite
differences, exhaustive simplex grids, and a one-row-at-a-time solver of the
simplex KL subproblem as a reference for the batched library kernel.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from sawtopics.corpus import Corpus, SurvivalLabels, Vocabulary
from sawtopics.topics import LOG_FLOOR


def make_corpus(counts, times=None, observed=None, words=None):
    counts = np.asarray(counts)
    d, n = counts.shape
    if words is None:
        words = tuple(f"w{i:03d}" for i in range(d))
    times = np.ones(n) if times is None else np.asarray(times, dtype=float)
    observed = np.ones(n, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    pids = tuple(f"p{i:03d}" for i in range(n))
    return Corpus(sparse.csc_matrix(counts), Vocabulary(tuple(words)),
                  SurvivalLabels(times, observed), pids)


def brute_force_c_index(risk, times, observed):
    """Direct pair enumeration of Harrell's concordance."""
    num = 0.0
    den = 0
    n = len(risk)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and observed[i]:
                den += 1
                if risk[i] > risk[j]:
                    num += 1.0
                elif risk[i] == risk[j]:
                    num += 0.5
    if den == 0:
        raise ValueError("no comparable pairs")
    return num / den


def in_convex_hull(point, others, tol=1e-9):
    """LP feasibility: can `point` be written as a convex combination of
    `others`?"""
    others = np.asarray(others, dtype=float)
    point = np.asarray(point, dtype=float)
    m = others.shape[0]
    A_eq = np.vstack([others.T, np.ones(m)])
    b_eq = np.concatenate([point, [1.0]])
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                  method="highs")
    if not res.success:
        return False
    recon = others.T @ res.x
    return bool(np.max(np.abs(recon - point)) <= tol)


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def simplex_grid_2(step=0.01):
    """All [t, 1 - t] rows for t on a uniform grid."""
    ts = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return np.column_stack([ts, 1.0 - ts])


@dataclass(frozen=True, eq=False)
class RowFit:
    theta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: np.ndarray  # objective value at the start and after each accepted step


def minimize_row_kl(
    p_row: np.ndarray,
    B: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    step0: float = 1.0,
    floor: float = LOG_FLOOR,
) -> RowFit:
    """Minimize KL(p_row || theta @ B) over the simplex by exponentiated
    gradient with a halving line search, so the objective never increases.

    Stops when the relative objective drop falls below ``tol`` or when no
    step length yields a decrease (numerical optimum). Hitting ``max_iter``
    without either leaves ``converged`` False for the caller to handle.
    """
    p = np.asarray(p_row, dtype=float)
    B = np.asarray(B, dtype=float)
    k = B.shape[0]
    mask = p > 0
    p_pos = p[mask]
    plogp = float(np.sum(p_pos * np.log(p_pos))) if p_pos.size else 0.0
    Bm = B[:, mask]

    def objective(th: np.ndarray) -> float:
        mix = th @ Bm
        return plogp - float(np.sum(p_pos * np.log(np.maximum(mix, floor))))

    theta = np.full(k, 1.0 / k)
    f = objective(theta)
    trace = [f]
    step = step0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        mix = theta @ Bm
        g = -(Bm @ (p_pos / np.maximum(mix, floor)))
        s = step
        accepted = False
        halved = False
        for _ in range(60):
            w = theta * np.exp(-s * (g - g.min()))
            tot = w.sum()
            if np.isfinite(tot) and tot > 0:
                cand = w / tot
                fc = objective(cand)
                if np.isfinite(fc) and fc <= f:
                    accepted = True
                    break
            s *= 0.5
            halved = True
        if not accepted:
            converged = True  # no descent direction at machine precision
            break
        drop = f - fc
        theta, f = cand, fc
        trace.append(f)
        step = s if halved else min(s * 1.5, 1e12)
        if drop <= tol * max(abs(f), 1e-10) or f <= 1e-15:
            converged = True
            break
    return RowFit(theta, f, it, converged, np.array(trace))
