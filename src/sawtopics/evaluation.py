"""Accuracy metrics and cross-validated hyperparameter selection.

RMSE and MAE compare predicted medians to the true duration over uncensored
patients only; comparing a median to a censoring lower bound is ill-defined,
so censored patients are excluded and ``n_evaluated`` reports how many
remain. The c-index is Harrell's concordance over comparable pairs.

``cross_validate`` runs its (cell, fold) fits in parallel, in the forked
pool of ``sawtopics.parallel``: one worker per CPU the process may use. The
workers inherit the corpus, the fitter and the fold assignment,
monkeypatched functions included, and start with no import cost: where the
training corpus's design is CSC (``corpus.design_is_dense``), the parent
loads ``scipy.sparse`` before it forks, and a dense design needs no scipy.
Each fit has its own seed, so the output bytes do not depend on the CPU
count. An in-process tracer sees only the parent's spans: the selection and
the refit, not the fold fits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .corpus import Corpus, design_is_dense, subset
from .parallel import forked_imap
from .saw import SawConfig, SawModel, fit_saw, predict
from .seeding import derive_seed
from .survival import SurvivalLabels

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    c_index: float | None
    n_evaluated: int
    n_saturated: int


@dataclass(frozen=True, eq=False)
class CvResult:
    grid: tuple[tuple[int, float, float], ...]
    fold_scores: np.ndarray  # cells x folds, NaN where a cell failed
    best: tuple[int, float, float]
    fold_assignment: np.ndarray


def rmse_mae(predicted, labels: SurvivalLabels) -> tuple[float, float]:
    pred = np.asarray(predicted, dtype=float)
    if pred.shape != labels.times.shape:
        raise ValueError("predictions and labels must be aligned")
    mask = labels.observed
    if not mask.any():
        raise ValueError("no uncensored patients to evaluate")
    err = pred[mask] - labels.times[mask]
    return float(np.sqrt(np.mean(err ** 2))), float(np.mean(np.abs(err)))


def c_index(risk, labels: SurvivalLabels) -> float:
    """Harrell's concordance: a pair (i, j) is comparable when Y_i < Y_j and
    patient i's event was observed; it is concordant when risk_i > risk_j,
    risk ties counting one half: j is in i's risk set (the rule in
    ``sawtopics.survival``) but not tied with i.

    Patients are visited by decreasing time, one tie group of
    ``labels.risk_sets`` at a time; a Fenwick tree over risk ranks counts
    the patients already visited (strictly later times) below and at each
    observed patient's risk. The counts are exact integers: O(n log n) time
    and O(n) memory.
    """
    risk = np.asarray(risk, dtype=float)
    if risk.shape != labels.times.shape:
        raise ValueError("risk scores and labels must be aligned")
    if np.isnan(risk).any():
        raise ValueError("risk scores contain NaN")
    n_comp = 0
    if labels.n_events:
        rs = labels.risk_sets
        n_comp = int((rs.n - 1 - rs.last[rs.events]).sum())
    if n_comp == 0:
        raise ValueError("no comparable pairs")
    rank = (np.unique(risk, return_inverse=True)[1] + 1).tolist()  # 1-based tree positions
    tree = [0] * (len(rank) + 1)

    def visited_up_to(r: int) -> int:  # visited patients with rank <= r
        total = 0
        while r > 0:
            total += tree[r]
            r &= r - 1
        return total

    order = rs.order.tolist()
    observed = labels.observed.tolist()
    higher = tied = 0
    end = rs.n
    for start in np.flatnonzero(rs.first == np.arange(rs.n))[::-1].tolist():
        group = order[start:end]
        for i in group:
            if observed[i]:
                below = visited_up_to(rank[i] - 1)
                higher += below
                tied += visited_up_to(rank[i]) - below
        for i in group:
            r = rank[i]
            while r < len(tree):
                tree[r] += 1
                r += r & -r
        end = start
    return float((higher + 0.5 * tied) / n_comp)


def compute_metrics(median, risk, saturated, labels: SurvivalLabels) -> Metrics:
    """Bundle the standard report row; c-index is None when every risk score
    is NaN (e.g. the Kaplan-Meier baseline has no risk ordering)."""
    rmse, mae = rmse_mae(median, labels)
    risk = np.asarray(risk, dtype=float)
    ci = None if np.isnan(risk).all() else c_index(risk, labels)
    return Metrics(
        rmse=rmse,
        mae=mae,
        c_index=ci,
        n_evaluated=int(labels.observed.sum()),
        n_saturated=int(np.asarray(saturated, dtype=bool).sum()),
    )


def format_metrics(name: str, m: Metrics) -> str:
    ci = "nan" if m.c_index is None else repr(m.c_index)
    return f"{name},{m.rmse!r},{m.mae!r},{ci},{m.n_evaluated},{m.n_saturated}"


METRICS_HEADER = "method,rmse,mae,c_index,n_evaluated,n_saturated"


def cross_validate(
    train: Corpus,
    grid,
    folds: int,
    seed: int,
    base_config: SawConfig | None = None,
    fitter=None,
) -> tuple[CvResult, SawModel]:
    """Seeded K-fold selection of (k, lam, alpha) minimizing held-out RMSE
    of the predicted median, then a refit on the full training corpus.

    A repeated cell is refused, and every cell's config is built, and so
    checked, before any fit starts. Cells that fail on any fold (e.g. k
    larger than the usable vocabulary) are excluded from selection, with one
    warning per cell naming its lowest failing fold, logged as that fold's
    result arrives, and the run continues.
    Ties on mean RMSE go to the lexicographically smallest cell. A winner
    on the smallest or largest k or lam of the grid is logged as a warning.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    base = base_config if base_config is not None else SawConfig()
    cell_configs = [replace(base, k=k, lam=float(lam), alpha=float(alpha))
                    for k, lam, alpha in grid]
    cells = [(c.k, c.lam, c.alpha) for c in cell_configs]
    if not cells:
        raise ValueError("empty hyperparameter grid")
    repeated = next((c for i, c in enumerate(cells) if c in cells[:i]), None)
    if repeated is not None:
        raise ValueError(f"grid cell (k, lam, alpha) = {repeated} appears more than once")
    configs = [replace(c, seed=derive_seed(seed, f"cv-cell{ci}-fold{f}"))
               for ci, c in enumerate(cell_configs) for f in range(folds)]
    fit = fitter if fitter is not None else fit_saw
    n = train.n_docs
    perm = np.random.default_rng(derive_seed(seed, "cv-folds")).permutation(n)
    fold_of = np.empty(n, dtype=int)
    for f, chunk in enumerate(np.array_split(perm, folds)):
        fold_of[chunk] = f
    for f in range(folds):
        if not train.labels.observed[fold_of == f].any():
            raise ValueError(f"fold {f} has no observed events; use fewer folds")

    if not design_is_dense(train):  # a CSC design: load scipy.sparse once, not in each worker
        import scipy.sparse  # noqa: F401
    outcomes = forked_imap(partial(_fold_rmse, train, fit, fold_of),
                           zip(configs, list(range(folds)) * len(cells)))
    scores = np.full((len(cells), folds), np.nan)
    failed = np.zeros(len(cells), dtype=bool)
    for i, outcome in enumerate(outcomes):  # in order: a cell's lowest failing fold first
        ci, f = divmod(i, folds)
        if failed[ci]:
            continue
        if isinstance(outcome, str):
            failed[ci] = True
            scores[ci] = np.nan
            log.warning("cv cell %s failed on fold %d: %s", cells[ci], f, outcome)
        else:
            scores[ci, f] = outcome

    valid = ~np.isnan(scores).any(axis=1)
    if not valid.any():
        raise RuntimeError("every grid cell failed during cross-validation")
    means = scores.mean(axis=1)
    ranked = sorted(
        (i for i in range(len(cells)) if valid[i]),
        key=lambda i: (means[i], cells[i]),
    )
    best = cells[ranked[0]]
    edges = []
    for axis, name in enumerate(("k", "lam")):
        values = sorted({c[axis] for c in cells})
        if len(values) >= 2 and best[axis] in (values[0], values[-1]):
            side = "smallest" if best[axis] == values[0] else "largest"
            edges.append(f"{name} = {best[axis]} is the {side} value tried")
    if edges:
        log.warning("cv best cell %s lies on the edge of the grid (%s); "
                    "consider widening it", best, "; ".join(edges))
    final_cfg = replace(base, k=best[0], lam=best[1], alpha=best[2],
                        seed=derive_seed(seed, "cv-refit"))
    final = fit(train, final_cfg)
    result = CvResult(tuple(cells), scores, best, fold_of)
    return result, final


def _fold_rmse(train: Corpus, fit, fold_of: np.ndarray, cfg: SawConfig, f: int) -> float | str:
    """Fit on every fold but ``f`` and score on ``f``: the held-out RMSE, or
    the failure message."""
    va = np.flatnonzero(fold_of == f)
    try:
        model = fit(subset(train, np.flatnonzero(fold_of != f)), cfg)
        preds = predict(model, subset(train, va))
        return rmse_mae(preds.median, train.labels.subset(va))[0]
    except Exception as exc:
        return str(exc)
