"""Shared brute-force oracles for the test suite.

These stay deliberately independent of the library's own code paths: pair
enumeration for concordance, LP-based convex hull membership, central finite
differences, exhaustive simplex grids, a one-row-at-a-time solver of the
simplex KL subproblem and the batched exponentiated-gradient kernel that
solved it before the Newton kernel (references for the Newton kernel and
for the coupled theta half-step), a one-patient-at-a-time median survival
time as a reference for the vectorised one, the Cox partial likelihood and
its gradient as functions of beta (on the library's risk sets; the
finite-difference and convexity tests check them) and in eta, from suffix
sums of their own in the log domain, as a reference for the one-pass
risk-set term, the dense Breslow Hessian in eta as a reference for its
product, the coupled Frank-Wolfe gap of the theta subproblem from a dense
design, the joint objective recomputed from scratch as a reference for
the values a saw fit traces, scipy's sparse product as a reference for
the blocked co-occurrence sum, a row-at-a-time event parser and corpus
builder as a reference for the columnar ones, the variance-of-frequency
word filter from sparse matrix products as a reference for the bincount
one, the analytic word-topic posterior of a planted topic matrix, and a
seeded generator per test tag. ``load_rows`` reads event lines through
the one event reader, ``load_events``, from a temporary file, and
``build_rows`` builds a corpus from event lines and a label set through
the one ingest entry, ``build_corpus``, from two temporary files.
``csc_arrays`` and
``dense`` convert between a count matrix and the CSC arrays a ``Corpus``
is built from, and ``dense_view`` reads a design in either layout of
``normalize_columns`` as a dense array.
"""

import logging
import math
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from sawtopics import corpus as columnar
from sawtopics.cooccur import CooccurrenceStats, row_normalize
from sawtopics.corpus import (Corpus, EventParseError, Events, IngestConfig, SurvivalLabels,
                              Vocabulary, load_events, load_labels)
from sawtopics.saw import _check_feasible
from sawtopics.seeding import derive_seed
from sawtopics.survival import RiskSets, elastic_net_penalty
from sawtopics.topics import LOG_FLOOR, doc_topic_features, kl_divergence, sum_plogp


def csc_arrays(counts):
    """The canonical CSC arrays ``(data, indices, indptr)`` of a dense or
    scipy d x n count matrix, the form ``Corpus`` takes."""
    matrix = sparse.csc_matrix(counts, copy=True)
    matrix.sum_duplicates()
    return matrix.data, matrix.indices, matrix.indptr


def dense(corpus: Corpus) -> np.ndarray:
    """The d x n counts of ``corpus`` as a dense array."""
    return sparse.csc_matrix((corpus.data, corpus.indices, corpus.indptr),
                             shape=(corpus.n_words, corpus.n_docs)).toarray()


def make_corpus(counts, times=None, observed=None, words=None):
    counts = np.asarray(counts)
    d, n = counts.shape
    if words is None:
        words = tuple(f"w{i:03d}" for i in range(d))
    times = np.ones(n) if times is None else np.asarray(times, dtype=float)
    observed = np.ones(n, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    pids = tuple(f"p{i:03d}" for i in range(n))
    return Corpus(csc_arrays(counts), Vocabulary(tuple(words)),
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


def eg_simplex_kl(
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
    plogp = sum_plogp(P)
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


def predict_median(model, z):
    """Smallest baseline time where predicted survival drops to <= 0.5.

    If the survival curve never reaches 0.5, returns the largest baseline
    time with the saturated flag set.
    """
    base = model.baseline
    if base is None or base.times.size == 0:
        raise ValueError("model has no baseline hazard")
    eta = float(np.dot(model.beta, np.asarray(z, dtype=float)))
    with np.errstate(over="ignore"):
        surv = np.exp(-base.cum_hazard * np.exp(eta))
    hit = np.flatnonzero(surv <= 0.5)
    if hit.size:
        return float(base.times[hit[0]]), False
    return float(base.times[-1]), True


def cox_nll(beta: np.ndarray, Z: np.ndarray, labels: SurvivalLabels) -> float:
    """Sum over observed events of (-beta.z_i + log sum_{Y_j >= Y_i} exp(beta.z_j))."""
    Z = np.asarray(Z, dtype=float)
    return RiskSets(labels).partial_likelihood(Z @ np.asarray(beta, dtype=float))[0]


def cox_gradient(beta: np.ndarray, Z: np.ndarray, labels: SurvivalLabels) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    rs = RiskSets(labels)
    return Z.T @ rs.partial_likelihood(Z @ np.asarray(beta, dtype=float))[1]()


def log_risk_totals(labels: SurvivalLabels, eta: np.ndarray) -> np.ndarray:
    """Per patient i, the log of the total exp(eta) over everyone with
    Y >= Y_i: a running logaddexp in decreasing time, read at the last
    patient of i's tie group."""
    order = np.argsort(-labels.times, kind="stable")
    neg_y = -labels.times[order]
    acc = np.logaddexp.accumulate(np.asarray(eta, dtype=float)[order])
    out = np.empty(neg_y.size)
    out[order] = acc[np.searchsorted(neg_y, neg_y, side="right") - 1]
    return out


def log_domain_nll(labels: SurvivalLabels, eta: np.ndarray) -> float:
    """Negative Cox partial log likelihood at eta, summed in the log domain."""
    r = labels.observed
    return float(np.sum(log_risk_totals(labels, eta)[r]) - np.sum(np.asarray(eta)[r]))


def log_domain_eta_gradient(labels: SurvivalLabels, eta: np.ndarray) -> np.ndarray:
    """Gradient of the partial likelihood in eta: for patient i, exp(eta_i)
    over each risk-set total of an event at or before Y_i, summed in the
    log domain, less 1 for an event."""
    y, r = labels.times, labels.observed
    by_time = np.argsort(y[r], kind="stable")
    log_cum = np.logaddexp.accumulate(-log_risk_totals(labels, eta)[r][by_time])
    seen = np.searchsorted(y[r][by_time], y, side="right")  # events at or before each Y
    log_w = np.where(seen > 0, log_cum[np.maximum(seen - 1, 0)], -np.inf)
    return np.exp(np.asarray(eta, dtype=float) + log_w) - r


def breslow_hessian(labels: SurvivalLabels, eta: np.ndarray) -> np.ndarray:
    """The dense n x n Hessian of the partial likelihood in eta, summed
    over the distinct event times from the risk sets spelled out (everyone
    with Y >= t), with each risk set's shares of exp(eta) taken in the log
    domain, shifted by the set's maximum so that a dominant share keeps its
    last bits: O(n^2) memory, for small n only."""
    y, r = labels.times, labels.observed
    eta = np.asarray(eta, dtype=float)
    H = np.zeros((y.size, y.size))
    for t in np.unique(y[r]):
        at_risk = y >= t
        logits = np.where(at_risk, eta - eta[at_risk].max(), -np.inf)
        pi = np.exp(logits - np.logaddexp.reduce(logits))
        H += np.sum(r & (y == t)) * (np.diag(pi) - np.outer(pi, pi))
    return H


def coupled_gap(theta, beta, Qbar, X, labels: SurvivalLabels, anchors) -> float:
    """The Frank-Wolfe gap of the theta subproblem (KL over the free rows
    plus the Cox partial likelihood of X^T theta beta), summed over the
    free rows, from a dense word x document design X and the log-domain
    eta gradient."""
    aidx = np.asarray(anchors.indices, dtype=int)
    free = np.setdiff1d(np.arange(theta.shape[0]), aidx)
    th, P, B = theta[free], Qbar[free], Qbar[aidx]
    X = np.asarray(X, dtype=float)
    g_eta = log_domain_eta_gradient(labels, X.T @ (theta @ beta))
    G = -(P / np.maximum(th @ B, LOG_FLOOR)) @ B.T + np.outer(X[free] @ g_eta, beta)
    return float(np.sum(np.sum(th * G, axis=1) - G.min(axis=1)))


def joint_objective(theta, beta, stats, Xbar, labels: SurvivalLabels, anchors, lam: float,
                    alpha: float) -> float:
    """KL representation cost over non-anchor words + Cox partial likelihood
    on topic features + elastic-net penalty, at a feasible theta: the value
    ``fit_saw`` records after each half-step, computed here from scratch."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _check_feasible(theta, anchors)
    eta = doc_topic_features(theta, Xbar) @ beta
    aidx = np.asarray(anchors.indices, dtype=int)
    terms = kl_divergence(stats.Qbar, theta @ stats.Qbar[aidx])
    terms[aidx] = 0.0  # an anchor row is its own topic
    kl = float(terms.sum())
    return kl + labels.risk_sets.partial_likelihood(eta)[0] + elastic_net_penalty(beta, lam, alpha)


def cooccurrence_reference(corpus: Corpus) -> CooccurrenceStats:
    """``build_cooccurrence`` as scipy's sparse product X diag(w) X^T, with
    w = 1 / (m (m - 1)), less the dense diagonal correction: the reference
    for the blocked dense form."""
    m = corpus.doc_lengths.astype(float)
    X = sparse.csc_matrix((corpus.data.astype(np.float64), corpus.indices, corpus.indptr),
                          shape=(corpus.n_words, corpus.n_docs))
    w = 1.0 / (m * (m - 1.0))
    S = (X @ sparse.diags(w) @ X.T).toarray()
    Q = (S - np.diag(X @ w)) / corpus.n_docs
    Q = 0.5 * (Q + Q.T)
    p = Q.sum(axis=1)
    return CooccurrenceStats(p, row_normalize(Q, p), np.flatnonzero(p <= 0))


def dense_view(X) -> np.ndarray:
    """A design in either layout (dense array or scipy sparse) as a dense array."""
    return X.toarray() if sparse.issparse(X) else np.asarray(X)


def version_refused(kind: str, version, path, command: str, current: int) -> str:
    """The regex of the exact message that refuses a ``kind`` file at
    ``path`` of another version than ``current``, which ``command`` writes."""
    return (f"^unsupported {kind} version {version}: {re.escape(str(path))}; "
            f"`sawtopics {command}` writes version {current}$")


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write ``lines`` joined by "\\n" as they are (no newline translation;
    a lone surrogate as the byte it escapes)."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write("\n".join(lines))


def _read_lines(reader, lines: Iterable[str], *args):
    """``reader(path, *args)`` of ``lines`` written to a file in a temporary
    directory, removed on return."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        _write_lines(path, lines)
        return reader(path, *args)


def load_rows(lines: Iterable[str], cutoff: float | None = None) -> Events:
    """``load_events(path, cutoff)`` of ``lines`` written to a file."""
    return _read_lines(load_events, lines, cutoff)


def load_label_rows(lines: Iterable[str]) -> dict[str, tuple[float, bool]]:
    """``load_labels(path)`` of ``lines`` written to a file."""
    return _read_lines(load_labels, lines)


def label_lines(labels: Mapping[str, tuple[float, bool]]) -> list[str]:
    """The rows of a label file that ``load_labels`` reads as ``labels``."""
    return [f"{p},{y!r},{int(r)}" for p, (y, r) in labels.items()]


def build_rows(lines: Iterable[str], labels: Mapping[str, tuple[float, bool]],
               cfg: IngestConfig | None = None, vocabulary: Vocabulary | None = None) -> Corpus:
    """``build_corpus(events_path, labels_path, cfg, vocabulary)`` of the
    event ``lines`` and of ``labels`` (patient id -> (time, observed)),
    each written to a file in a temporary directory, removed on return."""
    with tempfile.TemporaryDirectory() as tmp:
        events, label_file = os.path.join(tmp, "rows.csv"), os.path.join(tmp, "labels.csv")
        _write_lines(events, lines)
        _write_lines(label_file, label_lines(labels))
        return columnar.build_corpus(events, label_file, cfg, vocabulary)


# Row-at-a-time ingest: the reference for corpus.load_events/build_corpus.

log = logging.getLogger("sawtopics.corpus")


@dataclass(frozen=True)
class EventRecord:
    patient_id: str
    time: float
    event: str
    event_value: str


def _try_float(s: str) -> float | None:
    try:
        return float(s)
    except (TypeError, ValueError):
        return None


def _is_number(s: str) -> bool:
    v = _try_float(s)
    return v is not None and math.isfinite(v)


def ingest_events(rows: Iterable[str], delimiter: str | None = None) -> list[EventRecord]:
    """Parse delimiter-separated 4-column event rows.

    The delimiter is sniffed per row (tab wins over comma) unless given. A
    single header row at the top is tolerated when both its time and
    event_value fields are non-numeric; any other row with an unparseable
    time is an error carrying the row number. Empty input yields an empty
    list.
    """
    records: list[EventRecord] = []
    for rownum, raw in enumerate(rows, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        sep = delimiter if delimiter is not None else ("\t" if "\t" in line else ",")
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 4:
            raise EventParseError(rownum, f"expected 4 fields, got {len(fields)}")
        pid, time_s, event, value = fields
        time = _try_float(time_s)
        if time is None:
            if rownum == 1 and not records and _try_float(value) is None:
                continue  # header row
            raise EventParseError(rownum, f"unparseable time {time_s!r}")
        if not math.isfinite(time) or time < 0:
            raise EventParseError(rownum, f"time must be finite and >= 0, got {time_s!r}")
        if not event:
            raise EventParseError(rownum, "empty event name")
        records.append(EventRecord(pid, time, event, value))
    return records


def _bin_word(event: str, edges: tuple[float, ...], value: float) -> str:
    # value equal to a cut point goes to the lower bin
    j = int(np.searchsorted(np.asarray(edges), value, side="left"))
    return f"{event}:bin{j + 1}"


def _word_for(rec: EventRecord, bin_edges: Mapping[str, tuple[float, ...]]) -> str | None:
    if rec.event in bin_edges:
        value = _try_float(rec.event_value)
        if value is None:  # non-numeric value for a binned event: no word
            return None
        return _bin_word(rec.event, bin_edges[rec.event], value)
    return f"{rec.event}={rec.event_value}"


def build_corpus(
    events: Iterable[EventRecord],
    labels: Mapping[str, tuple[float, float]],
    cfg: IngestConfig | None = None,
    vocabulary: Vocabulary | None = None,
) -> Corpus:
    """Assemble a Corpus from event records and per-patient labels.

    Continuous events (all values numeric) are discretized into
    equal-frequency bins computed from the retained values; categorical
    values become words verbatim. Words below the document-frequency floor
    are removed, then patients left with fewer than 2 tokens are dropped
    (the co-occurrence estimator needs length >= 2) and the drop is logged.

    Passing a prebuilt ``vocabulary`` skips vocabulary construction and
    filtering: tokens not in it are ignored, supporting train-only
    vocabularies and scoring new patients against a fitted model.
    """
    cfg = cfg or IngestConfig()
    cut = cfg.cutoff
    events = list(events)
    if not events:
        raise ValueError("no event rows")
    kept = [e for e in events if cut is None or e.time < cut]
    if not kept:
        raise ValueError("no events remain after cutoff filtering")

    pids = sorted({e.patient_id for e in kept})
    missing = sorted(p for p in pids if p not in labels)
    if missing:
        raise ValueError(f"{len(missing)} patient(s) with events but no label: "
                         + ", ".join(missing[:10]))
    pid_col = {p: i for i, p in enumerate(pids)}
    n = len(pids)

    if vocabulary is None:
        by_event: dict[str, list[str]] = {}
        for e in kept:
            by_event.setdefault(e.event, []).append(e.event_value)
        bin_edges: dict[str, tuple[float, ...]] = {}
        for ev in sorted(by_event):
            vals = by_event[ev]
            if vals and all(_is_number(v) for v in vals):
                b = int(cfg.bins)
                if b < 1:
                    raise ValueError(f"bin count for event {ev!r} must be >= 1")
                arr = np.array([float(v) for v in vals], dtype=float)
                qs = np.arange(1, b) / b
                bin_edges[ev] = tuple(float(x) for x in np.quantile(arr, qs)) if b > 1 else ()
        tokens = [(w, pid_col[e.patient_id]) for e in kept
                  if (w := _word_for(e, bin_edges)) is not None]
        cand_words = sorted({w for w, _ in tokens})
        widx = {w: i for i, w in enumerate(cand_words)}
        counts = _counts_matrix([(widx[w], c) for w, c in tokens], len(cand_words), n)

        doc_freq = np.asarray((counts != 0).sum(axis=1)).ravel()
        keep_w = doc_freq >= cfg.min_doc_freq
        if cfg.min_variance is not None:
            keep_w &= frequency_variance(counts) >= cfg.min_variance
        if not keep_w.any():
            raise ValueError("no words survive filtering; relax min_doc_freq or filters")
        counts = counts[np.flatnonzero(keep_w)]
        vocab = Vocabulary(tuple(w for w, k in zip(cand_words, keep_w) if k), bin_edges)
    else:
        vocab = vocabulary
        trips = []
        for e in kept:
            word = _word_for(e, vocab.bin_edges)
            w = vocab.index.get(word) if word is not None else None
            if w is not None:
                trips.append((w, pid_col[e.patient_id]))
        counts = _counts_matrix(trips, len(vocab), n)

    m = np.asarray(counts.sum(axis=0)).ravel()
    keep_p = m >= 2
    if not keep_p.all():
        dropped = [p for p, k in zip(pids, keep_p) if not k]
        log.warning(
            "dropping %d patient(s) with fewer than 2 retained tokens: %s",
            len(dropped), ", ".join(dropped[:20]) + ("..." if len(dropped) > 20 else ""),
        )
    if not keep_p.any():
        raise ValueError("no patients remain with at least 2 retained tokens")
    cols = np.flatnonzero(keep_p)
    counts = counts[:, cols]
    final_pids = tuple(pids[i] for i in cols)
    y = np.array([float(labels[p][0]) for p in final_pids])
    r = np.array([bool(labels[p][1]) for p in final_pids])
    return Corpus(csc_arrays(counts), vocab, SurvivalLabels(y, r), final_pids)


def frequency_variance(counts: sparse.csc_matrix) -> np.ndarray:
    """Variance across documents of each word's per-document normalized
    frequency, from sparse matrix products."""
    m = np.asarray(counts.sum(axis=0)).ravel().astype(float)
    m = np.maximum(m, 1.0)
    n = counts.shape[1]
    F = counts.astype(float) @ sparse.diags(1.0 / m)
    s1 = np.asarray(F.sum(axis=1)).ravel()
    s2 = np.asarray(F.multiply(F).sum(axis=1)).ravel()
    return s2 / n - (s1 / n) ** 2


def _counts_matrix(tokens: list[tuple[int, int]], d: int, n: int) -> sparse.csc_matrix:
    if tokens:
        rows = np.array([t[0] for t in tokens], dtype=np.int64)
        cols = np.array([t[1] for t in tokens], dtype=np.int64)
        data = np.ones(len(tokens), dtype=np.int64)
    else:
        rows = cols = data = np.empty(0, dtype=np.int64)
    return sparse.coo_matrix((data, (rows, cols)), shape=(d, n)).tocsc()


def bayes_topic_posterior(A: np.ndarray, topic_weights: np.ndarray | None = None) -> np.ndarray:
    """Invert the Bayes step: posterior theta from a word-topic matrix and
    topic weights (uniform when omitted)."""
    A = np.asarray(A, dtype=float)
    k = A.shape[1]
    wgt = np.full(k, 1.0 / k) if topic_weights is None else np.asarray(topic_weights, dtype=float)
    joint = A * wgt[None, :]
    row = joint.sum(axis=1)
    if np.any(row <= 0):
        raise ValueError("word with zero probability under every topic")
    return joint / row[:, None]


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, tag))
