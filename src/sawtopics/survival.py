"""Survival labels, risk sets, and Cox proportional hazards with
elastic-net regularization.

One risk-set rule serves every estimator (Breslow): the risk set at time t
is every patient with Y >= t, ties included, so a patient censored at t is
still at risk at t. Each label set builds its time order and tie groups
once, as ``SurvivalLabels.risk_sets``, and ``RiskSets.partial_likelihood``
takes the Cox value, gradient and Hessian product from one suffix-sum pass
over them. The Cox fitter is proximal gradient
with a halving line search and soft-thresholding, so the penalized
objective never increases across accepted steps; every fit carries its
Breslow baseline hazard, from which ``predict_median`` reads the medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Smallest max-shifted risk-set sum the plain-domain pass accepts: above it,
# terms lost to underflow (< 1e-308) each weigh below 1e-158, and S**2 is normal.
_SAFE_RISK_SUM = 1e-150


@dataclass(frozen=True, eq=False)
class SurvivalLabels:
    """Per-patient time Y (> 0, days) and event indicator R.

    ``observed[i]`` False means ``times[i]`` is a censoring time, a lower
    bound on the true duration.
    """

    times: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observed", observed)
        if times.ndim != 1 or observed.shape != times.shape:
            raise ValueError("times and observed must be 1-d and aligned")
        if times.size and not np.all(times > 0):
            raise ValueError("survival times must be positive")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(self.observed.sum())

    @cached_property
    def risk_sets(self) -> "RiskSets":
        """The labels' time order and tie groups, built on first use."""
        return RiskSets(self)

    def subset(self, indices) -> "SurvivalLabels":
        idx = np.asarray(indices, dtype=int)
        return SurvivalLabels(self.times[idx], self.observed[idx])


@dataclass(frozen=True, eq=False)
class BaselineHazard:
    """Step-function cumulative baseline hazard at distinct event times."""

    times: np.ndarray
    cum_hazard: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        h = np.asarray(self.cum_hazard, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "cum_hazard", h)
        if t.shape != h.shape or t.ndim != 1:
            raise ValueError("times and cum_hazard must be aligned 1-d arrays")
        if np.isnan(t).any() or np.any(np.diff(t) <= 0):
            raise ValueError("baseline times must be strictly increasing")
        if np.isnan(h).any() or (h.size and (h[0] < 0 or np.any(np.diff(h) < 0))):
            raise ValueError("cumulative hazard must be nonnegative and non-decreasing")


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    times: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.survival, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "survival", s)
        if t.shape != s.shape:
            raise ValueError("times and survival must be aligned")
        if s.size and (np.any(s < 0) or np.any(s > 1) or np.any(np.diff(s) > 1e-12)):
            raise ValueError("survival values must be non-increasing within [0, 1]")


@dataclass(frozen=True, eq=False)
class CoxModel:
    """Cox coefficients and their Breslow baseline hazard; the penalty of the
    fit is kept by their owner (``SawModel.config``, ``EncoxModel``)."""

    beta: np.ndarray
    baseline: BaselineHazard

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", b)
        if not np.all(np.isfinite(b)):
            raise ValueError("coefficients must be finite")


class RiskSets:
    """One label set's time order and tie groups, shared by every estimator.

    Sorted by time (stable), ``first``/``last`` give each position's tie
    group bounds, so a suffix sum starting at ``first`` covers the risk set.
    ``event_times`` are the distinct event times in increasing order,
    ``event_counts`` the number of events at each, and ``risk_start`` the
    sorted position where each one's risk set starts.
    """

    def __init__(self, labels: SurvivalLabels):
        if not np.any(labels.observed):
            raise ValueError("no observed events")
        y = labels.times
        order = np.argsort(y, kind="stable")
        self.n = y.size
        self.order = order
        self.rank = np.argsort(order)  # each patient's sorted position
        self.y = y[order]
        self.events = labels.observed[order]
        self.first = np.searchsorted(self.y, self.y, side="left")
        self.last = np.searchsorted(self.y, self.y, side="right") - 1
        self.risk_start, self.event_counts = np.unique(self.first[self.events],
                                                       return_counts=True)
        self.event_times = self.y[self.risk_start]
        self.n_events = int(self.event_counts.sum())

    def partial_likelihood(self, eta: np.ndarray):
        """Negative Cox partial log likelihood at linear predictor eta
        (original patient order), a thunk for its gradient in eta and a
        thunk x -> H x for its Hessian H in eta, all from one pass: the
        max-shifted exponentials e in time order and their suffix sums S.

        Patient i's weight w_i is the sum, over the event times whose risk
        set holds i, of the event count over S. The gradient is e w less 1
        for an event. H is, per event time, its count times diag(pi) -
        pi pi^T, pi the risk set's shares of e: its diagonal is e w, and a
        product takes O(n). When some event's S falls to ``_SAFE_RISK_SUM``
        or below (eta spread by hundreds), every sum is taken in the log
        domain instead.
        """
        es = np.asarray(eta, dtype=float)[self.order]
        c = es.max()
        e = np.exp(es - c)
        s0 = np.cumsum(e[::-1])[::-1]
        start, count = self.risk_start, self.event_counts

        def over_events(values, accumulate=np.cumsum, empty=0.0):
            out = np.full(self.n, empty)  # accumulated over the event times
            out[start] = values           # whose risk set holds each position
            return accumulate(out)[self.last]

        if s0[start].min() > _SAFE_RISK_SUM:
            log_s = np.log(s0[start])
            ew = cache(lambda: e * over_events(count / s0[start]))  # e w, on first use

            def product(xs):
                s1 = np.cumsum((e * xs)[::-1])[::-1][start]
                return ew() * xs - e * over_events(count * s1 / s0[start] ** 2)
        else:
            lae = np.logaddexp.accumulate
            log_s = lae((es - c)[::-1])[::-1][start]
            log_w = np.log(count) - log_s
            ew = cache(lambda: np.exp(es - c + over_events(log_w, lae, -np.inf)))

            def product(xs):
                xs = xs - xs.min()  # H annihilates constants; now log(xs) is real
                with np.errstate(divide="ignore"):
                    log_s1 = lae((es - c + np.log(xs))[::-1])[::-1][start]
                return ew() * xs - np.exp(es - c + over_events(log_w + log_s1 - log_s, lae, -np.inf))
        events = self.events.astype(float)
        value = float(log_s @ count) + c * self.n_events - float(es @ events)
        return (value, lambda: (ew() - events)[self.rank],
                lambda x: product(np.asarray(x, dtype=float)[self.order])[self.rank])


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def elastic_net_penalty(beta: np.ndarray, lam: float, alpha: float) -> float:
    beta = np.asarray(beta, dtype=float)
    return lam * (alpha * float(np.abs(beta).sum())
                  + 0.5 * (1.0 - alpha) * float(beta @ beta))


def fit_elastic_net_cox(
    Z,
    labels: SurvivalLabels,
    lam: float,
    alpha: float,
    tol: float = 1e-9,
    *,
    beta0: np.ndarray | None = None,
    max_iter: int = 10000,
) -> CoxModel:
    """Minimize the negative Cox partial log likelihood of Z @ b plus
    lam * (alpha*||b||_1 + (1-alpha)/2*||b||_2^2). Z is a dense array or a
    scipy sparse array, used as it is.

    Proximal gradient: the ridge part rides with the smooth term, the L1
    part is handled by soft-thresholding. A step is accepted only when the
    quadratic majorization holds and the penalized objective does not
    increase. Stops when the relative objective drop is at most ``tol``.
    Returns the coefficients with their Breslow baseline hazard.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    rs = labels.risk_sets
    k = Z.shape[1]
    beta = np.zeros(k) if beta0 is None else np.array(beta0, dtype=float)
    ridge = lam * (1.0 - alpha)
    l1 = lam * alpha

    def smooth(b):  # value and gradient thunk, from one risk-set pass
        value, grad, _ = rs.partial_likelihood(Z @ b)
        return value + 0.5 * ridge * float(b @ b), lambda: Z.T @ grad() + ridge * b

    f, smooth_grad = smooth(beta)
    F = f + l1 * float(np.abs(beta).sum())
    step = 1.0
    for _ in range(max_iter):
        g = smooth_grad()
        s = step
        accepted = False
        halved = False
        for _ in range(100):
            cand = _soft_threshold(beta - s * g, s * l1)
            diff = cand - beta
            with np.errstate(over="ignore"):
                f_c, grad_c = smooth(cand)
            bound = f + float(g @ diff) + float(diff @ diff) / (2.0 * s)
            if np.isfinite(f_c) and f_c <= bound + 1e-12 * max(1.0, abs(bound)):
                F_c = f_c + l1 * float(np.abs(cand).sum())
                if F_c <= F:  # strict monotonicity of the penalized objective
                    accepted = True
                    break
            s *= 0.5
            halved = True
            if s < 1e-20:
                break
        if not accepted:
            raise RuntimeError("line search diverged in elastic-net Cox fit")
        drop = F - F_c
        beta, f, F, smooth_grad = cand, f_c, F_c, grad_c
        step = s if halved else min(s * 1.5, 1e8)
        if drop <= tol * max(abs(F), 1e-12):
            break
    return CoxModel(beta, breslow_baseline(beta, Z, labels))


def breslow_baseline(beta: np.ndarray, Z, labels: SurvivalLabels) -> BaselineHazard:
    """Cumulative baseline hazard: at each distinct event time, the number
    of events there over the risk set's total exp(beta.z), a max-shifted
    sum in the log domain."""
    rs = labels.risk_sets
    es = (Z @ np.asarray(beta, dtype=float))[rs.order]
    log_s0 = np.logaddexp.accumulate((es - es.max())[::-1])[::-1][rs.risk_start] + es.max()
    inc = np.exp(np.log(rs.event_counts) - log_s0)
    return BaselineHazard(rs.event_times, np.cumsum(inc))


def predict_median(model: CoxModel, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per linear predictor eta, the smallest baseline time where predicted
    survival exp(-H * exp(eta)) drops to <= 0.5: the first step where the
    model's cumulative hazard H reaches log(2) * exp(-eta), found for all
    patients by one ``searchsorted``. Where the curve never reaches 0.5
    (a NaN eta included), returns the largest baseline time with the
    saturated flag set. The target is floored at the smallest positive
    double, so where exp(eta) is infinite a zero-hazard step is no crossing.
    """
    base = model.baseline
    if base.times.size == 0:
        raise ValueError("model has no baseline hazard")
    with np.errstate(over="ignore"):  # exp(-eta) = inf: the curve stays above 0.5
        target = np.maximum(np.log(2.0) * np.exp(-np.asarray(eta, dtype=float)), 5e-324)
    first = np.searchsorted(base.cum_hazard, target, side="left")
    return base.times[np.minimum(first, base.times.size - 1)], first == base.times.size


def kaplan_meier(labels: SurvivalLabels) -> tuple[SurvivalCurve, float, bool]:
    """Product-limit estimator; returns (curve, median, saturated_flag).

    The median is the smallest event time with survival <= 0.5; when the
    curve never reaches 0.5 the largest time is returned flagged.
    """
    if len(labels) == 0:
        raise ValueError("empty labels")
    if labels.n_events == 0:
        return SurvivalCurve(np.empty(0), np.empty(0)), float(labels.times.max()), True
    rs = labels.risk_sets
    times = rs.event_times
    surv = np.cumprod(1.0 - rs.event_counts / (rs.n - rs.risk_start))
    hit = np.flatnonzero(surv <= 0.5)
    if hit.size:
        return SurvivalCurve(times, surv), float(times[hit[0]]), False
    return SurvivalCurve(times, surv), float(times[-1]), True
