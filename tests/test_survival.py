import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import sparse

from sawtopics import survival
from sawtopics.corpus import SurvivalLabels
from sawtopics.methods import fit_encox, fit_km, load_model, predict, save_model
from sawtopics.survival import (BaselineHazard, CoxModel, RiskSets, SurvivalCurve,
                                breslow_baseline, elastic_net_penalty,
                                fit_elastic_net_cox, kaplan_meier, predict_median)

from helpers import (breslow_hessian, cox_gradient, cox_nll, fd_gradient, log_domain_eta_gradient,
                     log_domain_nll, make_corpus)
from helpers import predict_median as reference_median


def random_instance(rng, n=20, k=5, censor=0.3):
    Z = rng.standard_normal((n, k))
    y = rng.exponential(2.0, size=n) + 0.01
    r = rng.uniform(size=n) > censor
    if not r.any():
        r[0] = True
    return Z, SurvivalLabels(y, r)


class TestCoxNll:
    def test_beta_zero_all_observed(self):
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3))
        got = cox_nll(np.zeros(2), np.zeros((3, 2)), lab)
        assert np.isclose(got, np.log(3) + np.log(2) + np.log(1))

    def test_censored_patient_stays_in_risk_sets(self):
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
        got = cox_nll(np.zeros(2), np.zeros((3, 2)), lab)
        assert np.isclose(got, np.log(3) + np.log(1))

    def test_tied_times_share_risk_set(self):
        lab = SurvivalLabels(np.array([1.0, 1.0, 2.0]), np.array([True, True, True]))
        got = cox_nll(np.zeros(1), np.zeros((3, 1)), lab)
        assert np.isclose(got, 2 * np.log(3) + np.log(1))

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            Z, lab = random_instance(rng)
            beta = rng.standard_normal(5)
            c = rng.standard_normal(5)
            a = cox_nll(beta, Z, lab)
            b = cox_nll(beta, Z + c, lab)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_no_events_error(self):
        lab = SurvivalLabels(np.array([1.0, 2.0]), np.array([False, False]))
        with pytest.raises(ValueError, match="events"):
            cox_nll(np.zeros(1), np.zeros((2, 1)), lab)

    @given(hst.integers(min_value=0, max_value=2 ** 31 - 1),
           hst.floats(min_value=-50.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance_generated(self, seed, shift):
        rng = np.random.default_rng(seed)
        Z, lab = random_instance(rng, n=12, k=3)
        beta = rng.standard_normal(3)
        a = cox_nll(beta, Z, lab)
        b = cox_nll(beta, Z + shift, lab)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_convexity_probe(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            Z, lab = random_instance(rng, n=15, k=3)
            b1 = rng.standard_normal(3)
            b2 = rng.standard_normal(3)
            t = rng.uniform(0.05, 0.95)
            lhs = cox_nll(t * b1 + (1 - t) * b2, Z, lab)
            rhs = t * cox_nll(b1, Z, lab) + (1 - t) * cox_nll(b2, Z, lab)
            assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))

    def test_extreme_beta_stays_finite(self):
        rng = np.random.default_rng(2)
        Z, lab = random_instance(rng, n=10, k=2)
        assert np.isfinite(cox_nll(np.array([500.0, -500.0]), Z, lab))

    def test_extreme_beta_never_negative(self):
        # each event's risk set contains the event itself, so every term is
        # >= 0; a suffix-sum underflow would fake a -inf objective here
        Z = np.array([[1.0], [0.0], [0.5], [0.2]])
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=bool))
        for b in (1e3, 1e4, -1e4):
            v = cox_nll(np.array([b]), Z, lab)
            assert np.isfinite(v) and v >= -1e-9
        g = RiskSets(lab).partial_likelihood(Z @ np.array([1e4]))[1]()
        assert np.all(np.isfinite(g))


class TestCoxGradient:
    def test_single_event_uniform_weights(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 3))
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([True, False, False, False]))
        g = cox_gradient(np.zeros(3), Z, lab)
        assert np.allclose(g, -Z[0] + Z.mean(axis=0))

    def test_identical_rows_zero_gradient(self):
        Z = np.tile(np.array([1.0, -2.0]), (6, 1))
        lab = SurvivalLabels(np.arange(1.0, 7.0), np.ones(6, dtype=bool))
        assert np.abs(cox_gradient(np.array([0.3, 0.7]), Z, lab)).max() <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            Z, lab = random_instance(rng, n=20, k=5, censor=0.3)
            beta = rng.standard_normal(5) * 0.5
            g = cox_gradient(beta, Z, lab)
            fd = fd_gradient(lambda b: cox_nll(b, Z, lab), beta, h=1e-5)
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / denom <= 1e-5

    def test_matches_finite_differences_with_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            Z = rng.standard_normal((15, 4))
            y = np.round(rng.uniform(0.5, 3.0, 15)) + 1.0  # heavy ties
            r = rng.uniform(size=15) > 0.3
            if not r.any():
                r[0] = True
            lab = SurvivalLabels(y, r)
            beta = rng.standard_normal(4)
            g = cox_gradient(beta, Z, lab)
            fd = fd_gradient(lambda b: cox_nll(b, Z, lab), beta)
            assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-5


class TestFitElasticNetCox:
    def test_huge_l1_gives_exact_zero(self):
        rng = np.random.default_rng(5)
        Z, lab = random_instance(rng)
        model = fit_elastic_net_cox(Z, lab, lam=1e6, alpha=1.0)
        assert np.array_equal(model.beta, np.zeros(5))

    def test_unpenalized_stationarity(self):
        rng = np.random.default_rng(6)
        Z, lab = random_instance(rng, n=25, k=3)
        tol = 1e-8
        scale = max(1.0, np.abs(cox_gradient(np.zeros(3), Z, lab)).max())
        model = fit_elastic_net_cox(Z, lab, lam=0.0, alpha=1.0, tol=0.0, max_iter=200000)
        assert np.abs(cox_gradient(model.beta, Z, lab)).max() <= 10 * tol * scale

    def test_ridge_symmetry_on_duplicated_column(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((30, 1))
        Z = np.hstack([z, z, rng.standard_normal((30, 1))])
        y = rng.exponential(1.0, 30) + 0.01
        lab = SurvivalLabels(y, np.ones(30, dtype=bool))
        model = fit_elastic_net_cox(Z, lab, lam=0.5, alpha=0.0, tol=0.0, max_iter=200000)
        assert abs(model.beta[0] - model.beta[1]) <= 1e-6

    def test_objective_monotone_and_warm_start(self):
        rng = np.random.default_rng(8)
        Z, lab = random_instance(rng, n=30, k=4)

        def objective(b):
            return cox_nll(b, Z, lab) + elastic_net_penalty(b, 0.2, 0.5)

        cold = fit_elastic_net_cox(Z, lab, lam=0.2, alpha=0.5, tol=1e-12)
        warm = fit_elastic_net_cox(Z, lab, lam=0.2, alpha=0.5, tol=1e-12,
                                   beta0=cold.beta)
        assert objective(warm.beta) <= objective(cold.beta) + 1e-10

    def test_objective_non_increasing_across_steps(self):
        # the iteration path is deterministic, so fits truncated at
        # max_iter = 1..N are prefixes of one trajectory; the objective
        # along it must never increase
        rng = np.random.default_rng(15)
        Z, lab = random_instance(rng, n=25, k=4)

        def objective(b):
            return cox_nll(b, Z, lab) + elastic_net_penalty(b, 0.3, 0.7)

        values = []
        for iters in range(1, 30):
            m = fit_elastic_net_cox(Z, lab, lam=0.3, alpha=0.7, tol=1e-16, max_iter=iters)
            values.append(objective(m.beta))
        assert np.all(np.diff(values) <= 1e-12)

    def test_sparsity_path_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        Z, lab = random_instance(rng, n=40, k=6, censor=0.2)
        nnz = []
        for lam in (0.001, 0.01, 0.1, 1.0, 10.0, 100.0):
            m = fit_elastic_net_cox(Z, lab, lam=lam, alpha=1.0, tol=1e-12)
            nnz.append(int((np.abs(m.beta) > 1e-10).sum()))
        assert all(a >= b for a, b in zip(nnz, nnz[1:]))
        assert nnz[-1] == 0

    def test_sparse_design_matches_dense(self):
        rng = np.random.default_rng(11)
        Z = sparse.random(300, 40, density=0.1, format="csr", random_state=rng)
        lab = random_instance(rng, n=300)[1]
        fit_sparse = fit_elastic_net_cox(Z, lab, lam=0.01, alpha=0.5)
        fit_dense = fit_elastic_net_cox(Z.toarray(), lab, lam=0.01, alpha=0.5)
        assert np.count_nonzero(fit_dense.beta) > 0
        assert np.abs(fit_sparse.beta - fit_dense.beta).max() <= 1e-12
        assert np.array_equal(fit_sparse.baseline.times, fit_dense.baseline.times)

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_every_fit_carries_its_breslow_baseline(self, form):
        rng = np.random.default_rng(16)
        Z = sparse.random(80, 6, density=0.4, format="csc", random_state=rng)
        Z = Z if form == "sparse" else Z.toarray()
        lab = random_instance(rng, n=80)[1]
        fit = fit_elastic_net_cox(Z, lab, lam=0.05, alpha=0.5)
        want = breslow_baseline(fit.beta, Z, lab)
        assert np.array_equal(fit.baseline.times, want.times)
        assert np.array_equal(fit.baseline.cum_hazard, want.cum_hazard)

    def test_invalid_params(self):
        rng = np.random.default_rng(10)
        Z, lab = random_instance(rng)
        with pytest.raises(ValueError):
            fit_elastic_net_cox(Z, lab, lam=-1.0, alpha=0.5)
        with pytest.raises(ValueError):
            fit_elastic_net_cox(Z, lab, lam=1.0, alpha=1.5)


class TestBreslowBaseline:
    def test_two_events(self):
        lab = SurvivalLabels(np.array([1.0, 2.0]), np.array([True, True]))
        bh = breslow_baseline(np.zeros(1), np.zeros((2, 1)), lab)
        assert bh.times.tolist() == [1.0, 2.0]
        assert np.allclose(bh.cum_hazard, [0.5, 1.5])

    def test_tied_events(self):
        lab = SurvivalLabels(np.array([1.0, 1.0]), np.array([True, True]))
        bh = breslow_baseline(np.zeros(1), np.zeros((2, 1)), lab)
        assert bh.times.tolist() == [1.0]
        assert np.allclose(bh.cum_hazard, [1.0])

    def test_nondecreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            Z, lab = random_instance(rng, n=25, k=3)
            bh = breslow_baseline(rng.standard_normal(3), Z, lab)
            assert bh.cum_hazard[0] >= 0
            assert np.all(np.diff(bh.cum_hazard) >= 0)


def tied_instance(seed, n=60, k=3):
    """Times on a grid of 8 days, so most share a tie group, and patients
    censored on days where others have events."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k))
    y = rng.integers(1, 9, n).astype(float)
    r = rng.uniform(size=n) > 0.3
    mixed = [t for t in np.unique(y) if r[y == t].any() and not r[y == t].all()]
    assert len(mixed) >= 3  # censored at an event time, several times over
    return Z, SurvivalLabels(y, r)


class TestRiskSetEnumeration:
    """Breslow and Kaplan-Meier against the risk-set rule spelled out: at an
    event time t, everyone with Y >= t is at risk, including patients
    censored at t."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_breslow_matches_risk_set_enumeration(self, seed):
        Z, lab = tied_instance(seed)
        y, r = lab.times, lab.observed
        beta = np.random.default_rng(seed + 100).standard_normal(Z.shape[1])
        bh = breslow_baseline(beta, Z, lab)
        eta = Z @ beta
        assert bh.times.tolist() == sorted(set(y[r]))
        cum = 0.0
        for t, got in zip(bh.times, bh.cum_hazard):
            d = int(((y == t) & r).sum())
            cum += d / np.exp(eta[y >= t]).sum()
            assert abs(got - cum) <= 1e-12

    @pytest.mark.parametrize("seed", [5, 6])
    def test_km_matches_risk_set_enumeration(self, seed):
        _, lab = tied_instance(seed)
        y, r = lab.times, lab.observed
        curve, median, saturated = kaplan_meier(lab)
        assert curve.times.tolist() == sorted(set(y[r]))
        surv = 1.0
        for t, got in zip(curve.times, curve.survival):
            surv *= 1.0 - ((y == t) & r).sum() / (y >= t).sum()
            assert abs(got - surv) <= 1e-12
        below = curve.times[curve.survival <= 0.5]
        assert (median, saturated) == ((below[0], False) if below.size
                                       else (curve.times[-1], True))


    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("scale", [1.0, 400.0])
    def test_eta_gradient_matches_risk_set_enumeration(self, seed, scale):
        # at scale 400 eta spreads by thousands, so plain sums underflow
        Z, lab = tied_instance(seed)
        y, r = lab.times, lab.observed
        eta = scale * Z @ np.random.default_rng(seed + 200).standard_normal(Z.shape[1])
        want = -r.astype(float)
        for j in np.flatnonzero(r):
            at_risk = y >= y[j]
            top = eta[at_risk].max()
            want[at_risk] += np.exp(eta[at_risk] - top) / np.exp(eta[at_risk] - top).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lab.risk_sets.partial_likelihood(eta)[1]()
        assert np.abs(got - want).max() <= 1e-10


# the _SAFE_RISK_SUM that sends every risk-set pass into each domain
DOMAINS = {"plain": 0.0, "log": np.inf}


def one_pass(monkeypatch, rs, eta, x, domain=None):
    """Value, eta gradient and Hessian product with x from one risk-set pass,
    in the given domain, or in the one the pass picks when None."""
    with monkeypatch.context() as m:
        if domain is not None:
            m.setattr(survival, "_SAFE_RISK_SUM", DOMAINS[domain])
        value, gradient, hessian = rs.partial_likelihood(eta)
        return value, gradient(), hessian(x)


def identical(a, b) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(a, b))


class TestRiskSets:
    def test_eta_gradient_past_underflow(self):
        lab = SurvivalLabels(np.arange(1.0, 7.0), np.ones(6, dtype=bool))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = lab.risk_sets.partial_likelihood(np.array([800.0, 0.0, 0.0, 0.0, 0.0, 0.0]))[1]()
        # patient 0's own risk set is all exp(800); the others share 5, 4, ... equal terms
        exact = np.concatenate(([0.0], np.cumsum([1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0]) - 1.0))
        assert np.abs(g - exact).max() <= 1e-12

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 20.0])
    def test_one_pass_matches_log_domain_reference(self, seed, scale, monkeypatch):
        Z, lab = tied_instance(seed, n=200)
        rng = np.random.default_rng(seed + 300)
        for _ in range(5):
            eta, x = scale * Z @ rng.standard_normal(Z.shape[1]), rng.standard_normal(len(lab))
            want = log_domain_nll(lab, eta)
            want_g = log_domain_eta_gradient(lab, eta)
            H = breslow_hessian(lab, eta)
            # at scale 20, H x cancels to 1e-3 of |H| |x|, which bounds its rounding
            want_h, size_h = H @ x, (np.abs(H) @ np.abs(x)).max()
            for domain in DOMAINS:
                value, g, h = one_pass(monkeypatch, lab.risk_sets, eta, x, domain)
                assert abs(value - want) <= 1e-12 * abs(want)
                assert np.abs(g - want_g).max() <= 1e-12 * np.abs(want_g).max()
                assert np.abs(h - want_h).max() <= 1e-10 * size_h

    def test_wide_eta_spread_takes_log_domain_path(self, monkeypatch):
        lab = SurvivalLabels(np.arange(1.0, 7.0), np.ones(6, dtype=bool))
        rs = lab.risk_sets
        eta, x = np.array([800.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.arange(6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g, h = got = one_pass(monkeypatch, rs, eta, x)
        assert identical(got, one_pass(monkeypatch, rs, eta, x, "log"))
        exact = np.concatenate(([0.0], np.cumsum([1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0]) - 1.0))
        assert np.abs(g - exact).max() <= 1e-12
        assert abs(value - sum(np.log(m) for m in range(1, 6))) <= 1e-12
        got = one_pass(monkeypatch, rs, eta / 10.0, x)  # a spread of 80 stays on the plain path
        assert identical(got, one_pass(monkeypatch, rs, eta / 10.0, x, "plain"))
        assert not identical(got, one_pass(monkeypatch, rs, eta / 10.0, x, "log"))

    def test_fields(self):
        lab = SurvivalLabels(np.array([3.0, 1.0, 2.0, 1.0, 3.0, 4.0]),
                             np.array([True, False, True, True, False, False]))
        rs = lab.risk_sets
        assert rs.y.tolist() == [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        assert rs.first.tolist() == [0, 0, 2, 3, 3, 5]
        assert rs.last.tolist() == [1, 1, 2, 4, 4, 5]
        assert rs.event_times.tolist() == [1.0, 2.0, 3.0]
        assert rs.event_counts.tolist() == [1, 1, 1]
        assert rs.risk_start.tolist() == [0, 2, 3]

    def test_built_once_per_label_set(self):
        lab = SurvivalLabels(np.array([1.0, 2.0]), np.array([True, False]))
        assert lab.risk_sets is lab.risk_sets
        assert lab.subset([0, 1]).risk_sets is not lab.risk_sets

    def test_no_events_raise_on_use(self):
        lab = SurvivalLabels(np.array([1.0, 2.0]), np.array([False, False]))
        with pytest.raises(ValueError, match="no observed events"):
            lab.risk_sets
        curve, median, saturated = kaplan_meier(lab)
        assert curve.times.size == 0 and (median, saturated) == (2.0, True)


def censored_instance(seed, n=80):
    """Times on a grid of 8 days and four patients in five censored, so
    the tie groups mix events with censored patients."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 9, n).astype(float)
    r = rng.uniform(size=n) > 0.8
    r[np.argmin(y)] = True
    return SurvivalLabels(y, r)


class TestHessianProduct:
    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 5.0])
    def test_matches_dense_breslow_reference(self, seed, scale, monkeypatch):
        lab = censored_instance(seed)
        rng = np.random.default_rng(seed + 400)
        for _ in range(3):
            eta, x = scale * rng.standard_normal(len(lab)), rng.standard_normal(len(lab))
            want = breslow_hessian(lab, eta) @ x
            want_g = log_domain_eta_gradient(lab, eta)
            for domain in DOMAINS:
                value, g, h = one_pass(monkeypatch, lab.risk_sets, eta, x, domain)
                assert abs(value - log_domain_nll(lab, eta)) <= 1e-12 * abs(value)
                assert np.abs(g - want_g).max() <= 1e-12 * np.abs(want_g).max()
                assert np.abs(h - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_finite_difference_of_gradient(self, seed):
        lab = censored_instance(seed)
        rs = lab.risk_sets
        rng = np.random.default_rng(seed + 500)
        eta, x = rng.standard_normal(len(lab)), rng.standard_normal(len(lab))
        h = 1e-5
        want = (rs.partial_likelihood(eta + h * x)[1]()
                - rs.partial_likelihood(eta - h * x)[1]()) / (2 * h)
        got = rs.partial_likelihood(eta)[2](x)
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()

    def test_wide_eta_spread_stays_finite_in_log_domain(self, monkeypatch):
        # eta falls by 800 over time: late risk sets sum to exp(-800) of the
        # maximum, so the pass takes the log domain
        lab = censored_instance(7)
        rng = np.random.default_rng(600)
        eta = 800.0 * (1.0 - lab.times / lab.times.max()) + rng.standard_normal(len(lab))
        x = rng.standard_normal(len(lab))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_pass(monkeypatch, lab.risk_sets, eta, x)
        assert identical(got, one_pass(monkeypatch, lab.risk_sets, eta, x, "log"))
        assert np.isfinite(got[2]).all()
        want = breslow_hessian(lab, eta) @ x
        assert np.abs(got[2] - want).max() <= 1e-10 * np.abs(want).max()


class TestPredictMedian:
    def _model(self):
        return CoxModel(np.array([1.0]),
                        BaselineHazard(np.array([2.0]), np.array([1.0])))

    def test_crosses_half(self):
        t, sat = predict_median(self._model(), np.array([0.0]))
        assert (t[0], sat[0]) == (2.0, False)

    def test_saturated(self):
        t, sat = predict_median(self._model(), np.array([-3.0]))
        assert (t[0], sat[0]) == (2.0, True)

    def test_extreme_risk_hits_first_time(self):
        base = BaselineHazard(np.array([1.0, 5.0]), np.array([0.1, 0.2]))
        model = CoxModel(np.array([1.0]), base)
        t, sat = predict_median(model, np.array([1000.0]))
        assert (t[0], sat[0]) == (1.0, False)

    def test_empty_baseline_refused(self, tmp_path):
        # every fit has an event, so only a model file can hold an empty
        # baseline: it loads, and predict refuses it by name
        counts = np.array([[2, 1, 3, 1], [1, 2, 1, 3]])
        corpus = make_corpus(counts, [1.0, 2.0, 3.0, 4.0], [True, False, True, True])
        path = tmp_path / "m.json"
        save_model(fit_encox(corpus, 0.1, 0.5), path)
        payload = json.loads(path.read_text())
        payload["baseline"] = {"times": [], "cum_hazard": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no baseline hazard"):
            predict(load_model(path), corpus)

    def test_matches_per_patient_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            T = int(rng.integers(1, 40))
            steps = rng.exponential(0.3, T) * (rng.uniform(size=T) < 0.7)  # repeats
            H = np.cumsum(steps) + (0.0 if trial % 3 == 0 else rng.exponential(0.05))
            H = np.sort(np.append(H, np.log(2.0)))  # survival exactly 0.5 at eta = 0
            base = BaselineHazard(np.cumsum(rng.uniform(0.5, 3.0, T + 1)), H)
            model = CoxModel(np.array([1.0]), base)
            eta = np.concatenate([rng.normal(0.0, 3.0, 50),
                                  [0.0, 700.0, -700.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan]])
            median, saturated = predict_median(model, eta)
            with np.errstate(invalid="ignore"):  # 0 * inf at a zero hazard
                ref = [reference_median(model, np.array([e])) for e in eta]
            assert np.array_equal(median, [m for m, _ in ref])
            assert np.array_equal(saturated, [s for _, s in ref])


class TestKaplanMeier:
    def test_three_observed(self):
        curve, med, sat = kaplan_meier(
            SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3)))
        assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0])
        assert (med, sat) == (2.0, False)

    def test_censored_first(self):
        curve, med, sat = kaplan_meier(
            SurvivalLabels(np.array([1.0, 2.0]), np.array([False, True])))
        assert np.allclose(curve.survival, [0.0])
        assert (med, sat) == (2.0, False)

    def test_curve_above_half_is_saturated(self):
        # one early event, then only censoring: survival never falls to 0.5,
        # so the median is the last event time, flagged, for every patient
        labels = SurvivalLabels(np.array([1.0, 2.0, 3.0, 4.0]),
                                np.array([True, False, False, False]))
        curve, med, sat = kaplan_meier(labels)
        assert np.array_equal(curve.times, [1.0]) and np.allclose(curve.survival, [0.75])
        assert (med, sat) == (1.0, True)
        corpus = make_corpus(np.ones((2, 4), dtype=int), labels.times, labels.observed)
        preds = predict(fit_km(corpus), corpus)
        assert np.array_equal(preds.median, [1.0] * 4) and preds.saturated.all()

    def test_no_censoring_matches_empirical_survival(self):
        rng = np.random.default_rng(12)
        y = rng.exponential(3.0, 50) + 0.01
        curve, _, _ = kaplan_meier(SurvivalLabels(y, np.ones(50, dtype=bool)))
        for t, s in zip(curve.times, curve.survival):
            assert np.isclose(s, np.mean(y > t), atol=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            kaplan_meier(SurvivalLabels(np.empty(0), np.empty(0, dtype=bool)))

    def test_curve_monotone(self):
        rng = np.random.default_rng(13)
        y = rng.exponential(1.0, 40) + 0.01
        r = rng.uniform(size=40) > 0.4
        r[0] = True
        curve, _, _ = kaplan_meier(SurvivalLabels(y, r))
        assert np.all(np.diff(curve.survival) <= 1e-12)
        assert curve.survival.min() >= 0.0 and curve.survival.max() <= 1.0


class TestSurvivalTypes:
    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            BaselineHazard(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            BaselineHazard(np.array([1.0, 2.0]), np.array([0.2, 0.1]))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([1.0, 2.0]), np.array([0.5, 0.9]))

    def test_cox_model_finite(self):
        with pytest.raises(ValueError):
            CoxModel(np.array([np.inf]), BaselineHazard(np.empty(0), np.empty(0)))
