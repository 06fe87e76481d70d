from dataclasses import replace

import numpy as np
import pytest

from sawtopics import saw
from sawtopics.cooccur import build_cooccurrence
from sawtopics.corpus import Corpus, SurvivalLabels, normalize_columns, split, subset
from sawtopics.seeding import derive_seed
from sawtopics.evaluation import c_index
from sawtopics.methods import load_model, predict, save_model
from sawtopics.saw import (OBJECTIVE_SLACK, THETA_GAP_TOL, SawConfig, fit_saw, fit_usaw,
                           update_theta)
from sawtopics.survival import RiskSets, fit_elastic_net_cox
from sawtopics.synthgen import generate_dataset
from sawtopics.topics import (LOG_FLOOR, ConvergenceError, doc_topic_features, kl_divergence,
                              recover_topics_unsupervised, recover_word_topic_matrix)

from helpers import (coupled_gap, csc_arrays, dense, dense_view, eg_simplex_kl,
                     joint_objective, log_domain_nll, make_corpus)


def small_dataset(seed=0, n=120, d=20, k=3, m=60, censor=0.2):
    return generate_dataset(
        d=d, k=k, n=n, doc_length=m, dirichlet_concentration=0.25,
        anchor_mass=0.4, beta_true=np.array([3.0, -3.0, 0.0][:k]),
        base_rate=0.15, censor_fraction=censor, seed=seed)


def readme_corpus():
    """The README walkthrough's corpus (``synth`` at seed 7)."""
    corpus, _ = generate_dataset(d=60, k=5, n=1000, doc_length=300,
                                 dirichlet_concentration=0.1, anchor_mass=0.3,
                                 beta_true=np.array([3.0, -3.0, 0.0, 3.0, -3.0]),
                                 base_rate=0.1, censor_fraction=0.2,
                                 seed=derive_seed(7, "synth"))
    return corpus


def objective_is_monotone(values, slack=OBJECTIVE_SLACK):
    v = np.asarray(values)
    return bool(np.all(np.diff(v) <= slack * np.maximum(np.abs(v[:-1]), 1.0)))


class TestSawConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SawConfig(k=0)
        with pytest.raises(ValueError):
            SawConfig(lam=0.0)
        with pytest.raises(ValueError):
            SawConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SawConfig(outer_tol=0.0)

    @pytest.mark.parametrize("k", [2.5, float("nan"), float("inf")])
    def test_non_integer_k_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            SawConfig(k=k)

    @pytest.mark.parametrize("k", [3, 3.0, np.int64(3)])
    def test_integral_k_stored_as_int(self, k):
        assert type(SawConfig(k=k).k) is int and SawConfig(k=k).k == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["lam", "outer_tol"])
    def test_non_finite_settings_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            SawConfig(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("max_outer_iters", 2.5, "an integer, got 2.5"),
        ("anchor_runs", 2.5, "an integer, got 2.5"),
        ("projection_dim", 2.5, "an integer, got 2.5"),
        ("projection_dim", float("nan"), "an integer, got nan"),
        ("anchor_runs", "3", "an integer, got '3'"),
        ("max_outer_iters", -1, ">= 0, got -1"),
        ("anchor_runs", 0, ">= 1, got 0"),
        ("projection_dim", 0, ">= 1, got 0"),
    ])
    def test_counts_refused_by_name(self, key, value, message):
        # 2.5 outer iterations or anchor runs failed deep in the fit with a
        # bare TypeError, a projection_dim of 2.5 was truncated to 2, and 0
        # was refused only when the anchor search ran
        with pytest.raises(ValueError, match=f"^{key} must be {message}$"):
            SawConfig(**{key: value})

    @pytest.mark.parametrize("key", ["max_outer_iters", "anchor_runs", "projection_dim"])
    def test_integral_counts_stored_as_int(self, key):
        value = getattr(SawConfig(**{key: np.float64(4.0)}), key)
        assert type(value) is int and value == 4


class TestJointObjective:
    def _parts(self, seed=1):
        corpus, _ = small_dataset(seed)
        stats = build_cooccurrence(corpus)
        cfg = SawConfig(k=3, lam=0.5, alpha=0.5, seed=seed)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=seed)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        return corpus, stats, aset, theta0, Xbar

    def test_beta_zero_collapses_to_kl_plus_log_risk_sets(self):
        corpus, stats, aset, theta0, Xbar = self._parts()
        labels = corpus.labels
        kl_total = sum(
            kl_divergence(stats.Qbar[w], theta0[w] @ stats.Qbar[list(aset.indices)])
            for w in range(stats.Qbar.shape[0]) if w not in aset.indices)
        rs = RiskSets(labels)
        log_risk = rs.partial_likelihood(np.zeros(corpus.n_docs))[0]
        got = joint_objective(theta0, np.zeros(3), stats, Xbar, labels, aset, 1.0, 0.5)
        assert np.isclose(got, kl_total + log_risk, rtol=1e-10)

    def test_lambda_irrelevant_at_beta_zero(self):
        corpus, stats, aset, theta0, Xbar = self._parts()
        a = joint_objective(theta0, np.zeros(3), stats, Xbar, corpus.labels, aset, 1.0, 0.5)
        b = joint_objective(theta0, np.zeros(3), stats, Xbar, corpus.labels, aset, 2.0, 0.5)
        assert a == b

    def test_infeasible_theta_rejected(self):
        corpus, stats, aset, theta0, Xbar = self._parts()
        bad = theta0.copy()
        bad[0] = 2.0
        with pytest.raises(ValueError, match="simplex"):
            joint_objective(bad, np.zeros(3), stats, Xbar, corpus.labels, aset, 1.0, 0.5)
        bad2 = theta0.copy()
        bad2[aset.indices[0]] = [0.5, 0.5, 0.0]
        with pytest.raises(ValueError, match="anchor"):
            joint_objective(bad2, np.zeros(3), stats, Xbar, corpus.labels, aset, 1.0, 0.5)

    def test_zero_kl_instance(self):
        # Qbar rows built as exact convex combinations of anchor rows: the KL
        # term vanishes and only sum(log |risk set|) remains at beta = 0
        rng = np.random.default_rng(3)
        B = rng.dirichlet(np.ones(8), size=2)
        mixes = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.6, 0.4]])
        Qbar = mixes @ B
        from sawtopics.cooccur import CooccurrenceStats
        from sawtopics.anchors import AnchorSet
        p = np.full(4, 0.25)
        stats = CooccurrenceStats(p, Qbar, np.empty(0, dtype=int))
        aset = AnchorSet((0, 1), {0: 1, 1: 1}, 1, 4)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        labels = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3))
        Xbar = normalize_columns(make_corpus(np.array([[1, 2, 1], [1, 1, 2],
                                                       [2, 1, 1], [1, 1, 1]])))
        got = joint_objective(theta0, np.zeros(2), stats, Xbar, labels, aset, 1.0, 0.5)
        assert abs(got - (np.log(3) + np.log(2))) <= 1e-6


class TestProjectToSimplex:
    def test_matches_bisection_on_the_threshold(self):
        # the projection is max(v - tau, 0) for the tau that makes it sum
        # to 1; -inf entries (off the face) end at exactly 0
        rng = np.random.default_rng(3)
        V = rng.normal(size=(50, 6)) * rng.choice([0.1, 1.0, 10.0], size=(50, 1))
        V[rng.uniform(size=V.shape) < 0.3] = -np.inf
        V[:, 0] = rng.normal(size=50)
        got = saw._project_to_simplex(V)
        for v, row in zip(V, got):
            lo, hi = v.max() - 1.0, v.max()
            for _ in range(200):
                tau = 0.5 * (lo + hi)
                lo, hi = (tau, hi) if np.maximum(v - tau, 0.0).sum() > 1.0 else (lo, tau)
            assert np.abs(row - np.maximum(v - tau, 0.0)).max() <= 1e-12
            assert np.all(row[np.isneginf(v)] == 0.0)
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


class TestUpdateTheta:
    def test_fixed_point_at_beta_zero(self):
        corpus, _ = small_dataset(seed=4)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=4)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        out, _ = update_theta(theta0, np.zeros(3), stats, Xbar, corpus.labels, aset)
        assert np.abs(out - theta0).max() <= 1e-6

    @pytest.mark.parametrize("d, k", [(20, 3), (8, 8)])
    def test_returns_the_kl_terms_of_its_theta(self, d, k):
        # the half-step's KL terms are those its objective took at the
        # accepted iterate: bit for bit each free row's KL at the returned
        # theta, and exact zeros on the anchor rows (at k = d, every row)
        corpus, _ = small_dataset(seed=10, d=d)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, k, T=3, seed=10)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        beta = np.linspace(1.0, -1.0, k)
        out, kl = update_theta(theta0, beta, stats, normalize_columns(corpus), corpus.labels, aset)
        aidx = np.asarray(aset.indices)
        free = np.setdiff1d(np.arange(d), aidx)
        assert kl.shape == (d,) and np.array_equal(kl[aidx], np.zeros(k))
        want = kl_divergence(stats.Qbar[free], out[free] @ stats.Qbar[aidx])
        assert np.array_equal(kl[free], want)
        assert free.size == 0 or not np.array_equal(out, theta0)

    def test_anchor_rows_stay_pinned(self):
        corpus, _ = small_dataset(seed=5)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=5)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        beta = np.array([1.0, -1.0, 0.5])
        out, _ = update_theta(theta0, beta, stats, Xbar, corpus.labels, aset)
        for g, a in enumerate(aset.indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.array_equal(out[a], expect)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-8

    def test_subproblem_objective_decreases_and_matches_grid(self):
        # tiny coupled instance (d=5, k=2, n=6): the update must decrease
        # the subproblem objective and must come within 0.02 of the best
        # value on a 0.01-step simplex grid over the three free rows
        rng = np.random.default_rng(6)
        B = rng.dirichlet(np.ones(5), size=2)
        Qbar = np.vstack([B, rng.dirichlet(np.ones(5), size=3)])
        p = np.full(5, 0.2)
        from sawtopics.cooccur import CooccurrenceStats
        from sawtopics.anchors import AnchorSet
        stats = CooccurrenceStats(p, Qbar, np.empty(0, dtype=int))
        aset = AnchorSet((0, 1), {0: 1, 1: 1}, 1, 5)
        counts = rng.integers(1, 4, size=(5, 6))
        corpus = make_corpus(counts, times=[1., 2., 3., 4., 5., 6.],
                             observed=[True, True, False, True, True, True])
        Xbar = normalize_columns(corpus)
        labels = corpus.labels
        beta = np.array([2.0, -1.0])
        rs = RiskSets(labels)
        free = [2, 3, 4]

        def subobj(theta):
            kl = sum(kl_divergence(Qbar[w], theta[w] @ B) for w in free)
            eta = doc_topic_features(theta, Xbar) @ beta
            return kl + rs.partial_likelihood(eta)[0]

        theta0 = np.zeros((5, 2))
        theta0[0] = [1, 0]
        theta0[1] = [0, 1]
        theta0[free] = 0.5
        before = subobj(theta0)
        out, _ = update_theta(theta0, beta, stats, Xbar, labels, aset)
        after = subobj(out)
        assert after < before

        # exhaustive 0.01-step grid, vectorized: the KL part separates per
        # row, only the partial likelihood couples the rows through eta
        ts = np.arange(0.0, 1.0001, 0.01)
        kl_tab = np.array([[kl_divergence(Qbar[w], np.array([t, 1 - t]) @ B)
                            for t in ts] for w in free])
        Xd = dense_view(Xbar)
        base_eta = (Xd[0] * (theta0[0] @ beta) + Xd[1] * (theta0[1] @ beta))
        coef = {w: Xd[w] * (beta[0] - beta[1]) + 0.0 for w in free}
        off = {w: Xd[w] * beta[1] for w in free}
        y = labels.times
        ev = labels.observed
        mask = y[:, None] <= y[None, :]  # risk set membership, ties included
        ai, bi, ci = np.meshgrid(np.arange(ts.size), np.arange(ts.size),
                                 np.arange(ts.size), indexing="ij")
        ai, bi, ci = ai.ravel(), bi.ravel(), ci.ravel()
        best = np.inf
        for lo in range(0, ai.size, 200000):
            hi = min(lo + 200000, ai.size)
            A_, B_, C_ = ts[ai[lo:hi]], ts[bi[lo:hi]], ts[ci[lo:hi]]
            eta = (base_eta[None, :]
                   + np.outer(A_, coef[2]) + off[2][None, :]
                   + np.outer(B_, coef[3]) + off[3][None, :]
                   + np.outer(C_, coef[4]) + off[4][None, :])
            E = np.exp(eta)
            lse = np.log(E @ mask.T)
            nll = ((lse - eta) * ev[None, :]).sum(axis=1)
            tot = nll + kl_tab[0, ai[lo:hi]] + kl_tab[1, bi[lo:hi]] + kl_tab[2, ci[lo:hi]]
            best = min(best, float(tot.min()))
        assert after <= best + 0.02


    @pytest.mark.parametrize("shape", ["walkthrough", "fit_large"])
    def test_every_half_step_certified(self, shape, monkeypatch):
        # over 4 outer iterations of the README corpus (k = 5) and of a
        # fit_large-sized corpus (d = 400, k = 10), every theta half-step
        # ends at a coupled Frank-Wolfe gap (computed from a dense design)
        # within THETA_GAP_TOL of its objective, on the simplex, and the
        # first two no worse than the batched EG kernel's 100 steps (the
        # half-step's former budget) from the same start
        if shape == "walkthrough":
            params = dict(d=60, k=5, n=1000, beta_true=np.array([3.0, -3.0, 0.0, 3.0, -3.0]))
        else:
            params = dict(d=400, k=10, n=4000, beta_true=np.array([3.0, -3.0, 0.0] * 3 + [0.0]))
        corpus, _ = generate_dataset(doc_length=300, dirichlet_concentration=0.1,
                                     anchor_mass=0.3, base_rate=0.1, censor_fraction=0.2,
                                     seed=derive_seed(7, "synth"), **params)
        if shape == "fit_large":
            corpus, _ = split(corpus, 0.75, seed=8)
        kernel = saw.update_theta
        gaps = []
        design = {}  # the fit's design, dense and its free rows, built once

        def checked(theta, beta, stats, Xbar, labels, anchors):
            out, kl = kernel(theta, beta, stats, Xbar, labels, anchors)
            aidx = np.asarray(anchors.indices, dtype=int)
            free = np.setdiff1d(np.arange(theta.shape[0]), aidx)
            P, B = stats.Qbar[free], stats.Qbar[aidx]
            if not design:
                X = dense_view(Xbar)
                design.update(X=X, Xf=X[free], rs=RiskSets(labels))
            X, Xf, rs = design["X"], design["Xf"], design["rs"]

            def subproblem(th):
                full = theta.copy()
                full[free] = th
                return (kl_divergence(P, th @ B).sum()
                        + log_domain_nll(labels, X.T @ (full @ beta)))

            eta_anchors = Xbar.T @ np.where(np.isin(np.arange(theta.shape[0]), aidx),
                                            theta @ beta, 0.0)

            def coupling(th):
                value, grad, _ = rs.partial_likelihood(Xf.T @ (th @ beta) + eta_anchors)
                return value, lambda: np.outer(Xf @ grad(), beta)

            f = subproblem(out[free])
            gap = coupled_gap(out, beta, stats.Qbar, X, labels, anchors)
            assert gap <= THETA_GAP_TOL * max(abs(f), 1.0)
            if len(gaps) < 2:  # the reference takes 0.6 s a call at fit_large size
                eg = eg_simplex_kl(P, B, theta[free], tol=1e-12, max_iter=100,
                                   coupling=coupling)[0]
                assert f <= subproblem(eg) + OBJECTIVE_SLACK * abs(f)
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12 and out.min() >= 0.0
            assert np.array_equal(out[aidx], theta[aidx])
            gaps.append(gap)
            return out, kl

        monkeypatch.setattr(saw, "update_theta", checked)
        fit_saw(corpus, SawConfig(k=params["k"], lam=0.1, alpha=0.5, seed=7, max_outer_iters=4,
                                  anchor_runs=2))
        assert len(gaps) == 4

    def test_logs_one_debug_record(self, caplog):
        corpus, _ = small_dataset(seed=5)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=5)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        with caplog.at_level("DEBUG", logger="sawtopics.saw"):
            update_theta(theta0, np.array([1.0, -1.0, 0.5]), stats, normalize_columns(corpus),
                         corpus.labels, aset)
        records = [r for r in caplog.records if r.name == "sawtopics.saw"]
        assert len(records) == 1 and records[0].levelname == "DEBUG"
        steps, products, halvings, gap, tol = records[0].args
        assert steps >= 1 and products >= steps and halvings >= 0 and gap <= tol

    def test_columns_below_the_log_floor_certify(self):
        # near one-hot anchor rows (Dirichlet(0.02) over 20 words) leave
        # q = theta_w @ B below LOG_FLOOR on columns where P > 0; there the
        # floored KL is flat in q, and a gradient that still counted P / q
        # there stalled the half-step at its budget with gap 0.19
        rng = np.random.default_rng(0)

        def rows(m):
            R = rng.dirichlet(np.full(20, 0.02), size=m)
            R[np.arange(m), R.argmax(axis=1)] += 1e-3
            return R / R.sum(axis=1, keepdims=True)

        B = rows(4)
        P = 0.8 * rng.dirichlet(np.full(4, 0.5), size=12) @ B + 0.2 * rows(12)
        Qbar = np.vstack([B, P / P.sum(axis=1, keepdims=True)])
        from sawtopics.cooccur import CooccurrenceStats
        from sawtopics.anchors import AnchorSet
        stats = CooccurrenceStats(np.full(16, 1.0 / 16), Qbar, np.empty(0, dtype=int))
        aset = AnchorSet((0, 1, 2, 3), {0: 1, 1: 1, 2: 1, 3: 1}, 1, 16)
        counts = rng.poisson(0.5, size=(16, 40))
        counts[0] += 1
        times = rng.integers(1, 10, size=40).astype(float)
        observed = rng.random(40) < 0.6
        observed[0] = True
        corpus = make_corpus(counts, times=times, observed=observed)
        Xbar = normalize_columns(corpus)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        assert (theta0[4:] @ B)[P > 0].min() < LOG_FLOOR
        beta = rng.normal(size=4) * 3
        out, _ = update_theta(theta0, beta, stats, Xbar, corpus.labels, aset)
        before, after = (joint_objective(t, beta, stats, Xbar, corpus.labels, aset, 1.0, 0.5)
                         for t in (theta0, out))
        assert after <= before

    @pytest.mark.parametrize("stop", ["budget", "no descent"])
    def test_uncertified_half_step_raises(self, stop, monkeypatch):
        # no step budget, or an Armijo condition that no step of a convex
        # objective can meet, leaves the gap above tolerance: the half-step
        # fails with the gap instead of returning an uncertified theta
        corpus, _ = small_dataset(seed=5)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=5)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        if stop == "budget":
            monkeypatch.setattr(saw, "newton_budget", lambda k: 0)
        else:
            monkeypatch.setattr(saw, "ARMIJO", 2.0)
        with pytest.raises(ConvergenceError, match="gap") as info:
            update_theta(theta0, np.array([1.0, -1.0, 0.5]), stats, normalize_columns(corpus),
                         corpus.labels, aset)
        assert info.value.gap > 0 and info.value.worst_row not in aset.indices

    def test_singular_faces_stay_on_the_simplex(self):
        # anchors 0 and 1 have the same Qbar row and the same coefficient,
        # so every face that holds both is singular along e0 - e1; without
        # the preconditioner's projection back to a zero row sum, rows here
        # leave the simplex by up to 0.6
        rng = np.random.default_rng(85)
        B = rng.dirichlet(np.full(8, 0.3), size=2)
        B = np.vstack([B[0], B[0], B[1]])
        W = rng.dirichlet(np.full(3, 0.5), size=5)
        Qbar = np.vstack([B, W @ B * 0.9 + 0.1 * rng.dirichlet(np.ones(8), size=5)])
        Qbar /= Qbar.sum(axis=1, keepdims=True)
        from sawtopics.cooccur import CooccurrenceStats
        from sawtopics.anchors import AnchorSet
        stats = CooccurrenceStats(np.full(8, 1.0 / 8), Qbar, np.empty(0, dtype=int))
        aset = AnchorSet((0, 1, 2), {0: 1, 1: 1, 2: 1}, 1, 8)
        counts = rng.integers(0, 4, size=(8, 30))
        counts[0] += 1
        times = rng.integers(1, 10, size=30).astype(float)
        observed = rng.random(30) < 0.6
        observed[0] = True
        corpus = make_corpus(counts, times=times, observed=observed)
        Xbar = normalize_columns(corpus)
        theta0, _ = recover_topics_unsupervised(stats, aset)
        beta = np.array([10.0, 10.0, -10.0])
        out, _ = update_theta(theta0, beta, stats, Xbar, corpus.labels, aset)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12 and out.min() >= 0.0
        joint_objective(out, beta, stats, Xbar, corpus.labels, aset, 1.0, 0.5)

    def test_over_specified_fold_stays_on_the_simplex(self, monkeypatch):
        # the README cv grid's cell (8, 0.01, 0.5), fold 0, cv seed 7: k = 8
        # over-specifies the 5 planted topics, so near-duplicate anchors
        # make faces near-singular
        corpus = readme_corpus()
        cv_seed = derive_seed(7, "cv")
        perm = np.random.default_rng(derive_seed(cv_seed, "cv-folds")).permutation(corpus.n_docs)
        train = np.setdiff1d(np.arange(corpus.n_docs), np.array_split(perm, 3)[0])
        kernel = saw.update_theta
        calls = []

        def checked(theta, *args):
            out, kl = kernel(theta, *args)
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12 and out.min() >= 0.0
            calls.append(1)
            return out, kl

        monkeypatch.setattr(saw, "update_theta", checked)
        model = fit_saw(subset(corpus, train),  # cell 16 of the grid, fold 0
                        SawConfig(k=8, lam=0.01, alpha=0.5,
                                  seed=derive_seed(cv_seed, "cv-cell16-fold0")))
        assert calls and model.trace.converged

    def test_over_specified_fit_takes_few_hessian_products_and_halvings(self, caplog):
        # k = 8 over the README corpus's 5 planted topics: duplicate anchors
        # make faces singular, and an operator without the gap ridge took
        # 1597 Hessian products and 588 line-search halvings (817 and 179 with it)
        corpus = subset(readme_corpus(), np.arange(667))
        with caplog.at_level("DEBUG", logger="sawtopics.saw"):
            model = fit_saw(corpus, SawConfig(k=8, lam=0.1, alpha=0.5, seed=3))
        records = [r.args for r in caplog.records if r.name == "sawtopics.saw"]
        assert len(records) == model.trace.iterations >= 1
        _, products, halvings = np.sum([r[:3] for r in records], axis=0)
        assert products <= 1000 and halvings <= 300
        assert all(gap <= tol for *_, gap, tol in records)


class TestFitSaw:
    def test_zero_outer_iters_is_unsupervised_state(self):
        # no outer iteration: the unsupervised topics and one Cox fit on
        # their features, with its baseline
        corpus, _ = small_dataset(seed=7)
        cfg = SawConfig(k=3, lam=0.1, seed=7, max_outer_iters=0)
        model = fit_saw(corpus, cfg)
        stats = build_cooccurrence(corpus)
        theta0, kl0 = recover_topics_unsupervised(stats, model.anchors)
        assert np.array_equal(model.theta, theta0)
        expect = fit_elastic_net_cox(doc_topic_features(theta0, normalize_columns(corpus)),
                                     corpus.labels, 0.1, 0.5)
        assert np.array_equal(model.cox.beta, expect.beta) and np.any(expect.beta != 0)
        assert np.array_equal(model.cox.baseline.times, expect.baseline.times)
        assert np.array_equal(model.cox.baseline.cum_hazard, expect.baseline.cum_hazard)
        assert model.trace.iterations == 0 and not model.trace.converged
        assert len(model.trace.objective_values) == 2
        assert np.array_equal(model.residuals, kl0)

    def test_last_cox_fit_is_on_the_returned_theta(self, monkeypatch):
        # the saved beta, baseline and residuals belong to the saved theta:
        # the fit ends on a Cox fit to the returned theta's features, and
        # the residuals are each word's KL at that theta, 0 on anchors
        corpus, _ = small_dataset(seed=21)
        kernel = saw.fit_elastic_net_cox
        fits = []

        def spy(Z, *args, **kwargs):
            cox = kernel(Z, *args, **kwargs)
            fits.append((np.array(Z), cox))
            return cox

        monkeypatch.setattr(saw, "fit_elastic_net_cox", spy)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=21, max_outer_iters=2))
        assert model.trace.iterations == 2 and len(fits) == 3
        Z, cox = fits[-1]
        assert np.array_equal(Z, doc_topic_features(model.theta,
                                                    normalize_columns(corpus)))
        assert cox is model.cox
        stats = build_cooccurrence(corpus)
        aidx = np.asarray(model.anchors.indices)
        want = kl_divergence(stats.Qbar, model.theta @ stats.Qbar[aidx])
        want[aidx] = 0.0
        assert np.array_equal(model.residuals, want)

    @pytest.mark.parametrize("fit", [fit_saw, fit_usaw])
    def test_A_is_the_bayes_step_of_theta(self, fit, tmp_path):
        # the word-topic matrix is the Bayes step of the returned theta, bit
        # for bit, and the model file keeps it so
        corpus, _ = small_dataset(seed=23)
        model = fit(corpus, SawConfig(k=3, lam=0.1, seed=23))
        save_model(model, tmp_path / "model.json")
        p = build_cooccurrence(corpus).p
        for m in (model, load_model(tmp_path / "model.json")):
            assert np.array_equal(m.A, recover_word_topic_matrix(m.theta, p))

    def test_trace_values_are_the_joint_objective(self, monkeypatch):
        # value j of the trace is the joint objective at theta_(j // 2) and
        # beta_((j + 1) // 2): theta_0 the unsupervised topics, beta_0 = 0,
        # and each later one the output of its half-step
        corpus, _ = small_dataset(seed=22)
        update, cox_fit = saw.update_theta, saw.fit_elastic_net_cox
        thetas, betas = [], [np.zeros(3)]

        def theta_spy(*args):
            theta, kl = update(*args)
            thetas.append(theta)
            return theta, kl

        def cox_spy(*args, **kwargs):
            cox = cox_fit(*args, **kwargs)
            betas.append(cox.beta)
            return cox

        monkeypatch.setattr(saw, "update_theta", theta_spy)
        monkeypatch.setattr(saw, "fit_elastic_net_cox", cox_spy)
        cfg = SawConfig(k=3, lam=0.1, seed=22)
        model = fit_saw(corpus, cfg)
        stats, Xbar = build_cooccurrence(corpus), normalize_columns(corpus)
        anchors = model.anchors
        thetas.insert(0, recover_topics_unsupervised(stats, anchors)[0])
        values = model.trace.objective_values
        assert model.trace.iterations >= 2 and len(values) == 2 * len(thetas) == 2 * len(betas) - 2
        assert list(values) == [joint_objective(thetas[j // 2], betas[(j + 1) // 2], stats, Xbar,
                                                corpus.labels, anchors, cfg.lam, cfg.alpha)
                                for j in range(len(values))]

    def test_every_word_an_anchor(self, monkeypatch):
        # k = d: every theta row is a pinned indicator, so the theta
        # half-step has no free row and returns its input, at zero KL
        corpus, _ = small_dataset(seed=10, d=8)
        kernel = saw.update_theta
        calls = []

        def checked(theta, *args):
            out, kl = kernel(theta, *args)
            assert np.array_equal(out, theta) and np.array_equal(kl, np.zeros(8))
            calls.append(1)
            return out, kl

        monkeypatch.setattr(saw, "update_theta", checked)
        model = fit_saw(corpus, SawConfig(k=8, seed=10))
        assert calls and model.trace.converged
        assert np.all(np.diff(model.trace.objective_values) <= 0)
        assert np.isfinite(predict(model, corpus).risk).all()

    def test_huge_penalty_collapses_to_unsupervised(self):
        corpus, _ = small_dataset(seed=8)
        cfg = SawConfig(k=3, lam=1e6, alpha=1.0, seed=8)
        model = fit_saw(corpus, cfg)
        assert np.array_equal(model.cox.beta, np.zeros(3))
        stats = build_cooccurrence(corpus)
        theta0, _ = recover_topics_unsupervised(stats, model.anchors)
        assert np.abs(model.theta - theta0).max() <= 1e-6

    def test_block_descent_trace_monotone(self):
        for seed in range(3):
            corpus, _ = small_dataset(seed=20 + seed)
            model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=seed))
            assert objective_is_monotone(model.trace.objective_values)

    def test_feasibility_after_fit(self):
        corpus, _ = small_dataset(seed=9)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=9))
        theta = model.theta
        assert np.abs(theta.sum(axis=1) - 1.0).max() <= 1e-8
        assert theta.min() >= 0.0
        for g, a in enumerate(model.anchors.indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.array_equal(theta[a], expect)
        assert np.abs(model.A.sum(axis=0) - 1.0).max() <= 1e-8

    def test_training_signal_recovered(self):
        corpus, truth = small_dataset(seed=10, n=400, m=100)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=10))
        preds = predict(model, corpus)
        assert c_index(preds.risk, corpus.labels) > 0.7

    def test_determinism(self):
        corpus, _ = small_dataset(seed=11)
        cfg = SawConfig(k=3, lam=0.1, seed=11)
        m1 = fit_saw(corpus, cfg)
        m2 = fit_saw(corpus, cfg)
        assert m1.anchors.indices == m2.anchors.indices
        assert m1.trace.objective_values == m2.trace.objective_values
        assert np.array_equal(m1.cox.beta, m2.cox.beta)

    def test_one_risk_set_structure_per_fit(self, monkeypatch):
        built = []
        init = RiskSets.__init__
        monkeypatch.setattr(RiskSets, "__init__",
                            lambda rs, labels: built.append(labels) or init(rs, labels))
        corpus, _ = small_dataset(seed=13)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=13))
        assert model.trace.iterations >= 2
        assert built == [corpus.labels]

    def test_needs_an_event(self):
        corpus, _ = small_dataset(seed=12, n=40)
        no_events = corpus.with_labels(
            SurvivalLabels(corpus.labels.times, np.zeros(corpus.n_docs, dtype=bool)))
        with pytest.raises(ValueError, match="event"):
            fit_saw(no_events, SawConfig(k=3, seed=0))


class TestFitUsaw:
    def test_saw_objective_never_worse(self):
        for seed in (13, 14):
            corpus, _ = small_dataset(seed=seed)
            cfg = SawConfig(k=3, lam=0.5, seed=seed)
            saw_m = fit_saw(corpus, cfg)
            usaw_m = fit_usaw(corpus, cfg)
            assert (saw_m.trace.objective_values[-1]
                    <= usaw_m.trace.objective_values[-1] + 1e-9)

    def test_huge_penalty_makes_them_identical(self):
        corpus, _ = small_dataset(seed=15)
        cfg = SawConfig(k=3, lam=1e6, alpha=1.0, seed=15)
        a = fit_saw(corpus, cfg)
        b = fit_usaw(corpus, cfg)
        assert np.array_equal(a.cox.beta, b.cox.beta)
        assert np.abs(a.theta - b.theta).max() <= 1e-6

    def test_single_beta_fit_no_alternation(self):
        corpus, _ = small_dataset(seed=16)
        model = fit_usaw(corpus, SawConfig(k=3, lam=0.1, seed=16))
        assert model.trace.iterations == 0
        assert len(model.trace.objective_values) == 2
        assert model.method == "usaw"

    def test_is_saw_with_no_outer_iteration(self):
        corpus, _ = small_dataset(seed=16)
        cfg = SawConfig(k=3, lam=0.1, seed=16)
        a, b = fit_usaw(corpus, cfg), fit_saw(corpus, replace(cfg, max_outer_iters=0))
        for get in (lambda m: m.theta, lambda m: m.A, lambda m: m.residuals,
                    lambda m: m.cox.beta,
                    lambda m: m.cox.baseline.times, lambda m: m.cox.baseline.cum_hazard):
            assert np.array_equal(get(a), get(b))
        assert a.trace == b.trace
        assert (a.method, a.config, b.method) == ("usaw", cfg, "saw")

    def test_saw_trace_begins_with_the_usaw_trace(self):
        # two values (beta = 0 and the first Cox fit), then two per outer
        # iteration (its theta half-step and its Cox fit)
        corpus, _ = small_dataset(seed=14)
        cfg = SawConfig(k=3, lam=0.5, seed=14)
        usaw_trace, saw_trace = fit_usaw(corpus, cfg).trace, fit_saw(corpus, cfg).trace
        assert saw_trace.objective_values[:2] == usaw_trace.objective_values
        for trace in (usaw_trace, saw_trace):
            assert len(trace.objective_values) == 2 + 2 * trace.iterations
        assert saw_trace.iterations >= 1


class TestPredict:
    def test_anchor_only_document_risk_is_coefficient(self):
        corpus, _ = small_dataset(seed=17, n=200, m=80)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=17))
        a0 = model.anchors.indices[0]
        counts = np.zeros((corpus.n_words, 1), dtype=int)
        counts[a0, 0] = 3
        probe = make_corpus(counts, times=[1.0], observed=[True],
                            words=corpus.vocab.words)
        preds = predict(model, probe)
        assert np.isclose(preds.risk[0], model.cox.beta[0])

    def test_beta_zero_gives_constant_median(self):
        corpus, _ = small_dataset(seed=18)
        model = fit_saw(corpus, SawConfig(k=3, lam=1e6, alpha=1.0, seed=18))
        preds = predict(model, corpus)
        assert np.unique(preds.median).size == 1

    def test_duplicate_patient_same_risk(self):
        corpus, _ = small_dataset(seed=19)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=19))
        preds = predict(model, corpus)
        # patient 0's counts and label twice, under two ids
        dup = Corpus(csc_arrays(dense(corpus)[:, [0, 0]]), corpus.vocab,
                     corpus.labels.subset(np.array([0, 0])), ("first", "again"))
        again = predict(model, dup)
        assert again.risk[0] == again.risk[1] == preds.risk[0]

    def test_vocabulary_mismatch(self):
        corpus, _ = small_dataset(seed=19)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=19))
        other = make_corpus(np.ones((4, 3), dtype=int) * 2)
        with pytest.raises(ValueError, match="vocabulary"):
            predict(model, other)
