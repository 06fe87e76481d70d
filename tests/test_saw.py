import numpy as np
import pytest

from sawtopics import saw
from sawtopics.cooccur import build_cooccurrence
from sawtopics.corpus import SurvivalLabels, normalize_columns, split
from sawtopics.seeding import derive_seed
from sawtopics.evaluation import c_index
from sawtopics.saw import (OBJECTIVE_SLACK, SawConfig, fit_saw, fit_usaw,
                           joint_objective, predict, update_theta)
from sawtopics.survival import RiskSets, breslow_baseline
from sawtopics.synthgen import generate_dataset
from sawtopics.topics import (doc_topic_features, kl_divergence,
                              recover_topics_unsupervised)

from helpers import eg_simplex_kl, make_corpus


def small_dataset(seed=0, n=120, d=20, k=3, m=60, censor=0.2):
    return generate_dataset(
        d=d, k=k, n=n, doc_length=m, dirichlet_concentration=0.25,
        anchor_mass=0.4, beta_true=np.array([3.0, -3.0, 0.0][:k]),
        base_rate=0.15, censor_fraction=censor, seed=seed)


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


class TestJointObjective:
    def _parts(self, seed=1):
        corpus, _ = small_dataset(seed)
        stats = build_cooccurrence(corpus)
        cfg = SawConfig(k=3, lam=0.5, alpha=0.5, seed=seed)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=seed)
        tm = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        return corpus, stats, aset, tm, Xbar

    def test_beta_zero_collapses_to_kl_plus_log_risk_sets(self):
        corpus, stats, aset, tm, Xbar = self._parts()
        labels = corpus.labels
        kl_total = sum(
            kl_divergence(stats.Qbar[w], tm.theta[w] @ stats.Qbar[list(aset.indices)])
            for w in range(stats.n_words) if w not in aset.indices)
        rs = RiskSets(labels)
        log_risk = rs.nll(np.zeros(corpus.n_docs))
        got = joint_objective(tm.theta, np.zeros(3), stats, Xbar, labels, aset, 1.0, 0.5)
        assert np.isclose(got, kl_total + log_risk, rtol=1e-10)

    def test_lambda_irrelevant_at_beta_zero(self):
        corpus, stats, aset, tm, Xbar = self._parts()
        a = joint_objective(tm.theta, np.zeros(3), stats, Xbar, corpus.labels, aset, 1.0, 0.5)
        b = joint_objective(tm.theta, np.zeros(3), stats, Xbar, corpus.labels, aset, 2.0, 0.5)
        assert a == b

    def test_infeasible_theta_rejected(self):
        corpus, stats, aset, tm, Xbar = self._parts()
        bad = tm.theta.copy()
        bad[0] = 2.0
        with pytest.raises(ValueError, match="simplex"):
            joint_objective(bad, np.zeros(3), stats, Xbar, corpus.labels, aset, 1.0, 0.5)
        bad2 = tm.theta.copy()
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
        tm = recover_topics_unsupervised(stats, aset)
        labels = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3))
        Xbar = normalize_columns(make_corpus(np.array([[1, 2, 1], [1, 1, 2],
                                                       [2, 1, 1], [1, 1, 1]])))
        got = joint_objective(tm.theta, np.zeros(2), stats, Xbar, labels, aset, 1.0, 0.5)
        assert abs(got - (np.log(3) + np.log(2))) <= 1e-6


class TestUpdateTheta:
    def test_fixed_point_at_beta_zero(self):
        corpus, _ = small_dataset(seed=4)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=4)
        tm = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        out = update_theta(tm.theta, np.zeros(3), stats, Xbar, corpus.labels, aset,
                           max_iters=50)
        assert np.abs(out - tm.theta).max() <= 1e-6

    def test_anchor_rows_stay_pinned(self):
        corpus, _ = small_dataset(seed=5)
        stats = build_cooccurrence(corpus)
        from sawtopics.anchors import stable_anchors
        aset = stable_anchors(stats, 3, T=3, seed=5)
        tm = recover_topics_unsupervised(stats, aset)
        Xbar = normalize_columns(corpus)
        beta = np.array([1.0, -1.0, 0.5])
        out = update_theta(tm.theta, beta, stats, Xbar, corpus.labels, aset)
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
            return kl + rs.nll(eta)

        theta0 = np.zeros((5, 2))
        theta0[0] = [1, 0]
        theta0[1] = [0, 1]
        theta0[free] = 0.5
        before = subobj(theta0)
        out = update_theta(theta0, beta, stats, Xbar, labels, aset, max_iters=3000,
                           inner_tol=1e-14)
        after = subobj(out)
        assert after < before

        # exhaustive 0.01-step grid, vectorized: the KL part separates per
        # row, only the partial likelihood couples the rows through eta
        ts = np.arange(0.0, 1.0001, 0.01)
        kl_tab = np.array([[kl_divergence(Qbar[w], np.array([t, 1 - t]) @ B)
                            for t in ts] for w in free])
        Xd = np.asarray(Xbar.todense())
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
    def test_coupled_kernel_matches_eg_reference(self, shape, monkeypatch):
        # the theta half-step returns theta bit-identical to the batched
        # EG kernel it came from, over 4 outer iterations of the README
        # corpus (k = 5) and of a fit_large-sized corpus (d = 400, k = 10)
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
        calls = []

        def checked(theta, beta, stats, Xbar, labels, anchors):
            out = kernel(theta, beta, stats, Xbar, labels, anchors)
            aidx = np.asarray(anchors.indices, dtype=int)
            free = np.setdiff1d(np.arange(theta.shape[0]), aidx)
            Xb = Xbar.tocsr()
            Xf = Xb[free]
            eta_const = Xb[aidx].T @ (theta[aidx] @ beta)

            def coupling(th):
                value, grad = labels.risk_sets.partial_likelihood(Xf.T @ (th @ beta) + eta_const)
                return value, lambda: np.outer(Xf @ grad(), beta)

            ref = eg_simplex_kl(stats.Qbar[free], stats.Qbar[aidx], theta[free], tol=1e-12,
                                max_iter=100, coupling=coupling)
            assert np.array_equal(out[free], ref[0])
            assert np.array_equal(out[aidx], theta[aidx])
            calls.append(ref[3][0])
            return out

        monkeypatch.setattr(saw, "update_theta", checked)
        fit_saw(corpus, SawConfig(k=params["k"], lam=0.1, alpha=0.5, seed=7, max_outer_iters=4,
                                  anchor_runs=2))
        assert len(calls) == 4 and min(calls) > 0


class TestFitSaw:
    def test_zero_outer_iters_is_unsupervised_state(self):
        corpus, _ = small_dataset(seed=7)
        cfg = SawConfig(k=3, lam=0.1, seed=7, max_outer_iters=0)
        model = fit_saw(corpus, cfg)
        assert np.array_equal(model.cox.beta, np.zeros(3))
        expect = breslow_baseline(np.zeros(3), doc_topic_features(
            model.topic_model.theta, normalize_columns(corpus)), corpus.labels)
        assert np.array_equal(model.cox.baseline.times, expect.times)
        assert np.array_equal(model.cox.baseline.cum_hazard, expect.cum_hazard)
        assert model.trace.iterations == 0
        stats = build_cooccurrence(corpus)
        tm = recover_topics_unsupervised(stats, model.topic_model.anchors)
        assert np.abs(model.topic_model.theta - tm.theta).max() <= 1e-12

    def test_every_word_an_anchor(self, monkeypatch):
        # k = d: every theta row is a pinned indicator, so the theta
        # half-step has no free row and returns its input
        corpus, _ = small_dataset(seed=10, d=8)
        kernel = saw.update_theta
        calls = []

        def checked(theta, *args):
            out = kernel(theta, *args)
            assert np.array_equal(out, theta)
            calls.append(1)
            return out

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
        tm = recover_topics_unsupervised(stats, model.topic_model.anchors)
        assert np.abs(model.topic_model.theta - tm.theta).max() <= 1e-6

    def test_block_descent_trace_monotone(self):
        for seed in range(3):
            corpus, _ = small_dataset(seed=20 + seed)
            model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=seed))
            assert objective_is_monotone(model.trace.objective_values)

    def test_feasibility_after_fit(self):
        corpus, _ = small_dataset(seed=9)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=9))
        theta = model.topic_model.theta
        assert np.abs(theta.sum(axis=1) - 1.0).max() <= 1e-8
        assert theta.min() >= 0.0
        for g, a in enumerate(model.topic_model.anchors.indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.array_equal(theta[a], expect)
        assert np.abs(model.topic_model.A.sum(axis=0) - 1.0).max() <= 1e-8

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
        assert m1.topic_model.anchors.indices == m2.topic_model.anchors.indices
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
        assert np.abs(a.topic_model.theta - b.topic_model.theta).max() <= 1e-6

    def test_single_beta_fit_no_alternation(self):
        corpus, _ = small_dataset(seed=16)
        model = fit_usaw(corpus, SawConfig(k=3, lam=0.1, seed=16))
        assert model.trace.iterations == 1
        assert len(model.trace.objective_values) == 2
        assert model.method == "usaw"


class TestPredict:
    def test_anchor_only_document_risk_is_coefficient(self):
        corpus, _ = small_dataset(seed=17, n=200, m=80)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=17))
        a0 = model.topic_model.anchors.indices[0]
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
        from sawtopics.corpus import subset
        dup = subset(corpus, [0, 0])
        again = predict(model, dup)
        assert again.risk[0] == again.risk[1] == preds.risk[0]

    def test_vocabulary_mismatch(self):
        corpus, _ = small_dataset(seed=19)
        model = fit_saw(corpus, SawConfig(k=3, lam=0.1, seed=19))
        other = make_corpus(np.ones((4, 3), dtype=int) * 2)
        with pytest.raises(ValueError, match="vocabulary"):
            predict(model, other)
