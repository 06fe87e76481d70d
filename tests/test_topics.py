import numpy as np
import pytest

from sawtopics.anchors import AnchorSet, stable_anchors
from sawtopics.cooccur import CooccurrenceStats, build_cooccurrence
from sawtopics.synthgen import generate_corpus, generate_topic_model
from sawtopics.topics import (ConvergenceError, bayes_topic_posterior,
                              doc_topic_features, kl_divergence, minimize_simplex_kl,
                              recover_topics_unsupervised, recover_word_topic_matrix)

from helpers import minimize_row_kl, simplex_grid_2


def anchors_of(indices, d):
    return AnchorSet(tuple(indices), {i: 1 for i in indices}, runs=1, projection_dim=d)


def stats_from_qbar(Qbar, p=None):
    """Wrap a hand-built row-stochastic matrix as CooccurrenceStats."""
    Qbar = np.asarray(Qbar, dtype=float)
    d = Qbar.shape[0]
    p = np.full(d, 1.0 / d) if p is None else np.asarray(p, dtype=float)
    Q = Qbar * p[:, None]
    return CooccurrenceStats(Q, p, Qbar, np.flatnonzero(p <= 0))


def solve_row(p, B, **kwargs):
    """The batched kernel on a one-row matrix: (theta, objective, converged)."""
    theta, f, converged, _ = minimize_simplex_kl(np.atleast_2d(p), B, **kwargs)
    return theta[0], f[0], converged[0]


def prefix_objectives(P, B, n_iter):
    """Per-row objectives after max_iter = 1..n_iter; the kernel is
    deterministic, so these are prefixes of one trajectory."""
    return np.array([minimize_simplex_kl(P, B, max_iter=it)[1] for it in range(1, n_iter + 1)])


class TestKlDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, p) <= 1e-14

    def test_point_mass_vs_uniform(self):
        assert np.isclose(kl_divergence([1, 0], [0.5, 0.5]), np.log(2))

    def test_half_half_vs_quarter(self):
        expect = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert np.isclose(kl_divergence([0.5, 0.5], [0.25, 0.75]), expect)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_divergence(p, q) >= -1e-12

    def test_row_wise(self):
        rng = np.random.default_rng(7)
        P = rng.dirichlet(np.ones(5), size=4)
        Q = rng.dirichlet(np.ones(5), size=4)
        expect = [kl_divergence(p, q) for p, q in zip(P, Q)]
        assert np.allclose(kl_divergence(P, Q), expect, rtol=1e-12)


class TestRowSolver:
    def test_exact_anchor_copy(self):
        rng = np.random.default_rng(2)
        B = rng.dirichlet(np.ones(8), size=3)
        theta, f, _ = solve_row(B[2], B)
        assert np.abs(theta - [0, 0, 1]).max() <= 1e-6
        assert f <= 1e-10
        # the zero-objective stop ends the row after as many steps as the reference
        steps = minimize_simplex_kl(B[2][None], B)[3]
        assert steps[0] == len(minimize_row_kl(B[2], B).trace) - 1

    def test_even_mixture(self):
        rng = np.random.default_rng(3)
        B = rng.dirichlet(np.ones(8), size=2)
        theta, f, _ = solve_row(0.5 * B[0] + 0.5 * B[1], B, tol=1e-12)
        assert np.abs(theta - 0.5).max() <= 1e-8
        assert f <= 1e-8

    def test_uneven_mixture(self):
        rng = np.random.default_rng(4)
        B = rng.dirichlet(np.ones(10), size=2)
        theta, _, _ = solve_row(0.3 * B[0] + 0.7 * B[1], B, tol=1e-12)
        assert np.abs(theta - [0.3, 0.7]).max() <= 1e-6

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            B = rng.dirichlet(np.ones(6), size=3)
            p = rng.dirichlet(np.ones(6))
            values = prefix_objectives(p[None], B, 30)
            assert np.all(np.diff(values, axis=0) <= 1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(6)
        grid = simplex_grid_2(0.01)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            B = rng.dirichlet(np.ones(d), size=2)
            p = rng.dirichlet(np.ones(d))
            theta, f, _ = solve_row(p, B, tol=1e-12)
            vals = [kl_divergence(p, th @ B) for th in grid]
            best = grid[int(np.argmin(vals))]
            assert np.abs(theta - best).sum() <= 0.02
            assert f <= min(vals) + 1e-9


class TestRecoverUnsupervised:
    def test_constraints_hold_exactly(self):
        truth = generate_topic_model(15, 3, 0.5, seed=7)
        corpus, _ = generate_corpus(truth, 300, 60, 0.3, 8)
        stats = build_cooccurrence(corpus)
        aset = stable_anchors(stats, 3, T=3, seed=9)
        tm = recover_topics_unsupervised(stats, aset)
        assert np.abs(tm.theta.sum(axis=1) - 1.0).max() <= 1e-8
        assert tm.theta.min() >= 0.0
        for g, a in enumerate(aset.indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.array_equal(tm.theta[a], expect)
        assert tm.A is None

    def test_every_row_trace_monotone_on_real_stats(self):
        # the per-iteration non-increase must hold for every row of an
        # actual recovery, not just test vectors
        truth = generate_topic_model(20, 3, 0.4, seed=8)
        corpus, _ = generate_corpus(truth, 250, 60, 0.3, 9)
        stats = build_cooccurrence(corpus)
        aset = anchors_of(truth.anchor_indices, 20)
        B = stats.Qbar[list(aset.indices)]
        P = np.delete(stats.Qbar, aset.indices, axis=0)
        assert minimize_simplex_kl(P, B)[2].all()
        values = prefix_objectives(P, B, 40)
        assert np.all(np.diff(values, axis=0) <= 1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    def test_batched_matches_row_reference(self, k):
        # the planted k converges everywhere; the over-specified k = 4 at a
        # short budget leaves a mix of converged and failed rows
        truth = generate_topic_model(24, 3, 0.4, seed=21)
        corpus, _ = generate_corpus(truth, 500, 100, 0.3, 22)
        stats = build_cooccurrence(corpus)
        aset = stable_anchors(stats, k, T=3, seed=23)
        B = stats.Qbar[list(aset.indices)]
        free = np.setdiff1d(np.arange(24), aset.indices)
        ref = [minimize_row_kl(stats.Qbar[w], B, max_iter=500) for w in free]
        theta, f, converged, steps = minimize_simplex_kl(stats.Qbar[free], B, max_iter=500)
        assert converged.tolist() == [r.converged for r in ref]
        assert steps.tolist() == [len(r.trace) - 1 for r in ref]
        assert np.abs(theta - [r.theta for r in ref]).max() <= 1e-6
        assert np.allclose(f, [r.objective for r in ref], rtol=1e-9, atol=1e-15)
        failed = [(w, r.objective) for w, r in zip(free, ref) if not r.converged]
        if not failed:
            tm = recover_topics_unsupervised(stats, aset, max_iter=500)
            assert np.abs(tm.theta[free] - [r.theta for r in ref]).max() <= 1e-6
            return
        assert 0 < len(failed) < free.size
        with pytest.raises(ConvergenceError) as err:
            recover_topics_unsupervised(stats, aset, max_iter=500)
        assert err.value.worst_row == max(failed, key=lambda t: t[1])[0]
        assert str(err.value).startswith(f"{len(failed)} row(s) failed")

    def test_iteration_cap_raises_with_worst_row(self):
        rng = np.random.default_rng(10)
        Qbar = rng.dirichlet(np.ones(6), size=4)
        stats = stats_from_qbar(Qbar)
        with pytest.raises(ConvergenceError) as err:
            recover_topics_unsupervised(stats, anchors_of([0, 1], 4), tol=1e-30, max_iter=1)
        assert 0 <= err.value.worst_row < 4


class TestRecoverWordTopicMatrix:
    def test_identity_theta_uniform_p(self):
        A = recover_word_topic_matrix(np.eye(3), np.full(3, 1 / 3))
        assert np.allclose(A, np.eye(3))

    def test_single_topic_returns_p(self):
        A = recover_word_topic_matrix(np.ones((2, 1)), np.array([0.3, 0.7]))
        assert np.allclose(A.ravel(), [0.3, 0.7])

    def test_worked_example(self):
        theta = np.array([[1, 0], [0, 1], [0.5, 0.5]], dtype=float)
        p = np.array([0.25, 0.25, 0.5])
        A = recover_word_topic_matrix(theta, p)
        assert np.allclose(A[:, 0], [0.5, 0.0, 0.5])
        assert np.allclose(A[:, 1], [0.0, 0.5, 0.5])

    def test_zero_mass_topic(self):
        theta = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="topic"):
            recover_word_topic_matrix(theta, np.array([0.5, 0.5]))

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(11)
        theta = rng.dirichlet(np.ones(4), size=9)
        p = rng.dirichlet(np.ones(9))
        A = recover_word_topic_matrix(theta, p)
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-8

    def test_bayes_round_trip(self):
        # theta -> A -> theta with the matching topic masses is the identity
        rng = np.random.default_rng(12)
        theta = rng.dirichlet(np.ones(3), size=8)
        p = rng.dirichlet(np.ones(8))
        A = recover_word_topic_matrix(theta, p)
        masses = theta.T @ p
        back = bayes_topic_posterior(A, masses)
        assert np.abs(back - theta).max() <= 1e-8


class TestDocTopicFeatures:
    def test_identity_theta(self):
        X = np.array([[0.2], [0.8]])
        assert np.allclose(doc_topic_features(np.eye(2), X), [[0.2, 0.8]])

    def test_anchor_only_document(self):
        theta = np.array([[1, 0], [0, 1], [0.5, 0.5]], dtype=float)
        X = np.array([[0.0], [1.0], [0.0]])  # only the second word, an anchor
        assert np.allclose(doc_topic_features(theta, X), [[0.0, 1.0]])

    def test_constant_rows(self):
        theta = np.full((3, 2), 0.5)
        rng = np.random.default_rng(13)
        X = rng.dirichlet(np.ones(3), size=5).T
        Z = doc_topic_features(theta, X)
        assert np.allclose(Z, 0.5)

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(14)
        theta = rng.dirichlet(np.ones(4), size=6)
        X = rng.dirichlet(np.ones(6), size=10).T
        Z = doc_topic_features(theta, X)
        assert np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-8
        assert Z.min() >= 0.0 and Z.max() <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            doc_topic_features(np.eye(3), np.ones((2, 4)))


class TestRepresentability:
    def test_planted_model_all_representable(self):
        truth = generate_topic_model(25, 3, 0.4, seed=15)
        corpus, _ = generate_corpus(truth, 4000, 200, 0.3, 16)
        stats = build_cooccurrence(corpus)
        aset = anchors_of(truth.anchor_indices, 25)
        residuals = recover_topics_unsupervised(stats, aset).residuals
        assert np.all(residuals <= 1e-3)

    def test_threshold_zero_flags_positive_residuals(self):
        truth = generate_topic_model(15, 2, 0.4, seed=17)
        corpus, _ = generate_corpus(truth, 200, 50, 0.3, 18)
        stats = build_cooccurrence(corpus)
        aset = anchors_of(truth.anchor_indices, 15)
        residuals = recover_topics_unsupervised(stats, aset).residuals
        flagged = np.flatnonzero(residuals > 0.0)
        # sampling noise leaves every non-anchor word a positive residual
        assert set(flagged.tolist()) == set(range(15)) - set(aset.indices)

    def test_disjoint_support_word_flagged(self):
        # word 3's row lives where no anchor row has mass: not representable
        Qbar = np.array([
            [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
        ])
        stats = stats_from_qbar(Qbar)
        residuals = recover_topics_unsupervised(stats, anchors_of([0, 1], 4)).residuals
        assert residuals[3] > 0.1
        assert residuals[3] > 1.0  # log-floor KL blows up on disjoint support
