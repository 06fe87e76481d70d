import numpy as np
import pytest

from sawtopics.anchors import AnchorSet, stable_anchors
from sawtopics.cooccur import CooccurrenceStats, build_cooccurrence
from sawtopics.synthgen import generate_corpus, generate_topic_model
from sawtopics import topics
from sawtopics.topics import (GAP_TOL, ConvergenceError, doc_topic_features, kl_divergence,
                              newton_simplex_kl, recover_topics_unsupervised,
                              recover_word_topic_matrix)

from helpers import bayes_topic_posterior, eg_simplex_kl, minimize_row_kl, simplex_grid_2


def anchors_of(indices, d):
    return AnchorSet(tuple(indices), {i: 1 for i in indices}, runs=1, projection_dim=d)


def stats_from_qbar(Qbar, p=None):
    """Wrap a hand-built row-stochastic matrix as CooccurrenceStats."""
    Qbar = np.asarray(Qbar, dtype=float)
    d = Qbar.shape[0]
    p = np.full(d, 1.0 / d) if p is None else np.asarray(p, dtype=float)
    return CooccurrenceStats(p, Qbar, np.flatnonzero(p <= 0))


def solve_row(p, B):
    """The batched kernel on a one-row matrix: (theta, objective, certified)."""
    theta, f, gap, _ = newton_simplex_kl(np.atleast_2d(p), B)
    return theta[0], f[0], gap[0] <= GAP_TOL


def prefix_objectives(P, B, n_iter, monkeypatch):
    """Per-row objectives after Newton budgets of 1..n_iter; the kernel is
    deterministic, so these are prefixes of one trajectory."""
    values = []
    for it in range(1, n_iter + 1):
        monkeypatch.setattr(topics, "newton_budget", lambda k: it)
        values.append(newton_simplex_kl(P, B)[1])
    monkeypatch.undo()
    return np.array(values)


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
        theta, f, certified = solve_row(B[2], B)
        assert np.abs(theta - [0, 0, 1]).max() <= 1e-6
        assert f <= 1e-10
        assert certified

    def test_even_mixture(self):
        rng = np.random.default_rng(3)
        B = rng.dirichlet(np.ones(8), size=2)
        theta, f, _ = solve_row(0.5 * B[0] + 0.5 * B[1], B)
        assert np.abs(theta - 0.5).max() <= 1e-8
        assert f <= 1e-8

    def test_uneven_mixture(self):
        rng = np.random.default_rng(4)
        B = rng.dirichlet(np.ones(10), size=2)
        theta, _, _ = solve_row(0.3 * B[0] + 0.7 * B[1], B)
        assert np.abs(theta - [0.3, 0.7]).max() <= 1e-6

    def test_objective_never_increases(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(10):
            B = rng.dirichlet(np.ones(6), size=3)
            p = rng.dirichlet(np.ones(6))
            values = prefix_objectives(p[None], B, 30, monkeypatch)
            assert np.all(np.diff(values, axis=0) <= 1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(6)
        grid = simplex_grid_2(0.01)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            B = rng.dirichlet(np.ones(d), size=2)
            p = rng.dirichlet(np.ones(d))
            theta, f, _ = solve_row(p, B)
            vals = [kl_divergence(p, th @ B) for th in grid]
            best = grid[int(np.argmin(vals))]
            assert np.abs(theta - best).sum() <= 0.02
            assert f <= min(vals) + 1e-9

    def test_singular_batch_solved_row_by_row(self, monkeypatch):
        # when the batched face solve raises LinAlgError, each row's system
        # is solved alone, and every row still certifies at the batched theta
        rng = np.random.default_rng(7)
        B = rng.dirichlet(np.ones(12), size=4)
        P = rng.dirichlet(np.ones(12), size=20)
        theta, _, gap, _ = newton_simplex_kl(P, B)
        solve, batched = np.linalg.solve, []

        def batch_fails(M, rhs):
            if M.ndim == 3:
                batched.append(len(M))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(M, rhs)

        monkeypatch.setattr(np.linalg, "solve", batch_fails)
        theta_rows, _, gap_rows, _ = newton_simplex_kl(P, B)
        assert batched and np.all(gap <= GAP_TOL) and np.all(gap_rows <= GAP_TOL)
        assert np.abs(theta_rows - theta).max() <= 1e-12

    def test_zero_anchor_entries_keep_covered_columns_positive(self):
        # anchor rows with exact zeros: a step that zeroes the only support
        # coordinate covering a column where P > 0 makes the KL infinite, so
        # no certified row may end there, nor above a long EG run
        rng = np.random.default_rng(0)
        for _ in range(150):
            k, d = int(rng.integers(2, 6)), int(rng.integers(4, 16))
            B = rng.dirichlet(np.full(d, 0.1), size=k)
            B[B < 0.05] = 0.0
            B /= B.sum(axis=1, keepdims=True)
            P = rng.dirichlet(np.ones(d), size=10)
            theta, f, gap, _ = newton_simplex_kl(P, B)
            assert np.all(gap <= GAP_TOL)
            lost = (theta @ B == 0) & (P > 0) & (B.sum(axis=0) > 0)
            assert not lost.any()
            _, f_eg, _, _ = eg_simplex_kl(P, B, max_iter=3000)
            assert np.all(f <= f_eg + 1e-9)


class TestRecoverUnsupervised:
    def test_constraints_hold_exactly(self):
        truth = generate_topic_model(15, 3, 0.5, seed=7)
        corpus, _ = generate_corpus(truth, 300, 60, 0.3, 8)
        stats = build_cooccurrence(corpus)
        aset = stable_anchors(stats, 3, T=3, seed=9)
        theta, _ = recover_topics_unsupervised(stats, aset)
        assert np.abs(theta.sum(axis=1) - 1.0).max() <= 1e-8
        assert theta.min() >= 0.0
        for g, a in enumerate(aset.indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.array_equal(theta[a], expect)

    def test_every_row_trace_monotone_on_real_stats(self, monkeypatch):
        # the per-iteration non-increase must hold for every row of an
        # actual recovery, not just test vectors
        truth = generate_topic_model(20, 3, 0.4, seed=8)
        corpus, _ = generate_corpus(truth, 250, 60, 0.3, 9)
        stats = build_cooccurrence(corpus)
        aset = anchors_of(truth.anchor_indices, 20)
        B = stats.Qbar[list(aset.indices)]
        P = np.delete(stats.Qbar, aset.indices, axis=0)
        assert (newton_simplex_kl(P, B)[2] <= GAP_TOL).all()
        values = prefix_objectives(P, B, 40, monkeypatch)
        assert np.all(np.diff(values, axis=0) <= 1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    def test_batched_matches_row_reference(self, k):
        # the planted k: the row-at-a-time EG reference converges everywhere
        # and the Newton rows agree with it; at the over-specified k = 4 EG
        # leaves rows unconverged, while every Newton row is certified within
        # its budget and none is above the reference
        truth = generate_topic_model(24, 3, 0.4, seed=21)
        corpus, _ = generate_corpus(truth, 500, 100, 0.3, 22)
        stats = build_cooccurrence(corpus)
        aset = stable_anchors(stats, k, T=3, seed=23)
        B = stats.Qbar[list(aset.indices)]
        free = np.setdiff1d(np.arange(24), aset.indices)
        ref = [minimize_row_kl(stats.Qbar[w], B, max_iter=500) for w in free]
        ref_f = np.array([r.objective for r in ref])
        theta, f, gap, steps = newton_simplex_kl(stats.Qbar[free], B)
        assert np.all(gap <= GAP_TOL) and steps.max() < topics.newton_budget(k)
        assert np.all(f <= ref_f + 1e-15)
        assert np.array_equal(recover_topics_unsupervised(stats, aset)[0][free], theta)
        if k == 3:
            assert all(r.converged for r in ref)
            assert np.abs(theta - [r.theta for r in ref]).max() <= 1e-6
            assert np.allclose(f, ref_f, rtol=1e-9, atol=1e-12)
        else:
            assert not all(r.converged for r in ref)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_k_up_to_vocabulary_size(self, extra):
        # k = d - 1 leaves one free row, which starts from a uniform mix of
        # d - 1 anchors; k = d leaves none
        truth = generate_topic_model(12, 3, 0.4, seed=24)
        corpus, _ = generate_corpus(truth, 300, 60, 0.3, 25)
        stats = build_cooccurrence(corpus)
        d = stats.Qbar.shape[0]
        theta, kl = recover_topics_unsupervised(stats, anchors_of(range(d - 1 + extra), d))
        assert theta.shape == (d, d - 1 + extra)
        assert np.abs(theta.sum(axis=1) - 1.0).max() <= 1e-12
        if extra:
            assert np.array_equal(theta, np.eye(d)) and not kl.any()

    def test_iteration_cap_raises_with_worst_row(self, monkeypatch):
        rng = np.random.default_rng(10)
        Qbar = rng.dirichlet(np.ones(6), size=4)
        stats = stats_from_qbar(Qbar)
        monkeypatch.setattr(topics, "newton_budget", lambda k: 1)
        with pytest.raises(ConvergenceError) as err:
            recover_topics_unsupervised(stats, anchors_of([0, 1], 4))
        assert 0 <= err.value.worst_row < 4
        B = Qbar[[0, 1]]
        gap = newton_simplex_kl(Qbar[[2, 3]], B)[2]
        assert err.value.gap == gap.max() > GAP_TOL
        assert err.value.worst_row == 2 + int(np.argmax(gap))
        n = int((gap > GAP_TOL).sum())
        assert str(err.value) == (
            f"{n} row(s) failed to reach Frank-Wolfe gap {GAP_TOL:g} within 1 Newton "
            f"iterations; worst row {err.value.worst_row} has gap {gap.max():.3g}")


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
        _, kl = recover_topics_unsupervised(stats, aset)
        assert np.all(kl <= 1e-3)

    def test_threshold_zero_flags_positive_residuals(self):
        truth = generate_topic_model(15, 2, 0.4, seed=17)
        corpus, _ = generate_corpus(truth, 200, 50, 0.3, 18)
        stats = build_cooccurrence(corpus)
        aset = anchors_of(truth.anchor_indices, 15)
        _, kl = recover_topics_unsupervised(stats, aset)
        flagged = np.flatnonzero(kl > 0.0)
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
        _, kl = recover_topics_unsupervised(stats, anchors_of([0, 1], 4))
        assert kl[3] > 0.1
        assert kl[3] > 1.0  # log-floor KL blows up on disjoint support
