import math

import numpy as np
import pytest

from sawtopics.cooccur import build_cooccurrence, row_normalize
from sawtopics.seeding import derive_seed
from sawtopics.synthgen import generate_corpus, generate_topic_model

from helpers import make_corpus


class TestBuildCooccurrence:
    def test_single_doc_2_1(self):
        s = build_cooccurrence(make_corpus([[2], [1]]))
        assert np.allclose(s.Qbar * s.p[:, None], [[1 / 3, 1 / 3], [1 / 3, 0.0]])
        assert np.allclose(s.p, [2 / 3, 1 / 3])
        assert np.allclose(s.Qbar, [[0.5, 0.5], [1.0, 0.0]])

    def test_single_doc_1_1(self):
        s = build_cooccurrence(make_corpus([[1], [1]]))
        assert np.allclose(s.Qbar * s.p[:, None], [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(s.p, [0.5, 0.5])

    def test_total_mass_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            counts = rng.integers(0, 4, size=(7, 12))
            counts[0] += 1
            counts[1] += 1
            s = build_cooccurrence(make_corpus(counts))
            Q = s.Qbar * s.p[:, None]
            assert math.isclose(Q.sum(), 1.0, abs_tol=1e-10)
            assert math.isclose(s.p.sum(), 1.0, abs_tol=1e-10)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 5, size=(9, 25))
        counts[0] += 1
        counts[1] += 1
        s = build_cooccurrence(make_corpus(counts))
        Q = s.Qbar * s.p[:, None]
        assert np.abs(Q - Q.T).max() <= 1e-12
        assert Q.min() >= 0.0

    def test_qbar_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 5, size=(6, 15))
        counts[2] += 1
        counts[3] += 1
        s = build_cooccurrence(make_corpus(counts))
        pos = s.p > 0
        assert np.abs(s.Qbar[pos].sum(axis=1) - 1.0).max() <= 1e-10

    def test_short_document_error_names_patient(self):
        with pytest.raises(ValueError, match="p001"):
            build_cooccurrence(make_corpus([[2, 1], [1, 0]]))

    def test_zero_word_flagged_uniform(self):
        counts = np.array([[2, 1], [1, 2], [0, 0]])
        s = build_cooccurrence(make_corpus(counts))
        assert s.zero_words.tolist() == [2]
        assert np.allclose(s.Qbar[2], 1 / 3)

    def test_unbiased_per_document_term(self):
        # exact expectation over every multinomial outcome, d=2 m=3:
        # E[(H H^T - diag H) / (m (m-1))] must equal the outer product M M^T
        M = np.array([0.3, 0.7])
        m = 3
        expect = np.zeros((2, 2))
        for h0 in range(m + 1):
            h1 = m - h0
            prob = math.comb(m, h0) * M[0] ** h0 * M[1] ** h1
            H = np.array([h0, h1], dtype=float)
            expect += prob * (np.outer(H, H) - np.diag(H)) / (m * (m - 1))
        assert np.abs(expect - np.outer(M, M)).max() <= 1e-12

    def test_convergence_to_population_matrix(self):
        # Q from n docs approaches A E[W W^T] A^T; error shrinks along
        # n = 100, 1000, 10000 for a fixed seed family
        k, d, a0, m = 3, 12, 0.5, 50
        truth = generate_topic_model(d, k, anchor_mass=0.4, seed=11)
        A = truth.A_true
        diag = (1 + (k - 1) / (k * a0 + 1)) / k ** 2
        off = (k * a0 / (k * a0 + 1)) / k ** 2
        gamma = np.full((k, k), off)
        np.fill_diagonal(gamma, diag)
        pop = A @ gamma @ A.T
        errs = []
        for n in (100, 1000, 10000):
            corpus, _ = generate_corpus(truth, n, m, a0, derive_seed(12, f"n{n}"))
            s = build_cooccurrence(corpus)
            errs.append(np.abs(s.Qbar * s.p[:, None] - pop).max())
        assert errs[0] > errs[1] > errs[2]


class TestRowNormalize:
    def test_division(self):
        out = row_normalize(np.array([[0.2, 0.2]]), np.array([0.4]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_zero_row_uniform(self):
        out = row_normalize(np.zeros((1, 4)), np.zeros(1))
        assert np.allclose(out, 0.25)

    def test_normalized_row_unchanged(self):
        row = np.array([[0.25, 0.75]])
        out = row_normalize(row, np.array([1.0]))
        assert np.allclose(out, row)
