import math

import numpy as np
import pytest

from sawtopics.cooccur import BLOCK, build_cooccurrence, row_normalize
from sawtopics.seeding import derive_seed
from sawtopics.synthgen import generate_corpus, generate_dataset, generate_topic_model

from helpers import cooccurrence_reference, make_corpus


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
        with pytest.raises(ValueError, match="^documents with fewer than 2 tokens: p001$"):
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



def readme_corpus():
    corpus, _ = generate_dataset(d=60, k=5, n=1000, doc_length=300,
                                 beta_true=np.array([3.0, -3.0, 0.0, 3.0, -3.0]),
                                 dirichlet_concentration=0.1, anchor_mass=0.3, base_rate=0.1,
                                 censor_fraction=0.2, seed=derive_seed(7, "synth"))
    return corpus


def random_corpus(d, n, high, seed):
    counts = np.random.default_rng(seed).integers(0, high, size=(d, n))
    counts[0] += 2  # every document has at least 2 tokens
    return make_corpus(counts)


class TestMatchesSparseReference:
    # the blocked dense sum against scipy's sparse product X diag(w) X^T
    @pytest.mark.parametrize("corpus", [
        pytest.param(lambda: random_corpus(30, 2 * BLOCK + 452, 3, 0), id="partial-last-block"),
        pytest.param(lambda: random_corpus(BLOCK + 76, 40, 2, 1), id="d-over-block"),
        pytest.param(lambda: random_corpus(7, BLOCK, 4, 2), id="one-full-block"),
        pytest.param(lambda: random_corpus(5, BLOCK + 1, 4, 3), id="one-patient-last-block"),
        pytest.param(readme_corpus, id="readme"),
    ])
    def test_same_stats(self, corpus):
        corpus = corpus()
        got, want = build_cooccurrence(corpus), cooccurrence_reference(corpus)
        assert np.abs(got.Qbar - want.Qbar).max() <= 1e-13
        assert np.abs(got.p - want.p).max() <= 1e-13
        assert np.array_equal(got.zero_words, want.zero_words)

    def test_word_that_never_cooccurs(self, caplog):
        counts = np.random.default_rng(3).integers(0, 3, size=(9, 50))
        counts[0] += 2
        counts[[4, 7]] = 0
        corpus = make_corpus(counts)
        with caplog.at_level("WARNING", logger="sawtopics.cooccur"):
            got = build_cooccurrence(corpus)
        assert caplog.messages == ["2 word(s) never co-occur; their rows are set uniform"]
        want = cooccurrence_reference(corpus)
        assert got.zero_words.tolist() == want.zero_words.tolist() == [4, 7]
        assert np.array_equal(got.Qbar[[4, 7]], np.full((2, 9), 1 / 9))
        assert np.abs(got.Qbar - want.Qbar).max() <= 1e-13
        assert np.abs(got.p - want.p).max() <= 1e-13


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
