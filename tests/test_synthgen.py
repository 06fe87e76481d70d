import json
import re

import numpy as np
import pytest
from scipy import stats as sps

from sawtopics.survival import kaplan_meier
from sawtopics.synthgen import (generate_corpus, generate_dataset,
                                generate_survival, generate_topic_model,
                                load_ground_truth, save_ground_truth)

import helpers


class TestGenerateTopicModel:
    def test_identity_when_all_words_are_anchors(self):
        # d == k with full anchor mass: every column is a standard basis
        # vector, i.e. A is the identity up to the anchor-row assignment
        truth = generate_topic_model(4, 4, anchor_mass=1.0, seed=0)
        expect = np.zeros((4, 4))
        expect[list(truth.anchor_indices), np.arange(4)] = 1.0
        assert np.allclose(truth.A_true, expect)

    def test_anchor_rows_have_single_support(self):
        truth = generate_topic_model(12, 3, anchor_mass=0.3, seed=1)
        for g, a in enumerate(truth.anchor_indices):
            row = truth.A_true[a]
            assert row[g] > 0
            assert np.all(row[np.arange(3) != g] == 0)

    def test_columns_stochastic_and_anchor_mass(self):
        truth = generate_topic_model(4, 2, anchor_mass=0.3, seed=2)
        assert np.allclose(truth.A_true.sum(axis=0), 1.0)
        for g, a in enumerate(truth.anchor_indices):
            assert np.isclose(truth.A_true[a, g], 0.3)

    def test_d_less_than_k(self):
        with pytest.raises(ValueError):
            generate_topic_model(2, 3, anchor_mass=0.5, seed=0)


class TestGenerateCorpus:
    def test_column_sums_equal_doc_length(self):
        truth = generate_topic_model(10, 2, 0.4, seed=3)
        corpus, W = generate_corpus(truth, n=50, doc_length=30,
                                    dirichlet_concentration=0.5, seed=4)
        assert np.all(corpus.doc_lengths == 30)
        assert W.shape == (2, 50)
        assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-10

    def test_large_concentration_gives_uniform_proportions(self):
        truth = generate_topic_model(20, 5, 0.4, seed=5)
        _, W = generate_corpus(truth, n=100, doc_length=10,
                               dirichlet_concentration=1000.0, seed=6)
        assert np.abs(W.mean(axis=1) - 0.2).max() < 0.05
        assert np.abs(W - 0.2).max() < 0.15

    def test_law_of_large_numbers_word_frequencies(self):
        truth = generate_topic_model(15, 3, 0.4, seed=7)
        corpus, _ = generate_corpus(truth, n=10000, doc_length=300,
                                    dirichlet_concentration=0.3, seed=8)
        emp = helpers.dense(corpus).sum(axis=1) / (10000 * 300)
        expect = truth.A_true @ np.full(3, 1 / 3)  # E[W] is uniform
        assert np.abs(emp - expect).max() <= 0.01

    def test_doc_length_floor(self):
        truth = generate_topic_model(5, 2, 0.4, seed=9)
        with pytest.raises(ValueError):
            generate_corpus(truth, 10, doc_length=1, dirichlet_concentration=1.0, seed=0)

    def test_deterministic(self):
        truth = generate_topic_model(8, 2, 0.4, seed=10)
        c1, W1 = generate_corpus(truth, 20, 15, 0.5, seed=11)
        c2, W2 = generate_corpus(truth, 20, 15, 0.5, seed=11)
        assert np.array_equal(helpers.dense(c1), helpers.dense(c2))
        assert np.array_equal(W1, W2)


class TestGenerateSurvival:
    def _setup(self, n=2000, seed=12):
        rng = np.random.default_rng(seed)
        W = rng.dirichlet(np.ones(3), size=n).T
        return W

    def test_no_censoring(self):
        W = self._setup(200)
        lab = generate_survival(W, np.array([1.0, -1.0, 0.0]), base_rate=0.5,
                                censor_fraction=0.0, seed=13)
        assert lab.observed.all()

    def test_km_median_matches_exponential_formula(self):
        W = self._setup(2000)
        base = 0.25
        lab = generate_survival(W, np.zeros(3), base_rate=base,
                                censor_fraction=0.0, seed=14)
        _, med, _ = kaplan_meier(lab)
        assert abs(med - np.log(2) / base) <= 0.1 * np.log(2) / base

    def test_censored_fraction_near_target(self):
        W = self._setup(4000)
        lab = generate_survival(W, np.array([2.0, -2.0, 0.0]), base_rate=0.3,
                                censor_fraction=0.3, seed=15)
        frac = 1.0 - lab.observed.mean()
        assert abs(frac - 0.3) <= 0.05

    def test_higher_risk_means_shorter_times(self):
        rng = np.random.default_rng(16)
        W = rng.dirichlet(np.full(3, 0.2), size=2000).T
        beta = np.array([3.0, -3.0, 0.0])
        lab = generate_survival(W, beta, base_rate=0.2, censor_fraction=0.0, seed=17)
        risk = beta @ W
        rho = sps.spearmanr(risk, lab.times).statistic
        assert rho < -0.3

    def test_parameter_validation(self):
        W = self._setup(10)
        with pytest.raises(ValueError):
            generate_survival(W, np.zeros(3), base_rate=0.0, censor_fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            generate_survival(W, np.zeros(3), base_rate=1.0, censor_fraction=1.0, seed=0)


class TestGenerateDataset:
    def test_composition(self):
        corpus, truth = generate_dataset(
            d=20, k=3, n=60, doc_length=40, dirichlet_concentration=0.3,
            anchor_mass=0.4, beta_true=np.array([2.0, -2.0, 0.0]),
            base_rate=0.2, censor_fraction=0.2, seed=18)
        assert corpus.n_words == 20 and corpus.n_docs == 60
        assert truth.W_true.shape == (3, 60)
        M = truth.A_true @ truth.W_true
        assert M.shape == (20, 60)
        assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-10
        assert len(corpus.labels) == 60

    def test_truth_round_trip(self, tmp_path):
        _, truth = generate_dataset(
            d=10, k=2, n=20, doc_length=10, dirichlet_concentration=0.5,
            anchor_mass=0.5, beta_true=np.array([1.0, -1.0]),
            base_rate=0.2, censor_fraction=0.0, seed=19)
        path = tmp_path / "truth.json"
        save_ground_truth(truth, path)
        back = load_ground_truth(path)
        assert np.array_equal(back.A_true, truth.A_true)
        assert np.array_equal(back.W_true, truth.W_true)
        assert np.array_equal(back.beta_true, truth.beta_true)
        assert back.anchor_indices == truth.anchor_indices

    @pytest.mark.parametrize("field, value, message", [
        ("format", "sawtopics-model", "not a ground-truth file: {path}"),
        ("version", 2, "unsupported ground-truth version 2: {path}; "
                       "`sawtopics synth` writes version 1"),
    ])
    def test_truth_file_checked(self, tmp_path, field, value, message):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"format": "sawtopics-truth", "version": 1, field: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
            load_ground_truth(path)

    def test_theta_star_oracle_shape(self):
        truth = generate_topic_model(12, 3, 0.5, seed=20)
        from helpers import bayes_topic_posterior
        theta_star = bayes_topic_posterior(truth.A_true)
        assert np.abs(theta_star.sum(axis=1) - 1.0).max() <= 1e-10
        for g, a in enumerate(truth.anchor_indices):
            expect = np.zeros(3)
            expect[g] = 1.0
            assert np.allclose(theta_star[a], expect)
