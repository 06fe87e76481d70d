"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Tolerances are fixed here, not
calibrated at runtime. Everything runs on synthetic data with planted
ground truth; the whole module is budgeted well under five minutes."""

import contextlib

import numpy as np

from sawtopics.anchors import stable_anchors
from sawtopics.cli import main as cli_main
from sawtopics.cooccur import build_cooccurrence
from sawtopics.corpus import SurvivalLabels, split
from sawtopics.evaluation import c_index
from sawtopics.methods import predict
from sawtopics.saw import OBJECTIVE_SLACK, SawConfig, fit_saw, fit_usaw
from sawtopics.seeding import derive_seed
from sawtopics.survival import breslow_baseline, kaplan_meier
from sawtopics.synthgen import generate_dataset, generate_survival
from sawtopics.topics import kl_divergence, newton_simplex_kl, recover_topics_unsupervised

from helpers import (bayes_topic_posterior, brute_force_c_index, cox_gradient, cox_nll,
                     fd_gradient, rng_for, simplex_grid_2)

FAMILY = dict(d=60, k=5, n=1000, doc_length=300, dirichlet_concentration=0.1,
              anchor_mass=0.3, beta_true=np.array([3.0, -3.0, 0.0, 3.0, -3.0]),
              base_rate=0.1, censor_fraction=0.2)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def family_dataset(tag, **overrides):
    params = {**FAMILY, **overrides}
    return generate_dataset(**params, seed=derive_seed(424242, tag))


def test_criterion_1_anchor_recovery():
    with criterion(1, "stable_anchors recovers the planted set in >= 18/20 seeds"):
        hits = 0
        for s in range(20):
            corpus, truth = family_dataset(f"c1-{s}")
            stats = build_cooccurrence(corpus)
            found = stable_anchors(stats, 5, T=10, seed=derive_seed(71, f"c1-{s}"))
            hits += sorted(found.indices) == sorted(truth.anchor_indices)
        assert hits >= 18, f"recovered {hits}/20"


def test_criterion_2_theta_recovery():
    with criterion(2, "mean per-row L1 distance to analytic theta* <= 0.10 at n=10000"):
        corpus, truth = family_dataset("c2", n=10000)
        stats = build_cooccurrence(corpus)
        found = stable_anchors(stats, 5, T=10, seed=derive_seed(72, "c2"))
        assert sorted(found.indices) == sorted(truth.anchor_indices)
        theta, _ = recover_topics_unsupervised(stats, found)
        theta_star = bayes_topic_posterior(truth.A_true)  # uniform topic prior
        planted_of = [truth.anchor_indices.index(a) for a in found.indices]
        aligned = theta[:, np.argsort(planted_of)]
        err = np.abs(aligned - theta_star).sum(axis=1).mean()
        assert err <= 0.10, f"mean row L1 {err:.4f}"


def test_criterion_3_kl_subproblem_oracle():
    with criterion(3, "row recovery matches the 0.01-step simplex grid within 0.02 L1"):
        rng = rng_for(73, "c3")
        grid = simplex_grid_2(0.01)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            B = rng.dirichlet(np.ones(d), size=2)
            p = rng.dirichlet(np.ones(d))
            theta = newton_simplex_kl(p[None], B)[0][0]
            vals = np.array([kl_divergence(p, th @ B) for th in grid])
            best = grid[int(np.argmin(vals))]
            assert np.abs(theta - best).sum() <= 0.02


def test_criterion_4_cox_gradient_correctness():
    with criterion(4, "cox_gradient matches central differences to 1e-5 relative"):
        rng = rng_for(74, "c4")
        for _ in range(100):
            Z = rng.standard_normal((20, 5))
            y = rng.exponential(2.0, 20) + 0.01
            r = rng.uniform(size=20) > 0.3
            if not r.any():
                r[0] = True
            lab = SurvivalLabels(y, r)
            beta = rng.standard_normal(5) * 0.5
            g = cox_gradient(beta, Z, lab)
            fd = fd_gradient(lambda b: cox_nll(b, Z, lab), beta, h=1e-5)
            rel = np.abs(g - fd).max() / max(1.0, np.abs(fd).max())
            assert rel <= 1e-5, f"relative error {rel:.2e}"


def test_criterion_5_block_descent():
    with criterion(5, "joint objective non-increasing after every half-step, 10 seeds"):
        for s in range(10):
            corpus, _ = family_dataset(f"c5-{s}", d=30, n=200, doc_length=100, k=3,
                                       beta_true=np.array([3.0, -3.0, 0.0]))
            model = fit_saw(corpus, SawConfig(k=3, lam=0.1, alpha=0.5,
                                              seed=derive_seed(75, f"c5-{s}")))
            v = np.asarray(model.trace.objective_values)
            slack = OBJECTIVE_SLACK * np.maximum(np.abs(v[:-1]), 1.0)
            violations = int((np.diff(v) > slack).sum())
            assert violations == 0, f"seed {s}: {violations} increase(s)"


def test_criterion_6_degenerate_supervision():
    with criterion(6, "huge L1 collapses to unsupervised; saw objective <= usaw"):
        corpus, _ = family_dataset("c6", d=30, n=200, doc_length=100, k=3,
                                   beta_true=np.array([3.0, -3.0, 0.0]))
        cfg = SawConfig(k=3, lam=1e6, alpha=1.0, seed=derive_seed(76, "c6"))
        model = fit_saw(corpus, cfg)
        assert np.array_equal(model.cox.beta, np.zeros(3))
        stats = build_cooccurrence(corpus)
        theta, _ = recover_topics_unsupervised(stats, model.anchors)
        assert np.abs(model.theta - theta).max() <= 1e-6
        for s in range(5):
            corpus, _ = family_dataset(f"c6b-{s}", d=30, n=200, doc_length=100, k=3,
                                       beta_true=np.array([3.0, -3.0, 0.0]))
            cfg = SawConfig(k=3, lam=0.5, alpha=0.5, seed=derive_seed(76, f"c6b-{s}"))
            a = fit_saw(corpus, cfg)
            b = fit_usaw(corpus, cfg)
            assert (a.trace.objective_values[-1]
                    <= b.trace.objective_values[-1] + OBJECTIVE_SLACK
                    * max(1.0, abs(b.trace.objective_values[-1])))


def test_criterion_7_survival_micro_oracles():
    with criterion(7, "partial likelihood, Breslow, and KM match hand values"):
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3))
        assert np.isclose(cox_nll(np.zeros(2), np.zeros((3, 2)), lab),
                          np.log(3) + np.log(2), rtol=0, atol=1e-12)
        lab2 = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
        assert np.isclose(cox_nll(np.zeros(2), np.zeros((3, 2)), lab2),
                          np.log(3), rtol=0, atol=1e-12)
        bh = breslow_baseline(np.zeros(1), np.zeros((2, 1)),
                              SurvivalLabels(np.array([1.0, 2.0]), np.array([True] * 2)))
        assert bh.cum_hazard.tolist() == [0.5, 1.5]
        bh2 = breslow_baseline(np.zeros(1), np.zeros((2, 1)),
                               SurvivalLabels(np.array([1.0, 1.0]), np.array([True] * 2)))
        assert bh2.times.tolist() == [1.0] and bh2.cum_hazard.tolist() == [1.0]
        curve, med, _ = kaplan_meier(SurvivalLabels(np.array([1.0, 2.0, 3.0]),
                                                    np.array([True] * 3)))
        assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0]) and med == 2.0
        # exponential law: KM median near ln2 / rate
        rng = rng_for(77, "c7")
        W = rng.dirichlet(np.ones(3), size=2000).T
        base = 0.2
        labx = generate_survival(W, np.zeros(3), base_rate=base,
                                 censor_fraction=0.0, seed=derive_seed(77, "c7x"))
        _, med, _ = kaplan_meier(labx)
        target = np.log(2) / base
        assert abs(med - target) <= 0.1 * target, f"median {med:.2f} vs {target:.2f}"


def test_criterion_8_c_index_oracle():
    with criterion(8, "c-index: exact extremes and brute-force pair equivalence"):
        lab = SurvivalLabels(np.array([1.0, 2.0, 3.0]), np.array([True] * 3))
        assert c_index([3.0, 2.0, 1.0], lab) == 1.0
        assert c_index([1.0, 2.0, 3.0], lab) == 0.0
        rng = rng_for(78, "c8")
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 31))
            y = np.round(rng.uniform(0.1, 5.0, n), 1)
            r = rng.uniform(size=n) > 0.3
            risk = np.round(rng.standard_normal(n), 1)
            if not np.any((y[:, None] < y[None, :]) & r[:, None]):
                continue
            lab = SurvivalLabels(y, r)
            assert abs(c_index(risk, lab) - brute_force_c_index(risk, y, r)) <= 1e-12
            checked += 1


def test_criterion_9_end_to_end_signal_recovery():
    with criterion(9, "test c-index >= 0.65 and beats permuted control, >= 9/10 seeds"):
        wins = 0
        controls = []
        for s in range(10):
            corpus, _ = family_dataset(f"c9-{s}")
            train, test = split(corpus, 0.75, seed=derive_seed(79, f"c9s-{s}"))
            cfg = SawConfig(k=5, lam=0.1, alpha=0.5, seed=derive_seed(79, f"c9f-{s}"))
            model = fit_saw(train, cfg)
            c_test = c_index(predict(model, test).risk, test.labels)
            perm = rng_for(79, f"c9p-{s}").permutation(train.n_docs)
            shuffled = train.with_labels(SurvivalLabels(train.labels.times[perm],
                                                        train.labels.observed[perm]))
            c_perm = c_index(predict(fit_saw(shuffled, cfg), test).risk, test.labels)
            controls.append(c_perm)
            wins += (c_test >= 0.65) and (c_test > c_perm)
        assert wins >= 9, f"{wins}/10 seeds"
        # the control should sit near chance (the KM baseline has no risk
        # ordering at all, so it is excluded from this comparison)
        assert abs(float(np.mean(controls)) - 0.5) <= 0.15


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "identical CLI invocations give byte-identical outputs"):
        c = tmp_path / "corpus.json"
        args = ["synth", "--d", "30", "--k", "3", "--n", "150", "--doc-length", "80",
                "--beta", "3,-3,0", "--seed", "17", "--out"]
        assert cli_main(args + [str(c)]) == 0
        outs = {}
        for run_id in ("a", "b"):
            model = tmp_path / f"model_{run_id}.json"
            preds = tmp_path / f"preds_{run_id}.csv"
            metrics = tmp_path / f"metrics_{run_id}.csv"
            assert cli_main(["train", "--corpus", str(c), "--method", "saw",
                             "--k", "3", "--lam", "0.1", "--seed", "17",
                             "--out", str(model)]) == 0
            assert cli_main(["predict", "--model", str(model), "--corpus", str(c),
                             "--out", str(preds)]) == 0
            assert cli_main(["evaluate", "--predictions", str(preds),
                             "--corpus", str(c), "--out", str(metrics),
                             "--method", "saw"]) == 0
            outs[run_id] = (model.read_bytes(), preds.read_bytes(), metrics.read_bytes())
        assert outs["a"] == outs["b"]
