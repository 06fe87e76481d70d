import logging
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sawtopics.corpus import SurvivalLabels
from sawtopics.evaluation import (c_index, compute_metrics, cross_validate,
                                  format_metrics, rmse_mae)
from sawtopics.saw import SawConfig, fit_saw
from sawtopics.seeding import derive_seed
from sawtopics.synthgen import generate_dataset

from helpers import brute_force_c_index


def labels(times, observed=None):
    times = np.asarray(times, dtype=float)
    if observed is None:
        observed = np.ones(times.size, dtype=bool)
    return SurvivalLabels(times, np.asarray(observed, dtype=bool))


class TestRmseMae:
    def test_perfect_prediction(self):
        assert rmse_mae([1.0, 2.0], labels([1.0, 2.0])) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        r, m = rmse_mae([3.0, 3.0], labels([1.0, 5.0]))
        assert (r, m) == (2.0, 2.0)

    def test_censored_excluded(self):
        r, m = rmse_mae([1.0, 5.0], labels([1.0, 1.0], [True, False]))
        assert (r, m) == (0.0, 0.0)

    def test_all_censored_error(self):
        with pytest.raises(ValueError):
            rmse_mae([1.0], labels([1.0], [False]))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            r, m = rmse_mae(rng.uniform(0, 10, n), labels(rng.uniform(0.1, 10, n)))
            assert r >= m >= 0.0


class TestCIndex:
    def test_perfect_ranking(self):
        assert c_index([3.0, 2.0, 1.0], labels([1.0, 2.0, 3.0])) == 1.0

    def test_reversed_ranking(self):
        assert c_index([1.0, 2.0, 3.0], labels([1.0, 2.0, 3.0])) == 0.0

    def test_censored_pair_enumeration(self):
        got = c_index([3.0, 1.0, 2.0], labels([1.0, 2.0, 3.0], [True, False, True]))
        assert got == 1.0  # pairs (1,2), (1,3) concordant; (2,3) not comparable

    def test_ties_count_half(self):
        assert c_index([1.0, 1.0], labels([1.0, 2.0])) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 31))
            y = np.round(rng.uniform(0.1, 5.0, n), 1)  # rounding induces ties
            r = rng.uniform(size=n) > 0.3
            risk = np.round(rng.standard_normal(n), 1)
            if not (np.any((y[:, None] < y[None, :]) & r[:, None])):
                continue
            lab = labels(y, r)
            assert abs(c_index(risk, lab) - brute_force_c_index(risk, y, r)) <= 1e-12

    def test_equals_brute_force_exactly_with_heavy_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            y = np.array([1.0, 2.0, 3.0, np.inf])[rng.integers(0, 4, n)]  # few distinct times
            r = rng.uniform(size=n) > 0.4
            risk = np.array([-1.0, -0.0, 0.0, 0.5])[rng.integers(0, 4, n)]  # -0.0 ties 0.0
            if not np.any((y[:, None] < y[None, :]) & r[:, None]):
                continue
            assert c_index(risk, labels(y, r)) == brute_force_c_index(risk, y, r)

    def test_memory_linear_in_n(self):
        # n x n pair matrices would take 400 MB each at this size
        rng = np.random.default_rng(8)
        n = 20000
        lab = labels(rng.uniform(0.1, 100.0, n), rng.uniform(size=n) > 0.2)
        risk = np.round(rng.standard_normal(n), 2)
        tracemalloc.start()
        try:
            c_index(risk, lab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_no_comparable_pairs(self):
        with pytest.raises(ValueError):
            c_index([1.0, 2.0], labels([2.0, 2.0]))

    def test_nan_risk_rejected(self):
        with pytest.raises(ValueError):
            c_index([np.nan, 1.0], labels([1.0, 2.0]))

    @given(hst.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_complement_identity_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        y = rng.uniform(0.1, 5.0, n)
        r = rng.uniform(size=n) > 0.3
        risk = rng.standard_normal(n)  # continuous, ties have measure zero
        if not np.any((y[:, None] < y[None, :]) & r[:, None]):
            return
        lab = labels(y, r)
        assert abs(c_index(risk, lab) + c_index(-risk, lab) - 1.0) <= 1e-12

    @given(hst.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        y = rng.uniform(0.1, 5.0, n)
        risk = rng.standard_normal(n)
        lab = labels(y)
        a = c_index(risk, lab)
        b = c_index(np.exp(2.0 * risk) + 7.0, lab)
        assert a == b


class TestComputeMetrics:
    def test_km_style_all_nan_risk(self):
        m = compute_metrics([2.0, 2.0], [np.nan, np.nan], [False, True],
                            labels([1.0, 3.0]))
        assert m.c_index is None
        assert m.n_saturated == 1
        assert m.n_evaluated == 2
        assert format_metrics("km", m).startswith("km,")
        assert ",nan," in format_metrics("km", m)


class TestCrossValidate:
    def _corpus(self, seed=2, n=90):
        corpus, _ = generate_dataset(
            d=15, k=3, n=n, doc_length=50, dirichlet_concentration=0.3,
            anchor_mass=0.4, beta_true=np.array([2.0, -2.0, 0.0]),
            base_rate=0.15, censor_fraction=0.15, seed=seed)
        return corpus

    def _config(self):
        return SawConfig(max_outer_iters=3, anchor_runs=2)

    def test_singleton_grid(self):
        corpus = self._corpus()
        result, model = cross_validate(corpus, [(3, 0.1, 0.5)], folds=3, seed=4,
                                       base_config=self._config())
        assert result.best == (3, 0.1, 0.5)
        assert result.fold_scores.shape == (1, 3)
        assert np.isfinite(result.fold_scores).all()

    def test_deterministic(self):
        corpus = self._corpus()
        grid = [(2, 0.1, 0.5), (3, 0.1, 0.5)]
        r1, _ = cross_validate(corpus, grid, folds=3, seed=5, base_config=self._config())
        r2, _ = cross_validate(corpus, grid, folds=3, seed=5, base_config=self._config())
        assert np.array_equal(r1.fold_assignment, r2.fold_assignment)
        assert r1.best == r2.best
        assert np.array_equal(r1.fold_scores, r2.fold_scores, equal_nan=True)

    def test_failing_cell_excluded(self):
        corpus = self._corpus()
        grid = [(999, 0.1, 0.5), (3, 0.1, 0.5)]  # k=999 exceeds the vocabulary
        result, model = cross_validate(corpus, grid, folds=3, seed=6,
                                       base_config=self._config())
        assert np.isnan(result.fold_scores[0]).all()
        assert result.best == (3, 0.1, 0.5)

    def test_over_specified_k_scores_every_cell(self):
        # 3 planted topics: k = 4 and 5 recover certified topics on every fold
        corpus = self._corpus()
        grid = [(3, 0.1, 0.5), (4, 0.1, 0.5), (5, 0.1, 0.5)]
        result, _ = cross_validate(corpus, grid, folds=3, seed=6, base_config=self._config())
        assert np.isfinite(result.fold_scores).all()

    def test_failure_warning_names_the_gap(self, monkeypatch, caplog):
        from sawtopics import topics
        monkeypatch.setattr(topics, "newton_budget", lambda k: 1)
        with pytest.raises(RuntimeError, match="every grid cell"):
            cross_validate(self._corpus(), [(3, 0.1, 0.5)], folds=3, seed=6,
                           base_config=self._config())
        [record] = [r for r in caplog.records if r.levelname == "WARNING"]
        assert "failed on fold 0" in record.getMessage()
        assert "worst row" in record.getMessage() and "has gap" in record.getMessage()

    def test_all_cells_failing(self):
        corpus = self._corpus()
        with pytest.raises(RuntimeError, match="every grid cell"):
            cross_validate(corpus, [(999, 0.1, 0.5)], folds=3, seed=7,
                           base_config=self._config())

    def test_no_leakage(self, tmp_path):
        # every patient is evaluated exactly once, never inside the fold that
        # trained its model; the fold fits run in worker processes, so the spy
        # writes each fit's training ids to a file named by the fit's seed
        corpus = self._corpus()

        def spying_fitter(sub, cfg):
            (tmp_path / f"fit-{cfg.seed}.txt").write_text("\n".join(sub.patient_ids))
            return fit_saw(sub, cfg)

        result, _ = cross_validate(corpus, [(3, 0.1, 0.5)], folds=3, seed=8,
                                   base_config=self._config(), fitter=spying_fitter)
        all_ids = set(corpus.patient_ids)
        for f in range(3):
            held_out = {corpus.patient_ids[i]
                        for i in np.flatnonzero(result.fold_assignment == f)}
            seed = derive_seed(8, f"cv-cell0-fold{f}")
            train_ids = set((tmp_path / f"fit-{seed}.txt").read_text().split("\n"))
            assert train_ids | held_out == all_ids
            assert train_ids & held_out == set()
        refit = (tmp_path / f"fit-{derive_seed(8, 'cv-refit')}.txt").read_text()
        assert set(refit.split("\n")) == all_ids
        assert len(list(tmp_path.glob("fit-*.txt"))) == 4

    def test_same_results_on_any_cpu_count(self, monkeypatch, tmp_path):
        corpus = self._corpus()
        grid = [(2, 0.1, 0.5), (3, 0.1, 0.5)]

        def run(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            pids = tmp_path / f"pids-{cpus}"
            pids.mkdir()

            def fitter(sub, cfg):
                (pids / str(os.getpid())).touch()
                return fit_saw(sub, cfg)

            result, model = cross_validate(corpus, grid, folds=3, seed=5,
                                           base_config=self._config(), fitter=fitter)
            return result, model, {int(q.name) for q in pids.iterdir()} - {os.getpid()}

        r1, m1, workers1 = run(1)
        r4, m4, workers4 = run(4)
        assert len(workers1) == 1 and 1 <= len(workers4) <= 4
        assert r1.fold_scores.tobytes() == r4.fold_scores.tobytes()
        assert r1.best == r4.best
        assert m1.theta.tobytes() == m4.theta.tobytes()
        assert m1.cox.beta.tobytes() == m4.cox.beta.tobytes()

    def test_no_worker_outlives_the_call(self):
        corpus = self._corpus()
        cross_validate(corpus, [(3, 0.1, 0.5)], folds=3, seed=4, base_config=self._config())
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="every grid cell"):
            cross_validate(corpus, [(999, 0.1, 0.5)], folds=3, seed=7,
                           base_config=self._config())
        assert multiprocessing.active_children() == []

    def test_grid_checked_before_any_fit(self):
        def never(sub, cfg):
            pytest.fail("no fit may start before the whole grid is checked")

        with pytest.raises(ValueError, match="lam must be finite and > 0, got 0.0"):
            cross_validate(self._corpus(), [(3, 1.0, 0.5), (3, 0.0, 0.5)], folds=3,
                           seed=4, base_config=self._config(), fitter=never)

    def test_duplicate_cell_refused(self):
        def never(sub, cfg):
            pytest.fail("no fit may start on a grid with a repeated cell")

        with pytest.raises(ValueError, match=r"\(2, 1\.0, 0\.5\) appears more than once"):
            cross_validate(self._corpus(), [(2, 1, 0.5), (3, 1.0, 0.5), (2, 1.0, 0.5)],
                           folds=3, seed=4, base_config=self._config(), fitter=never)

    @pytest.mark.parametrize("grid, value", [([(2.7, 1, 0.5)], "2.7"),
                                             ([(2, 1, 0.5), (2.9, 1, 0.5)], "2.9")])
    def test_non_integer_k_refused_by_name(self, grid, value):
        # not truncated: (2.7, 1, 0.5) does not fit as k = 2, and 2.9 is no
        # repeat of the cell k = 2
        def never(sub, cfg):
            pytest.fail("no fit may start on a grid with a non-integer k")

        with pytest.raises(ValueError, match=f"^k must be an integer, got {value}$"):
            cross_validate(self._corpus(), grid, folds=3, seed=4,
                           base_config=self._config(), fitter=never)

    def test_edge_of_grid_winner_warned(self, caplog):
        # lam has two values, so either winner is on its edge; k has one value
        with caplog.at_level("WARNING", logger="sawtopics.evaluation"):
            result, _ = cross_validate(self._corpus(), [(3, 0.1, 0.5), (3, 1.0, 0.5)],
                                       folds=3, seed=4, base_config=self._config())
        [record] = [r for r in caplog.records if r.levelname == "WARNING"]
        message = record.getMessage()
        assert "edge of the grid" in message and f"lam = {result.best[1]}" in message
        assert "k = " not in message

    def test_inner_winner_not_warned(self, caplog):
        # the lam = 0.01 and 1.0 cells fail, so the winner sits inside the lam
        # axis; alpha's values are never edges and k has one value
        def middle_lam_only(sub, cfg):
            if cfg.lam != 0.1:
                raise ValueError("refused")
            return fit_saw(sub, cfg)

        grid = [(3, lam, alpha) for lam in (0.01, 0.1, 1.0) for alpha in (0.0, 1.0)]
        with caplog.at_level("WARNING", logger="sawtopics.evaluation"):
            result, _ = cross_validate(self._corpus(), grid, folds=3, seed=4,
                                       base_config=self._config(), fitter=middle_lam_only)
        assert result.best[1] == 0.1
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(messages) == 4 and all("failed on fold 0: refused" in m for m in messages)

    def test_failed_cell_logged_as_its_result_arrives(self, monkeypatch, tmp_path):
        # cell 0 fails on fold 1 of 3, in 12 fold fits on 2 CPUs: its warning is
        # logged once fold 1's result arrives, when at most 2 x CPUs + 2 fits
        # have started, and its fold 0 score is dropped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        failing = derive_seed(4, "cv-cell0-fold1")

        def fitter(sub, cfg):
            (tmp_path / str(cfg.seed)).touch()
            if cfg.seed == failing:
                raise ValueError("refused")
            return fit_saw(sub, cfg)

        started = []

        class Spy(logging.Handler):
            def emit(self, record):
                started.append((record.getMessage(), len(list(tmp_path.iterdir()))))

        log = logging.getLogger("sawtopics.evaluation")
        spy = Spy(logging.WARNING)
        log.addHandler(spy)
        try:
            result, _ = cross_validate(self._corpus(), [(3, lam, 0.5) for lam in (1, 2, 3, 4)],
                                       folds=3, seed=4, base_config=self._config(),
                                       fitter=fitter)
        finally:
            log.removeHandler(spy)
        [(message, fits)] = [s for s in started if "failed" in s[0]]
        assert message == "cv cell (3, 1.0, 0.5) failed on fold 1: refused"
        assert fits <= 2 * 2 + 2
        assert np.isnan(result.fold_scores[0]).all() and np.isfinite(result.fold_scores[1:]).all()

    def test_fold_without_events(self):
        corpus = self._corpus(n=12)
        sparse_events = corpus.with_labels(SurvivalLabels(
            corpus.labels.times,
            np.array([True] + [False] * (corpus.n_docs - 1))))
        with pytest.raises(ValueError, match="fewer folds"):
            cross_validate(sparse_events, [(3, 0.1, 0.5)], folds=3, seed=9,
                           base_config=self._config())

    def test_bad_folds(self):
        with pytest.raises(ValueError):
            cross_validate(self._corpus(), [(3, 0.1, 0.5)], folds=1, seed=0)
