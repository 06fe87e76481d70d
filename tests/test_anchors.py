import numpy as np
import pytest
from scipy.spatial.distance import pdist

from sawtopics.anchors import (AnchorSet, default_candidates, greedy_anchors,
                               project_rows, stable_anchors)
from sawtopics.cooccur import build_cooccurrence
from sawtopics.synthgen import generate_corpus, generate_topic_model

from helpers import in_convex_hull, make_corpus


class TestProjectRows:
    def test_identity_hook(self):
        rng = np.random.default_rng(0)
        Q = rng.dirichlet(np.ones(6), size=6)
        out = project_rows(Q, r=6, seed=0, projection=np.eye(6))
        assert np.array_equal(out, Q)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        Q = rng.dirichlet(np.ones(8), size=8)
        assert np.array_equal(project_rows(Q, 4, seed=3), project_rows(Q, 4, seed=3))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            project_rows(np.eye(3), 0, seed=0)

    def test_distance_preservation(self):
        # Johnson-Lindenstrauss sanity: d=100 points, r=50, >= 99% of pairwise
        # distances within a factor of 1 +/- 0.5 across 10 seeds
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((100, 100))
        exact = pdist(pts)
        ok = total = 0
        for seed in range(10):
            proj = project_rows(pts, 50, seed=seed)
            ratio = pdist(proj) / exact
            ok += int(np.sum((ratio >= 0.5) & (ratio <= 1.5)))
            total += ratio.size
        assert ok / total >= 0.99


class TestGreedyAnchors:
    def test_unit_vectors_beat_midpoint(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert sorted(greedy_anchors(pts, 2, [0, 1, 2])) == [0, 1]

    def test_k_equals_candidates(self):
        pts = np.random.default_rng(3).standard_normal((4, 3))
        assert sorted(greedy_anchors(pts, 4, [0, 1, 2, 3])) == [0, 1, 2, 3]

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            greedy_anchors(np.eye(3), 3, [0, 1])

    def test_candidate_restriction(self):
        pts = np.array([[5.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        picks = greedy_anchors(pts, 2, [1, 2])
        assert 0 not in picks

    def test_planted_simplex_vertices_recovered(self):
        # 5 random vertices plus 50 strict interior combinations: greedy must
        # return exactly the vertices; the oracle re-checks extremity by LP
        rng = np.random.default_rng(4)
        verts = rng.standard_normal((5, 8))
        weights = rng.dirichlet(np.ones(5) * 5.0, size=50)  # all weights interior
        interior = weights @ verts
        pts = np.vstack([verts, interior])
        picks = greedy_anchors(pts, 5, list(range(55)))
        assert sorted(picks) == [0, 1, 2, 3, 4]
        for v in range(5):
            others = np.delete(pts, v, axis=0)
            assert not in_convex_hull(pts[v], others)
        for i in range(5, 55):
            assert in_convex_hull(pts[i], verts)

    def test_chosen_anchors_are_mutually_extreme(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((12, 6))
        picks = greedy_anchors(pts, 4, list(range(12)))
        for j, p in enumerate(picks):
            rest = [q for i, q in enumerate(picks) if i != j]
            assert not in_convex_hull(pts[p], pts[rest])


class TestStableAnchors:
    def _stats(self, seed=6, n=400):
        truth = generate_topic_model(20, 3, anchor_mass=0.5, seed=seed)
        corpus, _ = generate_corpus(truth, n, 60, 0.2, seed + 1)
        return build_cooccurrence(corpus), truth

    def test_single_run_degenerate(self):
        stats, _ = self._stats()
        one = stable_anchors(stats, 3, T=1, seed=9)
        assert one.runs == 1 and len(one.indices) == 3
        assert all(one.stability[a] == 1 for a in one.indices)

    def test_unanimity(self):
        # clean separable instance: every run agrees, so every selected
        # anchor has stability T and nothing else was ever picked
        stats, truth = self._stats()
        res = stable_anchors(stats, 3, T=6, seed=10)
        assert sorted(res.indices) == sorted(truth.anchor_indices)
        assert res.stability == {a: 6 for a in res.indices}

    def test_recovers_planted_anchors(self):
        truth = generate_topic_model(60, 5, anchor_mass=0.3, seed=21)
        corpus, _ = generate_corpus(truth, 1000, 300, 0.1, 22)
        stats = build_cooccurrence(corpus)
        res = stable_anchors(stats, 5, T=10, seed=23)
        assert sorted(res.indices) == sorted(truth.anchor_indices)

    def test_deterministic(self):
        stats, _ = self._stats()
        a = stable_anchors(stats, 3, T=5, r=10, seed=77)
        b = stable_anchors(stats, 3, T=5, r=10, seed=77)
        assert a.indices == b.indices and a.stability == b.stability

    def test_zero_probability_words_never_selected(self):
        counts = np.vstack([np.random.default_rng(8).integers(1, 4, size=(4, 30)),
                            np.zeros((1, 30), dtype=int)])
        stats = build_cooccurrence(make_corpus(counts))
        assert 4 in stats.zero_words
        res = stable_anchors(stats, 3, T=4, seed=1)
        assert 4 not in res.indices

    def test_distinct_indices_enforced(self):
        with pytest.raises(ValueError):
            AnchorSet((1, 1), {}, 1, 5)


def test_anchor_report_lists_words_and_votes():
    from sawtopics.anchors import anchor_report
    from sawtopics.corpus import Vocabulary

    aset = AnchorSet((2, 0), {0: 3, 2: 5}, runs=5, projection_dim=4)
    vocab = Vocabulary(("alpha", "bravo", "charlie", "delta"))
    text = anchor_report(aset, vocab)
    assert text.splitlines() == ["topic\tanchor_index\tword\tstability",
                                 "0\t2\tcharlie\t5/5", "1\t0\talpha\t3/5"]


def test_default_candidates_threshold():
    doc_freq = np.array([1, 3, 10, 2])
    assert default_candidates(doc_freq, n_docs=100).tolist() == [1, 2]
    # 0.5% of 2000 docs = 10
    assert default_candidates(doc_freq, n_docs=2000).tolist() == [2]
