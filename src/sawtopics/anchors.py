"""Anchor-word search: random projection plus greedy farthest-point selection.

The greedy pass picks the row of maximum norm, then repeatedly the row
farthest from the affine span of the rows already picked, kept as one
squared distance per row that each new orthonormal direction of the span
lowers (Gram-Schmidt, as in FastAnchorWords). Because the search is
randomized through the projection, it is repeated over several projections
and the run whose picks were seen most often across runs wins the vote.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cooccur import CooccurrenceStats
from .corpus import Vocabulary
from .seeding import derive_seed


@dataclass(frozen=True)
class AnchorSet:
    indices: tuple[int, ...]
    stability: Mapping[int, int]  # word index -> number of runs that picked it
    runs: int
    projection_dim: int

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("anchor indices must be distinct")


def project_rows(Qbar: np.ndarray, r: int, seed: int,
                 projection: np.ndarray | None = None) -> np.ndarray:
    """Multiply rows by a d x r Gaussian matrix scaled by 1/sqrt(r).

    ``projection`` overrides the random matrix (test hook; pass the identity
    to bypass the reduction entirely).
    """
    if r <= 0:
        raise ValueError("projection dimension must be >= 1")
    Qbar = np.asarray(Qbar, dtype=float)
    if projection is None:
        rng = np.random.default_rng(seed)
        projection = rng.standard_normal((Qbar.shape[1], r)) / np.sqrt(r)
    return Qbar @ projection


def greedy_anchors(points: np.ndarray, k: int, candidates: Sequence[int]) -> list[int]:
    """Farthest-point greedy selection of k candidate rows.

    First pick: candidate row of maximum Euclidean norm. Each later pick:
    candidate row with the largest distance to the affine span of the rows
    already picked. Exact ties go to the smallest index. As in
    FastAnchorWords, each row keeps its squared distance to the span, which
    each new direction of an orthonormal basis of the span (Gram-Schmidt on
    the picked row, twice) lowers by one mat-vec.
    """
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    if k < 1:
        raise ValueError("k must be >= 1")
    if cand.size < k:
        raise ValueError(f"need at least k={k} candidates, got {cand.size}")
    pts = np.asarray(points, dtype=float)[cand]
    first = int(np.argmax(np.einsum("ij,ij->i", pts, pts)))  # the first max: smallest index
    pts -= pts[first]  # shift so the first pick is the origin
    sq = np.einsum("ij,ij->i", pts, pts)
    sq[first] = -np.inf
    chosen, basis = [first], np.empty((0, pts.shape[1]))
    for _ in range(1, k):
        j = int(np.argmax(sq))
        chosen.append(j)
        if len(chosen) == k:
            break
        sq[j] = -np.inf
        v = pts[j]
        for _ in range(2):
            v = v - basis.T @ (basis @ v)
        norm = np.linalg.norm(v)
        if norm > 0:
            basis = np.vstack([basis, v / norm])
            sq -= (pts @ basis[-1]) ** 2
    return cand[chosen].tolist()


def default_candidates(doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    """Words frequent enough to have a trustworthy Qbar row: document
    frequency at least max(3, 0.5% of documents)."""
    thresh = max(3.0, 0.005 * n_docs)
    return np.flatnonzero(np.asarray(doc_freq) >= thresh)


def stable_anchors(
    stats: CooccurrenceStats,
    k: int,
    T: int = 10,
    r: int | None = None,
    seed: int = 0,
    candidates: Sequence[int] | None = None,
) -> AnchorSet:
    """Run the projected greedy search T times and keep the best-voted run.

    Each word is scored by how many runs picked it; the winning run is the
    one whose picks have the largest total score, ties going to the
    lexicographically smallest sorted index sequence. Words flagged as
    zero-probability never enter the candidate set.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    d = stats.Qbar.shape[0]
    r = min(d, 1000) if r is None else int(r)
    cand = np.arange(d) if candidates is None else np.asarray(candidates, dtype=np.int64)
    cand = np.setdiff1d(cand, stats.zero_words)
    runs: list[list[int]] = []
    votes: Counter[int] = Counter()
    for t in range(T):
        pts = project_rows(stats.Qbar, r, derive_seed(seed, f"anchor-run-{t}"))
        picks = greedy_anchors(pts, k, cand)
        runs.append(picks)
        votes.update(picks)
    best = sorted(
        runs,
        key=lambda run: (-sum(votes[i] for i in run), tuple(sorted(run))),
    )[0]
    return AnchorSet(
        indices=tuple(int(i) for i in best),
        stability={int(w): int(c) for w, c in sorted(votes.items())},
        runs=T,
        projection_dim=r,
    )


def anchor_report(anchor_set: AnchorSet, vocab: Vocabulary) -> str:
    """Text table: topic, anchor index, word, and the runs that picked it."""
    lines = ["topic\tanchor_index\tword\tstability"]
    for g, a in enumerate(anchor_set.indices):
        picked = f"{anchor_set.stability.get(a, 0)}/{anchor_set.runs}"
        lines.append(f"{g}\t{a}\t{vocab.words[a]}\t{picked}")
    return "\n".join(lines) + "\n"
