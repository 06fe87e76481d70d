"""Word co-occurrence statistics with self-pair correction.

The per-document contribution (H H^T - diag H) / (m (m - 1)) is an unbiased
estimate of the document's squared word distribution: a word instance never
co-occurs with itself, and the normalization makes every document contribute
total mass 1 regardless of its length.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Corpus

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class CooccurrenceStats:
    """Symmetric co-occurrence matrix Q, word probabilities p = row sums,
    and the row-normalized Qbar. Words with p == 0 get a uniform Qbar row
    and are listed in ``zero_words`` (they are excluded from anchor
    candidacy downstream)."""

    Q: np.ndarray
    p: np.ndarray
    Qbar: np.ndarray
    zero_words: np.ndarray

    @property
    def n_words(self) -> int:
        return self.Q.shape[0]


def build_cooccurrence(corpus: Corpus) -> CooccurrenceStats:
    m = corpus.doc_lengths.astype(float)
    bad = np.flatnonzero(m < 2)
    if bad.size:
        names = ", ".join(corpus.patient_ids[i] for i in bad[:10])
        raise ValueError(f"documents with fewer than 2 tokens: {names}")
    n = corpus.n_docs
    X = corpus.counts.astype(np.float64)
    w = 1.0 / (m * (m - 1.0))
    S = (X @ sparse.diags(w) @ X.T).toarray()
    diag_corr = X @ w  # sum_i H_i / (m_i (m_i - 1))
    Q = (S - np.diag(diag_corr)) / n
    Q = 0.5 * (Q + Q.T)
    p = Q.sum(axis=1)
    Qbar = row_normalize(Q, p)
    zero = np.flatnonzero(p <= 0)
    if zero.size:
        log.warning("%d word(s) never co-occur; their rows are set uniform", zero.size)
    return CooccurrenceStats(Q, p, Qbar, zero)


def row_normalize(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows of Q divided by p; zero-probability rows become uniform."""
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.empty_like(Q, dtype=float)
    pos = p > 0
    out[pos] = Q[pos] / p[pos, None]
    out[~pos] = 1.0 / Q.shape[1]
    if (~pos).any():
        log.debug("row_normalize: %d degenerate row(s) set uniform", int((~pos).sum()))
    return out
