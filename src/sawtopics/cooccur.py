"""Word co-occurrence statistics with self-pair correction.

The per-document contribution (H H^T - diag H) / (m (m - 1)) is an unbiased
estimate of the document's squared word distribution: a word instance never
co-occurs with itself, and the normalization makes every document contribute
total mass 1 regardless of its length.

The sum over documents is built from the corpus's CSC arrays with numpy
alone, ``BLOCK`` patients at a time: each block is a dense patients x d array
of counts scaled by 1 / sqrt(m (m - 1)), and one symmetric BLAS product adds
its Gram matrix into the d x d sum. Memory is O(BLOCK d + d^2), whatever n.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus

BLOCK = 1024  # patients per dense block of the co-occurrence sum

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class CooccurrenceStats:
    """Word probabilities p (the row sums of the symmetric co-occurrence
    matrix Q) and the row-normalized Qbar = Q / p. Words with p == 0 get a
    uniform Qbar row and are listed in ``zero_words`` (they are excluded
    from anchor candidacy downstream)."""

    p: np.ndarray
    Qbar: np.ndarray
    zero_words: np.ndarray


def build_cooccurrence(corpus: Corpus) -> CooccurrenceStats:
    m = corpus.doc_lengths.astype(float)
    bad = np.flatnonzero(m < 2)
    if bad.size:
        names = ", ".join(corpus.patient_ids[i] for i in bad[:10])
        raise ValueError(f"documents with fewer than 2 tokens: {names}")
    n, d = corpus.n_docs, corpus.n_words
    w = 1.0 / (m * (m - 1.0))
    scale = np.sqrt(w)
    Q = np.zeros((d, d))
    diag_corr = np.zeros(d)  # sum_i H_i / (m_i (m_i - 1))
    block = np.zeros((min(BLOCK, n), d))
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        lo, hi = corpus.indptr[start], corpus.indptr[stop]
        rows = np.repeat(np.arange(stop - start), np.diff(corpus.indptr[start:stop + 1]))
        words, counts = corpus.indices[lo:hi], corpus.data[lo:hi]
        block[rows, words] = scale[start:stop][rows] * counts
        Q += block[:stop - start].T @ block[:stop - start]  # one symmetric product (syrk)
        block[rows, words] = 0.0
        diag_corr += np.bincount(words, w[start:stop][rows] * counts, minlength=d)
    Q.flat[::d + 1] -= diag_corr
    Q /= n
    p = Q.sum(axis=1)
    Qbar = row_normalize(Q, p)
    zero = np.flatnonzero(p <= 0)
    if zero.size:
        log.warning("%d word(s) never co-occur; their rows are set uniform", zero.size)
    return CooccurrenceStats(p, Qbar, zero)


def row_normalize(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows of Q divided by p; zero-probability rows become uniform."""
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float)
    pos = p > 0
    out = np.divide(Q, p[:, None], out=np.empty_like(Q), where=pos[:, None])  # no row copies
    out[~pos] = 1.0 / Q.shape[1]
    return out
