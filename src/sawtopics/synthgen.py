"""Synthetic corpora from a planted anchored topic model, with survival
times drawn from a proportional-hazards law so every layer of the pipeline
has a ground-truth oracle."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .corpus import Corpus, SurvivalLabels, Vocabulary
from .seeding import derive_seed


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Planted model: word-topic matrix with one anchor row per topic,
    per-document topic proportions, and the survival coefficients."""

    A_true: np.ndarray
    anchor_indices: tuple[int, ...]
    W_true: np.ndarray | None = None
    beta_true: np.ndarray | None = None

    @property
    def M_true(self) -> np.ndarray | None:
        if self.W_true is None:
            return None
        return self.A_true @ self.W_true


def generate_topic_model(d: int, k: int, anchor_mass: float, seed: int) -> GroundTruth:
    """Column-stochastic A with k planted anchors, one per topic.

    The anchor word carries exactly ``anchor_mass`` of its topic's column;
    the remainder spreads over non-anchor words at random. Anchor rows are
    zero outside their own topic.
    """
    if d < k:
        raise ValueError(f"need d >= k, got d={d} k={k}")
    if not 0.0 < anchor_mass <= 1.0:
        raise ValueError("anchor_mass must be in (0, 1]")
    rng = np.random.default_rng(seed)
    anchor_idx = np.sort(rng.choice(d, size=k, replace=False))
    others = np.setdiff1d(np.arange(d), anchor_idx)
    A = np.zeros((d, k))
    for g in range(k):
        A[anchor_idx[g], g] = anchor_mass
        if others.size:
            u = rng.uniform(0.1, 1.0, size=others.size)
            A[others, g] = (1.0 - anchor_mass) * u / u.sum()
    A /= A.sum(axis=0)  # exact when others exist; renormalizes d == k case
    return GroundTruth(A_true=A, anchor_indices=tuple(int(i) for i in anchor_idx))


def generate_corpus(
    truth: GroundTruth,
    n: int,
    doc_length: int,
    dirichlet_concentration: float,
    seed: int,
) -> tuple[Corpus, np.ndarray]:
    """Documents are multinomial draws of fixed length from A @ W columns,
    W columns i.i.d. symmetric Dirichlet.

    The returned corpus carries placeholder labels (all times 1.0,
    observed); attach real ones via generate_survival + Corpus.with_labels.
    """
    if doc_length < 2:
        raise ValueError("doc_length must be >= 2 (co-occurrence needs pairs)")
    if dirichlet_concentration <= 0:
        raise ValueError("dirichlet_concentration must be > 0")
    d, k = truth.A_true.shape
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.full(k, dirichlet_concentration), size=n).T  # k x n
    M = truth.A_true @ W
    M /= M.sum(axis=0)
    counts = rng.multinomial(doc_length, M.T).T  # d x n
    width = len(str(d - 1))
    vocab = Vocabulary(tuple(f"w{i:0{width}d}" for i in range(d)))
    pwidth = len(str(max(n - 1, 1)))
    pids = tuple(f"s{i:0{pwidth}d}" for i in range(n))
    labels = SurvivalLabels(np.ones(n), np.ones(n, dtype=bool))
    corpus = Corpus(sparse.csc_matrix(counts), vocab, labels, pids)
    return corpus, W


def generate_survival(
    W_true: np.ndarray,
    beta_true: np.ndarray,
    base_rate: float,
    censor_fraction: float,
    seed: int,
) -> SurvivalLabels:
    """Exponential event times with rate base_rate * exp(beta . W column),
    which is exactly a proportional-hazards law.

    Censoring times are exponential with a single global rate solved so the
    expected censored fraction matches ``censor_fraction``.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be > 0")
    if not 0.0 <= censor_fraction < 1.0:
        raise ValueError("censor_fraction must be in [0, 1)")
    W = np.asarray(W_true, dtype=float)
    beta = np.asarray(beta_true, dtype=float)
    rate = base_rate * np.exp(beta @ W)
    rng = np.random.default_rng(seed)
    T = rng.exponential(1.0 / rate)
    if censor_fraction == 0.0:
        return SurvivalLabels(T, np.ones(T.size, dtype=bool))
    # P(censored | rate_i) = c / (c + rate_i); solve mean for c
    lo, hi = 1e-12, float(rate.max()) * 1e12

    def gap(log_c):
        c = np.exp(log_c)
        return float(np.mean(c / (c + rate))) - censor_fraction

    from scipy import optimize  # imported here: slow to load, and only synthesis needs it

    log_c = optimize.brentq(gap, np.log(lo), np.log(hi))
    C = rng.exponential(np.exp(-log_c), size=T.size)
    return SurvivalLabels(np.minimum(T, C), T <= C)


def generate_dataset(
    d: int,
    k: int,
    n: int,
    doc_length: int,
    dirichlet_concentration: float,
    anchor_mass: float,
    beta_true: np.ndarray,
    base_rate: float,
    censor_fraction: float,
    seed: int,
) -> tuple[Corpus, GroundTruth]:
    """One-call generator: planted topics, corpus, and survival labels,
    each stage on its own derived seed."""
    truth = generate_topic_model(d, k, anchor_mass, derive_seed(seed, "topics"))
    corpus, W = generate_corpus(
        truth, n, doc_length, dirichlet_concentration, derive_seed(seed, "corpus")
    )
    beta = np.asarray(beta_true, dtype=float)
    if beta.shape != (k,):
        raise ValueError(f"beta_true must have length k={k}")
    labels = generate_survival(W, beta, base_rate, censor_fraction, derive_seed(seed, "survival"))
    corpus = corpus.with_labels(labels)
    truth = replace(truth, W_true=W, beta_true=beta)
    return corpus, truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    import json

    payload = {
        "format": "sawtopics-truth",
        "version": 1,
        "A_true": [[float(x) for x in row] for row in truth.A_true],
        "anchor_indices": list(truth.anchor_indices),
        "W_true": None if truth.W_true is None
        else [[float(x) for x in row] for row in truth.W_true],
        "beta_true": None if truth.beta_true is None
        else [float(x) for x in truth.beta_true],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_ground_truth(path) -> GroundTruth:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "sawtopics-truth":
        raise ValueError(f"not a ground-truth file: {path}")
    return GroundTruth(
        A_true=np.array(payload["A_true"], dtype=float),
        anchor_indices=tuple(payload["anchor_indices"]),
        W_true=None if payload["W_true"] is None else np.array(payload["W_true"], dtype=float),
        beta_true=None if payload["beta_true"] is None
        else np.array(payload["beta_true"], dtype=float),
    )
