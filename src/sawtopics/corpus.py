"""Event ingestion, vocabulary building, and sparse corpus assembly.

Input data is a stream of 4-column event rows (patient_id, time, event,
event_value) plus per-patient survival labels. Continuous event values are
discretized into equal-frequency bins and each (event, bin-or-value) pair
becomes one vocabulary word; the corpus is the resulting word-by-patient
count matrix with aligned survival labels.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

log = logging.getLogger(__name__)

CORPUS_FORMAT = "sawtopics-corpus"
CORPUS_VERSION = 1


class EventParseError(ValueError):
    """Malformed event row; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class EventRecord:
    patient_id: str
    time: float
    event: str
    event_value: str


@dataclass(frozen=True)
class Vocabulary:
    """Ordered word list plus the discretization cuts that produced it.

    ``bin_edges`` has one entry per continuous event (possibly empty when a
    single bin was requested); its presence is what marks an event as
    continuous when a prebuilt vocabulary is applied to new data.
    """

    words: tuple[str, ...]
    bin_edges: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    index: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.words)


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Stable fingerprint of the word list, used to match models to corpora."""
    return hashlib.sha256("\n".join(vocab.words).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class SurvivalLabels:
    """Per-patient time Y (> 0, days) and event indicator R.

    ``observed[i]`` False means ``times[i]`` is a censoring time, a lower
    bound on the true duration.
    """

    times: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observed", observed)
        if times.ndim != 1 or observed.shape != times.shape:
            raise ValueError("times and observed must be 1-d and aligned")
        if times.size and not np.all(times > 0):
            raise ValueError("survival times must be positive")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(self.observed.sum())

    def subset(self, indices) -> "SurvivalLabels":
        idx = np.asarray(indices, dtype=int)
        return SurvivalLabels(self.times[idx], self.observed[idx])


@dataclass(frozen=True, eq=False)
class Corpus:
    """Sparse word-count matrix (d words x n patients) with labels."""

    counts: sparse.csc_matrix
    vocab: Vocabulary
    labels: SurvivalLabels
    patient_ids: tuple[str, ...]

    def __post_init__(self):
        counts = sparse.csc_matrix(self.counts)
        counts.sum_duplicates()
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "patient_ids", tuple(self.patient_ids))
        d, n = counts.shape
        if counts.nnz and counts.data.min() < 0:
            raise ValueError("counts must be nonnegative")
        if len(self.vocab) != d:
            raise ValueError(f"vocabulary size {len(self.vocab)} != matrix rows {d}")
        if len(self.labels) != n:
            raise ValueError(f"labels length {len(self.labels)} != matrix columns {n}")
        if len(self.patient_ids) != n:
            raise ValueError("patient_ids length must match matrix columns")

    @property
    def n_words(self) -> int:
        return self.counts.shape[0]

    @property
    def n_docs(self) -> int:
        return self.counts.shape[1]

    @property
    def doc_lengths(self) -> np.ndarray:
        return np.asarray(self.counts.sum(axis=0)).ravel()

    def with_labels(self, labels: SurvivalLabels) -> "Corpus":
        return Corpus(self.counts, self.vocab, labels, self.patient_ids)


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for corpus construction.

    ``cutoff`` is a global time bound: events at or after it are dropped.
    ``min_variance``, when set, drops words whose normalized
    per-document frequency variance falls below it.
    """

    bins: int = 5
    min_doc_freq: int = 3
    cutoff: float | None = None
    min_variance: float | None = None


def _try_float(s: str) -> float | None:
    try:
        return float(s)
    except (TypeError, ValueError):
        return None


def _is_number(s: str) -> bool:
    v = _try_float(s)
    return v is not None and math.isfinite(v)


def ingest_events(rows: Iterable[str], delimiter: str | None = None) -> list[EventRecord]:
    """Parse delimiter-separated 4-column event rows.

    The delimiter is sniffed per row (tab wins over comma) unless given. A
    single header row at the top is tolerated when both its time and
    event_value fields are non-numeric; any other row with an unparseable
    time is an error carrying the row number. Empty input yields an empty
    list.
    """
    records: list[EventRecord] = []
    for rownum, raw in enumerate(rows, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        sep = delimiter if delimiter is not None else ("\t" if "\t" in line else ",")
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 4:
            raise EventParseError(rownum, f"expected 4 fields, got {len(fields)}")
        pid, time_s, event, value = fields
        time = _try_float(time_s)
        if time is None:
            if rownum == 1 and not records and _try_float(value) is None:
                continue  # header row
            raise EventParseError(rownum, f"unparseable time {time_s!r}")
        if not math.isfinite(time) or time < 0:
            raise EventParseError(rownum, f"time must be finite and >= 0, got {time_s!r}")
        if not event:
            raise EventParseError(rownum, "empty event name")
        records.append(EventRecord(pid, time, event, value))
    return records


def load_events(path) -> list[EventRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_events(fh)


def read_labels(rows: Iterable[str], delimiter: str | None = None) -> dict[str, tuple[float, bool]]:
    """Parse 3-column label rows: patient_id, time (positive, days), event 0/1."""
    out: dict[str, tuple[float, bool]] = {}
    for rownum, raw in enumerate(rows, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        sep = delimiter if delimiter is not None else ("\t" if "\t" in line else ",")
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 3:
            raise EventParseError(rownum, f"expected 3 fields, got {len(fields)}")
        pid, y_s, r_s = fields
        y = _try_float(y_s)
        if y is None:
            if rownum == 1 and not out and _try_float(r_s) is None:
                continue  # header row
            raise EventParseError(rownum, f"unparseable time {y_s!r}")
        if not math.isfinite(y) or y <= 0:
            raise EventParseError(rownum, f"label time must be positive, got {y_s!r}")
        r = _try_float(r_s)
        if r is None or r not in (0.0, 1.0):
            raise EventParseError(rownum, f"event indicator must be 0 or 1, got {r_s!r}")
        out[pid] = (y, bool(r))
    return out


def load_labels(path) -> dict[str, tuple[float, bool]]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_labels(fh)


def _bin_word(event: str, edges: tuple[float, ...], value: float) -> str:
    # value equal to a cut point goes to the lower bin
    j = int(np.searchsorted(np.asarray(edges), value, side="left"))
    return f"{event}:bin{j + 1}"


def _word_for(rec: EventRecord, bin_edges: Mapping[str, tuple[float, ...]]) -> str | None:
    if rec.event in bin_edges:
        value = _try_float(rec.event_value)
        if value is None:  # non-numeric value for a binned event: no word
            return None
        return _bin_word(rec.event, bin_edges[rec.event], value)
    return f"{rec.event}={rec.event_value}"


def build_corpus(
    events: Iterable[EventRecord],
    labels: Mapping[str, tuple[float, float]],
    cfg: IngestConfig | None = None,
    vocabulary: Vocabulary | None = None,
) -> Corpus:
    """Assemble a Corpus from event records and per-patient labels.

    Continuous events (all values numeric) are discretized into
    equal-frequency bins computed from the retained values; categorical
    values become words verbatim. Words below the document-frequency floor
    are removed, then patients left with fewer than 2 tokens are dropped
    (the co-occurrence estimator needs length >= 2) and the drop is logged.

    Passing a prebuilt ``vocabulary`` skips vocabulary construction and
    filtering: tokens not in it are ignored, supporting train-only
    vocabularies and scoring new patients against a fitted model.
    """
    cfg = cfg or IngestConfig()
    cut = cfg.cutoff
    kept = [e for e in events if cut is None or e.time < cut]
    if not kept:
        raise ValueError("no events remain after cutoff filtering")

    pids = sorted({e.patient_id for e in kept})
    missing = sorted(p for p in pids if p not in labels)
    if missing:
        raise ValueError("patients with events but no label: " + ", ".join(missing))
    pid_col = {p: i for i, p in enumerate(pids)}
    n = len(pids)

    if vocabulary is None:
        by_event: dict[str, list[str]] = {}
        for e in kept:
            by_event.setdefault(e.event, []).append(e.event_value)
        bin_edges: dict[str, tuple[float, ...]] = {}
        for ev in sorted(by_event):
            vals = by_event[ev]
            if vals and all(_is_number(v) for v in vals):
                b = int(cfg.bins)
                if b < 1:
                    raise ValueError(f"bin count for event {ev!r} must be >= 1")
                arr = np.array([float(v) for v in vals], dtype=float)
                qs = np.arange(1, b) / b
                bin_edges[ev] = tuple(float(x) for x in np.quantile(arr, qs)) if b > 1 else ()
        tokens = [(w, pid_col[e.patient_id]) for e in kept
                  if (w := _word_for(e, bin_edges)) is not None]
        cand_words = sorted({w for w, _ in tokens})
        widx = {w: i for i, w in enumerate(cand_words)}
        counts = _counts_matrix([(widx[w], c) for w, c in tokens], len(cand_words), n)

        doc_freq = np.asarray((counts != 0).sum(axis=1)).ravel()
        keep_w = doc_freq >= cfg.min_doc_freq
        if cfg.min_variance is not None:
            keep_w &= _frequency_variance(counts) >= cfg.min_variance
        if not keep_w.any():
            raise ValueError("no words survive filtering; relax min_doc_freq or filters")
        counts = counts[np.flatnonzero(keep_w)]
        vocab = Vocabulary(tuple(w for w, k in zip(cand_words, keep_w) if k), bin_edges)
    else:
        vocab = vocabulary
        trips = []
        for e in kept:
            word = _word_for(e, vocab.bin_edges)
            w = vocab.index.get(word) if word is not None else None
            if w is not None:
                trips.append((w, pid_col[e.patient_id]))
        counts = _counts_matrix(trips, len(vocab), n)

    m = np.asarray(counts.sum(axis=0)).ravel()
    keep_p = m >= 2
    if not keep_p.all():
        dropped = [p for p, k in zip(pids, keep_p) if not k]
        log.warning(
            "dropping %d patient(s) with fewer than 2 retained tokens: %s",
            len(dropped), ", ".join(dropped[:20]) + ("..." if len(dropped) > 20 else ""),
        )
    if not keep_p.any():
        raise ValueError("no patients remain with at least 2 retained tokens")
    cols = np.flatnonzero(keep_p)
    counts = counts[:, cols]
    final_pids = tuple(pids[i] for i in cols)
    y = np.array([float(labels[p][0]) for p in final_pids])
    r = np.array([bool(labels[p][1]) for p in final_pids])
    return Corpus(counts, vocab, SurvivalLabels(y, r), final_pids)


def _counts_matrix(tokens: list[tuple[int, int]], d: int, n: int) -> sparse.csc_matrix:
    if tokens:
        rows = np.array([t[0] for t in tokens], dtype=np.int64)
        cols = np.array([t[1] for t in tokens], dtype=np.int64)
        data = np.ones(len(tokens), dtype=np.int64)
    else:
        rows = cols = data = np.empty(0, dtype=np.int64)
    return sparse.coo_matrix((data, (rows, cols)), shape=(d, n)).tocsc()


def _frequency_variance(counts: sparse.csc_matrix) -> np.ndarray:
    """Variance across documents of per-document normalized frequency."""
    m = np.asarray(counts.sum(axis=0)).ravel().astype(float)
    m = np.maximum(m, 1.0)
    n = counts.shape[1]
    F = counts.astype(float) @ sparse.diags(1.0 / m)
    s1 = np.asarray(F.sum(axis=1)).ravel()
    s2 = np.asarray(F.multiply(F).sum(axis=1)).ravel()
    return s2 / n - (s1 / n) ** 2


def document_frequencies(corpus: Corpus) -> np.ndarray:
    return np.asarray((corpus.counts != 0).sum(axis=1)).ravel()


def normalize_columns(corpus: Corpus) -> sparse.csc_matrix:
    """Column-stochastic count matrix: counts[w, i] / m_i."""
    m = corpus.doc_lengths
    bad = np.flatnonzero(m < 1)
    if bad.size:
        names = ", ".join(corpus.patient_ids[i] for i in bad[:10])
        raise ValueError(f"zero-length document(s): {names}")
    return (corpus.counts.astype(float) @ sparse.diags(1.0 / m.astype(float))).tocsc()


def subset(corpus: Corpus, indices) -> Corpus:
    """Corpus restricted to the given patient columns (vocabulary shared)."""
    idx = np.asarray(indices, dtype=int)
    return Corpus(
        corpus.counts[:, idx],
        corpus.vocab,
        corpus.labels.subset(idx),
        tuple(corpus.patient_ids[i] for i in idx),
    )


def split(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Seeded patient-level partition; vocabulary is shared by both sides."""
    n = corpus.n_docs
    if n < 2:
        raise ValueError("need at least 2 patients to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(train_fraction * n + 0.5))
    n_train = min(max(n_train, 1), n - 1)
    return (
        subset(corpus, np.sort(perm[:n_train])),
        subset(corpus, np.sort(perm[n_train:])),
    )


def save_corpus(corpus: Corpus, path) -> None:
    coo = corpus.counts.tocoo()
    order = np.lexsort((coo.col, coo.row))
    payload = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "words": list(corpus.vocab.words),
        "bin_edges": {k: list(v) for k, v in sorted(corpus.vocab.bin_edges.items())},
        "patient_ids": list(corpus.patient_ids),
        "times": [float(t) for t in corpus.labels.times],
        "observed": [int(o) for o in corpus.labels.observed],
        "triplets": [
            [int(coo.row[j]), int(coo.col[j]), int(coo.data[j])] for j in order
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_corpus(path) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CORPUS_FORMAT:
        raise ValueError(f"not a corpus file: {path}")
    if payload.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version {payload.get('version')}")
    words = tuple(payload["words"])
    edges = {k: tuple(float(x) for x in v) for k, v in payload["bin_edges"].items()}
    d, n = len(words), len(payload["patient_ids"])
    trips = payload["triplets"]
    rows = np.array([t[0] for t in trips], dtype=np.int64)
    cols = np.array([t[1] for t in trips], dtype=np.int64)
    data = np.array([t[2] for t in trips], dtype=np.int64)
    counts = sparse.coo_matrix((data, (rows, cols)), shape=(d, n)).tocsc()
    labels = SurvivalLabels(np.array(payload["times"], dtype=float),
                            np.array(payload["observed"], dtype=bool))
    return Corpus(counts, Vocabulary(words, edges), labels, tuple(payload["patient_ids"]))
