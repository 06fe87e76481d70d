"""Event ingestion, vocabulary building, and sparse corpus assembly.

Input data is a stream of 4-column event rows (patient_id, time, event,
event_value) plus per-patient survival labels. Continuous event values are
discretized into equal-frequency bins and each (event, bin-or-value) pair
becomes one vocabulary word; the corpus is the resulting word-by-patient
count matrix with aligned survival labels.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import logging
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .survival import SurvivalLabels

log = logging.getLogger(__name__)

CORPUS_FORMAT = "sawtopics-corpus"
CORPUS_VERSION = 2


class EventParseError(ValueError):
    """Malformed event row; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True, eq=False)
class Events:
    """Event rows as four aligned 1-d columns: ``patient_id``, ``event`` and
    ``event_value`` hold str objects, ``time`` holds floats (days)."""

    patient_id: np.ndarray
    time: np.ndarray
    event: np.ndarray
    event_value: np.ndarray

    def __post_init__(self):
        for name in ("patient_id", "event", "event_value"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=object))
        object.__setattr__(self, "time", np.asarray(self.time, dtype=float))
        n = len(self.time)
        if any(c.shape != (n,) for c in (self.patient_id, self.time, self.event, self.event_value)):
            raise ValueError("event columns must be 1-d and aligned")

    def __len__(self) -> int:
        return int(self.time.size)


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


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """Word counts (d words x n patients) with labels, held as canonical CSC
    arrays: ``indptr`` over patients, ``indices`` holding each patient's word
    ids in increasing order, ``data`` their nonnegative counts. The scipy
    matrix ``counts`` is built, and scipy imported, on its first read."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    vocab: Vocabulary
    labels: SurvivalLabels
    patient_ids: tuple[str, ...]

    def __init__(self, counts, vocab: Vocabulary, labels: SurvivalLabels, patient_ids):
        """``counts`` is a matrix in any form ``scipy.sparse.csc_matrix``
        takes, or the arrays ``(data, indices, indptr)``, checked in O(nnz)."""
        patient_ids = tuple(patient_ids)
        d, n = len(vocab), len(patient_ids)
        if isinstance(counts, tuple):
            data, indices, indptr = _checked_csc(*counts, d, n)
        else:  # scipy's arrays are canonical once summed
            from scipy import sparse

            matrix = sparse.csc_matrix(counts)
            matrix.sum_duplicates()
            if matrix.shape != (d, n):
                raise ValueError(f"count matrix of shape {matrix.shape} for {d} words "
                                 f"and {n} patients")
            self.__dict__["counts"] = matrix
            data, indices, indptr = matrix.data, matrix.indices, matrix.indptr
        if data.size and data.min() < 0:
            raise ValueError("counts must be nonnegative")
        if len(labels) != n:
            raise ValueError(f"labels length {len(labels)} != matrix columns {n}")
        for name, value in (("indptr", indptr), ("indices", indices), ("data", data),
                            ("vocab", vocab), ("labels", labels), ("patient_ids", patient_ids)):
            object.__setattr__(self, name, value)

    @cached_property
    def counts(self):
        """The counts as a ``scipy.sparse.csc_matrix``."""
        from scipy import sparse

        return sparse.csc_matrix((self.data, self.indices, self.indptr),
                                 shape=(self.n_words, self.n_docs))

    @property
    def n_words(self) -> int:
        return len(self.vocab)

    @property
    def n_docs(self) -> int:
        return len(self.patient_ids)

    @property
    def doc_lengths(self) -> np.ndarray:
        return np.diff(np.concatenate(([0], np.cumsum(self.data)))[self.indptr])

    def with_labels(self, labels: SurvivalLabels) -> "Corpus":
        return Corpus(self.counts, self.vocab, labels, self.patient_ids)


def _checked_csc(data, indices, indptr, d: int, n: int):
    """The CSC arrays of a d x n matrix as arrays, if they are canonical:
    ``indptr`` rises from 0 to nnz in n + 1 entries and the word indices lie
    in [0, d), increasing strictly within each patient."""
    data, indices, indptr = np.asarray(data), np.asarray(indices), np.asarray(indptr)
    if indptr.size != n + 1:
        raise ValueError(f"indptr has {indptr.size} entries, expected {n + 1}")
    if indices.size != data.size:
        raise ValueError(f"indices has {indices.size} entries but data has {data.size}")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ValueError(f"indptr must rise from 0 to {indices.size}")
    if indices.size and (indices.min() < 0 or indices.max() >= d):
        raise ValueError(f"word index outside [0, {d})")
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # a new column begins
    if not rising.all():
        raise ValueError("word indices must increase strictly within each patient")
    return data, indices, indptr


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


def _floats(strings) -> tuple[np.ndarray, np.ndarray]:
    """float() of each string, and the mask of those float() accepts (the
    others read NaN)."""
    try:
        return np.fromiter(map(float, strings), float, len(strings)), np.ones(len(strings), bool)
    except ValueError:
        parsed = [_try_float(s) for s in strings]
        ok = np.array([v is not None for v in parsed], dtype=bool)
        return np.array([np.nan if v is None else v for v in parsed], dtype=float), ok


def _numbers(strings) -> np.ndarray | None:
    """The strings as floats if every one is a finite number, else None.
    Parsing stops at the first string that is not a number."""
    try:
        x = np.fromiter(map(float, strings), float, len(strings))
    except ValueError:
        return None
    return x if np.isfinite(x).all() else None


def _codes(values) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values, and each value's position among them."""
    distinct = sorted(set(values))
    position = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), np.int64, len(values))


def _seps(lines: list[str]) -> list[str]:
    """Each row's delimiter: tab if the row has one, else comma."""
    return ["\t" if "\t" in line else "," for line in lines]


def _fields(line: str) -> list[str]:
    return [f.strip() for f in line.split(_seps([line])[0])]


def _is_header(line: str) -> bool:
    fields = _fields(line)
    return len(fields) == 4 and _try_float(fields[1]) is None and _try_float(fields[3]) is None


def _row_error(rownum: int, line: str) -> EventParseError:
    """The error of the first check that a malformed event row fails."""
    fields = _fields(line)
    if len(fields) != 4:
        return EventParseError(rownum, f"expected 4 fields, got {len(fields)}")
    time_s = fields[1]
    time = _try_float(time_s)
    if time is None:
        return EventParseError(rownum, f"unparseable time {time_s!r}")
    if not math.isfinite(time) or time < 0:
        return EventParseError(rownum, f"time must be finite and >= 0, got {time_s!r}")
    return EventParseError(rownum, "empty event name")


def _split_rows(lines: list[str], seps: list[str]) -> list[list[str]]:
    """The unstripped fields of rows of exactly 4 fields each, as 4 columns;
    each run of rows with one separator is split in one call."""
    columns: list[list[str]] = [[], [], [], []]
    end = 0
    for sep, run in itertools.groupby(seps):
        start, end = end, end + len(list(run))
        flat = sep.join(lines[start:end]).split(sep)
        for k, column in enumerate(columns):
            column += flat[k::4]
    return columns


def _stripped(strings: list[str]) -> np.ndarray:
    return np.fromiter(map(str.strip, strings), object, len(strings))


_BLOCK_ROWS = 1 << 16  # rows split at a time, which bounds the memory of the split fields


def ingest_events(rows: Iterable[str]) -> Events:
    """Parse delimiter-separated 4-column event rows into columns.

    The delimiter is sniffed per row: tab wins over comma.
    Blank rows are skipped. A single header row at the top is tolerated when
    both its time and event_value fields are non-numeric. The first row with
    a field count other than 4, an unparseable, non-finite or negative time,
    or an empty event name is an error carrying its row number. Empty input
    yields empty columns.
    """
    lines = [raw.rstrip("\r\n") for raw in rows]
    rownums = np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))) + 1
    if rownums.size and rownums[0] == 1 and _is_header(lines[0]):
        rownums = rownums[1:]
    pids, times, events, values = [], [], [], []
    for start in range(0, rownums.size, _BLOCK_ROWS):
        nums = rownums[start:start + _BLOCK_ROWS].tolist()
        block = [lines[i - 1] for i in nums]
        seps = _seps(block)
        n_fields = np.fromiter(map(str.count, block, seps), np.int64, len(block)) + 1
        wrong = np.flatnonzero(n_fields != 4)
        stop = int(wrong[0]) if wrong.size else len(block)
        pid, time, event, value = _split_rows(block[:stop], seps[:stop])
        time, _ = _floats(list(map(str.strip, time)))
        event = _stripped(event)
        bad = np.flatnonzero(~(np.isfinite(time) & (time >= 0)) | (event == ""))
        first = int(bad[0]) if bad.size else stop
        if first < len(block):
            raise _row_error(nums[first], block[first])
        pids += pid
        times.append(time)
        events.append(event)
        values += value
    return Events(_stripped(pids), np.concatenate(times) if times else (),
                  np.concatenate(events) if events else (), _stripped(values))


def load_events(path) -> Events:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return ingest_events(fh.read().split("\n"))


def read_labels(rows: Iterable[str]) -> dict[str, tuple[float, bool]]:
    """Parse 3-column label rows: patient_id, time (positive, days), event 0/1.
    A patient labelled twice is an error naming both rows."""
    out: dict[str, tuple[float, bool]] = {}
    row_of: dict[str, int] = {}
    for rownum, raw in enumerate(rows, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = _fields(line)
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
        if pid in row_of:
            raise EventParseError(
                rownum, f"duplicate patient id {pid!r}, first labelled at row {row_of[pid]}")
        row_of[pid] = rownum
        out[pid] = (y, bool(r))
    return out


def load_labels(path) -> dict[str, tuple[float, bool]]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return read_labels(fh)


def _by_event(event: np.ndarray, value: np.ndarray) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, row positions, values) per distinct event name, names sorted
    and each event's rows in input order."""
    names, code = _codes(event)
    order = np.argsort(code, kind="stable")
    cuts = np.cumsum(np.bincount(code, minlength=len(names)))[:-1]
    return list(zip(names, np.split(order, cuts), np.split(value[order], cuts)))


def _code_words(groups, bin_edges: Mapping[str, tuple[float, ...]],
                n: int) -> tuple[list[str], np.ndarray]:
    """The distinct words of n event rows, and each row's position among
    them (-1: the row makes no word).

    A binned event's numeric value becomes "event:binJ" (a value equal to a
    cut point goes to the lower bin) and its non-numeric value no word; any
    other event's value becomes "event=value".
    """
    words: list[str] = []
    word_of = np.full(n, -1, dtype=np.int64)
    for name, rows, values in groups:
        if name in bin_edges:
            x, ok = _floats(values)
            edges = np.asarray(bin_edges[name], dtype=float)
            bins, code = np.unique(np.searchsorted(edges, x[ok], side="left"), return_inverse=True)
            new = [f"{name}:bin{j + 1}" for j in bins.tolist()]
            rows = rows[ok]
        else:
            distinct, code = _codes(values)
            new = [f"{name}={v}" for v in distinct]
        word_of[rows] = code + len(words)
        words += new
    return words, word_of


def build_corpus(
    events: Events,
    labels: Mapping[str, tuple[float, float]],
    cfg: IngestConfig | None = None,
    vocabulary: Vocabulary | None = None,
) -> Corpus:
    """Assemble a Corpus from event columns and per-patient labels.

    Continuous events (all values numeric) are discretized into
    equal-frequency bins computed from the retained values; categorical
    values become words verbatim. Words below the document-frequency floor
    are removed, then patients left with fewer than 2 tokens are dropped
    (the co-occurrence estimator needs length >= 2) and the drop is logged.

    Passing a prebuilt ``vocabulary`` skips vocabulary construction and
    filtering: tokens not in it are ignored, supporting train-only
    vocabularies and scoring new patients against a fitted model.
    """
    from scipy import sparse

    cfg = cfg or IngestConfig()
    kept = np.ones(len(events), bool) if cfg.cutoff is None else events.time < cfg.cutoff
    if not kept.any():
        raise ValueError("no events remain after cutoff filtering")

    pids, col = _codes(events.patient_id[kept])
    missing = [p for p in pids if p not in labels]
    if missing:
        raise ValueError("patients with events but no label: " + ", ".join(missing))
    n = len(pids)

    groups = _by_event(events.event[kept], events.event_value[kept])
    if vocabulary is None:
        bin_edges: dict[str, tuple[float, ...]] = {}
        for name, _, values in groups:
            x = _numbers(values)
            if x is not None:
                b = int(cfg.bins)
                if b < 1:
                    raise ValueError(f"bin count for event {name!r} must be >= 1")
                bin_edges[name] = tuple(np.quantile(x, np.arange(1, b) / b).tolist())
    else:
        bin_edges = vocabulary.bin_edges
    words, word_of = _code_words(groups, bin_edges, len(col))
    if vocabulary is None:
        index = {w: i for i, w in enumerate(sorted(words))}
    else:
        index = vocabulary.index
    # a row without a word (word_of == -1) picks the appended -1
    row = np.array([index.get(w, -1) for w in words] + [-1], dtype=np.int64)[word_of]
    hit = row >= 0
    counts = sparse.coo_matrix((np.ones(int(hit.sum()), dtype=np.int64), (row[hit], col[hit])),
                               shape=(len(index), n)).tocsc()

    if vocabulary is None:
        doc_freq = np.asarray((counts != 0).sum(axis=1)).ravel()
        keep_w = doc_freq >= cfg.min_doc_freq
        if cfg.min_variance is not None:
            keep_w &= _frequency_variance(counts) >= cfg.min_variance
        if not keep_w.any():
            raise ValueError("no words survive filtering; relax min_doc_freq or filters")
        counts = counts[np.flatnonzero(keep_w)]
        vocab = Vocabulary(tuple(w for w, k in zip(index, keep_w) if k), bin_edges)
    else:
        vocab = vocabulary

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

def _frequency_variance(counts) -> np.ndarray:
    """Variance across documents of per-document normalized frequency."""
    from scipy import sparse

    m = np.asarray(counts.sum(axis=0)).ravel().astype(float)
    m = np.maximum(m, 1.0)
    n = counts.shape[1]
    F = counts.astype(float) @ sparse.diags(1.0 / m)
    s1 = np.asarray(F.sum(axis=1)).ravel()
    s2 = np.asarray(F.multiply(F).sum(axis=1)).ravel()
    return s2 / n - (s1 / n) ** 2


def document_frequencies(corpus: Corpus) -> np.ndarray:
    return np.bincount(corpus.indices[corpus.data != 0], minlength=corpus.n_words)


def _inverse_lengths(corpus: Corpus) -> np.ndarray:
    """1 / m_i per patient; a patient with no tokens is an error naming it."""
    m = corpus.doc_lengths
    bad = np.flatnonzero(m < 1)
    if bad.size:
        names = ", ".join(corpus.patient_ids[i] for i in bad[:10])
        raise ValueError(f"zero-length document(s): {names}")
    return 1.0 / m.astype(float)


def normalize_columns(corpus: Corpus):
    """Column-stochastic count matrix Xbar, a ``scipy.sparse.csc_matrix``:
    counts[w, i] / m_i."""
    from scipy import sparse

    return (corpus.counts.astype(float) @ sparse.diags(_inverse_lengths(corpus))).tocsc()


def mean_word_score(corpus: Corpus, u) -> np.ndarray:
    """Each patient's mean of the per-word score ``u`` over its tokens, Xbar^T u
    for Xbar = ``normalize_columns(corpus)``, from the CSC arrays in O(nnz)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (corpus.n_words,):
        raise ValueError(f"per-word score of shape {u.shape} for {corpus.n_words} words")
    patient = np.repeat(np.arange(corpus.n_docs), np.diff(corpus.indptr))
    xbar = corpus.data * _inverse_lengths(corpus)[patient]  # the entries of Xbar
    return np.bincount(patient, weights=xbar * u[corpus.indices], minlength=corpus.n_docs)


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


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection. A version-1 corpus file holds about a
    million 3-int triplet lists; parsing them with the collector on costs
    about twice as long, and they hold no reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def write_json(payload, path) -> None:
    """Write ``payload`` as compact JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def save_corpus(corpus: Corpus, path) -> None:
    """Write a version-2 corpus file: the canonical CSC arrays of the counts
    (``indptr`` over patients, ``indices`` holding word ids, ``data``
    holding counts) next to the vocabulary and labels."""
    write_json({
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "words": list(corpus.vocab.words),
        "bin_edges": {k: list(v) for k, v in corpus.vocab.bin_edges.items()},
        "patient_ids": list(corpus.patient_ids),
        "times": corpus.labels.times.tolist(),
        "observed": corpus.labels.observed.astype(int).tolist(),
        "indptr": corpus.indptr.tolist(),
        "indices": corpus.indices.tolist(),
        "data": corpus.data.astype(np.int64).tolist(),
    }, path)


def read_json(path, format: str, versions: tuple[int, ...], kind: str) -> dict:
    """Read a file written by ``write_json``, checking its format tag and
    that its version is one of ``versions``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != format:
        raise ValueError(f"not a {kind} file: {path}")
    if payload.get("version") not in versions:
        raise ValueError(f"unsupported {kind} version {payload.get('version')}")
    return payload


def _triplet_counts(payload: dict, d: int, n: int) -> tuple:
    """Version 1: one [word, patient, count] list per nonzero count (freed
    here, while the collector is paused), summed into the CSC arrays."""
    trips = np.array(payload.pop("triplets"), dtype=np.int64).reshape(-1, 3)
    if trips.size and (trips[:, :2].min() < 0 or trips[:, 0].max() >= d
                       or trips[:, 1].max() >= n):
        raise ValueError(f"triplet index outside the {d} x {n} matrix")
    word, patient, count = trips[np.lexsort((trips[:, 0], trips[:, 1]))].T
    first = np.flatnonzero(np.diff(patient * d + word, prepend=-1))  # of each repeated cell
    data = np.add.reduceat(count, first) if first.size else count
    return data, word[first], np.concatenate(([0], np.cumsum(np.bincount(patient[first],
                                                                         minlength=n))))


def _flat_array(values, name: str, kinds: str, what: str) -> np.ndarray:
    """``values`` as a 1-d array whose numpy dtype kind is in ``kinds``."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.ndim != 1 or (a.size and a.dtype.kind not in kinds):
        raise ValueError(f"{name} must be a list of {what}")
    return a


def _csc_counts(payload: dict, d: int, n: int) -> tuple:
    """Version 2: the canonical CSC arrays, as integers: the counts int64, the
    word indices and offsets int32 where they fit, as scipy keeps them, so
    that the matrix ``Corpus.counts`` shares them."""
    data, indices, indptr = (_flat_array(payload[k], k, "i", "integers")
                             for k in ("data", "indices", "indptr"))
    index = np.int32 if max(d, n, indices.size) < 2 ** 31 else np.int64
    return data.astype(np.int64, copy=False), indices.astype(index), indptr.astype(index)


# per readable version: the keys holding its counts, and their reader
_COUNT_LAYOUTS = {1: (("triplets",), _triplet_counts),
                  2: (("indptr", "indices", "data"), _csc_counts)}
_CORPUS_KEYS = ("words", "bin_edges", "patient_ids", "times", "observed")


def _corpus_from(payload: dict) -> Corpus:
    count_keys, read_counts = _COUNT_LAYOUTS[payload["version"]]
    for key in _CORPUS_KEYS + count_keys:
        kind, name = (dict, "object") if key == "bin_edges" else (list, "array")
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"{key} is missing or not a JSON {name}")
    for key in ("words", "patient_ids"):
        if not all(isinstance(x, str) for x in payload[key]):
            raise ValueError(f"{key} must be a list of strings")
    times = _flat_array(payload["times"], "times", "iuf", "numbers")
    observed = _flat_array(payload["observed"], "observed", "bi", "0/1 flags")
    if not np.all((observed == 0) | (observed == 1)):
        raise ValueError("observed must be a list of 0/1 flags")
    words, pids = tuple(payload["words"]), tuple(payload["patient_ids"])
    repeated = [p for p, c in Counter(pids).items() if c > 1]
    if repeated:
        raise ValueError("duplicate patient id(s): " + ", ".join(map(str, repeated[:10])))
    counts = read_counts(payload, len(words), len(pids))
    edges = {k: tuple(_flat_array(v, f"bin_edges[{k!r}]", "iuf", "numbers").astype(float).tolist())
             for k, v in payload["bin_edges"].items()}
    labels = SurvivalLabels(times.astype(float), observed.astype(bool))
    return Corpus(counts, Vocabulary(words, edges), labels, pids)


def load_corpus(path) -> Corpus:
    """Read a corpus file of any readable version; a malformed one raises
    ValueError naming the file."""
    with _gc_paused():  # for a version-1 file, known as one only once parsed
        payload = read_json(path, CORPUS_FORMAT, tuple(_COUNT_LAYOUTS), "corpus")
        try:
            return _corpus_from(payload)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad corpus file {path}: {exc}") from exc
