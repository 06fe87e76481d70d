"""Event ingestion, vocabulary building, and sparse corpus assembly.

Input data is a stream of 4-column event rows (patient_id, time, event,
event_value) plus per-patient survival labels. Continuous event values are
discretized into equal-frequency bins and each (event, bin-or-value) pair
becomes one vocabulary word; the corpus is the resulting word-by-patient
count matrix with aligned survival labels.

The rows are parsed in blocks, in the forked pool of ``sawtopics.parallel``.
Each string column is kept coded: its sorted distinct values and an integer
code per row. The corpus is built from those codes, so strings are parsed,
stripped and joined into words once per distinct value, not once per row.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import itertools
import json
import logging
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .parallel import forked_map
from .survival import SurvivalLabels

log = logging.getLogger(__name__)

CORPUS_FORMAT = "sawtopics-corpus"
CORPUS_VERSION = 3
_CSC_KEYS = ("data", "indices", "indptr")
# the unsigned types a version-3 file packs each of its count arrays in
_PACKED_DTYPES = ("<u1", "<u2", "<u4", "<u8")


class EventParseError(ValueError):
    """Malformed event row; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class CodedColumn(NamedTuple):
    """A string column as its sorted distinct values (an object array of str)
    and each row's position among them (int64 codes)."""

    distinct: np.ndarray
    codes: np.ndarray

    @property
    def strings(self) -> np.ndarray:
        return self.distinct[self.codes]


def _coded(column) -> CodedColumn:
    """A checked ``CodedColumn``: ``column`` itself, or its strings coded."""
    if not isinstance(column, CodedColumn):
        values = np.asarray(column, dtype=object)
        if values.ndim != 1:
            raise ValueError("event columns must be 1-d and aligned")
        distinct, codes = _codes(values.tolist())
        return CodedColumn(np.array(distinct, dtype=object), codes)
    distinct, codes = np.asarray(column.distinct, dtype=object), np.asarray(column.codes)
    if distinct.ndim != 1 or any(a >= b for a, b in zip(distinct.tolist(), distinct[1:].tolist())):
        raise ValueError("coded column values must be sorted and distinct")
    if codes.dtype.kind not in "iu" or (codes.size and not 0 <= codes.min() <= codes.max()
                                        < distinct.size):
        raise ValueError(f"coded column codes must be integers in [0, {distinct.size})")
    return CodedColumn(distinct, codes.astype(np.int64, copy=False))


@dataclass(frozen=True, eq=False, init=False)
class Events:
    """Event rows as four aligned 1-d columns. ``time`` holds floats (days);
    ``patients``, ``names`` and ``values`` hold the string columns
    ``patient_id``, ``event`` and ``event_value`` as ``CodedColumn``s, and
    those three names read each back as an object array of str."""

    patients: CodedColumn
    time: np.ndarray
    names: CodedColumn
    values: CodedColumn

    def __init__(self, patient_id, time, event, event_value):
        """Each string column is a ``CodedColumn``, or its strings, coded here."""
        time = np.asarray(time, dtype=float)
        patients, names, values = (_coded(c) for c in (patient_id, event, event_value))
        if time.ndim != 1 or any(c.codes.shape != time.shape for c in (patients, names, values)):
            raise ValueError("event columns must be 1-d and aligned")
        for name, value in (("patients", patients), ("time", time), ("names", names),
                            ("values", values)):
            object.__setattr__(self, name, value)

    patient_id = property(lambda self: self.patients.strings)
    event = property(lambda self: self.names.strings)
    event_value = property(lambda self: self.values.strings)

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
        for event, edges in self.bin_edges.items():
            edges = np.asarray(edges, dtype=float)
            if not (np.isfinite(edges).all() and np.all(np.diff(edges) >= 0)):
                raise ValueError(f"bin edges of {event!r} must be finite and non-decreasing")
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
    ids in increasing order, ``data`` their nonnegative integer counts
    (int64)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    vocab: Vocabulary
    labels: SurvivalLabels
    patient_ids: tuple[str, ...]

    def __init__(self, counts, vocab: Vocabulary, labels: SurvivalLabels, patient_ids):
        """``counts`` is the tuple of CSC arrays ``(data, indices, indptr)``,
        checked in O(nnz); a count that is not a whole number is refused, and
        so is a patient id given twice."""
        if not (isinstance(counts, tuple) and len(counts) == 3):
            raise TypeError("counts must be the tuple (data, indices, indptr) of CSC arrays, "
                            f"not {type(counts).__name__}")
        patient_ids = tuple(patient_ids)
        repeated = [p for p, c in Counter(patient_ids).items() if c > 1]
        if repeated:
            raise ValueError("duplicate patient id(s): " + ", ".join(map(str, repeated[:10])))
        d, n = len(vocab), len(patient_ids)
        data, indices, indptr = _checked_csc(*counts, d, n)
        if len(labels) != n:
            raise ValueError(f"labels length {len(labels)} != matrix columns {n}")
        for name, value in (("indptr", indptr), ("indices", indices), ("data", data),
                            ("vocab", vocab), ("labels", labels), ("patient_ids", patient_ids)):
            object.__setattr__(self, name, value)

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
        return Corpus((self.data, self.indices, self.indptr), self.vocab, labels,
                      self.patient_ids)


def _checked_csc(data, indices, indptr, d: int, n: int):
    """The CSC arrays of a d x n matrix, if they are canonical: ``indptr``
    rises from 0 to nnz in n + 1 entries, the word indices lie in [0, d),
    increasing strictly within each patient, and the counts are nonnegative
    whole numbers. They come back as the counts int64 and the word indices
    and offsets int32 where they fit, as scipy keeps them; each is narrowed
    only once checked, so no value wraps."""
    data, indices, indptr = np.asarray(data), np.asarray(indices), np.asarray(indptr)
    if data.size and data.dtype.kind not in "biu":
        whole = np.isfinite(data) & (np.floor(data) == data)
        if not whole.all():
            raise ValueError(f"counts must be integers, got {data[~whole][0].item()!r}")
    if any(a.size and a.dtype.kind not in "iu" for a in (indices, indptr)):
        raise ValueError("word indices and offsets must be integers")
    data, indices, indptr = (a.astype(np.int64, copy=False) for a in (data, indices, indptr))
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
    if data.size and data.min() < 0:
        raise ValueError("counts must be nonnegative")
    index = np.int32 if max(d, n, indices.size) < 2 ** 31 else np.int64
    return data, indices.astype(index, copy=False), indptr.astype(index, copy=False)


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

    def __post_init__(self):
        if not float(self.bins).is_integer() or self.bins < 1:
            raise ValueError(f"bins must be an integer >= 1, got {self.bins!r}")
        object.__setattr__(self, "bins", int(self.bins))


def _try_float(s: str) -> float | None:
    try:
        return float(s)
    except (TypeError, ValueError):
        return None


def _floats(strings) -> tuple[np.ndarray, np.ndarray]:
    """float() of each stripped string, and the mask of those float() accepts
    (the others read NaN). A string float() accepts unstripped reads the same
    stripped, since float() strips only whitespace that str.strip() strips."""
    try:
        return np.fromiter(map(float, strings), float, len(strings)), np.ones(len(strings), bool)
    except ValueError:
        parsed = [_try_float(s.strip()) for s in strings]
        ok = np.array([v is not None for v in parsed], dtype=bool)
        return np.array([np.nan if v is None else v for v in parsed], dtype=float), ok


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The sorted distinct values, and each value's position among them."""
    distinct = sorted(set(values))
    position = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), np.int64, len(values))


def _stripped_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped values, and each value's position among
    them; only the distinct values are stripped."""
    raw, codes = _codes(values)
    distinct, position = _codes([v.strip() for v in raw])
    return distinct, position[codes]


def _merged(parts: list[tuple[list[str], np.ndarray]]) -> CodedColumn:
    """One coded column from the (sorted distinct values, codes) of consecutive blocks."""
    distinct = sorted(set().union(*(values for values, _ in parts)))
    position = {v: i for i, v in enumerate(distinct)}
    codes = [np.array([position[v] for v in values], dtype=np.int64)[c] for values, c in parts]
    return CodedColumn(np.array(distinct, dtype=object),
                       np.concatenate(codes) if codes else np.empty(0, np.int64))


def _seps(lines: list[str]) -> list[str]:
    """Each row's delimiter: tab if the row has one, else comma."""
    return ["\t" if "\t" in line else "," for line in lines]


def _fields(line: str) -> list[str]:
    return [f.strip() for f in line.split(_seps([line])[0])]


def _is_header(line: str) -> bool:
    fields = _fields(line)
    return len(fields) == 4 and _try_float(fields[1]) is None and _try_float(fields[3]) is None


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


_BLOCK_ROWS = 1 << 16  # rows parsed per task, which bounds the memory of the split fields


def _parse_block(rows: list[str], start: int, stop: int):
    """The event rows ``rows[start:stop]``, blank ones skipped, parsed: their
    times, and the (sorted distinct stripped values, codes) of each string
    column. If one is malformed, the 1-based number of the first such row
    and what is wrong with it."""
    lines = [raw.rstrip("\r\n") for raw in rows[start:stop]]
    block = [line for line in lines if line.strip()]
    seps = _seps(block)
    n_fields = np.fromiter(map(str.count, block, seps), np.int64, len(block)) + 1
    wrong = np.flatnonzero(n_fields != 4)
    end = int(wrong[0]) if wrong.size else len(block)
    pid, time_s, event, value = _split_rows(block[:end], seps[:end])
    time, parsed = _floats(time_s)
    names, event = _stripped_codes(event)
    bad = ~(np.isfinite(time) & (time >= 0))
    if names[:1] == [""]:  # sorted first
        bad |= event == 0
    first = int(np.argmax(bad)) if bad.any() else end
    if first < len(block):
        row = start + 1 + [i for i, line in enumerate(lines) if line.strip()][first]
        if first == end:
            return row, f"expected 4 fields, got {n_fields[end]}"
        if not parsed[first]:
            return row, f"unparseable time {time_s[first].strip()!r}"
        if not (math.isfinite(time[first]) and time[first] >= 0):
            return row, f"time must be finite and >= 0, got {time_s[first].strip()!r}"
        return row, "empty event name"
    return time, _stripped_codes(pid), (names, event), _stripped_codes(value)


def ingest_events(rows: Iterable[str]) -> Events:
    """Parse delimiter-separated 4-column event rows into columns.

    The delimiter is sniffed per row: tab wins over comma.
    Blank rows are skipped. A single header row at the top is tolerated when
    both its time and event_value fields are non-numeric. The first row with
    a field count other than 4, an unparseable, non-finite or negative time,
    or an empty event name is an error carrying its row number. Empty input
    yields empty columns.

    Blocks of ``_BLOCK_ROWS`` rows are parsed in the forked pool of
    ``sawtopics.parallel.forked_map``; input of one block is parsed in this
    process.
    """
    rows = list(rows)
    starts = range(1 if rows and _is_header(rows[0]) else 0, len(rows), _BLOCK_ROWS)
    parts = forked_map(partial(_parse_block, rows),
                       [(s, min(s + _BLOCK_ROWS, len(rows))) for s in starts])
    failed = [p for p in parts if isinstance(p[0], int)]
    if failed:
        raise EventParseError(*failed[0])
    time = np.concatenate([p[0] for p in parts]) if parts else ()
    return Events(_merged([p[1] for p in parts]), time, _merged([p[2] for p in parts]),
                  _merged([p[3] for p in parts]))


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


def _word_codes(events: Events, kept: np.ndarray, cfg: IngestConfig,
                vocabulary: Vocabulary | None) -> tuple[list[str], np.ndarray, Mapping]:
    """The distinct words of the kept event rows, each kept row's position
    among them (-1: the row makes no word), and the bin edges.

    An event whose values are all finite numbers is binned: "event:binJ",
    with edges at equal-frequency quantiles, or those of ``vocabulary``; a
    value equal to a cut point goes to the lower bin, and a value float()
    refuses makes no word. Any other event's value becomes "event=value".
    Each distinct value string is parsed once, and each word built once.
    """
    names, values = events.names.distinct.tolist(), events.values.distinct.tolist()
    name, value = events.names.codes[kept], events.values.codes[kept]
    x, parsed = _floats(values)
    rows = np.bincount(name, minlength=len(names))
    order = np.argsort(name)  # each event's rows, at order[start[e]:start[e + 1]]
    start = np.concatenate(([0], np.cumsum(rows)))
    if vocabulary is None:
        not_numeric = np.bincount(name[~np.isfinite(x[value])], minlength=len(names))
        q = np.arange(1, cfg.bins) / cfg.bins
        bin_edges = {names[e]: tuple(np.quantile(x[value[order[start[e]:start[e + 1]]]],
                                                 q).tolist())
                     for e in np.flatnonzero((rows > 0) & (not_numeric == 0)).tolist()}
    else:
        bin_edges = vocabulary.bin_edges
    binned = np.array([nm in bin_edges for nm in names], dtype=bool) & (rows > 0)
    # a word's key is name * width + (its bin, or its value's code)
    width = max([len(values)] + [len(bin_edges[names[e]]) + 1 for e in np.flatnonzero(binned)])
    sub = value.copy()
    for e in np.flatnonzero(binned).tolist():
        at = order[start[e]:start[e + 1]]
        v = value[at]
        edges = np.asarray(bin_edges[names[e]], dtype=float)
        sub[at] = np.where(parsed[v], np.searchsorted(edges, x[v], side="left"), -1)
    hit = sub >= 0
    keys, inverse = np.unique(name[hit] * width + sub[hit], return_inverse=True)
    words = [f"{names[e]}:bin{j + 1}" if binned[e] else f"{names[e]}={values[j]}"
             for e, j in (divmod(k, width) for k in keys.tolist())]
    word_of = np.full(name.size, -1, dtype=np.int64)
    word_of[hit] = inverse
    return words, word_of, bin_edges


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

    The work is on the columns' integer codes; strings are handled once per
    distinct value.
    """
    cfg = cfg or IngestConfig()
    kept = np.ones(len(events), bool) if cfg.cutoff is None else events.time < cfg.cutoff
    if not kept.any():
        raise ValueError("no events remain after cutoff filtering")

    used, col = np.unique(events.patients.codes[kept], return_inverse=True)
    pids = events.patients.distinct[used].tolist()
    missing = [p for p in pids if p not in labels]
    if missing:
        raise ValueError("patients with events but no label: " + ", ".join(missing))
    n = len(pids)

    words, word_of, bin_edges = _word_codes(events, kept, cfg, vocabulary)
    if vocabulary is None:
        index = {w: i for i, w in enumerate(sorted(set(words)))}  # two keys can spell one word
    else:
        index = vocabulary.index
    d = len(index)
    # a row without a word (word_of == -1) picks the appended -1
    row = np.array([index.get(w, -1) for w in words] + [-1], dtype=np.int64)[word_of]
    hit = row >= 0
    # the canonical CSC arrays of the counts, one entry per (patient, word) cell
    cell, data = np.unique(col[hit] * d + row[hit], return_counts=True)
    patient, indices = np.divmod(cell, d)

    if vocabulary is None:
        keep_w = np.bincount(indices, minlength=d) >= cfg.min_doc_freq
        if cfg.min_variance is not None:
            keep_w &= _frequency_variance(data, indices, patient, d, n) >= cfg.min_variance
        if not keep_w.any():
            raise ValueError("no words survive filtering; relax min_doc_freq or filters")
        kept_cell = keep_w[indices]
        patient, indices, data = (patient[kept_cell], (np.cumsum(keep_w) - 1)[indices[kept_cell]],
                                  data[kept_cell])
        vocab = Vocabulary(tuple(w for w, k in zip(index, keep_w) if k), bin_edges)
    else:
        vocab = vocabulary

    keep_p = np.bincount(patient, weights=data, minlength=n) >= 2
    if not keep_p.all():
        dropped = [p for p, k in zip(pids, keep_p) if not k]
        log.warning(
            "dropping %d patient(s) with fewer than 2 retained tokens: %s",
            len(dropped), ", ".join(dropped[:20]) + ("..." if len(dropped) > 20 else ""),
        )
    if not keep_p.any():
        raise ValueError("no patients remain with at least 2 retained tokens")
    kept_cell = keep_p[patient]
    patient, indices, data = ((np.cumsum(keep_p) - 1)[patient[kept_cell]], indices[kept_cell],
                              data[kept_cell])
    final_pids = tuple(pids[i] for i in np.flatnonzero(keep_p).tolist())
    y = np.array([float(labels[p][0]) for p in final_pids])
    r = np.array([bool(labels[p][1]) for p in final_pids])
    indptr = np.searchsorted(patient, np.arange(len(final_pids) + 1))
    return Corpus((data, indices, indptr), vocab, SurvivalLabels(y, r), final_pids)


def _frequency_variance(data, word, patient, d: int, n: int) -> np.ndarray:
    """Variance across the n documents of each word's per-document normalized
    frequency, from the nonzero cells' counts, words and patients."""
    m = np.maximum(np.bincount(patient, weights=data, minlength=n), 1.0)
    f = data * (1.0 / m)[patient]
    s1 = np.bincount(word, weights=f, minlength=d)
    s2 = np.bincount(word, weights=f * f, minlength=d)
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


def _normalized_entries(corpus: Corpus) -> np.ndarray:
    """The entries of Xbar, in the order of the CSC arrays: each count over
    its patient's document length."""
    return corpus.data * np.repeat(_inverse_lengths(corpus), np.diff(corpus.indptr))


def normalize_columns(corpus: Corpus):
    """Column-stochastic count matrix Xbar, a canonical
    ``scipy.sparse.csc_matrix``: counts[w, i] / m_i."""
    from scipy import sparse

    return sparse.csc_matrix((_normalized_entries(corpus), corpus.indices, corpus.indptr),
                             shape=(corpus.n_words, corpus.n_docs))


def mean_word_score(corpus: Corpus, u) -> np.ndarray:
    """Each patient's mean of the per-word score ``u`` over its tokens, Xbar^T u
    for Xbar = ``normalize_columns(corpus)``, from the CSC arrays in O(nnz)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (corpus.n_words,):
        raise ValueError(f"per-word score of shape {u.shape} for {corpus.n_words} words")
    patient = np.repeat(np.arange(corpus.n_docs), np.diff(corpus.indptr))
    return np.bincount(patient, weights=_normalized_entries(corpus) * u[corpus.indices],
                       minlength=corpus.n_docs)


def subset(corpus: Corpus, indices) -> Corpus:
    """Corpus restricted to the given patient columns (vocabulary shared),
    gathered from the CSC arrays."""
    idx = np.arange(corpus.n_docs)[np.asarray(indices, dtype=int)]
    starts, lengths = corpus.indptr[idx], np.diff(corpus.indptr)[idx]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
    return Corpus(
        (corpus.data[take], corpus.indices[take], indptr),
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


def _packed(values: np.ndarray) -> dict:
    """Nonnegative integers as the base64 of their little-endian bytes in the
    narrowest unsigned type that holds the largest of them."""
    top = int(values.max()) if values.size else 0
    dtype = next(t for t in _PACKED_DTYPES if top <= np.iinfo(t).max)
    return {"dtype": dtype, "base64": base64.b64encode(values.astype(dtype).tobytes()).decode()}


def save_corpus(corpus: Corpus, path) -> None:
    """Write a version-3 corpus file: the canonical CSC arrays of the counts
    (``indptr`` over patients, ``indices`` holding word ids, ``data``
    holding counts), each packed by ``_packed``, next to the vocabulary and
    labels."""
    write_json({
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "words": list(corpus.vocab.words),
        "bin_edges": {k: list(v) for k, v in corpus.vocab.bin_edges.items()},
        "patient_ids": list(corpus.patient_ids),
        "times": corpus.labels.times.tolist(),
        "observed": corpus.labels.observed.astype(int).tolist(),
        **{k: _packed(getattr(corpus, k)) for k in _CSC_KEYS},
    }, path)


def read_json(path, format: str, versions: tuple[int, ...], kind: str) -> dict:
    """Read a file written by ``write_json``, checking its format tag and
    that its version is a JSON integer among ``versions``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != format:
        raise ValueError(f"not a {kind} file: {path}")
    version = payload.get("version")
    if type(version) is not int or version not in versions:  # a bool or a float is refused
        raise ValueError(f"unsupported {kind} version {version}: {path}")
    return payload


def flat_array(values, name: str, kinds: str, what: str) -> np.ndarray:
    """``values`` as a 1-d array whose numpy dtype kind is in ``kinds``."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.ndim != 1 or (a.size and a.dtype.kind not in kinds):
        raise ValueError(f"{name} must be a list of {what}")
    return a


def _triplet_counts(payload: dict, d: int, n: int) -> tuple:
    """Version 1: one [word, patient, count] list per nonzero count (freed
    here, while the collector is paused), summed into the CSC arrays."""
    try:
        trips = np.asarray(payload.pop("triplets"))
    except ValueError:  # ragged nesting
        trips = None
    if trips is None or (trips.size and (trips.ndim != 2 or trips.shape[1] != 3
                                         or trips.dtype.kind != "i")):
        raise ValueError("triplets must be a list of [word, patient, count] integer triplets")
    trips = trips.astype(np.int64, copy=False).reshape(-1, 3)
    if trips.size and (trips[:, :2].min() < 0 or trips[:, 0].max() >= d
                       or trips[:, 1].max() >= n):
        raise ValueError(f"triplet index outside the {d} x {n} matrix")
    word, patient, count = trips[np.lexsort((trips[:, 0], trips[:, 1]))].T
    first = np.flatnonzero(np.diff(patient * d + word, prepend=-1))  # of each repeated cell
    data = np.add.reduceat(count, first) if first.size else count
    return data, word[first], np.concatenate(([0], np.cumsum(np.bincount(patient[first],
                                                                         minlength=n))))


def _csc_counts(payload: dict, d: int, n: int) -> tuple:
    """Version 2: the canonical CSC arrays, as JSON lists of integers."""
    return tuple(flat_array(payload[k], k, "i", "integers") for k in _CSC_KEYS)


def _unpacked(value: dict, name: str) -> np.ndarray:
    """The array a ``_packed`` object holds, decoded strictly."""
    if set(value) != {"dtype", "base64"} or not isinstance(value["base64"], str):
        raise ValueError(f"{name} must be an object of a dtype and a base64 string")
    if value["dtype"] not in _PACKED_DTYPES:
        raise ValueError(f"{name} has dtype {value['dtype']!r}, not one of {_PACKED_DTYPES}")
    try:
        raw = base64.b64decode(value["base64"], validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{name} is not valid base64") from None
    itemsize = np.dtype(value["dtype"]).itemsize
    if len(raw) % itemsize:
        raise ValueError(f"{name} holds {len(raw)} bytes, not a whole number of "
                         f"{itemsize}-byte items")
    return np.frombuffer(raw, value["dtype"])


def _packed_counts(payload: dict, d: int, n: int) -> tuple:
    """Version 3: the canonical CSC arrays, each packed by ``_packed``."""
    return tuple(_unpacked(payload[k], k) for k in _CSC_KEYS)


# per readable version: the keys holding its counts, their JSON type, and their reader
_COUNT_LAYOUTS = {1: (("triplets",), list, _triplet_counts),
                  2: (_CSC_KEYS, list, _csc_counts),
                  3: (_CSC_KEYS, dict, _packed_counts)}
_CORPUS_KEYS = {"words": list, "bin_edges": dict, "patient_ids": list, "times": list,
                "observed": list}


def _corpus_from(payload: dict) -> Corpus:
    count_keys, count_kind, read_counts = _COUNT_LAYOUTS[payload["version"]]
    for key, kind in {**_CORPUS_KEYS, **dict.fromkeys(count_keys, count_kind)}.items():
        if not isinstance(payload.get(key), kind):
            name = "object" if kind is dict else "array"
            raise ValueError(f"{key} is missing or not a JSON {name}")
    for key in ("words", "patient_ids"):
        if not all(isinstance(x, str) for x in payload[key]):
            raise ValueError(f"{key} must be a list of strings")
    times = flat_array(payload["times"], "times", "iuf", "numbers")
    observed = flat_array(payload["observed"], "observed", "bi", "0/1 flags")
    if not np.all((observed == 0) | (observed == 1)):
        raise ValueError("observed must be a list of 0/1 flags")
    words, pids = tuple(payload["words"]), tuple(payload["patient_ids"])
    counts = read_counts(payload, len(words), len(pids))
    edges = {k: tuple(flat_array(v, f"bin_edges[{k!r}]", "iuf", "numbers").astype(float).tolist())
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
