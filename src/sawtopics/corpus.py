"""Event ingestion, vocabulary building, and sparse corpus assembly.

Input data is a file of 4-column event rows (patient_id, time, event,
event_value) plus per-patient survival labels. Continuous event values are
discretized into equal-frequency bins and each (event, bin-or-value) pair
becomes one vocabulary word; the corpus is the resulting word-by-patient
count matrix with aligned survival labels.

``build_corpus`` is the one ingest entry: it reads the labels with
``load_labels``, then the events with ``load_events``, which streams the
file in blocks of ``_BLOCK_ROWS`` rows, each parsed as one string in the
forked pool of ``sawtopics.parallel``, so a few blocks of text are held at
once. Each string column is kept coded: its sorted distinct values, each
used by a kept row, and a code per row, in the narrowest unsigned type
that holds the codes; a block's codes are merged into the column as it
arrives, and the first bad block stops the parse. The rows keep no times:
the cutoff is applied as each block is parsed. The corpus is built from
the codes, so strings are parsed, stripped and joined into words once per
distinct value. Memory grows with the coded columns (5 bytes a row while
there are at most 65,536 patients and distinct values and 256 event
names) and the corpus.
"""

from __future__ import annotations

import base64
import itertools
import json
import logging
import math
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .parallel import forked_imap
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
    and each row's position among them (its code, in the narrowest unsigned
    type that holds every position: ``_code_type``)."""

    distinct: np.ndarray
    codes: np.ndarray


def _code_type(n: int) -> np.dtype:
    """The narrowest unsigned type that holds every code of n distinct values."""
    return np.min_scalar_type(max(n - 1, 0))


@dataclass(frozen=True, eq=False)
class Events:
    """The rows ``load_events`` keeps, without times: their aligned coded
    columns, each value used by a row, and ``n_cut``, the number of rows cut."""

    patients: CodedColumn
    names: CodedColumn
    values: CodedColumn
    n_cut: int

    def __len__(self) -> int:
        return int(self.patients.codes.size)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered word list plus the discretization cuts that produced it.

    ``bin_edges`` has one entry per continuous event (possibly empty when a
    single bin was requested); its presence is what marks an event as
    continuous when a prebuilt vocabulary is applied to new data. Both are
    kept as tuples (of str, of float), so ``==`` ignores how they were spelled.
    """

    words: tuple[str, ...]
    bin_edges: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    index: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.words, (list, tuple)) or any(type(w) is not str for w in self.words):
            raise ValueError("words must be a list of strings")
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        edges = {event: flat_array(cuts, f"bin_edges[{event!r}]", "iuf", "numbers").astype(float)
                 for event, cuts in self.bin_edges.items()}
        for event, cuts in edges.items():
            if not (np.isfinite(cuts).all() and np.all(np.diff(cuts) >= 0)):
                raise ValueError(f"bin edges of {event!r} must be finite and non-decreasing")
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "bin_edges", {e: tuple(c.tolist()) for e, c in edges.items()})
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True, eq=False, init=False)
class Corpus:
    """Word counts (d words x n patients) with labels, held as canonical CSC
    arrays: ``indptr`` over patients, ``indices`` holding each patient's word
    ids in increasing order, ``data`` their nonnegative integer counts. The
    counts are int64, and the word ids and offsets int32 (int64 where a
    dimension or nnz reaches 2**31)."""

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
        return _column_sums(self.data, self.indptr)

    def with_labels(self, labels: SurvivalLabels) -> "Corpus":
        return Corpus((self.data, self.indices, self.indptr), self.vocab, labels,
                      self.patient_ids)


def _checked_csc(data, indices, indptr, d: int, n: int):
    """The CSC arrays of a d x n matrix, if they are canonical: ``indptr``
    rises from 0 to nnz in n + 1 entries, the word indices lie in [0, d),
    increasing strictly within each patient, and the counts are nonnegative
    whole numbers. They come back as scipy keeps them: the counts int64
    (converted first), the word indices and offsets int32 where they fit.
    Those two are checked in their own types, by comparisons that cannot
    wrap (not ``np.diff``, which wraps on unsigned types), and converted only
    once checked; arrays already of these types are not copied."""
    data, indices, indptr = np.asarray(data), np.asarray(indices), np.asarray(indptr)
    if data.size and data.dtype.kind not in "biu":
        whole = np.isfinite(data) & (np.floor(data) == data)
        if not whole.all():
            raise ValueError(f"counts must be integers, got {data[~whole][0].item()!r}")
    if any(a.size and a.dtype.kind not in "iu" for a in (indices, indptr)):
        raise ValueError("word indices and offsets must be integers")
    data = data.astype(np.int64, copy=False)  # as returned; a uint64 count wraps negative
    if indptr.size != n + 1:
        raise ValueError(f"indptr has {indptr.size} entries, expected {n + 1}")
    if indices.size != data.size:
        raise ValueError(f"indices has {indices.size} entries but data has {data.size}")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"indptr must rise from 0 to {indices.size}")
    if indices.size and (indices.min() < 0 or indices.max() >= d):
        raise ValueError(f"word index outside [0, {d})")
    rising = indices[1:] > indices[:-1]
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

    ``cutoff`` is a global time bound: ``build_corpus`` drops the events at
    or after it as it reads them. ``min_variance``, when set, drops words
    whose normalized per-document frequency variance falls below it.
    """

    bins: int = 5
    min_doc_freq: int = 3
    cutoff: float | None = None
    min_variance: float | None = None

    def __post_init__(self):
        if not float(self.bins).is_integer() or self.bins < 1:
            raise ValueError(f"bins must be an integer >= 1, got {self.bins!r}")
        for name in ("cutoff", "min_variance"):
            if getattr(self, name) is not None and math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
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
    """The sorted distinct values, and each value's position among them, in
    ``_code_type``."""
    distinct = sorted(set(values))
    position = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), _code_type(len(distinct)),
                                 len(values))


def _stripped_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped values, and each value's position among
    them; only the distinct values are stripped."""
    raw, codes = _codes(values)
    distinct, position = _codes([v.strip() for v in raw])
    return distinct, position[codes]


def _used(values: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The values that ``codes`` name, in order, and the codes renumbered
    among them."""
    used = np.bincount(codes, minlength=len(values)) > 0
    rank = (np.cumsum(used) - 1).astype(_code_type(int(np.count_nonzero(used))))
    return list(itertools.compress(values, used)), rank[codes]


class _MergedColumn:
    """One coded column, merged from the (sorted distinct values, codes) of
    consecutive blocks as each arrives: a block's codes become at once those
    of its values in order of first arrival, in the narrowest unsigned type
    that holds them, and are ranked among the sorted values at the end."""

    def __init__(self):
        self.arrival: dict[str, int] = {}
        self.blocks: deque[np.ndarray] = deque()

    def add(self, values: list[str], codes: np.ndarray) -> None:
        arrival = self.arrival
        first = [arrival.setdefault(v, len(arrival)) for v in values]
        self.blocks.append(np.array(first, _code_type(len(arrival)))[codes])

    def column(self) -> CodedColumn:
        """The merged column; each block is freed once its codes are ranked."""
        distinct = sorted(self.arrival)
        rank = np.empty(len(distinct), _code_type(len(distinct)))
        rank[[self.arrival[v] for v in distinct]] = np.arange(len(distinct))
        codes = np.empty(sum(block.size for block in self.blocks), rank.dtype)
        end = 0
        while self.blocks:
            block = self.blocks.popleft()
            codes[end:end + block.size] = rank[block]
            end += block.size
        return CodedColumn(np.array(distinct, dtype=object), codes)


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


_BLOCK_ROWS = 1 << 16  # rows per task: what the parent and each worker hold of the text


def _is_utf8(line: str) -> bool:
    """Whether ``line`` encodes as UTF-8. A file read with
    ``errors="surrogateescape"`` holds each byte that is not UTF-8 as a lone
    surrogate, which does not."""
    if line.isascii():
        return True
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_block(text: str, start: int, cutoff: float | None):
    """The event rows of ``text``, joined by line ends ("\\n"), whose first
    row is row ``start`` (0-based) of the input, blank ones skipped and a
    header skipped only at row 0, parsed. If one is malformed or not valid
    UTF-8: the 1-based input row number of the first such row and what is
    wrong with it. Else: the number of rows at or after ``cutoff`` (None: no
    cutoff), which are dropped once every row is checked, and the (sorted
    distinct stripped values, codes) of each string column, of the kept rows
    only."""
    rows = text.split("\n")  # read with universal newlines, so no "\r" is left
    valid = len(rows)  # the rows before the first that is not UTF-8
    if not all(map(str.isascii, rows)):
        valid = next((i for i, line in enumerate(rows) if not _is_utf8(line)), valid)
    head = int(start == 0 and valid > 0 and _is_header(rows[0]))
    lines = rows[head:valid]
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
        row = start + head + 1 + [i for i, line in enumerate(lines) if line.strip()][first]
        if first == end:
            return row, f"expected 4 fields, got {n_fields[end]}"
        if not parsed[first]:
            return row, f"unparseable time {time_s[first].strip()!r}"
        if not (math.isfinite(time[first]) and time[first] >= 0):
            return row, f"time must be finite and >= 0, got {time_s[first].strip()!r}"
        return row, "empty event name"
    if valid < len(rows):
        return start + 1 + valid, "not valid UTF-8"
    columns = [_stripped_codes(pid), (names, event), _stripped_codes(value)]
    n_cut = 0
    if cutoff is not None:
        kept = time < cutoff
        n_cut = int(kept.size - np.count_nonzero(kept))
        if n_cut:
            columns = [_used(values, codes[kept]) for values, codes in columns]
    return n_cut, *columns


def _text_blocks(fh) -> Iterator[tuple[str, int]]:
    """Each run of ``_BLOCK_ROWS`` lines of the text file ``fh`` as one
    string, and the 0-based row number of its first line. The lines are
    joined a few thousand at a time, so a block is never held as a list of
    line strings, which take about 80 bytes a line."""
    per_piece = math.gcd(_BLOCK_ROWS, 4096)
    pieces = iter(lambda: "".join(itertools.islice(fh, per_piece)), "")
    for start in itertools.count(0, _BLOCK_ROWS):
        if not (block := "".join(itertools.islice(pieces, _BLOCK_ROWS // per_piece))):
            return
        yield block, start


def load_events(path, cutoff: float | None = None) -> Events:
    """Parse a UTF-8 file (a byte order mark is skipped) of
    delimiter-separated 4-column event rows into coded columns, without the
    rows' times: the rows at or after ``cutoff`` (None: no cutoff) are
    dropped as they are parsed, and counted in ``n_cut``.

    The delimiter is sniffed per row: tab wins over comma.
    Blank rows are skipped. A single header row at the top is tolerated when
    both its time and event_value fields are non-numeric. The first row with
    a field count other than 4, an unparseable, non-finite or negative time,
    or an empty event name, or that is not valid UTF-8 (holds a lone
    surrogate), is an error carrying its row number. An empty file yields
    empty columns.

    Each block goes to ``_parse_block`` through ``forked_imap`` (a file of
    one block is parsed in this process) and is merged as it arrives; the
    first bad block's error is raised as it arrives, cancelling the calls
    not yet started.
    """
    merged = [_MergedColumn() for _ in range(3)]
    n_cut = 0
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh, \
            closing(forked_imap(_parse_block, ((block, start, cutoff)
                                               for block, start in _text_blocks(fh)))) as parts:
        for part in parts:
            if isinstance(part[1], str):
                raise EventParseError(*part)
            n_cut += part[0]
            for column, (values, codes) in zip(merged, part[1:]):
                column.add(values, codes)
    return Events(*(column.column() for column in merged), n_cut)


def load_labels(path) -> dict[str, tuple[float, bool]]:
    """Parse a UTF-8 file (a byte order mark is skipped) of 3-column label
    rows: patient_id, time (positive, days), event 0/1. Blank rows and a
    header row at the top are skipped. A patient labelled twice is an error
    naming both rows, and a row that is not valid UTF-8 (holds a lone
    surrogate) is an error."""
    out: dict[str, tuple[float, bool]] = {}
    row_of: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for rownum, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not _is_utf8(line):
                raise EventParseError(rownum, "not valid UTF-8")
            fields = _fields(line)
            if len(fields) != 3:
                raise EventParseError(rownum, f"expected 3 fields, got {len(fields)}")
            pid, y_s, r_s = fields
            y = _try_float(y_s)
            if y is None:
                if rownum == 1 and _try_float(r_s) is None:
                    continue  # header row
                raise EventParseError(rownum, f"unparseable time {y_s!r}")
            if not math.isfinite(y) or y <= 0:
                raise EventParseError(rownum, f"label time must be finite and > 0, got {y_s!r}")
            r = _try_float(r_s)
            if r is None or r not in (0.0, 1.0):
                raise EventParseError(rownum, f"event indicator must be 0 or 1, got {r_s!r}")
            if pid in row_of:
                raise EventParseError(
                    rownum, f"duplicate patient id {pid!r}, first labelled at row {row_of[pid]}")
            row_of[pid] = rownum
            out[pid] = (y, bool(r))
    return out


def _fitting(top: int):
    """int32 if it holds every integer in [0, top), else int64."""
    return np.int32 if top <= 2 ** 31 else np.int64


def _word_codes(events: Events, cfg: IngestConfig,
                vocabulary: Vocabulary | None) -> tuple[list[str], np.ndarray, Mapping]:
    """The distinct words of the event rows, each row's position among them
    (-1: the row makes no word), and the bin edges.

    An event whose values are all finite numbers is binned: "event:binJ",
    with edges at equal-frequency quantiles, or those of ``vocabulary``; a
    value equal to a cut point goes to the lower bin, and a value float()
    refuses makes no word. Any other event's value becomes "event=value".
    Each distinct value string is parsed once, and each word built once.
    """
    names, values = events.names.distinct.tolist(), events.values.distinct.tolist()
    name, value = events.names.codes, events.values.codes
    x, parsed = _floats(values)
    order = np.argsort(name)  # each event's rows, at order[start[e]:start[e + 1]]
    start = np.concatenate(([0], np.cumsum(np.bincount(name))))
    if vocabulary is None:
        not_numeric = np.bincount(name[~np.isfinite(x)[value]], minlength=len(names))
        q = np.arange(1, cfg.bins) / cfg.bins
        bin_edges = {names[e]: np.quantile(x[value[order[start[e]:start[e + 1]]]], q)
                     for e in np.flatnonzero(not_numeric == 0).tolist()}
    else:
        bin_edges = vocabulary.bin_edges
    binned = np.array([nm in bin_edges for nm in names], dtype=bool)
    # a word's key is name * width + (its bin, or its value's code)
    width = max([len(values)] + [len(bin_edges[names[e]]) + 1 for e in np.flatnonzero(binned)])
    key = value.astype(_fitting(len(names) * width))
    for e in np.flatnonzero(binned).tolist():
        at = slice(start[e], start[e + 1])  # not a view of order, which is freed below
        v = value[order[at]]
        key[order[at]] = np.where(parsed[v], np.searchsorted(bin_edges[names[e]], x[v]), -1)
    del order
    hit = key >= 0
    key += np.multiply(name, width, dtype=key.dtype)
    keys = np.unique(key[hit])
    words = [f"{names[e]}:bin{j + 1}" if binned[e] else f"{names[e]}={values[j]}"
             for e, j in (divmod(k, width) for k in keys.tolist())]
    word_of = np.searchsorted(keys, key)
    word_of[~hit] = -1
    return words, word_of, bin_edges


def build_corpus(
    events_path,
    labels_path,
    cfg: IngestConfig | None = None,
    vocabulary: Vocabulary | None = None,
) -> Corpus:
    """Assemble a Corpus from a label file, read first so that a bad one is
    refused before any event is parsed, and an event file cut at ``cfg.cutoff``.

    Continuous events (all values numeric) are discretized into
    equal-frequency bins computed from the retained values; categorical
    values become words verbatim. Words below the document-frequency floor
    are removed, then patients left with fewer than 2 tokens are dropped
    (the co-occurrence estimator needs length >= 2) and the drop is logged.
    No event rows is an error, and so are a cutoff that drops every row and
    a patient with events but no label.

    Passing a prebuilt ``vocabulary`` skips vocabulary construction and
    filtering: tokens not in it are ignored, supporting train-only
    vocabularies and scoring new patients against a fitted model.

    The work is on the columns' integer codes; strings are handled once per
    distinct value, and the per-row arrays are int32 where their values fit.
    """
    cfg = cfg or IngestConfig()
    labels = load_labels(labels_path)
    events = load_events(events_path, cfg.cutoff)
    if not len(events):
        raise ValueError("no events remain after cutoff filtering" if events.n_cut
                         else "no event rows")

    pids = events.patients.distinct.tolist()
    missing = [p for p in pids if p not in labels]
    if missing:
        raise ValueError(f"{len(missing)} patient(s) with events but no label: "
                         + ", ".join(missing[:10]))
    n = len(pids)

    words, word_of, bin_edges = _word_codes(events, cfg, vocabulary)
    if vocabulary is None:
        index = {w: i for i, w in enumerate(sorted(set(words)))}  # two keys can spell one word
    else:
        index = vocabulary.index
    d = len(index)
    cell_type = _fitting(n * d + 1)
    # a row without a word (word_of == -1) picks the appended -1
    row = np.array([index.get(w, -1) for w in words] + [-1], dtype=cell_type)[word_of]
    del word_of
    # each row's (patient, word) cell, patient * d + word, or n * d (sorted
    # last) if it makes no word; sorted, their runs are the CSC entries, and
    # the run lengths the counts, int32 where they fit
    cell = events.patients.codes.astype(cell_type)
    cell *= d
    cell += row
    cell[row < 0] = n * d
    del row
    cell.sort()
    cell = cell[:np.searchsorted(cell, n * d)]
    count = _fitting(cell.size + 1)
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    starts = starts[:cell.size].astype(count)  # no cell: no run
    indices, size = cell[starts], cell.size
    del cell  # before the counts are made
    data = np.diff(starts, append=count(size))
    del starts
    indptr = np.searchsorted(indices, np.arange(n + 1, dtype=cell_type) * d)
    indices %= d

    if vocabulary is None:
        keep_w = np.bincount(indices, minlength=d) >= cfg.min_doc_freq
        if cfg.min_variance is not None:
            patient = np.repeat(np.arange(n), np.diff(indptr))
            keep_w &= _frequency_variance(data, indices, patient, d, n) >= cfg.min_variance
            del patient
        if not keep_w.any():
            raise ValueError("no words survive filtering; relax min_doc_freq or filters")
        if not keep_w.all():  # else the cells are kept as they are, not copied
            kept = keep_w[indices]
            indptr = np.searchsorted(np.flatnonzero(kept), indptr)
            indices, data = (np.cumsum(keep_w, dtype=indices.dtype) - 1)[indices[kept]], data[kept]
        vocab = Vocabulary(tuple(w for w, k in zip(index, keep_w) if k), bin_edges)
    else:
        vocab = vocabulary

    keep_p = _column_sums(data, indptr) >= 2
    if not keep_p.all():
        dropped = [p for p, k in zip(pids, keep_p) if not k]
        log.warning(
            "dropping %d patient(s) with fewer than 2 retained tokens: %s",
            len(dropped), ", ".join(dropped[:20]) + ("..." if len(dropped) > 20 else ""),
        )
        if not keep_p.any():
            raise ValueError("no patients remain with at least 2 retained tokens")
        kept = np.repeat(keep_p, np.diff(indptr))
        indices, data = indices[kept], data[kept]
        indptr = np.concatenate(([0], np.cumsum(np.diff(indptr)[keep_p])))
    final_pids = tuple(pids[i] for i in np.flatnonzero(keep_p).tolist())
    y = np.array([float(labels[p][0]) for p in final_pids])
    r = np.array([bool(labels[p][1]) for p in final_pids])
    return Corpus((data, indices, indptr), vocab, SurvivalLabels(y, r), final_pids)


def _column_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The sum of each column's entries of CSC arrays."""
    total = np.zeros(data.size + 1, data.dtype)
    np.cumsum(data, out=total[1:])
    return np.diff(total[indptr])


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
    its patient's document length (a new array, which callers may scale in
    place)."""
    entries = np.repeat(_inverse_lengths(corpus), np.diff(corpus.indptr))
    entries *= corpus.data
    return entries


def design_is_dense(corpus: Corpus) -> bool:
    """Whether ``normalize_columns`` stores Xbar dense: when its d x n
    doubles take at most twice the bytes of the CSC values and word indices
    (with int32 word ids, a corpus at least a third dense). There a BLAS
    mat-vec is no slower than scipy's CSC one, and no scipy is loaded."""
    return 8 * corpus.n_words * corpus.n_docs <= 2 * (8 + corpus.indices.itemsize) * corpus.data.size


def normalize_columns(corpus: Corpus):
    """Column-stochastic count matrix Xbar, counts[w, i] / m_i: a dense d x n
    array where ``design_is_dense(corpus)``, otherwise a canonical
    ``scipy.sparse.csc_array``. Both support ``@``, ``.T`` and
    elementwise ``** 2`` alike, so the fits run one code path on either."""
    entries = _normalized_entries(corpus)
    shape = (corpus.n_words, corpus.n_docs)
    if design_is_dense(corpus):
        Xbar = np.zeros(shape)
        Xbar[corpus.indices, np.repeat(np.arange(shape[1]), np.diff(corpus.indptr))] = entries
        return Xbar
    from scipy import sparse

    return sparse.csc_array((entries, corpus.indices, corpus.indptr), shape=shape)


def mean_word_score(corpus: Corpus, u) -> np.ndarray:
    """Each patient's mean of the per-word score ``u`` over its tokens, Xbar^T u
    for Xbar = ``normalize_columns(corpus)``, from the CSC arrays in O(nnz)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (corpus.n_words,):
        raise ValueError(f"per-word score of shape {u.shape} for {corpus.n_words} words")
    weights = _normalized_entries(corpus)
    weights *= u[corpus.indices]
    patient = np.repeat(np.arange(corpus.n_docs), np.diff(corpus.indptr))
    return np.bincount(patient, weights=weights, minlength=corpus.n_docs)


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
        **vocabulary_fields(corpus.vocab),
        "patient_ids": list(corpus.patient_ids),
        "times": corpus.labels.times.tolist(),
        "observed": corpus.labels.observed.astype(int).tolist(),
        **{k: _packed(getattr(corpus, k)) for k in _CSC_KEYS},
    }, path)


def vocabulary_fields(vocab: Vocabulary) -> dict:
    """A vocabulary as corpus and model files hold it."""
    return {"words": list(vocab.words),
            "bin_edges": {event: list(cuts) for event, cuts in vocab.bin_edges.items()}}


def read_vocabulary(payload: dict) -> Vocabulary:
    """The vocabulary that ``vocabulary_fields`` put in ``payload``, checked."""
    return Vocabulary(payload["words"], payload["bin_edges"])


def read_json(path, format: str, version: int, kind: str, command: str) -> dict:
    """Read a file written by ``write_json``, checking its format tag and
    that its version is the JSON integer ``version``, the one that the CLI
    command ``command`` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != format:
        raise ValueError(f"not a {kind} file: {path}")
    found = payload.get("version")
    if type(found) is not int or found != version:  # a bool or a float is refused
        raise ValueError(f"unsupported {kind} version {found}: {path}; "
                         f"`sawtopics {command}` writes version {version}")
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


_CORPUS_KEYS = {"words": list, "bin_edges": dict, "patient_ids": list, "times": list,
                "observed": list, **dict.fromkeys(_CSC_KEYS, dict)}


def _corpus_from(payload: dict) -> Corpus:
    for key, kind in _CORPUS_KEYS.items():
        if not isinstance(payload.get(key), kind):
            name = "object" if kind is dict else "array"
            raise ValueError(f"{key} is missing or not a JSON {name}")
    if not all(isinstance(x, str) for x in payload["patient_ids"]):
        raise ValueError("patient_ids must be a list of strings")
    times = flat_array(payload["times"], "times", "iuf", "numbers")
    observed = flat_array(payload["observed"], "observed", "bi", "0/1 flags")
    if not np.all((observed == 0) | (observed == 1)):
        raise ValueError("observed must be a list of 0/1 flags")
    counts = tuple(_unpacked(payload[k], k) for k in _CSC_KEYS)
    labels = SurvivalLabels(times.astype(float), observed.astype(bool))
    return Corpus(counts, read_vocabulary(payload), labels, tuple(payload["patient_ids"]))


def load_corpus(path) -> Corpus:
    """Read a version-3 corpus file. Another version is refused with a
    message naming ``ingest``, which writes version 3, and a malformed file
    raises ValueError naming the file."""
    payload = read_json(path, CORPUS_FORMAT, CORPUS_VERSION, "corpus", "ingest")
    try:
        return _corpus_from(payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad corpus file {path}: {exc}") from exc
