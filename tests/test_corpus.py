import base64
import dataclasses
import json
import math
import multiprocessing
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import sparse

from sawtopics import corpus as corpus_module
from sawtopics.corpus import (Corpus, EventParseError, IngestConfig, SurvivalLabels, Vocabulary,
                              _frequency_variance, build_corpus, design_is_dense, load_corpus,
                              load_events, normalize_columns, save_corpus, split, subset)

import helpers
from helpers import build_rows, label_lines, load_label_rows, load_rows, make_corpus


def ev(pid, time, event, value):
    return (pid, time, event, value)


def csv_lines(rows):
    """The event file lines of (patient_id, time, event, event_value) rows."""
    return [",".join(map(str, row)) for row in rows]


def rows_of(events):
    """The (patient_id, event, event_value) string rows of ``events``."""
    columns = (events.patients, events.names, events.values)
    return list(zip(*(c.distinct[c.codes].tolist() for c in columns)))


def reference_rows(records, cutoff=None):
    """The (patient_id, event, event_value) rows of the row-at-a-time
    parse's records before ``cutoff``, and the number of rows cut."""
    kept = [(r.patient_id, r.event, r.event_value) for r in records
            if cutoff is None or r.time < cutoff]
    return kept, len(records) - len(kept)


def cut_exactly_at(lines, time):
    """Whether the rows of ``lines`` are all cut at ``time`` and all kept
    just above it: each row's time parses to ``time``."""
    cut, kept = load_rows(lines, time), load_rows(lines, np.nextafter(time, np.inf))
    return (len(cut), len(kept), kept.n_cut) == (0, cut.n_cut, 0)


class TestIngestEvents:
    def test_direct_field_mapping(self):
        recs = load_rows(["p1,0.5,hr,88"])
        assert rows_of(recs) == [("p1", "hr", "88")]
        assert cut_exactly_at(["p1,0.5,hr,88"], 0.5)

    def test_empty_input(self):
        assert rows_of(load_rows([])) == []

    def test_unparseable_time_is_an_error_with_row_number(self):
        with pytest.raises(EventParseError, match="row 1"):
            load_rows(["p1,abc,hr,88"])

    def test_header_row_skipped(self):
        recs = load_rows(["patient_id,time,event,event_value", "p1,1.0,hr,88"])
        assert rows_of(recs) == [("p1", "hr", "88")]

    def test_tab_delimited(self):
        recs = load_rows(["p1\t2\thr\t90"])
        assert cut_exactly_at(["p1\t2\thr\t90"], 2.0) and rows_of(recs) == [("p1", "hr", "90")]

    def test_wrong_field_count(self):
        with pytest.raises(EventParseError, match="row 2"):
            load_rows(["p1,1,hr,88", "p1,1,hr"])

    def test_negative_time_rejected(self):
        with pytest.raises(EventParseError):
            load_rows(["p1,-1,hr,88"])

    def test_bad_time_after_header_is_error(self):
        with pytest.raises(EventParseError, match="row 2"):
            load_rows(["patient_id,time,event,event_value", "p1,oops,hr,88"])


class TestBuildCorpus:
    def test_single_word_column(self):
        events = [ev("p1", 0.0, "hr", "88"), ev("p1", 1.0, "hr", "88")]
        c = build_rows(csv_lines(events), {"p1": (3.0, True)},
                         IngestConfig(bins=1, min_doc_freq=1))
        assert helpers.dense(c).tolist() == [[2]]
        assert c.doc_lengths.tolist() == [2]
        assert c.vocab.words == ("hr:bin1",)

    def test_min_doc_freq_removes_rare_word(self):
        # "rare" appears in 2 of 10 docs; floor is 3
        events = []
        labels = {}
        for i in range(10):
            pid = f"p{i}"
            labels[pid] = (1.0 + i, True)
            events += [ev(pid, 0, "common", "x"), ev(pid, 1, "common", "y")]
            if i < 2:
                events.append(ev(pid, 2, "rare", "z"))
        c = build_rows(csv_lines(events), labels, IngestConfig(min_doc_freq=3))
        assert "rare=z" not in c.vocab.words
        assert "common=x" in c.vocab.words

    def test_equal_frequency_bin_edge(self):
        # six values, two bins: edge is the median 3.5; the value 2 lands in bin 1
        events = [ev(f"p{i}", 0, "lab", str(v)) for i, v in enumerate([1, 2, 3, 4, 5, 6])]
        events += [ev(f"p{i}", 1, "pad", "x") for i in range(6)]
        labels = {f"p{i}": (1.0, True) for i in range(6)}
        c = build_rows(csv_lines(events), labels, IngestConfig(bins=2, min_doc_freq=1))
        assert c.vocab.bin_edges["lab"] == (3.5,)
        w = c.vocab.index["lab:bin1"]
        p1 = c.patient_ids.index("p1")  # the patient whose value was 2
        assert helpers.dense(c)[w, p1] == 1

    def test_tie_at_edge_goes_to_lower_bin(self):
        events = [ev(f"p{i}", 0, "lab", str(v)) for i, v in enumerate([1, 2, 3, 4])]
        events += [ev(f"p{i}", 1, "pad", "x") for i in range(4)]
        labels = {f"p{i}": (1.0, True) for i in range(4)}
        c = build_rows(csv_lines(events), labels, IngestConfig(bins=2, min_doc_freq=1))
        edge = c.vocab.bin_edges["lab"][0]
        assert edge == 2.5
        # add a record exactly at the edge via the same vocabulary
        c2 = build_rows(csv_lines(events + [ev("p0", 2, "lab", "2.5")]), labels,
                          IngestConfig(bins=2, min_doc_freq=1), vocabulary=c.vocab)
        w = c.vocab.index["lab:bin1"]
        p0 = c2.patient_ids.index("p0")
        assert helpers.dense(c2)[w, p0] == 2  # value 1 and value 2.5 both in the low bin

    def test_missing_label_lists_patients(self):
        events = [ev("p1", 0, "hr", "88"), ev("p1", 1, "hr", "90"),
                  ev("p2", 0, "hr", "88"), ev("p2", 1, "hr", "90")]
        with pytest.raises(ValueError, match="p2"):
            build_rows(csv_lines(events), {"p1": (1.0, True)}, IngestConfig(min_doc_freq=1))

    def test_many_unlabelled_patients_counted_and_ten_named(self):
        events = [ev(f"p{i:02d}", t, "hr", "88") for i in range(26) for t in (0, 1)]
        message = ("25 patient(s) with events but no label: "
                   + ", ".join(f"p{i:02d}" for i in range(1, 11)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_rows(csv_lines(events), {"p00": (1.0, True)}, IngestConfig(min_doc_freq=1))

    def test_zero_surviving_words(self):
        events = [ev("p1", 0, "hr", "88"), ev("p1", 1, "hr", "90")]
        with pytest.raises(ValueError, match="no words"):
            build_rows(csv_lines(events), {"p1": (1.0, True)}, IngestConfig(min_doc_freq=5))

    def test_short_documents_dropped(self, caplog):
        events = [ev("p1", 0, "hr", "88"), ev("p1", 1, "hr", "88"),
                  ev("p2", 0, "hr", "88")]  # p2 has a single token
        with caplog.at_level("WARNING"):
            c = build_rows(csv_lines(events), {"p1": (1.0, True), "p2": (1.0, True)},
                             IngestConfig(bins=1, min_doc_freq=1))
        assert c.patient_ids == ("p1",)
        assert "p2" in caplog.text

    def test_cutoff_drops_events_at_or_after(self):
        events = [ev("p1", 0, "hr", "88"), ev("p1", 1, "hr", "88"),
                  ev("p1", 5, "late", "x"), ev("p1", 6, "late", "x")]
        c = build_rows(csv_lines(events), {"p1": (1.0, True)},
                       IngestConfig(bins=1, min_doc_freq=1, cutoff=5.0))
        assert c.vocab.words == ("hr:bin1",)
        assert c.doc_lengths.tolist() == [2]

    def test_cutoff_drops_the_strings_only_cut_rows_hold(self):
        # build_corpus parses each distinct value once: a cut row's are not kept
        events = load_rows(["p1,1,hr,88", "p1,3,sex,f", "p2,1,hr,90", "p2,1.5,hr,91",
                            "p3,4,hr,95"], 2.0)
        assert [c.distinct.tolist() for c in (events.patients, events.names, events.values)] == \
            [["p1", "p2"], ["hr"], ["88", "90", "91"]]
        assert rows_of(events) == [("p1", "hr", "88"), ("p2", "hr", "90"), ("p2", "hr", "91")]
        assert events.n_cut == 2
        # a cut row is checked before it is dropped
        with pytest.raises(EventParseError, match="^row 2: empty event name$"):
            load_rows(["p1,1,hr,88", "p1,3,,f"], 2.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        events, labels = [], {}
        for i in range(12):
            pid = f"p{i}"
            labels[pid] = (float(i + 1), bool(i % 2))
            for _ in range(6):
                events.append(ev(pid, rng.uniform(0, 10), "lab", f"{rng.uniform(0, 100):.2f}"))
        a = build_rows(csv_lines(events), labels)
        b = build_rows(csv_lines(events), labels)
        assert a.vocab.words == b.vocab.words
        assert np.array_equal(helpers.dense(a), helpers.dense(b))
        assert np.array_equal(a.labels.times, b.labels.times)

    def test_every_retained_doc_has_length_at_least_2(self):
        rng = np.random.default_rng(1)
        events, labels = [], {}
        for i in range(30):
            pid = f"p{i}"
            labels[pid] = (float(i + 1), True)
            for _ in range(rng.integers(1, 5)):
                events.append(ev(pid, 0.0, f"e{rng.integers(0, 4)}", "v"))
        c = build_rows(csv_lines(events), labels, IngestConfig(min_doc_freq=1))
        assert (c.doc_lengths >= 2).all()
        assert np.array_equal(c.doc_lengths, helpers.dense(c).sum(axis=0))

    @pytest.mark.parametrize("bins", [0, -1, 2.5])
    def test_bin_count_refused_with_the_config(self, bins):
        # before any event is read, whether or not an event is numeric
        message = f"bins must be an integer >= 1, got {bins!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            IngestConfig(bins=bins)

    @pytest.mark.parametrize("name", ["cutoff", "min_variance"])
    def test_nan_bound_refused_with_the_config(self, name):
        # a NaN cutoff would cut every row, and a NaN floor drop every word
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
            IngestConfig(**{name: float("nan")})

    def test_words_spelled_alike_are_one_word(self):
        # event "a" with value "b=c" and event "a=b" with value "c" both spell "a=b=c"
        events = [ev(p, t, e, v) for p in ("p1", "p2") for t, e, v in ((0, "a", "b=c"),
                                                                       (1, "a=b", "c"))]
        labels = {"p1": (1.0, True), "p2": (2.0, False)}
        cfg = IngestConfig(min_doc_freq=1)
        c = build_rows(csv_lines(events), labels, cfg)
        assert c.vocab.words == ("a=b=c",)
        assert helpers.dense(c).tolist() == [[2, 2]]
        records = helpers.ingest_events(csv_lines(events))
        assert corpus_fields(c) == corpus_fields(helpers.build_corpus(records, labels, cfg))


PIDS = ("p1", "p2", "p3", "p4")
EVENT_NAMES = ("hr", "lab", "sex", "x y")
VALUES = ("1", "2.5", "-3", "1e2", "0", "7", "0.5", "a", "b", "nan", "inf", "-inf", "", "a,b")
TIMES = ("0", "0.5", "1", "2", "3.25", "1e1", "4.0")
HEADERS = ("patient_id,time,event,event_value", "id\tt\tev\tval", "pid,t,ev,1")
BAD_ROWS = ("p1,1,hr", "p1,1,hr,2,3", "p1,-1,hr,2", "p1,nan,hr,2", "p1,abc,hr,2",
            "p1,1,,2", "p1\t1\t \t2", "p1\tinf\thr\t2", "p1,-0,hr,2")
# one row in five padded; str.strip removes both pads, float() only " "
ROW_POOLS = ((",", "\t"), PIDS, TIMES, EVENT_NAMES, VALUES, ("",) * 8 + (" ", "\x1f"))
ROW_CODES = math.prod(len(pool) for pool in ROW_POOLS)
# hypothesis favours small integers; multiplying by SPREAD, coprime to
# ROW_CODES, maps the codes one to one and spreads small ones over every pool
SPREAD = 7919
assert math.gcd(SPREAD, ROW_CODES) == 1


def decode_row(code: int) -> list[str]:
    """One value from each of ROW_POOLS: the digits of ``code`` in their radices."""
    picks = []
    for pool in ROW_POOLS:
        code, i = divmod(code, len(pool))
        picks.append(pool[i])
    return picks


@hst.composite
def event_texts(draw):
    """Event file texts mixing comma and tab rows, with optional header,
    blank lines, padding, CRLF and at most one malformed row. Each row is
    one integer draw, decoded by ``decode_row``."""
    lines = []
    for _ in range(draw(hst.integers(0, 25))):
        code = draw(hst.integers(0, ROW_CODES - 1)) * SPREAD % ROW_CODES
        sep, *fields, pad = decode_row(code)
        if sep == ",":
            fields[3] = fields[3].replace(",", ";")
        lines.append(sep.join(pad + f + pad for f in fields))
    for _ in range(draw(hst.integers(0, 2))):
        lines.insert(draw(hst.integers(0, len(lines))), draw(hst.sampled_from(("", "  ", "\t"))))
    if draw(hst.booleans()):
        lines.insert(0, draw(hst.sampled_from(HEADERS)))
    if lines and draw(hst.integers(0, 5)) == 0:
        lines[draw(hst.integers(0, len(lines) - 1))] = draw(hst.sampled_from(BAD_ROWS))
    eol = draw(hst.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + draw(hst.sampled_from(("", eol)))


cutoffs = hst.none() | hst.sampled_from((0.5, 2.0, 5.0))
ingest_configs = hst.builds(
    IngestConfig, bins=hst.integers(1, 6), min_doc_freq=hst.integers(0, 2), cutoff=cutoffs,
    min_variance=hst.none() | hst.sampled_from((0.0, 0.01, 0.05)))
label_sets = hst.sampled_from(((),) * 14 + (("p4",), ("p1", "p3"))).map(
    lambda missing: {p: (float(i + 1), i % 2 == 0) for i, p in enumerate(PIDS) if p not in missing})


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def corpus_fields(c):
    if isinstance(c, tuple):
        return c
    counts = helpers.dense(c)
    return (c.vocab.words, dict(c.vocab.bin_edges), counts.dtype, counts.shape,
            counts.tolist(), c.labels.times.tolist(), c.labels.observed.tolist(), c.patient_ids)


class TestMatchesRowReference:
    """The columnar parser and builder against the row-at-a-time reference;
    the times the parser keeps none of are checked through the cut."""

    @given(event_texts(), cutoffs)
    @settings(max_examples=300, deadline=None)
    def test_ingest_events(self, text, cutoff):
        got = outcome(load_rows, text.split("\n"), cutoff)
        want = outcome(helpers.ingest_events, text.split("\n"))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (rows_of(got), got.n_cut) == reference_rows(want, cutoff)

    @given(event_texts(), event_texts(), label_sets, ingest_configs, ingest_configs)
    @settings(max_examples=300, deadline=None)
    def test_build_corpus(self, text, other_text, labels, cfg, other_cfg):
        try:
            records = helpers.ingest_events(text.split("\n"))
        except EventParseError:
            return
        want = outcome(helpers.build_corpus, records, labels, cfg)
        assert corpus_fields(outcome(build_rows, text.split("\n"), labels, cfg)) == \
            corpus_fields(want)
        # the prebuilt-vocabulary path, with the vocabulary of another text
        try:
            vocab = helpers.build_corpus(helpers.ingest_events(other_text.split("\n")),
                                         {p: (1.0, True) for p in PIDS}, other_cfg).vocab
        except ValueError:
            return
        want = outcome(helpers.build_corpus, records, labels, cfg, vocabulary=vocab)
        got = outcome(build_rows, text.split("\n"), labels, cfg, vocabulary=vocab)
        assert corpus_fields(got) == corpus_fields(want)


class TestEvents:
    def test_header_only_on_first_line(self):
        with pytest.raises(EventParseError, match="row 2: unparseable time 'time'"):
            load_rows(["", "patient_id,time,event,event_value", "p1,1,hr,88"])


def event_lines():
    """A header, then 30 comma and tab rows of 6 patients, with padding and
    blank rows."""
    rng = np.random.default_rng(3)
    lines = ["patient_id,time,event,event_value"]
    for i in range(6):
        for j in range(5):
            sep = "\t" if (i + j) % 3 == 0 else ","
            value = f"{rng.normal(80, 10):.1f}" if j % 2 else "abc"[j % 3]
            lines.append(sep.join([f" p{i}", f"{j}.5 ", ("hr", "sex")[j % 2], value]))
        lines.append("  ")
    return lines


def coded_fields(events):
    return [(c.distinct.tolist(), c.codes.tolist())
            for c in (events.patients, events.names, events.values)] + [events.n_cut]


def test_ingest_memory_per_row(tmp_path):
    """``build_corpus`` of a two-block file, in the style of the benchmark's
    event files, and of its label file traces under 45 bytes a row in this
    process: the coded columns take 5 (uint16 patients and values, uint8
    names, no times), the text is held a few blocks at a time, and the
    blocks drawn before the workers fork are not pickled to them."""
    rng = np.random.default_rng(11)
    n_rows, n_patients = 100_000, 1000
    patient = np.sort(np.concatenate([np.arange(n_patients).repeat(2),
                                      rng.integers(0, n_patients, n_rows - 2 * n_patients)]))
    kind, time = rng.integers(0, 40, n_rows), np.round(rng.uniform(0, 1000, n_rows), 2)
    value = np.round(rng.standard_normal(n_rows), 3)
    letter = np.array(list("abcde"))[rng.integers(0, 5, n_rows)]
    path = tmp_path / "events.csv"
    path.write_text("patient_id,time,event,event_value\n" + "".join(
        f"p{p:05d},{t!r},num{k:02d},{v!r}\n" if k < 20 else f"p{p:05d},{t!r},cat{k:02d},{c}\n"
        for p, t, k, v, c in zip(patient.tolist(), time.tolist(), kind.tolist(), value.tolist(),
                                 letter.tolist())))
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(label_lines({f"p{i:05d}": (float(i + 1), i % 3 > 0)
                                             for i in range(n_patients)})))
    tracemalloc.start()
    try:
        corpus = build_corpus(path, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.n_docs == n_patients
    assert peak / n_rows < 45


def test_file_rows_keep_narrow_codes_and_no_times(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("\n".join(event_lines()) + "\n")
    got = load_events(path)
    columns = (got.patients, got.names, got.values)
    assert [f.name for f in dataclasses.fields(got)] == ["patients", "names", "values", "n_cut"]
    assert [c.codes.dtype for c in columns] == [np.uint8] * 3
    assert (rows_of(got), got.n_cut) == reference_rows(helpers.ingest_events(event_lines()))
    # each column's values are sorted and distinct, and each is some row's
    for c in columns:
        assert c.distinct.tolist() == sorted(set(c.distinct.tolist()))
        assert np.unique(c.codes).tolist() == list(range(c.distinct.size))


@pytest.mark.parametrize("cutoff", [None, 0.6, 3.0, 100.0])
def test_cutoff_applied_as_a_file_is_parsed(monkeypatch, tmp_path, cutoff):
    # blocks of 6 rows (each read as 3 pieces of 2 lines) in 2 workers, cut
    # where they are parsed: the rows and the corpus are those of the
    # row-at-a-time reference, which cuts its rows in its builder
    path = tmp_path / "events.csv"
    path.write_text("\n".join(event_lines()) + "\n")
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    labels = TestBlocksAndWorkers.LABELS
    cfg = IngestConfig(bins=3, min_doc_freq=1, cutoff=cutoff)
    events, records = load_events(path, cutoff), helpers.ingest_events(event_lines())
    assert (rows_of(events), events.n_cut) == reference_rows(records, cutoff)
    assert corpus_fields(outcome(build_rows, event_lines(), labels, cfg)) == \
        corpus_fields(outcome(helpers.build_corpus, records, labels, cfg))


@pytest.mark.parametrize("bad", [1, 8, 21])
def test_file_rows_numbered_across_pieces_and_blocks(monkeypatch, tmp_path, bad):
    # blocks of 6 lines, each read as 3 pieces of 2: a malformed line keeps
    # its row number
    lines = event_lines()
    lines[bad] = "p1,1,hr"
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert outcome(load_events, path) == outcome(helpers.ingest_events, lines) == \
        (EventParseError, f"row {bad + 1}: expected 4 fields, got 3")


def test_rows_without_times_cut_only_at_their_cutoff(monkeypatch):
    # build_corpus passes cfg.cutoff to the one event read, where the rows
    # are cut, and cuts no row again
    cutoffs = []

    def spy(path, cutoff):
        cutoffs.append(cutoff)
        return load_events(path, cutoff)

    monkeypatch.setattr(corpus_module, "load_events", spy)
    labels = TestBlocksAndWorkers.LABELS
    cfg = dataclasses.replace(TestBlocksAndWorkers.CFG, cutoff=2.0)
    assert corpus_fields(build_rows(event_lines(), labels, cfg)) == \
        corpus_fields(helpers.build_corpus(helpers.ingest_events(event_lines()), labels, cfg))
    assert cutoffs == [2.0]
    with pytest.raises(ValueError, match="^no events remain after cutoff filtering$"):
        build_rows(event_lines(), labels, dataclasses.replace(cfg, cutoff=0.1))


def test_parse_stops_at_the_first_bad_block(monkeypatch, tmp_path):
    # a bad row in block 0 of 40 blocks of 4 rows, on 2 CPUs: the parse is
    # refused as block 0's result arrives, after at most 2 x CPUs + 1 calls
    calls = tmp_path / "calls"
    calls.mkdir()
    parse_block = corpus_module._parse_block

    def spy(block, start, *rest):
        (calls / str(start)).touch()
        return parse_block(block, start, *rest)

    lines = ["p1,1,hr,88"] * 160
    lines[1] = "p1,1,hr"
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(corpus_module, "_parse_block", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert outcome(load_events, path) == outcome(helpers.ingest_events, lines) == \
        (EventParseError, "row 2: expected 4 fields, got 3")
    assert 1 <= len(list(calls.iterdir())) <= 2 * 2 + 1
    assert multiprocessing.active_children() == []


class TestBlocksAndWorkers:
    """Rows parsed in blocks of a few rows, in one forked worker or several,
    give the columns and the corpus of one block parsed in this process."""

    LABELS = {f"p{i}": (float(i + 1), i % 2 == 0) for i in range(6)}
    CFG = IngestConfig(bins=3, min_doc_freq=1)

    def spied(self, monkeypatch, tmp_path, cpus, block_rows):
        """Parse in blocks of ``block_rows`` rows on ``cpus`` CPUs: the
        columns, and the pids of the processes that parsed a block."""
        pids = tmp_path / f"pids-{cpus}"
        pids.mkdir()
        parse_block = corpus_module._parse_block

        def spy(*args):
            (pids / str(os.getpid())).touch()
            return parse_block(*args)

        monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(corpus_module, "_parse_block", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        events = load_rows(event_lines())
        return events, {int(q.name) for q in pids.iterdir()}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_same_columns_and_corpus(self, monkeypatch, tmp_path, cpus):
        want = load_rows(event_lines()), build_rows(event_lines(), self.LABELS, self.CFG)
        got, workers = self.spied(monkeypatch, tmp_path, cpus, 4)
        assert os.getpid() not in workers and 1 <= len(workers) <= cpus
        assert coded_fields(got) == coded_fields(want[0])
        assert corpus_fields(build_rows(event_lines(), self.LABELS, self.CFG)) == \
            corpus_fields(want[1])

    def test_one_block_parsed_in_this_process(self, monkeypatch, tmp_path):
        _, workers = self.spied(monkeypatch, tmp_path, 4, len(event_lines()))
        assert workers == {os.getpid()}

    def test_earliest_malformed_row_raised(self, monkeypatch):
        # rows 7 and 17, in the second and fourth blocks of rows 2-5, 6-9, ...,
        # are malformed; both blocks are parsed
        lines = event_lines()
        lines[6], lines[16] = "p1,1,hr", "p3,-1,hr,2"
        monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        want = outcome(helpers.ingest_events, lines)
        assert want == (EventParseError, "row 7: expected 4 fields, got 3")
        assert outcome(load_rows, lines) == want
        del lines[6]
        assert outcome(load_rows, lines) == outcome(helpers.ingest_events, lines) == \
            (EventParseError, "row 16: time must be finite and >= 0, got '-1'")

    def test_no_worker_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 4)
        load_rows(event_lines())
        assert multiprocessing.active_children() == []
        with pytest.raises(EventParseError):
            load_rows(event_lines() + ["p1,x,hr,1"])
        assert multiprocessing.active_children() == []

    @given(event_texts(), hst.integers(1, 6), cutoffs)
    @settings(max_examples=25, deadline=None)
    def test_matches_row_reference(self, text, block_rows, cutoff):
        cfg = dataclasses.replace(self.CFG, cutoff=cutoff)
        with mock.patch.object(corpus_module, "_BLOCK_ROWS", block_rows):
            got = outcome(load_rows, text.split("\n"), cutoff)
            corpus = outcome(build_rows, text.split("\n"), self.LABELS, cfg)
        want = outcome(helpers.ingest_events, text.split("\n"))
        if isinstance(want, tuple):
            assert got == corpus == want
            return
        assert (rows_of(got), got.n_cut) == reference_rows(want, cutoff)
        assert corpus_fields(corpus) == \
            corpus_fields(outcome(helpers.build_corpus, want, self.LABELS, cfg))


class TestNormalizeColumns:
    def test_direct(self):
        X = normalize_columns(make_corpus([[2], [1]]))
        assert np.allclose(helpers.dense_view(X).ravel(), [2 / 3, 1 / 3])

    def test_single_support(self):
        X = normalize_columns(make_corpus([[5], [0], [0]]))
        assert helpers.dense_view(X).ravel().tolist() == [1.0, 0.0, 0.0]

    def test_uniform(self):
        X = normalize_columns(make_corpus([[1], [1], [1], [1]]))
        assert np.allclose(helpers.dense_view(X).ravel(), 0.25)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 5, size=(8, 20))
        counts[0] += 1
        counts[1] += 1
        X = normalize_columns(make_corpus(counts))
        sums = np.asarray(X.sum(axis=0)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-12
        arr = helpers.dense_view(X)
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    @pytest.mark.parametrize("zeros, dense", [(4, True), (5, False)])
    def test_layout_is_the_smaller_one(self, zeros, dense):
        # 12 words x 1 patient: dense takes 96 bytes, CSC 12 per stored count
        # with int32 word ids, so 8 counts (4 zeros) break even and 7 do not
        counts = np.arange(1, 13)[:, None]
        counts[:zeros] = 0
        corpus = make_corpus(counts)
        X = normalize_columns(corpus)
        assert corpus.indices.itemsize == 4 and design_is_dense(corpus) is dense
        assert isinstance(X, np.ndarray if dense else sparse.csc_array)
        np.testing.assert_allclose(helpers.dense_view(X)[:, 0], counts[:, 0] / counts.sum(),
                                   rtol=1e-15, atol=0)

    def test_zero_length_document_error(self):
        # such a column should have been dropped upstream; naming the
        # patient makes the contract violation traceable
        with pytest.raises(ValueError, match="p001"):
            normalize_columns(make_corpus([[2, 0], [1, 0]]))


class TestSplit:
    def _corpus(self, n):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 4, size=(5, n))
        return make_corpus(counts, times=rng.uniform(1, 10, n))

    def test_sizes(self):
        tr, te = split(self._corpus(100), 0.75, seed=0)
        assert (tr.n_docs, te.n_docs) == (75, 25)

    def test_rounding(self):
        tr, te = split(self._corpus(4), 0.75, seed=0)
        assert (tr.n_docs, te.n_docs) == (3, 1)

    def test_deterministic(self):
        a1, b1 = split(self._corpus(40), 0.6, seed=9)
        a2, b2 = split(self._corpus(40), 0.6, seed=9)
        assert a1.patient_ids == a2.patient_ids and b1.patient_ids == b2.patient_ids

    def test_partition(self):
        c = self._corpus(33)
        tr, te = split(c, 0.7, seed=5)
        assert set(tr.patient_ids) | set(te.patient_ids) == set(c.patient_ids)
        assert set(tr.patient_ids) & set(te.patient_ids) == set()

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(self._corpus(1), 0.75, seed=0)

    def test_shared_vocabulary(self):
        tr, te = split(self._corpus(10), 0.5, seed=1)
        assert tr.vocab.words == te.vocab.words


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 4, size=(6, 9))
        counts[0] += 2
        c = make_corpus(counts, times=rng.uniform(1, 5, 9),
                        observed=rng.integers(0, 2, 9).astype(bool))
        path = tmp_path / "c.json"
        save_corpus(c, path)
        c2 = load_corpus(path)
        assert c2.vocab.words == c.vocab.words
        assert np.array_equal(helpers.dense(c2), helpers.dense(c))
        assert np.array_equal(c2.labels.times, c.labels.times)
        assert np.array_equal(c2.labels.observed, c.labels.observed)
        assert c2.patient_ids == c.patient_ids

    def test_resave_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [ev(f"p{i}", float(t), "lab", f"{rng.uniform(0, 100):.3f}")
                for i in range(12) for t in range(3)]
        rows += [ev(f"p{i}", 4.0, "sex", "fm"[i % 2]) for i in range(12)]
        labels = {f"p{i}": (float(i + 1), bool(i % 3)) for i in range(12)}
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for c in (build_rows(csv_lines(rows), labels, IngestConfig(bins=3, min_doc_freq=1)),
                  make_corpus(np.random.default_rng(5).integers(0, 4, size=(6, 9)) + 1,
                              times=np.linspace(0.5, 9.5, 9))):
            save_corpus(c, first)
            save_corpus(load_corpus(first), second)
            assert second.read_bytes() == first.read_bytes()

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a corpus"):
            load_corpus(path)

    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_rejects_json_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a corpus"):
            load_corpus(path)


@hst.composite
def small_corpora(draw):
    """Corpora of up to 5 words x 6 patients, mostly zero counts (nnz = 0
    and empty patient columns included), odd ids and optional bin edges."""
    d, n = draw(hst.integers(0, 5)), draw(hst.integers(0, 6))
    cells = draw(hst.lists(hst.sampled_from((0, 0, 0, 1, 2, 40)), min_size=d * n, max_size=d * n))
    counts = np.array(cells, dtype=np.int64).reshape(d, n)
    suffixes = hst.sampled_from(("", "=a,b", ":bin1", "\u00e9\"q"))
    words = tuple(f"w{i}" + draw(suffixes) for i in range(d))
    edges = draw(hst.dictionaries(hst.sampled_from(("hr", "lab", "x y")),
                                  hst.lists(hst.floats(-1e3, 1e3), max_size=3).map(sorted)
                                  .map(tuple), max_size=2))
    times = draw(hst.lists(hst.floats(1e-3, 1e4), min_size=n, max_size=n))
    observed = draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    pids = tuple(f"p{i}" + draw(hst.sampled_from(("", ",x", "\t\u00fc"))) for i in range(n))
    labels = SurvivalLabels(np.array(times, dtype=float), np.array(observed, dtype=bool))
    return Corpus(helpers.csc_arrays(counts), Vocabulary(words, edges), labels, pids)


def stored_fields(c):
    """Everything a corpus file stores, with the count arrays' dtypes."""
    return ((c.n_words, c.n_docs), [(a.dtype, a.tolist()) for a in (c.indptr, c.indices, c.data)],
            c.vocab.words, dict(c.vocab.bin_edges), c.labels.times.tolist(),
            c.labels.observed.tolist(), c.patient_ids)


class TestVersions:
    """Version 3 (packed CSC arrays) is the one version read."""

    @given(small_corpora())
    @settings(max_examples=100, deadline=None)
    def test_files_keep_every_stored_field(self, tmp_path_factory, corpus):
        tmp = tmp_path_factory.mktemp("versions")
        path, again = tmp / "c.json", tmp / "again.json"
        save_corpus(corpus, path)
        assert json.loads(path.read_text())["version"] == 3
        loaded = load_corpus(path)
        assert stored_fields(loaded) == stored_fields(corpus)
        save_corpus(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "sawtopics-corpus", "version": 4}))
        with pytest.raises(ValueError, match="unsupported corpus version 4"):
            load_corpus(path)

    @pytest.mark.parametrize("version", [True, 3.0])
    def test_version_must_be_a_json_integer(self, tmp_path, version):
        # true == 1 and 3.0 == 3 in Python, but neither is a JSON integer
        path = tmp_path / "c.json"
        save_corpus(make_corpus([[1, 2], [3, 4]]), path)
        payload = dict(json.loads(path.read_text()), version=version)
        path.write_text(json.dumps(payload))
        message = helpers.version_refused("corpus", version, path, "ingest", 3)
        with pytest.raises(ValueError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize("version, counts", [
        (1, {"triplets": [[0, 0, 1], [2, 0, 3], [0, 2, 2], [1, 2, 1]]}),
        (2, {"indptr": [0, 2, 2, 4], "indices": [0, 2, 0, 1], "data": [1, 3, 2, 1]})])
    def test_old_versions_refused(self, tmp_path, version, counts):
        # version 1 held [word, patient, count] triplets, version 2 the CSC
        # arrays as JSON lists; `ingest` writes them again as version 3
        path = tmp_path / "c.json"
        payload = corpus_payload(version=version, indptr=None, indices=None, data=None)
        path.write_text(json.dumps({**payload, **counts}))
        message = helpers.version_refused("corpus", version, path, "ingest", 3)
        with pytest.raises(ValueError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize("largest, dtype", [
        (1, "<u1"), (255, "<u1"), (256, "<u2"), (2 ** 16 - 1, "<u2"), (2 ** 16, "<u4"),
        (2 ** 32 - 1, "<u4"), (2 ** 32, "<u8")])
    def test_packed_in_the_narrowest_unsigned_type(self, tmp_path, largest, dtype):
        path = tmp_path / "c.json"
        save_corpus(make_corpus([[largest, 1], [1, largest]]), path)
        data = json.loads(path.read_text())["data"]
        assert data["dtype"] == dtype
        raw = base64.b64decode(data["base64"])
        assert raw == np.array([largest, 1, 1, largest], dtype=dtype).tobytes()
        assert load_corpus(path).data.tolist() == [largest, 1, 1, largest]

    def test_loaded_arrays_are_owned_and_writable(self, tmp_path):
        path = tmp_path / "c.json"
        save_corpus(make_corpus([[1, 0, 2], [0, 0, 1], [3, 0, 0]]), path)
        c = load_corpus(path)
        for a, dtype in ((c.data, np.int64), (c.indices, np.int32), (c.indptr, np.int32)):
            assert a.dtype == dtype and a.base is None and a.flags.writeable


def packed(values, dtype="<u8"):
    """``values`` packed as a version-3 file packs a count array; a negative
    value is written as its two's complement."""
    raw = np.array(values, dtype=np.int64).astype(dtype).tobytes()
    return {"dtype": dtype, "base64": base64.b64encode(raw).decode()}


def corpus_payload(dtype=None, **changes):
    """A version-3 payload of 3 words x 3 patients (the middle one has no
    counts) with some fields replaced; a field set to None is dropped. Each
    count array given as a list of integers is packed in ``dtype``, or by
    default in the narrowest unsigned type that holds it, as ``save_corpus``
    packs it (a list with a negative value, which none holds, in <u8); a
    list of other values is left a JSON list."""
    payload = {"format": "sawtopics-corpus", "version": 3, "words": ["a", "b", "c"],
               "bin_edges": {}, "patient_ids": ["p1", "p2", "p3"], "times": [1.0, 2.0, 3.0],
               "observed": [1, 0, 1], "indptr": [0, 2, 2, 4], "indices": [0, 2, 0, 1],
               "data": [1, 3, 2, 1]}
    payload.update(changes)
    for key in ("indptr", "indices", "data"):
        values = payload[key]
        if isinstance(values, list) and all(type(v) is int for v in values):
            narrowest = next((t for t in ("<u1", "<u2", "<u4") if min(values, default=0) >= 0
                              and max(values, default=0) <= np.iinfo(t).max), "<u8")
            payload[key] = packed(values, dtype or narrowest)
    return {k: v for k, v in payload.items() if v is not None}


MALFORMED = {
    "missing key": (dict(indices=None), "indices is missing"),
    "words not a list": (dict(words="abc"), "words is missing or not a JSON array"),
    "bin_edges not an object": (dict(bin_edges=[]), "bin_edges is missing or not a JSON object"),
    "bin edge not a list": (dict(bin_edges={"a": 1.5}), r"bin_edges\['a'\] must be a list"),
    "bin edges strings": (dict(bin_edges={"a": ["1.5"]}), r"bin_edges\['a'\] must be a list"),
    # such edges bin values wrongly when a model's vocabulary is applied to new patients
    "bin edges decrease": (dict(bin_edges={"hr": [9.0, 1.0]}),
                           "bin edges of 'hr' must be finite and non-decreasing"),
    "bin edge NaN": (dict(bin_edges={"hr": [float("nan"), 5.0]}),
                     "bin edges of 'hr' must be finite and non-decreasing"),
    "indptr too short": (dict(indptr=[0, 2, 4]), "indptr has 3 entries"),
    "indptr too long": (dict(indptr=[0, 2, 2, 4, 4]), "indptr has 5 entries"),
    "indptr not from 0": (dict(indptr=[1, 2, 2, 4]), "indptr must rise"),
    "indptr decreases": (dict(indptr=[0, 3, 2, 4]), "indptr must rise"),
    "indptr end past nnz": (dict(indptr=[0, 2, 2, 5]), "indptr must rise"),
    "indptr end before nnz": (dict(indptr=[0, 2, 2, 3]), "indptr must rise"),
    "data shorter than indices": (dict(data=[1, 3, 2]), "indices has 4 entries but data has 3"),
    "negative index": (dict(indices=[0, -1, 0, 1]), "outside"),
    "index past d": (dict(indices=[0, 3, 0, 1]), "outside"),
    "index repeats in a column": (dict(indices=[0, 0, 0, 1]), "increase strictly"),
    "indices out of order": (dict(indices=[0, 2, 1, 0]), "increase strictly"),
    # JSON lists, which no packed array holds
    "indices not integers": (dict(indices=[0, 2.0, 0, 1]), "indices is missing or not a JSON obj"),
    "indices nested": (dict(indices=[0, [2], 0, 1]), "indices is missing or not a JSON obj"),
    "negative count": (dict(data=[1, -3, 2, 1]), "nonnegative"),
    "index wraps as int32": (dict(indices=[0, 2 ** 32 + 2, 0, 1]), "outside"),
    "times length": (dict(times=[1.0, 2.0]), "aligned"),
    "observed length": (dict(observed=[1, 0, 1, 1]), "aligned"),
    "patient_ids length": (dict(patient_ids=["p1", "p2"]), "indptr has 4 entries"),
    "labels length": (dict(times=[1.0, 2.0], observed=[1, 0]), "labels length"),
    "repeated patient id": (dict(patient_ids=["p1", "p2", "p1"]), "duplicate patient id.*p1"),
}

# every entry of a field replaced by a value of the wrong type
BAD_TYPES = {
    "observed 2": ("observed", 2, "observed must be a list of 0/1 flags"),
    "observed 0.5": ("observed", 0.5, "observed must be a list of 0/1 flags"),
    "observed string": ("observed", "x", "observed must be a list of 0/1 flags"),
    "times strings": ("times", "1.0", "times must be a list of numbers"),
    "words integers": ("words", 7, "words must be a list of strings"),
    "patient_ids integers": ("patient_ids", 7, "patient_ids must be a list of strings"),
}


def wide_payload(**changes):
    """``corpus_payload(**changes)`` with each count array packed as <u8."""
    return corpus_payload("<u8", **changes)


# a version-3 count array that is not a packed array of unsigned integers
BAD_PACKED = {
    "unknown dtype": (dict(indices={"dtype": "<i4", "base64": "AAAAAA=="}), "indices has dtype"),
    "float dtype": (dict(data={"dtype": "<f8", "base64": "AAAAAAAAAAA="}), "data has dtype"),
    "big-endian": (dict(indptr={"dtype": ">u1", "base64": "AAIC"}), "indptr has dtype"),
    "not base64": (dict(indices={"dtype": "<u1", "base64": "AAI!AAE="}), "not valid base64"),
    "not ASCII": (dict(indices={"dtype": "<u1", "base64": "AAI\u00e9"}), "not valid base64"),
    "unpadded": (dict(indices={"dtype": "<u1", "base64": "AAIAAQ"}), "not valid base64"),
    "partial item": (dict(indices={"dtype": "<u4", "base64": "AAECAwQF"}),
                     "indices holds 6 bytes, not a whole number of 4-byte items"),
    "JSON list": (dict(indices=[0, 2, 0, 1]), "indices is missing or not a JSON object"),
    "no base64": (dict(data={"dtype": "<u1"}), "data must be an object of a dtype and a base64"),
    "extra key": (dict(data=dict(packed([1, 3, 2, 1]), shape=[4])), "data must be an object"),
    "base64 a number": (dict(data={"dtype": "<u1", "base64": 7}), "data must be an object"),
    "u8 wraps as int32": (dict(indices=packed([0, 2 ** 32 + 2, 0, 1])), "outside"),
}


class TestMalformedFiles:
    """A bad corpus file fails with a ValueError naming the file, never a
    KeyError, an IndexError or an error inside scipy."""

    def test_the_base_payload_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload()))
        c = load_corpus(path)
        assert helpers.dense(c).tolist() == [[1, 0, 2], [0, 0, 1], [3, 0, 0]]

    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejected_with_file_name(self, tmp_path, case):
        changes, message = MALFORMED[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload(**changes)))
        with pytest.raises(ValueError, match=re.escape(f"bad corpus file {path}: ")) as info:
            load_corpus(path)
        assert re.search(message, str(info.value))

    @pytest.mark.parametrize("case", MALFORMED)
    def test_v3_rejected_with_file_name(self, tmp_path, case):
        # the same cases with each count array packed in the widest type
        changes, message = MALFORMED[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(wide_payload(**changes)))
        with pytest.raises(ValueError, match=re.escape(f"bad corpus file {path}: ")) as info:
            load_corpus(path)
        assert re.search(message, str(info.value))

    @pytest.mark.parametrize("case", BAD_PACKED)
    def test_bad_packed_array_rejected_with_file_name(self, tmp_path, case):
        changes, message = BAD_PACKED[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**wide_payload(), **changes}))
        with pytest.raises(ValueError, match=re.escape(f"bad corpus file {path}: ")) as info:
            load_corpus(path)
        assert re.search(message, str(info.value))

    def test_tied_bin_edges_load(self, tmp_path):
        # tied quantiles give equal edges
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload(bin_edges={"hr": [1.0, 1.0, 5.0]})))
        assert load_corpus(path).vocab.bin_edges == {"hr": (1.0, 1.0, 5.0)}

    def test_the_base_v3_payload_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(wide_payload()))
        assert helpers.dense(load_corpus(path)).tolist() == [[1, 0, 2], [0, 0, 1], [3, 0, 0]]

    @pytest.mark.parametrize("case", ["negative count", "data shorter than indices",
                                      "indptr too short", "patient_ids length"])
    def test_refused_before_any_matrix_is_built(self, tmp_path, monkeypatch, case):
        def never(*args, **kwargs):
            pytest.fail("a malformed file reached scipy")

        for name in ("csc_matrix", "coo_matrix"):
            monkeypatch.setattr(sparse, name, never)
        changes, message = MALFORMED[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload(**changes)))
        with pytest.raises(ValueError, match=message):
            load_corpus(path)

    def test_counts_built_on_first_read(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload()))
        save_corpus(load_corpus(path), path)
        c = load_corpus(path)
        assert (c.n_words, c.n_docs, c.doc_lengths.tolist()) == (3, 3, [4, 0, 3])
        assert helpers.dense(c).tolist() == [[1, 0, 2], [0, 0, 1], [3, 0, 0]]

    @pytest.mark.parametrize("case", BAD_TYPES)
    def test_field_value_types_checked(self, tmp_path, case):
        key, bad, message = BAD_TYPES[case]
        path = tmp_path / "c.json"
        payload = corpus_payload()
        payload[key] = [bad] * len(payload[key])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"bad corpus file {path}: {message}")):
            load_corpus(path)


class TestLabelFile:
    def test_basic(self):
        lab = load_label_rows(["patient_id,Y,R", "p1,5.5,1", "p2,2,0"])
        assert lab == {"p1": (5.5, True), "p2": (2.0, False)}

    def test_bad_indicator(self):
        with pytest.raises(EventParseError):
            load_label_rows(["p1,5.5,2"])

    def test_blank_rows_skipped(self):
        assert load_label_rows(["patient_id,Y,R", "", "p1,5,1", "  \r\n", "p2,3,0"]) == {
            "p1": (5.0, True), "p2": (3.0, False)}

    @pytest.mark.parametrize("row, message", [
        ("p2,3", "expected 3 fields, got 2"),
        ("p2,3,0,1", "expected 3 fields, got 4"),
        ("p2,soon,0", "unparseable time 'soon'"),
        ("p2,0,1", "label time must be finite and > 0, got '0'"),
        ("p2,-2,1", "label time must be finite and > 0, got '-2'"),
        ("p2,inf,1", "label time must be finite and > 0, got 'inf'"),
        ("p2,nan,0", "label time must be finite and > 0, got 'nan'"),
    ])
    def test_bad_row_named(self, row, message):
        with pytest.raises(EventParseError) as err:
            load_label_rows(["patient_id,Y,R", "p1,5,1", "", row, "p3,4,1"])
        assert str(err.value) == f"row 4: {message}" and err.value.row == 4

    def test_repeated_patient_names_both_rows(self):
        with pytest.raises(EventParseError, match="row 4: duplicate patient id 'p1', "
                                                   "first labelled at row 2") as err:
            load_label_rows(["patient_id,Y,R", "p1,5,1", "p2,3,0", "p1,9,0"])
        assert err.value.row == 4


class TestTypes:
    def test_labels_positive(self):
        with pytest.raises(ValueError):
            SurvivalLabels(np.array([0.0]), np.array([True]))

    def test_vocab_unique(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"))

    def test_corpus_alignment(self):
        with pytest.raises(ValueError):
            Corpus(helpers.csc_arrays(np.ones((2, 3))), Vocabulary(("a", "b")),
                   SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)),
                   ("p1", "p2", "p3"))

    def test_subset(self):
        c = make_corpus([[2, 3, 4], [1, 1, 1]], times=[1., 2., 3.])
        s = subset(c, [2, 0])
        assert s.patient_ids == ("p002", "p000")
        assert s.labels.times.tolist() == [3.0, 1.0]

    @pytest.mark.parametrize("bad", [2.7, np.nan, np.inf, -0.5])
    @pytest.mark.parametrize("form", [np.asarray, sparse.csc_matrix])
    def test_non_integral_counts_refused(self, bad, form):
        # a count of 2.7 was kept as 2 in the saved file
        counts = np.array([[bad, 1.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match=f"^counts must be integers, got {bad}$"):
            Corpus(helpers.csc_arrays(form(counts)), Vocabulary(("a", "b")),
                   SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)), ("p1", "p2"))

    @pytest.mark.parametrize("form", [np.asarray, sparse.csc_matrix])
    def test_only_csc_arrays_build_a_corpus(self, form):
        with pytest.raises(TypeError, match=r"^counts must be the tuple \(data, indices, indptr\)"):
            Corpus(form(np.array([[2, 0], [1, 3]])), Vocabulary(("a", "b")),
                   SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)), ("p1", "p2"))

    def test_repeated_patient_id_refused(self):
        with pytest.raises(ValueError, match=r"^duplicate patient id\(s\): p1$"):
            Corpus(helpers.csc_arrays(np.ones((2, 3))), Vocabulary(("a", "b")),
                   SurvivalLabels(np.ones(3), np.ones(3, dtype=bool)), ("p1", "p2", "p1"))

    @pytest.mark.parametrize("form", [np.asarray, sparse.csc_matrix, sparse.coo_matrix])
    def test_whole_counts_stored_as_int64(self, form):
        c = Corpus(helpers.csc_arrays(form(np.array([[2.0, 0.0], [1.0, 3.0]]))),
                   Vocabulary(("a", "b")),
                   SurvivalLabels(np.ones(2), np.ones(2, dtype=bool)), ("p1", "p2"))
        assert c.data.dtype == np.int64
        assert (c.data.tolist(), c.indices.tolist(), c.indptr.tolist()) == \
            ([2, 1, 3], [0, 1, 1], [0, 2, 3])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int32, np.int64])
    @pytest.mark.parametrize("indices, indptr, message", [
        ([0, 2, 1, 0], [0, 3, 3, 4], "word indices must increase strictly within each patient"),
        ([0, 2, 0, 1], [0, 2, 1, 4], "indptr must rise from 0 to 4"),
        ([0, 3, 0, 1], [0, 2, 2, 4], r"word index outside \[0, 3\)"),
    ], ids=["falls within a patient", "indptr falls", "index of d"])
    def test_narrow_arrays_checked_without_wrapping(self, dtype, indices, indptr, message):
        # an unsigned np.diff would wrap a fall into a large rise
        with pytest.raises(ValueError, match=f"^{message}$"):
            Corpus((np.ones(4, np.int64), np.array(indices, dtype), np.array(indptr, dtype)),
                   Vocabulary(("a", "b", "c")), SurvivalLabels(np.ones(3), np.ones(3, bool)),
                   ("p1", "p2", "p3"))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int32, np.int64])
    def test_narrow_arrays_accepted(self, dtype):
        c = Corpus((np.ones(4), np.array([0, 2, 0, 1], dtype), np.array([0, 2, 2, 4], dtype)),
                   Vocabulary(("a", "b", "c")), SurvivalLabels(np.ones(3), np.ones(3, bool)),
                   ("p1", "p2", "p3"))
        assert [a.dtype for a in (c.data, c.indices, c.indptr)] == [np.int64, np.int32, np.int32]
        assert helpers.dense(c).tolist() == [[1, 0, 1], [0, 0, 1], [1, 0, 0]]

    def test_canonical_arrays_checked_without_copies(self):
        # 1M nonzeros of 1000 patients: the checks trace under 4 bytes a nonzero
        nnz, n, d = 1_000_000, 1000, 2000
        indices = np.tile(np.arange(0, d, 2, dtype=np.int32), n)
        indptr = np.arange(0, nnz + 1, nnz // n, dtype=np.int32)
        data = np.ones(nnz, np.int64)
        vocab = Vocabulary(tuple(map(str, range(d))))
        labels = SurvivalLabels(np.ones(n), np.ones(n, bool))
        pids = tuple(map(str, range(n)))
        tracemalloc.start()
        try:
            c = Corpus((data, indices, indptr), vocab, labels, pids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.indices is indices and c.indptr is indptr and c.data is data
        assert peak / nnz < 4


@hst.composite
def corpora_with_an_empty_patient(draw):
    """A small corpus with at least one patient without counts, and a list
    of distinct patient positions (any order, negative ones and none at all
    included; -1 and n - 1 are one patient)."""
    corpus = draw(small_corpora())
    counts = np.hstack([helpers.dense(corpus), np.zeros((corpus.n_words, 1), dtype=np.int64)])
    counts = counts[:, draw(hst.permutations(range(counts.shape[1])))]
    n = counts.shape[1]
    c = make_corpus(counts, times=np.arange(1.0, n + 1),
                    observed=np.arange(n) % 2 == 0, words=corpus.vocab.words)
    picks = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.booleans()), max_size=8,
                           unique_by=lambda pick: pick[0]))
    return c, [p - n if negative else p for p, negative in picks]


class TestSubsetFromArrays:
    @given(corpora_with_an_empty_patient())
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_column_selection(self, case):
        corpus, idx = case
        got = subset(corpus, idx)
        matrix = sparse.csc_matrix((corpus.data, corpus.indices, corpus.indptr),
                                   shape=(corpus.n_words, corpus.n_docs))
        want = matrix[:, np.array(idx, dtype=int)]
        assert [a.tolist() for a in (got.indptr, got.indices, got.data)] == \
            [a.tolist() for a in (want.indptr, want.indices, want.data)]
        assert got.patient_ids == tuple(corpus.patient_ids[i] for i in idx)
        assert got.labels.times.tolist() == corpus.labels.times[idx].tolist()
        assert got.labels.observed.tolist() == corpus.labels.observed[idx].tolist()
        relabelled = corpus.with_labels(SurvivalLabels(corpus.labels.times + 1,
                                                       corpus.labels.observed))
        assert stored_fields(relabelled)[:3] == stored_fields(corpus)[:3]

    def test_repeated_patient_refused(self):
        # save_corpus wrote such a subset, and load_corpus refused the file
        c = make_corpus([[1, 2, 3, 4], [1, 1, 1, 1]])
        with pytest.raises(ValueError, match=r"^duplicate patient id\(s\): p000$"):
            subset(c, [0, 0, 3])
        with pytest.raises(ValueError, match=r"^duplicate patient id\(s\): p003$"):
            subset(c, [3, -1])

    def test_positions_out_of_range_refused(self):
        with pytest.raises(IndexError):
            subset(make_corpus([[1, 2], [3, 4]]), [2])


class TestFrequencyVariance:
    @given(small_corpora())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_sparse_product_formula(self, corpus):
        if corpus.n_docs == 0:
            return
        patient = np.repeat(np.arange(corpus.n_docs), np.diff(corpus.indptr))
        got = _frequency_variance(corpus.data, corpus.indices, patient, corpus.n_words,
                                  corpus.n_docs)
        counts = sparse.csc_matrix(helpers.dense(corpus))
        np.testing.assert_allclose(got, helpers.frequency_variance(counts),
                                   rtol=0, atol=1e-12)
