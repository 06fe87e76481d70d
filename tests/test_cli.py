import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sawtopics
from sawtopics import corpus as corpus_module
from sawtopics.cli import (_SCHEMAS, _resolve, build_parser, float_list, int_list, main,
                           optional_float, optional_int, read_config, write_config)
from sawtopics.corpus import IngestConfig, design_is_dense, load_corpus, save_corpus
from sawtopics.methods import load_model
from sawtopics.saw import SawConfig

import helpers


def run(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "corpus.json"
    rc = run("synth", "--d", "25", "--k", "3", "--n", "150", "--doc-length", "60",
             "--beta", "3,-3,0", "--seed", "5", "--out", str(path),
             "--truth-out", str(d / "truth.json"))
    assert rc == 0
    return path


class TestSynth:
    def test_writes_corpus_and_truth(self, synth_corpus):
        corpus = load_corpus(synth_corpus)
        assert corpus.n_words == 25 and corpus.n_docs == 150
        truth = json.loads((synth_corpus.parent / "truth.json").read_text())
        assert len(truth["anchor_indices"]) == 3

    def test_resolved_config_written(self, synth_corpus):
        cfg = read_config(synth_corpus.parent / "corpus.json.config")
        assert cfg["seed"] == "5"
        assert cfg["a0"] == "0.1"  # default is recorded too


class TestTrainPredictEvaluate:
    @pytest.mark.parametrize("method", ["saw", "usaw", "encox", "km"])
    def test_pipeline_each_method(self, synth_corpus, tmp_path, method):
        model = tmp_path / f"{method}.json"
        preds = tmp_path / f"{method}_preds.csv"
        metrics = tmp_path / f"{method}_metrics.csv"
        assert run("train", "--corpus", str(synth_corpus), "--method", method,
                   "--k", "3", "--lam", "0.1", "--seed", "3", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--corpus", str(synth_corpus),
                   "--out", str(preds)) == 0
        assert run("evaluate", "--predictions", str(preds), "--corpus", str(synth_corpus),
                   "--out", str(metrics), "--method", method) == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == "method,rmse,mae,c_index,n_evaluated,n_saturated"
        fields = lines[1].split(",")
        assert fields[0] == method
        assert float(fields[1]) >= float(fields[2]) >= 0.0  # rmse >= mae
        if method == "km":
            assert fields[3] == "nan"
        else:
            assert 0.0 <= float(fields[3]) <= 1.0

    @pytest.mark.parametrize("method", ["saw", "usaw"])
    def test_over_specified_k_trains(self, tmp_path, method):
        # 3 planted topics, k = 4: recovery certifies every row
        corpus = tmp_path / "c.json"
        assert run("synth", "--d", "24", "--k", "3", "--n", "300", "--doc-length", "80",
                   "--beta", "3,-3,0", "--seed", "3", "--out", str(corpus)) == 0
        model = tmp_path / "m.json"
        assert run("train", "--corpus", str(corpus), "--method", method, "--k", "4",
                   "--seed", "3", "--out", str(model)) == 0
        assert load_model(model).theta.shape == (24, 4)

    def test_k_one_below_vocabulary_size_trains(self, tmp_path):
        corpus = tmp_path / "c.json"
        assert run("synth", "--d", "60", "--k", "5", "--n", "1000", "--doc-length", "300",
                   "--beta", "3,-3,0,3,-3", "--seed", "7", "--out", str(corpus)) == 0
        assert run("train", "--corpus", str(corpus), "--method", "saw", "--k", "59",
                   "--seed", "7", "--out", str(tmp_path / "m.json")) == 0

    def test_km_risk_is_nan_in_predictions(self, synth_corpus, tmp_path):
        model = tmp_path / "km.json"
        preds = tmp_path / "p.csv"
        run("train", "--corpus", str(synth_corpus), "--method", "km", "--out", str(model))
        run("predict", "--model", str(model), "--corpus", str(synth_corpus),
            "--out", str(preds))
        rows = preds.read_text().splitlines()[1:]
        assert all(r.split(",")[1] == "nan" for r in rows)
        medians = {r.split(",")[2] for r in rows}
        assert len(medians) == 1  # same median for everyone

    def test_byte_identical_reruns(self, synth_corpus, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--corpus", str(synth_corpus), "--method", "saw",
                "--k", "3", "--lam", "0.1", "--seed", "11"]
        assert run(*args, "--out", str(m1)) == 0
        assert run(*args, "--out", str(m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_rerun_from_config_reproduces_bytes(self, synth_corpus, tmp_path):
        m1 = tmp_path / "m1.json"
        run("train", "--corpus", str(synth_corpus), "--method", "usaw",
            "--k", "3", "--seed", "9", "--out", str(m1))
        m2 = tmp_path / "m2.json"
        assert run("train", "--config", str(m1) + ".config", "--out", str(m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_flags_override_config(self, synth_corpus, tmp_path):
        m1 = tmp_path / "m1.json"
        run("train", "--corpus", str(synth_corpus), "--method", "saw",
            "--k", "3", "--seed", "1", "--out", str(m1))
        m2 = tmp_path / "m2.json"
        run("train", "--config", str(m1) + ".config", "--seed", "2", "--out", str(m2))
        assert m1.read_bytes() != m2.read_bytes()

    def test_model_round_trip(self, synth_corpus, tmp_path):
        model_path = tmp_path / "m.json"
        run("train", "--corpus", str(synth_corpus), "--method", "saw",
            "--k", "3", "--seed", "4", "--out", str(model_path))
        model = load_model(model_path)
        assert model.method == "saw"
        assert model.theta.shape == (25, 3)
        assert model.cox.baseline is not None

    def test_zero_outer_iters_model_predicts(self, synth_corpus, tmp_path):
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        assert run("train", "--corpus", str(synth_corpus), "--method", "saw", "--k", "3",
                   "--seed", "4", "--max-outer-iters", "0", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--corpus", str(synth_corpus),
                   "--out", str(preds)) == 0
        assert run("evaluate", "--predictions", str(preds), "--corpus", str(synth_corpus),
                   "--out", str(tmp_path / "metrics.csv")) == 0

    def test_train_without_events_fails_with_diagnostic(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.json"
        run("synth", "--d", "10", "--k", "2", "--n", "30", "--doc-length", "20",
            "--censor-fraction", "0", "--seed", "1", "--out", str(corpus_path))
        payload = json.loads(corpus_path.read_text())
        payload["observed"] = [0] * len(payload["observed"])
        corpus_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        rc = run("train", "--corpus", str(corpus_path), "--method", "saw",
                 "--k", "2", "--out", str(tmp_path / "m.json"))
        assert rc != 0
        assert "event" in capsys.readouterr().err

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = run("train", "--corpus", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "m.json"))
        assert rc != 0
        assert "nope.json" in capsys.readouterr().err

    def test_duplicate_prediction_rows_rejected(self, synth_corpus, tmp_path, capsys):
        model, preds = tmp_path / "m.json", tmp_path / "p.csv"
        run("train", "--corpus", str(synth_corpus), "--method", "encox", "--out", str(model))
        run("predict", "--model", str(model), "--corpus", str(synth_corpus), "--out", str(preds))
        lines = preds.read_text().splitlines(keepends=True)
        preds.write_text("".join(lines + lines[1:31]))
        rc = run("evaluate", "--predictions", str(preds), "--corpus", str(synth_corpus),
                 "--out", str(tmp_path / "metrics.csv"))
        assert rc == 1
        assert "duplicate patient id in predictions: s000, s001," in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("row, why", [("s001,0.5,30.0", "3 fields, expected 4"),
                                          ("s001,abc,30.0,0", "not a number"),
                                          ("s001,0.5,abc,0", "not a number"),
                                          ("s001,0.5,30.0,2", "expected 0 or 1")])
    def test_malformed_prediction_row_named(self, synth_corpus, tmp_path, capsys, row, why):
        preds = tmp_path / "p.csv"
        preds.write_text("patient_id,risk_score,predicted_median_days,saturated\n"
                         f"s000,0.1,20.0,0\n{row}\n")
        rc = run("evaluate", "--predictions", str(preds), "--corpus", str(synth_corpus),
                 "--out", str(tmp_path / "metrics.csv"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{preds} row 3:" in err and why in err

    @pytest.mark.parametrize("label", ["saw,v2", 'saw"v2', "saw\rv2", "saw\nv2"])
    def test_evaluate_refuses_a_label_that_breaks_the_csv(self, synth_corpus, tmp_path, capsys,
                                                          label):
        preds = tmp_path / "p.csv"
        preds.write_text("patient_id,risk_score,predicted_median_days,saturated\n"
                         "s000,0.1,20.0,0\n")
        rc = run("evaluate", "--predictions", str(preds), "--corpus", str(synth_corpus),
                 "--method", label, "--out", str(tmp_path / "metrics.csv"))
        assert rc == 1
        assert "--method" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [preds]

    def test_old_files_refused_naming_the_command_that_rewrites_them(self, synth_corpus,
                                                                     tmp_path, capsys):
        # a version-2 corpus (CSC arrays as JSON lists), and a model whose
        # theta holds triplets, as files written before the current forms
        old = json.loads(synth_corpus.read_text())
        old.update(version=2, indptr=[0], indices=[], data=[])
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(old))
        model = tmp_path / "m.json"
        assert run("train", "--corpus", str(synth_corpus), "--method", "usaw", "--k", "3",
                   "--seed", "2", "--out", str(model)) == 0
        payload = json.loads(model.read_text())
        payload["theta"] = {"shape": [len(payload["words"]), 3], "triplets": [[0, 0, 1.0]]}
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("train", "--corpus", str(v2), "--method", "km",
                   "--out", str(tmp_path / "km.json")) == 1
        assert capsys.readouterr().err == (f"error: unsupported corpus version 2: {v2}; "
                                           "`sawtopics ingest` writes version 3\n")
        assert run("predict", "--model", str(model), "--corpus", str(synth_corpus),
                   "--out", str(tmp_path / "p.csv")) == 1
        assert capsys.readouterr().err == f"error: bad model file {model}: missing key 'dense'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "m.json.config", "v2.json"]


class TestReport:
    def test_report_lists_topics(self, synth_corpus, tmp_path):
        model = tmp_path / "m.json"
        report = tmp_path / "report.txt"
        run("train", "--corpus", str(synth_corpus), "--method", "saw",
            "--k", "3", "--seed", "2", "--out", str(model))
        assert run("report", "--model", str(model), "--out", str(report),
                   "--top-n", "4") == 0
        text = report.read_text()
        assert text.count("topic ") == 3
        assert "anchor=" in text and "beta=" in text

    def test_report_top_n(self, synth_corpus, tmp_path, capsys):
        # a negative count is refused; 0 prints the topic lines only
        model, report = tmp_path / "m.json", tmp_path / "report.txt"
        run("train", "--corpus", str(synth_corpus), "--method", "usaw",
            "--k", "3", "--seed", "2", "--out", str(model))
        assert run("report", "--model", str(model), "--out", str(report), "--top-n", "-1") == 1
        assert "top_n must be >= 0" in capsys.readouterr().err
        assert run("report", "--model", str(model), "--out", str(report), "--top-n", "0") == 0
        topics = report.read_text().split("\n\n")[0].splitlines()
        assert len(topics) == 3 and all(line.startswith("topic ") for line in topics)

    def test_report_rejects_km(self, synth_corpus, tmp_path, capsys):
        model = tmp_path / "km.json"
        run("train", "--corpus", str(synth_corpus), "--method", "km", "--out", str(model))
        rc = run("report", "--model", str(model), "--out", str(tmp_path / "r.txt"))
        assert rc != 0


class TestCv:
    def test_cv_writes_results_and_model(self, tmp_path):
        corpus_path = tmp_path / "c.json"
        run("synth", "--d", "15", "--k", "2", "--n", "90", "--doc-length", "40",
            "--beta", "3,-3", "--seed", "6", "--out", str(corpus_path))
        out = tmp_path / "cv"
        rc = run("cv", "--corpus", str(corpus_path), "--ks", "2",
                 "--lams", "0.1,1.0", "--alphas", "0.5", "--folds", "3",
                 "--seed", "6", "--out-dir", str(out))
        assert rc == 0
        assert (out / "model.json").exists()
        table = (out / "cv_result.csv").read_text().splitlines()
        assert table[0].startswith("k,lam,alpha,fold0_rmse")
        assert len(table) == 4  # header + 2 cells + best row
        assert table[-1].startswith("best,")
        assert (out / "cv.config").exists()

    @pytest.mark.parametrize("ks,lams,why", [
        ("2,2", "1", "grid cell (k, lam, alpha) = (2, 1.0, 0.5) appears more than once"),
        ("2", "1,0", "lam must be finite and > 0, got 0.0"),
    ])
    def test_bad_grid_refused_before_fitting(self, synth_corpus, tmp_path, capsys, ks, lams, why):
        out = tmp_path / "cv"
        rc = run("cv", "--corpus", str(synth_corpus), "--ks", ks, "--lams", lams,
                 "--alphas", "0.5", "--folds", "3", "--seed", "6", "--out-dir", str(out))
        assert rc == 1
        assert why in capsys.readouterr().err
        assert not out.exists()


class TestIngestCli:
    def test_ingest_from_files(self, tmp_path):
        events = tmp_path / "events.csv"
        labels = tmp_path / "labels.csv"
        lines = ["patient_id,time,event,event_value"]
        rng = np.random.default_rng(0)
        for i in range(8):
            for _ in range(4):
                lines.append(f"p{i},{rng.uniform(0, 5):.2f},hr,{rng.uniform(50, 100):.1f}")
        events.write_text("\n".join(lines) + "\n")
        labels.write_text("\n".join(
            ["patient_id,Y,R"] + [f"p{i},{i + 1}.0,1" for i in range(8)]) + "\n")
        out = tmp_path / "corpus.json"
        rc = run("ingest", "--events", str(events), "--labels", str(labels),
                 "--out", str(out), "--bins", "2", "--min-doc-freq", "2")
        assert rc == 0
        corpus = load_corpus(out)
        assert corpus.n_docs == 8
        assert all(w.startswith("hr:bin") for w in corpus.vocab.words)


    def test_bin_count_refused_before_the_events_are_read(self, tmp_path, capsys):
        rc = run("ingest", "--events", str(tmp_path / "absent.csv"), "--labels",
                 str(tmp_path / "absent_labels.csv"), "--out", str(tmp_path / "c.json"),
                 "--bins", "0")
        assert rc == 1
        assert capsys.readouterr().err == "error: bins must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("flag", ["--cutoff", "--min-variance"])
    def test_nan_bound_refused_before_the_events_are_read(self, tmp_path, capsys, flag):
        # a NaN cutoff failed only once the whole file was parsed
        rc = run("ingest", "--events", str(tmp_path / "absent.csv"), "--labels",
                 str(tmp_path / "absent_labels.csv"), "--out", str(tmp_path / "c.json"),
                 flag, "nan")
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be a number, got nan\n"

    @pytest.mark.parametrize("bom_on", ["events", "labels"])
    def test_utf8_bom_ignored(self, tmp_path, bom_on):
        # headerless files, so the byte order mark would start a patient id
        paths = {"events": tmp_path / "events.csv", "labels": tmp_path / "labels.csv"}
        texts = {"events": "".join(f"p{i},{t},hr,{50 + 7 * i + t}\n"
                                   for i in range(6) for t in range(4)),
                 "labels": "".join(f"p{i},{i + 1}.5,1\n" for i in range(6))}
        for name, path in paths.items():
            path.write_text(texts[name], encoding="utf-8-sig" if name == bom_on else "utf-8")
        assert paths[bom_on].read_bytes().startswith(b"\xef\xbb\xbfp0,")
        out = tmp_path / "corpus.json"
        rc = run("ingest", "--events", str(paths["events"]), "--labels", str(paths["labels"]),
                 "--out", str(out), "--bins", "2", "--min-doc-freq", "1")
        assert rc == 0
        assert load_corpus(out).patient_ids == tuple(f"p{i}" for i in range(6))

    EVENTS = "".join(f"p{i},{t},hr,{50 + 7 * i + t}\n" for i in range(6) for t in range(4))
    LABELS = "".join(f"p{i},{i + 1}.5,1\n" for i in range(6))

    def ingest_bytes(self, tmp_path, events: bytes, labels: bytes, *flags) -> int:
        paths = tmp_path / "events.csv", tmp_path / "labels.csv"
        for path, data in zip(paths, (events, labels)):
            path.write_bytes(data)
        return run("ingest", "--events", str(paths[0]), "--labels", str(paths[1]),
                   "--out", str(tmp_path / "corpus.json"), "--bins", "2", "--min-doc-freq", "1",
                   *flags)

    @pytest.mark.parametrize("block_rows, row", [(1 << 16, 3), (4, 11)])
    def test_byte_not_utf8_in_events_names_its_row(self, tmp_path, capsys, monkeypatch,
                                                   block_rows, row):
        # with blocks of 4 rows, row 11 is in the third block, parsed by a worker
        monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        lines = self.EVENTS.encode().split(b"\n")
        lines[row - 1] = lines[row - 1].replace(b"hr", b"h\xffr")
        assert self.ingest_bytes(tmp_path, b"\n".join(lines), self.LABELS.encode()) == 1
        assert capsys.readouterr().err == f"error: row {row}: not valid UTF-8\n"
        assert multiprocessing.active_children() == []

    def test_byte_not_utf8_in_labels_names_its_row(self, tmp_path, capsys):
        labels = self.LABELS.encode().replace(b"p3,", b"p3\xfe,")
        assert self.ingest_bytes(tmp_path, self.EVENTS.encode(), labels) == 1
        assert capsys.readouterr().err == "error: row 4: not valid UTF-8\n"

    @pytest.mark.parametrize("events", ["", "patient_id,time,event,event_value\n", "\n  \n\t\n"],
                             ids=["empty", "header-only", "blank-only"])
    def test_no_event_rows(self, tmp_path, capsys, events):
        assert self.ingest_bytes(tmp_path, events.encode(), self.LABELS.encode()) == 1
        assert capsys.readouterr().err == "error: no event rows\n"

    @pytest.mark.parametrize("labels, message", [
        (None, "file not found: {labels}"),
        (b"p0,1.5,1\np1,2.5\n", "row 2: expected 3 fields, got 2")], ids=["missing", "malformed"])
    def test_bad_label_file_refused_before_the_events_are_parsed(self, tmp_path, capsys,
                                                                 monkeypatch, labels, message):
        parsed = []
        parse_block = corpus_module._parse_block

        def spy(*args):
            parsed.append(args[1])
            return parse_block(*args)

        monkeypatch.setattr(corpus_module, "_parse_block", spy)
        events, label_file = tmp_path / "events.csv", tmp_path / "labels.csv"
        events.write_text(self.EVENTS)
        if labels is not None:
            label_file.write_bytes(labels)
        assert run("ingest", "--events", str(events), "--labels", str(label_file),
                   "--out", str(tmp_path / "corpus.json")) == 1
        assert capsys.readouterr().err == f"error: {message.format(labels=label_file)}\n"
        assert parsed == []

    @pytest.mark.parametrize("cutoff", [None, 3.0])
    def test_ingest_writes_the_library_corpus(self, tmp_path, cutoff):
        flags = () if cutoff is None else ("--cutoff", str(cutoff))
        assert self.ingest_bytes(tmp_path, self.EVENTS.encode(), self.LABELS.encode(),
                                 *flags) == 0
        cfg = IngestConfig(bins=2, min_doc_freq=1, cutoff=cutoff)
        save_corpus(corpus_module.build_corpus(tmp_path / "events.csv", tmp_path / "labels.csv",
                                               cfg), tmp_path / "library.json")
        assert (tmp_path / "corpus.json").read_bytes() == (tmp_path / "library.json").read_bytes()
        # each patient has rows at times 0-3, and the cutoff drops the last
        assert load_corpus(tmp_path / "corpus.json").doc_lengths.tolist() == \
            [4 if cutoff is None else 3] * 6

    def test_cutoff_that_drops_every_row(self, tmp_path, capsys):
        rc = self.ingest_bytes(tmp_path, self.EVENTS.encode(), self.LABELS.encode(),
                               "--cutoff", "0")
        assert rc == 1
        assert capsys.readouterr().err == "error: no events remain after cutoff filtering\n"

    def test_patient_ids_with_commas_and_quotes(self, tmp_path):
        # a tab-separated events file may hold any of these ids; the
        # predictions CSV must quote them so evaluate reads them back
        pids = ["p0", "p1", "p,2", 'p"3', "p4"]
        events, labels = tmp_path / "events.tsv", tmp_path / "labels.tsv"
        events.write_text("".join(f"{p}\t{t}\thr\t{50 + 7 * i + t}\n"
                                  for i, p in enumerate(pids) for t in range(4)))
        labels.write_text("".join(f"{p}\t{i + 1}.5\t1\n" for i, p in enumerate(pids)))
        corpus, model = tmp_path / "corpus.json", tmp_path / "model.json"
        preds, metrics = tmp_path / "preds.csv", tmp_path / "metrics.csv"
        assert run("ingest", "--events", str(events), "--labels", str(labels),
                   "--out", str(corpus), "--bins", "2", "--min-doc-freq", "1") == 0
        assert run("train", "--corpus", str(corpus), "--method", "km", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(preds)) == 0
        rows = preds.read_text().splitlines()
        assert '"p,2",nan,3.5,0' in rows and '"p""3",nan,3.5,0' in rows
        assert run("evaluate", "--predictions", str(preds), "--corpus", str(corpus),
                   "--method", "km", "--out", str(metrics)) == 0
        assert metrics.read_text().splitlines()[1].endswith(",nan,5,0")


def test_cli_import_skips_scipy_optimize():
    # only synthesis needs scipy.optimize; every other command must not pay
    # for loading it
    src = str(Path(sawtopics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, sawtopics.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def scipy_sparse_loaded(commands, prelude: str = "") -> list:
    """In one fresh process that first runs ``prelude``: whether
    ``scipy.sparse`` is loaded at start, then after each of ``commands``,
    with its exit code."""
    code = (prelude + "import json, sys\n"
            "from sawtopics.cli import main\n"
            "seen = ['scipy.sparse' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([main(argv), 'scipy.sparse' in sys.modules])\n"
            "print(json.dumps(seen))\n")
    src = str(Path(sawtopics.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_scoring_commands_skip_scipy_sparse(synth_corpus, tmp_path):
    # predict, evaluate and report build no matrix, so they must not pay for
    # loading scipy.sparse; nor does encox train, as this corpus is 77% dense
    # and so its design is a dense array
    models = {}
    for method in ("saw", "encox", "km"):
        models[method] = str(tmp_path / f"{method}.json")
        assert run("train", "--corpus", str(synth_corpus), "--method", method, "--k", "3",
                   "--seed", "3", "--out", models[method]) == 0
    corpus, preds = str(synth_corpus), str(tmp_path / "saw.csv")
    commands = [
        *(["predict", "--model", models[m], "--corpus", corpus,
           "--out", str(tmp_path / f"{m}.csv")] for m in ("saw", "encox", "km")),
        ["evaluate", "--predictions", preds, "--corpus", corpus,
         "--out", str(tmp_path / "metrics.csv")],
        ["report", "--model", models["saw"], "--out", str(tmp_path / "report.txt")],
        ["train", "--corpus", corpus, "--method", "encox", "--out", str(tmp_path / "m.json")],
    ]
    assert design_is_dense(load_corpus(synth_corpus))
    assert scipy_sparse_loaded(commands) == [False] + [[0, False]] * 6


def fold_recorder(path) -> str:
    """A prelude for ``scipy_sparse_loaded`` under which each cv fold fit
    appends to ``path`` whether ``scipy.sparse`` is loaded in its worker."""
    return ("import sys\n"
            "from sawtopics import evaluation\n"
            "fold = evaluation._fold_rmse\n"
            "def recorded(*args):\n"
            "    out = fold(*args)\n"
            f"    with open({str(path)!r}, 'a') as f:\n"
            "        f.write(str('scipy.sparse' in sys.modules) + '\\n')\n"
            "    return out\n"
            "evaluation._fold_rmse = recorded\n")


def saw_train_and_cv(corpus, tmp_path) -> list:
    return [["train", "--corpus", corpus, "--method", "saw", "--k", "3", "--seed", "3",
             "--out", str(tmp_path / "saw.json")],
            ["cv", "--corpus", corpus, "--ks", "2,3", "--lams", "0.1", "--alphas", "0.5",
             "--folds", "2", "--seed", "3", "--out-dir", str(tmp_path / "cv")]]


def test_scipy_sparse_loads_only_for_a_csc_design(synth_corpus, tmp_path):
    # saw train and cv on a dense corpus never load scipy, cv's fold fits
    # included; encox train on a corpus under a third dense (20 tokens
    # over 60 words) builds a CSC design and loads it
    sparse_corpus = tmp_path / "sparse.json"
    assert run("synth", "--d", "60", "--k", "3", "--n", "80", "--doc-length", "20",
               "--beta", "3,-3,0", "--seed", "5", "--out", str(sparse_corpus)) == 0
    assert not design_is_dense(load_corpus(sparse_corpus))
    fold_modules = tmp_path / "fold_modules.txt"
    commands = [*saw_train_and_cv(str(synth_corpus), tmp_path),
                ["train", "--corpus", str(sparse_corpus), "--method", "encox",
                 "--out", str(tmp_path / "encox.json")]]
    assert (scipy_sparse_loaded(commands, fold_recorder(fold_modules))
            == [False, [0, False], [0, False], [0, True]])
    assert fold_modules.read_text().split() == ["False"] * 4


def test_a_corpus_40_percent_dense_fits_without_scipy_sparse(tmp_path):
    # at least a third dense is a dense design, so saw train and cv, fold
    # fits included, load no scipy.sparse on a corpus 39% dense
    corpus = tmp_path / "corpus.json"
    assert run("synth", "--d", "30", "--k", "3", "--n", "80", "--doc-length", "20",
               "--beta", "3,-3,0", "--seed", "5", "--out", str(corpus)) == 0
    c = load_corpus(corpus)
    assert 0.35 <= c.data.size / (c.n_words * c.n_docs) <= 0.45 and design_is_dense(c)
    fold_modules = tmp_path / "fold_modules.txt"
    assert (scipy_sparse_loaded(saw_train_and_cv(str(corpus), tmp_path),
                                fold_recorder(fold_modules)) == [False, [0, False], [0, False]])
    assert fold_modules.read_text().split() == ["False"] * 4


def test_ingest_and_scoring_never_import_scipy(tmp_path):
    # ingest, predict and evaluate work from the corpus arrays; importing
    # scipy would cost each such process more than its corpus load
    rng = np.random.default_rng(4)
    events, labels = tmp_path / "events.csv", tmp_path / "labels.csv"
    events.write_text("".join(f"p{i},{t},{name},{rng.uniform(0, 9):.2f}\n" for i in range(40)
                              for t in range(3) for name in ("hr", "lab", "bp")))
    labels.write_text("".join(f"p{i},{rng.uniform(1, 90):.1f},{i % 3 != 0:d}\n"
                              for i in range(40)))
    ingest = ["ingest", "--events", str(events), "--labels", str(labels), "--bins", "3",
              "--min-variance", "0"]
    corpus, model = tmp_path / "corpus.json", tmp_path / "model.json"
    assert run(*ingest, "--out", str(corpus)) == 0
    assert run("train", "--corpus", str(corpus), "--method", "encox", "--lam", "0.1",
               "--out", str(model)) == 0
    again, preds = tmp_path / "again.json", tmp_path / "preds.csv"
    commands = [ingest + ["--out", str(again)],
                ["predict", "--model", str(model), "--corpus", str(again), "--out", str(preds)],
                ["evaluate", "--predictions", str(preds), "--corpus", str(again),
                 "--out", str(tmp_path / "metrics.csv")]]
    code = ("import json, sys\n"
            "from sawtopics.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n")
    src = str(Path(sawtopics.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], []]
    assert json.loads(again.read_text())["version"] == 3
    assert again.read_bytes() == corpus.read_bytes()


# option strings, dests and choices of every subcommand, as the CLI has
# always accepted them; --help is left out
SURFACE = {
    "ingest": {("--config", "config", None), ("--events", "events", None),
               ("--labels", "labels", None), ("--out", "out", None),
               ("--bins", "bins", None), ("--min-doc-freq", "min_doc_freq", None),
               ("--cutoff", "cutoff", None), ("--min-variance", "min_variance", None)},
    "synth": {("--config", "config", None), ("--d", "d", None), ("--k", "k", None),
              ("--n", "n", None), ("--doc-length", "doc_length", None),
              ("--a0", "a0", None), ("--anchor-mass", "anchor_mass", None),
              ("--beta", "beta", None), ("--base-rate", "base_rate", None),
              ("--censor-fraction", "censor_fraction", None), ("--seed", "seed", None),
              ("--out", "out", None), ("--truth-out", "truth_out", None)},
    "train": {("--config", "config", None), ("--corpus", "corpus", None),
              ("--method", "method", ("saw", "usaw", "encox", "km")),
              ("--out", "out", None), ("--k", "k", None), ("--lam", "lam", None),
              ("--alpha", "alpha", None), ("--seed", "seed", None),
              ("--outer-tol", "outer_tol", None),
              ("--max-outer-iters", "max_outer_iters", None),
              ("--anchor-runs", "anchor_runs", None),
              ("--projection-dim", "projection_dim", None)},
    "predict": {("--config", "config", None), ("--model", "model", None),
                ("--corpus", "corpus", None), ("--out", "out", None)},
    "evaluate": {("--config", "config", None), ("--predictions", "predictions", None),
                 ("--corpus", "corpus", None), ("--out", "out", None),
                 ("--method", "method", None)},
    "cv": {("--config", "config", None), ("--corpus", "corpus", None),
           ("--out-dir", "out_dir", None), ("--ks", "ks", None), ("--lams", "lams", None),
           ("--alphas", "alphas", None), ("--folds", "folds", None),
           ("--seed", "seed", None), ("--method", "method", ("saw", "usaw"))},
    "report": {("--config", "config", None), ("--model", "model", None),
               ("--out", "out", None), ("--top-n", "top_n", None)},
}


def _subparsers():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def test_cli_surface():
    _, subs = _subparsers()
    assert set(subs) == set(SURFACE)
    for command, sp in subs.items():
        got = set()
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (flag,) = action.option_strings
            got.add((flag, action.dest, None if action.choices is None else tuple(action.choices)))
        assert got == SURFACE[command], command


# one non-default argument per option parser
SAMPLES = {str: "x", int: "7", float: "0.25", optional_float: "2.5",
           optional_int: "3", float_list: "0.5,1.5", int_list: "1,2"}


@pytest.mark.parametrize("command", list(_SCHEMAS))
def test_config_round_trip(command, tmp_path):
    parser, subs = _subparsers()
    choices = {a.dest: a.choices for a in subs[command]._actions}
    argv = [command]
    for key, (default, parse) in _SCHEMAS[command][1].items():
        value = SAMPLES[parse]
        if choices.get(key):
            value = next(c for c in choices[key] if c != default)
        argv += ["--" + key.replace("_", "-"), value]
    resolved = _resolve(command, parser.parse_args(argv))
    for key, (default, _) in _SCHEMAS[command][1].items():
        assert resolved[key] != default, key
    path = tmp_path / "run.config"
    write_config(path, resolved)
    assert _resolve(command, parser.parse_args([command, "--config", str(path)])) == resolved


@pytest.mark.parametrize("command, key", [("train", "k"), ("train", "max_outer_iters"),
                                          ("cv", "ks")])
def test_empty_config_value_needs_none_default(command, key, synth_corpus, tmp_path, capsys):
    # an empty value unsets a key whose default is None, and is refused elsewhere
    path = tmp_path / "run.config"
    path.write_text(f"{key}=\n")
    out = ["--out-dir" if command == "cv" else "--out", str(tmp_path / "out")]
    assert run(command, "--config", str(path), "--corpus", str(synth_corpus), *out) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and command in err and "needs a value" in err
    path.write_text("projection_dim=\n")
    parser, _ = _subparsers()
    assert _resolve("train", parser.parse_args(["train", "--config", str(path)]))[
        "projection_dim"] is None


@pytest.mark.parametrize("argv", [["ingest", "--cutoff", "abc"],
                                  ["train", "--projection-dim", "x"]])
def test_bad_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[1] in err and repr(argv[2]) in err


@pytest.mark.parametrize("command, config_class", [("train", SawConfig),
                                                   ("ingest", IngestConfig)])
def test_option_defaults_match_config_class(command, config_class):
    # every config field is an option with the field's default; the other
    # options name files or the method
    schema = _SCHEMAS[command][1]
    for f in fields(config_class):
        assert schema[f.name][0] == f.default, f.name
    assert set(schema) - {f.name for f in fields(config_class)} <= {
        "corpus", "method", "out", "events", "labels"}


@pytest.mark.parametrize("method", ["saw", "encox"])
@pytest.mark.parametrize("option", ["--lam", "--outer-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_refuses_non_finite_settings(method, option, value, synth_corpus, tmp_path,
                                           capsys):
    assert run("train", "--corpus", str(synth_corpus), "--method", method, option, value,
               "--out", str(tmp_path / "m.json")) == 1
    key = option[2:].replace("-", "_")
    assert f"{key} must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


class TestRefusals:
    """Each refusal exits 1, prints its one message and writes no output."""

    def refused(self, capsys, tmp_path, *argv):
        before = set(tmp_path.iterdir())
        assert run(*argv) == 1
        assert set(tmp_path.iterdir()) == before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        return err[len("error: "):-1]

    @pytest.mark.parametrize("argv, missing", [
        (["ingest"], "--events, --labels, --out"),
        (["synth", "--k", "3"], "--out"),
        (["train", "--method", "km", "--k", "2"], "--corpus, --out"),
        (["predict", "--corpus", "c.json"], "--model, --out"),
        (["evaluate", "--out", "m.csv"], "--predictions, --corpus"),
        (["cv", "--corpus", "c.json"], "--out-dir"),
        (["report", "--out", "r.txt"], "--model"),
    ])
    def test_missing_required_option(self, capsys, tmp_path, argv, missing):
        assert self.refused(capsys, tmp_path, *argv) == f"missing required option(s): {missing}"

    def test_config_line_without_equals(self, capsys, tmp_path):
        config = tmp_path / "run.config"
        config.write_text("method=km\nk 3\n")
        assert self.refused(capsys, tmp_path, "train", "--config", str(config)) == (
            "bad config line (want key=value): 'k 3'")

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_unknown_config_key(self, capsys, tmp_path, command):
        config = tmp_path / "run.config"
        config.write_text("threads=1\n")
        assert self.refused(capsys, tmp_path, command, "--config", str(config)) == (
            f"unknown config key 'threads' for {command}")

    @pytest.mark.parametrize("command, out, choices", [
        ("train", "--out", "saw, usaw, encox, km"), ("cv", "--out-dir", "saw, usaw")])
    def test_config_method_outside_its_choices(self, synth_corpus, capsys, tmp_path, command,
                                               out, choices):
        # a config-file value meets the choices of its flag
        config = tmp_path / "run.config"
        config.write_text("method=xyz\n")
        assert self.refused(capsys, tmp_path, command, "--config", str(config),
                            "--corpus", str(synth_corpus), out, str(tmp_path / "out")) == (
            f"config key 'method' for {command} must be one of {choices}, got 'xyz'")

    def test_beta_of_the_wrong_length(self, capsys, tmp_path):
        assert self.refused(capsys, tmp_path, "synth", "--k", "3", "--beta", "1,2",
                            "--out", str(tmp_path / "c.json")) == (
            "--beta needs 3 comma-separated values")

    @pytest.mark.parametrize("argv, message", [
        (["--k", "0", "--beta", ""], "k must be >= 1, got 0"),
        (["--k", "-1"], "k must be >= 1, got -1"),
        (["--n", "0"], "n must be >= 1, got 0"),
    ])
    def test_synth_size_below_one(self, capsys, tmp_path, argv, message):
        assert self.refused(capsys, tmp_path, "synth", *argv,
                            "--out", str(tmp_path / "c.json")) == message

    def test_not_a_predictions_file(self, synth_corpus, capsys, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("patient_id,risk\ns000,0.1\n")
        assert self.refused(capsys, tmp_path, "evaluate", "--predictions", str(preds),
                            "--corpus", str(synth_corpus), "--out", str(tmp_path / "m.csv")) == (
            f"not a predictions file: {preds}")

    def test_predictions_for_unknown_patients(self, synth_corpus, capsys, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("patient_id,risk_score,predicted_median_days,saturated\n"
                         "s000,0.1,20.0,0\nzz1,0.2,30.0,0\nzz2,0.3,40.0,1\n")
        assert self.refused(capsys, tmp_path, "evaluate", "--predictions", str(preds),
                            "--corpus", str(synth_corpus), "--out", str(tmp_path / "m.csv")) == (
            "predictions for unknown patients: zz1, zz2")
