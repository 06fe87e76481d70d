import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sawtopics
from sawtopics.cli import main, read_config
from sawtopics.corpus import load_corpus
from sawtopics.methods import load_model


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
        assert model.topic_model.theta.shape == (25, 3)
        assert model.cox.baseline is not None

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


def test_cli_import_skips_scipy_optimize():
    # only synthesis needs scipy.optimize; every other command must not pay
    # for loading it
    src = str(Path(sawtopics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, sawtopics.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
