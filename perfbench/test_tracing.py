"""Tests of the benchmark's span recorder and its in-process runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    rec = tracing.Recorder()
    outer = rec.enter("a.outer")      # 0.0
    inner = rec.enter("b.inner")      # 1.0
    rec.exit(inner, False)            # 3.0
    inner = rec.enter("b.inner")      # 4.0
    rec.exit(inner, True)             # 4.5
    rec.exit(outer, False)            # 10.0
    s = rec.summary()
    assert s["a.outer"] == {"calls": 1, "failed": 0, "self_s": 7.5, "total_s": 10.0}
    assert s["b.inner"] == {"calls": 2, "failed": 1, "self_s": 2.5, "total_s": 2.5}
    assert rec.parents == [-1, 0, 0]


def test_traced_run_writes_the_same_bytes(tmp_path):
    commands = [
        ["synth", "--d", "20", "--k", "3", "--n", "150", "--doc-length", "60",
         "--beta", "2,-2,0", "--seed", "3", "--out", "corpus.json"],
        ["train", "--corpus", "corpus.json", "--k", "3", "--seed", "3", "--out", "model.json"],
        ["predict", "--model", "model.json", "--corpus", "corpus.json", "--out", "preds.csv"],
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    for mode in ("plain", "traced"):
        (tmp_path / mode).mkdir()
        args = [str(tmp_path / "commands.json"), str(tmp_path / f"{mode}.json")]
        if mode == "traced":
            args.append(str(tmp_path / "spans.json"))
        subprocess.run([sys.executable, str(HERE / "inprocess.py"), *args],
                       cwd=tmp_path / mode, env=env, check=True, capture_output=True)
        result = json.loads((tmp_path / f"{mode}.json").read_text())
        assert [c["rc"] for c in result["commands"]] == [0, 0, 0]
    for name in ("corpus.json", "model.json", "preds.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    summary = json.loads((tmp_path / "spans.json").read_text())["summary"]
    assert summary["cli.train"]["calls"] == 1
    assert summary["saw.fit_saw"]["calls"] == 1
    # update_theta is called from inside saw.py through the module global
    assert summary["saw.update_theta"]["calls"] >= 1
    assert summary["topics.recover_topics_unsupervised"]["failed"] == 0
