"""Command-line front end.

Subcommands: ingest, synth, train, predict, evaluate, cv, report, one row of
``_SCHEMAS`` each. Every command writes the fully resolved configuration
(defaults included) next to its primary output as sorted key=value lines;
rerunning with only ``--config <that file>`` reproduces the outputs byte for
byte. Flags override config-file values, which override defaults. All
randomness flows from the single --seed value, fanned out per stage by
seeding.derive_seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import evaluation, methods, synthgen
from .anchors import anchor_report
from .corpus import (IngestConfig, build_corpus, load_corpus, load_events,
                     load_labels, save_corpus)
from .saw import SawConfig, SawModel
from .seeding import derive_seed
from .topics import topic_report

METHODS = tuple(methods.METHODS)
CV_METHODS = tuple(m for m, entry in methods.METHODS.items() if entry.cv)


# argparse names a flag's parser in its errors: "invalid float_list value: 'x'"
def optional_float(s: str):
    return None if s == "" else float(s)


def optional_int(s: str):
    return None if s == "" else int(s)


def float_list(s: str):
    return tuple(float(x) for x in s.split(",") if x.strip() != "")


def int_list(s: str):
    return tuple(int(x) for x in s.split(",") if x.strip() != "")


# the parser of each config class field's annotation, a string under `from __future__ import annotations`
_FIELD_PARSERS = {"int": int, "float": float, "int | None": optional_int,
                  "float | None": optional_float}


def _settings(config_class) -> dict:
    """A config class's fields as options: the field's default, parsed by its type."""
    return {f.name: (f.default, _FIELD_PARSERS[f.type]) for f in fields(config_class)}


def _config(config_class, resolved: dict):
    return config_class(**{f.name: resolved[f.name] for f in fields(config_class)})


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _beside(out: Path) -> Path:
    return out.with_name(out.name + ".config")


def _format_value(v) -> str:
    if isinstance(v, (tuple, list)):
        return ",".join(map(_format_value, v))
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


def write_config(path: Path, values: dict) -> None:
    lines = [f"{k}={_format_value(v)}" for k, v in sorted(values.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path: Path) -> dict[str, str]:
    out = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    row = _SCHEMAS[command]
    resolved = {k: default for k, (default, _) in row.options.items()}
    if getattr(args, "config", None):
        for k, v in read_config(Path(args.config)).items():
            if k not in row.options:
                raise ValueError(f"unknown config key {k!r} for {command}")
            default, parse = row.options[k]
            if v == "" and default is not None:  # empty means unset only where unset is the default
                raise ValueError(f"config key {k!r} for {command} needs a value")
            resolved[k] = parse(v) if v != "" else None
            if k in row.choices and resolved[k] not in row.choices[k]:
                raise ValueError(f"config key {k!r} for {command} must be one of "
                                 f"{', '.join(row.choices[k])}, got {v!r}")
    for k in row.options:
        v = getattr(args, k, None)
        if v is not None:
            resolved[k] = v
    return resolved


_PREDICTIONS_HEADER = ["patient_id", "risk_score", "predicted_median_days", "saturated"]


def _write_predictions(path: Path, preds) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_PREDICTIONS_HEADER)
        for pid, r, m, s in zip(preds.patient_ids, preds.risk, preds.median, preds.saturated):
            out.writerow([pid, repr(float(r)), repr(float(m)), int(s)])


def _read_predictions(path: Path):
    """A predictions file's columns; errors name the file and the row,
    counted from 1 at the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _PREDICTIONS_HEADER:
        raise ValueError(f"not a predictions file: {path}")
    pids, risk, median, saturated = [], [], [], []
    for i, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(_PREDICTIONS_HEADER):
            raise ValueError(f"{path} row {i}: {len(row)} fields, expected 4")
        pid, r, m, s = row
        try:
            risk.append(float(r))
            median.append(float(m))
        except ValueError:
            raise ValueError(f"{path} row {i}: risk {r!r} or median {m!r} not a number") from None
        if s not in ("0", "1"):
            raise ValueError(f"{path} row {i}: saturated is {s!r}, expected 0 or 1")
        pids.append(pid)
        saturated.append(s == "1")
    return pids, np.array(risk), np.array(median), np.array(saturated, dtype=bool)


def _cmd_ingest(resolved: dict) -> tuple[Path, str]:
    cfg = _config(IngestConfig, resolved)
    # no name holds the event columns, so they are freed before the corpus is saved
    corpus = build_corpus(load_events(resolved["events"], cfg.cutoff),
                          load_labels(resolved["labels"]), cfg)
    out = Path(resolved["out"])
    save_corpus(corpus, out)
    return _beside(out), f"wrote corpus with {corpus.n_words} words x {corpus.n_docs} patients to {out}\n"


def _cmd_synth(resolved: dict) -> tuple[Path, str]:
    k, beta = resolved["k"], resolved["beta"]
    if beta is None:
        beta = tuple([3.0, -3.0] + [0.0] * (k - 2))[:k]
    if k >= 1 and len(beta) != k:  # synthgen refuses k < 1 by name
        raise ValueError(f"--beta needs {k} comma-separated values")
    corpus, truth = synthgen.generate_dataset(
        d=resolved["d"], k=k, n=resolved["n"], doc_length=resolved["doc_length"],
        dirichlet_concentration=resolved["a0"], anchor_mass=resolved["anchor_mass"],
        beta_true=np.array(beta), base_rate=resolved["base_rate"],
        censor_fraction=resolved["censor_fraction"],
        seed=derive_seed(resolved["seed"], "synth"),
    )
    out = Path(resolved["out"])
    save_corpus(corpus, out)
    resolved["beta"] = tuple(beta)
    if resolved["truth_out"]:
        synthgen.save_ground_truth(truth, Path(resolved["truth_out"]))
    return _beside(out), (f"wrote synthetic corpus ({corpus.n_words} words x {corpus.n_docs} docs)"
                          f" to {out}\n")


def _cmd_train(resolved: dict) -> tuple[Path, str]:
    corpus = load_corpus(resolved["corpus"])
    cfg = _config(SawConfig, {**resolved, "seed": derive_seed(resolved["seed"], "train")})
    model = methods.fit_method(corpus, resolved["method"], cfg)
    out = Path(resolved["out"])
    methods.save_model(model, out)
    return _beside(out), f"trained {resolved['method']} model on {corpus.n_docs} patients -> {out}\n"


def _cmd_predict(resolved: dict) -> tuple[Path, str]:
    model = methods.load_model(resolved["model"])
    corpus = load_corpus(resolved["corpus"])
    out = Path(resolved["out"])
    _write_predictions(out, methods.predict(model, corpus))
    return _beside(out), f"wrote predictions for {corpus.n_docs} patients to {out}\n"


def _cmd_evaluate(resolved: dict) -> tuple[Path, str]:
    if any(c in resolved["method"] for c in ',"\r\n'):  # metrics.csv writes it unquoted
        raise ValueError(f"--method {resolved['method']!r} may not hold a comma, quote, CR or LF")
    pids, risk, median, saturated = _read_predictions(Path(resolved["predictions"]))
    repeated = [p for p, c in Counter(pids).items() if c > 1]
    if repeated:
        raise ValueError("duplicate patient id in predictions: " + ", ".join(repeated[:10]))
    corpus = load_corpus(resolved["corpus"])
    by_id = {p: i for i, p in enumerate(corpus.patient_ids)}
    missing = [p for p in pids if p not in by_id]
    if missing:
        raise ValueError("predictions for unknown patients: " + ", ".join(missing[:10]))
    labels = corpus.labels.subset(np.array([by_id[p] for p in pids], dtype=int))
    m = evaluation.compute_metrics(median, risk, saturated, labels)
    out = Path(resolved["out"])
    text = evaluation.METRICS_HEADER + "\n" + evaluation.format_metrics(resolved["method"], m) + "\n"
    out.write_text(text, encoding="utf-8")
    return _beside(out), text


def _cmd_cv(resolved: dict) -> tuple[Path, str]:
    corpus = load_corpus(resolved["corpus"])
    grid = [(k, lam, a) for k in resolved["ks"] for lam in resolved["lams"]
            for a in resolved["alphas"]]
    result, model = evaluation.cross_validate(
        corpus, grid, folds=resolved["folds"], seed=derive_seed(resolved["seed"], "cv"),
        fitter=methods.METHODS[resolved["method"]].fit,
    )
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    methods.save_model(model, out_dir / "model.json")
    rows = ["k,lam,alpha," + ",".join(f"fold{f}_rmse" for f in range(resolved["folds"]))]
    for cell, scores in zip(result.grid, result.fold_scores):
        rows.append(",".join([str(cell[0]), repr(cell[1]), repr(cell[2])]
                             + [repr(float(s)) for s in scores]))
    rows.append(f"best,{result.best[0]},{repr(result.best[1])},{repr(result.best[2])}")
    (out_dir / "cv_result.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return out_dir / "cv.config", (f"best cell (k, lam, alpha) = {result.best}; "
                                   f"refit model -> {out_dir / 'model.json'}\n")


def _cmd_report(resolved: dict) -> tuple[Path, str]:
    model = methods.load_model(resolved["model"])
    if not isinstance(model, SawModel):
        raise ValueError("report requires a saw or usaw model")
    text = topic_report(model.topic_model, model.vocab.words,
                        top_n=resolved["top_n"], beta=model.cox.beta)
    text += "\n" + anchor_report(model.topic_model.anchors, model.vocab)
    out = Path(resolved["out"])
    out.write_text(text, encoding="utf-8")
    return _beside(out), text


class Command(NamedTuple):
    help: str
    options: dict  # {key: (default, parser)}; the parser reads flags and config values
    required: tuple  # keys that main refuses to leave unset
    handler: Callable[[dict], tuple[Path, str]]  # resolved -> (.config path, stdout text)
    choices: dict = {}  # {key: allowed values}, for flags and config files alike


_SCHEMAS = {
    "ingest": Command("build a corpus file from 4-column events + labels", {
        "events": (None, str), "labels": (None, str), "out": (None, str),
        **_settings(IngestConfig),
    }, ("events", "labels", "out"), _cmd_ingest),
    "synth": Command("generate a synthetic corpus with planted ground truth", {
        "d": (60, int), "k": (5, int), "n": (1000, int), "doc_length": (300, int),
        "a0": (0.1, float), "anchor_mass": (0.3, float),
        "beta": (None, float_list), "base_rate": (0.1, float),
        "censor_fraction": (0.2, float), "seed": (0, int),
        "out": (None, str), "truth_out": (None, str),
    }, ("out",), _cmd_synth),
    "train": Command(f"fit a model ({' | '.join(METHODS)}) on a corpus file", {
        "corpus": (None, str), "method": ("saw", str), "out": (None, str),
        **_settings(SawConfig),
    }, ("corpus", "out"), _cmd_train, {"method": METHODS}),
    "predict": Command("score a corpus with a trained model", {
        "model": (None, str), "corpus": (None, str), "out": (None, str),
    }, ("model", "corpus", "out"), _cmd_predict),
    "evaluate": Command("compute rmse/mae/c-index from a predictions file", {
        "predictions": (None, str), "corpus": (None, str), "out": (None, str),
        "method": ("model", str),
    }, ("predictions", "corpus", "out"), _cmd_evaluate),
    "cv": Command("grid search (k, lam, alpha) by K-fold RMSE, then refit", {
        "corpus": (None, str), "out_dir": (None, str), "ks": ((2, 5, 8), int_list),
        "lams": ((0.01, 0.1, 1.0, 10.0), float_list), "alphas": ((0.5, 1.0), float_list),
        "folds": (3, int), "seed": (0, int), "method": ("saw", str),
    }, ("corpus", "out_dir"), _cmd_cv, {"method": CV_METHODS}),
    "report": Command("write the topic/anchor report for a trained model", {
        "model": (None, str), "out": (None, str), "top_n": (10, int),
    }, ("model", "out"), _cmd_report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawtopics",
        description="Supervised anchor-word topic modeling for survival prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, row in _SCHEMAS.items():
        p = sub.add_parser(command, help=row.help)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, (_, parse) in row.options.items():
            p.add_argument(_flag(key), dest=key, type=parse, choices=row.choices.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    row = _SCHEMAS[args.command]
    try:
        resolved = _resolve(args.command, args)
        missing = [k for k in row.required if resolved[k] is None]
        if missing:
            raise ValueError("missing required option(s): " + ", ".join(map(_flag, missing)))
        config, text = row.handler(resolved)
        write_config(config, resolved)
        print(text, end="")
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
