"""Training-method registry and model file I/O.

Four methods share one versioned model file format and one predictions
format: the joint fit (saw), the two-stage baseline (usaw), elastic-net Cox
directly on normalized word frequencies (encox), and Kaplan-Meier (km).
The km baseline predicts the same median for everyone and has no risk
ordering, so its risk scores are NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .anchors import AnchorSet
from .corpus import (Corpus, Vocabulary, mean_word_score, normalize_columns, read_json,
                     vocabulary_hash, write_json)
from .saw import (FitTrace, Predictions, SawConfig, SawModel, cox_predictions, fit_saw,
                  fit_usaw, predict)
from .survival import (BaselineHazard, CoxModel, SurvivalCurve, fit_elastic_net_cox,
                       kaplan_meier)
from .topics import TopicModel

MODEL_FORMAT = "sawtopics-model"
MODEL_VERSION = 1
# solver settings that saw/usaw files once carried in their config block;
# each solver now uses its own default, so reading ignores these keys
RETIRED_CONFIG_KEYS = ("theta_step", "theta_iters", "recover_tol", "recover_iters",
                       "beta_tol", "beta_iters")


@dataclass(frozen=True, eq=False)
class EncoxModel:
    """Elastic-net Cox on the column-normalized word counts themselves."""

    cox: CoxModel
    vocab: Vocabulary | None
    vocab_hash: str
    method: str = "encox"


@dataclass(frozen=True, eq=False)
class KmModel:
    curve: SurvivalCurve
    median: float
    saturated: bool
    vocab_hash: str
    method: str = "km"


def fit_encox(corpus: Corpus, lam: float, alpha: float) -> EncoxModel:
    cox = fit_elastic_net_cox(normalize_columns(corpus).T, corpus.labels, lam, alpha)
    return EncoxModel(cox, corpus.vocab, vocabulary_hash(corpus.vocab))


def fit_km(corpus: Corpus) -> KmModel:
    curve, median, saturated = kaplan_meier(corpus.labels)
    return KmModel(curve, median, saturated, vocabulary_hash(corpus.vocab))


def predict_encox(model: EncoxModel, corpus: Corpus) -> Predictions:
    if vocabulary_hash(corpus.vocab) != model.vocab_hash:
        raise ValueError("vocabulary mismatch between model and corpus")
    return cox_predictions(model.cox, mean_word_score(corpus, model.cox.beta),
                           corpus.patient_ids)


def predict_km(model: KmModel, corpus: Corpus) -> Predictions:
    n = corpus.n_docs
    return Predictions(
        corpus.patient_ids,
        np.full(n, np.nan),
        np.full(n, model.median),
        np.full(n, model.saturated, dtype=bool),
    )


def _encode_matrix(M: np.ndarray):
    M = np.asarray(M, dtype=float)
    nnz = int(np.count_nonzero(M))
    if nnz * 2 < M.size:  # sparse encoding once more than half the entries are zero
        rows, cols = np.nonzero(M)
        return {
            "shape": [int(M.shape[0]), int(M.shape[1])],
            "triplets": [[int(r), int(c), float(M[r, c])] for r, c in zip(rows, cols)],
        }
    return {"dense": [[float(x) for x in row] for row in M]}


def _decode_matrix(obj) -> np.ndarray:
    if "dense" in obj:
        return np.array(obj["dense"], dtype=float)
    M = np.zeros(obj["shape"])
    for r, c, v in obj["triplets"]:
        M[r, c] = v
    return M


def _write_cox(cox: CoxModel) -> dict:
    base = cox.baseline
    return {"beta": [float(x) for x in cox.beta],
            "baseline": None if base is None else {
                "times": [float(t) for t in base.times],
                "cum_hazard": [float(h) for h in base.cum_hazard]}}


def _read_cox(payload: dict, lam: float, alpha: float) -> CoxModel:
    base = payload["baseline"]
    if base is not None:
        base = BaselineHazard(np.array(base["times"], dtype=float),
                              np.array(base["cum_hazard"], dtype=float))
    return CoxModel(np.array(payload["beta"], dtype=float), base, lam, alpha)


def _read_words(payload: dict) -> Vocabulary | None:
    return None if payload["words"] is None else Vocabulary(tuple(payload["words"]))


def _write_saw(model: SawModel) -> dict:
    tm = model.topic_model
    return {
        "config": asdict(model.config),
        "words": None if model.vocab is None else list(model.vocab.words),
        "anchors": {
            "indices": list(tm.anchors.indices),
            "stability": {str(w): c for w, c in tm.anchors.stability.items()},
            "runs": tm.anchors.runs,
            "projection_dim": tm.anchors.projection_dim,
        },
        "theta": _encode_matrix(tm.theta),
        "A": _encode_matrix(tm.A),
        "residuals": [float(x) for x in tm.residuals],
        "trace": asdict(model.trace),
        **_write_cox(model.cox),
    }


def _read_saw(payload: dict) -> SawModel:
    cfg = SawConfig(**{k: v for k, v in payload["config"].items()
                       if k not in RETIRED_CONFIG_KEYS})
    anchors = AnchorSet(
        indices=tuple(payload["anchors"]["indices"]),
        stability={int(w): int(c) for w, c in payload["anchors"]["stability"].items()},
        runs=payload["anchors"]["runs"],
        projection_dim=payload["anchors"]["projection_dim"],
    )
    tm = TopicModel(
        theta=_decode_matrix(payload["theta"]),
        A=_decode_matrix(payload["A"]),
        anchors=anchors,
        residuals=np.array(payload["residuals"], dtype=float),
    )
    trace = FitTrace(tuple(payload["trace"]["objective_values"]),
                     payload["trace"]["converged"], payload["trace"]["iterations"])
    return SawModel(tm, _read_cox(payload, cfg.lam, cfg.alpha), cfg, trace,
                    _read_words(payload), payload["vocab_hash"], method=payload["method"])


def _write_encox(model: EncoxModel) -> dict:
    return {"words": None if model.vocab is None else list(model.vocab.words),
            "lam": model.cox.lam, "alpha": model.cox.alpha, **_write_cox(model.cox)}


def _read_encox(payload: dict) -> EncoxModel:
    cox = _read_cox(payload, payload["lam"], payload["alpha"])
    return EncoxModel(cox, _read_words(payload), payload["vocab_hash"])


def _write_km(model: KmModel) -> dict:
    return {"times": [float(t) for t in model.curve.times],
            "survival": [float(s) for s in model.curve.survival],
            "median": float(model.median), "saturated": bool(model.saturated)}


def _read_km(payload: dict) -> KmModel:
    curve = SurvivalCurve(np.array(payload["times"], dtype=float),
                          np.array(payload["survival"], dtype=float))
    return KmModel(curve, payload["median"], payload["saturated"], payload["vocab_hash"])


@dataclass(frozen=True)
class Method:
    """How one method fits and predicts, and writes and reads its fields of
    the model file. ``fit`` and ``predict`` look functions up as module
    globals at call time, so wrappers installed on module attributes after
    import (``perfbench/tracing.py``) see every call."""

    fit: Callable[[Corpus, SawConfig], object]
    predict: Callable[[object, Corpus], Predictions]
    write: Callable[[object], dict]
    read: Callable[[dict], object]
    cv: bool = False  # cross-validated over (k, lam, alpha) by ``cli cv``


METHODS: dict[str, Method] = {
    "saw": Method(lambda c, cfg: fit_saw(c, cfg), lambda m, c: predict(m, c),
                  _write_saw, _read_saw, cv=True),
    "usaw": Method(lambda c, cfg: fit_usaw(c, cfg), lambda m, c: predict(m, c),
                   _write_saw, _read_saw, cv=True),
    "encox": Method(lambda c, cfg: fit_encox(c, cfg.lam, cfg.alpha),
                    lambda m, c: predict_encox(m, c), _write_encox, _read_encox),
    "km": Method(lambda c, cfg: fit_km(c), lambda m, c: predict_km(m, c), _write_km, _read_km),
}


def _method_of(model, action: str) -> Method:
    if getattr(model, "method", None) not in METHODS:
        raise TypeError(f"cannot {action} {type(model).__name__}")
    return METHODS[model.method]


def fit_method(corpus: Corpus, method: str, config: SawConfig):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method].fit(corpus, config)


def predict_model(model, corpus: Corpus) -> Predictions:
    return _method_of(model, "predict with").predict(model, corpus)


def save_model(model, path) -> None:
    payload = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "method": model.method,
               "vocab_hash": model.vocab_hash, **_method_of(model, "serialize").write(model)}
    write_json(payload, path)


def load_model(path):
    """Read a model file; a malformed one raises ValueError naming the file."""
    payload = read_json(path, MODEL_FORMAT, (MODEL_VERSION,), "model")
    try:
        if payload["method"] not in METHODS:
            raise ValueError(f"unknown method {payload['method']!r}")
        return METHODS[payload["method"]].read(payload)
    except KeyError as exc:
        raise ValueError(f"bad model file {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad model file {path}: {exc}") from exc
