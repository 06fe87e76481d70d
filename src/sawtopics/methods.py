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
from .corpus import (Corpus, Vocabulary, flat_array, mean_word_score, normalize_columns,
                     read_json, vocabulary_hash, write_json)
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
    vocab: Vocabulary
    method: str = "encox"

    def __post_init__(self):
        if self.cox.beta.shape != (len(self.vocab),):
            raise ValueError(f"want one beta per word: {self.cox.beta.shape} for {len(self.vocab)}")

    vocab_hash = property(lambda self: vocabulary_hash(self.vocab))


@dataclass(frozen=True, eq=False)
class KmModel:
    curve: SurvivalCurve
    median: float
    saturated: bool
    vocab_hash: str
    method: str = "km"


def fit_encox(corpus: Corpus, lam: float, alpha: float) -> EncoxModel:
    cox = fit_elastic_net_cox(normalize_columns(corpus).T, corpus.labels, lam, alpha)
    return EncoxModel(cox, corpus.vocab)


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


def _numbers(values, name: str) -> np.ndarray:
    return flat_array(values, name, "iuf", "numbers").astype(float)


def _whole(value, name: str, low: int) -> int:
    """A JSON integer of at least ``low``; a bool or a float is refused."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _decode_matrix(payload: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    """theta or A: its dense rows, or the [row, column, value] triplets
    inside ``shape`` (words, k) that files written before the dense form
    hold. ``SawModel`` checks the shape of the result."""
    obj = payload[key]
    if "dense" in obj:
        M = np.array([_numbers(row, f"{key} rows") for row in obj["dense"]])
    else:
        if obj["shape"] != list(shape):
            raise ValueError(f"{key} has shape {obj['shape']}, not (words, k) = {list(shape)}")
        M = np.zeros(shape)
        for r, c, v in obj["triplets"]:
            if not (type(r) is int and type(c) is int and 0 <= r < shape[0] and 0 <= c < shape[1]):
                raise ValueError(f"{key} triplet index [{r!r}, {c!r}] outside {list(shape)}")
            M[r, c] = v
    return M


def _write_cox(cox: CoxModel) -> dict:
    return {"beta": [float(x) for x in cox.beta],
            "baseline": {"times": [float(t) for t in cox.baseline.times],
                         "cum_hazard": [float(h) for h in cox.baseline.cum_hazard]}}


def _read_cox(payload: dict, lam: float, alpha: float) -> CoxModel:
    base = payload["baseline"]
    return CoxModel(_numbers(payload["beta"], "beta"),
                    BaselineHazard(_numbers(base["times"], "baseline times"),
                                   _numbers(base["cum_hazard"], "baseline cum_hazard")),
                    lam, alpha)


def _write_saw(model: SawModel) -> dict:
    tm = model.topic_model
    return {
        "config": asdict(model.config),
        "words": list(model.vocab.words),
        "anchors": {
            "indices": list(tm.anchors.indices),
            "stability": {str(w): c for w, c in tm.anchors.stability.items()},
            "runs": tm.anchors.runs,
            "projection_dim": tm.anchors.projection_dim,
        },
        "theta": {"dense": tm.theta.tolist()},
        "A": {"dense": tm.A.tolist()},
        "residuals": [float(x) for x in tm.residuals],
        "trace": asdict(model.trace),
        **_write_cox(model.cox),
    }


def _read_saw(payload: dict) -> SawModel:
    cfg = SawConfig(**{k: v for k, v in payload["config"].items()
                       if k not in RETIRED_CONFIG_KEYS})
    found, stability = payload["anchors"], payload["anchors"]["stability"]
    if not (isinstance(stability, dict) and all(w.isdecimal() for w in stability)):
        raise ValueError(f"anchors.stability must map word indices to counts, got {stability!r}")
    anchors = AnchorSet(
        indices=tuple(found["indices"]),
        stability={int(w): _whole(c, "anchors.stability counts", 1) for w, c in stability.items()},
        runs=_whole(found["runs"], "anchors.runs", 1),
        projection_dim=_whole(found["projection_dim"], "anchors.projection_dim", 1),
    )
    vocab = Vocabulary(tuple(payload["words"]))
    shape = (len(vocab), cfg.k)
    tm = TopicModel(
        theta=_decode_matrix(payload, "theta", shape),
        A=_decode_matrix(payload, "A", shape),
        anchors=anchors,
        residuals=_numbers(payload["residuals"], "residuals"),
    )
    trace = payload["trace"]
    values = _numbers(trace["objective_values"], "trace objective_values")
    if not (np.all(np.isfinite(values)) and type(trace["converged"]) is bool):
        raise ValueError(f"want finite trace objective_values and a true/false converged, got "
                         f"{trace['objective_values']!r}, {trace['converged']!r}")
    trace = FitTrace(tuple(values.tolist()), trace["converged"],
                     _whole(trace["iterations"], "trace iterations", 0))
    return SawModel(tm, _read_cox(payload, cfg.lam, cfg.alpha), cfg, trace, vocab,
                    method=payload["method"])


def _write_encox(model: EncoxModel) -> dict:
    return {"words": list(model.vocab.words),
            "lam": model.cox.lam, "alpha": model.cox.alpha, **_write_cox(model.cox)}


def _read_encox(payload: dict) -> EncoxModel:
    lam, alpha = payload["lam"], payload["alpha"]
    if not (type(lam) in (int, float) and 0 <= lam < np.inf
            and type(alpha) in (int, float) and 0 <= alpha <= 1):
        raise ValueError(f"want a finite lam >= 0 and an alpha in [0, 1], got {lam!r}, {alpha!r}")
    cox = _read_cox(payload, lam, alpha)
    return EncoxModel(cox, Vocabulary(tuple(payload["words"])))


def _write_km(model: KmModel) -> dict:
    return {"times": [float(t) for t in model.curve.times],
            "survival": [float(s) for s in model.curve.survival],
            "median": float(model.median), "saturated": bool(model.saturated)}


def _read_km(payload: dict) -> KmModel:
    curve = SurvivalCurve(_numbers(payload["times"], "times"),
                          _numbers(payload["survival"], "survival"))
    median, saturated = payload["median"], payload["saturated"]
    if type(median) not in (int, float) or not np.isfinite(median) or type(saturated) is not bool:
        raise ValueError(f"want a finite median and a true/false saturated, got {median!r}, "
                         f"{saturated!r}")
    return KmModel(curve, float(median), saturated, payload["vocab_hash"])


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
        model = METHODS[payload["method"]].read(payload)
        if not isinstance(payload["vocab_hash"], str) or model.vocab_hash != payload["vocab_hash"]:
            raise ValueError("vocab_hash is not the hash of the model's vocabulary")
        return model
    except KeyError as exc:
        raise ValueError(f"bad model file {path}: missing key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:  # wrong JSON types
        raise ValueError(f"bad model file {path}: {exc}") from exc
