"""Training-method registry and model file I/O.

Four methods share one versioned model file format and one predictions
format: the joint fit (saw), the two-stage baseline (usaw), elastic-net Cox
directly on normalized word frequencies (encox), and Kaplan-Meier (km). A
Cox model's file holds its corpus's ``words`` and ``bin_edges`` as a corpus
file does, and ``predict`` scores only a corpus of an equal vocabulary: each
patient's risk is its mean over its tokens of the model's per-word score,
``word_score``. A km model holds no vocabulary; it predicts the same median
for everyone and has no risk ordering, so its risk scores are NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .anchors import AnchorSet
from .corpus import (Corpus, Vocabulary, flat_array, mean_word_score, normalize_columns,
                     read_json, read_vocabulary, vocabulary_fields, write_json)
from .saw import FitTrace, SawConfig, SawModel, fit_saw, fit_usaw
from .survival import (BaselineHazard, CoxModel, SurvivalCurve, fit_elastic_net_cox,
                       kaplan_meier, predict_median)

MODEL_FORMAT = "sawtopics-model"
MODEL_VERSION = 2


@dataclass(frozen=True, eq=False)
class EncoxModel:
    """Elastic-net Cox on the column-normalized word counts, fitted at ``lam`` and ``alpha``."""

    cox: CoxModel
    vocab: Vocabulary
    lam: float
    alpha: float
    method: str = "encox"

    def __post_init__(self):
        if self.cox.beta.shape != (len(self.vocab),):
            raise ValueError(f"want one beta per word: {self.cox.beta.shape} for {len(self.vocab)}")

    word_score = property(lambda self: self.cox.beta)


@dataclass(frozen=True, eq=False)
class KmModel:
    curve: SurvivalCurve
    median: float
    saturated: bool
    method: str = "km"


def fit_encox(corpus: Corpus, lam: float, alpha: float) -> EncoxModel:
    cox = fit_elastic_net_cox(normalize_columns(corpus).T, corpus.labels, lam, alpha)
    return EncoxModel(cox, corpus.vocab, float(lam), float(alpha))


def fit_km(corpus: Corpus) -> KmModel:
    return KmModel(*kaplan_meier(corpus.labels))


@dataclass(frozen=True, eq=False)
class Predictions:
    patient_ids: tuple[str, ...]
    risk: np.ndarray
    median: np.ndarray
    saturated: np.ndarray


def predict(model, corpus: Corpus) -> Predictions:
    """Risk scores and median survival times for ``corpus``. A km model
    gives every patient its median and a NaN risk. Any other model needs a
    corpus built on its vocabulary: the risk is each patient's mean over its
    tokens of ``model.word_score``, and the medians are those its Cox
    baseline gives that risk."""
    if isinstance(model, KmModel):
        n = corpus.n_docs
        return Predictions(corpus.patient_ids, np.full(n, np.nan), np.full(n, model.median),
                           np.full(n, model.saturated, dtype=bool))
    if corpus.vocab != model.vocab:
        raise ValueError(_mismatch(model.vocab, corpus.vocab))
    risk = mean_word_score(corpus, model.word_score)
    return Predictions(corpus.patient_ids, risk, *predict_median(model.cox, risk))


def _mismatch(model: Vocabulary, corpus: Vocabulary) -> str:
    """Where two unequal vocabularies first differ: at a word, else at a binned event."""
    for what, a, b in (("word", dict(enumerate(model.words)), dict(enumerate(corpus.words))),
                       ("bin edges of", model.bin_edges, corpus.bin_edges)):
        key = min((k for k in a.keys() | b.keys() if a.get(k) != b.get(k)), default=None)
        if key is not None:
            return (f"vocabulary mismatch between model and corpus: {what} {key!r}: "
                    f"{a.get(key)!r} in the model, {b.get(key)!r} in the corpus")


def _numbers(values, name: str) -> np.ndarray:
    return flat_array(values, name, "iuf", "numbers").astype(float)


def _whole(value, name: str, low: int) -> int:
    """A JSON integer of at least ``low``; a bool or a float is refused."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _write_cox(cox: CoxModel) -> dict:
    return {"beta": [float(x) for x in cox.beta],
            "baseline": {"times": [float(t) for t in cox.baseline.times],
                         "cum_hazard": [float(h) for h in cox.baseline.cum_hazard]}}


def _read_cox(payload: dict) -> CoxModel:
    base = payload["baseline"]
    return CoxModel(_numbers(payload["beta"], "beta"),
                    BaselineHazard(_numbers(base["times"], "baseline times"),
                                   _numbers(base["cum_hazard"], "baseline cum_hazard")))


def _write_saw(model: SawModel) -> dict:
    return {
        "config": asdict(model.config),
        **vocabulary_fields(model.vocab),
        "anchors": {
            "indices": list(model.anchors.indices),
            "stability": {str(w): c for w, c in model.anchors.stability.items()},
            "runs": model.anchors.runs,
            "projection_dim": model.anchors.projection_dim,
        },
        "theta": {"dense": model.theta.tolist()},
        "A": {"dense": model.A.tolist()},
        "residuals": [float(x) for x in model.residuals],
        "trace": asdict(model.trace),
        **_write_cox(model.cox),
    }


def _read_saw(payload: dict) -> SawModel:
    cfg = SawConfig(**payload["config"])
    found, stability = payload["anchors"], payload["anchors"]["stability"]
    if not (isinstance(stability, dict) and all(w.isdecimal() for w in stability)):
        raise ValueError(f"anchors.stability must map word indices to counts, got {stability!r}")
    counts = {int(w): _whole(c, "anchors.stability counts", 1) for w, c in stability.items()}
    runs = _whole(found["runs"], "anchors.runs", 1)
    if max(counts.values(), default=0) > runs:
        raise ValueError(f"anchors.stability counts must be <= anchors.runs = {runs}, "
                         f"got {stability!r}")
    anchors = AnchorSet(tuple(found["indices"]), counts, runs,
                        _whole(found["projection_dim"], "anchors.projection_dim", 1))
    trace = payload["trace"]
    values = _numbers(trace["objective_values"], "trace objective_values")
    if not (np.all(np.isfinite(values)) and type(trace["converged"]) is bool):
        raise ValueError(f"want finite trace objective_values and a true/false converged, got "
                         f"{trace['objective_values']!r}, {trace['converged']!r}")
    iterations = _whole(trace["iterations"], "trace iterations", 0)
    if values.size != 2 + 2 * iterations:  # fit_saw records 2, then 2 per outer iteration
        raise ValueError(f"trace objective_values must hold 2 + 2 x iterations = "
                         f"{2 + 2 * iterations} values, got {values.size}")
    return SawModel(  # SawModel checks the shapes of theta and A
        np.array([_numbers(row, "theta rows") for row in payload["theta"]["dense"]]),
        np.array([_numbers(row, "A rows") for row in payload["A"]["dense"]]),
        anchors, _numbers(payload["residuals"], "residuals"), _read_cox(payload), cfg,
        FitTrace(tuple(values.tolist()), trace["converged"], iterations),
        read_vocabulary(payload), method=payload["method"])


def _write_encox(model: EncoxModel) -> dict:
    return {**vocabulary_fields(model.vocab),
            "lam": model.lam, "alpha": model.alpha, **_write_cox(model.cox)}


def _read_encox(payload: dict) -> EncoxModel:
    lam, alpha = payload["lam"], payload["alpha"]
    if not (type(lam) in (int, float) and 0 <= lam < np.inf
            and type(alpha) in (int, float) and 0 <= alpha <= 1):
        raise ValueError(f"want a finite lam >= 0 and an alpha in [0, 1], got {lam!r}, {alpha!r}")
    return EncoxModel(_read_cox(payload), read_vocabulary(payload), lam, alpha)


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
    return KmModel(curve, float(median), saturated)


@dataclass(frozen=True)
class Method:
    """How one method fits, and writes and reads its fields of the model
    file. ``fit`` looks its fitter up as a module global at call time, so
    wrappers installed on module attributes after import
    (``perfbench/tracing.py``) see every call."""

    fit: Callable[[Corpus, SawConfig], object]
    write: Callable[[object], dict]
    read: Callable[[dict], object]
    cv: bool = False  # cross-validated over (k, lam, alpha) by ``cli cv``


METHODS: dict[str, Method] = {
    "saw": Method(lambda c, cfg: fit_saw(c, cfg), _write_saw, _read_saw, cv=True),
    "usaw": Method(lambda c, cfg: fit_usaw(c, cfg), _write_saw, _read_saw, cv=True),
    "encox": Method(lambda c, cfg: fit_encox(c, cfg.lam, cfg.alpha), _write_encox, _read_encox),
    "km": Method(lambda c, cfg: fit_km(c), _write_km, _read_km),
}


def fit_method(corpus: Corpus, method: str, config: SawConfig):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method].fit(corpus, config)


def save_model(model, path) -> None:
    if getattr(model, "method", None) not in METHODS:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    write_json({"format": MODEL_FORMAT, "version": MODEL_VERSION, "method": model.method,
                **METHODS[model.method].write(model)}, path)


def load_model(path):
    """Read a model file of the current version, with dense ``theta`` and
    ``A``. Another version is refused with a message naming ``train``, which
    writes the current one, and a malformed file raises ValueError naming
    the file."""
    payload = read_json(path, MODEL_FORMAT, MODEL_VERSION, "model", "train")
    try:
        if payload["method"] not in METHODS:
            raise ValueError(f"unknown method {payload['method']!r}")
        return METHODS[payload["method"]].read(payload)
    except KeyError as exc:
        raise ValueError(f"bad model file {path}: missing key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:  # wrong JSON types
        raise ValueError(f"bad model file {path}: {exc}") from exc
