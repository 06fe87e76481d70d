import json
import re
import sys

import numpy as np
import pytest
from scipy import sparse

from sawtopics.cli import _write_predictions
from sawtopics.corpus import Corpus, load_corpus, normalize_columns, save_corpus, subset
from sawtopics.methods import (RETIRED_CONFIG_KEYS, _decode_matrix, fit_method, load_model,
                               predict_model, save_model)
from sawtopics.saw import SawConfig
from sawtopics.survival import predict_median
from sawtopics.synthgen import generate_dataset
from sawtopics.topics import doc_topic_features

import helpers


@pytest.fixture(scope="module")
def corpus():
    c, _ = generate_dataset(d=18, k=3, n=100, doc_length=50,
                            dirichlet_concentration=0.3, anchor_mass=0.4,
                            beta_true=np.array([2.0, -2.0, 0.0]),
                            base_rate=0.15, censor_fraction=0.2, seed=31)
    return c


@pytest.mark.parametrize("method", ["saw", "usaw", "encox", "km"])
def test_loaded_model_predicts_identically(corpus, tmp_path, method):
    cfg = SawConfig(k=3, lam=0.1, alpha=0.5, seed=31, max_outer_iters=5)
    model = fit_method(corpus, method, cfg)
    before = predict_model(model, corpus)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    after = predict_model(loaded, corpus)
    assert before.patient_ids == after.patient_ids
    assert np.array_equal(before.risk, after.risk, equal_nan=True)
    assert np.array_equal(before.median, after.median)
    assert np.array_equal(before.saturated, after.saturated)
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    payload = json.loads(path.read_text())
    payload["method"] = "svd"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown method"):
        load_model(path)


@pytest.mark.parametrize("method, key", [("saw", "anchors"), ("usaw", "theta"),
                                         ("encox", "lam"), ("km", "median")])
def test_missing_key_names_the_file(corpus, cox_models, tmp_path, method, key):
    # a bare KeyError reached the command line as "error: 'median'"
    model = cox_models[method] if method in cox_models else fit_method(corpus, method, SawConfig())
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^bad model file {re.escape(str(path))}: "
                                         f"missing key '{key}'$"):
        load_model(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_model_version_must_be_a_json_integer(corpus, tmp_path, version):
    # true and 1.0 were read as version 1
    path = tmp_path / "m.json"
    save_model(fit_method(corpus, "km", SawConfig()), path)
    payload = dict(json.loads(path.read_text()), version=version)
    path.write_text(json.dumps(payload))
    message = f"^unsupported model version {version}: {re.escape(str(path))}$"
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.fixture(scope="module")
def cox_models(corpus):
    cfg = SawConfig(k=3, lam=0.1, alpha=0.5, seed=31, max_outer_iters=5)
    return {m: fit_method(corpus, m, cfg) for m in ("saw", "usaw", "encox")}


def design_risk(model, c):
    """The risk as the Cox layer sees it in training: the design Z = Xbar^T theta
    (saw, usaw) or Xbar^T (encox) times beta, through scipy."""
    Xbar = normalize_columns(c)
    if model.method == "encox":
        return Xbar.T @ model.cox.beta
    return doc_topic_features(model.topic_model.theta, Xbar) @ model.cox.beta


@pytest.mark.parametrize("source", ["v2 file", "v1 file", "subset"])
@pytest.mark.parametrize("method", ["saw", "usaw", "encox"])
def test_per_word_score_is_the_design_risk(corpus, cox_models, tmp_path, method, source):
    model, path = cox_models[method], tmp_path / "c.json"
    if source == "subset":
        c = subset(corpus, np.arange(1, corpus.n_docs, 3))
    else:
        (save_corpus if source == "v2 file" else helpers.save_corpus_v1)(corpus, path)
        c = load_corpus(path)
    preds = predict_model(model, c)
    risk = design_risk(model, c)
    np.testing.assert_allclose(preds.risk, risk, rtol=1e-11, atol=0)
    median, saturated = predict_median(model.cox, risk)
    assert np.array_equal(preds.median, median)
    assert np.array_equal(preds.saturated, saturated)


@pytest.mark.parametrize("method", ["saw", "encox"])
def test_zero_length_patient_named(corpus, cox_models, method):
    counts = helpers.dense(corpus)
    counts[:, 4] = 0
    empty = Corpus(helpers.csc_arrays(counts), corpus.vocab, corpus.labels, corpus.patient_ids)
    with pytest.raises(ValueError, match=f"^zero-length document\\(s\\): {corpus.patient_ids[4]}$"):
        predict_model(cox_models[method], empty)


def test_encox_scores_the_sparse_design(corpus):
    model = fit_method(corpus, "encox", SawConfig(lam=0.01, alpha=0.5))
    dense = helpers.dense_view(normalize_columns(corpus).T) @ model.cox.beta
    assert np.count_nonzero(model.cox.beta) > 0
    assert np.abs(predict_model(model, corpus).risk - dense).max() <= 1e-12


def test_matrix_encoding_round_trip():
    # theta and A are written dense; files written before hold triplets
    rng = np.random.default_rng(0)
    dense = rng.uniform(size=(6, 4))
    assert np.array_equal(_decode_matrix({"A": {"dense": dense.tolist()}}, "A", (6, 4)), dense)

    sparse = np.zeros((10, 5))
    sparse[0, 1] = 2.5
    sparse[7, 3] = -1.25
    trips = {"shape": [10, 5], "triplets": [[0, 1, 2.5], [7, 3, -1.25]]}
    assert np.array_equal(_decode_matrix({"A": trips}, "A", (10, 5)), sparse)
    for bad in ([-1, 1, 2.5], [10, 1, 2.5], [0, 5, 2.5], [0.0, 1, 2.5]):
        with pytest.raises(ValueError, match="outside"):
            _decode_matrix({"A": dict(trips, triplets=[bad])}, "A", (10, 5))
    with pytest.raises(ValueError, match="shape"):
        _decode_matrix({"A": dict(trips, shape=[10, 6])}, "A", (10, 5))


def as_triplets(M):
    """A matrix in the sparse form that model files written before the dense
    form hold."""
    M = np.array(M)
    return {"shape": list(M.shape),
            "triplets": [[int(r), int(c), float(M[r, c])] for r, c in zip(*np.nonzero(M))]}


def predictions_bytes(model, corpus, tmp_path) -> bytes:
    out = tmp_path / "preds.csv"
    _write_predictions(out, predict_model(model, corpus))
    return out.read_bytes()


@pytest.mark.parametrize("method", ["saw", "usaw"])
def test_triplet_matrices_predict_as_their_dense_resave(corpus, cox_models, tmp_path, method):
    path, dense = tmp_path / "old.json", tmp_path / "dense.json"
    save_model(cox_models[method], dense)
    payload = json.loads(dense.read_text())
    payload.update(theta=as_triplets(payload["theta"]["dense"]),
                   A=as_triplets(payload["A"]["dense"]))
    assert len(payload["theta"]["triplets"]) < np.size(cox_models[method].topic_model.theta)
    path.write_text(json.dumps(payload))
    old = load_model(path)
    save_model(old, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == dense.read_bytes()
    assert (predictions_bytes(old, corpus, tmp_path)
            == predictions_bytes(load_model(dense), corpus, tmp_path))


def fuzzed(payload):
    """(where, payload) for each key of a model file, and each matrix,
    baseline, trace and anchors sub-key, dropped, set to null, to a string
    and to a nested list, and for each index that a file holds, set out of
    range."""
    def variants(obj, where):
        for key in list(obj):
            for name, value in (("dropped", None), ("null", None), ("string", "x"),
                                ("nested list", [[[0.5]]])):
                out = dict(obj)
                if name == "dropped":
                    del out[key]
                else:
                    out[key] = value
                yield f"{where}{key} {name}", out
    yield from variants(payload, "")
    for key in ("theta", "A", "baseline", "trace", "anchors"):
        if key in payload:
            for where, sub in variants(payload[key], f"{key}."):
                yield where, {**payload, key: sub}
    if "anchors" in payload:
        for bad in (len(payload["words"]), -1):
            anchors = dict(payload["anchors"], indices=[bad] + payload["anchors"]["indices"][1:])
            yield f"anchor {bad}", {**payload, "anchors": anchors}
    for key in ("theta", "A"):
        if "triplets" in payload.get(key, {}):
            rows, cols = payload[key]["shape"]
            for j, bad in ((0, rows), (0, -1), (1, cols), (1, -1)):
                trips = [list(t) for t in payload[key]["triplets"]]
                trips[0][j] = bad
                matrix = dict(payload[key], triplets=trips)
                yield f"{key} triplet index {bad}", {**payload, key: matrix}


@pytest.mark.parametrize("method", ["saw", "usaw", "encox", "km"])
def test_model_file_fuzz_refused_or_unchanged(corpus, cox_models, tmp_path, method):
    # a value that load_model reads wrongly must not reach predict: the
    # loaded model predicts the unchanged bytes, or load_model names the
    # file; the fields that scoring never reads are refused, so that a
    # loaded model does not save them back wrong
    model = cox_models[method] if method in cox_models else fit_method(corpus, method, SawConfig())
    path = tmp_path / "m.json"
    save_model(model, path)
    want = predictions_bytes(model, corpus, tmp_path)
    payload = json.loads(path.read_text())
    forms = [payload]
    if method in ("saw", "usaw"):
        forms.append({**payload, "theta": as_triplets(payload["theta"]["dense"]),
                      "A": as_triplets(payload["A"]["dense"])})
    refused = 0
    for form in forms:
        for where, bad in fuzzed(form):
            path.write_text(json.dumps(bad))
            try:
                loaded = load_model(path)
            except ValueError as exc:
                assert str(path) in str(exc), (where, exc)
                refused += 1
                continue
            assert not where.startswith(("trace.", "anchors.", "lam ", "alpha ")), where
            assert predictions_bytes(loaded, corpus, tmp_path) == want, where
    assert refused > 0


def off_simplex(payload):
    row = next(w for w in range(len(payload["words"])) if w not in payload["anchors"]["indices"])
    payload["theta"]["dense"][row] = [2 * x for x in payload["theta"]["dense"][row]]


@pytest.mark.parametrize("method, change, message", [
    ("saw", lambda p: p["theta"].update(dense=p["theta"]["dense"][:3]), "disagree with"),
    ("usaw", off_simplex, "simplex"),
    ("saw", lambda p: p["anchors"].update(indices=p["anchors"]["indices"][1:]), "anchors must be"),
    ("usaw", lambda p: p.update(words=p["words"][:-1]), "disagree with"),
    ("encox", lambda p: p.update(beta=p["beta"][:-1]), "one beta per word"),
    ("encox", lambda p: p["baseline"]["times"].__setitem__(1, float("nan")), "strictly increasing"),
    ("saw", lambda p: p["baseline"]["cum_hazard"].__setitem__(1, float("nan")), "non-decreasing"),
    ("km", lambda p: p.update(median=float("inf")), "finite median"),
    ("km", lambda p: p.update(saturated=1), "true/false saturated"),
])
def test_unscorable_model_refused_at_load(corpus, cox_models, tmp_path, method, change, message):
    # each of these loaded, and predict failed later or wrote a wrong file
    model = cox_models[method] if method in cox_models else fit_method(corpus, method, SawConfig())
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^bad model file {re.escape(str(path))}: .*{message}"):
        load_model(path)


@pytest.mark.parametrize("method, where, value, message", [
    ("encox", ("lam",), "abc", "finite lam"),
    ("encox", ("lam",), float("inf"), "finite lam"),
    ("encox", ("lam",), -0.1, "finite lam"),
    ("encox", ("alpha",), 1.5, "alpha in"),
    ("encox", ("alpha",), True, "alpha in"),
    ("saw", ("trace", "objective_values"), [1.0, float("nan")], "finite trace"),
    ("saw", ("trace", "objective_values"), [1.0, "x"], "objective_values must be"),
    ("usaw", ("trace", "converged"), 1, "true/false converged"),
    ("saw", ("trace", "iterations"), "many", "iterations must be"),
    ("saw", ("trace", "iterations"), 2.0, "iterations must be"),
    ("saw", ("trace", "iterations"), -1, "iterations must be"),
    ("saw", ("anchors", "runs"), [1], "runs must be"),
    ("usaw", ("anchors", "runs"), 0, "runs must be"),
    ("saw", ("anchors", "projection_dim"), 2.7, "projection_dim must be"),
    ("saw", ("anchors", "stability"), {"0": 2.7}, "stability counts must be"),
    ("saw", ("anchors", "stability"), {"w0": 1}, "stability must map"),
    ("saw", ("anchors", "stability"), [1, 2], "stability must map"),
])
def test_unread_fields_type_checked(corpus, cox_models, tmp_path, method, where, value, message):
    # each of these loaded, and a re-save wrote it back (int(2.7) as 2)
    path = tmp_path / "m.json"
    save_model(cox_models[method], path)
    payload = json.loads(path.read_text())
    *parents, key = where
    obj = payload
    for parent in parents:
        obj = obj[parent]
    obj[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^bad model file {re.escape(str(path))}: .*{message}"):
        load_model(path)


def test_unknown_method_rejected(corpus):
    with pytest.raises(ValueError, match="unknown method"):
        fit_method(corpus, "svd", SawConfig(k=2))


def test_saved_trace_survives_round_trip(corpus, tmp_path):
    model = fit_method(corpus, "saw", SawConfig(k=3, lam=0.1, seed=31))
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.trace.objective_values == model.trace.objective_values
    assert back.trace.converged == model.trace.converged
    assert back.topic_model.anchors.indices == model.topic_model.anchors.indices
    assert back.topic_model.anchors.stability == model.topic_model.anchors.stability
    assert np.array_equal(back.topic_model.residuals, model.topic_model.residuals)


def test_retired_config_keys_ignored_on_load(corpus, tmp_path):
    # saw/usaw files written before these solver settings left SawConfig
    # carry them in the config block with their then-fixed defaults
    model = fit_method(corpus, "saw", SawConfig(k=3, lam=0.1, seed=31, max_outer_iters=5))
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    old = {"theta_step": 1.0, "theta_iters": 100, "recover_tol": 1e-10,
           "recover_iters": 4000, "beta_tol": 1e-9, "beta_iters": 10000}
    assert set(old) == set(RETIRED_CONFIG_KEYS)
    assert not set(old) & set(payload["config"])
    payload["config"].update(old)
    path.write_text(json.dumps(payload))
    loaded = load_model(path)
    assert loaded.config == model.config
    before, after = predict_model(model, corpus), predict_model(loaded, corpus)
    assert np.array_equal(before.risk, after.risk)
    assert np.array_equal(before.median, after.median)
    assert np.array_equal(before.saturated, after.saturated)
    payload["config"]["inner_step"] = 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^bad model file {re.escape(str(path))}: .*inner_step"):
        load_model(path)


@pytest.mark.parametrize("method", ["saw", "encox"])
def test_either_design_layout_fits_the_same_model(corpus, monkeypatch, method):
    # the corpus is 80% dense, so its design is a dense array; the same fit
    # on that design as a csc_array agrees to 1e-10 relative
    def relative_gap(a, b):
        return np.abs(np.asarray(a) - b).max() / np.abs(b).max()

    module = sys.modules[{"saw": "sawtopics.saw", "encox": "sawtopics.methods"}[method]]
    cfg = SawConfig(k=3, lam=0.1, alpha=0.5, seed=31)
    assert isinstance(normalize_columns(corpus), np.ndarray)
    dense = fit_method(corpus, method, cfg)
    monkeypatch.setattr(module, "normalize_columns",
                        lambda c: sparse.csc_array(normalize_columns(c)))
    csc = fit_method(corpus, method, cfg)
    assert relative_gap(csc.cox.beta, dense.cox.beta) <= 1e-10
    assert relative_gap(csc.cox.baseline.cum_hazard, dense.cox.baseline.cum_hazard) <= 1e-10
    if method == "saw":
        assert csc.trace.iterations == dense.trace.iterations > 1
        assert relative_gap(csc.trace.objective_values, dense.trace.objective_values) <= 1e-10
        assert relative_gap(csc.topic_model.theta, dense.topic_model.theta) <= 1e-10
