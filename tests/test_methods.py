import json
import re

import numpy as np
import pytest

from sawtopics.corpus import Corpus, load_corpus, normalize_columns, save_corpus, subset
from sawtopics.methods import (RETIRED_CONFIG_KEYS, _decode_matrix, _encode_matrix,
                               fit_method, load_model, predict_model, save_model)
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
    with pytest.raises(ValueError, match=f"^unsupported model version {version}$"):
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
    dense = normalize_columns(corpus).T.toarray() @ model.cox.beta
    assert np.count_nonzero(model.cox.beta) > 0
    assert np.abs(predict_model(model, corpus).risk - dense).max() <= 1e-12


def test_matrix_encoding_round_trip():
    rng = np.random.default_rng(0)
    dense = rng.uniform(size=(6, 4))
    enc = _encode_matrix(dense)
    assert "dense" in enc
    assert np.array_equal(_decode_matrix(enc), dense)

    sparse = np.zeros((10, 5))
    sparse[0, 1] = 2.5
    sparse[7, 3] = -1.25
    enc = _encode_matrix(sparse)
    assert "triplets" in enc and len(enc["triplets"]) == 2
    assert np.array_equal(_decode_matrix(enc), sparse)


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
