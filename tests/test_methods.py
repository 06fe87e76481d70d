import json
import re
import sys

import numpy as np
import pytest
from scipy import sparse

import sawtopics
from sawtopics.cli import _write_predictions
from sawtopics.corpus import (Corpus, IngestConfig, Vocabulary, load_corpus, mean_word_score,
                              normalize_columns, save_corpus, subset)
from sawtopics.methods import METHODS, fit_method, load_model, predict, save_model
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
    before = predict(model, corpus)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    after = predict(loaded, corpus)
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


@pytest.mark.parametrize("version", [True, 2.0])
def test_model_version_must_be_a_json_integer(corpus, tmp_path, version):
    # true and 1.0 were read as version 1
    path = tmp_path / "m.json"
    save_model(fit_method(corpus, "km", SawConfig()), path)
    payload = dict(json.loads(path.read_text()), version=version)
    path.write_text(json.dumps(payload))
    message = helpers.version_refused("model", version, path, "train", 2)
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize("method", ["saw", "km"])
def test_version_1_model_refused(corpus, tmp_path, method):
    # version 1 held a hash of the words and no bin edges
    path = tmp_path / "m.json"
    save_model(fit_method(corpus, method, SawConfig(k=3, max_outer_iters=1)), path)
    payload = dict(json.loads(path.read_text()), version=1)
    payload.pop("bin_edges", None)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=helpers.version_refused("model", 1, path, "train", 2)):
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
    return doc_topic_features(model.theta, Xbar) @ model.cox.beta


@pytest.mark.parametrize("method", list(METHODS))
def test_one_predict_scores_every_method(corpus, cox_models, method):
    # the package's predict took a saw or usaw model only
    model = cox_models[method] if method in cox_models else fit_method(corpus, method, SawConfig())
    preds = sawtopics.predict(model, corpus)
    assert preds.patient_ids == corpus.patient_ids
    if method == "km":
        n = corpus.n_docs
        assert np.isnan(preds.risk).all() and preds.risk.shape == (n,)
        assert np.array_equal(preds.median, np.full(n, model.median))
        assert np.array_equal(preds.saturated, np.full(n, model.saturated))
        return
    u = model.cox.beta if method == "encox" else model.theta @ model.cox.beta
    risk = mean_word_score(corpus, u)
    median, saturated = predict_median(model.cox, risk)
    assert np.array_equal(preds.risk, risk)
    assert np.array_equal(preds.median, median)
    assert np.array_equal(preds.saturated, saturated)


@pytest.mark.parametrize("source", ["v2 file", "subset"])
@pytest.mark.parametrize("method", ["saw", "usaw", "encox"])
def test_per_word_score_is_the_design_risk(corpus, cox_models, tmp_path, method, source):
    # "v2 file": the corpus as save_corpus writes it (version 3 since)
    model, path = cox_models[method], tmp_path / "c.json"
    if source == "subset":
        c = subset(corpus, np.arange(1, corpus.n_docs, 3))
    else:
        save_corpus(corpus, path)
        c = load_corpus(path)
    preds = predict(model, c)
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
        predict(cox_models[method], empty)


def test_encox_scores_the_sparse_design(corpus):
    model = fit_method(corpus, "encox", SawConfig(lam=0.01, alpha=0.5))
    dense = helpers.dense_view(normalize_columns(corpus).T) @ model.cox.beta
    assert np.count_nonzero(model.cox.beta) > 0
    assert np.abs(predict(model, corpus).risk - dense).max() <= 1e-12


def test_matrix_encoding_round_trip(cox_models, tmp_path):
    # theta and A are written as their dense rows and read back exactly
    path = tmp_path / "m.json"
    for model in (cox_models["saw"], cox_models["usaw"]):
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert (payload["theta"], payload["A"]) == ({"dense": model.theta.tolist()},
                                                    {"dense": model.A.tolist()})
        back = load_model(path)
        assert np.array_equal(back.theta, model.theta) and np.array_equal(back.A, model.A)


def as_triplets(M):
    """A matrix in the sparse form that model files written before the dense
    form hold."""
    M = np.array(M)
    return {"shape": list(M.shape),
            "triplets": [[int(r), int(c), float(M[r, c])] for r, c in zip(*np.nonzero(M))]}


# solver settings that saw/usaw config blocks carried before they left SawConfig
RETIRED_CONFIG = {"theta_step": 1.0, "theta_iters": 100, "recover_tol": 1e-10,
                  "recover_iters": 4000, "beta_tol": 1e-9, "beta_iters": 10000}


@pytest.mark.parametrize("method, change, message", [
    ("saw", lambda p: p.update(theta=as_triplets(p["theta"]["dense"])), "missing key 'dense'"),
    ("usaw", lambda p: p.update(A=as_triplets(p["A"]["dense"])), "missing key 'dense'"),
    ("saw", lambda p: p["config"].update(RETIRED_CONFIG), "unexpected keyword argument"),
    ("usaw", lambda p: p["config"].update(theta_step=1.0), "unexpected keyword argument"),
])
def test_old_model_forms_refused(cox_models, tmp_path, method, change, message):
    # version-1 files written before theta and A were dense, or while the
    # config block held solver settings; `train` writes them again
    path = tmp_path / "m.json"
    save_model(cox_models[method], path)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^bad model file {re.escape(str(path))}: .*{message}"):
        load_model(path)


def predictions_bytes(model, corpus, tmp_path) -> bytes:
    out = tmp_path / "preds.csv"
    _write_predictions(out, predict(model, corpus))
    return out.read_bytes()


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
    refused = 0
    for where, bad in fuzzed(json.loads(path.read_text())):
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
    ("saw", ("trace", "objective_values"), [], "objective_values must hold 2 \\+ 2 x iterations"),
    ("usaw", ("anchors", "stability"), {"0": 12}, "counts must be <= anchors.runs = 10"),
])
def test_unread_fields_type_checked(corpus, cox_models, tmp_path, method, where, value, message):
    # each of these loaded, and a re-save wrote it back (int(2.7) as 2); a
    # trace of another length than the fit's iterations give, and more
    # stability votes than anchor runs, loaded too
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
    assert back.anchors.indices == model.anchors.indices
    assert back.anchors.stability == model.anchors.stability
    assert np.array_equal(back.residuals, model.residuals)


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
        assert relative_gap(csc.theta, dense.theta) <= 1e-10


def event_rows(patients, seed):
    """Event lines and labels for ``patients``: two numeric events whose
    values track each patient's risk, six rows each, and one categorical
    event."""
    rng = np.random.default_rng(seed)
    lines, labels = [], {}
    for p in patients:
        risk = rng.standard_normal()
        for t in range(6):
            lines.append(f"{p},{t},hr,{80 + 10 * risk + 5 * rng.standard_normal():.2f}")
            lines.append(f"{p},{t},lab,{rng.standard_normal() - risk:.3f}")
        lines.append(f"{p},0,sex,{'fm'[rng.integers(2)]}")
        labels[p] = (round(float(rng.exponential(30 * np.exp(-risk))) + 0.5, 1),
                     bool(rng.random() < 0.8))
    return lines, labels


EVENT_CFG = IngestConfig(bins=4, min_doc_freq=1)
TRAIN_IDS = [f"a{i:02d}" for i in range(60)]
TEST_IDS = [f"b{i:02d}" for i in range(40)]


@pytest.fixture(scope="module")
def event_train():
    return helpers.build_rows(*event_rows(TRAIN_IDS, 5), EVENT_CFG)


@pytest.fixture(scope="module")
def event_models(event_train):
    cfg = SawConfig(k=3, lam=0.1, seed=5, max_outer_iters=3)
    return {m: fit_method(event_train, m, cfg) for m in ("saw", "usaw", "encox", "km")}


@pytest.mark.parametrize("method", ["saw", "encox"])
def test_loaded_vocabulary_builds_the_same_corpus(event_models, tmp_path, method):
    # a loaded model's vocabulary had no bin edges, so new patients' numeric
    # events made no words: half their tokens went, and predict exited 0
    model, path = event_models[method], tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    lines, labels = event_rows(TEST_IDS, 6)
    built = {}
    for name, vocab in (("fitted", model.vocab), ("loaded", loaded.vocab)):
        corpus = helpers.build_rows(lines, labels, EVENT_CFG, vocab)
        save_corpus(corpus, tmp_path / f"{name}.json")
        built[name] = (tmp_path / f"{name}.json").read_bytes(), predict(loaded, corpus).risk
    assert built["loaded"][0] == built["fitted"][0]
    assert np.array_equal(built["loaded"][1], built["fitted"][1])


def test_edges_spelled_as_lists_or_tuples_are_one_vocabulary(event_train, tmp_path):
    fitted = event_train.vocab
    assert fitted.bin_edges and all(type(c) is tuple for c in fitted.bin_edges.values())
    for spell in (np.array, list):
        spelled = Vocabulary(list(fitted.words), {e: spell(c) for e, c in fitted.bin_edges.items()})
        assert spelled == fitted
        assert all(type(c) is tuple and all(type(x) is float for x in c)
                   for c in spelled.bin_edges.values())
    # a model trained on the list form predicts after a save and a load
    corpus = helpers.build_rows(*event_rows(TRAIN_IDS, 5), EVENT_CFG, spelled)
    model, path = fit_method(corpus, "encox", SawConfig(lam=0.1)), tmp_path / "m.json"
    save_model(model, path)
    assert np.array_equal(predict(load_model(path), corpus).risk, predict(model, corpus).risk)


def test_corpus_ingested_on_its_own_refused(event_models):
    # test patients ingested from their own files get the training words,
    # but each numeric event is cut at other edges; predict scored them
    lines, labels = event_rows(TEST_IDS, 6)
    own = helpers.build_rows(lines, labels, EVENT_CFG)
    model = event_models["saw"]
    assert own.vocab.words == model.vocab.words
    assert own.vocab.bin_edges.keys() == model.vocab.bin_edges.keys() == {"hr", "lab"}
    edges = re.escape(repr(model.vocab.bin_edges["hr"]))
    with pytest.raises(ValueError, match=f"^vocabulary mismatch between model and corpus: "
                                         f"bin edges of 'hr': {edges} in the model, \\("):
        predict(model, own)
    # without the men's rows, the test patients lack the word sex=m
    women = helpers.build_rows([x for x in lines if not x.endswith(",sex,m")], labels, EVENT_CFG)
    at = model.vocab.words.index("sex=m")
    with pytest.raises(ValueError, match=f": word {at}: 'sex=m' in the model, None in the corpus$"):
        predict(event_models["encox"], women)


COX_KEYS = {"format", "version", "method", "words", "bin_edges", "beta", "baseline"}
SAW_KEYS = COX_KEYS | {"config", "anchors", "theta", "A", "residuals", "trace"}
MODEL_KEYS = {"saw": SAW_KEYS, "usaw": SAW_KEYS, "encox": COX_KEYS | {"lam", "alpha"},
              "km": {"format", "version", "method", "times", "survival", "median", "saturated"}}


@pytest.mark.parametrize("method", ["saw", "usaw", "encox", "km"])
def test_model_file_holds_the_corpus_vocabulary(event_train, event_models, tmp_path, method):
    # the file held a hash of the words and no bin edges; a km file, whose
    # model scores without a vocabulary, holds none
    model, path = event_models[method], tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload.keys() == MODEL_KEYS[method]
    if method == "km":
        return
    corpus = tmp_path / "c.json"
    save_corpus(event_train, corpus)
    held = json.loads(corpus.read_text())
    assert (payload["words"], payload["bin_edges"]) == (held["words"], held["bin_edges"])
    assert load_model(path).vocab == model.vocab
