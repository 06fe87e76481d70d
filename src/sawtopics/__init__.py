"""Supervised anchor-word topic modeling with an elastic-net Cox layer.

The pipeline: build a word co-occurrence matrix from patient event counts,
find anchor words by a stabilized randomized greedy search, represent every
word as a convex combination of the anchors (a topic model), and couple the
resulting per-patient topic proportions to survival labels through an
elastic-net regularized Cox model, alternating between the two convex
subproblems.
"""

from .anchors import AnchorSet, default_candidates, stable_anchors
from .cooccur import CooccurrenceStats, build_cooccurrence
from .corpus import (Corpus, Events, IngestConfig, SurvivalLabels, Vocabulary,
                     build_corpus, load_corpus, load_events, mean_word_score,
                     normalize_columns, save_corpus, split, subset, vocabulary_hash)
from .evaluation import CvResult, Metrics, c_index, compute_metrics, cross_validate, rmse_mae
from .methods import (EncoxModel, KmModel, Predictions, fit_encox, fit_km, fit_method,
                      load_model, predict, save_model)
from .saw import FitTrace, SawConfig, SawModel, fit_saw, fit_usaw
from .survival import (BaselineHazard, CoxModel, SurvivalCurve, breslow_baseline,
                       fit_elastic_net_cox, kaplan_meier, predict_median)
from .synthgen import (GroundTruth, generate_corpus, generate_dataset,
                       generate_survival, generate_topic_model)
from .topics import (TopicModel, doc_topic_features, kl_divergence,
                     recover_topics_unsupervised, recover_word_topic_matrix)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "BaselineHazard", "CooccurrenceStats", "Corpus", "CoxModel",
    "CvResult", "EncoxModel", "Events", "FitTrace", "GroundTruth",
    "IngestConfig", "KmModel", "Metrics", "Predictions", "SawConfig", "SawModel",
    "SurvivalCurve", "SurvivalLabels", "TopicModel", "Vocabulary",
    "breslow_baseline", "build_cooccurrence", "build_corpus", "c_index",
    "compute_metrics", "cross_validate", "default_candidates", "doc_topic_features",
    "fit_elastic_net_cox", "fit_encox", "fit_km", "fit_method", "fit_saw", "fit_usaw",
    "generate_corpus", "generate_dataset", "generate_survival",
    "generate_topic_model", "kaplan_meier", "kl_divergence", "load_corpus", "load_events",
    "load_model", "mean_word_score", "normalize_columns", "predict",
    "predict_median", "recover_topics_unsupervised", "recover_word_topic_matrix",
    "rmse_mae", "save_corpus", "save_model", "split", "stable_anchors", "subset",
    "vocabulary_hash",
]
