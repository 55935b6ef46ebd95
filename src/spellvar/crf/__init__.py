"""Linear-chain CRF tagger: features, objective, training, decoding."""

from spellvar.crf.data import read_labeled_file, write_labeled_file
from spellvar.crf.features import FeatureSet, extract_features
from spellvar.crf.model import (
    LABELS,
    CrfModel,
    ModelFormatError,
    load_model,
    marginals,
    save_model,
    viterbi_decode,
)
from spellvar.crf.optimizer import OptimResult, minimize
from spellvar.crf.train import TrainConfig, encode_dataset, log_likelihood_and_gradient, train

__all__ = [
    "LABELS",
    "CrfModel",
    "FeatureSet",
    "ModelFormatError",
    "OptimResult",
    "TrainConfig",
    "encode_dataset",
    "extract_features",
    "load_model",
    "log_likelihood_and_gradient",
    "marginals",
    "minimize",
    "read_labeled_file",
    "save_model",
    "train",
    "viterbi_decode",
    "write_labeled_file",
]
