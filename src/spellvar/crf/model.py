"""Linear-chain CRF model: scoring, Viterbi decoding, marginals, (de)serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from spellvar.crf.kernel import FeatureIds, IdSequences, backward, forward, posteriors, viterbi

LABELS = ("I", "O")
FORMAT_NAME = "spellvar-crf"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Unreadable, truncated, or wrong-version model file."""


@dataclass
class CrfModel:
    """Trained tagger weights, with one column per label of ``LABELS``.

    Unknown features simply contribute nothing at decode time.  ``window`` is
    the context window the features were extracted with.  ``degenerate``
    flags models trained on single-label data; ``final_objective``,
    ``converged`` and ``iterations`` report the optimizer's end state (NaN or
    None for hand-built models).  ``features_seen`` counts the features
    training produced, of which a loaded model holds only the kept rows; None
    means ``feature_index`` lists them all.
    """

    feature_index: dict[str, int]
    state: np.ndarray
    transitions: np.ndarray
    window: int = 1
    degenerate: bool = False
    final_objective: float = float("nan")
    converged: bool | None = None
    iterations: int | None = None
    features_seen: int | None = None

    @classmethod
    def from_weights(
        cls,
        state_weights: Mapping[tuple[str, str], float],
        transition_weights: Mapping[tuple[str, str], float] | None = None,
    ) -> "CrfModel":
        """Build a model from sparse (feature, label) -> weight mappings."""
        feature_index: dict[str, int] = {}
        for feature, _ in state_weights:
            feature_index.setdefault(feature, len(feature_index))
        state = np.zeros((len(feature_index), len(LABELS)))
        for (feature, label), weight in state_weights.items():
            state[feature_index[feature], LABELS.index(label)] = weight
        transitions = np.zeros((len(LABELS), len(LABELS)))
        for (prev, cur), weight in (transition_weights or {}).items():
            transitions[LABELS.index(prev), LABELS.index(cur)] = weight
        return cls(feature_index=feature_index, state=state, transitions=transitions)

    def emission_scores(self, features: Sequence[Sequence[str]]) -> np.ndarray:
        """Sum state weights of the known features at each position."""
        sequences = FeatureIds().intern([features])
        batch = sequences.encode(sequences.vocabulary.columns(self.feature_index),
                                 len(self.feature_index))
        return batch.emissions(self.state)[0, :len(features)]


#: Most padded positions (sequences x the longest of them) that one kernel
#: pass decodes, so that decoding memory depends on this bound and not on the
#: corpus; a longer sequence is decoded alone.
DECODE_CHUNK = 1 << 15


def decode_batch(
    model: CrfModel, sequences: IdSequences
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best label path of every sequence, as label indices at each real
    position (sequences in input order, as ``sequences.ids`` lists them),
    each path's unnormalized score, and the posterior probability of each
    label (a row per real position, a column per label of ``LABELS``).

    Sequences are decoded shortest first, in chunks of at most
    :data:`DECODE_CHUNK` padded positions.  A sequence's results do not
    depend on its chunk: padding adds no term to its sums."""
    columns = sequences.vocabulary.columns(model.feature_index)
    lengths = sequences.lengths.tolist()
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    n_positions = sum(lengths)
    labels = np.empty(n_positions, dtype=int)
    scores = np.empty(len(lengths))
    probs = np.empty((n_positions, len(LABELS)))
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * lengths[order[stop]] <= DECODE_CHUNK:
            stop += 1
        chunk = order[start:stop]
        batch = sequences.take(chunk).encode(columns, len(model.feature_index))
        emissions = batch.emissions(model.state)
        paths, scores[chunk] = viterbi(emissions, batch, model.transitions)
        alpha, log_z = forward(emissions, batch, model.transitions)
        beta = backward(emissions, batch, model.transitions)
        real = sequences.positions(chunk)
        labels[real] = paths[batch.mask]
        probs[real] = posteriors(alpha, beta, log_z, batch).take(batch.real_ids)
        start = stop
    return labels, scores, probs


def viterbi_decode(model: CrfModel, features: Sequence[Sequence[str]]) -> tuple[list[str], float]:
    """Best label path and its unnormalized score; ties resolve toward O."""
    labels, scores, _ = decode_batch(model, FeatureIds().intern([features]))
    return [LABELS[i] for i in labels.tolist()], float(scores[0])


def marginals(model: CrfModel, features: Sequence[Sequence[str]]) -> list[dict[str, float]]:
    """Per-position posterior label probabilities via forward-backward."""
    _, _, probs = decode_batch(model, FeatureIds().intern([features]))
    return [dict(zip(LABELS, row)) for row in probs.tolist()]


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned JSON; floats round-trip exactly.

    Only feature rows with a nonzero weight are written: a feature the file
    lacks is unknown at decode time, and a zero row adds only zeros to a
    score starting at +0.0, so the reloaded model decodes to the same bits.
    ``features_seen`` and ``features_kept`` count the rows before and after."""
    nonzero = model.state.any(axis=1).tolist()
    kept = {feature: model.state[row].tolist() for feature, row in model.feature_index.items()
            if nonzero[row]}
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "labels": list(LABELS),
        "window": model.window,
        "degenerate": model.degenerate,
        "final_objective": None if math.isnan(model.final_objective) else model.final_objective,
        "converged": model.converged,
        "iterations": model.iterations,
        "features_seen": (len(model.feature_index) if model.features_seen is None
                          else model.features_seen),
        "features_kept": len(kept),
        "transitions": [[float(w) for w in row] for row in model.transitions],
        "states": kept,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _is_number(value: object) -> bool:
    """Whether ``value`` parsed from JSON is a number; a boolean is not."""
    return type(value) in (int, float)


def load_model(path: str | Path) -> CrfModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} model file")
    if payload.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version {payload.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    try:
        if payload["labels"] != list(LABELS):
            raise ValueError(f"labels {payload['labels']!r} are not {list(LABELS)}")
        window = payload["window"]
        if type(window) is not int or window < 1:
            raise ValueError(f"window {window!r} is not a positive integer")
        states: dict[str, list[float]] = payload["states"]
        if not isinstance(states, dict):
            raise ValueError("states is not an object")
        kept = payload.get("features_kept", len(states))
        seen = payload.get("features_seen", kept)
        if not (type(kept) is int and type(seen) is int and len(states) == kept <= seen):
            raise ValueError(f"{len(states)} feature rows, but features_kept {kept!r} "
                             f"and features_seen {seen!r}")
        feature_index = {feature: row for row, feature in enumerate(states)}
        n_labels = len(LABELS)
        rows = [*states.values(), *payload["transitions"]]
        if not all(_is_number(w) for row in rows for w in row):
            raise ValueError("a weight is not a number")
        state = np.array(list(states.values()) or np.empty((0, n_labels)), dtype=float)
        transitions = np.array(payload["transitions"], dtype=float)
        if state.shape[1:] != (n_labels,) or transitions.shape != (n_labels, n_labels):
            raise ValueError(f"weights do not have one entry per label of {list(LABELS)}")
        if not (np.isfinite(state).all() and np.isfinite(transitions).all()):
            raise ValueError("non-finite weight")
        objective, degenerate = payload.get("final_objective"), payload.get("degenerate", False)
        if objective is not None and not (_is_number(objective) and math.isfinite(objective)):
            raise ValueError(f"final_objective {objective!r} is not a finite number")
        if type(degenerate) is not bool:
            raise ValueError(f"degenerate {degenerate!r} is not a boolean")
        # Optional keys: files written before they existed load as unknown.
        converged, iterations = payload.get("converged"), payload.get("iterations")
        if type(converged) not in (bool, type(None)) or not (
                iterations is None or type(iterations) is int and iterations >= 0):
            raise ValueError(f"converged {converged!r} or iterations {iterations!r} invalid")
        return CrfModel(
            feature_index=feature_index,
            state=state,
            transitions=transitions,
            window=window,
            degenerate=degenerate,
            final_objective=float("nan") if objective is None else float(objective),
            converged=converged,
            iterations=iterations,
            features_seen=seen,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: corrupt model payload: {exc}") from exc
