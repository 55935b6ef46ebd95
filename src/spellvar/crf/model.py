"""Linear-chain CRF model: scoring, Viterbi decoding, marginals, (de)serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from spellvar.crf.kernel import encode, forward_backward, viterbi

LABELS = ("I", "O")
FORMAT_NAME = "spellvar-crf"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Unreadable, truncated, or wrong-version model file."""


@dataclass
class CrfModel:
    """Trained tagger weights.

    Unknown features simply contribute nothing at decode time.  ``window`` is
    the context window the features were extracted with.  ``degenerate``
    flags models trained on single-label data; ``final_objective``,
    ``converged`` and ``iterations`` report the optimizer's end state (NaN or
    None for hand-built models).
    """

    feature_index: dict[str, int]
    state: np.ndarray
    transitions: np.ndarray
    window: int = 1
    labels: tuple[str, ...] = LABELS
    degenerate: bool = False
    final_objective: float = float("nan")
    converged: bool | None = None
    iterations: int | None = None

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
        return encode([features], self.feature_index).emissions(self.state)[0, :len(features)]


def decode_batch(
    model: CrfModel, sequences: Sequence[Sequence[Sequence[str]]]
) -> list[tuple[list[str], float, list[dict[str, float]]]]:
    """Best label path, its unnormalized score and the per-position posterior
    label probabilities of every sequence, all from one kernel pass."""
    batch = encode(sequences, model.feature_index)
    emissions = batch.emissions(model.state)
    paths, scores = viterbi(emissions, batch.mask, model.transitions)
    _, probs, _ = forward_backward(emissions, batch.mask, model.transitions)
    return [
        ([model.labels[i] for i in path[:n]], score,
         [dict(zip(model.labels, row)) for row in rows[:n]])
        for path, score, rows, n in zip(paths.tolist(), scores.tolist(), probs.tolist(),
                                        batch.lengths.tolist())
    ]


def viterbi_decode(model: CrfModel, features: Sequence[Sequence[str]]) -> tuple[list[str], float]:
    """Best label path and its unnormalized score; ties resolve toward O."""
    labels, score, _ = decode_batch(model, [features])[0]
    return labels, score


def marginals(model: CrfModel, features: Sequence[Sequence[str]]) -> list[dict[str, float]]:
    """Per-position posterior label probabilities via forward-backward."""
    return decode_batch(model, [features])[0][2]


def save_model(model: CrfModel, path: str | Path) -> None:
    """Write the model as versioned JSON; floats round-trip exactly."""
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "labels": list(model.labels),
        "window": model.window,
        "degenerate": model.degenerate,
        "final_objective": None if math.isnan(model.final_objective) else model.final_objective,
        "converged": model.converged,
        "iterations": model.iterations,
        "transitions": [[float(w) for w in row] for row in model.transitions],
        "states": {
            feature: [float(w) for w in model.state[row]]
            for feature, row in model.feature_index.items()
        },
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> CrfModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} model file")
    if payload.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version {payload.get('version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    try:
        labels = tuple(payload["labels"])
        states: dict[str, list[float]] = payload["states"]
        feature_index = {feature: row for row, feature in enumerate(states)}
        state = np.array(list(states.values()) or np.empty((0, len(labels))), dtype=float)
        transitions = np.array(payload["transitions"], dtype=float)
        if state.shape[1:] != (len(labels),) or transitions.shape != (len(labels), len(labels)):
            raise ValueError(f"weights do not have one entry per label of {list(labels)}")
        if not (np.isfinite(state).all() and np.isfinite(transitions).all()):
            raise ValueError("non-finite weight")
        objective = payload.get("final_objective")
        # Optional keys: files written before they existed load as unknown.
        converged, iterations = payload.get("converged"), payload.get("iterations")
        if type(converged) not in (bool, type(None)) or not (
                iterations is None or type(iterations) is int and iterations >= 0):
            raise ValueError(f"converged {converged!r} or iterations {iterations!r} invalid")
        return CrfModel(
            feature_index=feature_index,
            state=state,
            transitions=transitions,
            window=int(payload["window"]),
            labels=labels,
            degenerate=bool(payload.get("degenerate", False)),
            final_objective=float("nan") if objective is None else float(objective),
            converged=converged,
            iterations=iterations,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model payload: {exc}") from exc
