"""Similarity scores and training losses.

Two scorer/loss pairings are supported: dot-product similarity with a
two-sided triplet margin loss, and exponential-negative-Euclidean
similarity with binary cross-entropy on match labels. Hinge and
distance subgradients at their non-differentiable points are defined
as 0 (at exact margin equality and at zero distance respectively).
Natural logarithms throughout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .rng import SplitMix64


class LossError(ValueError):
    pass


def _check_dims(a: np.ndarray, t: np.ndarray) -> None:
    if a.shape != t.shape or a.ndim != 1:
        raise LossError(f"vector dims differ: {a.shape} vs {t.shape}")


def dot_score(a: np.ndarray, t: np.ndarray) -> float:
    """Plain dot product similarity."""
    _check_dims(a, t)
    return float(np.dot(a, t))


def exp_neg_euclid(a: np.ndarray, t: np.ndarray) -> float:
    """exp(-||a - t||), a similarity in (0,1]; equals 1 iff a == t."""
    _check_dims(a, t)
    return float(np.exp(-np.linalg.norm(np.asarray(a, dtype=np.float64)
                                        - np.asarray(t, dtype=np.float64))))


def exp_neg_euclid_backward(a: np.ndarray, t: np.ndarray, d: float,
                            dd: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dd * exp_neg_euclid(a, t); d is the forward value.

    At zero distance the direction (a-t)/r is undefined; the
    subgradient used is 0.
    """
    diff = a - t
    r = float(np.linalg.norm(diff))
    if r == 0.0:
        z = np.zeros_like(a)
        return z, z.copy()
    da = dd * d * (-diff / r)
    return da, -da


def bce_match_loss(d: float, y: bool, eps: float = 1e-7) -> float:
    """Binary cross-entropy of a similarity score against a match label.

    d is clamped to [eps, 1-eps] so the loss is finite at the endpoints.
    """
    if not (0.0 <= d <= 1.0):
        raise LossError(f"similarity outside [0,1]: {d}")
    dh = min(max(d, eps), 1.0 - eps)
    if y:
        return -float(np.log(dh))
    return -float(np.log(1.0 - dh))


def bce_match_grad(d: float, y: bool, eps: float = 1e-7) -> float:
    """dloss/dd for bce_match_loss; 0 where the clamp is active."""
    if d < eps or d > 1.0 - eps:
        return 0.0
    if y:
        return -1.0 / d
    return 1.0 / (1.0 - d)


def triplet_margin_loss(s_pos: float, s_neg_text: float, s_neg_audio: float,
                        margin: float) -> float:
    """Two-sided hinge: one text imposter and one audio imposter.

    max(0, margin + s_neg_text - s_pos) + max(0, margin + s_neg_audio - s_pos).
    """
    if margin <= 0.0:
        raise LossError(f"margin must be positive, got {margin}")
    return (max(0.0, margin + s_neg_text - s_pos)
            + max(0.0, margin + s_neg_audio - s_pos))


def triplet_margin_grads(s_pos: float, s_neg_text: float, s_neg_audio: float,
                         margin: float) -> tuple[float, float, float]:
    """(dL/ds_pos, dL/ds_neg_text, dL/ds_neg_audio) for the hinge above.

    Each hinge contributes only while strictly violated, so the
    subgradient at exact equality is 0.
    """
    i_text = 1.0 if margin + s_neg_text - s_pos > 0.0 else 0.0
    i_audio = 1.0 if margin + s_neg_audio - s_pos > 0.0 else 0.0
    return -(i_text + i_audio), i_text, i_audio


def sample_imposters(batch: Sequence[tuple[str, object]], anchor_index: int,
                     rng: SplitMix64) -> tuple[int, int]:
    """Draw (text_imposter, audio_imposter) positions for one anchor.

    Both are uniform over batch positions whose audio_id differs from
    the anchor's (a caption of the same clip is a true match, never an
    imposter). Two independent draws, text first.
    """
    if len(batch) < 2:
        raise LossError("imposter sampling needs a batch of at least 2")
    if not (0 <= anchor_index < len(batch)):
        raise LossError(f"anchor index {anchor_index} out of range")
    anchor_audio = batch[anchor_index][0]
    eligible = [i for i, (audio_id, _) in enumerate(batch) if audio_id != anchor_audio]
    if not eligible:
        raise LossError(f"no eligible imposter: every batch item has audio_id {anchor_audio!r}")
    text_imposter = eligible[rng.bounded(len(eligible))]
    audio_imposter = eligible[rng.bounded(len(eligible))]
    return text_imposter, audio_imposter
