"""Score-matrix construction, ranking, and retrieval metrics.

Each caption acts as an independent query with exactly one relevant
audio clip, so AP@10 reduces to reciprocal rank with cutoff 10. Ties
in a score row are broken by ascending audio index; the ordering is
therefore deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import (
    CaptionEmbeddingTable,
    DatasetManifest,
    EmbeddingTable,
    FeatureSequence,
    normalize_caption,
)
from .nnet import AudioTower, ModelConfig, Params, TextEmbedder
from .nnet.checkpoint import Checkpoint

SCORERS = ("dot", "exp_neg_euclid")


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreMatrix:
    """Q x N query-by-audio scores with per-query ground truth."""

    scores: np.ndarray
    ground_truth: tuple[int, ...]

    def __post_init__(self):
        q, n = self.scores.shape
        if len(self.ground_truth) != q:
            raise RetrievalError("ground-truth count does not match score rows")
        if not np.all(np.isfinite(self.scores)):
            raise RetrievalError("score matrix contains non-finite values")
        for gt in self.ground_truth:
            if not (0 <= gt < n):
                raise RetrievalError(f"ground-truth index {gt} out of [0,{n})")

    @property
    def num_queries(self) -> int:
        return self.scores.shape[0]

    @property
    def num_audio(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class RetrievalReport:
    r1: float
    r5: float
    r10: float
    map10: float
    queries: int
    audio: int

    def __post_init__(self):
        if not (self.r1 <= self.r5 + 1e-12 and self.r5 <= self.r10 + 1e-12):
            raise RetrievalError("recall values must be nested: R1 <= R5 <= R10")
        if self.map10 > self.r10 + 1e-12:
            raise RetrievalError("mAP10 cannot exceed R10")

    def to_json(self) -> str:
        return ('{"R1":%.4f,"R5":%.4f,"R10":%.4f,"mAP10":%.4f,"queries":%d,"audio":%d}'
                % (self.r1, self.r5, self.r10, self.map10, self.queries, self.audio))


def score_all(text_embs: np.ndarray, audio_embs: np.ndarray, scorer: str,
              ground_truth: Optional[Sequence[int]] = None) -> ScoreMatrix:
    """Score every query embedding against every audio embedding.

    Ground truth defaults to a placeholder (query q matched to clip
    q mod N) for score-only uses; metric callers must supply the real
    ground truth.
    """
    text_embs = np.asarray(text_embs, dtype=np.float64)
    audio_embs = np.asarray(audio_embs, dtype=np.float64)
    if text_embs.ndim != 2 or audio_embs.ndim != 2:
        raise RetrievalError("embeddings must be 2-d (rows of vectors)")
    if text_embs.shape[1] != audio_embs.shape[1]:
        raise RetrievalError(
            f"embedding dims differ: text {text_embs.shape[1]}, audio {audio_embs.shape[1]}")
    q, n = text_embs.shape[0], audio_embs.shape[0]
    # a query vector from a file may be huge or not finite: an overflow gives
    # inf or NaN scores, which ScoreMatrix refuses, or an exp_neg_euclid 0
    with np.errstate(over="ignore", invalid="ignore"):
        if scorer == "dot":
            scores = text_embs @ audio_embs.T
        elif scorer == "exp_neg_euclid":
            sq = (np.sum(text_embs ** 2, axis=1)[:, None]
                  + np.sum(audio_embs ** 2, axis=1)[None, :]
                  - 2.0 * (text_embs @ audio_embs.T))
            scores = np.exp(-np.sqrt(np.maximum(sq, 0.0)))
        else:
            raise RetrievalError(f"unknown scorer {scorer!r}, want one of {SCORERS}")
    if ground_truth is None:
        ground_truth = [i % n for i in range(q)]
    return ScoreMatrix(scores=scores, ground_truth=tuple(int(g) for g in ground_truth))


def rank_row(row: np.ndarray) -> np.ndarray:
    """Indices of a score row sorted descending, ties by ascending index."""
    row = np.asarray(row, dtype=np.float64)
    if np.any(np.isnan(row)):
        raise RetrievalError("score row contains NaN")
    return np.argsort(-row, kind="stable")


def _ground_truth_ranks(matrix: ScoreMatrix) -> np.ndarray:
    """1-based rank of each query's ground-truth clip under rank_row order:
    one plus the clips scored higher plus the tied clips at a lower index."""
    gt = np.asarray(matrix.ground_truth, dtype=np.int64)[:, None]
    gt_score = np.take_along_axis(matrix.scores, gt, axis=1)
    tied_before = (matrix.scores == gt_score) & (np.arange(matrix.num_audio) < gt)
    return 1 + (matrix.scores > gt_score).sum(axis=1) + tied_before.sum(axis=1)


def report_from_matrix(matrix: ScoreMatrix) -> RetrievalReport:
    n = matrix.num_audio
    ranks = _ground_truth_ranks(matrix)
    return RetrievalReport(
        r1=float(np.mean(ranks <= min(1, n))),
        r5=float(np.mean(ranks <= min(5, n))),
        r10=float(np.mean(ranks <= min(10, n))),
        map10=float(np.mean(np.where(ranks <= 10, 1.0 / ranks, 0.0))),
        queries=matrix.num_queries,
        audio=n,
    )


def default_scorer(config: ModelConfig) -> str:
    """The scorer the model was trained against."""
    return "dot" if config.loss == "triplet" else "exp_neg_euclid"


def build_score_matrix(config: ModelConfig, params: Params, manifest: DatasetManifest,
                       features: Mapping[str, FeatureSequence],
                       word_table: Optional[EmbeddingTable] = None,
                       caption_table: Optional[CaptionEmbeddingTable] = None,
                       scorer: Optional[str] = None) -> ScoreMatrix:
    """Embed every clip and every caption (query) of the manifest and score
    them; queries follow item order, then caption_index."""
    if scorer is None:
        scorer = default_scorer(config)
    audio_embs = AudioTower(config, params).encode(
        [features[item.file_name].frames for item in manifest.items]).astype(np.float64)
    embedder = TextEmbedder(config, params, word_table=word_table,
                            caption_table=caption_table)
    queries = [(idx, record) for idx, item in enumerate(manifest.items)
               for record in item.captions]
    text_embs = np.stack([np.asarray(embedder.embed(record)[0], dtype=np.float64)
                          for _, record in queries])
    return score_all(text_embs, audio_embs, scorer,
                     ground_truth=[idx for idx, _ in queries])


def evaluate_retrieval(checkpoint: Checkpoint, manifest: DatasetManifest,
                       features: Mapping[str, FeatureSequence],
                       word_table: Optional[EmbeddingTable] = None,
                       caption_table: Optional[CaptionEmbeddingTable] = None,
                       scorer: Optional[str] = None) -> RetrievalReport:
    """Retrieval metrics of a checkpointed model over one dataset split."""
    matrix = build_score_matrix(checkpoint.model, checkpoint.params, manifest,
                                features, word_table=word_table,
                                caption_table=caption_table, scorer=scorer)
    return report_from_matrix(matrix)


def rank_query(checkpoint: Checkpoint, query_text: str, manifest: DatasetManifest,
               features: Mapping[str, FeatureSequence], top_k: int,
               word_table: Optional[EmbeddingTable] = None,
               query_vector: Optional[np.ndarray] = None,
               scorer: Optional[str] = None) -> list[tuple[str, float]]:
    """Rank the manifest's clips against one free-form text query.

    word_average mode embeds the normalized query via the word table;
    sentence_table mode has no text tower to run, so the caller must
    supply the externally computed query vector.
    """
    config, params = checkpoint.model, checkpoint.params
    if scorer is None:
        scorer = default_scorer(config)
    audio_ids = tuple(item.file_name for item in manifest.items)
    if not (1 <= top_k <= len(audio_ids)):
        raise RetrievalError(f"top_k={top_k} out of range [1,{len(audio_ids)}]")

    if config.text_mode == "sentence_table":
        if query_vector is None:
            raise RetrievalError(
                "sentence_table mode requires an externally supplied query vector")
        qvec = np.asarray(query_vector, dtype=np.float64)
        if qvec.shape != (config.scoring_dim,):
            raise RetrievalError(
                f"query vector shape {qvec.shape} does not match scoring dim {config.scoring_dim}")
    else:
        if word_table is None:
            raise RetrievalError("word_average mode requires a word embedding table")
        tokens = normalize_caption(query_text)
        if not tokens:
            raise RetrievalError("query is empty after normalization")
        embedder = TextEmbedder(config, params, word_table=word_table)
        emb, _ = embedder.embed_tokens(tokens)
        qvec = np.asarray(emb, dtype=np.float64)

    audio_embs = AudioTower(config, params).encode([features[name].frames for name in audio_ids])
    scores = score_all(qvec[None, :], audio_embs, scorer).scores[0]
    order = rank_row(scores)
    return [(audio_ids[j], float(scores[j])) for j in order[:top_k]]
