"""Deterministic training: Adam, plateau LR scheduling, early stopping.

The training trajectory is a pure function of (dataset bytes, configs,
seed): pair order, batch boundaries, imposter draws, and update order
are all fixed by the config seed, so two runs from identical inputs with
the same BLAS thread count produce byte-identical checkpoints and epoch
logs. Runs with different BLAS thread counts need not agree: with 1 and
2 OpenBLAS threads at H = 300 they differ in the last bits, because the
recurrent sweep's input-gradient GEMM (inner dimension 3H) sums in a
different order when split across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import (CaptionEmbeddingTable, CaptionRecord, DatasetManifest, EmbeddingTable,
                     FeatureSequence, atomic_write)
from .losses import (
    bce_match_grad,
    bce_match_loss,
    dot_score,
    exp_neg_euclid,
    exp_neg_euclid_backward,
    sample_imposters,
    triplet_margin_grads,
    triplet_margin_loss,
)
from .nnet import AudioTower, ModelConfig, Params, TextEmbedder, init_params, zero_grads, clone_params
from .nnet.model import check_field_types
from .nnet.checkpoint import Checkpoint
from .retrieval import build_score_matrix, report_from_matrix, RetrievalReport
from .rng import SplitMix64

EPOCH_LOG_HEADER = "epoch,train_loss,val_R1,val_R5,val_R10,val_mAP10,lr"


class OptimError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters. Only the optimizer/scheduler family is fixed;
    budgets, patience, and batch size are all overridable."""

    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    early_stop_patience: int = 10
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    min_lr: float = 1e-6

    def validate(self) -> None:
        if self.epochs < 1:
            raise OptimError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise OptimError(
                f"batch_size must be >= 2 (imposter sampling), got {self.batch_size}")
        if self.early_stop_patience < 1:
            raise OptimError(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")
        if not (0.0 < self.plateau_factor < 1.0):
            raise OptimError(f"plateau_factor must be in (0,1), got {self.plateau_factor}")
        if self.plateau_patience < 1:
            raise OptimError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if not self.min_lr > 0.0:  # NaN fails too
            raise OptimError(f"min_lr must be positive, got {self.min_lr}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise OptimError(f"unknown training config keys: {sorted(unknown)}")
        check_field_types(d, ints=("epochs", "batch_size", "seed", "early_stop_patience",
                                   "plateau_patience"),
                          numbers=("plateau_factor", "min_lr"), error=OptimError)
        cfg = cls(**{k: d[k] for k in d})
        cfg.validate()
        return cfg


class AdamState:
    """Per-parameter moment buffers and the step counter."""

    def __init__(self, params: Params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params: Params, grads: Mapping[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        if g.shape != tensor.data.shape:
            raise OptimError(f"gradient shape {g.shape} does not match parameter "
                             f"{name!r} shape {tensor.data.shape}")
        if not np.all(np.isfinite(g)):
            raise OptimError(f"non-finite gradient in parameter {name!r} at step {state.t}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class PlateauState:
    """Reduce-on-plateau bookkeeping; monitors a maximized metric."""

    factor: float = 0.5
    patience: int = 5
    min_lr: float = 1e-6
    threshold: float = 1e-6
    best: float = float("-inf")
    epochs_since_improve: int = 0


def plateau_update(state: PlateauState, metric: float, lr: float) -> float:
    """Advance the scheduler by one epoch and return the new LR.

    Improvement means metric > best + threshold; after `patience`
    stagnant epochs the LR is multiplied by `factor` (floored at
    min_lr) and the counter resets.
    """
    if metric > state.best + state.threshold:
        state.best = metric
        state.epochs_since_improve = 0
        return lr
    state.epochs_since_improve += 1
    if state.epochs_since_improve >= state.patience:
        state.epochs_since_improve = 0
        return max(state.min_lr, lr * state.factor)
    return lr


def early_stop_check(history: Sequence[float], patience: int) -> bool:
    """True iff the best value occurred more than `patience` epochs ago.

    Ties go to the earliest epoch, matching the best-checkpoint rule.
    """
    if not history:
        return False
    best_idx = int(np.argmax(history))
    return (len(history) - 1 - best_idx) > patience


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    val_r1: float
    val_r5: float
    val_r10: float
    val_map10: float
    lr: float

    def to_csv_row(self) -> str:
        return ",".join([str(self.epoch), repr(self.train_loss),
                         repr(self.val_r1), repr(self.val_r5), repr(self.val_r10),
                         repr(self.val_map10), repr(self.lr)])


def write_epoch_log(path, rows: Sequence[EpochLog]) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        f.write(EPOCH_LOG_HEADER + "\n")
        for row in rows:
            f.write(row.to_csv_row() + "\n")


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Checkpoint
    log: tuple[EpochLog, ...]
    best_epoch: int
    best_val_map10: float
    final_report: RetrievalReport


def _batch_step(batch: list[tuple[str, CaptionRecord]],
                features: Mapping[str, FeatureSequence],
                tower: AudioTower, embedder: TextEmbedder,
                config: ModelConfig, rng: SplitMix64) -> float:
    """Forward/backward over one batch; accumulates gradients in place.

    Every batch item is an anchor once. Gradients are scaled by 1/B so
    the objective is the mean per-anchor loss. The tower runs once over
    the distinct clips, backward with each clip's summed pair gradients.
    """
    size = len(batch)
    slot_of: dict[str, int] = {}
    clip = [slot_of.setdefault(name, len(slot_of)) for name, _ in batch]
    audio, tower_cache = tower.forward_batch([features[name].frames for name in slot_of])
    texts = [embedder.embed(record) for _, record in batch]
    keyed = [(name, record.key) for name, record in batch]
    d_audio = [np.zeros_like(emb) for emb in audio]
    d_text = [np.zeros_like(emb) for emb, _ in texts]
    total = 0.0
    for i in range(size):
        text_imp, audio_imp = sample_imposters(keyed, i, rng)
        a_i = audio[clip[i]]
        t_i = texts[i][0]
        if config.loss == "triplet":
            t_neg = texts[text_imp][0]
            a_neg = audio[clip[audio_imp]]
            s_pos = dot_score(a_i, t_i)
            s_neg_text = dot_score(a_i, t_neg)
            s_neg_audio = dot_score(a_neg, t_i)
            total += triplet_margin_loss(s_pos, s_neg_text, s_neg_audio, config.margin)
            d_pos, d_ntext, d_naudio = triplet_margin_grads(
                s_pos, s_neg_text, s_neg_audio, config.margin)
            d_audio[clip[i]] += d_pos * t_i + d_ntext * t_neg
            d_text[i] += d_pos * a_i + d_naudio * a_neg
            d_audio[clip[audio_imp]] += d_naudio * t_i
            d_text[text_imp] += d_ntext * a_i
        else:
            # bce_expdist: the positive pair plus the text imposter as
            # the balancing negative (the audio draw keeps the rng
            # stream identical across loss modes).
            t_neg = texts[text_imp][0]
            d_match = exp_neg_euclid(a_i, t_i)
            total += bce_match_loss(d_match, True)
            ga, gt = exp_neg_euclid_backward(a_i, t_i, d_match,
                                             bce_match_grad(d_match, True))
            d_audio[clip[i]] += ga
            d_text[i] += gt
            d_nomatch = exp_neg_euclid(a_i, t_neg)
            total += bce_match_loss(d_nomatch, False)
            ga, gt = exp_neg_euclid_backward(a_i, t_neg, d_nomatch,
                                             bce_match_grad(d_nomatch, False))
            d_audio[clip[i]] += ga
            d_text[text_imp] += gt
    scale = 1.0 / size
    tower.backward_batch(tower_cache, [(grad * scale).astype(emb.dtype)
                                       for emb, grad in zip(audio, d_audio)])
    for (_, cache), grad in zip(texts, d_text):
        embedder.backward(cache, grad * scale)
    return total * scale


def train(train_manifest: DatasetManifest, val_manifest: DatasetManifest,
          features: Mapping[str, FeatureSequence], config: ModelConfig,
          train_config: TrainConfig,
          word_table: Optional[EmbeddingTable] = None,
          caption_table: Optional[CaptionEmbeddingTable] = None) -> TrainResult:
    """Run the full training loop and return the best-epoch checkpoint.

    Per epoch: seeded shuffle of (audio, caption) pairs, fixed-size
    batches with the last partial batch kept, Adam updates, validation
    retrieval metrics, plateau scheduling, early stopping. The kept
    checkpoint is from the first epoch attaining the max validation
    mAP10. A batch whose items all share one clip cannot be
    contrasted and raises.
    """
    config.validate()
    train_config.validate()
    params = init_params(config, seed=config.seed)
    tower = AudioTower(config, params)
    embedder = TextEmbedder(config, params, word_table=word_table,
                            caption_table=caption_table)
    rng = SplitMix64(train_config.seed)
    adam = AdamState(params, lr=config.lr, beta1=config.beta1,
                     beta2=config.beta2, eps=config.adam_eps)
    plateau = PlateauState(factor=train_config.plateau_factor,
                           patience=train_config.plateau_patience,
                           min_lr=train_config.min_lr)
    pairs = [(item.file_name, record)
             for item in train_manifest.items for record in item.captions]
    if len(pairs) < 2:
        raise OptimError("training needs at least 2 (audio, caption) pairs")
    starts = list(range(0, len(pairs), train_config.batch_size))
    # a trailing singleton cannot be contrasted; it joins the previous batch
    if len(starts) > 1 and len(pairs) - starts[-1] == 1:
        starts.pop()
    bounds = [(s, starts[k + 1] if k + 1 < len(starts) else len(pairs))
              for k, s in enumerate(starts)]

    history: list[float] = []
    rows: list[EpochLog] = []
    best_map10 = float("-inf")
    best_epoch = -1
    best_params: Optional[Params] = None
    best_report: Optional[RetrievalReport] = None

    for epoch in range(1, train_config.epochs + 1):
        lr_this_epoch = adam.lr
        order = list(range(len(pairs)))
        rng.shuffle(order)
        loss_sum = 0.0
        for s, e in bounds:
            batch = [pairs[i] for i in order[s:e]]
            zero_grads(params)
            batch_mean = _batch_step(batch, features, tower, embedder, config, rng)
            if not np.isfinite(batch_mean):
                raise OptimError(f"non-finite loss at epoch {epoch}")
            grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                     for name, t in params.items()}
            adam_step(params, grads, adam)
            loss_sum += batch_mean * len(batch)
        train_loss = loss_sum / len(pairs)

        report = report_from_matrix(build_score_matrix(
            config, params, val_manifest, features,
            word_table=word_table, caption_table=caption_table))
        history.append(report.map10)
        if report.map10 > best_map10:
            best_map10 = report.map10
            best_epoch = epoch
            best_params = clone_params(params)
            best_report = report
        rows.append(EpochLog(epoch=epoch, train_loss=float(train_loss),
                             val_r1=report.r1, val_r5=report.r5,
                             val_r10=report.r10, val_map10=report.map10,
                             lr=lr_this_epoch))
        adam.lr = plateau_update(plateau, report.map10, adam.lr)
        if early_stop_check(history, train_config.early_stop_patience):
            break

    assert best_params is not None and best_report is not None
    checkpoint = Checkpoint(config=config.to_dict(), params=best_params,
                            epoch=best_epoch, best_validation_map10=best_map10)
    return TrainResult(checkpoint=checkpoint, log=tuple(rows),
                       best_epoch=best_epoch, best_val_map10=best_map10,
                       final_report=best_report)
