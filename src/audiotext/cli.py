"""Command-line pipelines: features, train, eval-retrieval, eval-captions, rank.

Training is configured by a structured-text run config rather than
flags, so each experiment variant (cell swap, feature kind, shared
projection, sentence mode, loss choice) is a one-line config diff.
All randomness flows from the single top-level seed: the model draws
its init stream from it and the training loop uses seed+1, so a config
may not set per-section seeds. Relative paths in the config resolve
against the config file's directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import (
    CorpusError,
    FeatureDirectory,
    build_manifest,
    load_caption_embeddings,
    load_captions,
    load_word_embeddings,
    write_fmat,
)
from .dsp import DspError, log_mel_features, read_wav
from .losses import LossError
from .nnet import ModelConfig, NnetError
from .nnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .optim import OptimError, TrainConfig, train, write_epoch_log
from .retrieval import SCORERS, RetrievalError, evaluate_retrieval, rank_query
from .textmetrics import MetricError, evaluate_captions

_ERRORS = (CorpusError, DspError, NnetError, LossError, OptimError,
           RetrievalError, MetricError, CheckpointError, OSError)

_TOP_KEYS = {"seed", "model", "train", "data", "scorer", "out"}
_DATA_KEYS = {"train_captions", "val_captions", "features_dir",
              "word_embeddings", "caption_embeddings", "feature_kind"}
_OUT_KEYS = {"checkpoint", "epoch_log"}
_FEATURE_KINDS = ("log_mel_64", "external")


class RunConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_captions: Path
    val_captions: Path
    features_dir: Path
    word_embeddings: Optional[Path]
    caption_embeddings: Optional[Path]
    feature_kind: str
    scorer: Optional[str]
    checkpoint_out: Path
    epoch_log_out: Path


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a run config; unknown keys are rejected.

    Error messages carry the offending key path so a config typo is
    findable without reading source.
    """
    path = Path(path)
    base = path.parent

    def resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise RunConfigError(f"{path}: not valid structured text: {e}") from e
    if not isinstance(raw, dict):
        raise RunConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise RunConfigError(f"{path}: unknown keys {sorted(unknown)}")

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise RunConfigError(f"{path}: seed: must be an integer")

    model_raw = raw.get("model")
    if not isinstance(model_raw, dict):
        raise RunConfigError(f"{path}: model: required object")
    if "seed" in model_raw:
        raise RunConfigError(f"{path}: model.seed: set the top-level seed instead")
    if "feature_dim" not in model_raw:
        raise RunConfigError(f"{path}: model.feature_dim: required")
    try:
        model = ModelConfig.from_dict({**model_raw, "seed": seed})
    except NnetError as e:
        raise RunConfigError(f"{path}: model: {e}") from e

    train_raw = raw.get("train", {})
    if not isinstance(train_raw, dict):
        raise RunConfigError(f"{path}: train: must be an object")
    if "seed" in train_raw:
        raise RunConfigError(f"{path}: train.seed: set the top-level seed instead")
    try:
        train_cfg = TrainConfig.from_dict({**train_raw, "seed": seed + 1})
    except OptimError as e:
        raise RunConfigError(f"{path}: train: {e}") from e

    data = raw.get("data")
    if not isinstance(data, dict):
        raise RunConfigError(f"{path}: data: required object")
    unknown = set(data) - _DATA_KEYS
    if unknown:
        raise RunConfigError(f"{path}: data: unknown keys {sorted(unknown)}")
    for key in ("train_captions", "val_captions", "features_dir"):
        if key not in data:
            raise RunConfigError(f"{path}: data.{key}: required")
    feature_kind = data.get("feature_kind", "log_mel_64")
    if feature_kind not in _FEATURE_KINDS:
        raise RunConfigError(
            f"{path}: data.feature_kind: {feature_kind!r} not in {_FEATURE_KINDS}")
    word_embeddings = data.get("word_embeddings")
    caption_embeddings = data.get("caption_embeddings")
    if model.text_mode == "word_average" and word_embeddings is None:
        raise RunConfigError(
            f"{path}: data.word_embeddings: required for word_average text mode")
    if model.text_mode == "sentence_table" and caption_embeddings is None:
        raise RunConfigError(
            f"{path}: data.caption_embeddings: required for sentence_table text mode")

    scorer = raw.get("scorer")
    if scorer is not None and scorer not in SCORERS:
        raise RunConfigError(f"{path}: scorer: {scorer!r} not in {SCORERS}")

    out = raw.get("out")
    if not isinstance(out, dict):
        raise RunConfigError(f"{path}: out: required object")
    unknown = set(out) - _OUT_KEYS
    if unknown:
        raise RunConfigError(f"{path}: out: unknown keys {sorted(unknown)}")
    for key in _OUT_KEYS:
        if key not in out:
            raise RunConfigError(f"{path}: out.{key}: required")

    return RunConfig(
        model=model,
        train=train_cfg,
        train_captions=resolve(data["train_captions"]),
        val_captions=resolve(data["val_captions"]),
        features_dir=resolve(data["features_dir"]),
        word_embeddings=resolve(word_embeddings) if word_embeddings else None,
        caption_embeddings=resolve(caption_embeddings) if caption_embeddings else None,
        feature_kind=feature_kind,
        scorer=scorer,
        checkpoint_out=resolve(out["checkpoint"]),
        epoch_log_out=resolve(out["epoch_log"]),
    )


def _emit(line: str, out_path: Optional[str]) -> None:
    print(line)
    if out_path:
        target = Path(out_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(line + "\n", encoding="utf-8")


def _load_text_tables(config: ModelConfig, word_path, caption_path):
    if config.text_mode == "word_average":
        if word_path is None:
            raise RunConfigError("word_average checkpoint needs --word-embeddings")
        return load_word_embeddings(word_path), None
    if caption_path is None:
        raise RunConfigError("sentence_table checkpoint needs --caption-embeddings")
    return None, load_caption_embeddings(caption_path)


def cmd_features(args) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    wavs = sorted(in_dir.glob("*.wav"))
    if not wavs:
        print(f"error: no input files (searched {in_dir}/*.wav)", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    frames_total = 0
    failed = 0
    for wav in wavs:
        try:
            wave = read_wav(wav)
            feats = log_mel_features(wave, n_mels=args.n_mels, win_ms=args.win_ms,
                                     hop_ms=args.hop_ms, source=wav.name)
            write_fmat(out_dir / f"{wav.name}.fmat", feats)
        except _ERRORS as e:
            print(f"error: {wav.name}: {e}", file=sys.stderr)
            failed += 1
            continue
        written += 1
        frames_total += feats.frames.shape[0]
    print(f"files={written}, frames_total={frames_total}")
    return 1 if failed else 0


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    # create output dirs before the (long) training loop, not after it
    rc.checkpoint_out.parent.mkdir(parents=True, exist_ok=True)
    rc.epoch_log_out.parent.mkdir(parents=True, exist_ok=True)
    train_caps = load_captions(rc.train_captions)
    val_caps = load_captions(rc.val_captions)
    train_manifest = build_manifest(train_caps, rc.features_dir, "development")
    val_manifest = build_manifest(val_caps, rc.features_dir, "validation")
    features = FeatureDirectory(rc.features_dir, feature_kind=rc.feature_kind)
    word_table = (load_word_embeddings(rc.word_embeddings)
                  if rc.word_embeddings is not None else None)
    caption_table = (load_caption_embeddings(rc.caption_embeddings)
                     if rc.caption_embeddings is not None else None)
    result = train(train_manifest, train_caps, val_manifest, val_caps, features,
                   rc.model, rc.train, word_table=word_table,
                   caption_table=caption_table)
    ckpt = result.checkpoint
    save_checkpoint(rc.checkpoint_out, ckpt.config, ckpt.params, ckpt.epoch,
                    ckpt.best_validation_map10)
    write_epoch_log(rc.epoch_log_out, result.log)
    print(f"best epoch {result.best_epoch}: {result.final_report.to_json()}")
    return 0


def cmd_eval_retrieval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    config = ModelConfig.from_dict(checkpoint.config)
    captions = load_captions(args.captions)
    manifest = build_manifest(captions, args.features_dir, args.split)
    features = FeatureDirectory(args.features_dir, feature_kind=args.feature_kind)
    word_table, caption_table = _load_text_tables(
        config, args.word_embeddings, args.caption_embeddings)
    report = evaluate_retrieval(checkpoint, manifest, captions, features,
                                word_table=word_table, caption_table=caption_table,
                                scorer=args.scorer)
    _emit(report.to_json(), args.out)
    return 0


def cmd_eval_captions(args) -> int:
    scores = evaluate_captions(args.candidates, args.references, args.spice)
    _emit(scores.to_json(), args.out)
    return 0


def _read_query_vector(path: str) -> np.ndarray:
    """A flat structured-text array of numbers, as float64."""
    try:
        vec = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(vec, list) and all(type(v) in (int, float) for v in vec):
            return np.array(vec, dtype=np.float64)
    except (ValueError, OverflowError) as e:  # bad UTF-8 or syntax, an int beyond float range
        raise RunConfigError(f"{path}: query vector is not a flat array of numbers ({e})") from e
    raise RunConfigError(f"{path}: query vector is not a flat array of numbers")


def cmd_rank(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    config = ModelConfig.from_dict(checkpoint.config)
    captions = load_captions(args.captions)
    manifest = build_manifest(captions, args.features_dir, args.split)
    features = FeatureDirectory(args.features_dir, feature_kind=args.feature_kind)
    word_table = None
    query_vector = None
    if config.text_mode == "word_average":
        if args.word_embeddings is None:
            raise RunConfigError("word_average checkpoint needs --word-embeddings")
        word_table = load_word_embeddings(args.word_embeddings)
    else:
        if args.query_vector is None:
            raise RunConfigError(
                "sentence_table checkpoint needs --query-vector (a structured-text "
                "array of floats; there is no text tower to embed raw words)")
        query_vector = _read_query_vector(args.query_vector)
    ranked = rank_query(checkpoint, args.query, manifest, features, args.top_k,
                        word_table=word_table, query_vector=query_vector,
                        scorer=args.scorer)
    lines = [f"{i},{name},{score:.6f}" for i, (name, score) in enumerate(ranked, start=1)]
    _emit("\n".join(lines), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audiotext",
        description="Language-based audio retrieval: features, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract log-mel FMAT features from WAVs")
    p.add_argument("--in-dir", required=True, help="directory of .wav files")
    p.add_argument("--out-dir", required=True, help="output directory for .fmat files")
    p.add_argument("--n-mels", type=int, default=64)
    p.add_argument("--win-ms", type=float, default=40.0)
    p.add_argument("--hop-ms", type=float, default=20.0)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a retrieval model from a run config")
    p.add_argument("--config", required=True, help="run config path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-retrieval", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--captions", required=True, help="caption CSV of the split")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--word-embeddings")
    p.add_argument("--caption-embeddings")
    p.add_argument("--feature-kind", choices=_FEATURE_KINDS, default="log_mel_64")
    p.add_argument("--scorer", choices=SCORERS)
    p.add_argument("--split", default="evaluation",
                   choices=("development", "validation", "evaluation"))
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("eval-captions", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, help="CSV with header file_name,caption")
    p.add_argument("--references", required=True, help="caption CSV (5 refs per clip)")
    p.add_argument("--spice", help="structured-text file of per-clip SPICE values")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_eval_captions)

    p = sub.add_parser("rank", help="rank a split's clips against a text query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--captions", required=True, help="caption CSV defining the clip set")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--word-embeddings")
    p.add_argument("--query-vector", help="vector file for sentence_table checkpoints")
    p.add_argument("--feature-kind", choices=_FEATURE_KINDS, default="log_mel_64")
    p.add_argument("--scorer", choices=SCORERS)
    p.add_argument("--split", default="evaluation",
                   choices=("development", "validation", "evaluation"))
    p.add_argument("--out", help="also write the ranking to this path")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RunConfigError, *_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
