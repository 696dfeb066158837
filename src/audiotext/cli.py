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
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import (
    FEATURE_KINDS,
    SPLITS,
    CorpusError,
    FeatureDirectory,
    atomic_write,
    build_manifest,
    load_caption_embeddings,
    load_captions,
    load_word_embeddings,
    open_text,
    parse_json,
    write_fmat,
)
from .dsp import DspError, log_mel_features, read_wav
from .losses import LossError
from .nnet import ModelConfig, NnetError
from .nnet.model import reject_unknown
from .nnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .optim import OptimError, TrainConfig, train, write_epoch_log
from .retrieval import SCORERS, RetrievalError, evaluate_retrieval, rank_query
from .textmetrics import MetricError, evaluate_captions

_ERRORS = (CorpusError, DspError, NnetError, LossError, OptimError,
           RetrievalError, MetricError, CheckpointError, OSError, UnicodeDecodeError)

_TOP_KEYS = {"seed", "model", "train", "data", "scorer", "out"}
_REQUIRED_DATA = ("train_captions", "val_captions", "features_dir")
_PATH_KEYS = (*_REQUIRED_DATA, "word_embeddings", "caption_embeddings")
_DATA_KEYS = {*_PATH_KEYS, "feature_kind"}
_OUT_KEYS = ("checkpoint", "epoch_log")


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

    with open_text(path, RunConfigError) as fh:
        raw = parse_json(fh.read(), path, RunConfigError, "not valid structured text")
    if not isinstance(raw, dict):
        raise RunConfigError(f"{path}: top level must be an object")
    reject_unknown(raw, _TOP_KEYS, f"{path}: unknown keys", RunConfigError)

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise RunConfigError(f"{path}: seed: must be an integer")

    def section(name: str, required=(), allowed=None, default=None) -> dict:
        """The object under ``name``. Without ``allowed`` its keys are left
        to the config class it builds, and it takes the top-level seed."""
        value = raw.get(name, default)
        if not isinstance(value, dict):
            kind = "required object" if default is None else "must be an object"
            raise RunConfigError(f"{path}: {name}: {kind}")
        if allowed is not None:
            reject_unknown(value, allowed, f"{path}: {name}: unknown keys", RunConfigError)
        elif "seed" in value:
            raise RunConfigError(f"{path}: {name}.seed: set the top-level seed instead")
        for key in required:
            if key not in value:
                raise RunConfigError(f"{path}: {name}.{key}: required")
        return value

    try:
        model = ModelConfig.from_dict({**section("model", ("feature_dim",)), "seed": seed})
    except NnetError as e:
        raise RunConfigError(f"{path}: model: {e}") from e
    try:
        train_cfg = TrainConfig.from_dict({**section("train", default={}), "seed": seed + 1})
    except OptimError as e:
        raise RunConfigError(f"{path}: train: {e}") from e

    data = section("data", _REQUIRED_DATA, _DATA_KEYS)
    feature_kind = data.get("feature_kind", "log_mel_64")
    if feature_kind not in FEATURE_KINDS:
        raise RunConfigError(
            f"{path}: data.feature_kind: {feature_kind!r} not in {FEATURE_KINDS}")
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

    out = section("out", _OUT_KEYS, _OUT_KEYS)
    for name, keys, required in (("data", _PATH_KEYS, _REQUIRED_DATA),
                                 ("out", _OUT_KEYS, _OUT_KEYS)):
        for key in keys:
            value = raw[name].get(key)
            if (value is not None or key in required) and not isinstance(value, str):
                raise RunConfigError(
                    f"{path}: {name}.{key}: must be a path string, got {value!r}")
    for key in _OUT_KEYS:
        _check_out_path(resolve(out[key]), f"{path}: out.{key}")

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


def _check_out_path(target, what: str) -> None:
    """Refuse, before any work, an output path that names an existing
    directory or whose nearest existing ancestor is not a directory."""
    if not target:
        return
    if Path(target).is_dir():
        raise RunConfigError(f"{what}: {target} is a directory")
    parent = next(p for p in Path(target).absolute().parents if p.exists())
    if not parent.is_dir():
        raise RunConfigError(f"{what}: {target}: {parent} is not a directory")


def _emit(line: str, out_path: Optional[str]) -> None:
    print(line)
    if out_path:
        target = Path(out_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(target, encoding="utf-8") as fh:
            fh.write(line + "\n")


def _load_split(args):
    """(checkpoint, manifest, features) of a scored split."""
    checkpoint = load_checkpoint(args.checkpoint)
    manifest = build_manifest(load_captions(args.captions), args.features_dir, args.split)
    features = FeatureDirectory(args.features_dir, feature_kind=args.feature_kind)
    return checkpoint, manifest, features


def _load_text_tables(config: ModelConfig, word_path, caption_path):
    """(word table, caption table): only the one the text mode reads is loaded."""
    if config.text_mode == "word_average":
        if word_path is None:
            raise RunConfigError("word_average checkpoint needs --word-embeddings")
        return load_word_embeddings(word_path), None
    if caption_path is None:
        raise RunConfigError("sentence_table checkpoint needs --caption-embeddings")
    return None, load_caption_embeddings(caption_path)


def cmd_features(args) -> int:
    # files run in worker threads, since the rfft, the ufuncs, the mel product
    # and the file I/O release the GIL; imported here, so that the other
    # commands do not pay for its import
    from concurrent.futures import ThreadPoolExecutor

    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    wavs = sorted(in_dir.glob("*.wav"))
    if not wavs:
        print(f"error: no input files (searched {in_dir}/*.wav)", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    def one_file(wav: Path) -> tuple[int, Optional[str]]:
        """(frames written, error line) of one WAV file."""
        try:
            feats = log_mel_features(read_wav(wav), n_mels=args.n_mels, win_ms=args.win_ms,
                                     hop_ms=args.hop_ms, source=wav.name)
            write_fmat(out_dir / f"{wav.name}.fmat", feats)
        except _ERRORS as e:
            return 0, f"error: {wav.name}: {e}"
        return feats.frames.shape[0], None

    frames_total = 0
    failed = 0
    # one worker per CPU in the affinity mask, so taskset limits them, when BLAS
    # runs one thread (OPENBLAS_NUM_THREADS, or OpenBLAS's fallback OMP_NUM_THREADS,
    # is "1"); else one worker, as BLAS threads in each file's mel product made
    # two workers slower than one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) != "1":
        cpus = 1
    pool = ThreadPoolExecutor(max_workers=min(cpus or 1, len(wavs)))
    try:
        for frames, error in pool.map(one_file, wavs):
            if error is not None:
                print(error, file=sys.stderr)
                failed += 1
            frames_total += frames
    finally:  # on an interrupt, files in flight finish and no queued file starts
        pool.shutdown(cancel_futures=True)
    print(f"files={len(wavs) - failed}, frames_total={frames_total}")
    return 1 if failed else 0


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    # create output dirs before the (long) training loop, not after it
    rc.checkpoint_out.parent.mkdir(parents=True, exist_ok=True)
    rc.epoch_log_out.parent.mkdir(parents=True, exist_ok=True)
    train_manifest = build_manifest(load_captions(rc.train_captions), rc.features_dir,
                                    "development")
    val_manifest = build_manifest(load_captions(rc.val_captions), rc.features_dir,
                                  "validation")
    features = FeatureDirectory(rc.features_dir, feature_kind=rc.feature_kind)
    word_table, caption_table = _load_text_tables(rc.model, rc.word_embeddings,
                                                  rc.caption_embeddings)
    result = train(train_manifest, val_manifest, features, rc.model, rc.train,
                   word_table=word_table, caption_table=caption_table, scorer=rc.scorer)
    ckpt = result.checkpoint
    save_checkpoint(rc.checkpoint_out, ckpt.config, ckpt.params, ckpt.epoch,
                    ckpt.best_validation_map10)
    write_epoch_log(rc.epoch_log_out, result.log)
    print(f"best epoch {ckpt.epoch}: {result.final_report.to_json()}")
    return 0


def cmd_eval_retrieval(args) -> int:
    _check_out_path(args.out, "--out")
    checkpoint, manifest, features = _load_split(args)
    word_table, caption_table = _load_text_tables(
        checkpoint.model, args.word_embeddings, args.caption_embeddings)
    report = evaluate_retrieval(checkpoint, manifest, features,
                                word_table=word_table, caption_table=caption_table,
                                scorer=args.scorer)
    _emit(report.to_json(), args.out)
    return 0


def cmd_eval_captions(args) -> int:
    _check_out_path(args.out, "--out")
    scores = evaluate_captions(args.candidates, args.references, args.spice)
    _emit(scores.to_json(), args.out)
    return 0


def _read_query_vector(path: str) -> np.ndarray:
    """A flat structured-text array of finite numbers, as float64."""
    try:
        vec = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(vec, list) and all(type(v) in (int, float) for v in vec):
            vec = np.array(vec, dtype=np.float64)
            if np.isfinite(vec).all():  # NaN, Infinity, and 1e400 parsed as inf
                return vec
    except (ValueError, OverflowError) as e:  # bad UTF-8 or syntax, an int beyond float range
        raise RunConfigError(f"{path}: query vector is not a flat array of numbers ({e})") from e
    except RecursionError:  # nesting too deep for the parser
        raise RunConfigError(
            f"{path}: query vector is not a flat array of numbers (nested too deeply)") from None
    raise RunConfigError(f"{path}: query vector is not a flat array of numbers")


def cmd_rank(args) -> int:
    _check_out_path(args.out, "--out")
    checkpoint, manifest, features = _load_split(args)
    word_table = query_vector = None
    if checkpoint.model.text_mode == "word_average":
        word_table, _ = _load_text_tables(checkpoint.model, args.word_embeddings, None)
    elif args.query_vector is None:
        raise RunConfigError(
            "sentence_table checkpoint needs --query-vector (a structured-text "
            "array of floats; there is no text tower to embed raw words)")
    else:
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

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--checkpoint", required=True)
    scoring.add_argument("--captions", required=True, help="caption CSV of the split")
    scoring.add_argument("--features-dir", required=True)
    scoring.add_argument("--word-embeddings")
    scoring.add_argument("--feature-kind", choices=FEATURE_KINDS, default="log_mel_64")
    scoring.add_argument("--scorer", choices=SCORERS)
    scoring.add_argument("--split", default="evaluation", choices=SPLITS)
    scoring.add_argument("--out", help="also write the printed output to this path")

    p = sub.add_parser("eval-retrieval", parents=[scoring], help="score a checkpoint on a split")
    p.add_argument("--caption-embeddings")
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("eval-captions", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, help="CSV with header file_name,caption")
    p.add_argument("--references", required=True, help="caption CSV (5 refs per clip)")
    p.add_argument("--spice", help="structured-text file of per-clip SPICE values")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_eval_captions)

    p = sub.add_parser("rank", parents=[scoring], help="rank a split's clips against a text query")
    p.add_argument("--query", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--query-vector", help="vector file for sentence_table checkpoints")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RunConfigError, *_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:  # atomic_write has removed any half-written output
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
