"""The three benchmark workloads: which CLI commands they issue, the loading
that counts as set-up, the checks on each command's output, and how the
command timings become metrics.

Each workload is a closed loop with one client: the worker issues the
next command only after the previous one has returned.

Every figure is total work or time over all commands of one kind in the
run, never a single command or a median of a few: the shared machine
switches between a fast and a slow state every few seconds (the slow one
45-70% slower), and a median of a handful of commands jumps between
those states from run to run, while the mean moves with the share of
time spent in each.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from audiotext.cli import load_run_config
from audiotext.corpus import (
    FeatureDirectory,
    build_manifest,
    load_captions,
    load_word_embeddings,
    normalize_caption,
    read_fmat,
)
from audiotext.nnet import ModelConfig, TextEmbedder, encode_audio, init_params
from audiotext.nnet.checkpoint import load_checkpoint
from audiotext.textmetrics import load_candidates

import checks


@dataclass
class Record:
    """One command of the closed loop."""

    kind: str
    wall_s: float
    problems: list[str] = field(default_factory=list)


def percentile_report(samples: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"p50": statistics.median(ordered), "n": n}
    if n >= 20:
        pct = 100 * (n - 10) // n
        out[f"p{pct}"] = ordered[-(-pct * n // 100) - 1]
    return out


class Train:
    """One `train --config` command per loop step, always on the same run config."""

    name = "train"
    min_commands = 1

    def __init__(self, work: Path, sizes: dict):
        self.work = work
        self.sizes = sizes
        self.config_path = work / "run.json"
        self.digests: tuple[str, str] | None = None

    def command(self, index: int) -> tuple[str, list[str]]:
        return "train", ["train", "--config", str(self.config_path)]

    def setup(self) -> None:
        rc = load_run_config(self.config_path)
        train_caps = load_captions(rc.train_captions)
        val_caps = load_captions(rc.val_captions)
        build_manifest(train_caps, rc.features_dir, "development")
        build_manifest(val_caps, rc.features_dir, "validation")
        FeatureDirectory(rc.features_dir, feature_kind=rc.feature_kind)
        load_word_embeddings(rc.word_embeddings)

    def check(self, kind: str, argv: list[str], stdout: str) -> list[str]:
        rc = load_run_config(self.config_path)
        problems = []
        if not stdout.startswith("best epoch "):
            problems.append(f"train printed {stdout[:60]!r}")
        log_bytes = rc.epoch_log_out.read_bytes()
        ckpt_bytes = rc.checkpoint_out.read_bytes()
        problems += checks.check_epoch_log(log_bytes.decode("utf-8"), rc.train.epochs)
        ckpt = load_checkpoint(rc.checkpoint_out)
        config = ModelConfig.from_dict(ckpt.config)
        problems += checks.check_params_moved(ckpt.params, init_params(config, seed=config.seed))
        digests = (hashlib.sha256(ckpt_bytes).hexdigest(), hashlib.sha256(log_bytes).hexdigest())
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("checkpoint or epoch log bytes differ from the first train command")
        return problems

    def metrics(self, records: list[Record]) -> tuple[float, float, dict]:
        walls = [r.wall_s for r in records]
        rate = self.sizes["pairs"] * len(walls) / sum(walls)
        details = {"named": {"train_pairs_per_s": (rate, "pairs/s")},
                   "train_command_s": percentile_report(walls),
                   "checkpoint_sha256": self.digests[0] if self.digests else None,
                   "epoch_log_sha256": self.digests[1] if self.digests else None}
        return rate, 1000.0 * statistics.fmean(walls), details


class Retrieve:
    """`eval-retrieval`, then `rank` commands with distinct queries; every
    third command is another `eval-retrieval`, so its rate spans several."""

    name = "retrieve"
    min_commands = 2
    EVAL_EVERY = 3

    def __init__(self, work: Path, sizes: dict):
        self.work = work
        self.sizes = sizes
        self.queries = json.loads((work / "queries.json").read_text(encoding="utf-8"))
        self.common = ["--checkpoint", str(work / "model.ckpt"),
                       "--captions", str(work / "evaluation.csv"),
                       "--features-dir", str(work / "feats"),
                       "--word-embeddings", str(work / "words.txt")]
        self._reference = None

    def command(self, index: int) -> tuple[str, list[str]]:
        if index % self.EVAL_EVERY == 0:
            return "eval", ["eval-retrieval", *self.common]
        query = self.queries[index - 1 - index // self.EVAL_EVERY]
        return "rank", ["rank", *self.common, "--query", query,
                        "--top-k", str(self.sizes["top_k"])]

    def setup(self) -> None:
        ckpt = load_checkpoint(self.work / "model.ckpt")
        ModelConfig.from_dict(ckpt.config)
        captions = load_captions(self.work / "evaluation.csv")
        build_manifest(captions, self.work / "feats", "evaluation")
        FeatureDirectory(self.work / "feats")
        load_word_embeddings(self.work / "words.txt")

    def reference(self):
        """Per-clip embeddings, caption embeddings and ground truth, computed once."""
        if self._reference is None:
            ckpt = load_checkpoint(self.work / "model.ckpt")
            config = ModelConfig.from_dict(ckpt.config)
            captions = load_captions(self.work / "evaluation.csv")
            names = sorted({c.file_name for c in captions})
            audio = np.stack([
                encode_audio(read_fmat(self.work / "feats" / f"{name}.fmat", "log_mel_64"),
                             config, ckpt.params) for name in names])
            embedder = TextEmbedder(config, ckpt.params,
                                    word_table=load_word_embeddings(self.work / "words.txt"))
            ordered = sorted(captions, key=lambda c: (c.file_name, c.caption_index))
            text = np.stack([embedder.embed(c)[0] for c in ordered])
            truth = np.array([names.index(c.file_name) for c in ordered])
            self._reference = (names, audio, embedder, text, truth)
        return self._reference

    def check(self, kind: str, argv: list[str], stdout: str) -> list[str]:
        names, audio, embedder, text, truth = self.reference()
        if kind == "eval":
            expected = checks.expected_report(checks.exp_neg_euclid_matrix(text, audio), truth)
            return checks.check_eval_report(stdout, expected)
        qvec = embedder.embed_tokens(normalize_caption(argv[argv.index("--query") + 1]))[0]
        scores = checks.exp_neg_euclid_matrix(qvec[None, :], audio)[0]
        expected = checks.expected_ranking(scores, names, self.sizes["top_k"])
        return checks.check_rank_output(stdout, expected, set(names))

    def metrics(self, records: list[Record]) -> tuple[float, float, dict]:
        evals = [r.wall_s for r in records if r.kind == "eval"]
        ranks = [r.wall_s for r in records if r.kind == "rank"]
        rate = self.sizes["eval_clips"] * len(evals) / sum(evals)
        latency = percentile_report([1000.0 * w for w in ranks])
        details = {"named": {"eval_clips_per_s": (rate, "clips/s"),
                             "rank_latency_p50_ms": (latency["p50"], "ms")},
                   "rank_latency_ms": latency}
        return rate, statistics.fmean(1000.0 * w for w in ranks), details


class Offline:
    """`features` over the WAV directory, then `eval-captions`, alternating."""

    name = "offline"
    min_commands = 2

    def __init__(self, work: Path, sizes: dict):
        self.work = work
        self.sizes = sizes
        self.samples = json.loads((work / "wav_samples.json").read_text(encoding="utf-8"))
        self.first_scores: str | None = None

    def command(self, index: int) -> tuple[str, list[str]]:
        if index % 2 == 0:
            return "features", ["features", "--in-dir", str(self.work / "wav"),
                                "--out-dir", str(self.work / "feats_out")]
        return "captions", ["eval-captions", "--candidates", str(self.work / "candidates.csv"),
                            "--references", str(self.work / "references.csv")]

    def setup(self) -> None:
        sorted((self.work / "wav").glob("*.wav"))
        load_candidates(self.work / "candidates.csv")
        load_captions(self.work / "references.csv")

    def check(self, kind: str, argv: list[str], stdout: str) -> list[str]:
        if kind == "captions":
            problems = checks.check_caption_scores(stdout)
            if self.first_scores is None:
                self.first_scores = stdout
            elif stdout != self.first_scores:
                problems.append("eval-captions output differs from the first run")
            return problems
        frames = {name: checks.closed_form_frames(n, self.sizes["sample_rate"])
                  for name, n in self.samples.items()}
        problems = []
        want = f"files={len(frames)}, frames_total={sum(frames.values())}"
        if stdout.strip() != want:
            problems.append(f"features printed {stdout.strip()!r}, expected {want!r}")
        out_dir = Path(argv[argv.index("--out-dir") + 1])
        for name, count in frames.items():
            problems += checks.check_fmat(out_dir / f"{name}.fmat", count)
        shutil.rmtree(out_dir)  # so that stale files cannot pass the next check
        return problems

    def metrics(self, records: list[Record]) -> tuple[float, float, dict]:
        feats = [r.wall_s for r in records if r.kind == "features"]
        caps = [r.wall_s for r in records if r.kind == "captions"]
        rate = self.sizes["audio_seconds"] * len(feats) / sum(feats)
        captions_rate = self.sizes["caption_clips"] * len(caps) / sum(caps)
        details = {"named": {"features_audio_s_per_s": (rate, "audio-s/s"),
                             "captions_clips_per_s": (captions_rate, "clips/s")},
                   "captions_command_ms": percentile_report([1000.0 * w for w in caps])}
        return rate, 1000.0 * statistics.fmean(caps), details


WORKLOADS = {w.name: w for w in (Train, Retrieve, Offline)}
