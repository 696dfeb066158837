"""Seeded input generator for the benchmark workloads.

Every input a workload feeds to the CLI is written here as a file, and
every file is a pure function of (workload, seed, size). The program
under test sees only these files.

Distributions (see README.md for the reasons):

* clip lengths are stratified draws over the stated range (one draw in
  each of n equal-width strata, then shuffled), so each split covers the
  whole range and the total work per split barely moves with the seed;
* WAV durations are an evenly spaced grid over the stated range and a
  fixed share of them is stereo, always including the longest;
* captions have 8-20 tokens; tokens follow a Zipf law (exponent 1.07)
  over the word table, and a small share of token draws comes from
  words that are not in the table (out-of-vocabulary);
* WAVs are 16-bit 44.1 kHz noise plus tones; only their content
  depends on the seed.
"""

from __future__ import annotations

import csv
import json
import struct
import wave
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.07
FEATURE_DIM = 64
EMBED_DIM = 300
SAMPLE_RATE = 44100
CAPTION_TOKENS = (8, 20)
QUERY_TOKENS = (3, 10)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark size class."""

    words: int  # rows of the word-vector table
    oov_words: int  # words used in captions but absent from the table
    oov_share: float  # share of caption token draws that are out-of-vocabulary
    frames: tuple[int, int]  # clip length range in FMAT frames (20 ms hop)
    train_clips: int
    val_clips: int
    batch_size: int
    eval_clips: int
    queries: int  # distinct rank queries available to one run
    top_k: int
    wav_files: int
    wav_seconds: tuple[float, float]
    stereo_share: float
    caption_clips: int  # clips scored by eval-captions


SIZES = {
    # 40 training pairs in batches of 32: the last batch (8 pairs) always
    # spans two clips or more, as training rejects a batch from one clip.
    "full": Size(words=3000, oov_words=300, oov_share=0.03, frames=(750, 1500),
                 train_clips=8, val_clips=2, batch_size=32, eval_clips=10,
                 queries=400, top_k=10, wav_files=12, wav_seconds=(15.0, 30.0),
                 stereo_share=0.25, caption_clips=1000),
    "tiny": Size(words=200, oov_words=20, oov_share=0.03, frames=(40, 80),
                 train_clips=3, val_clips=2, batch_size=8, eval_clips=3,
                 queries=50, top_k=2, wav_files=3, wav_seconds=(0.5, 1.0),
                 stereo_share=0.34, caption_clips=20),
}


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values covering [lo, hi): one uniform draw per stratum, shuffled."""
    values = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return rng.permutation(values)


class Vocabulary:
    """Synthetic words, a Zipf sampler over them and an OOV share."""

    def __init__(self, rng: np.random.Generator, size: Size):
        syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
        pool = [a + b for a in syllables for b in syllables]
        pool += [a + b + c for a in syllables[:20] for b in syllables for c in syllables[:10]]
        chosen = rng.choice(len(pool), size=size.words + size.oov_words, replace=False)
        words = [pool[i] for i in chosen]
        self.table_words = words[:size.words]
        self.oov_words = words[size.words:]
        self.oov_share = size.oov_share
        self.rng = rng
        self._p_table = _zipf(len(self.table_words))
        self._p_oov = _zipf(len(self.oov_words))

    def tokens(self, n: int) -> list[str]:
        oov = self.rng.random(n) < self.oov_share
        table = self.rng.choice(len(self.table_words), size=n, p=self._p_table)
        other = self.rng.choice(len(self.oov_words), size=n, p=self._p_oov)
        return [self.oov_words[o] if is_oov else self.table_words[t]
                for is_oov, t, o in zip(oov, table, other)]

    def caption(self, lo: int = CAPTION_TOKENS[0], hi: int = CAPTION_TOKENS[1]) -> str:
        return sentence(self.tokens(int(self.rng.integers(lo, hi + 1))))


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return p / p.sum()


def sentence(tokens: list[str]) -> str:
    """Free-form caption text: capitalised, with a full stop."""
    text = " ".join(tokens)
    return text[:1].upper() + text[1:] + "."


def write_word_vectors(path: Path, words: list[str], rng: np.random.Generator) -> None:
    vectors = (0.3 * rng.standard_normal((len(words), EMBED_DIM))).astype(np.float32)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {EMBED_DIM}\n")
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(f"{v:.5f}" for v in row) + "\n")


def write_fmat(path: Path, frames: np.ndarray) -> None:
    frames = np.ascontiguousarray(frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"FMAT")
        fh.write(struct.pack("<III", 1, frames.shape[0], frames.shape[1]))
        fh.write(frames.tobytes())


def log_mel_like(rng: np.random.Generator, t: int) -> np.ndarray:
    """A (t, 64) matrix with the level and band structure of log-mel frames."""
    band_level = np.linspace(-2.0, -9.0, FEATURE_DIM)
    return band_level + 1.5 * rng.standard_normal((t, FEATURE_DIM))


def write_caption_csv(path: Path, rows: list[tuple[str, list[str]]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name"] + [f"caption_{i}" for i in range(1, 6)])
        for name, captions in rows:
            writer.writerow([name] + captions)


def write_clips(rng: np.random.Generator, vocab: Vocabulary, feats: Path,
                prefix: str, n: int, frames: tuple[int, int]) -> tuple[list, int]:
    """FMATs plus five captions for n clips; returns (csv rows, total frames)."""
    lengths = np.floor(stratified(rng, n, frames[0], frames[1] + 1)).astype(int)
    rows = []
    for i, t in enumerate(lengths):
        name = f"{prefix}_{i:04d}.wav"
        write_fmat(feats / f"{name}.fmat", log_mel_like(rng, int(t)))
        rows.append((name, [vocab.caption() for _ in range(5)]))
    return rows, int(lengths.sum())


def tower_layers() -> list[dict]:
    """The default tower: two k=3, C=64 conv blocks with ReLU and max-pool 2."""
    layers = []
    for _ in range(2):
        layers += [{"kind": "conv1d", "in_dim": FEATURE_DIM, "out_dim": FEATURE_DIM,
                    "kernel_width": 3},
                   {"kind": "relu"},
                   {"kind": "max_pool_time", "pool_stride": 2}]
    return layers


def model_dict(cell: str, loss: str, seed: int) -> dict:
    return {"feature_dim": FEATURE_DIM, "audio_tower": tower_layers(),
            "recurrent_cell": cell, "embed_dim": EMBED_DIM,
            "projection": {"out_dim": EMBED_DIM, "activation": "relu"},
            "text_mode": "word_average", "loss": loss, "seed": seed}


def gen_train(rng, size: Size, seed: int, out: Path) -> dict:
    vocab = Vocabulary(rng, size)
    write_word_vectors(out / "words.txt", vocab.table_words, rng)
    feats = out / "feats"
    feats.mkdir()
    dev, dev_frames = write_clips(rng, vocab, feats, "dev", size.train_clips, size.frames)
    val, val_frames = write_clips(rng, vocab, feats, "val", size.val_clips, size.frames)
    write_caption_csv(out / "development.csv", dev)
    write_caption_csv(out / "validation.csv", val)
    model = model_dict("gru", "triplet", seed)
    del model["seed"]  # the run config's top-level seed feeds the model
    config = {
        "seed": seed,
        "model": model,
        "train": {"epochs": 1, "batch_size": size.batch_size, "early_stop_patience": 10},
        "data": {"train_captions": "development.csv", "val_captions": "validation.csv",
                 "features_dir": "feats", "word_embeddings": "words.txt"},
        "out": {"checkpoint": "out/model.ckpt", "epoch_log": "out/epochs.csv"},
    }
    (out / "run.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return {"train_clips": size.train_clips, "val_clips": size.val_clips,
            "pairs": 5 * size.train_clips, "train_frames": dev_frames,
            "val_frames": val_frames, "words": size.words, "batch_size": size.batch_size,
            "epochs": 1}


def gen_retrieve(rng, size: Size, seed: int, out: Path) -> dict:
    from audiotext.nnet import ModelConfig, init_params
    from audiotext.nnet.checkpoint import save_checkpoint

    vocab = Vocabulary(rng, size)
    write_word_vectors(out / "words.txt", vocab.table_words, rng)
    feats = out / "feats"
    feats.mkdir()
    rows, frames = write_clips(rng, vocab, feats, "eval", size.eval_clips, size.frames)
    write_caption_csv(out / "evaluation.csv", rows)
    config = ModelConfig.from_dict(model_dict("lstm", "bce_expdist", seed))
    save_checkpoint(out / "model.ckpt", config.to_dict(), init_params(config, seed=seed),
                    0, 0.0)
    queries: list[str] = []
    seen: set[str] = set()
    while len(queries) < size.queries:
        q = vocab.caption(*QUERY_TOKENS)
        if q not in seen:
            seen.add(q)
            queries.append(q)
    (out / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
    return {"eval_clips": size.eval_clips, "eval_frames": frames, "words": size.words,
            "queries_available": size.queries, "top_k": size.top_k}


def write_wav(path: Path, rng: np.random.Generator, seconds: float, channels: int) -> int:
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    mono = 0.1 * rng.standard_normal(n)
    for freq in rng.uniform(80.0, 8000.0, size=3):
        mono += 0.2 * np.sin(2 * np.pi * freq * t)
    if channels == 2:
        signal = np.stack([mono, 0.8 * mono + 0.05 * rng.standard_normal(n)], axis=1)
    else:
        signal = mono[:, None]
    pcm = np.clip(np.rint(signal * 8000.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())
    return n


def gen_offline(rng, size: Size, seed: int, out: Path) -> dict:
    wav_dir = out / "wav"
    wav_dir.mkdir()
    # The peak memory of `features` depends on the sizes of the files and
    # the order they are read in (heap reuse), so durations are an evenly
    # spaced grid named in increasing order, and the stereo files are evenly
    # spaced among them, the longest included; the seed varies the signals.
    n = size.wav_files
    lo, hi = size.wav_seconds
    seconds = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    n_stereo = round(size.stereo_share * n)
    stereo = {n - 1 - round(k * n / n_stereo) for k in range(n_stereo)}
    samples = {}
    for i, sec in enumerate(seconds):
        name = f"clip_{i:04d}.wav"
        samples[name] = write_wav(wav_dir / name, rng, float(sec), 2 if i in stereo else 1)
    vocab = Vocabulary(rng, size)
    refs = []
    cands = []
    for i in range(size.caption_clips):
        name = f"eval_{i:05d}.wav"
        captions = [vocab.caption() for _ in range(5)]
        refs.append((name, captions))
        cands.append((name, candidate_caption(rng, vocab, captions)))
    write_caption_csv(out / "references.csv", refs)
    with open(out / "candidates.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name", "caption"])
        writer.writerows(cands)
    (out / "wav_samples.json").write_text(json.dumps(samples), encoding="utf-8")
    return {"wav_files": size.wav_files, "stereo_files": len(stereo),
            "audio_seconds": sum(samples.values()) / SAMPLE_RATE,
            "sample_rate": SAMPLE_RATE, "caption_clips": size.caption_clips}


def candidate_caption(rng, vocab: Vocabulary, references: list[str]) -> str:
    """A system-like caption: most tokens of one reference, some replaced."""
    ref = references[int(rng.integers(0, len(references)))].rstrip(".").lower().split()
    n = int(rng.integers(CAPTION_TOKENS[0], CAPTION_TOKENS[1] + 1))
    fresh = vocab.tokens(n)
    keep = rng.random(n) < 0.6
    return sentence([ref[i] if keep[i] and i < len(ref) else fresh[i] for i in range(n)])


GENERATORS = {"train": gen_train, "retrieve": gen_retrieve, "offline": gen_offline}


def generate(workload: str, seed: int, size_name: str, out: Path) -> dict:
    """Write every input of one workload under `out`; returns the sizes used."""
    size = SIZES[size_name]
    out.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    sizes = GENERATORS[workload](rng, size, seed, out)
    sizes["size"] = size_name
    (out / "sizes.json").write_text(json.dumps({"sizes": sizes, "size_class": asdict(size)}),
                                    encoding="utf-8")
    return sizes
