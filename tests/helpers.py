"""Shared fixture builders: WAV files, caption CSVs, embedding tables,
synthetic datasets, and tiny model configs."""

from __future__ import annotations

import csv
import struct
import wave as wave_mod
from pathlib import Path

import numpy as np

from audiotext.corpus import (
    EVEC_MAGIC,
    CaptionEmbeddingTable,
    CaptionRecord,
    CorpusError,
    DatasetManifest,
    EmbeddingTable,
    FeatureSequence,
    ManifestItem,
    _check_caption_key,
    atomic_write,
)
from audiotext.dsp import hz_to_mel, mel_to_hz
from audiotext.nnet import LayerSpec, ModelConfig
from audiotext.nnet.checkpoint import _MAGIC as CHECKPOINT_MAGIC
from audiotext.nnet.checkpoint import _canonical_json
from audiotext.textmetrics import CaptionEvalItem, CaptionEvalSet, meteor_lite

VOCAB10 = tuple(f"w{i}" for i in range(10))


def write_wav(path, samples, sample_rate, channels=1):
    """Write 16-bit PCM via the stdlib writer (the reader under test is
    the package's own). samples: int16 array, (N,) or (N, channels)."""
    arr = np.asarray(samples, dtype="<i2")
    if arr.ndim == 1:
        arr = arr[:, None]
    assert arr.shape[1] == channels
    with wave_mod.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(arr.tobytes())
    return Path(path)


def sine_wav(path, freq_hz, sample_rate, seconds=1.0, amplitude=0.5):
    t = np.arange(int(round(sample_rate * seconds))) / sample_rate
    samples = np.round(amplitude * 32767.0 * np.sin(2 * np.pi * freq_hz * t)).astype(np.int16)
    return write_wav(path, samples, sample_rate)


def mel_band_centers(sample_rate, n_mels, f_min=0.0, f_max=None):
    """The triangle peaks in Hz of ``mel_filterbank``'s bands: n_mels points
    equally spaced on the mel axis strictly inside [f_min, f_max]."""
    f_max = sample_rate / 2.0 if f_max is None else f_max
    return mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))[1:-1]


def write_caption_csv(path, rows):
    """rows: list of (file_name, [five caption strings])."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["file_name"] + [f"caption_{i}" for i in range(1, 6)])
        for file_name, captions in rows:
            writer.writerow([file_name] + list(captions))
    return Path(path)


def write_candidates_csv(path, rows):
    """rows: list of (file_name, caption string)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["file_name", "caption"])
        writer.writerows(rows)
    return Path(path)


def write_word_embeddings(path, entries):
    """entries: dict word -> vector."""
    dim = len(next(iter(entries.values())))
    lines = [f"{len(entries)} {dim}"]
    for word, vec in entries.items():
        lines.append(word + " " + " ".join(repr(float(v)) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def word_cache_path(path):
    """The sidecar ``load_word_embeddings`` keeps beside a word table."""
    return path.with_name(f".{path.name}.audiotext-cache")


def no_parse(path):
    """Stands in for ``corpus._parse_word_embeddings`` where a load must
    come from the sidecar."""
    raise AssertionError(f"{path} parsed, expected a load from its cache")


def embedding_table(entries, dim=None, cls=EmbeddingTable):
    """A table holding ``entries`` (dict key -> vector) in dict order; ``dim``
    gives the width of an empty table."""
    vectors = [np.asarray(v, dtype=np.float32) for v in entries.values()]
    matrix = np.empty((0, dim), dtype=np.float32) if not vectors else np.stack(vectors)
    return cls(index={key: row for row, key in enumerate(entries)}, matrix=matrix)


def write_caption_embeddings(path, table):
    """Write an EVEC file (records in the order of the table's index)."""
    with atomic_write(path, "wb") as fh:
        fh.write(EVEC_MAGIC)
        fh.write(struct.pack("<II", len(table), table.dim))
        for key, row in table.index.items():
            _check_caption_key(key, "write_caption_embeddings")
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CorpusError(f"key too long: {key!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(table.matrix[row].astype("<f4").tobytes())


def write_unchecked_checkpoint(path, config, params, epoch=1, best_validation_map10=0.0):
    """Write a checkpoint in the layout of `save_checkpoint`, without its check
    that the parameter list fits the config: the files `load_checkpoint`
    must refuse."""
    header = {"config": config,
              "parameters": [{"name": name, "shape": list(t.data.shape)}
                             for name, t in params.items()],
              "epoch": epoch, "best_validation_mAP10": best_validation_map10}
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        for t in params.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def random_word_table(vocab, dim, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    entries = {w: (scale * rng.standard_normal(dim)).astype(np.float32) for w in vocab}
    return embedding_table(entries)


def small_tower(feature_dim, channels=(6, 6)):
    c1, c2 = channels
    return (
        LayerSpec("conv1d", in_dim=feature_dim, out_dim=c1, kernel_width=3),
        LayerSpec("relu"),
        LayerSpec("max_pool_time", pool_stride=2),
        LayerSpec("conv1d", in_dim=c1, out_dim=c2, kernel_width=3),
        LayerSpec("relu"),
        LayerSpec("max_pool_time", pool_stride=2),
    )


def small_config(feature_dim=8, embed_dim=6, **overrides):
    kwargs = dict(
        feature_dim=feature_dim,
        audio_tower=small_tower(feature_dim),
        recurrent_cell="gru",
        embed_dim=embed_dim,
        loss="triplet",
        margin=1.0,
        seed=0,
        lr=1e-3,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def synthetic_dataset(n_clips, feature_shape=(12, 8), captions_per_clip=5,
                      vocab=VOCAB10, seed=0):
    """In-memory dataset: manifest + caption records + features dict.

    Captions are random token strings over `vocab`; features are random
    float32 matrices. Everything is a pure function of `seed`.
    """
    rng = np.random.default_rng(seed)
    records = []
    items = []
    features = {}
    for c in range(n_clips):
        name = f"clip{c:03d}.wav"
        frames = rng.standard_normal(feature_shape).astype(np.float32)
        features[name] = FeatureSequence(frames=frames, source_file=name)
        clip_records = []
        for idx in range(1, captions_per_clip + 1):
            n_tok = int(rng.integers(2, 7))
            tokens = tuple(vocab[int(rng.integers(0, len(vocab)))] for _ in range(n_tok))
            rec = CaptionRecord(file_name=name, caption_index=idx,
                                raw_text=" ".join(tokens), tokens=tokens)
            clip_records.append(rec)
        records.extend(clip_records)
        items.append(ManifestItem(file_name=name, captions=tuple(clip_records)))
    manifest = DatasetManifest(items=tuple(items))
    return manifest, records, features


def caption_table_for(records, dim, seed):
    rng = np.random.default_rng(seed)
    entries = {r.key: rng.standard_normal(dim).astype(np.float32) for r in records}
    return embedding_table(entries, dim, CaptionEmbeddingTable)


def toy_metric_corpus(rng, n_items=4, n_refs=5, vocab=VOCAB10, max_len=8):
    """Random caption-metric corpus as (candidate, references) pairs.
    Candidates may be empty; references always have >= 1 token."""
    items = []
    for _ in range(n_items):
        c_len = int(rng.integers(0, max_len + 1))
        cand = tuple(vocab[int(rng.integers(0, len(vocab)))] for _ in range(c_len))
        refs = []
        for _ in range(n_refs):
            r_len = int(rng.integers(1, max_len + 1))
            refs.append(tuple(vocab[int(rng.integers(0, len(vocab)))] for _ in range(r_len)))
        items.append((cand, tuple(refs)))
    return items


def meteor_lite_item(candidate, references, alpha=0.9, beta=3.0, gamma=0.5):
    """Exact-match METEOR of one candidate: best score over references."""
    item = CaptionEvalItem("candidate", tuple(candidate), tuple(map(tuple, references)))
    return meteor_lite(CaptionEvalSet((item,)), alpha, beta, gamma)
