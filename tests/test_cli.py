"""Command-line pipeline tests, all driven through cli.main(argv).

Output is captured with redirect_stdout/redirect_stderr rather than a
capture fixture so the suite can run with output capture disabled.
"""

import concurrent.futures
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from audiotext import cli, corpus, optim, textmetrics
from audiotext.cli import load_run_config, main
from audiotext.corpus import (
    load_captions,
    read_fmat,
    write_fmat,
)
from audiotext.dsp import log_mel_features, read_wav
from audiotext.nnet import (AudioTower, ModelConfig, Tensor, init_params, load_checkpoint,
                            save_checkpoint)
from audiotext.optim import EPOCH_LOG_HEADER

from helpers import (
    VOCAB10,
    caption_table_for,
    no_parse,
    sine_wav,
    small_config,
    small_tower,
    toy_metric_corpus,
    write_caption_csv,
    write_caption_embeddings,
    word_cache_path,
    write_candidates_csv,
    write_unchecked_checkpoint,
    write_word_embeddings,
)
from oracles import bleu_corpus_reference, cider_d_per_item_reference


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def make_dataset(root, n_clips=4, n_frames=12, feature_dim=8, embed_dim=6, seed=0):
    """On-disk corpus: FMAT features, train/val caption CSVs, word vectors."""
    root = Path(root)
    feats = root / "feats"
    feats.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = [f"clip{c:03d}.wav" for c in range(n_clips)]
    for name in names:
        write_fmat(feats / f"{name}.fmat",
                   rng.standard_normal((n_frames, feature_dim)).astype(np.float32))
    rows = []
    for name in names:
        caps = []
        for _ in range(5):
            n_tok = int(rng.integers(2, 7))
            caps.append(" ".join(VOCAB10[int(rng.integers(0, len(VOCAB10)))]
                                 for _ in range(n_tok)))
        rows.append((name, caps))
    train_csv = write_caption_csv(root / "train.csv", rows)
    val_csv = write_caption_csv(root / "val.csv", rows)
    words = {w: 0.5 * rng.standard_normal(embed_dim) for w in VOCAB10}
    words_path = write_word_embeddings(root / "words.vec", words)
    return {
        "root": root, "feats": feats, "train_csv": train_csv,
        "val_csv": val_csv, "words": words_path, "names": names,
    }


def base_config_dict(ds, out_dir, epochs=3, batch_size=8):
    model = small_config().to_dict()
    del model["seed"]
    return {
        "seed": 0,
        "model": model,
        "train": {"epochs": epochs, "batch_size": batch_size},
        "data": {
            "train_captions": str(ds["train_csv"]),
            "val_captions": str(ds["val_csv"]),
            "features_dir": str(ds["feats"]),
            "word_embeddings": str(ds["words"]),
            "feature_kind": "external",
        },
        "out": {
            "checkpoint": str(Path(out_dir) / "model.ckpt"),
            "epoch_log": str(Path(out_dir) / "epochs.csv"),
        },
    }


def write_config(path, cfg):
    Path(path).write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return Path(path)


def make_checkpoint(path, config, seed=3, epoch=1, map10=0.0):
    save_checkpoint(path, config.to_dict(), init_params(config, seed=seed),
                    epoch, map10)
    return Path(path)


def test_unknown_command_exits_2():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc_info:
            main(["transmogrify"])
    assert exc_info.value.code == 2


def test_features_writes_fmat_files(tmp_path):
    in_dir = tmp_path / "wav"
    out_dir = tmp_path / "fmat"
    in_dir.mkdir()
    for name, freq in (("a.wav", 440.0), ("b.wav", 1000.0), ("c.wav", 2500.0)):
        sine_wav(in_dir / name, freq, 16000)

    code, out, err = run_cli(["features", "--in-dir", str(in_dir),
                              "--out-dir", str(out_dir)])
    assert code == 0
    assert err == ""
    # 1 s at 16 kHz with 40 ms window / 20 ms hop is 49 frames per file
    assert out == "files=3, frames_total=147\n"

    for name in ("a.wav", "b.wav", "c.wav"):
        feats = read_fmat(out_dir / f"{name}.fmat")
        assert feats.frames.shape == (49, 64)
        assert feats.frames.dtype == np.float32

    direct = log_mel_features(read_wav(in_dir / "b.wav"))
    stored = read_fmat(out_dir / "b.wav.fmat")
    assert np.array_equal(stored.frames, direct.frames)


def test_features_custom_window_and_mels(tmp_path):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    sine_wav(in_dir / "tone.wav", 500.0, 16000)
    out_dir = tmp_path / "fmat"

    code, out, _ = run_cli(["features", "--in-dir", str(in_dir),
                            "--out-dir", str(out_dir),
                            "--n-mels", "24", "--win-ms", "50", "--hop-ms", "25"])
    assert code == 0
    # 1 + (16000 - 800) // 400 frames
    assert out == "files=1, frames_total=39\n"
    assert read_fmat(out_dir / "tone.wav.fmat").frames.shape == (39, 24)


def test_features_reports_corrupt_file_and_continues(tmp_path):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    sine_wav(in_dir / "good.wav", 440.0, 16000)
    (in_dir / "bad.wav").write_bytes(b"RIFF" + b"\x00" * 40)
    out_dir = tmp_path / "fmat"

    code, out, err = run_cli(["features", "--in-dir", str(in_dir),
                              "--out-dir", str(out_dir)])
    assert code == 1
    assert err == f"error: bad.wav: {in_dir / 'bad.wav'}: not a RIFF/WAVE file\n"
    assert out == "files=1, frames_total=49\n"
    assert (out_dir / "good.wav.fmat").is_file()
    assert not (out_dir / "bad.wav.fmat").exists()


def _five_wavs_two_corrupt(in_dir):
    """a..e.wav, 0.5-1.3 s at 16 kHz; b.wav is not a RIFF file and d.wav is
    cut inside its data chunk."""
    in_dir.mkdir()
    for i, name in enumerate("abcde"):
        sine_wav(in_dir / f"{name}.wav", 300.0 + 200.0 * i, 16000, seconds=0.5 + 0.2 * i)
    (in_dir / "b.wav").write_bytes(b"RIFF" + b"\x00" * 40)
    d = in_dir / "d.wav"
    d.write_bytes(d.read_bytes()[:-3])
    return (f"error: b.wav: {in_dir / 'b.wav'}: not a RIFF/WAVE file\n"
            f"error: d.wav: {in_dir / 'd.wav'}: truncated chunk b'data'\n")


def test_features_reports_corrupt_files_in_file_order(tmp_path):
    in_dir, out_dir = tmp_path / "wav", tmp_path / "fmat"
    expected_err = _five_wavs_two_corrupt(in_dir)

    code, out, err = run_cli(["features", "--in-dir", str(in_dir), "--out-dir", str(out_dir)])
    assert code == 1
    assert err == expected_err
    # 0.5, 0.9 and 1.3 s: 24, 44 and 64 frames
    assert out == "files=3, frames_total=132\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.wav.fmat", "c.wav.fmat",
                                                        "e.wav.fmat"]
    for name in ("a.wav", "c.wav", "e.wav"):
        direct = log_mel_features(read_wav(in_dir / name))
        assert np.array_equal(read_fmat(out_dir / f"{name}.fmat").frames, direct.frames)


def _run_features_on_cpus(monkeypatch, cpus, in_dir, out_dir, *flags):
    """``features`` as if the process could run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return run_cli(["features", "--in-dir", str(in_dir), "--out-dir", str(out_dir), *flags])


# at 400 ms / 10 ms, f.wav has 161 frames: five chunks of 32 and a one-row one
@pytest.mark.parametrize("flags", [(), ("--win-ms", "400", "--hop-ms", "10")],
                         ids=["defaults", "long_window"])
def test_features_output_does_not_depend_on_worker_count(tmp_path, monkeypatch, flags):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the worker rule counts CPUs
    in_dir = tmp_path / "wav"
    expected_err = _five_wavs_two_corrupt(in_dir)
    sine_wav(in_dir / "f.wav", 3000.0, 16000, seconds=2.0)
    sine_wav(in_dir / "g.wav", 700.0, 22050, seconds=1.5)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers switch often; 8 CPUs give one per file
    try:
        for cpus in (1, 2, 4, 8):
            out_dir = tmp_path / f"fmat{cpus}"
            code, out, err = _run_features_on_cpus(monkeypatch, cpus, in_dir, out_dir, *flags)
            runs[cpus] = (code, out, err, {p.name: p.read_bytes() for p in out_dir.iterdir()})
    finally:
        sys.setswitchinterval(interval)
    code, out, err, fmats = runs[1]
    assert (code, err) == (1, expected_err)
    assert sorted(fmats) == ["a.wav.fmat", "c.wav.fmat", "e.wav.fmat", "f.wav.fmat",
                             "g.wav.fmat"]
    assert runs[2] == runs[4] == runs[8] == runs[1]


def _recorded_worker_counts(monkeypatch):
    """The max_workers of each thread pool started from here on."""
    workers = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return workers


def test_features_starts_one_worker_per_cpu_and_no_more_than_files(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    for name in ("a.wav", "b.wav", "c.wav"):
        sine_wav(in_dir / name, 440.0, 16000, seconds=0.1)
    workers = _recorded_worker_counts(monkeypatch)
    for cpus in (1, 2, 8):
        assert _run_features_on_cpus(monkeypatch, cpus, in_dir, tmp_path / "fmat")[0] == 0
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity mask here
    for cpus in (2, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_cli(["features", "--in-dir", str(in_dir),
                        "--out-dir", str(tmp_path / "fmat")])[0] == 0
    assert workers == [1, 2, 3, 2, 1]


# OpenBLAS reads OPENBLAS_NUM_THREADS, and OMP_NUM_THREADS only when that is unset;
# unset, it runs one thread per CPU, and its threads made two workers slower than one
@pytest.mark.parametrize("env, want", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 8),
], ids=["unset", "openblas_2", "openblas_2_omp_1", "omp_1"])
def test_features_runs_one_worker_unless_blas_runs_one_thread(tmp_path, monkeypatch, env, want):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    for i in range(8):
        sine_wav(in_dir / f"{i}.wav", 200.0 + 100.0 * i, 16000, seconds=0.1)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    workers = _recorded_worker_counts(monkeypatch)
    assert _run_features_on_cpus(monkeypatch, 8, in_dir, tmp_path / "fmat") == \
        (0, "files=8, frames_total=32\n", "")
    assert workers == [want]


def test_features_interrupt_finishes_only_the_files_in_flight(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # two workers on two CPUs
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    names = [f"{i}.wav" for i in range(8)]
    for i, name in enumerate(names):
        sine_wav(in_dir / name, 200.0 + 300.0 * i, 16000, seconds=0.3)
    code, _, _ = _run_features_on_cpus(monkeypatch, 1, in_dir, tmp_path / "one")
    assert code == 0

    k = 3
    started = []

    def read_wav_interrupted_at_k(path):
        index = names.index(Path(path).name)
        started.append(index)
        if index == k:
            raise KeyboardInterrupt
        if index > k:
            time.sleep(0.3)  # the main thread cancels the queue meanwhile
        return read_wav(path)

    monkeypatch.setattr(cli, "read_wav", read_wav_interrupted_at_k)
    out_dir = tmp_path / "two"
    with pytest.raises(KeyboardInterrupt):
        _run_features_on_cpus(monkeypatch, 2, in_dir, out_dir)
    assert max(started) <= k + 2
    assert sorted(started)[:k + 1] == list(range(k + 1))
    written = sorted(p.name for p in out_dir.iterdir())
    assert [p for p in written if p.endswith(".tmp")] == []
    # every file started but k was finished before the interrupt propagated
    assert written == sorted(f"{names[i]}.fmat" for i in started if i != k)
    for name in written:
        assert (out_dir / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_importing_the_cli_does_not_load_the_executor():
    # concurrent.futures costs a few ms of import time that rank should not pay
    probe = "import sys, audiotext.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("flag, value, shown", [
    ("--win-ms", "nan", "win_ms=nan hop_ms=20.0"),
    ("--win-ms", "inf", "win_ms=inf hop_ms=20.0"),
    ("--hop-ms", "nan", "win_ms=40.0 hop_ms=nan"),
    ("--hop-ms", "-inf", "win_ms=40.0 hop_ms=-inf"),
])
def test_features_non_finite_window_is_an_error(tmp_path, flag, value, shown):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    sine_wav(in_dir / "a.wav", 440.0, 16000)
    sine_wav(in_dir / "b.wav", 1000.0, 16000)
    out_dir = tmp_path / "fmat"

    code, out, err = run_cli(["features", "--in-dir", str(in_dir),
                              "--out-dir", str(out_dir), f"{flag}={value}"])
    assert code == 1
    assert out == "files=0, frames_total=0\n"
    assert err == (f"error: a.wav: window/hop not finite at sr=16000: {shown}\n"
                   f"error: b.wav: window/hop not finite at sr=16000: {shown}\n")
    assert list(out_dir.iterdir()) == []


def test_features_empty_dir_fails(tmp_path):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    code, out, err = run_cli(["features", "--in-dir", str(in_dir),
                              "--out-dir", str(tmp_path / "fmat")])
    assert code == 1
    assert "no input files" in err
    assert out == ""


def test_load_run_config_resolves_and_seeds(tmp_path):
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    cfg["seed"] = 11
    cfg["data"]["train_captions"] = "train.csv"  # relative to the config dir
    path = write_config(tmp_path / "run.json", cfg)

    rc = load_run_config(path)
    assert rc.train_captions == tmp_path / "train.csv"
    assert rc.model.seed == 11
    assert rc.train.seed == 12
    assert rc.train.epochs == 3
    assert rc.scorer is None
    assert rc.feature_kind == "external"
    assert rc.checkpoint_out == tmp_path / "run" / "model.ckpt"


def _set(*path_and_value):
    """An edit of the run config that sets the value at path."""
    *path, value = path_and_value

    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return cfg
    return edit


def _drop(*path):
    """An edit of the run config that deletes the key at path."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return cfg
    return edit


def _sentence_table_without_table(cfg):
    cfg["model"]["text_mode"] = "sentence_table"
    return cfg


# case -> (edit of a valid run config, the whole error line after "error: {path}: ")
BAD_CONFIGS = {
    "unknown_top": (_set("optimizer", "adam"), "unknown keys ['optimizer']"),
    "model_seed": (_set("model", "seed", 4), "model.seed: set the top-level seed instead"),
    "train_seed": (_set("train", "seed", 4), "train.seed: set the top-level seed instead"),
    "missing_out_key": (_drop("out", "epoch_log"), "out.epoch_log: required"),
    "bad_feature_kind": (_set("data", "feature_kind", "mfcc"),
                         "data.feature_kind: 'mfcc' not in ('log_mel_64', 'external')"),
    "bad_batch_size": (_set("train", "batch_size", 1),
                       "train: batch_size must be >= 2 (imposter sampling), got 1"),
    "missing_word_embeddings": (_drop("data", "word_embeddings"),
                                "data.word_embeddings: required for word_average text mode"),
    "bool_seed": (_set("seed", True), "seed: must be an integer"),
    "missing_feature_dim": (_drop("model", "feature_dim"), "model.feature_dim: required"),
    "unknown_data_key": (_set("data", "clips", "x"), "data: unknown keys ['clips']"),
    "missing_model": (_drop("model"), "model: required object"),
    "str_embed_dim": (_set("model", "embed_dim", "8"),
                      "model: embed_dim: must be an integer, got '8'"),
    "str_margin": (_set("model", "margin", "x"), "model: margin: must be a number, got 'x'"),
    "str_epochs": (_set("train", "epochs", "2"), "train: epochs: must be an integer, got '2'"),
    "float_epochs": (_set("train", "epochs", 1.5),
                     "train: epochs: must be an integer, got 1.5"),
    "bool_epochs": (_set("train", "epochs", True),
                    "train: epochs: must be an integer, got True"),
    "float_batch_size": (_set("train", "batch_size", 4.5),
                         "train: batch_size: must be an integer, got 4.5"),
    "int_audio_tower": (_set("model", "audio_tower", 5),
                        "model: audio_tower: must be a list of layer objects, got 5"),
    "int_projection": (_set("model", "projection", 5),
                       "model: projection: must be an object with an out_dim, got 5"),
    "int_data_path": (_set("data", "train_captions", 5),
                      "data.train_captions: must be a path string, got 5"),
    "int_out_path": (_set("out", "checkpoint", 5), "out.checkpoint: must be a path string, got 5"),
    "null_out_path": (_set("out", "epoch_log", None),
                      "out.epoch_log: must be a path string, got None"),
    "null_train_captions": (_set("data", "train_captions", None),
                            "data.train_captions: must be a path string, got None"),
    "null_val_captions": (_set("data", "val_captions", None),
                          "data.val_captions: must be a path string, got None"),
    "null_features_dir": (_set("data", "features_dir", None),
                          "data.features_dir: must be a path string, got None"),
    "big_beta1": (_set("model", "beta1", 5.0), "model: beta1 must be in [0, 1), got 5.0"),
    "one_beta1": (_set("model", "beta1", 1.0), "model: beta1 must be in [0, 1), got 1.0"),
    "negative_beta2": (_set("model", "beta2", -1.0),
                       "model: beta2 must be in [0, 1), got -1.0"),
    "zero_adam_eps": (_set("model", "adam_eps", 0.0),
                      "model: adam_eps must be positive, got 0.0"),
    "nan_lr": (_set("model", "lr", math.nan), "model: lr must be positive, got nan"),
    "nan_margin": (_set("model", "margin", math.nan), "model: margin must be positive, got nan"),
    "nan_min_lr": (_set("train", "min_lr", math.nan), "train: min_lr must be positive, got nan"),
    "inf_lr": (_set("model", "lr", math.inf), "model: lr must be finite, got inf"),
    "inf_margin": (_set("model", "margin", math.inf), "model: margin must be finite, got inf"),
    "inf_adam_eps": (_set("model", "adam_eps", math.inf),
                     "model: adam_eps must be finite, got inf"),
    "inf_min_lr": (_set("train", "min_lr", math.inf), "train: min_lr must be finite, got inf"),
    "huge_margin": (_set("model", "margin", 10 ** 400),
                    "model: margin: integer too large for a float"),
    "huge_min_lr": (_set("train", "min_lr", 10 ** 400),
                    "train: min_lr: integer too large for a float"),
    # the rules below had no exact-text test before
    "list_top": (lambda cfg: [cfg], "top level must be an object"),
    "list_train": (_set("train", []), "train: must be an object"),
    "str_data": (_set("data", "x"), "data: required object"),
    "null_out": (_set("out", None), "out: required object"),
    "unknown_out_key": (_set("out", "report", "r.json"), "out: unknown keys ['report']"),
    "missing_caption_embeddings": (
        _sentence_table_without_table,
        "data.caption_embeddings: required for sentence_table text mode"),
    "bad_scorer": (_set("scorer", "cosine"),
                   "scorer: 'cosine' not in ('dot', 'exp_neg_euclid')"),
    "layer_without_kind": (_drop("model", "audio_tower", 1, "kind"),
                           "model: audio_tower: each layer must be an object with a kind, "
                           "got {}"),
    "unknown_layer_key": (_set("model", "audio_tower", 0, "stride", 2),
                          "model: unknown LayerSpec keys ['stride']"),
    "unknown_projection_key": (_set("model", "projection", {"out_dim": 4, "bias": False}),
                               "model: unknown projection keys ['bias']"),
    "one_plateau_factor": (_set("train", "plateau_factor", 1.0),
                           "train: plateau_factor must be in (0,1), got 1.0"),
    "zero_plateau_factor": (_set("train", "plateau_factor", 0),
                            "train: plateau_factor must be in (0,1), got 0"),
    "bad_recurrent_cell": (_set("model", "recurrent_cell", "rnn"),
                           "model: recurrent_cell must be gru|lstm|none, got 'rnn'"),
    "bad_text_mode": (_set("model", "text_mode", "chars"),
                      "model: text_mode must be word_average|sentence_table, got 'chars'"),
    "bad_loss": (_set("model", "loss", "mse"),
                 "model: loss must be triplet|bce_expdist, got 'mse'"),
    "zero_projection_out_dim": (_set("model", "projection", {"out_dim": 0}),
                                "model: projection out_dim must be >= 1"),
    "tanh_projection": (_set("model", "projection", {"out_dim": 4, "activation": "tanh"}),
                        "model: projection activation 'tanh'"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_train_rejects_bad_configs(tmp_path, case):
    ds = make_dataset(tmp_path)
    edit, line = BAD_CONFIGS[case]
    path = write_config(tmp_path / "run.json", edit(base_config_dict(ds, tmp_path / "run")))

    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {line}\n"
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_train_config_must_be_valid_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert "not valid structured text" in err


def test_train_config_nested_too_deeply_is_an_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: not valid structured text: nested too deeply\n"


def test_train_config_integer_too_long_to_parse_is_an_error(tmp_path):
    # Python's int parser refuses more than 4,300 digits with a ValueError
    path = tmp_path / "run.json"
    path.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not valid structured text: ")
    assert err.count("\n") == 1


def test_train_rejects_negative_kernel_width(tmp_path):
    # an odd negative width used to pass validation and end in an IndexError
    # while the parameters were drawn
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    cfg["model"]["audio_tower"][0]["kernel_width"] = -3
    path = write_config(tmp_path / "run.json", cfg)
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: model: tower layer 0: kernel_width must be >= 1, got -3\n"
    assert not Path(cfg["out"]["checkpoint"]).exists()


def test_train_rejects_a_field_the_layer_kind_does_not_read(tmp_path):
    # a relu with an out_dim used to train, ignoring the width it was given
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    assert cfg["model"]["audio_tower"][1] == {"kind": "relu"}
    cfg["model"]["audio_tower"][1]["out_dim"] = 5
    path = write_config(tmp_path / "run.json", cfg)
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: model: tower layer 1 (relu): unexpected field out_dim\n"
    assert not Path(cfg["out"]["checkpoint"]).exists()


# case -> (edit of the model section, the error after "model: "); each is
# refused while the config loads, before any array is sized from it
_UNALLOCATABLE = {
    # a list or dict kind used to end in "TypeError: unhashable type"
    "list_kind": (lambda m: m["audio_tower"][0].update(kind=[1]),
                  "tower layer 0: kind: must be a string, got [1]"),
    "dict_kind": (lambda m: m["audio_tower"][0].update(kind={"a": 1}),
                  "tower layer 0: kind: must be a string, got {'a': 1}"),
    # a size no array can hold used to stop in np.arange with a ValueError
    "huge_projection": (lambda m: m.update(projection={"out_dim": 2 ** 63}),
                        "projection out_dim: too large, proj_audio.w would have shape "
                        "(9223372036854775808, 6)"),
    "huge_embed_dim": (lambda m: m.update(embed_dim=2 ** 63),
                       "embed_dim: too large, gru.w_z would have shape (9223372036854775808, 6)"),
    # each size fits an array, their product does not
    "huge_conv_product": (lambda m: m["audio_tower"][3].update(out_dim=2 ** 59),
                          "tower layer 3 (conv1d) in_dim/out_dim/kernel_width: too large, "
                          "tower3.kernels would have shape (576460752303423488, 6, 3)"),
}


@pytest.mark.parametrize("case", sorted(_UNALLOCATABLE))
def test_train_rejects_a_model_no_array_can_hold(tmp_path, case):
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    edit, message = _UNALLOCATABLE[case]
    edit(cfg["model"])
    path = write_config(tmp_path / "run.json", cfg)
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: model: {message}\n"
    assert not Path(cfg["out"]["checkpoint"]).exists()


_NAN_GRADIENT = "error: non-finite gradient in parameter 'tower0.kernels' at step 2\n"
# model key -> (finite but huge value, exit code, stderr): the first update
# overflows the weights, or with such an adam_eps every update is 0
_HUGE_FINITE = {
    "lr_1e308": ("lr", 1e308, 1, _NAN_GRADIENT),
    "lr_2_63": ("lr", 2**63, 1, _NAN_GRADIENT),
    "adam_eps_1e308": ("adam_eps", 1e308, 0, ""),
}


@pytest.mark.parametrize("case", sorted(_HUGE_FINITE))
def test_train_huge_finite_step_values_print_no_numpy_warning(tmp_path, case):
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    key, value, want_code, want_err = _HUGE_FINITE[case]
    cfg["model"][key] = value
    path = write_config(tmp_path / "run.json", cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["train", "--config", str(path)])
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (want_code, want_err)
    if want_code == 0:
        assert out.startswith("best epoch ")
    else:
        assert out == ""


# command -> (the cli name to patch, argv builder)
_OOM_COMMANDS = {
    "train": ("load_captions", lambda ds, tmp: [
        "train", "--config", str(write_config(tmp / "run.json", base_config_dict(ds, tmp / "run")))]),
    "eval-retrieval": ("load_checkpoint", lambda ds, tmp: [
        "eval-retrieval", "--checkpoint", str(tmp / "model.ckpt"), "--captions",
        str(ds["val_csv"]), "--features-dir", str(ds["feats"]), "--out", str(tmp / "report.json")]),
    "rank": ("load_checkpoint", lambda ds, tmp: [
        "rank", "--checkpoint", str(tmp / "model.ckpt"), "--captions", str(ds["val_csv"]),
        "--features-dir", str(ds["feats"]), "--query", "w0", "--out", str(tmp / "ranking.txt")]),
    "eval-captions": ("evaluate_captions", lambda ds, tmp: [
        "eval-captions", "--candidates", str(ds["val_csv"]), "--references", str(ds["val_csv"]),
        "--out", str(tmp / "scores.json")]),
}


@pytest.mark.parametrize("command", sorted(_OOM_COMMANDS))
def test_out_of_memory_is_an_error_naming_the_command(tmp_path, monkeypatch, command):
    ds = make_dataset(tmp_path / "data")
    name, argv = _OOM_COMMANDS[command]
    argv = argv(ds, tmp_path)
    before = sorted(tmp_path.rglob("*"))

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, out_of_memory)
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {command}: out of memory\n"
    assert [p for p in sorted(tmp_path.rglob("*")) if p.is_file()] == \
        [p for p in before if p.is_file()]


def test_out_of_memory_while_writing_leaves_no_file(tmp_path, monkeypatch):
    in_dir, out_dir = tmp_path / "wav", tmp_path / "fmat"
    in_dir.mkdir()
    sine_wav(in_dir / "a.wav", 440.0, 16000, seconds=0.1)

    def write_fmat_out_of_memory(path, feats):
        with corpus.atomic_write(path, "wb") as fh:
            fh.write(b"FMAT")
            raise MemoryError

    monkeypatch.setattr(cli, "write_fmat", write_fmat_out_of_memory)
    code, out, err = run_cli(["features", "--in-dir", str(in_dir), "--out-dir", str(out_dir)])
    assert code == 1
    assert out == ""
    assert err == "error: features: out of memory\n"
    assert list(out_dir.iterdir()) == []


def test_train_writes_checkpoint_log_and_report(tmp_path):
    ds = make_dataset(tmp_path)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    path = write_config(tmp_path / "run.json", base_config_dict(ds, out_dir))

    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 0, err
    assert out.startswith("best epoch ")

    head, _, payload = out.strip().partition(": ")
    best_epoch = int(head.split()[-1])
    report = json.loads(payload)
    assert set(report) == {"R1", "R5", "R10", "mAP10", "queries", "audio"}
    assert report["queries"] == 20
    assert report["audio"] == 4

    log_lines = (out_dir / "epochs.csv").read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == EPOCH_LOG_HEADER
    assert len(log_lines) == 1 + 3
    map10_col = [float(line.split(",")[5]) for line in log_lines[1:]]

    ckpt = load_checkpoint(out_dir / "model.ckpt")
    assert ckpt.epoch == best_epoch
    assert ckpt.best_validation_map10 == max(map10_col)
    assert ckpt.config["feature_dim"] == 8
    assert ckpt.config["seed"] == 0


def test_train_runs_are_byte_identical(tmp_path):
    ds = make_dataset(tmp_path)
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        path = write_config(tmp_path / f"{run}.json", base_config_dict(ds, out_dir))
        code, out, err = run_cli(["train", "--config", str(path)])
        assert code == 0, err
        outputs.append((
            (out_dir / "model.ckpt").read_bytes(),
            (out_dir / "epochs.csv").read_text(encoding="utf-8"),
            out,
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_train_relative_paths_resolve_against_config_dir(tmp_path, monkeypatch):
    ds = make_dataset(tmp_path / "proj")
    (tmp_path / "proj" / "run").mkdir()
    cfg = base_config_dict(ds, "ignored")
    cfg["data"] = {
        "train_captions": "train.csv",
        "val_captions": "val.csv",
        "features_dir": "feats",
        "word_embeddings": "words.vec",
        "feature_kind": "external",
    }
    cfg["out"] = {"checkpoint": "run/model.ckpt", "epoch_log": "run/epochs.csv"}
    path = write_config(tmp_path / "proj" / "run.json", cfg)

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 0, err
    assert out.startswith("best epoch ")
    assert (tmp_path / "proj" / "run" / "model.ckpt").is_file()
    assert (tmp_path / "proj" / "run" / "epochs.csv").is_file()
    assert not (elsewhere / "run").exists()


def test_train_creates_missing_output_directories(tmp_path):
    ds = make_dataset(tmp_path)
    out_dir = tmp_path / "deep" / "nested" / "run"
    path = write_config(tmp_path / "run.json", base_config_dict(ds, out_dir, epochs=1))
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 0, err
    assert (out_dir / "model.ckpt").is_file()
    assert (out_dir / "epochs.csv").is_file()


def test_train_validates_with_the_run_config_scorer(tmp_path, monkeypatch):
    # a triplet model validates with dot by default; the run config's scorer
    # replaces it for per-epoch validation and best-epoch selection
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    cfg["scorer"] = "exp_neg_euclid"
    path = write_config(tmp_path / "run.json", cfg)
    seen = []
    build_score_matrix = optim.build_score_matrix

    def recording_build_score_matrix(*args, **kwargs):
        seen.append(kwargs.get("scorer"))
        return build_score_matrix(*args, **kwargs)

    monkeypatch.setattr(optim, "build_score_matrix", recording_build_score_matrix)
    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 0, err
    assert seen == ["exp_neg_euclid"] * 3

    code, report, err = run_cli([
        "eval-retrieval", "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
        "--scorer", "exp_neg_euclid", "--split", "validation",
    ])
    assert code == 0, err
    assert out.partition(": ")[2] == report


def _write_caption_table(ds, path, dim=6, seed=5):
    """An EVEC table covering every caption of the dataset's train split
    (its validation split holds the same rows)."""
    write_caption_embeddings(path, caption_table_for(load_captions(ds["train_csv"]), dim, seed))
    return path


@pytest.mark.parametrize("text_mode", ["sentence_table", "word_average"])
def test_train_reads_only_the_table_its_text_mode_needs(tmp_path, monkeypatch, text_mode):
    # the run config names both tables; the one the text mode does not read
    # is malformed, and is never opened
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run", epochs=1)
    evec = tmp_path / "caps.evec"
    if text_mode == "sentence_table":
        cfg["model"]["text_mode"] = "sentence_table"
        _write_caption_table(ds, evec)
        ds["words"].write_text("1 6\nw0 1 2\n", encoding="utf-8")
        monkeypatch.setattr(corpus, "_parse_word_embeddings", no_parse)
    else:
        evec.write_bytes(b"XXXX")
    cfg["data"]["caption_embeddings"] = str(evec)
    code, out, err = run_cli(["train", "--config", str(write_config(tmp_path / "run.json", cfg))])
    assert code == 0, err
    assert out.startswith("best epoch 1: ") and err == ""
    assert (tmp_path / "run" / "model.ckpt").is_file()
    assert word_cache_path(ds["words"]).exists() == (text_mode == "word_average")


def test_eval_retrieval_prints_and_writes_report(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    out_path = tmp_path / "report.json"

    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
        "--split", "validation", "--out", str(out_path),
    ])
    assert code == 0, err
    assert out.endswith("\n")
    assert out_path.read_text(encoding="utf-8") == out

    report = json.loads(out)
    assert set(report) == {"R1", "R5", "R10", "mAP10", "queries", "audio"}
    assert report["queries"] == 20
    assert report["audio"] == 4
    assert 0.0 <= report["mAP10"] <= report["R10"] <= 1.0


def test_eval_retrieval_scorer_override_accepted(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
        "--scorer", "exp_neg_euclid",
    ])
    assert code == 0, err
    assert set(json.loads(out)) == {"R1", "R5", "R10", "mAP10", "queries", "audio"}


@pytest.mark.parametrize("command, builds", [("eval-retrieval", 1), ("rank", 1), ("train", 2)])
def test_command_builds_each_model_config_once(tmp_path, monkeypatch, command, builds):
    # a scoring command parses the checkpoint header's config once, in
    # load_checkpoint; train builds the run config's, and save_checkpoint
    # checks the config it writes
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    split = ["--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
             "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
             "--split", "validation"]
    argv = {"eval-retrieval": ["eval-retrieval", "--checkpoint", str(ckpt), *split],
            "rank": ["rank", "--checkpoint", str(ckpt), *split,
                     "--query", "w0 w1", "--top-k", "2"],
            "train": ["train", "--config", str(write_config(
                tmp_path / "run.json", base_config_dict(ds, tmp_path / "run", epochs=1)))]}
    validated = []
    validate = ModelConfig.validate

    def counted(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(ModelConfig, "validate", counted)
    code, _, err = run_cli(argv[command])
    assert code == 0, err
    assert len(validated) == builds


def test_eval_retrieval_missing_feature_file(tmp_path):
    ds = make_dataset(tmp_path)
    (ds["feats"] / "clip000.wav.fmat").unlink()
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]),
    ])
    assert code == 1
    assert out == ""
    assert "missing feature files" in err
    assert "clip000.wav" in err


def test_eval_retrieval_sentence_checkpoint_needs_caption_table(tmp_path):
    ds = make_dataset(tmp_path)
    config = small_config(text_mode="sentence_table")
    ckpt = make_checkpoint(tmp_path / "model.ckpt", config)
    base = [
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external",
    ]

    code, _, err = run_cli(base)
    assert code == 1
    assert "needs --caption-embeddings" in err

    records = load_captions(ds["val_csv"])
    table = caption_table_for(records, dim=6, seed=5)
    evec = tmp_path / "caps.evec"
    write_caption_embeddings(evec, table)
    code, out, err = run_cli(base + ["--caption-embeddings", str(evec)])
    assert code == 0, err
    assert json.loads(out)["queries"] == 20


@pytest.mark.parametrize("case", ["missing_parameter", "wrong_shape", "infinite_lr"])
def test_eval_retrieval_rejects_checkpoint_disagreeing_with_config(tmp_path, case):
    ds = make_dataset(tmp_path)
    config = small_config(recurrent_cell="lstm")
    header = config.to_dict()
    params = init_params(config, seed=3)
    if case == "missing_parameter":
        del params["lstm.u_f"]
        needle = "missing parameter 'lstm.u_f'"
    elif case == "wrong_shape":
        params["lstm.u_f"] = Tensor(np.zeros((3, 3), dtype=np.float32))
        needle = "'lstm.u_f' has shape (3, 3), config expects (6, 6)"
    else:  # json writes inf as Infinity, which the loader's parser accepts
        header["lr"] = float("inf")
        needle = "invalid config or parameter list: lr must be finite, got inf"
    ckpt = tmp_path / "model.ckpt"
    write_unchecked_checkpoint(ckpt, header, params)
    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval-retrieval", "rank"])
@pytest.mark.parametrize("shape", [b'["6",8,3]', b"[6,8.0,3]", b"[6,8,3.5]", b"[6,Infinity,3]",
                                   b"[true,8,3]", b"[6,-8,3]", b'"683"', b"null"])
def test_scoring_refuses_a_checkpoint_shape_of_non_integers(tmp_path, command, shape):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    _replace_checkpoint_header(ckpt, b'"shape":[6,8,3]', b'"shape":' + shape)
    code, out, err = run_cli([
        command, "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        *(["--query", "w0 w1"] if command == "rank" else []),
    ])
    assert (code, out) == (1, "")
    shown = repr(json.loads(shape.replace(b"Infinity", b"1e999")))
    assert err == (f"error: {ckpt}: invalid config or parameter list: parameter "
                   f"'tower0.kernels': shape must be a list of non-negative integers, "
                   f"got {shown}\n")


@pytest.mark.parametrize("command", ["eval-retrieval", "rank"])
@pytest.mark.parametrize("epoch, map10, needle", [
    (-1, 0.0, "epoch: must be >= 0, got -1"),
    (1, math.nan, "best_validation_mAP10: must be in [0, 1], got nan"),
    (1, math.inf, "best_validation_mAP10: must be in [0, 1], got inf"),
    (1, -1, "best_validation_mAP10: must be in [0, 1], got -1"),
])
def test_scoring_refuses_a_checkpoint_header_out_of_range(tmp_path, command, epoch, map10,
                                                           needle):
    ds = make_dataset(tmp_path)
    config = small_config()
    ckpt = tmp_path / "model.ckpt"
    write_unchecked_checkpoint(ckpt, config.to_dict(), init_params(config, seed=3), epoch, map10)
    code, out, err = run_cli([
        command, "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        *(["--query", "w0 w1"] if command == "rank" else []),
    ])
    assert (code, out, err) == (1, "", f"error: {ckpt}: header {needle}\n")


def test_eval_retrieval_rejects_checkpoint_with_a_non_string_kind(tmp_path):
    ds = make_dataset(tmp_path)
    config = small_config()
    header = config.to_dict()
    header["audio_tower"][0]["kind"] = [1]
    ckpt = tmp_path / "model.ckpt"
    write_unchecked_checkpoint(ckpt, header, init_params(config, seed=3))
    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "external",
    ])
    assert code == 1
    assert out == ""
    assert err == (f"error: {ckpt}: invalid config or parameter list: "
                   "tower layer 0: kind: must be a string, got [1]\n")


def test_eval_retrieval_rejects_log_mel_64_fmat_of_other_width(tmp_path):
    ds = make_dataset(tmp_path, feature_dim=63)
    config = small_config(feature_dim=63, audio_tower=small_tower(63))
    ckpt = make_checkpoint(tmp_path / "model.ckpt", config)
    code, out, err = run_cli([
        "eval-retrieval", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]), "--feature-kind", "log_mel_64",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "log_mel_64 features need 64 columns, got 63" in err
    assert "Traceback" not in err


def test_eval_captions_cli(tmp_path):
    refs = [
        ("a.wav", ["w0 w1 w2 w3", "w4 w5", "w6 w7 w8", "w9 w0", "w1 w2"]),
        ("b.wav", ["w3 w4 w5", "w6 w7", "w8 w9 w0", "w1 w2", "w3 w4"]),
    ]
    refs_csv = write_caption_csv(tmp_path / "refs.csv", refs)
    cand_csv = write_candidates_csv(
        tmp_path / "cands.csv",
        [(name, caps[0]) for name, caps in refs])
    out_path = tmp_path / "scores.json"

    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--out", str(out_path)])
    assert code == 0, err
    assert out_path.read_text(encoding="utf-8") == out
    assert '"BLEU_1":1.0000' in out
    assert '"ROUGE_L":1.0000' in out
    assert "SPICE" not in out
    assert "SPIDEr" not in out

    spice = tmp_path / "spice.json"
    spice.write_text(json.dumps({"a.wav": 0.5, "b.wav": 0.25}), encoding="utf-8")
    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--spice", str(spice)])
    assert code == 0, err
    assert '"SPICE":0.3750' in out
    assert '"SPIDEr":' in out


def test_eval_captions_prints_reference_scores_byte_for_byte(tmp_path):
    # BLEU and CIDEr-D from the n-gram tables print exactly what the dict
    # bodies they replaced print, on a corpus with empty candidates
    rng = np.random.default_rng(21)
    items = toy_metric_corpus(rng, n_items=320, max_len=12)
    names = [f"clip{i:03d}.wav" for i in range(len(items))]
    refs_csv = write_caption_csv(tmp_path / "refs.csv", [
        (name, [" ".join(r) for r in refs]) for name, (_, refs) in zip(names, items)])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv", [
        (name, " ".join(cand)) for name, (cand, _) in zip(names, items)])
    eval_set = textmetrics.build_eval_set(
        {name: cand for name, (cand, _) in zip(names, items)},
        {name: refs for name, (_, refs) in zip(names, items)})
    per_item = cider_d_per_item_reference(eval_set)
    want = textmetrics.CorpusScores(
        bleu=bleu_corpus_reference(eval_set), rouge_l=textmetrics.rouge_l(eval_set),
        meteor=textmetrics.meteor_lite(eval_set), cider=sum(per_item) / len(per_item))
    assert any(not cand for cand, _ in items)
    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv)])
    assert (code, out, err) == (0, want.to_json() + "\n", "")


def test_report_out_path_creates_parent_dirs(tmp_path):
    refs = [
        ("a.wav", ["w0 w1 w2", "w3 w4", "w5 w6", "w7 w8", "w9 w0"]),
        ("b.wav", ["w1 w2 w3", "w4 w5", "w6 w7", "w8 w9", "w0 w1"]),
    ]
    refs_csv = write_caption_csv(tmp_path / "refs.csv", refs)
    cand_csv = write_candidates_csv(
        tmp_path / "cands.csv",
        [(name, caps[0]) for name, caps in refs])
    out_path = tmp_path / "reports" / "august" / "scores.json"

    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--out", str(out_path)])
    assert code == 0, err
    assert out_path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("command", ["train:checkpoint", "train:epoch_log", "eval-retrieval",
                                     "eval-captions", "rank"])
def test_output_path_that_is_a_directory_is_refused_before_any_work(tmp_path, monkeypatch,
                                                                     command):
    ds = make_dataset(tmp_path / "data")
    taken = tmp_path / "taken"
    taken.mkdir()
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())

    def never(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("train", "load_captions", "load_checkpoint", "evaluate_captions"):
        monkeypatch.setattr(cli, name, never)
    if command.startswith("train"):
        cfg = base_config_dict(ds, tmp_path / "run")
        cfg["out"][command.partition(":")[2]] = str(taken)
        argv = ["train", "--config", str(write_config(tmp_path / "run.json", cfg))]
    elif command == "eval-captions":
        argv = ["eval-captions", "--candidates", str(ds["val_csv"]),
                "--references", str(ds["val_csv"]), "--out", str(taken)]
    else:
        argv = [command, "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
                "--features-dir", str(ds["feats"]), "--feature-kind", "external",
                "--word-embeddings", str(ds["words"]), "--out", str(taken)]
        argv += ["--query", "w0"] if command == "rank" else []
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and err.startswith("error:") and err.endswith("\n")
    assert f"{taken} is a directory" in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["train:checkpoint", "eval-retrieval", "eval-captions",
                                     "rank"])
def test_output_path_under_a_file_is_refused_before_any_work(tmp_path, monkeypatch, command):
    ds = make_dataset(tmp_path / "data")
    afile = tmp_path / "afile"
    afile.write_text("taken\n", encoding="utf-8")
    target = afile / "sub" / "x.json"
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())

    def never(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("train", "load_captions", "load_checkpoint", "evaluate_captions"):
        monkeypatch.setattr(cli, name, never)
    if command.startswith("train"):
        cfg = base_config_dict(ds, tmp_path / "run")
        cfg["out"]["checkpoint"] = str(target)
        argv = ["train", "--config", str(write_config(tmp_path / "run.json", cfg))]
        what = "out.checkpoint"
    elif command == "eval-captions":
        argv = ["eval-captions", "--candidates", str(ds["val_csv"]),
                "--references", str(ds["val_csv"]), "--out", str(target)]
        what = "--out"
    else:
        argv = [command, "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
                "--features-dir", str(ds["feats"]), "--feature-kind", "external",
                "--word-embeddings", str(ds["words"]), "--out", str(target)]
        argv += ["--query", "w0"] if command == "rank" else []
        what = "--out"
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and err.startswith("error:") and err.endswith("\n")
    assert f"{what}: {target}: {afile} is not a directory" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert afile.read_text(encoding="utf-8") == "taken\n"


def test_eval_captions_rejects_uncovered_candidates(tmp_path):
    refs_csv = write_caption_csv(
        tmp_path / "refs.csv",
        [("a.wav", ["w0 w1", "w2 w3", "w4 w5", "w6 w7", "w8 w9"])])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv", [("zz.wav", "w0 w1")])
    code, _, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                            "--references", str(refs_csv)])
    assert code == 1
    assert "unknown file_names" in err


@pytest.mark.parametrize("content, message", [
    ('{"a.wav": true, "b.wav": false}', "SPICE value for 'a.wav' outside [0,1]: True"),
    ('{"a.wav": 0.5, "b.wav": 1.5}', "SPICE value for 'b.wav' outside [0,1]: 1.5"),
    ('[0.5, 0.25]', "expected an object of key -> SPICE value"),
], ids=["bool", "out_of_range", "not_object"])
def test_bad_spice_file_is_an_error_before_scoring(tmp_path, monkeypatch, content, message):
    # a JSON boolean is not a SPICE score, and the file is checked before
    # any metric runs over the corpus
    def never(*args, **kwargs):
        raise AssertionError("a bad SPICE file reached scoring")

    monkeypatch.setattr(textmetrics, "bleu_corpus", never)
    refs_csv = write_caption_csv(tmp_path / "refs.csv",
                                 [(n, ["w0 w1", "w2 w3", "w4 w5", "w6 w7", "w8 w9"])
                                  for n in ("a.wav", "b.wav")])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv", [("a.wav", "w0"), ("b.wav", "w2")])
    spice = tmp_path / "spice.json"
    spice.write_text(content, encoding="utf-8")
    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--spice", str(spice)])
    assert code == 1
    assert out == ""
    assert err == f"error: {spice}: {message}\n"


def test_spice_file_missing_items_is_an_error_before_scoring(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a SPICE file missing scored items reached scoring")

    monkeypatch.setattr(textmetrics, "bleu_corpus", never)
    refs_csv = write_caption_csv(tmp_path / "refs.csv",
                                 [(n, ["w0 w1", "w2 w3", "w4 w5", "w6 w7", "w8 w9"])
                                  for n in ("a.wav", "b.wav", "c.wav")])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv",
                                    [("a.wav", "w0"), ("b.wav", "w2"), ("c.wav", "w4")])
    spice = tmp_path / "spice.json"
    spice.write_text('{"b.wav": 0.5, "d.wav": 0.25}', encoding="utf-8")
    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--spice", str(spice)])
    assert code == 1
    assert out == ""
    assert err == "error: SPICE values missing for items: ['a.wav', 'c.wav']\n"


def test_spice_file_nested_too_deeply_is_an_error(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a bad SPICE file reached scoring")

    monkeypatch.setattr(textmetrics, "bleu_corpus", never)
    refs_csv = write_caption_csv(tmp_path / "refs.csv",
                                 [(n, ["w0 w1", "w2 w3", "w4 w5", "w6 w7", "w8 w9"])
                                  for n in ("a.wav", "b.wav")])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv", [("a.wav", "w0"), ("b.wav", "w2")])
    spice = tmp_path / "spice.json"
    spice.write_text('{"a.wav": ' * 200_000, encoding="utf-8")
    code, out, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                              "--references", str(refs_csv), "--spice", str(spice)])
    assert code == 1
    assert out == ""
    assert err == f"error: {spice}: not valid structured text: nested too deeply\n"


def test_rank_outputs_topk_lines(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    out_path = tmp_path / "ranked.txt"
    argv = [
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "w0 w1 w2", "--top-k", "3", "--out", str(out_path),
    ]

    code, out, err = run_cli(argv)
    assert code == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 3
    scores = []
    for rank, line in enumerate(lines, start=1):
        idx, name, score = line.split(",")
        assert int(idx) == rank
        assert name in ds["names"]
        assert "." in score and len(score.split(".")[1]) == 6
        scores.append(float(score))
    assert scores == sorted(scores, reverse=True)
    assert len({line.split(",")[1] for line in lines}) == 3
    assert out_path.read_text(encoding="utf-8") == out

    code2, out2, _ = run_cli(argv)
    assert code2 == 0
    assert out2 == out


def test_rank_zero_query_vector_keeps_stable_order(tmp_path):
    # every query token is out of vocabulary, so all scores are exactly 0
    # and the stable tiebreak yields manifest (file name) order
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "zebra quark", "--top-k", "4",
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert [line.split(",")[0] for line in lines] == ["1", "2", "3", "4"]
    assert [line.split(",")[1] for line in lines] == ds["names"]
    assert all(float(line.split(",")[2]) == 0.0 for line in lines)


def test_rank_sentence_checkpoint_requires_query_vector(tmp_path):
    ds = make_dataset(tmp_path)
    config = small_config(text_mode="sentence_table")
    ckpt = make_checkpoint(tmp_path / "model.ckpt", config)
    base = [
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--query", "unused", "--top-k", "2",
    ]

    code, out, err = run_cli(base)
    assert code == 1
    assert out == ""
    assert "needs --query-vector" in err

    vec_path = tmp_path / "query.json"
    vec_path.write_text(json.dumps([0.1, -0.2, 0.3, 0.0, 0.5, -0.4]), encoding="utf-8")
    code, out, err = run_cli(base + ["--query-vector", str(vec_path)])
    assert code == 0, err
    assert len(out.strip().split("\n")) == 2


@pytest.mark.parametrize("content", [
    "[0.1, ",  # malformed structured text
    '["a", "b", "c", "d", "e", "f"]',  # not numbers
    "[[1, 2], [3]]",  # ragged
    '{"a": 1}',  # an object
])
def test_rank_bad_query_vector_file_is_an_error(tmp_path, content):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
    vec_path = tmp_path / "query.json"
    vec_path.write_text(content, encoding="utf-8")
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--query", "unused", "--top-k", "2",
        "--query-vector", str(vec_path),
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert str(vec_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_rank_non_finite_query_vector_entry_is_an_error(tmp_path, entry):
    # such a vector used to load and end in "score matrix contains non-finite
    # values", which does not name the file
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
    vec_path = tmp_path / "query.json"
    vec_path.write_text(f"[0.1, -0.2, {entry}, 0.0, 0.5, -0.4]", encoding="utf-8")
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--query", "unused", "--top-k", "2",
        "--query-vector", str(vec_path),
    ])
    assert code == 1
    assert out == ""
    assert err == f"error: {vec_path}: query vector is not a flat array of numbers\n"


def test_rank_query_vector_nested_too_deeply_is_an_error(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
    vec_path = tmp_path / "query.json"
    vec_path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--query", "unused", "--top-k", "2",
        "--query-vector", str(vec_path),
    ])
    assert code == 1
    assert out == ""
    assert err == (f"error: {vec_path}: query vector is not a flat array of numbers "
                   "(nested too deeply)\n")


def test_rank_top_k_beyond_clip_count_fails(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, _, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "w0", "--top-k", "9",
    ])
    assert code == 1
    assert err.startswith("error:")


def test_rank_query_with_no_tokens_fails(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, _, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "!!!", "--top-k", "2",
    ])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["train", "eval-retrieval", "rank"])
def test_header_only_split_is_an_error(tmp_path, monkeypatch, command):
    # a caption CSV with a header and no rows makes an empty split, which
    # must fail before anything is trained or encoded
    ds = make_dataset(tmp_path)
    empty = write_caption_csv(tmp_path / "empty.csv", [])
    out_dir = tmp_path / "run"

    def never(*args, **kwargs):
        raise AssertionError("an empty split reached training or encoding")

    monkeypatch.setattr(cli, "train", never)
    monkeypatch.setattr(AudioTower, "encode", never)
    if command == "train":
        cfg = base_config_dict(ds, out_dir)
        cfg["data"]["val_captions"] = str(empty)
        argv = ["train", "--config", str(write_config(tmp_path / "run.json", cfg))]
        split, written = "validation", out_dir / "model.ckpt"
    else:
        ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
        argv = [command, "--checkpoint", str(ckpt), "--captions", str(empty),
                "--features-dir", str(ds["feats"]), "--feature-kind", "external",
                "--word-embeddings", str(ds["words"]), "--out", str(out_dir / "out.txt")]
        if command == "rank":
            argv += ["--query", "w0", "--top-k", "1"]
        split, written = "evaluation", out_dir / "out.txt"
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err == f"error: no clips in the {split} split\n"
    assert not written.exists()


@pytest.mark.parametrize("command", ["train", "rank"])
def test_non_finite_word_vector_is_an_error(tmp_path, command):
    ds = make_dataset(tmp_path)
    words = {w: np.full(6, 0.25) for w in VOCAB10}
    words["w3"][2] = np.nan  # header is line 1, so w3 is line 5
    write_word_embeddings(ds["words"], words)
    out_dir = tmp_path / "run"
    if command == "train":
        argv = ["train", "--config",
                str(write_config(tmp_path / "run.json", base_config_dict(ds, out_dir)))]
    else:
        ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
        argv = [
            "rank", "--checkpoint", str(ckpt),
            "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
            "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
            "--query", "w0 w1", "--top-k", "2",
        ]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {ds['words']}: line 5: non-finite value\n"
    assert not (out_dir / "model.ckpt").exists()


@pytest.mark.parametrize("command", ["rank", "eval-retrieval"])
def test_cold_and_warm_word_table_loads_print_the_same(tmp_path, monkeypatch, command):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    argv = [command, "--checkpoint", str(ckpt),
            "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
            "--feature-kind", "external", "--word-embeddings", str(ds["words"])]
    argv += ["--query", "w0 w1 w2", "--top-k", "3"] if command == "rank" else []
    assert not word_cache_path(ds["words"]).exists()
    cold = run_cli(argv)
    assert cold[0] == 0 and cold[1] and cold[2] == ""
    assert word_cache_path(ds["words"]).is_file()
    monkeypatch.setattr(corpus, "_parse_word_embeddings", no_parse)
    assert run_cli(argv) == cold


def test_train_with_cold_and_warm_word_table_writes_the_same_bytes(tmp_path, monkeypatch):
    ds = make_dataset(tmp_path)
    outputs = []
    for run in ("cold", "warm"):
        assert word_cache_path(ds["words"]).exists() == (run == "warm")
        out_dir = tmp_path / run
        path = write_config(tmp_path / f"{run}.json", base_config_dict(ds, out_dir))
        code, out, err = run_cli(["train", "--config", str(path)])
        assert code == 0 and err == "", err
        outputs.append(((out_dir / "model.ckpt").read_bytes(),
                        (out_dir / "epochs.csv").read_bytes(), out))
        monkeypatch.setattr(corpus, "_parse_word_embeddings", no_parse)
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("command", ["train", "rank", "eval-retrieval"])
def test_word_table_dim_no_array_can_hold_is_an_error(tmp_path, command):
    ds = make_dataset(tmp_path)
    ds["words"].write_text("1 100000000000000000000\nw0 1\n", encoding="utf-8")
    if command == "train":
        argv = ["train", "--config", str(write_config(
            tmp_path / "run.json", base_config_dict(ds, tmp_path / "run")))]
    else:
        ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
        argv = [command, "--checkpoint", str(ckpt),
                "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
                "--feature-kind", "external", "--word-embeddings", str(ds["words"])]
        argv += ["--query", "w0", "--top-k", "2"] if command == "rank" else []
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == f"error: {ds['words']}: invalid header count=1 dim=100000000000000000000\n"
    assert not word_cache_path(ds["words"]).exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_word_table_pipe_with_overstated_count_is_an_error(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    read_fd, write_fd = os.pipe()
    words = f"/dev/fd/{read_fd}"
    try:
        os.write(write_fd, b"1000000000000000 6\nw0 1 2 3 4 5 6\n")
        os.close(write_fd)
        code, out, err = run_cli([
            "rank", "--checkpoint", str(ckpt),
            "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
            "--feature-kind", "external", "--word-embeddings", words,
            "--query", "w0", "--top-k", "2"])
    finally:
        os.close(read_fd)
    assert (code, out) == (1, "")
    assert err == f"error: {words}: header declares 1000000000000000 words, found 1\n"


def test_missing_word_table_is_reported(tmp_path):
    ds = make_dataset(tmp_path)
    ds["words"].unlink()
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "w0", "--top-k", "2"])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{ds['words']}'\n"
    assert not word_cache_path(ds["words"]).exists()


@pytest.mark.parametrize("bad_input", ["run_config", "caption_csv", "word_table",
                                       "candidates_csv", "spice_file"])
def test_non_utf8_input_is_an_error(tmp_path, bad_input):
    ds = make_dataset(tmp_path)
    config = write_config(tmp_path / "run.json", base_config_dict(ds, tmp_path / "run"))
    refs = write_caption_csv(tmp_path / "refs.csv", [(n, ["w0 w1"] * 5) for n in ("a", "b")])
    cands = write_candidates_csv(tmp_path / "cands.csv", [("a", "w0"), ("b", "w1")])
    spice = tmp_path / "spice.json"
    spice.write_text('{"a": 0.5, "b": 0.25}', encoding="utf-8")
    bad = {"run_config": config, "caption_csv": ds["train_csv"], "word_table": ds["words"],
           "candidates_csv": cands, "spice_file": spice}[bad_input]
    bad.write_bytes(b"\xff\xfe not UTF-8 \xc3\x28\n")
    if bad_input in ("candidates_csv", "spice_file"):
        argv = ["eval-captions", "--candidates", str(cands), "--references", str(refs),
                "--spice", str(spice)]
    else:
        argv = ["train", "--config", str(config)]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ") and "can't decode" in err
    assert err.count("\n") == 1


def test_rank_rejects_checkpoint_header_of_wrong_type(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(), epoch=100)
    # same length, so the header length field still holds
    ckpt.write_bytes(ckpt.read_bytes().replace(b'"epoch":100', b'"epoch":"a"'))
    code, out, err = run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "w0 w1", "--top-k", "2",
    ])
    assert code == 1
    assert out == ""
    assert err == f"error: {ckpt}: header epoch: must be an integer, got 'a'\n"


def _replace_checkpoint_header(ckpt, old, new):
    # rewrites the header text and its length field; the payload stays
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = raw[8:8 + hlen]
    assert header.count(old) == 1
    header = header.replace(old, new)
    ckpt.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + hlen:])


def _rank_with_checkpoint(ds, ckpt):
    return run_cli([
        "rank", "--checkpoint", str(ckpt),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--feature-kind", "external", "--word-embeddings", str(ds["words"]),
        "--query", "w0 w1", "--top-k", "2",
    ])


def test_rank_rejects_checkpoint_metric_beyond_float_range(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(), map10=0.5)
    _replace_checkpoint_header(ckpt, b'"best_validation_mAP10":0.5',
                               b'"best_validation_mAP10":' + b"9" * 400)
    code, out, err = _rank_with_checkpoint(ds, ckpt)
    assert code == 1
    assert out == ""
    assert err == f"error: {ckpt}: header best_validation_mAP10: integer too large for a float\n"


def test_rank_rejects_checkpoint_header_nested_too_deeply(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(), map10=0.5)
    _replace_checkpoint_header(ckpt, b'"best_validation_mAP10":0.5',
                               b'"best_validation_mAP10":' + b"[" * 200_000)
    code, out, err = _rank_with_checkpoint(ds, ckpt)
    assert code == 1
    assert out == ""
    assert err == f"error: {ckpt}: corrupt header: nested too deeply\n"


def test_missing_checkpoint_file_is_reported(tmp_path):
    ds = make_dataset(tmp_path)
    code, _, err = run_cli([
        "eval-retrieval", "--checkpoint", str(tmp_path / "nope.ckpt"),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]),
    ])
    assert code == 1
    assert err.startswith("error:")


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    # the snippet's relative paths: log_mel_64 features, an evaluation split,
    # word vectors, a checkpoint and a caption system's output
    ds = make_dataset(tmp_path, n_clips=6, feature_dim=64)
    (tmp_path / "data").mkdir()
    ds["val_csv"].rename(tmp_path / "data" / "evaluation.csv")
    ds["words"].rename(tmp_path / "data" / "word_vectors.txt")
    (tmp_path / "out").mkdir()
    make_checkpoint(tmp_path / "out" / "model.ckpt", small_config(feature_dim=64))
    write_candidates_csv(tmp_path / "system_output.csv",
                         [(name, "w0 w1 w2") for name in ds["names"]])
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + 5 + 1
    assert json.loads(lines[0])["audio"] == 6
    assert {line.split()[0] for line in lines[1:6]} <= set(ds["names"])
    assert "BLEU_1" in json.loads(lines[6])


def test_module_entry_point_lists_the_shared_scoring_options():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "audiotext.cli", "rank", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    for option in ("--checkpoint", "--captions", "--features-dir", "--word-embeddings",
                   "--feature-kind", "--scorer", "--split", "--out", "--query", "--top-k",
                   "--query-vector"):
        assert option in done.stdout
    assert "--caption-embeddings" not in done.stdout


def _scoring_argv(command, ds, ckpt, *extra):
    argv = [command, "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
            "--features-dir", str(ds["feats"]), "--feature-kind", "external", *extra]
    return argv + (["--query", "w0 w1", "--top-k", "2"] if command == "rank" else [])


def _fails_with(argv, message):
    """Run argv; it must fail with exactly one error line and no output."""
    assert run_cli(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["eval-retrieval", "rank"])
def test_word_average_checkpoint_needs_word_embeddings(tmp_path, command):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    _fails_with(_scoring_argv(command, ds, ckpt),
                "word_average checkpoint needs --word-embeddings")


@pytest.mark.parametrize("case", ["nan", "zero_rows"])
def test_scoring_refuses_a_malformed_feature_file(tmp_path, case):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
    fmat = ds["feats"] / "clip001.wav.fmat"
    raw = bytearray(fmat.read_bytes())
    if case == "nan":  # write_fmat refuses one, so the value goes in by hand
        raw[16 + 4 * 26:16 + 4 * 27] = struct.pack("<f", math.nan)
        message = f"non-finite value in features from '{fmat}'"
    else:
        raw[8:12] = struct.pack("<I", 0)  # rows; the payload is left as it was
        message = f"{fmat}: zero dimension (0 x 8)"
    fmat.write_bytes(bytes(raw))
    _fails_with(_scoring_argv("rank", ds, ckpt, "--word-embeddings", str(ds["words"])),
                message)


def test_caption_row_with_empty_file_name_is_an_error(tmp_path):
    ds = make_dataset(tmp_path)
    write_caption_csv(ds["train_csv"], [("", ["w0 w1"] * 5)])
    _fails_with(["train", "--config", str(write_config(
        tmp_path / "run.json", base_config_dict(ds, tmp_path / "run")))],
        f"{ds['train_csv']}: row 2: empty file_name")


def _second_key_as_first(raw):
    first, second = b"clip000.wav#1", b"clip000.wav#2"
    assert raw.count(first) == raw.count(second) == 1
    return raw.replace(second, first)


_BAD_EVEC = {
    "truncated": (lambda raw: raw[:10], "truncated header"),
    "bad_magic": (lambda raw: b"XVEC" + raw[4:], "bad magic b'XVEC'"),
    "zero_dim": (lambda raw: raw[:8] + struct.pack("<I", 0) + raw[12:], "zero dimension"),
    "duplicate_key": (_second_key_as_first, "record 1: duplicate key 'clip000.wav#1'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_EVEC))
def test_eval_retrieval_refuses_a_malformed_caption_table(tmp_path, case):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
    evec = _write_caption_table(ds, tmp_path / "caps.evec")
    edit, message = _BAD_EVEC[case]
    evec.write_bytes(edit(evec.read_bytes()))
    _fails_with(_scoring_argv("eval-retrieval", ds, ckpt, "--caption-embeddings", str(evec)),
                f"{evec}: {message}")


def test_features_reports_a_short_fmt_chunk(tmp_path):
    in_dir = tmp_path / "wav"
    in_dir.mkdir()
    fmt = struct.pack("<HHI", 1, 1, 16000)  # 8 of the 16 bytes a fmt chunk needs
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    wav = in_dir / "short.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    code, out, err = run_cli(["features", "--in-dir", str(in_dir),
                              "--out-dir", str(tmp_path / "fmat")])
    assert (code, out) == (1, "files=0, frames_total=0\n")
    assert err == f"error: short.wav: {wav}: fmt chunk too short\n"


def test_scoring_refuses_a_checkpoint_header_without_epoch(tmp_path):
    ds = make_dataset(tmp_path)
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(), epoch=4)
    _replace_checkpoint_header(ckpt, b'"epoch":4,', b"")
    _fails_with(_scoring_argv("eval-retrieval", ds, ckpt, "--word-embeddings", str(ds["words"])),
                f"{ckpt}: header missing 'epoch'")
