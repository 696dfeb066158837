"""Command-line pipeline tests, all driven through cli.main(argv).

Output is captured with redirect_stdout/redirect_stderr rather than a
capture fixture so the suite can run with output capture disabled.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from audiotext.cli import load_run_config, main
from audiotext.corpus import (
    load_captions,
    read_fmat,
    write_caption_embeddings,
    write_fmat,
)
from audiotext.dsp import log_mel_features, read_wav
from audiotext.nnet import Tensor, init_params, load_checkpoint, save_checkpoint
from audiotext.optim import EPOCH_LOG_HEADER

from helpers import (
    VOCAB10,
    caption_table_for,
    sine_wav,
    small_config,
    small_tower,
    write_caption_csv,
    write_word_embeddings,
)


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


def write_candidates_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["file_name", "caption"])
        writer.writerows(rows)
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
    assert "bad.wav" in err
    assert err.startswith("error:")
    assert out == "files=1, frames_total=49\n"
    assert (out_dir / "good.wav.fmat").is_file()
    assert not (out_dir / "bad.wav.fmat").exists()


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


BAD_CONFIG_CASES = [
    ("unknown_top", "unknown keys ['optimizer']"),
    ("model_seed", "model.seed: set the top-level seed instead"),
    ("train_seed", "train.seed: set the top-level seed instead"),
    ("missing_out_key", "out.epoch_log: required"),
    ("bad_feature_kind", "data.feature_kind: 'mfcc' not in"),
    ("bad_batch_size", "batch_size"),
    ("missing_word_embeddings", "data.word_embeddings: required"),
    ("bool_seed", "seed: must be an integer"),
    ("missing_feature_dim", "model.feature_dim: required"),
    ("unknown_data_key", "data: unknown keys ['clips']"),
    ("missing_model", "model: required object"),
]


@pytest.mark.parametrize("case,needle", BAD_CONFIG_CASES, ids=[c for c, _ in BAD_CONFIG_CASES])
def test_train_rejects_bad_configs(tmp_path, case, needle):
    ds = make_dataset(tmp_path)
    cfg = base_config_dict(ds, tmp_path / "run")
    if case == "unknown_top":
        cfg["optimizer"] = "adam"
    elif case == "model_seed":
        cfg["model"]["seed"] = 4
    elif case == "train_seed":
        cfg["train"]["seed"] = 4
    elif case == "missing_out_key":
        del cfg["out"]["epoch_log"]
    elif case == "bad_feature_kind":
        cfg["data"]["feature_kind"] = "mfcc"
    elif case == "bad_batch_size":
        cfg["train"]["batch_size"] = 1
    elif case == "missing_word_embeddings":
        del cfg["data"]["word_embeddings"]
    elif case == "bool_seed":
        cfg["seed"] = True
    elif case == "missing_feature_dim":
        del cfg["model"]["feature_dim"]
    elif case == "unknown_data_key":
        cfg["data"]["clips"] = "x"
    elif case == "missing_model":
        del cfg["model"]
    path = write_config(tmp_path / "run.json", cfg)

    code, out, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert needle in err


def test_train_config_must_be_valid_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path)])
    assert code == 1
    assert "not valid structured text" in err


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


@pytest.mark.parametrize("case", ["missing_parameter", "wrong_shape"])
def test_eval_retrieval_rejects_checkpoint_disagreeing_with_config(tmp_path, case):
    ds = make_dataset(tmp_path)
    config = small_config(recurrent_cell="lstm")
    params = init_params(config, seed=3)
    if case == "missing_parameter":
        del params["lstm.u_f"]
        needle = "missing parameter 'lstm.u_f'"
    else:
        params["lstm.u_f"] = Tensor(np.zeros((3, 3), dtype=np.float32))
        needle = "'lstm.u_f' has shape (3, 3), config expects (6, 6)"
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, config.to_dict(), params, 1, 0.0)
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


def test_eval_captions_rejects_uncovered_candidates(tmp_path):
    refs_csv = write_caption_csv(
        tmp_path / "refs.csv",
        [("a.wav", ["w0 w1", "w2 w3", "w4 w5", "w6 w7", "w8 w9"])])
    cand_csv = write_candidates_csv(tmp_path / "cands.csv", [("zz.wav", "w0 w1")])
    code, _, err = run_cli(["eval-captions", "--candidates", str(cand_csv),
                            "--references", str(refs_csv)])
    assert code == 1
    assert "unknown file_names" in err


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


def test_missing_checkpoint_file_is_reported(tmp_path):
    ds = make_dataset(tmp_path)
    code, _, err = run_cli([
        "eval-retrieval", "--checkpoint", str(tmp_path / "nope.ckpt"),
        "--captions", str(ds["val_csv"]), "--features-dir", str(ds["feats"]),
        "--word-embeddings", str(ds["words"]),
    ])
    assert code == 1
    assert err.startswith("error:")
