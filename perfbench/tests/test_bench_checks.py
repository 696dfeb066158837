"""Each correctness check passes on real CLI output and fires on corrupted output."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
from worker import run_cli
from workloads import Offline, Retrieve, Train


def _run_command(workload, index):
    kind, argv = workload.command(index)
    code, stdout, stderr, _ = run_cli(argv)
    assert code == 0, stderr
    return kind, argv, stdout


@pytest.fixture(scope="module")
def retrieve(tmp_path_factory):
    work = tmp_path_factory.mktemp("retrieve") / "w"
    workload = Retrieve(work, gen.generate("retrieve", 5, "tiny", work))
    return workload, _run_command(workload, 0), _run_command(workload, 1)


@pytest.fixture(scope="module")
def offline(tmp_path_factory):
    work = tmp_path_factory.mktemp("offline") / "w"
    workload = Offline(work, gen.generate("offline", 5, "tiny", work))
    return workload, _run_command(workload, 0), _run_command(workload, 1)


@pytest.fixture()
def train(tmp_path):
    work = tmp_path / "w"
    workload = Train(work, gen.generate("train", 5, "tiny", work))
    return workload, _run_command(workload, 0)


def test_eval_report_passes_and_tampering_fires(retrieve):
    workload, (kind, argv, stdout), _ = retrieve
    assert kind == "eval"
    assert workload.check(kind, argv, stdout) == []
    report = json.loads(stdout)
    for key, value in (("R1", report["R1"] + 0.01 if report["R1"] < 0.5 else 0.0),
                       ("mAP10", round(report["mAP10"] / 2 + 0.0123, 4)),
                       ("queries", report["queries"] - 1),
                       ("audio", report["audio"] + 1)):
        tampered = json.dumps({**report, key: value})
        assert any(key in p for p in workload.check(kind, argv, tampered)), key
    assert workload.check(kind, argv, stdout.replace('"R10"', '"R20"'))
    assert workload.check(kind, argv, "not a report")


def test_rank_output_passes_and_tampering_fires(retrieve):
    workload, _, (kind, argv, stdout) = retrieve
    assert kind == "rank"
    assert workload.check(kind, argv, stdout) == []
    rows = stdout.strip().splitlines()
    assert len(rows) == workload.sizes["top_k"] >= 2
    swapped = [rows[1].replace("2,", "1,", 1), rows[0].replace("1,", "2,", 1), *rows[2:]]
    assert workload.check(kind, argv, "\n".join(swapped))  # reordered rank list
    assert workload.check(kind, argv, "\n".join(rows[:-1]))  # a row missing
    rank, name, score = rows[0].split(",")
    assert workload.check(kind, argv, "\n".join([f"{rank},nope.wav,{score}", *rows[1:]]))
    assert workload.check(kind, argv, "\n".join([f"{rank},{name},{float(score) + 1e-4:.6f}",
                                                 *rows[1:]]))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-4])


def _nan(path):
    data = bytearray(path.read_bytes())
    data[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))


def test_features_pass_and_corrupted_fmat_fires(offline):
    workload = offline[0]
    kind, argv, stdout = _run_command(workload, 0)
    assert kind == "features"
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    assert workload.check(kind, argv, stdout) == []
    assert not out_dir.exists()
    for corrupt, message in ((_truncate, "bytes"), (_nan, "non-finite"), (Path.unlink, "")):
        kind, argv, stdout = _run_command(workload, 0)
        fmat = sorted(out_dir.glob("*.fmat"))[0]
        corrupt(fmat)
        problems = workload.check(kind, argv, stdout)
        assert any(fmat.name in p and message in p for p in problems), problems
    kind, argv, stdout = _run_command(workload, 0)
    assert workload.check(kind, argv, stdout.replace("files=", "files=1"))


def test_fmat_frame_count_is_closed_form(tmp_path):
    path = tmp_path / "x.fmat"
    gen.write_fmat(path, np.zeros((10, 64)))
    assert checks.check_fmat(path, 10) == []
    assert checks.check_fmat(path, 11)
    assert checks.check_fmat(path, 10, cols=32)
    assert checks.closed_form_frames(44100, 44100) == (44100 - 1764) // 882 + 1


def test_caption_scores_pass_and_tampering_fires(offline):
    workload, _, (kind, argv, stdout) = offline
    assert kind == "captions"
    assert workload.check(kind, argv, stdout) == []
    scores = json.loads(stdout)
    assert workload.check(kind, argv, json.dumps({**scores, "BLEU_1": 1.5}))
    assert workload.check(kind, argv, json.dumps({**scores, "CIDEr": -0.1}))
    missing = dict(scores)
    del missing["METEOR"]
    assert workload.check(kind, argv, json.dumps(missing))


def test_train_passes_and_corrupted_outputs_fire(train):
    from audiotext.cli import load_run_config
    from audiotext.nnet import ModelConfig, init_params
    from audiotext.nnet.checkpoint import load_checkpoint, save_checkpoint

    workload, (kind, argv, stdout) = train
    assert workload.check(kind, argv, stdout) == []
    rc = load_run_config(workload.config_path)
    log = rc.epoch_log_out.read_text(encoding="utf-8")
    header, row = log.splitlines()
    fields = row.split(",")
    nan_loss = ",".join([fields[0], "nan", *fields[2:]])
    assert checks.check_epoch_log(f"{header}\n{nan_loss}\n", 1)
    assert checks.check_epoch_log(f"{header}\n", 1)
    assert checks.check_epoch_log(f"{header}\n{row}\n{row}\n", 1)

    rc.epoch_log_out.write_text(f"{header}\n{nan_loss}\n", encoding="utf-8")
    problems = workload.check(kind, argv, stdout)
    assert any("train_loss" in p for p in problems)
    assert any("differ from the first" in p for p in problems)

    ckpt = load_checkpoint(rc.checkpoint_out)
    config = ModelConfig.from_dict(ckpt.config)
    save_checkpoint(rc.checkpoint_out, ckpt.config, init_params(config, seed=config.seed), 1, 0.0)
    rc.epoch_log_out.write_text(log, encoding="utf-8")
    assert any("no parameter moved" in p for p in workload.check(kind, argv, stdout))


def test_reference_ranking_breaks_ties_toward_earlier_clip():
    scores = np.array([[0.5, 0.9, 0.9, 0.1]])
    assert checks.ground_truth_ranks(scores, np.array([2]))[0] == 2
    assert checks.ground_truth_ranks(scores, np.array([1]))[0] == 1
    assert [n for n, _ in checks.expected_ranking(scores[0], list("abcd"), 3)] == ["b", "c", "a"]
