"""Correctness checks on what the CLI wrote, with the benchmark's own reference math.

Each check returns a list of problems; an empty list means the output
is correct. Scoring and ranking are recomputed here with plain NumPy
(the package's scorers and rankers are not used), from per-clip
embeddings that the benchmark asks the package for.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

EPOCH_LOG_HEADER = "epoch,train_loss,val_R1,val_R5,val_R10,val_mAP10,lr"
REPORT_KEYS = ("R1", "R5", "R10", "mAP10", "queries", "audio")
CAPTION_KEYS = ("BLEU_1", "BLEU_2", "BLEU_3", "BLEU_4", "ROUGE_L", "METEOR", "CIDEr")
CIDER_MAX = 10.0  # CIDEr-D is scaled by 10 and each cosine term is at most 1
REPORT_TOL = 5e-5 + 1e-9  # the report prints 4 decimals
RANK_SCORE_TOL = 5e-7 + 1e-9  # rank prints 6 decimals


# -- train ---------------------------------------------------------------


def check_epoch_log(text: str, epochs: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != EPOCH_LOG_HEADER:
        return [f"epoch log header is {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != epochs:
        return [f"epoch log has {len(rows)} rows, expected {epochs}"]
    problems = []
    for k, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 7:
            problems.append(f"epoch log row {k}: {len(fields)} fields")
            continue
        try:
            values = [float(v) for v in fields]
        except ValueError:
            problems.append(f"epoch log row {k}: non-numeric field")
            continue
        if values[0] != k:
            problems.append(f"epoch log row {k}: epoch {fields[0]}")
        if not math.isfinite(values[1]) or values[1] < 0.0:
            problems.append(f"epoch log row {k}: train_loss {fields[1]}")
        if not all(0.0 <= v <= 1.0 for v in values[2:6]):
            problems.append(f"epoch log row {k}: validation metric out of [0,1]")
        if not values[6] > 0.0:
            problems.append(f"epoch log row {k}: lr {fields[6]}")
    return problems


def check_params_moved(trained: dict, initial: dict) -> list[str]:
    """Same names and shapes as init, all finite, and training changed them."""
    if list(trained) != list(initial):
        return ["checkpoint parameter names differ from init_params"]
    problems = []
    moved = False
    for name, tensor in trained.items():
        data, init = tensor.data, initial[name].data
        if data.shape != init.shape:
            problems.append(f"{name}: shape {data.shape}, init has {init.shape}")
            continue
        if not np.all(np.isfinite(data)):
            problems.append(f"{name}: non-finite values")
        moved = moved or not np.array_equal(data, init)
    if not moved:
        problems.append("no parameter moved from init_params")
    return problems


# -- retrieve ------------------------------------------------------------


def exp_neg_euclid_matrix(text: np.ndarray, audio: np.ndarray) -> np.ndarray:
    """scores[q, n] = exp(-||text[q] - audio[n]||), computed pairwise in float64."""
    diff = text[:, None, :].astype(np.float64) - audio[None, :, :].astype(np.float64)
    return np.exp(-np.sqrt(np.sum(diff * diff, axis=2)))


def ground_truth_ranks(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """1-based rank of each row's true column; ties go to the lower index."""
    idx = np.arange(scores.shape[1])
    true_scores = scores[np.arange(scores.shape[0]), truth][:, None]
    ahead = (scores > true_scores) | ((scores == true_scores) & (idx[None, :] < truth[:, None]))
    return 1 + ahead.sum(axis=1)


def expected_report(scores: np.ndarray, truth: np.ndarray) -> dict:
    ranks = ground_truth_ranks(scores, truth)
    n = scores.shape[1]
    return {"R1": float(np.mean(ranks <= 1)),
            "R5": float(np.mean(ranks <= min(5, n))),
            "R10": float(np.mean(ranks <= min(10, n))),
            "mAP10": float(np.mean(np.where(ranks <= 10, 1.0 / ranks, 0.0))),
            "queries": scores.shape[0], "audio": n}


def check_eval_report(text: str, expected: dict) -> list[str]:
    try:
        report = json.loads(text.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return [f"eval report is not one structured line: {text[:80]!r}"]
    if not isinstance(report, dict) or sorted(report) != sorted(REPORT_KEYS):
        return [f"eval report keys {sorted(report) if isinstance(report, dict) else report!r}"]
    problems = []
    for key in ("queries", "audio"):
        if report[key] != expected[key]:
            problems.append(f"eval report {key}={report[key]}, expected {expected[key]}")
    for key in ("R1", "R5", "R10", "mAP10"):
        if abs(report[key] - expected[key]) > REPORT_TOL:
            problems.append(f"eval report {key}={report[key]}, recomputed {expected[key]:.6f}")
    return problems


def expected_ranking(scores: np.ndarray, names: list[str], top_k: int) -> list[tuple[str, float]]:
    """Top k (name, score), highest first, ties to the earlier clip."""
    order = sorted(range(len(names)), key=lambda j: (-scores[j], j))
    return [(names[j], float(scores[j])) for j in order[:top_k]]


def check_rank_output(text: str, expected: list[tuple[str, float]],
                      split_names: set[str]) -> list[str]:
    lines = text.strip().splitlines()
    if len(lines) != len(expected):
        return [f"rank printed {len(lines)} rows, expected {len(expected)}"]
    problems = []
    previous = math.inf
    for pos, (line, (want_name, want_score)) in enumerate(zip(lines, expected), start=1):
        fields = line.split(",")
        if len(fields) != 3:
            problems.append(f"rank row {pos}: {line!r}")
            continue
        rank, name, score_text = fields
        try:
            score = float(score_text)
        except ValueError:
            problems.append(f"rank row {pos}: score {score_text!r}")
            continue
        if rank != str(pos):
            problems.append(f"rank row {pos}: rank field {rank!r}")
        if name not in split_names:
            problems.append(f"rank row {pos}: {name!r} is not in the split")
        if score > previous:
            problems.append(f"rank row {pos}: score {score} increases")
        previous = score
        if name != want_name or abs(score - want_score) > RANK_SCORE_TOL:
            problems.append(f"rank row {pos}: {name},{score}, recomputed "
                            f"{want_name},{want_score:.6f}")
    return problems


# -- offline -------------------------------------------------------------


def closed_form_frames(n_samples: int, sample_rate: int, win_ms: float = 40.0,
                       hop_ms: float = 20.0) -> int:
    win = int(round(sample_rate * win_ms / 1000.0))
    hop = int(round(sample_rate * hop_ms / 1000.0))
    return (n_samples - win) // hop + 1


def check_fmat(path: Path, frames: int, cols: int = 64) -> list[str]:
    """Header, frame count, width and finiteness of one FMAT file."""
    try:
        data = path.read_bytes()
    except OSError as e:
        return [f"{path.name}: {e}"]
    if len(data) < 16 or data[:4] != b"FMAT":
        return [f"{path.name}: bad header"]
    version, rows, width = struct.unpack_from("<III", data, 4)
    if version != 1 or rows != frames or width != cols:
        return [f"{path.name}: version {version}, {rows} x {width}, expected {frames} x {cols}"]
    if len(data) != 16 + 4 * rows * width:
        return [f"{path.name}: {len(data)} bytes, expected {16 + 4 * rows * width}"]
    if not np.all(np.isfinite(np.frombuffer(data, dtype="<f4", offset=16))):
        return [f"{path.name}: non-finite values"]
    return []


def check_caption_scores(text: str) -> list[str]:
    try:
        scores = json.loads(text.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return [f"caption scores are not one structured line: {text[:80]!r}"]
    if not isinstance(scores, dict) or sorted(scores) != sorted(CAPTION_KEYS):
        return [f"caption score keys {sorted(scores) if isinstance(scores, dict) else scores!r}"]
    problems = []
    for key, value in scores.items():
        high = CIDER_MAX if key == "CIDEr" else 1.0
        if not isinstance(value, (int, float)) or not 0.0 <= value <= high:
            problems.append(f"{key}={value!r} outside [0, {high}]")
    return problems
