"""Acceptance gate for the retrieval engine.

Each test here checks one release criterion end to end and prints a
single PASS/FAIL line with the measured numbers, so a full run gives a
compact scorecard. Every check recomputes its expectation from an
independent construction (brute-force oracle, closed form, or repeated
run), never from the code under test.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import audiotext
from audiotext.corpus import (
    CaptionRecord,
    DatasetManifest,
    FeatureSequence,
    ManifestItem,
)
from audiotext.dsp import WaveForm, frame_count, log_mel_features, mel_filterbank
from audiotext.nnet import (
    AudioTower,
    Checkpoint,
    Conv1d,
    Dense,
    GRUCell,
    LSTMCell,
    MaxPoolTime,
    MeanPoolTime,
    ModelConfig,
    Projection,
    ProjectionSpec,
    Tensor,
    default_tower,
    init_params,
    save_checkpoint,
    zero_grads,
)
from audiotext.optim import TrainConfig, train, write_epoch_log
from audiotext.retrieval import (
    ScoreMatrix,
    evaluate_retrieval,
    rank_row,
    report_from_matrix,
)
from audiotext.textmetrics import (
    CaptionEvalItem,
    CaptionEvalSet,
    bleu_corpus,
    cider_d_per_item,
    meteor_lite,
    meteor_lite_item,
    rouge_l,
    rouge_l_item,
    spider_combine,
)

from gradcheck import collect_grads, finite_difference_check
from helpers import (
    VOCAB10,
    caption_table_for,
    embedding_table,
    random_word_table,
    small_config,
    small_tower,
    synthetic_dataset,
    toy_metric_corpus,
)
from oracles import (
    bleu_reference,
    cider_d_reference,
    meteor_reference,
    retrieval_reference,
    rouge_l_reference,
)
from test_cli import base_config_dict, make_dataset, run_cli, write_config

GRAD_TOL = 1e-4


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ------------------------------------------------------------------
# 1. gradient correctness


def _dense_err(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((3, 5)))
    b = Tensor(rng.standard_normal(3))
    xt = Tensor(rng.standard_normal((4, 5)))
    d = rng.standard_normal((4, 3))
    layer = Dense(w, b)
    params = {"w": w, "b": b, "x": xt}

    def loss_fn():
        y, _ = layer.forward(xt.data)
        return float((y * d).sum())

    def grad_fn():
        zero_grads(params)
        y, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, d))
        return collect_grads(params)

    return finite_difference_check(loss_fn, grad_fn, params)


def _conv_err(seed):
    rng = np.random.default_rng(seed)
    kernels = Tensor(0.7 * rng.standard_normal((3, 2, 3)))
    bias = Tensor(0.2 * rng.standard_normal(3))
    xt = Tensor(rng.standard_normal((6, 2)))
    d = rng.standard_normal((6, 3))
    layer = Conv1d(kernels, bias)
    params = {"kernels": kernels, "bias": bias, "x": xt}

    def loss_fn():
        y, _ = layer.forward(xt.data)
        return float((y * d).sum())

    def grad_fn():
        zero_grads(params)
        y, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, d))
        return collect_grads(params)

    return finite_difference_check(loss_fn, grad_fn, params)


def _cell_params(rng, gates, hidden, in_dim):
    # mild scale keeps every gate in its responsive region; saturated
    # gates produce ~1e-8 gradient coordinates whose finite differences
    # are pure cancellation noise
    p = {}
    for gate in gates:
        p[f"w_{gate}"] = Tensor(0.4 * rng.standard_normal((hidden, in_dim)))
        p[f"u_{gate}"] = Tensor(0.4 * rng.standard_normal((hidden, hidden)))
        p[f"b_{gate}"] = Tensor(0.4 * rng.standard_normal(hidden))
    return p


def _sweep_err(cell_cls, seed, steps=3):
    # the fused sweep over T >= 2 steps, so the recurrent h (and LSTM c)
    # paths carry gradient between steps
    rng = np.random.default_rng(seed)
    hidden, in_dim = 3, 4
    p = _cell_params(rng, cell_cls.GATES, hidden, in_dim)
    cell = cell_cls(p)
    xt = Tensor(0.8 * rng.standard_normal((steps, in_dim)))
    d = rng.standard_normal((steps, hidden))
    params = dict(p, x=xt)

    def loss_fn():
        (states,), _ = cell.sweep([xt.data])
        return float((states * d).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = cell.sweep([xt.data])
        xt.accumulate(cell.sweep_backward(cache, [d])[0])
        return collect_grads(params)

    return finite_difference_check(loss_fn, grad_fn, params)


def _gru_sweep_err(seed):
    return _sweep_err(GRUCell, seed)


def _lstm_sweep_err(seed):
    return _sweep_err(LSTMCell, seed)


def _pool_err(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for layer in (MaxPoolTime(2), MeanPoolTime(0), MeanPoolTime(2)):
        xt = Tensor(rng.standard_normal((7, 3)))
        y0, _ = layer.forward(xt.data)
        d = rng.standard_normal(np.asarray(y0).shape)
        params = {"x": xt}

        def loss_fn():
            y, _ = layer.forward(xt.data)
            return float((y * d).sum())

        def grad_fn():
            zero_grads(params)
            y, cache = layer.forward(xt.data)
            xt.accumulate(layer.backward(cache, d))
            return collect_grads(params)

        worst = max(worst, finite_difference_check(loss_fn, grad_fn, params))
    return worst


def _projection_err(seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((3, 5)))
    b = Tensor(rng.standard_normal(3))
    vt = Tensor(rng.standard_normal(5))
    pre = w.data @ vt.data + b.data
    b.data += 0.2 * np.sign(pre)  # keep pre-activations clear of the relu kink
    d = rng.standard_normal(3)
    layer = Projection(w, b, "relu")
    params = {"w": w, "b": b, "v": vt}

    def loss_fn():
        out, _ = layer.forward(vt.data)
        return float(out @ d)

    def grad_fn():
        zero_grads(params)
        out, cache = layer.forward(vt.data)
        vt.accumulate(layer.backward(cache, d))
        return collect_grads(params)

    return finite_difference_check(loss_fn, grad_fn, params)


def _tower_err(seed):
    rng = np.random.default_rng(seed)
    config = small_config(
        feature_dim=6,
        embed_dim=4,
        audio_tower=small_tower(6, (5, 4)),
        recurrent_cell="lstm" if seed % 2 else "gru",
        projection=ProjectionSpec(out_dim=3),
    )
    params = init_params(config, seed=seed)
    for t in params.values():
        t.data = t.data.astype(np.float64)
    tower = AudioTower(config, params)
    frames = rng.standard_normal((9, 6))
    d = rng.standard_normal(3)

    def loss_fn():
        out, _ = tower.forward(frames)
        return float(out @ d)

    def grad_fn():
        zero_grads(params)
        out, cache = tower.forward(frames)
        tower.backward(cache, d)
        return collect_grads(params)

    return finite_difference_check(loss_fn, grad_fn, params)


def test_gradient_correctness():
    families = [
        ("dense", _dense_err, 0),
        ("conv1d", _conv_err, 100),
        ("gru_sweep", _gru_sweep_err, 3200),
        ("lstm_sweep", _lstm_sweep_err, 300),
        ("pooling", _pool_err, 400),
        ("projection", _projection_err, 500),
        ("tower", _tower_err, 600),
    ]
    start = time.perf_counter()
    worst_name, worst = "", 0.0
    checks = 0
    for name, fn, base in families:
        for i in range(20):
            err = fn(base + i)
            checks += 1
            if err > worst:
                worst_name, worst = name, err
    elapsed = time.perf_counter() - start
    ok = worst < GRAD_TOL and elapsed < 120.0
    _report("gradient-correctness", ok,
            f"max rel err {worst:.3e} ({worst_name}), {checks} checks in {elapsed:.1f}s")
    assert worst < GRAD_TOL
    assert elapsed < 120.0


# ------------------------------------------------------------------
# 2. caption metric oracle equivalence


def _eval_set(items):
    built = [CaptionEvalItem(key=f"item{i}", candidate=tuple(cand),
                             references=tuple(tuple(r) for r in refs))
             for i, (cand, refs) in enumerate(items)]
    return CaptionEvalSet(items=tuple(built))


def test_caption_metric_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(200):
        items = toy_metric_corpus(rng)
        s = _eval_set(items)
        for got, want in zip(bleu_corpus(s), bleu_reference(items)):
            worst = max(worst, abs(got - want))
        worst = max(worst, abs(rouge_l(s) - rouge_l_reference(items)))
        worst = max(worst, abs(meteor_lite(s) - meteor_reference(items)))
        for got, want in zip(cider_d_per_item(s), cider_d_reference(items)):
            worst = max(worst, abs(got - want))

    anchor_diffs = []
    s = _eval_set([(("the", "cat", "sat"), [("the", "cat", "sat", "down")])])
    anchor_diffs.append(abs(bleu_corpus(s)[0] - math.exp(1.0 - 4.0 / 3.0)))
    s = _eval_set([(("the", "the", "the"), [("the", "cat")])])
    clipped = bleu_corpus(s)
    anchor_diffs.append(abs(clipped[0] - 1.0 / 3.0))
    anchor_diffs.extend(abs(v) for v in clipped[1:])
    anchor_diffs.append(abs(
        rouge_l_item(["the", "cat", "sat"], [["the", "cat", "on", "the", "mat"]])
        - 0.47843137254901963))
    anchor_diffs.append(abs(
        meteor_lite_item(["a", "dog", "barks"], [["a", "dog", "barks"]])
        - (1.0 - 0.5 / 27.0)))
    anchor_diffs.append(abs(
        meteor_lite_item(["the", "cat", "sat"], [["the", "sat", "cat"]]) - 0.5))
    s = _eval_set([(("a", "dog"), [("a", "dog", "barks")]),
                   (("rain", "falls"), [("rain", "falls")])])
    anchor_diffs.append(abs(
        cider_d_per_item(s, max_n=1)[0]
        - 10.0 * (2.0 / math.sqrt(6.0)) * math.exp(-1.0 / 72.0)))
    anchor_diffs.append(abs(spider_combine(0.358, {"x": 0.109}, ["x"])[1] - 0.2335))
    anchor_worst = max(anchor_diffs)

    ok = worst < 1e-9 and anchor_worst < 1e-12
    _report("caption-metric-oracles", ok,
            f"200 corpora max |diff| {worst:.2e}, anchors max |diff| {anchor_worst:.2e}")
    assert worst < 1e-9
    assert anchor_worst < 1e-12


# ------------------------------------------------------------------
# 3. retrieval metric oracle


def test_retrieval_metric_oracle():
    rng = np.random.default_rng(30)
    exact = True
    invariant = True
    for i in range(100):
        q = int(rng.integers(1, 201))
        n = int(rng.integers(1, 101))
        scores = rng.standard_normal((q, n))
        if i % 3 == 0:
            scores = np.round(scores, 1)  # force score ties
        gt = tuple(int(g) for g in rng.integers(0, n, size=q))
        matrix = ScoreMatrix(scores=scores, ground_truth=gt)
        report = report_from_matrix(matrix)
        want = retrieval_reference(scores, gt)
        exact &= (report.r1, report.r5, report.r10, report.map10) == want

        if i % 10 == 0:
            for transform in (lambda s: 2.0 * s + 1.0, np.exp):
                mapped = ScoreMatrix(scores=transform(scores), ground_truth=gt)
                mapped_report = report_from_matrix(mapped)
                invariant &= (
                    (mapped_report.r1, mapped_report.r5, mapped_report.r10,
                     mapped_report.map10)
                    == (report.r1, report.r5, report.r10, report.map10))
                for row in range(q):
                    invariant &= bool(np.array_equal(rank_row(transform(scores)[row]),
                                                     rank_row(scores[row])))

    ok = exact and invariant
    _report("retrieval-metric-oracle", ok,
            f"100 matrices exact={exact}, rank invariance={invariant}")
    assert exact
    assert invariant


# ------------------------------------------------------------------
# 4. null-model calibration


def test_null_model_calibration():
    manifest, _, features = synthetic_dataset(100, feature_shape=(12, 24), seed=2)
    table = random_word_table(VOCAB10, 20, seed=4)
    config = small_config(feature_dim=24, embed_dim=20, audio_tower=small_tower(24))
    checkpoint = Checkpoint(config=config.to_dict(),
                            params=init_params(config, seed=5),
                            epoch=1, best_validation_map10=0.0)
    report = evaluate_retrieval(checkpoint, manifest, features, word_table=table)
    assert report.queries == 500
    assert report.audio == 100
    # an untrained scorer ranks uniformly: E[R10] = 10/100, E[mAP10] = H(10)/100
    expected_map = sum(1.0 / r for r in range(1, 11)) / 100.0
    r10_off = abs(report.r10 - 0.10)
    map_off = abs(report.map10 - expected_map)
    ok = r10_off <= 0.04 and map_off <= 0.015
    _report("null-model-calibration", ok,
            f"R10 {report.r10:.4f} (want 0.10 +/- 0.04), "
            f"mAP10 {report.map10:.4f} (want {expected_map:.4f} +/- 0.015)")
    assert r10_off <= 0.04
    assert map_off <= 0.015


# ------------------------------------------------------------------
# 5. overfit a tiny corpus


def test_overfit_tiny_corpus():
    rng = np.random.default_rng(0)
    eye = np.eye(16, dtype=np.float32)
    names = [f"clip{c}.wav" for c in range(8)]
    features = {}
    items = []
    for i, name in enumerate(names):
        features[name] = FeatureSequence(
            frames=rng.standard_normal((50, 64)).astype(np.float32),
            feature_kind="external", source_file=name)
        rec = CaptionRecord(file_name=name, caption_index=1,
                            raw_text=f"w{i}", tokens=(f"w{i}",))
        items.append(ManifestItem(file_name=name, captions=(rec,)))
    manifest = DatasetManifest(split="development", items=tuple(items))
    table = embedding_table({f"w{i}": eye[i] for i in range(8)})

    config = ModelConfig(feature_dim=64, audio_tower=default_tower(64, (32, 32)),
                         recurrent_cell="gru", embed_dim=16, loss="triplet",
                         margin=1.0, seed=0, lr=1e-3)
    train_config = TrainConfig(epochs=500, batch_size=8, seed=1,
                               early_stop_patience=10 ** 9,
                               plateau_patience=10 ** 9)
    start = time.perf_counter()
    result = train(manifest, manifest, features, config, train_config, word_table=table)
    elapsed = time.perf_counter() - start

    best_r1 = max(row.val_r1 for row in result.log)
    min_loss = min(row.train_loss for row in result.log)
    ok = best_r1 == 1.0 and min_loss < 0.05 and elapsed < 60.0
    _report("overfit-tiny-corpus", ok,
            f"best R1 {best_r1:.2f}, min loss {min_loss:.4f}, "
            f"{len(result.log)} epochs in {elapsed:.1f}s")
    assert best_r1 == 1.0
    assert min_loss < 0.05
    assert elapsed < 60.0


# ------------------------------------------------------------------
# 6. experiment matrix trains and reproduces bitwise


def test_experiment_matrix_reproducible(tmp_path):
    base_ds = synthetic_dataset(6, feature_shape=(12, 8), seed=9)
    wide_ds = synthetic_dataset(6, feature_shape=(25, 128), seed=10)
    table6 = random_word_table(VOCAB10, 6, seed=21)
    sentence_table = caption_table_for(base_ds[1], dim=300, seed=22)

    variants = [
        ("gru", base_ds, small_config(), table6, None),
        ("lstm", base_ds, small_config(recurrent_cell="lstm"), table6, None),
        ("external128", wide_ds,
         small_config(feature_dim=128, audio_tower=small_tower(128)), table6, None),
        ("projection1024", base_ds,
         small_config(projection=ProjectionSpec(out_dim=1024)), table6, None),
        ("sentence300", base_ds,
         small_config(embed_dim=300, text_mode="sentence_table"), None, sentence_table),
        ("bce", base_ds, small_config(loss="bce_expdist"), table6, None),
    ]

    failures = []
    for name, (manifest, _, features), config, word_table, caption_table in variants:
        blobs = []
        for rep in range(2):
            result = train(manifest, manifest, features, config,
                           TrainConfig(epochs=5, batch_size=8, seed=3),
                           word_table=word_table, caption_table=caption_table)
            assert len(result.log) == 5
            ckpt_path = tmp_path / f"{name}_{rep}.ckpt"
            save_checkpoint(ckpt_path, result.checkpoint.config,
                            result.checkpoint.params, result.checkpoint.epoch,
                            result.checkpoint.best_validation_map10)
            log_path = tmp_path / f"{name}_{rep}.csv"
            write_epoch_log(log_path, result.log)
            blobs.append((ckpt_path.read_bytes(),
                          log_path.read_text(encoding="utf-8")))
        if blobs[0] != blobs[1]:
            failures.append(name)

    ok = not failures
    _report("experiment-matrix", ok,
            f"6 variants x 5 epochs, bitwise repeat mismatches: {failures or 'none'}")
    assert not failures


# ------------------------------------------------------------------
# 7. DSP invariants


def test_dsp_invariants():
    rng = np.random.default_rng(7)
    rates = (8000, 16000, 22050, 44100, 48000)
    frames_ok = True
    for _ in range(50):
        sr = int(rates[rng.integers(0, len(rates))])
        win = int(round(sr * 0.040))
        hop = int(round(sr * 0.020))
        n = int(rng.integers(win, win * 40))
        got = frame_count(n, win, hop)
        closed_form = 1 + (n - win) // hop
        stepped = 0
        start = 0
        while start + win <= n:
            stepped += 1
            start += hop
        frames_ok &= got == closed_form == stepped

    sine_ok = True
    for sr in (16000, 44100):
        t = np.arange(sr) / sr
        wave = WaveForm(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t), sample_rate=sr)
        feats = log_mel_features(wave)
        win = int(round(sr * 0.040))
        n_fft = 1
        while n_fft < win:
            n_fft *= 2
        fb = mel_filterbank(sr, n_fft, 64)
        target = int(np.argmin(np.abs(fb.center_freqs - 1000.0)))
        sine_ok &= bool((feats.frames.argmax(axis=1) == target).all())

    silence = log_mel_features(WaveForm(samples=np.zeros(16000), sample_rate=16000))
    floor = np.float32(np.log(1e-10))
    silence_ok = bool((silence.frames == floor).all())

    ok = frames_ok and sine_ok and silence_ok
    _report("dsp-invariants", ok,
            f"frame counts exact={frames_ok}, sine band hit={sine_ok}, "
            f"silence at log floor={silence_ok}")
    assert frames_ok
    assert sine_ok
    assert silence_ok


# ------------------------------------------------------------------
# 8. end-to-end training determinism through the command line


def test_train_command_determinism(tmp_path):
    ds = make_dataset(tmp_path)
    blobs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        config_path = write_config(tmp_path / f"{run}.json",
                                   base_config_dict(ds, out_dir))
        code, out, err = run_cli(["train", "--config", str(config_path)])
        assert code == 0, err
        blobs.append(((out_dir / "model.ckpt").read_bytes(),
                      (out_dir / "epochs.csv").read_text(encoding="utf-8"),
                      out))
    identical = blobs[0] == blobs[1]
    _report("train-determinism", identical,
            f"checkpoint {len(blobs[0][0])} bytes and epoch log reproduced bitwise: "
            f"{identical}")
    assert identical


def _train_subprocess(config_path, blas_threads):
    """One `train` run in a fresh interpreter with a fixed BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(audiotext.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "audiotext.cli", "train",
                           "--config", str(config_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_train_determinism_under_blas_threads(tmp_path):
    # the paper's H = 300: the recurrent input-gradient product then has an
    # inner dimension of 3H = 900, large enough for OpenBLAS to split its
    # work differently when it is allowed two threads
    ds = make_dataset(tmp_path, n_frames=384, feature_dim=16, embed_dim=300)
    results = {}
    for threads in (1, 2):
        for run in ("one", "two"):
            out_dir = tmp_path / f"t{threads}_{run}"
            out_dir.mkdir()
            cfg = base_config_dict(ds, out_dir, epochs=2)
            model = small_config(feature_dim=16, embed_dim=300,
                                 audio_tower=small_tower(16, (32, 32))).to_dict()
            del model["seed"]
            cfg["model"] = model
            out = _train_subprocess(write_config(tmp_path / f"t{threads}_{run}.json", cfg),
                                    threads)
            results[threads, run] = ((out_dir / "model.ckpt").read_bytes(),
                                     (out_dir / "epochs.csv").read_text(encoding="utf-8"),
                                     out)
    repeat = {t: results[t, "one"] == results[t, "two"] for t in (1, 2)}
    across = results[1, "one"] == results[2, "one"]
    _report("train-determinism-blas-threads", all(repeat.values()),
            f"bitwise repeat with 1 thread: {repeat[1]}, with 2 threads: {repeat[2]}; "
            f"1-thread and 2-thread runs identical: {across}")
    assert repeat[1] and repeat[2]
