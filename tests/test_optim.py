"""Optimizer, scheduler, early stopping, and training loop tests."""

import dataclasses
import re

import numpy as np
import pytest

from audiotext.losses import LossError
from audiotext.nnet import (AudioTower, ModelConfig, NnetError, ProjectionSpec, TextEmbedder,
                            init_params)
from audiotext.nnet.tensor import Tensor, zero_grads
from audiotext.optim import (
    EPOCH_LOG_HEADER,
    AdamState,
    EpochLog,
    OptimError,
    PlateauState,
    TrainConfig,
    _batch_step,
    adam_step,
    plateau_update,
    train,
    write_epoch_log,
)
from audiotext.rng import SplitMix64

from gradcheck import collect_grads
from helpers import (
    VOCAB10,
    caption_table_for,
    random_word_table,
    small_config,
    synthetic_dataset,
)
from oracles import batch_step_reference


# ---------------------------------------------------------------- adam


def test_adam_first_step_hand_value():
    params = {"theta": Tensor(np.array([0.0]))}
    state = AdamState(params, lr=1e-3)
    adam_step(params, {"theta": np.array([2.0])}, state)
    # m_hat = g, v_hat = g^2, so the step is lr * g / (|g| + eps)
    assert params["theta"].data[0] == pytest.approx(-1e-3, rel=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_is_a_no_op():
    params = {"theta": Tensor(np.array([1.5, -2.0]))}
    state = AdamState(params, lr=0.1)
    adam_step(params, {"theta": np.zeros(2)}, state)
    assert params["theta"].data.tolist() == [1.5, -2.0]
    # a missing entry counts as a zero gradient
    adam_step(params, {}, state)
    assert params["theta"].data.tolist() == [1.5, -2.0]


def test_adam_identical_gradients_update_identically():
    params = {"a": Tensor(np.array([0.5])), "b": Tensor(np.array([0.5]))}
    state = AdamState(params, lr=1e-2)
    for step in range(5):
        g = np.array([1.0 + step])
        adam_step(params, {"a": g.copy(), "b": g.copy()}, state)
        assert params["a"].data[0] == params["b"].data[0]


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=4)
    params = {"theta": Tensor(theta0.copy())}
    state = AdamState(params, lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8)

    ref = theta0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 8):
        g = rng.normal(size=4)
        adam_step(params, {"theta": g.copy()}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        ref = ref - 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params["theta"].data, ref, rtol=1e-12, atol=1e-15)


def test_adam_rejects_bad_gradients():
    params = {"theta": Tensor(np.zeros(2))}
    state = AdamState(params, lr=1e-3)
    with pytest.raises(OptimError, match="non-finite gradient"):
        adam_step(params, {"theta": np.array([1.0, np.nan])}, state)
    with pytest.raises(OptimError, match="shape"):
        adam_step(params, {"theta": np.zeros(3)}, state)


# ---------------------------------------------------------------- plateau


def test_plateau_halves_after_patience_stagnant_epochs():
    state = PlateauState()
    tc = TrainConfig(plateau_factor=0.5, plateau_patience=5, min_lr=1e-6)
    lr = 1e-3
    lr = plateau_update(state, 0.30, lr, tc)  # first observation improves on -inf
    assert lr == 1e-3
    for _ in range(4):
        lr = plateau_update(state, 0.30, lr, tc)
        assert lr == 1e-3
    lr = plateau_update(state, 0.30, lr, tc)  # fifth stagnant epoch
    assert lr == 5e-4
    for _ in range(4):
        lr = plateau_update(state, 0.30, lr, tc)
    lr = plateau_update(state, 0.30, lr, tc)
    assert lr == 2.5e-4


def test_plateau_improvement_resets_counter():
    state = PlateauState()
    tc = TrainConfig(plateau_factor=0.5, plateau_patience=3, min_lr=1e-6)
    lr = 1e-3
    lr = plateau_update(state, 0.1, lr, tc)
    lr = plateau_update(state, 0.1, lr, tc)  # stagnant x1
    lr = plateau_update(state, 0.1, lr, tc)  # stagnant x2
    lr = plateau_update(state, 0.2, lr, tc)  # improvement
    lr = plateau_update(state, 0.2, lr, tc)
    lr = plateau_update(state, 0.2, lr, tc)
    assert lr == 1e-3  # never hit 3 consecutive stagnant epochs


def test_plateau_threshold_requires_strict_improvement():
    state = PlateauState()
    tc = TrainConfig(plateau_factor=0.5, plateau_patience=1, min_lr=1e-6)
    lr = plateau_update(state, 0.5, 1e-3, tc)
    # within the 1e-6 threshold: stagnant, and patience 1 fires at once
    lr = plateau_update(state, 0.5 + 1e-6, lr, tc)
    assert lr == 5e-4
    # beyond the threshold: improvement
    lr = plateau_update(state, 0.5 + 2e-6, lr, tc)
    assert lr == 5e-4
    assert state.best == pytest.approx(0.5 + 2e-6)


def test_plateau_respects_min_lr():
    state = PlateauState()
    tc = TrainConfig(plateau_factor=0.5, plateau_patience=1, min_lr=1e-6)
    lr = plateau_update(state, 0.9, 2e-6, tc)
    lr = plateau_update(state, 0.1, lr, tc)
    assert lr == 1e-6
    lr = plateau_update(state, 0.1, lr, tc)
    assert lr == 1e-6  # floored, never below


# ---------------------------------------------------------------- epoch log


def test_epoch_log_header_and_row_format():
    assert EPOCH_LOG_HEADER == "epoch,train_loss,val_R1,val_R5,val_R10,val_mAP10,lr"
    row = EpochLog(epoch=3, train_loss=0.125, val_r1=0.5, val_r5=0.75,
                   val_r10=1.0, val_map10=1.0 / 3.0, lr=0.001)
    assert row.to_csv_row() == "3,0.125,0.5,0.75,1.0,0.3333333333333333,0.001"


def test_write_epoch_log_round_trips_through_float(tmp_path):
    rows = [
        EpochLog(1, 1.7233594, 0.1, 0.2, 0.3, 0.0123456789012345, 1e-3),
        EpochLog(2, 0.9, 0.2, 0.4, 0.6, 0.2, 5e-4),
    ]
    path = tmp_path / "log.csv"
    write_epoch_log(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == EPOCH_LOG_HEADER
    assert len(lines) == 3
    # repr() serialization preserves every bit of each float
    fields = lines[1].split(",")
    assert float(fields[1]) == rows[0].train_loss
    assert float(fields[5]) == rows[0].val_map10


# ---------------------------------------------------------------- train config


def test_train_config_round_trip():
    cfg = TrainConfig(epochs=7, batch_size=4, seed=2, early_stop_patience=3,
                      plateau_factor=0.25, plateau_patience=2, min_lr=1e-5)
    assert TrainConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_train_config_rejects_bad_values():
    with pytest.raises(OptimError, match="unknown training config keys"):
        TrainConfig.from_dict({"epochs": 5, "momentum": 0.9})
    with pytest.raises(OptimError, match="epochs"):
        TrainConfig(epochs=0).validate()
    with pytest.raises(OptimError, match="batch_size"):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(OptimError, match="plateau_factor"):
        TrainConfig(plateau_factor=1.0).validate()
    with pytest.raises(OptimError, match="plateau_patience"):
        TrainConfig(plateau_patience=0).validate()
    with pytest.raises(OptimError, match="early_stop_patience"):
        TrainConfig(early_stop_patience=0).validate()
    with pytest.raises(OptimError, match="min_lr"):
        TrainConfig(min_lr=0.0).validate()


@pytest.mark.parametrize("build, error, message", [
    (lambda: ModelConfig(feature_dim=8, audio_tower=(), embed_dim=8, recurrent_cell="none",
                         lr=0.0), NnetError, "lr must be positive, got 0.0"),
    (lambda: dataclasses.replace(small_config(), lr=0.0), NnetError,
     "lr must be positive, got 0.0"),
    (lambda: dataclasses.replace(small_config(), recurrent_cell="rnn"), NnetError,
     "recurrent_cell must be gru|lstm|none, got 'rnn'"),
    (lambda: TrainConfig(batch_size=1), OptimError,
     "batch_size must be >= 2 (imposter sampling), got 1"),
    (lambda: dataclasses.replace(TrainConfig(), min_lr=float("inf")), OptimError,
     "min_lr must be finite, got inf"),
], ids=["model", "model_replace", "model_replace_cell", "train", "train_replace"])
def test_configs_are_checked_when_built(build, error, message):
    # a config built in Python, not read from a dict, is checked as it is built
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# ---------------------------------------------------------------- training loop


def _tiny_problem(n_clips=6, seed=0):
    manifest, records, features = synthetic_dataset(n_clips, seed=seed)
    table = random_word_table(VOCAB10, 6, seed=11)
    return manifest, records, features, table


def test_train_is_deterministic():
    manifest, records, features, table = _tiny_problem()
    config = small_config()
    tc = TrainConfig(epochs=3, batch_size=8, seed=1)
    r1 = train(manifest, manifest, features, config, tc, word_table=table)
    r2 = train(manifest, manifest, features, config, tc, word_table=table)
    assert [row.to_csv_row() for row in r1.log] == [row.to_csv_row() for row in r2.log]
    assert list(r1.checkpoint.params) == list(r2.checkpoint.params)
    for name in r1.checkpoint.params:
        assert (r1.checkpoint.params[name].data.tobytes()
                == r2.checkpoint.params[name].data.tobytes())
    assert r1.checkpoint.epoch == r2.checkpoint.epoch


def test_train_log_and_checkpoint_consistency():
    manifest, records, features, table = _tiny_problem()
    config = small_config()
    tc = TrainConfig(epochs=4, batch_size=8, seed=2)
    result = train(manifest, manifest, features, config, tc, word_table=table)
    assert [row.epoch for row in result.log] == list(range(1, len(result.log) + 1))
    best_in_log = max(row.val_map10 for row in result.log)
    assert result.checkpoint.best_validation_map10 == best_in_log
    assert result.final_report.map10 == result.checkpoint.best_validation_map10
    # first epoch attaining the maximum wins
    first = next(r.epoch for r in result.log if r.val_map10 == best_in_log)
    assert result.checkpoint.epoch == first
    assert result.checkpoint.model == config
    assert result.checkpoint.config == config.to_dict()
    for row in result.log:
        assert np.isfinite(row.train_loss)


def test_train_keeps_trailing_singleton_in_last_batch():
    # 6 clips x 5 captions = 30 pairs; batch_size 29 leaves a singleton
    # that cannot be contrasted, so it merges into the previous batch
    manifest, records, features, table = _tiny_problem()
    result = train(manifest, manifest, features,
                   small_config(), TrainConfig(epochs=1, batch_size=29, seed=0),
                   word_table=table)
    assert len(result.log) == 1


@pytest.mark.parametrize("patience", [1, 2, 3])
def test_train_early_stops_on_flat_validation(patience):
    # zero-scale word vectors freeze the text tower at 0, so validation
    # scores (and mAP10) never move: every epoch ties epoch 1, and the
    # tie goes to the earliest epoch, so the best epoch stays at 1
    manifest, records, features, _ = _tiny_problem()
    frozen = random_word_table(VOCAB10, 6, seed=0, scale=0.0)
    result = train(manifest, manifest, features,
                   small_config(), TrainConfig(epochs=10, batch_size=8, seed=0,
                                               early_stop_patience=patience),
                   word_table=frozen)
    assert result.checkpoint.epoch == 1
    # stops at the first epoch more than `patience` epochs after the best
    assert len(result.log) == patience + 2


def test_train_logs_the_lr_used_each_epoch():
    manifest, records, features, _ = _tiny_problem()
    frozen = random_word_table(VOCAB10, 6, seed=0, scale=0.0)
    result = train(manifest, manifest, features,
                   small_config(), TrainConfig(epochs=4, batch_size=8, seed=0,
                                               early_stop_patience=10**9,
                                               plateau_patience=1),
                   word_table=frozen)
    # flat metric: improvement on epoch 1 only, then one halving per epoch
    assert [row.lr for row in result.log] == [1e-3, 1e-3, 5e-4, 2.5e-4]


def test_train_lr_constant_when_plateau_disabled():
    manifest, records, features, table = _tiny_problem()
    result = train(manifest, manifest, features,
                   small_config(), TrainConfig(epochs=3, batch_size=8, seed=0,
                                               plateau_patience=10**9),
                   word_table=table)
    assert [row.lr for row in result.log] == [1e-3, 1e-3, 1e-3]


def test_train_bce_loss_mode_runs():
    manifest, records, features, table = _tiny_problem()
    config = small_config(loss="bce_expdist")
    result = train(manifest, manifest, features, config,
                   TrainConfig(epochs=2, batch_size=8, seed=0), word_table=table)
    assert len(result.log) == 2
    assert all(np.isfinite(row.train_loss) and row.train_loss > 0 for row in result.log)


def test_train_sentence_table_mode_runs():
    manifest, records, features, _ = _tiny_problem()
    config = small_config(text_mode="sentence_table")
    table = caption_table_for(records, dim=6, seed=3)
    result = train(manifest, manifest, features, config,
                   TrainConfig(epochs=2, batch_size=8, seed=0), caption_table=table)
    assert len(result.log) == 2


def test_train_rejects_uncontrastable_batch():
    # a single clip gives every pair the same audio_id
    manifest, records, features, table = _tiny_problem(n_clips=1)
    with pytest.raises(LossError, match="no eligible imposter"):
        train(manifest, manifest, features,
              small_config(), TrainConfig(epochs=1, batch_size=5, seed=0),
              word_table=table)


# ---------------------------------------------------------------- batch step


_BATCH_MODES = {
    "triplet_word_projection": dict(loss="triplet", projection=ProjectionSpec(out_dim=5)),
    "bce_word_projection": dict(loss="bce_expdist", projection=ProjectionSpec(out_dim=5)),
    "triplet_sentence": dict(loss="triplet", text_mode="sentence_table"),
    "bce_sentence": dict(loss="bce_expdist", text_mode="sentence_table"),
    "triplet_word_lstm": dict(loss="triplet", recurrent_cell="lstm"),
}


def _batch_setup(mode, dataset_seed=4):
    manifest, records, features = synthetic_dataset(6, seed=dataset_seed)
    config = small_config(**_BATCH_MODES[mode])
    params = init_params(config, seed=5, dtype=np.float64)
    if config.text_mode == "sentence_table":
        embedder = TextEmbedder(config, params,
                                caption_table=caption_table_for(records, dim=6, seed=6))
    else:
        embedder = TextEmbedder(config, params,
                                word_table=random_word_table(VOCAB10, 6, seed=7))
    pairs = [(record.file_name, record) for record in records]
    return pairs, features, config, params, AudioTower(config, params), embedder


def _batches(pairs):
    shuffled = list(pairs)
    SplitMix64(8).shuffle(shuffled)
    one_per_clip = list({name: (name, record) for name, record in pairs}.values())
    return {"repeats": shuffled[:12], "all_pairs": shuffled,
            "distinct": one_per_clip}


@pytest.mark.parametrize("mode", sorted(_BATCH_MODES))
def test_batch_step_matches_per_pair_oracle(mode):
    """The batch step draws the same imposters and gives the oracle's loss
    within 4 ulps and its gradients within 1e-12.

    The loss is not compared bit for bit: the packed sweep multiplies all
    running clips per step in one GEMM, while the oracle's one-clip
    forwards multiply a single row, and the two products round
    differently. At dataset seed 11 the losses differ by one ulp (with
    OpenBLAS on x86-64); seed 4 is the original fixture.
    """
    for dataset_seed in (4, 11):
        pairs, features, config, params, tower, embedder = _batch_setup(mode, dataset_seed)
        for label, batch in _batches(pairs).items():
            label = f"seed {dataset_seed} {label}"
            results = []
            for step in (_batch_step, batch_step_reference):
                zero_grads(params)
                rng = SplitMix64(9)
                loss = step(batch, features, tower, embedder, config, rng)
                results.append((loss, collect_grads(params), rng.state))
            (loss, grads, state), (ref_loss, ref_grads, ref_state) = results
            assert abs(loss - ref_loss) <= 4 * np.spacing(abs(ref_loss)), label
            assert state == ref_state, label
            assert list(grads) == list(ref_grads)
            for name in grads:
                assert grads[name].dtype == np.float64
                np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12,
                                           err_msg=f"{label}: {name}")


def test_batch_step_encodes_each_distinct_clip_once(monkeypatch):
    pairs, features, config, params, tower, embedder = _batch_setup("triplet_word_projection")
    encoded = []
    forward_batch = AudioTower.forward_batch

    def counting_forward_batch(self, clips):
        encoded.extend(next(name for name, f in features.items() if f.frames is frames)
                       for frames in clips)
        return forward_batch(self, clips)

    monkeypatch.setattr(AudioTower, "forward_batch", counting_forward_batch)
    for batch in _batches(pairs).values():
        encoded.clear()
        _batch_step(batch, features, tower, embedder, config, SplitMix64(9))
        names = [name for name, _ in batch]
        assert sorted(encoded) == sorted(set(names))
