"""Network tests: layer math, gradients, configuration, checkpoints."""

import itertools
import json
import math
import os
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from audiotext.corpus import CaptionEmbeddingTable, CaptionRecord, FeatureSequence
from audiotext.nnet.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from audiotext.nnet.layers import (
    Activation,
    Conv1d,
    Dense,
    GRUCell,
    LSTMCell,
    MaxPoolTime,
    MeanPoolTime,
    NnetError,
    Packing,
    Projection,
    _windows,
)
from audiotext.nnet.model import (
    _ENCODE_GROUP,
    AudioTower,
    LayerSpec,
    ModelConfig,
    ProjectionSpec,
    TextEmbedder,
    default_tower,
    encode_audio,
    init_params,
    parameter_shapes,
)
from audiotext.nnet.tensor import Tensor, clone_params, zero_grads

from gradcheck import collect_grads, finite_difference_check
from helpers import (
    embedding_table,
    random_word_table,
    small_config,
    small_tower,
    write_unchecked_checkpoint,
)
from oracles import (
    GRUCellReference,
    LSTMCellReference,
    RowMajorGRUCell,
    RowMajorLSTMCell,
    activation_backward_reference,
    activation_reference,
    conv1d_im2col_backward_reference,
    conv1d_im2col_reference,
    encode_audio_reference,
    max_pool_time_flat_index_backward_reference,
    max_pool_time_flat_index_reference,
    max_pool_time_backward_reference,
    max_pool_time_reference,
    mean_pool_time_backward_reference,
    mean_pool_time_reference,
    projection_backward_reference,
    projection_reference,
)


# ---------------------------------------------------------------- tensor


def test_tensor_accumulate_sums_in_place():
    t = Tensor(np.zeros((2, 2)))
    t.accumulate(np.ones((2, 2)))
    t.accumulate(np.full((2, 2), 2.0))
    assert (t.grad == 3.0).all()
    t.zero_grad()
    assert (t.grad == 0.0).all()


def test_tensor_accumulate_rejects_shape_mismatch():
    t = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="gradient shape"):
        t.accumulate(np.ones(3))


def test_clone_params_copies_values_only():
    params = {"a": Tensor(np.arange(4.0))}
    params["a"].accumulate(np.ones(4))
    cloned = clone_params(params)
    cloned["a"].data[0] = 99.0
    assert params["a"].data[0] == 0.0
    assert cloned["a"].grad is None


# ---------------------------------------------------------------- forward math


def test_dense_hand_example():
    layer = Dense(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), Tensor(np.zeros(2)))
    y, _ = layer.forward(np.array([1.0, 1.0]))
    assert y.tolist() == [3.0, 7.0]


def test_dense_rejects_dim_mismatch():
    layer = Dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(NnetError, match="input dim"):
        layer.forward(np.zeros((4, 5)))


def test_conv1d_hand_example():
    # width-3 averaging kernel over (0, 3, 6) with zero padding
    x = np.array([[0.0], [3.0], [6.0]])
    kernels = np.full((1, 1, 3), 1.0 / 3.0)
    y, _ = Conv1d(Tensor(kernels), Tensor(np.zeros(1))).forward(x)
    assert np.allclose(y[:, 0], [1.0, 3.0, 3.0])


def test_conv1d_kernel_alignment():
    # kernels[o, c, j] multiplies x[t - 1 + j, c] for width 3
    x = np.array([[1.0], [0.0], [0.0]])
    left = np.zeros((1, 1, 3))
    left[0, 0, 0] = 1.0  # reads the previous frame
    y, _ = Conv1d(Tensor(left), Tensor(np.zeros(1))).forward(x)
    assert y[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_conv1d_rejects_even_kernel():
    with pytest.raises(NnetError, match="odd"):
        Conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros(1)))


def test_conv1d_rejects_bad_bias_and_input():
    with pytest.raises(NnetError, match="bias shape"):
        Conv1d(Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros(3)))
    layer = Conv1d(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros(2)))
    with pytest.raises(NnetError, match="expected"):
        layer.forward(np.zeros((5, 4)))


def test_activation_values():
    x = np.array([-1.0, 0.0, 2.0])
    assert Activation("relu").forward(x)[0].tolist() == [0.0, 0.0, 2.0]
    assert np.allclose(Activation("tanh").forward(x)[0], np.tanh(x))
    assert Activation("sigmoid").forward(x)[0][1] == 0.5
    with pytest.raises(NnetError, match="unknown activation"):
        Activation("softplus")


def test_sigmoid_stable_in_tails():
    y, _ = Activation("sigmoid").forward(np.array([-1000.0, 1000.0]))
    assert y[0] == 0.0
    assert y[1] == 1.0


def test_mean_pool_full_collapse():
    v, _ = MeanPoolTime(0).forward(np.array([[1.0, 3.0], [3.0, 5.0]]))
    assert v.tolist() == [2.0, 4.0]


def test_max_pool_stride_two():
    y, _ = MaxPoolTime(2).forward(np.array([[1.0], [4.0], [2.0]]))
    assert y[:, 0].tolist() == [4.0, 2.0]


def test_mean_pool_partial_window():
    y, _ = MeanPoolTime(2).forward(np.array([[2.0], [4.0], [9.0]]))
    assert y[:, 0].tolist() == [3.0, 9.0]


def test_pool_rejects_bad_arguments():
    with pytest.raises(NnetError):
        MaxPoolTime(0)
    with pytest.raises(NnetError):
        MeanPoolTime(-1)


@pytest.mark.parametrize("pool", [MaxPoolTime, MeanPoolTime])
def test_pool_stride_past_the_clip_pools_the_whole_clip_in_clip_memory(pool):
    # a window longer than the clip must not be padded out to its length:
    # at stride 10**6 that would hold 10**6 x 3 floats (24 MB)
    x = np.random.default_rng(4).normal(size=(9, 3))
    dy = np.random.default_rng(5).normal(size=(1, 3))
    tracemalloc.start()
    try:
        layer = pool(10**6)
        y, cache = layer.forward(x)
        dx = layer.backward(cache, dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    whole = pool(9)
    y9, cache9 = whole.forward(x)
    assert np.array_equal(y, y9)
    assert np.array_equal(dx, whole.backward(cache9, dy))


def test_max_pool_backward_earliest_tie():
    layer = MaxPoolTime(2)
    x = np.array([[1.0], [1.0]])
    y, cache = layer.forward(x)
    assert y[0, 0] == 1.0
    dx = layer.backward(cache, np.array([[1.0]]))
    assert dx[:, 0].tolist() == [1.0, 0.0]


def test_mean_pool_backward_spreads_evenly():
    layer = MeanPoolTime(0)
    x = np.arange(6.0).reshape(3, 2)
    _, cache = layer.forward(x)
    dx = layer.backward(cache, np.array([3.0, 6.0]))
    assert np.allclose(dx, np.tile([1.0, 2.0], (3, 1)))


def _zero_gru(in_dim=1, hidden=1):
    zeros = lambda shape: np.zeros(shape)
    return {
        "w_z": zeros((hidden, in_dim)), "u_z": zeros((hidden, hidden)), "b_z": zeros(hidden),
        "w_r": zeros((hidden, in_dim)), "u_r": zeros((hidden, hidden)), "b_r": zeros(hidden),
        "w_h": zeros((hidden, in_dim)), "u_h": zeros((hidden, hidden)), "b_h": zeros(hidden),
    }


def _sweep(cell_cls, params, xs):
    """Sweep of one float64 clip; returns (states, cache)."""
    cell = cell_cls({k: Tensor(np.asarray(v, dtype=np.float64)) for k, v in params.items()})
    states, cache = cell.sweep([np.asarray(xs, dtype=np.float64)])
    return states[0], cache


def test_gru_step_zero_params_halves_state():
    # step 1 writes h = 0.5 * tanh(atanh(0.8)) = 0.4 through w_h; at step 2
    # x = 0 gives z = 0.5 and h_tilde = 0, so h' = 0.5 h
    p = _zero_gru()
    p["w_h"] = np.array([[1.0]])
    states, _ = _sweep(GRUCell, p, [[np.arctanh(0.8)], [0.0]])
    assert states[0, 0] == pytest.approx(0.4)
    assert states[1, 0] == pytest.approx(0.2)
    states, _ = _sweep(GRUCell, _zero_gru(), [[0.3], [0.3]])
    assert (states == 0.0).all()


def test_gru_step_saturated_update_gate_copies_candidate():
    p = _zero_gru()
    p["b_z"] = np.array([50.0])
    p["b_h"] = np.array([0.7])
    states, _ = _sweep(GRUCell, p, [[0.0], [0.0]])
    # step 2 starts from the nonzero state of step 1 and still copies h_tilde
    assert states[1, 0] == pytest.approx(np.tanh(0.7), abs=1e-12)


def _zero_lstm(in_dim=1, hidden=1):
    p = {}
    for gate in ("i", "f", "o", "g"):
        p[f"w_{gate}"] = np.zeros((hidden, in_dim))
        p[f"u_{gate}"] = np.zeros((hidden, hidden))
        p[f"b_{gate}"] = np.zeros(hidden)
    return p


def _lstm_cells(p, xs):
    """(states, cell states) of an LSTM sweep over one clip, whose packed
    rows are its time steps."""
    states, (_, _, _, cells, _) = _sweep(LSTMCell, p, xs)
    return states, cells


def test_lstm_step_zero_params():
    h, c = _lstm_cells(_zero_lstm(), [[0.3], [0.3]])
    assert (h == 0.0).all() and (c == 0.0).all()
    # step 1 saturates i and g through x = 50, so c = 1; at step 2 x = 0
    # leaves every gate at 0.5 and g at 0
    p = _zero_lstm()
    p["w_i"] = np.array([[1.0]])
    p["w_g"] = np.array([[1.0]])
    h, c = _lstm_cells(p, [[50.0], [0.0]])
    assert c[0, 0] == pytest.approx(1.0)
    assert c[1, 0] == pytest.approx(0.5)
    assert h[1, 0] == pytest.approx(0.5 * np.tanh(0.5))  # ~0.2311


def test_lstm_step_saturated_gates_carry_cell():
    p = _zero_lstm()
    p["b_f"] = np.array([50.0])   # forget gate open
    p["b_i"] = np.array([-50.0])  # input gate shut unless x < -0.5
    p["w_i"] = np.array([[-100.0]])
    p["w_g"] = np.array([[-np.arctanh(0.7)]])
    # step 1 (x = -1) opens the input gate and writes c = 0.7; at step 2
    # (x = 0.9) the shut input gate carries it unchanged
    _, c = _lstm_cells(p, [[-1.0], [0.9]])
    assert c[0, 0] == pytest.approx(0.7, abs=1e-12)
    assert c[1, 0] == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("steps", [1, 2, 37])
@pytest.mark.parametrize("fused_cls, reference_cls", [(GRUCell, GRUCellReference),
                                                      (LSTMCell, LSTMCellReference)],
                         ids=["gru", "lstm"])
def test_fused_sweep_matches_per_step_oracle(fused_cls, reference_cls, steps):
    rng = np.random.default_rng(steps)
    raw = _random_cell_params(rng, fused_cls.GATES, 4, 5)
    xs = rng.normal(size=(steps, 4))
    dstates = rng.normal(size=(steps, 5))
    results = []
    for cls in (fused_cls, reference_cls):
        params = {k: Tensor(t.data.copy()) for k, t in raw.items()}
        cell = cls(params)
        if cls is fused_cls:
            (states,), cache = cell.sweep([xs])
            (dxs,) = cell.sweep_backward(cache, [dstates.copy()])
        else:
            states, cache = cell.sweep(xs)
            dxs = cell.sweep_backward(cache, dstates.copy())
        results.append((states, dxs, {k: t.grad for k, t in params.items()}))
    (states, dxs, grads), (ref_states, ref_dxs, ref_grads) = results
    assert len(grads) == 3 * len(fused_cls.GATES)
    np.testing.assert_allclose(states, ref_states, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dxs, ref_dxs, rtol=1e-12, atol=1e-12)
    for name in raw:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_packing_layout_is_longest_first_step_major():
    # clips 1 and 2 tie at 3 steps and keep their order, then clip 0, then 3
    pack = Packing([2, 3, 3, 1])
    assert pack.steps == [(0, 4), (4, 3), (7, 2)]
    assert [r.tolist() for r in pack.rows] == [[2, 6], [0, 4, 7], [1, 5, 8], [3]]
    seqs = [np.full((t, 1), float(i)) for i, t in enumerate([2, 3, 3, 1])]
    packed = pack.gather(seqs)
    assert packed[:, 0].tolist() == [1, 2, 0, 3, 1, 2, 0, 1, 2]
    assert all((a == b).all() for a, b in zip(pack.unpack(packed), seqs))
    # each row's previous state is its own clip's row one step earlier
    assert pack.previous(packed, 1, 3)[:, 0].tolist() == [1, 2, 0, 1, 2]
    assert (pack.previous(packed, 0, 1) == 0.0).all()


# lengths of the clips in one packed sweep (a single clip is the test
# above); 70 and 33 span more than one backward chunk of 32 steps
_PACKED_LENGTHS = {
    "mixed_with_t1": [5, 1, 9, 3],
    "ties": [4, 7, 4, 7, 2],
    "shortest_first": [1, 2, 3, 5, 8],
    "across_chunks": [33, 70, 1, 32, 64],
}


@pytest.mark.parametrize("case", sorted(_PACKED_LENGTHS))
@pytest.mark.parametrize("packed_cls, reference_cls", [(GRUCell, GRUCellReference),
                                                       (LSTMCell, LSTMCellReference)],
                         ids=["gru", "lstm"])
def test_packed_sweep_matches_per_step_oracle_clip_by_clip(packed_cls, reference_cls, case):
    lengths = _PACKED_LENGTHS[case]
    rng = np.random.default_rng(len(lengths) * 100 + sum(lengths))
    raw = _random_cell_params(rng, packed_cls.GATES, 4, 5)
    xs = [rng.normal(size=(t, 4)) for t in lengths]
    dstates = [rng.normal(size=(t, 5)) for t in lengths]
    params = {k: Tensor(t.data.copy()) for k, t in raw.items()}
    cell = packed_cls(params)
    states, cache = cell.sweep(xs)
    dxs = cell.sweep_backward(cache, dstates)
    # the oracle sweeps clip by clip; its parameter gradients sum over clips
    ref_params = {k: Tensor(t.data.copy()) for k, t in raw.items()}
    reference = reference_cls(ref_params)
    for i, (x, d) in enumerate(zip(xs, dstates)):
        ref_states, ref_cache = reference.sweep(x)
        ref_dxs = reference.sweep_backward(ref_cache, d)
        assert states[i].shape == ref_states.shape and dxs[i].shape == ref_dxs.shape
        np.testing.assert_allclose(states[i], ref_states, rtol=1e-12, atol=1e-12,
                                   err_msg=f"clip {i}")
        np.testing.assert_allclose(dxs[i], ref_dxs, rtol=1e-12, atol=1e-12,
                                   err_msg=f"clip {i}")
    for name in raw:
        np.testing.assert_allclose(params[name].grad, ref_params[name].grad,
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def test_packing_previous_is_the_row_one_step_earlier():
    lengths = [33, 70, 1, 32, 64, 70]
    pack = Packing(lengths)
    packed = np.random.default_rng(8).normal(size=(sum(lengths), 2))
    for first, stop in [(0, 70), (0, 1), (1, 2), (6, 38), (38, 70), (69, 70)]:
        want = np.zeros((pack.offs[stop] - pack.offs[first], 2))
        for t in range(max(first, 1), stop):
            (lo, n), prev = pack.steps[t], pack.steps[t - 1][0]
            want[lo - pack.offs[first] : lo - pack.offs[first] + n] = packed[prev : prev + n]
        assert np.array_equal(pack.previous(packed, first, stop), want), (first, stop)


# Clip lengths in steps of the float32 paper-width sweeps: a lone clip over
# three backward chunks, equal lengths (33 steps leave a last chunk of one
# step), 1-step clips among longer ones, and 10 and 33 clips. A lone 1-step
# clip is left out: its one-row input projection is a matrix-vector product,
# which BLAS rounds by operand layout.
_PAPER_WIDTH_LENGTHS = {
    "1_clip": [70],
    "2_equal": [33, 33],
    "2_with_1_step": [1, 45],
    "10_clips": [5, 1, 9, 3, 40, 40, 2, 1, 64, 33],
    "33_clips": [1, 1, 33, 33, *np.random.default_rng(33).integers(1, 90, 29).tolist()],
}


@pytest.mark.parametrize("case", sorted(_PAPER_WIDTH_LENGTHS))
@pytest.mark.parametrize("cell_cls, oracle_cls", [(GRUCell, RowMajorGRUCell),
                                                  (LSTMCell, RowMajorLSTMCell)],
                         ids=["gru", "lstm"])
def test_gate_major_sweeps_match_row_major_oracle_bitwise(cell_cls, oracle_cls, case):
    # float32 at F = 64, H = 300: the gate-major buffers change where each
    # float is stored, not how it is computed. Like the group-independence
    # test of encode, this rests on OpenBLAS on x86-64 rounding a per-gate
    # block of a product as it rounds those columns of the whole product.
    lengths = _PAPER_WIDTH_LENGTHS[case]
    rng = np.random.default_rng(len(lengths))
    raw = {k: (t.data * 0.1).astype(np.float32)
           for k, t in _random_cell_params(rng, cell_cls.GATES, 64, 300).items()}
    xs = [rng.normal(size=(t, 64)).astype(np.float32) for t in lengths]
    dstates = [rng.normal(size=(t, 300)).astype(np.float32) for t in lengths]
    results = []
    for cls in (cell_cls, oracle_cls):
        params = {k: Tensor(v.copy()) for k, v in raw.items()}
        cell = cls(params)
        states, cache = cell.sweep(xs)
        dxs = cell.sweep_backward(cache, dstates)
        results.append((states, dxs, cell.mean_states(xs), {k: t.grad for k, t in params.items()}))
    (states, dxs, means, grads), (ref_states, ref_dxs, ref_means, ref_grads) = results
    assert states[0].dtype == dxs[0].dtype == means.dtype == np.float32
    for i in range(len(lengths)):
        assert np.array_equal(states[i], ref_states[i]), f"states of clip {i}"
        assert np.array_equal(dxs[i], ref_dxs[i]), f"dx of clip {i}"
    assert np.array_equal(means, ref_means)
    for name in raw:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_gate_major_mean_states_of_a_lone_1_step_clip_match_row_major_oracle_bitwise():
    rng = np.random.default_rng(1)
    for cell_cls, oracle_cls in ((GRUCell, RowMajorGRUCell), (LSTMCell, RowMajorLSTMCell)):
        raw = {k: (t.data * 0.1).astype(np.float32)
               for k, t in _random_cell_params(rng, cell_cls.GATES, 64, 300).items()}
        xs = [rng.normal(size=(1, 64)).astype(np.float32)]
        means = [cls({k: Tensor(v) for k, v in raw.items()}).mean_states(xs)
                 for cls in (cell_cls, oracle_cls)]
        assert np.array_equal(*means), cell_cls.__name__


@pytest.mark.parametrize("cell_cls, oracle_cls", [(GRUCell, RowMajorGRUCell),
                                                  (LSTMCell, RowMajorLSTMCell)],
                         ids=["gru", "lstm"])
def test_mean_states_of_a_clip_whose_last_chunk_holds_one_row(cell_cls, oracle_cls):
    # 33 steps: the clip runs past the others, so its last 32-step projection
    # chunk holds one row, alone and in a group; the result keeps its bits
    # and matches the oracle, which runs a zero sequence beside the clips
    rng = np.random.default_rng(33)
    raw = {k: (t.data * 0.1).astype(np.float32)
           for k, t in _random_cell_params(rng, cell_cls.GATES, 64, 300).items()}
    xs = [rng.normal(size=(t, 64)).astype(np.float32) for t in (33, 20, 1, 7)]
    cell, oracle = (cls({k: Tensor(v) for k, v in raw.items()}) for cls in (cell_cls, oracle_cls))
    alone, group = cell.mean_states(xs[:1]), cell.mean_states(xs)
    assert np.array_equal(alone, oracle.mean_states(xs[:1]))
    assert np.array_equal(group, oracle.mean_states(xs))
    assert np.array_equal(alone[0], group[0])


_POOL_CASES = {
    "ties": (np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0], [3.0, 0.0], [3.0, 5.0]]), 2),
    "t_below_stride": (np.array([[0.5, -1.0], [2.0, -3.0]]), 4),
    "t_one": (np.array([[-0.25, 7.0, 1.0]]), 3),
    "t_not_multiple": (np.random.default_rng(11).integers(-2, 3, size=(11, 3)).astype(float), 4),
    "stride_one": (np.random.default_rng(12).normal(size=(5, 2)), 1),
}


@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_max_pool_matches_loop_oracle(case):
    x, stride = _POOL_CASES[case]
    y, cache = MaxPoolTime(stride).forward(x)
    ref_y, ref_argmax = max_pool_time_reference(x, stride)
    assert y.shape == ref_y.shape
    assert (y == ref_y).all()
    dy = np.random.default_rng(13).normal(size=y.shape)
    dx = MaxPoolTime(stride).backward(cache, dy)
    assert (dx == max_pool_time_backward_reference(x.shape, ref_argmax, dy)).all()


@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_mean_pool_matches_loop_oracle(case):
    x, stride = _POOL_CASES[case]
    y, cache = MeanPoolTime(stride).forward(x)
    ref_y = mean_pool_time_reference(x, stride)
    assert y.shape == ref_y.shape
    np.testing.assert_allclose(y, ref_y, rtol=1e-12, atol=1e-12)
    dy = np.random.default_rng(14).normal(size=y.shape)
    dx = MeanPoolTime(stride).backward(cache, dy)
    np.testing.assert_allclose(dx, mean_pool_time_backward_reference(x.shape[0], stride, dy),
                               rtol=1e-12, atol=1e-12)


# The conv, activation and max-pool caches hold only what backward reads;
# outputs and input gradients must equal those of the layers that cached
# every intermediate, bit for bit. The activation and pool inputs are small
# integers, so exact zeros and ties occur.
_CACHE_LENGTHS = [1, 2, 7, 300]


def _small_ints(rng, shape, dtype):
    return rng.integers(-2, 3, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", _CACHE_LENGTHS)
def test_conv1d_matches_im2col_oracle(t, dtype):
    rng = np.random.default_rng(t)
    # with one input channel the kernel gradient takes another BLAS path,
    # which rounds unlike the im2col GEMM in some of these cases
    for k, c_in in itertools.product((1, 3, 5), (3, 1)):
        kernels = rng.normal(size=(4, c_in, k)).astype(dtype)
        bias = rng.normal(size=4).astype(dtype)
        x, dy = rng.normal(size=(t, c_in)).astype(dtype), rng.normal(size=(t, 4)).astype(dtype)
        layer = Conv1d(Tensor(kernels), Tensor(bias))
        y, cache = layer.forward(x)
        dx = layer.backward(cache, dy)
        ref_y, ref_cache = conv1d_im2col_reference(x, kernels, bias)
        ref_dk, ref_db, ref_dx = conv1d_im2col_backward_reference(ref_cache, kernels, dy)
        assert y.dtype == ref_y.dtype == dx.dtype == ref_dx.dtype == dtype
        assert (y == ref_y).all() and (dx == ref_dx).all(), (k, c_in)
        assert (layer.bias.grad == ref_db).all(), (k, c_in)
        # each kernel gradient entry sums the same t products as the im2col
        # GEMM, possibly in another order: both lie within the dot-product
        # rounding bound t * eps * sum |dy| |x| of the exact sum
        bound = t * np.finfo(dtype).eps * (np.abs(dy).T @ np.abs(ref_cache[0]))
        assert layer.kernels.grad.dtype == dtype
        assert (np.abs(layer.kernels.grad - ref_dk) <= bound.reshape(ref_dk.shape)).all(), (k, c_in)


@pytest.mark.parametrize("t", [300, 563, 1125])
def test_conv1d_forward_matches_im2col_oracle_bitwise_at_paper_width(t):
    # 64 channels at the benchmark's clip lengths. At 64 channels and fewer
    # than about 20 frames OpenBLAS takes a small-matrix kernel, which rounds
    # the transposed columns' product unlike the im2col one.
    rng = np.random.default_rng(t)
    for k, c_in in itertools.product((1, 3, 5), (1, 3, 64)):
        kernels = rng.normal(size=(64, c_in, k)).astype(np.float32)
        bias = rng.normal(size=64).astype(np.float32)
        x = rng.normal(size=(t, c_in)).astype(np.float32)
        y, _ = Conv1d(Tensor(kernels), Tensor(bias)).forward(x)
        ref_y, _ = conv1d_im2col_reference(x, kernels, bias)
        assert y.dtype == np.float32 and np.array_equal(y, ref_y), (k, c_in)


def test_pool_windows_are_a_view_when_the_stride_divides_the_clip():
    x = np.arange(24.0).reshape(12, 2)
    for stride in (1, 3, 12, 50):
        assert np.shares_memory(_windows(x, stride, -np.inf), x), stride
    assert not np.shares_memory(_windows(x, 5, -np.inf), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", _CACHE_LENGTHS)
def test_activation_matches_caching_oracle(t, dtype):
    rng = np.random.default_rng(t)
    x, dy = _small_ints(rng, (t, 5), dtype), rng.normal(size=(t, 5)).astype(dtype)
    x[0, 0] = -0.0
    for kind in Activation.KINDS:
        layer = Activation(kind)
        y, cache = layer.forward(x)
        ref_y, ref_cache = activation_reference(kind, x)
        dx = layer.backward(cache, dy)
        ref_dx = activation_backward_reference(kind, ref_cache, dy)
        assert y.dtype == dx.dtype == dtype
        assert (y == ref_y).all() and (dx == ref_dx).all(), kind


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", _CACHE_LENGTHS)
def test_max_pool_matches_flat_index_oracle(t, dtype):
    rng = np.random.default_rng(t)
    x = _small_ints(rng, (t, 5), dtype)
    for stride in (1, 2, 3, 5, 300):
        layer = MaxPoolTime(stride)
        y, cache = layer.forward(x)
        ref_y, ref_cache = max_pool_time_flat_index_reference(x, stride)
        dy = rng.normal(size=y.shape).astype(dtype)
        dx = layer.backward(cache, dy)
        assert y.dtype == dx.dtype == dtype
        assert (y == ref_y).all(), stride
        assert (dx == max_pool_time_flat_index_backward_reference(ref_cache, dy)).all(), stride


def test_layer_caches_hold_only_what_backward_reads():
    x = np.random.default_rng(6).normal(size=(300, 3)).astype(np.float32)
    _, cache = Activation("relu").forward(x)
    assert cache.dtype == np.bool_ and (cache == (x > 0)).all()
    for kind in ("tanh", "sigmoid"):
        y, cache = Activation(kind).forward(x)
        assert cache is y
    assert MaxPoolTime(2).forward(x)[1][1].dtype == np.uint8
    assert MaxPoolTime(300).forward(x)[1][1].dtype == np.uint16
    conv = Conv1d(Tensor(np.ones((2, 3, 3), dtype=np.float32)), Tensor(np.zeros(2, np.float32)))
    assert conv.forward(x)[1] is x  # a reference to the input, not a copy


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["relu", "identity"])
def test_projection_matches_one_body_oracle(kind, dtype):
    # Dense then Activation("relu") through the layer walk, against the one
    # body they replaced; the small-integer case has exact zeros before the relu
    rng = np.random.default_rng(8)
    for draw in (lambda shape: rng.normal(size=shape).astype(dtype),
                 lambda shape: _small_ints(rng, shape, dtype)):
        w, b, v, dout = draw((5, 4)), draw(5), draw(4), rng.normal(size=5).astype(dtype)
        wt, bt = Tensor(w), Tensor(b)
        layer = Projection(wt, bt, kind)
        out, cache = layer.forward(v)
        dv = layer.backward(cache, dout)
        ref_out, ref_cache = projection_reference(w, b, kind, v)
        ref_dw, ref_db, ref_dv = projection_backward_reference(w, kind, ref_cache, dout)
        assert out.dtype == dv.dtype == wt.grad.dtype == bt.grad.dtype == dtype
        assert (out == ref_out).all() and (dv == ref_dv).all()
        assert (wt.grad == ref_dw).all() and (bt.grad == ref_db).all()


def test_shared_projection_applies_activation():
    w = np.array([[1.0, 0.0], [0.0, -1.0]])
    b = np.array([0.0, 0.0])
    v = np.array([2.0, 3.0])
    assert Projection(Tensor(w), Tensor(b), "relu").forward(v)[0].tolist() == [2.0, 0.0]
    assert Projection(Tensor(w), Tensor(b), "identity").forward(v)[0].tolist() == [2.0, -3.0]
    with pytest.raises(NnetError):
        Projection(Tensor(w), Tensor(b), "tanh")


# ---------------------------------------------------------------- gradients

GRAD_TOL = 1e-4


def _fd(loss_fn, grad_fn, params):
    err = finite_difference_check(loss_fn, grad_fn, params)
    assert err < GRAD_TOL, f"gradient mismatch: max relative error {err}"


def test_gradcheck_accepts_exact_linear_gradient():
    params = {"theta": Tensor(np.array([1.0, -2.0, 3.0]))}

    def loss_fn():
        return float(3.0 * params["theta"].data.sum())

    def grad_fn():
        return {"theta": np.full(3, 3.0)}

    err = finite_difference_check(loss_fn, grad_fn, params)
    assert err < 1e-9


def test_gradcheck_flags_scaled_gradient():
    params = {"theta": Tensor(np.array([0.5, 1.5]))}

    def loss_fn():
        return float((params["theta"].data ** 2).sum())

    def grad_fn():
        return {"theta": 4.0 * params["theta"].data}  # double the true gradient

    err = finite_difference_check(loss_fn, grad_fn, params)
    assert err == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_gradcheck_requires_float64():
    params = {"theta": Tensor(np.zeros(2, dtype=np.float32))}
    with pytest.raises(ValueError, match="float64"):
        finite_difference_check(lambda: 0.0, lambda: {}, params)


def test_dense_gradients():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=3))
    xt = Tensor(rng.normal(size=(5, 4)))
    direction = rng.normal(size=(5, 3))
    layer = Dense(w, b)
    params = {"w": w, "b": b, "x": xt}

    def loss_fn():
        return float((layer.forward(xt.data)[0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, direction))
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


def test_conv1d_gradients():
    rng = np.random.default_rng(1)
    kernels = Tensor(rng.normal(size=(3, 2, 3)))
    bias = Tensor(rng.normal(size=3))
    xt = Tensor(rng.normal(size=(6, 2)))
    direction = rng.normal(size=(6, 3))
    layer = Conv1d(kernels, bias)
    params = {"kernels": kernels, "bias": bias, "x": xt}

    def loss_fn():
        return float((layer.forward(xt.data)[0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, direction))
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


@pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid"])
def test_activation_gradients(kind):
    rng = np.random.default_rng(2)
    xt = Tensor(rng.normal(size=(4, 3)) + 0.05)  # keep clear of the relu kink
    direction = rng.normal(size=(4, 3))
    layer = Activation(kind)
    params = {"x": xt}

    def loss_fn():
        return float((layer.forward(xt.data)[0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, direction))
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


@pytest.mark.parametrize(
    "layer", [MaxPoolTime(2), MeanPoolTime(0), MeanPoolTime(2)], ids=["max2", "mean0", "mean2"]
)
def test_pooling_gradients(layer):
    rng = np.random.default_rng(3)
    xt = Tensor(rng.normal(size=(5, 3)))
    out_shape = layer.forward(xt.data)[0].shape
    direction = rng.normal(size=out_shape)
    params = {"x": xt}

    def loss_fn():
        return float((layer.forward(xt.data)[0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, direction))
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


def _random_cell_params(rng, gates, in_dim, hidden):
    p = {}
    for gate in gates:
        p[f"w_{gate}"] = Tensor(rng.normal(size=(hidden, in_dim)) * 0.5)
        p[f"u_{gate}"] = Tensor(rng.normal(size=(hidden, hidden)) * 0.5)
        p[f"b_{gate}"] = Tensor(rng.normal(size=hidden) * 0.5)
    return p


def test_gru_sweep_gradients():
    rng = np.random.default_rng(4)
    cell_params = _random_cell_params(rng, GRUCell.GATES, 3, 2)
    cell = GRUCell(cell_params)
    xt = Tensor(rng.normal(size=(5, 3)))
    direction = rng.normal(size=(5, 2))
    params = {**cell_params, "x": xt}

    def loss_fn():
        return float((cell.sweep([xt.data])[0][0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, caches = cell.sweep([xt.data])
        xt.accumulate(cell.sweep_backward(caches, [direction.copy()])[0])
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


def test_lstm_sweep_gradients():
    rng = np.random.default_rng(5)
    cell_params = _random_cell_params(rng, LSTMCell.GATES, 3, 2)
    cell = LSTMCell(cell_params)
    xt = Tensor(rng.normal(size=(5, 3)))
    direction = rng.normal(size=(5, 2))
    params = {**cell_params, "x": xt}

    def loss_fn():
        return float((cell.sweep([xt.data])[0][0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, caches = cell.sweep([xt.data])
        xt.accumulate(cell.sweep_backward(caches, [direction.copy()])[0])
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


@pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell], ids=["gru", "lstm"])
def test_packed_sweep_gradients(cell_cls):
    rng = np.random.default_rng(14)
    cell_params = _random_cell_params(rng, cell_cls.GATES, 3, 2)
    cell = cell_cls(cell_params)
    lengths = [3, 1, 4, 3]
    xts = [Tensor(rng.normal(size=(t, 3))) for t in lengths]
    directions = [rng.normal(size=(t, 2)) for t in lengths]
    params = {**cell_params, **{f"x{i}": xt for i, xt in enumerate(xts)}}

    def loss_fn():
        states, _ = cell.sweep([xt.data for xt in xts])
        return float(sum((s * d).sum() for s, d in zip(states, directions)))

    def grad_fn():
        zero_grads(params)
        _, cache = cell.sweep([xt.data for xt in xts])
        for xt, dx in zip(xts, cell.sweep_backward(cache, [d.copy() for d in directions])):
            xt.accumulate(dx)
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


def test_projection_gradients():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=3))
    xt = Tensor(rng.normal(size=4))
    direction = rng.normal(size=3)
    params = {"w": w, "b": b, "x": xt}
    for kind in ("relu", "identity"):
        layer = Projection(w, b, kind)

        def loss_fn():
            return float((layer.forward(xt.data)[0] * direction).sum())

        def grad_fn():
            zero_grads(params)
            _, cache = layer.forward(xt.data)
            xt.accumulate(layer.backward(cache, direction))
            return collect_grads(params)

        _fd(loss_fn, grad_fn, params)


def _tower_variant(variant):
    if variant == "none":
        config = small_config(
            audio_tower=(LayerSpec("dense", in_dim=8, out_dim=6), LayerSpec("tanh_act")),
            recurrent_cell="none",
        )
    elif variant == "projection":
        config = small_config(projection=ProjectionSpec(out_dim=4))
    elif variant == "mixed":  # every layer kind and an identity projection
        config = small_config(
            audio_tower=(
                LayerSpec("conv1d", in_dim=8, out_dim=5, kernel_width=3),
                LayerSpec("sigmoid_act"),
                LayerSpec("mean_pool_time", pool_stride=2),
                LayerSpec("dense", in_dim=5, out_dim=7),
                LayerSpec("tanh_act"),
                LayerSpec("relu"),
                LayerSpec("max_pool_time", pool_stride=3),
            ),
            projection=ProjectionSpec(out_dim=4, activation="identity"),
        )
    else:
        config = small_config(recurrent_cell=variant)
    return config


_TOWER_VARIANTS = ["gru", "lstm", "none", "projection", "mixed"]


@pytest.mark.parametrize("variant", _TOWER_VARIANTS)
def test_composed_tower_gradients(variant):
    # three clips of different lengths through the batch passes: every
    # layer kind, the projection and a strided mean pool in composition
    config = _tower_variant(variant)
    params = init_params(config, seed=3, dtype=np.float64)
    tower = AudioTower(config, params)
    rng = np.random.default_rng(7)
    clips = [rng.normal(size=(t, config.feature_dim)) for t in (7, 4, 11)]
    directions = [rng.normal(size=config.scoring_dim) for _ in clips]

    def loss_fn():
        outs = tower.forward_batch(clips)[0]
        return float(sum(out @ d for out, d in zip(outs, directions)))

    def grad_fn():
        zero_grads(params)
        _, cache = tower.forward_batch(clips)
        tower.backward_batch(cache, directions)
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


@pytest.mark.parametrize("cell_kind", ["gru", "lstm", "none"])
def test_tower_batch_matches_one_clip_passes(cell_kind):
    overrides = {"recurrent_cell": cell_kind, "projection": ProjectionSpec(out_dim=5)}
    if cell_kind == "none":
        overrides["embed_dim"] = small_config().tower_output_dim()
    config = small_config(**overrides)
    rng = np.random.default_rng(8)
    clips = [rng.normal(size=(t, config.feature_dim)) for t in (7, 2, 11, 7)]
    douts = [rng.normal(size=config.scoring_dim) for _ in clips]
    params = init_params(config, seed=4, dtype=np.float64)
    tower = AudioTower(config, params)
    outs, cache = tower.forward_batch(clips)
    tower.backward_batch(cache, douts)
    grads = collect_grads(params)
    zero_grads(params)
    for frames, dout, out in zip(clips, douts, outs):
        one, one_cache = tower.forward(frames)
        np.testing.assert_allclose(out, one, rtol=1e-12, atol=1e-12)
        tower.backward(one_cache, dout)
    for name, grad in collect_grads(params).items():
        np.testing.assert_allclose(grads[name], grad, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
def test_tower_cache_serves_one_backward(cell_kind):
    # the sweep backward writes its gradients over the gate cache, so a
    # second backward on the same cache must fail, not return wrong gradients
    config = small_config(recurrent_cell=cell_kind)
    tower = AudioTower(config, init_params(config, seed=2, dtype=np.float64))
    rng = np.random.default_rng(9)
    out, cache = tower.forward(rng.normal(size=(6, config.feature_dim)))
    tower.backward(cache, np.ones_like(out))
    with pytest.raises(NnetError, match="consumed"):
        tower.backward(cache, np.ones_like(out))


def test_text_projection_gradients():
    config = small_config(projection=ProjectionSpec(out_dim=5))
    params = init_params(config, seed=4, dtype=np.float64)
    table = random_word_table(("w0", "w1", "w2"), config.embed_dim, seed=9)
    embedder = TextEmbedder(config, params, word_table=table)
    rng = np.random.default_rng(8)
    direction = rng.normal(size=5)
    tokens = ("w0", "w2")
    text_params = {"w": params["proj_text.w"], "b": params["proj_text.b"]}

    def loss_fn():
        return float(embedder.embed_tokens(tokens)[0] @ direction)

    def grad_fn():
        zero_grads(text_params)
        _, cache = embedder.embed_tokens(tokens)
        embedder.backward(cache, direction)
        return collect_grads(text_params)

    _fd(loss_fn, grad_fn, text_params)


# ---------------------------------------------------------------- config


def test_model_config_round_trip():
    config = small_config(projection=ProjectionSpec(out_dim=9, activation="identity"))
    rebuilt = ModelConfig.from_dict(config.to_dict())
    assert rebuilt == config


def test_model_config_serialization_is_pinned():
    # the checkpoint header embeds to_dict(), and the parameter names and
    # order fix the checkpoint's tensor layout
    config = _tower_variant("mixed")
    assert config.to_dict() == {
        "feature_dim": 8,
        "audio_tower": [
            {"kind": "conv1d", "in_dim": 8, "out_dim": 5, "kernel_width": 3},
            {"kind": "sigmoid_act"},
            {"kind": "mean_pool_time", "pool_stride": 2},
            {"kind": "dense", "in_dim": 5, "out_dim": 7},
            {"kind": "tanh_act"},
            {"kind": "relu"},
            {"kind": "max_pool_time", "pool_stride": 3},
        ],
        "recurrent_cell": "gru",
        "embed_dim": 6,
        "projection": {"out_dim": 4, "activation": "identity"},
        "text_mode": "word_average",
        "loss": "triplet",
        "margin": 1.0,
        "seed": 0,
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
    }
    assert parameter_shapes(config) == [
        ("tower0.kernels", (5, 8, 3)), ("tower0.bias", (5,)),
        ("tower3.w", (7, 5)), ("tower3.b", (7,)),
        ("gru.w_z", (6, 7)), ("gru.u_z", (6, 6)), ("gru.b_z", (6,)),
        ("gru.w_r", (6, 7)), ("gru.u_r", (6, 6)), ("gru.b_r", (6,)),
        ("gru.w_h", (6, 7)), ("gru.u_h", (6, 6)), ("gru.b_h", (6,)),
        ("proj_audio.w", (4, 6)), ("proj_audio.b", (4,)),
        ("proj_text.w", (4, 6)), ("proj_text.b", (4,)),
    ]


def test_model_config_scoring_dim():
    assert small_config().scoring_dim == 6
    assert small_config(projection=ProjectionSpec(out_dim=11)).scoring_dim == 11


def test_model_config_rejects_bad_fields():
    with pytest.raises(NnetError, match="recurrent_cell"):
        small_config(recurrent_cell="rnn").validate()
    with pytest.raises(NnetError, match="loss"):
        small_config(loss="mse").validate()
    with pytest.raises(NnetError, match="margin"):
        small_config(margin=0.0).validate()
    with pytest.raises(NnetError, match="lr"):
        small_config(lr=-1.0).validate()
    with pytest.raises(NnetError, match="text_mode"):
        small_config(text_mode="chars").validate()
    with pytest.raises(NnetError, match="feature_dim"):
        small_config(feature_dim=0, audio_tower=()).validate()


def test_model_config_rejects_bad_towers():
    with pytest.raises(NnetError, match="incoming"):
        small_config(audio_tower=(LayerSpec("conv1d", in_dim=5, out_dim=4, kernel_width=3),)).validate()
    with pytest.raises(NnetError, match="odd"):
        small_config(
            audio_tower=(LayerSpec("conv1d", in_dim=8, out_dim=4, kernel_width=2),)
        ).validate()
    with pytest.raises(NnetError, match=r"^tower layer 0: kernel_width must be >= 1, got -3$"):
        small_config(
            audio_tower=(LayerSpec("conv1d", in_dim=8, out_dim=4, kernel_width=-3),)
        ).validate()
    with pytest.raises(NnetError, match="unknown kind"):
        small_config(audio_tower=(LayerSpec("attention"),)).validate()
    for kind in ([1], {"a": 1}, 3):
        with pytest.raises(NnetError, match=r"^tower layer 0: kind: must be a string, got "):
            small_config(audio_tower=(LayerSpec(kind),)).validate()
    with pytest.raises(NnetError, match="pool_stride"):
        small_config(audio_tower=(LayerSpec("max_pool_time"),)).validate()
    with pytest.raises(NnetError, match="mean pool"):
        small_config(audio_tower=(LayerSpec("mean_pool_time", pool_stride=0),)).validate()
    # a size field the kind does not read is an error, not silently ignored
    for tower, message in [
        ((LayerSpec("relu", out_dim=5),), "tower layer 0 (relu): unexpected field out_dim"),
        ((LayerSpec("max_pool_time", pool_stride=2, kernel_width=4),),
         "tower layer 0 (max_pool_time): unexpected field kernel_width"),
        ((LayerSpec("dense", in_dim=8, out_dim=8, pool_stride=3),),
         "tower layer 0 (dense): unexpected field pool_stride"),
        ((LayerSpec("tanh_act"), LayerSpec("mean_pool_time", in_dim=8, pool_stride=2)),
         "tower layer 1 (mean_pool_time): unexpected field in_dim"),
    ]:
        with pytest.raises(NnetError, match=f"^{re.escape(message)}$"):
            small_config(audio_tower=tower).validate()


def test_model_config_dim_chain_without_recurrence():
    ok = small_config(
        audio_tower=(LayerSpec("dense", in_dim=8, out_dim=6), LayerSpec("relu")),
        recurrent_cell="none",
    )
    ok.validate()
    assert ok.tower_output_dim() == 6
    with pytest.raises(NnetError, match="must equal"):
        small_config(
            audio_tower=(LayerSpec("dense", in_dim=8, out_dim=5),),
            recurrent_cell="none",
        ).validate()


def test_model_config_rejects_projection_with_sentence_table():
    with pytest.raises(NnetError, match="sentence_table"):
        small_config(
            text_mode="sentence_table", projection=ProjectionSpec(out_dim=4)
        ).validate()


def test_model_config_from_dict_errors():
    base = small_config().to_dict()
    with pytest.raises(NnetError, match="unknown ModelConfig keys"):
        ModelConfig.from_dict({**base, "dropout": 0.5})
    missing = dict(base)
    del missing["feature_dim"]
    with pytest.raises(NnetError, match="feature_dim"):
        ModelConfig.from_dict(missing)
    bad_layer = dict(base)
    bad_layer["audio_tower"] = [{"kind": "relu", "rate": 2}]
    with pytest.raises(NnetError, match="unknown LayerSpec keys"):
        ModelConfig.from_dict(bad_layer)
    bad_proj = dict(base)
    bad_proj["projection"] = {"out_dim": 4, "bias": False}
    with pytest.raises(NnetError, match="unknown projection keys"):
        ModelConfig.from_dict(bad_proj)


def test_default_tower_layout():
    tower = default_tower(64)
    assert [s.kind for s in tower] == [
        "conv1d", "relu", "max_pool_time", "conv1d", "relu", "max_pool_time",
    ]
    assert tower[0].in_dim == 64 and tower[0].out_dim == 64
    assert tower[3].kernel_width == 3


# ---------------------------------------------------------------- parameters


def test_parameter_shapes_order_gru():
    names = [n for n, _ in parameter_shapes(small_config())]
    assert names == [
        "tower0.kernels", "tower0.bias", "tower3.kernels", "tower3.bias",
        "gru.w_z", "gru.u_z", "gru.b_z",
        "gru.w_r", "gru.u_r", "gru.b_r",
        "gru.w_h", "gru.u_h", "gru.b_h",
    ]
    shapes = dict(parameter_shapes(small_config()))
    assert shapes["tower0.kernels"] == (6, 8, 3)
    assert shapes["gru.w_z"] == (6, 6)
    assert shapes["gru.b_z"] == (6,)


def test_parameter_shapes_lstm_and_projection():
    config = small_config(recurrent_cell="lstm", projection=ProjectionSpec(out_dim=4))
    names = [n for n, _ in parameter_shapes(config)]
    assert "lstm.w_i" in names and "lstm.w_g" in names
    assert names[-4:] == ["proj_audio.w", "proj_audio.b", "proj_text.w", "proj_text.b"]
    shapes = dict(parameter_shapes(config))
    assert shapes["proj_audio.w"] == (4, 6)


def test_parameter_shapes_sentence_table_has_no_text_projection():
    config = small_config(text_mode="sentence_table")
    names = [n for n, _ in parameter_shapes(config)]
    assert not any(n.startswith("proj_") for n in names)


def test_init_params_deterministic_and_xavier_bounded():
    config = small_config()
    a = init_params(config, seed=0)
    b = init_params(config, seed=0)
    c = init_params(config, seed=1)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes()
        assert a[name].data.dtype == np.float32
    assert any(a[n].data.tobytes() != c[n].data.tobytes() for n in a)

    # conv kernels: fan_in = c_in * k, fan_out = c_out * k
    bound = np.sqrt(6.0 / (8 * 3 + 6 * 3))
    kern = a["tower0.kernels"].data
    assert (np.abs(kern) < bound).all()
    assert np.abs(kern).max() > 0.5 * bound  # the draw actually fills the range
    for name, t in a.items():
        if name.endswith((".bias", ".b")) or name.startswith(("gru.b", "lstm.b")):
            assert (t.data == 0).all()


def test_init_params_dense_bound_and_dtype():
    config = small_config(
        audio_tower=(LayerSpec("dense", in_dim=8, out_dim=6),), recurrent_cell="none"
    )
    params = init_params(config, seed=2, dtype=np.float64)
    w = params["tower0.w"].data
    assert w.dtype == np.float64
    assert (np.abs(w) < np.sqrt(6.0 / (8 + 6))).all()


# ---------------------------------------------------------------- towers


def test_audio_tower_output_dims():
    config = small_config()
    params = init_params(config, seed=0)
    out = encode_audio(np.zeros((12, 8), dtype=np.float32), config, params)
    assert out.shape == (6,)
    assert out.dtype == np.float32

    proj_config = small_config(projection=ProjectionSpec(out_dim=10))
    proj_params = init_params(proj_config, seed=0)
    out = encode_audio(np.zeros((12, 8), dtype=np.float32), proj_config, proj_params)
    assert out.shape == (10,)


def test_audio_tower_accepts_feature_sequence():
    config = small_config()
    params = init_params(config, seed=0)
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(9, 8)).astype(np.float32)
    fs = FeatureSequence(frames=frames, source_file="x")
    assert np.array_equal(encode_audio(fs, config, params), encode_audio(frames, config, params))


def test_audio_tower_rejects_bad_input():
    config = small_config()
    tower = AudioTower(config, init_params(config, seed=0))
    with pytest.raises(NnetError, match="feature dim"):
        tower.forward(np.zeros((4, 7)))
    with pytest.raises(NnetError, match="nonempty"):
        tower.forward(np.zeros((0, 8)))
    with pytest.raises(NnetError, match="nonempty"):
        tower.forward(np.zeros(8))


def test_audio_tower_without_recurrence_is_pooled_stack():
    config = small_config(
        audio_tower=(LayerSpec("dense", in_dim=8, out_dim=6), LayerSpec("relu")),
        recurrent_cell="none",
    )
    params = init_params(config, seed=1, dtype=np.float64)
    frames = np.random.default_rng(2).normal(size=(5, 8))
    out = encode_audio(frames, config, params)
    w, b = params["tower0.w"].data, params["tower0.b"].data
    manual = np.maximum(frames @ w.T + b, 0.0).mean(axis=0)
    assert np.allclose(out, manual, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", _TOWER_VARIANTS)
def test_encode_audio_matches_reference(variant):
    config = _tower_variant(variant)
    params = init_params(config, seed=7, dtype=np.float64)
    frames = np.random.default_rng(7).normal(size=(9, 8))
    got = encode_audio(frames, config, params)
    ref = encode_audio_reference(frames, config, params)
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("variant", _TOWER_VARIANTS)
def test_encode_matches_forward_batch(variant):
    # more clips than one encode group, in no length order, among them
    # clips of 1 step after pooling (1 and 4 frames), equal-length ties
    # (two of 300 frames; 5 and 7 frames pool alike) and clips of more
    # steps than one _CHUNK_STEPS chunk
    config = _tower_variant(variant)
    tower = AudioTower(config, init_params(config, seed=5, dtype=np.float64))
    rng = np.random.default_rng(5)
    lengths = [9, 1, 300, 4, 300, 5, 7, 170, *rng.integers(1, 150, _ENCODE_GROUP).tolist()]
    clips = [rng.normal(size=(t, config.feature_dim)) for t in lengths]
    embs = tower.encode(clips)
    outs, _ = tower.forward_batch(clips)
    assert embs.shape == (len(clips), config.scoring_dim) and embs.dtype == np.float64
    np.testing.assert_allclose(embs, np.stack(outs), rtol=1e-12, atol=1e-12)
    assert tower.encode([]).shape == (0, config.scoring_dim)


@pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
def test_encode_is_bitwise_independent_of_the_other_clips(cell_kind):
    # float32 at paper-like widths: a clip encoded alone and in a group gets
    # the same bits, so rank's printed scores do not depend on the rest of
    # the split. This rests on the BLAS rounding each row of a product of
    # two rows or more alike, as OpenBLAS on x86-64 does at these shapes.
    config = ModelConfig(feature_dim=64, audio_tower=default_tower(64),
                         recurrent_cell=cell_kind, embed_dim=300,
                         projection=ProjectionSpec(out_dim=300))
    tower = AudioTower(config, init_params(config, seed=1))
    rng = np.random.default_rng(3)
    clips = [rng.normal(size=(t, 64)).astype(np.float32) for t in (130, 7, 300, 130, 61)]
    for clip, emb in zip(clips, tower.encode(clips)):
        assert np.array_equal(tower.encode([clip])[0], emb)


def test_encode_peak_memory_is_below_one_gate_buffer():
    # a cached batch forward over these clips would hold a (sum T, 4H) LSTM
    # gate buffer; the cache-free encode must peak below that buffer alone
    hidden, lengths = 300, [400 + i for i in range(12)]
    config = small_config(audio_tower=(), recurrent_cell="lstm", embed_dim=hidden)
    tower = AudioTower(config, init_params(config, seed=0))
    clips = [np.ones((t, config.feature_dim), dtype=np.float32) for t in lengths]
    bound = sum(lengths) * 4 * hidden * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        embs = tower.encode(clips)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert embs.shape == (len(clips), hidden)
    assert peak < bound, (peak, bound)


def test_training_batch_peak_memory_of_the_default_tower():
    # 8 clips of 750-1500 frames through the default tower (GRU, H = 300,
    # projection 300), forward then backward; the bound was set before the
    # test was first run. Caches that kept every conv, activation and pool
    # intermediate peaked at 35.8 MiB here.
    config = ModelConfig(feature_dim=64, audio_tower=default_tower(64), embed_dim=300,
                         projection=ProjectionSpec(300))
    params = init_params(config, seed=0)
    tower = AudioTower(config, params)
    rng = np.random.default_rng(7)
    clips = [rng.normal(size=(t, 64)).astype(np.float32)
             for t in np.linspace(750, 1500, 8).astype(int)]
    douts = [rng.normal(size=300).astype(np.float32) for _ in clips]
    zero_grads(params)
    tracemalloc.start()
    try:
        _, cache = tower.forward_batch(clips)
        tower.backward_batch(cache, douts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(t.grad).all() for t in params.values())
    assert peak < 24 * 2**20, peak


# ---------------------------------------------------------------- text side


def _record(tokens, file_name="a.wav", index=1):
    return CaptionRecord(
        file_name=file_name, caption_index=index, raw_text=" ".join(tokens), tokens=tuple(tokens)
    )


def test_text_embedder_word_average():
    config = small_config()
    params = init_params(config, seed=0)
    table = random_word_table(("dog", "barks"), 6, seed=1)
    out, _ = TextEmbedder(config, params, word_table=table).embed(_record(["dog", "barks"]))
    expected = np.mean(np.stack([table["dog"], table["barks"]]), axis=0)
    assert np.allclose(out, expected, rtol=1e-6, atol=1e-7)


def test_text_embedder_skips_oov_tokens():
    config = small_config()
    params = init_params(config, seed=0)
    table = random_word_table(("dog",), 6, seed=1)
    embedder = TextEmbedder(config, params, word_table=table)
    out, _ = embedder.embed(_record(["dog", "zebra"]))
    assert np.allclose(out, table["dog"])
    assert embedder.oov_tokens == 1
    assert embedder.oov_captions == 0


def test_text_embedder_all_oov_is_zero_vector():
    config = small_config()
    params = init_params(config, seed=0)
    embedder = TextEmbedder(config, params, word_table=random_word_table(("dog",), 6, seed=1))
    out, _ = embedder.embed(_record(["zebra", "lion"]))
    assert (out == 0).all()
    assert embedder.oov_captions == 1
    assert embedder.oov_tokens == 2


def test_text_embedder_projection_path():
    config = small_config(projection=ProjectionSpec(out_dim=5))
    params = init_params(config, seed=0)
    table = random_word_table(("dog", "barks"), 6, seed=2)
    out, _ = TextEmbedder(config, params, word_table=table).embed(_record(["dog", "barks"]))
    mean = np.mean(np.stack([table["dog"], table["barks"]]), axis=0).astype(np.float32)
    expected, _ = Projection(params["proj_text.w"], params["proj_text.b"]).forward(mean)
    assert out.shape == (5,)
    assert np.allclose(out, expected, rtol=1e-6, atol=1e-7)


def test_text_embedder_sentence_table_verbatim():
    config = small_config(text_mode="sentence_table")
    params = init_params(config, seed=0)
    vec = np.arange(6, dtype=np.float32)
    table = embedding_table({"a.wav#1": vec}, cls=CaptionEmbeddingTable)
    embedder = TextEmbedder(config, params, caption_table=table)
    out, cache = embedder.embed(_record(["whatever"]))
    assert cache is None
    assert np.array_equal(out, vec)
    with pytest.raises(NnetError, match="missing from sentence table"):
        embedder.embed(_record(["x"], file_name="b.wav"))
    with pytest.raises(NnetError, match="only valid in word_average"):
        embedder.embed_tokens(["x"])


def test_text_embedder_table_requirements():
    config = small_config()
    params = init_params(config, seed=0)
    with pytest.raises(NnetError, match="needs an EmbeddingTable"):
        TextEmbedder(config, params)
    with pytest.raises(NnetError, match="embed_dim"):
        TextEmbedder(config, params, word_table=random_word_table(("a",), 7, seed=0))
    sent = small_config(text_mode="sentence_table")
    with pytest.raises(NnetError, match="needs a CaptionEmbeddingTable"):
        TextEmbedder(sent, params)
    with pytest.raises(NnetError, match="scoring dim"):
        TextEmbedder(
            sent, params, caption_table=embedding_table({}, 5, CaptionEmbeddingTable)
        )


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config.to_dict(), params, epoch=7, best_validation_map10=0.1234)
    ck = load_checkpoint(path)
    assert ck.epoch == 7
    assert ck.best_validation_map10 == pytest.approx(0.1234)
    assert ModelConfig.from_dict(ck.config) == config
    assert list(ck.params) == list(params)
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()
        assert ck.params[name].data.dtype == np.float32


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    config = small_config(recurrent_cell="lstm")
    params = init_params(config, seed=5)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, config.to_dict(), params, epoch=3, best_validation_map10=0.5)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.config, ck.params, ck.epoch, ck.best_validation_map10)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_without_defaulted_keys_reads_back_filled_in(tmp_path):
    # a config may leave out the keys that have defaults; the file holds them
    # all, so the loaded config has them and a re-save writes the same bytes
    config = small_config()
    full = config.to_dict()
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    partial = {key: value for key, value in full.items() if defaults.get(key) != value}
    assert {"beta1", "beta2", "adam_eps", "projection"} <= set(full) - set(partial)
    params = init_params(config, seed=2)
    p1, p2, p3 = (tmp_path / f"{name}.ckpt" for name in "abc")
    save_checkpoint(p1, partial, params, epoch=2, best_validation_map10=0.25)
    ck = load_checkpoint(p1)
    assert ck.model == config
    assert ck.config == full
    save_checkpoint(p2, ck.config, ck.params, ck.epoch, ck.best_validation_map10)
    assert p2.read_bytes() == p1.read_bytes()
    ck2 = load_checkpoint(p2)
    save_checkpoint(p3, ck2.config, ck2.params, ck2.epoch, ck2.best_validation_map10)
    assert p3.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config.to_dict(), params, epoch=1, best_validation_map10=0.0)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:6])  # shorter than magic + header length
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:12])  # header length present, header body cut off
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(bad)


@pytest.mark.parametrize("field, value, needle", [
    (None, 5, "header is not a JSON object"),
    (None, None, "header is not a JSON object"),
    ("epoch", "abc", "header epoch: must be an integer, got 'abc'"),
    ("epoch", None, "header epoch: must be an integer, got None"),
    ("epoch", 1.5, "header epoch: must be an integer, got 1.5"),
    ("epoch", True, "header epoch: must be an integer, got True"),
    ("best_validation_mAP10", "x", "header best_validation_mAP10: must be a number"),
    ("best_validation_mAP10", [1], "header best_validation_mAP10: must be a number"),
    ("epoch", -1, "header epoch: must be >= 0, got -1"),
    ("best_validation_mAP10", math.nan, "header best_validation_mAP10: must be in [0, 1], got nan"),
    ("best_validation_mAP10", math.inf, "header best_validation_mAP10: must be in [0, 1], got inf"),
    ("best_validation_mAP10", -1, "header best_validation_mAP10: must be in [0, 1], got -1"),
    ("best_validation_mAP10", 1.5, "header best_validation_mAP10: must be in [0, 1], got 1.5"),
])
def test_checkpoint_rejects_malformed_header_fields(tmp_path, field, value, needle):
    config = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config.to_dict(), init_params(config, seed=0),
                    epoch=1, best_validation_map10=0.0)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    if field is None:
        header = value
    else:
        header[field] = value
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:])
    with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: {needle}")):
        load_checkpoint(path)


def test_checkpoint_rejects_parameter_list_disagreeing_with_config(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    path = tmp_path / "model.ckpt"

    names = list(params)
    swapped = dict(params)
    swapped[names[0]], swapped[names[1]] = params[names[1]], params[names[0]]
    reordered = {names[1]: params[names[1]], names[0]: params[names[0]],
                 **{k: params[k] for k in names[2:]}}
    for bad_params in (reordered, {**params, "extra.w": Tensor(np.zeros(2, np.float32))}):
        write_unchecked_checkpoint(path, config.to_dict(), bad_params)
        with pytest.raises(CheckpointError, match="names or order disagree"):
            load_checkpoint(path)

    write_unchecked_checkpoint(path, config.to_dict(), swapped)
    with pytest.raises(CheckpointError, match="has shape"):
        load_checkpoint(path)

    write_unchecked_checkpoint(path, {**config.to_dict(), "recurrent_cell": "rnn"}, params)
    with pytest.raises(CheckpointError, match="invalid config"):
        load_checkpoint(path)


@pytest.mark.parametrize("epoch, map10", [(0, 0.0), (0, 1), (2**63, 1.0)])
def test_checkpoint_header_range_ends_round_trip(tmp_path, epoch, map10):
    config = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config.to_dict(), init_params(config, seed=0), epoch, map10)
    ck = load_checkpoint(path)
    assert (ck.epoch, ck.best_validation_map10) == (epoch, map10)


def test_save_checkpoint_refuses_what_load_checkpoint_refuses(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    stray = config.to_dict()
    stray["audio_tower"][1] = {"kind": "relu", "out_dim": 5}
    unchecked = tmp_path / "unchecked.ckpt"
    write_unchecked_checkpoint(unchecked, stray, params)
    with pytest.raises(CheckpointError) as loading:
        load_checkpoint(unchecked)
    assert "tower layer 1 (relu): unexpected field out_dim" in str(loading.value)

    path = tmp_path / "model.ckpt"
    extra = {**params, "extra.w": Tensor(np.zeros(2, np.float32))}
    bad_saves = [(stray, params, 1, 0.0), (config.to_dict(), extra, 1, 0.0),
                 *[(config.to_dict(), params, epoch, map10)
                   for epoch, map10 in ((-1, 0.0), (1, math.nan), (1, -math.inf), (1, 1.5))]]
    for bad_config, bad_params, epoch, map10 in bad_saves:
        write_unchecked_checkpoint(unchecked, bad_config, bad_params, epoch, map10)
        with pytest.raises(CheckpointError) as loading:
            load_checkpoint(unchecked)
        with pytest.raises(CheckpointError) as saving:
            save_checkpoint(path, bad_config, bad_params, epoch, map10)
        # the same message, naming the path given, and no file
        assert str(saving.value) == str(loading.value).replace(str(unchecked), str(path))
        assert sorted(os.listdir(tmp_path)) == ["unchecked.ckpt"]
