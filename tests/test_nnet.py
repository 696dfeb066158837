"""Network tests: layer math, gradients, configuration, checkpoints."""

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
)
from audiotext.nnet.model import (
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
from helpers import embedding_table, random_word_table, small_config, small_tower
from oracles import (
    GRUCellReference,
    LSTMCellReference,
    encode_audio_reference,
    max_pool_time_backward_reference,
    max_pool_time_reference,
    mean_pool_time_backward_reference,
    mean_pool_time_reference,
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
    layer = Projection(w, b, "relu")
    params = {"w": w, "b": b, "x": xt}

    def loss_fn():
        return float((layer.forward(xt.data)[0] * direction).sum())

    def grad_fn():
        zero_grads(params)
        _, cache = layer.forward(xt.data)
        xt.accumulate(layer.backward(cache, direction))
        return collect_grads(params)

    _fd(loss_fn, grad_fn, params)


@pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
def test_composed_tower_gradients(cell_kind):
    config = small_config(recurrent_cell=cell_kind)
    params = init_params(config, seed=3, dtype=np.float64)
    tower = AudioTower(config, params)
    rng = np.random.default_rng(7)
    frames = rng.normal(size=(7, config.feature_dim))
    direction = rng.normal(size=config.scoring_dim)

    def loss_fn():
        return float(tower.forward(frames)[0] @ direction)

    def grad_fn():
        zero_grads(params)
        out, cache = tower.forward(frames)
        tower.backward(cache, direction)
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
    with pytest.raises(NnetError, match="unknown kind"):
        small_config(audio_tower=(LayerSpec("attention"),)).validate()
    with pytest.raises(NnetError, match="pool_stride"):
        small_config(audio_tower=(LayerSpec("max_pool_time"),)).validate()
    with pytest.raises(NnetError, match="mean pool"):
        small_config(audio_tower=(LayerSpec("mean_pool_time", pool_stride=0),)).validate()


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
    fs = FeatureSequence(frames=frames, feature_kind="external", source_file="x")
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


@pytest.mark.parametrize(
    "variant", ["gru", "lstm", "none", "projection", "mixed"]
)
def test_encode_audio_matches_reference(variant):
    if variant == "none":
        config = small_config(
            audio_tower=(LayerSpec("dense", in_dim=8, out_dim=6), LayerSpec("tanh_act")),
            recurrent_cell="none",
        )
    elif variant == "projection":
        config = small_config(projection=ProjectionSpec(out_dim=4))
    elif variant == "mixed":
        config = small_config(
            audio_tower=(
                LayerSpec("conv1d", in_dim=8, out_dim=5, kernel_width=3),
                LayerSpec("sigmoid_act"),
                LayerSpec("mean_pool_time", pool_stride=2),
                LayerSpec("dense", in_dim=5, out_dim=7),
                LayerSpec("relu"),
                LayerSpec("max_pool_time", pool_stride=3),
            ),
        )
    else:
        config = small_config(recurrent_cell=variant)
    params = init_params(config, seed=7, dtype=np.float64)
    frames = np.random.default_rng(7).normal(size=(9, 8))
    got = encode_audio(frames, config, params)
    ref = encode_audio_reference(frames, config, params)
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)


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
        save_checkpoint(path, config.to_dict(), bad_params, epoch=1, best_validation_map10=0.0)
        with pytest.raises(CheckpointError, match="names or order disagree"):
            load_checkpoint(path)

    save_checkpoint(path, config.to_dict(), swapped, epoch=1, best_validation_map10=0.0)
    with pytest.raises(CheckpointError, match="has shape"):
        load_checkpoint(path)

    save_checkpoint(path, {**config.to_dict(), "recurrent_cell": "rnn"}, params,
                    epoch=1, best_validation_map10=0.0)
    with pytest.raises(CheckpointError, match="invalid config"):
        load_checkpoint(path)
