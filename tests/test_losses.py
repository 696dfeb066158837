"""Scorer and loss tests: values, subgradients, imposter sampling."""

import numpy as np
import pytest

from audiotext.losses import (
    LossError,
    bce_match_grad,
    bce_match_loss,
    dot_score,
    exp_neg_euclid,
    exp_neg_euclid_backward,
    sample_imposters,
    triplet_margin_grads,
    triplet_margin_loss,
)
from audiotext.nnet.tensor import Tensor
from audiotext.rng import SplitMix64

from gradcheck import finite_difference_check


# ---------------------------------------------------------------- scorers


def test_dot_score_example():
    assert dot_score(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_score_rejects_dim_mismatch():
    with pytest.raises(LossError):
        dot_score(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(LossError):
        dot_score(np.zeros((2, 2)), np.zeros((2, 2)))


def test_exp_neg_euclid_example():
    # ||(3, 4)|| = 5
    a = np.array([4.0, 5.0])
    t = np.array([1.0, 1.0])
    assert exp_neg_euclid(a, t) == pytest.approx(np.exp(-5.0), rel=1e-12)
    assert exp_neg_euclid(a, a) == 1.0


def test_exp_neg_euclid_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=4)
        t = rng.normal(size=4)
        d = exp_neg_euclid(a, t)
        assert 0.0 < d <= 1.0


def test_exp_neg_euclid_gradients():
    rng = np.random.default_rng(1)
    at = Tensor(rng.normal(size=5))
    tt = Tensor(rng.normal(size=5))
    params = {"a": at, "t": tt}

    def loss_fn():
        return exp_neg_euclid(at.data, tt.data)

    def grad_fn():
        d = exp_neg_euclid(at.data, tt.data)
        da, dt = exp_neg_euclid_backward(at.data, tt.data, d, 1.0)
        return {"a": da, "t": dt}

    assert finite_difference_check(loss_fn, grad_fn, params) < 1e-4


def test_exp_neg_euclid_zero_distance_subgradient():
    a = np.array([1.0, 2.0])
    da, dt = exp_neg_euclid_backward(a, a.copy(), 1.0, 3.0)
    assert (da == 0).all() and (dt == 0).all()
    da[0] = 5.0  # buffers must be independent
    assert dt[0] == 0.0


# ---------------------------------------------------------------- bce


def test_bce_match_loss_examples():
    assert bce_match_loss(0.5, True) == pytest.approx(np.log(2.0), rel=1e-12)
    assert bce_match_loss(0.5, False) == pytest.approx(np.log(2.0), rel=1e-12)
    # clamp keeps the endpoints finite
    assert bce_match_loss(1.0, True) == pytest.approx(-np.log(1.0 - 1e-7), rel=1e-6)
    assert bce_match_loss(1.0, False) == pytest.approx(-np.log(1e-7), rel=1e-9)
    assert bce_match_loss(0.0, False) == pytest.approx(-np.log(1.0 - 1e-7), rel=1e-6)


def test_bce_match_loss_rejects_out_of_range():
    with pytest.raises(LossError, match="outside"):
        bce_match_loss(1.5, True)
    with pytest.raises(LossError, match="outside"):
        bce_match_loss(-0.1, False)


@pytest.mark.parametrize("y", [True, False])
def test_bce_match_grad_interior(y):
    dt = Tensor(np.array([0.3]))
    params = {"d": dt}

    def loss_fn():
        return bce_match_loss(float(dt.data[0]), y)

    def grad_fn():
        return {"d": np.array([bce_match_grad(float(dt.data[0]), y)])}

    assert finite_difference_check(loss_fn, grad_fn, params) < 1e-4


def test_bce_match_grad_zero_where_clamped():
    assert bce_match_grad(0.0, True) == 0.0
    assert bce_match_grad(1.0, True) == 0.0
    assert bce_match_grad(1.0, False) == 0.0
    assert bce_match_grad(0.5, True) == -2.0
    assert bce_match_grad(0.5, False) == 2.0


# ---------------------------------------------------------------- triplet


def test_triplet_margin_loss_example():
    assert triplet_margin_loss(0.9, 0.2, 0.5, margin=1.0) == pytest.approx(0.9)


def test_triplet_margin_loss_satisfied_and_tied():
    # both imposters beaten by more than the margin
    assert triplet_margin_loss(2.0, 0.5, 0.1, margin=1.0) == 0.0
    # equal scores leave both hinges exactly at the margin
    assert triplet_margin_loss(0.7, 0.7, 0.7, margin=1.0) == 2.0


def test_triplet_margin_loss_rejects_bad_margin():
    with pytest.raises(LossError, match="margin"):
        triplet_margin_loss(1.0, 0.0, 0.0, margin=0.0)


def test_triplet_margin_grads_indicators():
    # both hinges active
    assert triplet_margin_grads(0.9, 0.2, 0.5, margin=1.0) == (-2.0, 1.0, 1.0)
    # only the text hinge active
    assert triplet_margin_grads(0.9, 0.2, -0.5, margin=1.0) == (-1.0, 1.0, 0.0)
    # none active
    assert triplet_margin_grads(2.0, 0.5, 0.1, margin=1.0) == (0.0, 0.0, 0.0)


def test_triplet_margin_grads_zero_at_exact_equality():
    # margin + s_neg - s_pos == 0 exactly: subgradient is 0, not 1
    assert triplet_margin_grads(1.0, 0.0, 0.0, margin=1.0) == (0.0, 0.0, 0.0)
    assert triplet_margin_loss(1.0, 0.0, 0.0, margin=1.0) == 0.0


def test_triplet_margin_grads_match_finite_differences():
    st = Tensor(np.array([0.9, 0.2, 0.5]))
    params = {"s": st}

    def loss_fn():
        return triplet_margin_loss(st.data[0], st.data[1], st.data[2], margin=1.0)

    def grad_fn():
        return {"s": np.array(triplet_margin_grads(st.data[0], st.data[1], st.data[2], 1.0))}

    assert finite_difference_check(loss_fn, grad_fn, params) < 1e-4


# ---------------------------------------------------------------- imposters


BATCH4 = [("a.wav", "a#1"), ("b.wav", "b#1"), ("c.wav", "c#1"), ("a.wav", "a#2")]


def test_sample_imposters_excludes_same_audio():
    rng = SplitMix64(0)
    seen = set()
    for _ in range(200):
        text_i, audio_i = sample_imposters(BATCH4, 0, rng)
        seen.update((text_i, audio_i))
        assert text_i in (1, 2) and audio_i in (1, 2)
    assert seen == {1, 2}  # both eligible positions actually get drawn


def test_sample_imposters_forced_choice():
    batch = [("a.wav", "a#1"), ("b.wav", "b#1")]
    rng = SplitMix64(3)
    for _ in range(10):
        assert sample_imposters(batch, 0, rng) == (1, 1)
        assert sample_imposters(batch, 1, rng) == (0, 0)


def test_sample_imposters_two_draws_text_first():
    rng = SplitMix64(9)
    got = sample_imposters(BATCH4, 0, rng)
    replay = SplitMix64(9)
    eligible = [1, 2]
    expected = (
        eligible[replay.bounded(len(eligible))],
        eligible[replay.bounded(len(eligible))],
    )
    assert got == expected


def test_sample_imposters_deterministic():
    a = [sample_imposters(BATCH4, 3, SplitMix64(i)) for i in range(20)]
    b = [sample_imposters(BATCH4, 3, SplitMix64(i)) for i in range(20)]
    assert a == b


def test_sample_imposters_errors():
    with pytest.raises(LossError, match="at least 2"):
        sample_imposters([("a.wav", "a#1")], 0, SplitMix64(0))
    with pytest.raises(LossError, match="out of range"):
        sample_imposters(BATCH4, 4, SplitMix64(0))
    with pytest.raises(LossError, match="no eligible imposter"):
        sample_imposters([("a.wav", "a#1"), ("a.wav", "a#2")], 0, SplitMix64(0))
