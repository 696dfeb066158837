"""Ranking and retrieval metric tests."""

import numpy as np
import pytest

from audiotext.nnet import ModelConfig, TextEmbedder, encode_audio, init_params
from audiotext.nnet.checkpoint import Checkpoint
from audiotext.retrieval import (
    SCORERS,
    RetrievalError,
    RetrievalReport,
    ScoreMatrix,
    build_score_matrix,
    default_scorer,
    evaluate_retrieval,
    rank_query,
    rank_row,
    report_from_matrix,
    score_all,
)

from helpers import VOCAB10, random_word_table, small_config, synthetic_dataset
from oracles import ranks_reference, retrieval_reference


# ---------------------------------------------------------------- rank_row


def test_rank_row_sorts_descending():
    assert rank_row(np.array([0.1, 0.9, 0.5])).tolist() == [1, 2, 0]


def test_rank_row_breaks_ties_by_ascending_index():
    assert rank_row(np.array([0.5, 0.9, 0.5, 0.9])).tolist() == [1, 3, 0, 2]
    assert rank_row(np.zeros(4)).tolist() == [0, 1, 2, 3]


def test_rank_row_rejects_nan():
    with pytest.raises(RetrievalError, match="NaN"):
        rank_row(np.array([0.1, np.nan]))


# ---------------------------------------------------------------- matrices


def _matrix(scores, ground_truth):
    return ScoreMatrix(scores=np.asarray(scores, dtype=np.float64),
                       ground_truth=tuple(ground_truth))


def test_score_matrix_validation():
    with pytest.raises(RetrievalError, match="score rows"):
        ScoreMatrix(np.zeros((2, 3)), (0,))
    with pytest.raises(RetrievalError, match="non-finite"):
        _matrix([[np.inf, 0.0]], [0])
    with pytest.raises(RetrievalError, match="out of"):
        _matrix([[0.0, 1.0]], [2])


def test_reciprocal_rank_examples():
    # rank 1 -> AP 1, rank 3 -> 1/3, rank 11 -> 0
    n = 12
    base = np.linspace(1.0, 0.5, n)

    top = report_from_matrix(_matrix([base], [0]))
    assert top.map10 == 1.0

    third = report_from_matrix(_matrix([base], [2]))
    assert third.map10 == pytest.approx(1.0 / 3.0)
    assert (third.r1, third.r5, third.r10) == (0.0, 1.0, 1.0)

    eleventh = report_from_matrix(_matrix([base], [10]))
    assert eleventh.map10 == 0.0
    assert eleventh.r10 == 0.0


def test_recall_examples():
    scores = np.array([
        [0.9, 0.8, 0.1, 0.0, 0.0, 0.0],    # gt 0 at rank 1
        [0.2, 0.9, 0.4, 0.0, 0.0, 0.0],    # gt 2 at rank 2
        [0.9, 0.8, 0.85, 0.0, 0.0, 0.0],   # gt 1 at rank 3
        [0.9, 0.8, 0.85, 0.7, 0.6, 0.5],   # gt 5 at rank 6
    ])
    report = report_from_matrix(_matrix(scores, [0, 2, 1, 5]))
    assert report.r1 == pytest.approx(1.0 / 4.0)
    assert report.r5 == pytest.approx(3.0 / 4.0)
    assert report.r10 == 1.0
    assert report.map10 == pytest.approx((1.0 + 0.5 + 1.0 / 3.0 + 1.0 / 6.0) / 4.0)


def test_report_clamps_cutoffs_to_catalog_size():
    # 3 clips: R5 and R10 degenerate to R3 and every query resolves
    m = _matrix(np.eye(3), [0, 1, 2])
    report = report_from_matrix(m)
    assert report.r1 == 1.0 and report.r5 == 1.0 and report.r10 == 1.0
    assert report.map10 == 1.0
    assert report.queries == 3 and report.audio == 3


def test_report_json_format():
    report = RetrievalReport(r1=0.03, r5=1.0 / 7.0, r10=0.25, map10=0.0789,
                             queries=420, audio=84)
    assert report.to_json() == (
        '{"R1":0.0300,"R5":0.1429,"R10":0.2500,"mAP10":0.0789,"queries":420,"audio":84}'
    )


def test_report_rejects_inconsistent_metrics():
    with pytest.raises(RetrievalError, match="nested"):
        RetrievalReport(r1=0.5, r5=0.4, r10=0.6, map10=0.1, queries=1, audio=2)
    with pytest.raises(RetrievalError, match="exceed"):
        RetrievalReport(r1=0.1, r5=0.2, r10=0.3, map10=0.5, queries=1, audio=2)


def test_metrics_match_counting_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = int(rng.integers(1, 40))
        n = int(rng.integers(1, 30))
        scores = rng.normal(size=(q, n))
        if rng.uniform() < 0.3:
            scores = np.round(scores, 1)  # force score ties
        gt = [int(rng.integers(0, n)) for _ in range(q)]
        m = _matrix(scores, gt)
        report = report_from_matrix(m)
        r1, r5, r10, map10 = retrieval_reference(scores, gt)
        assert report.r1 == r1
        assert report.r5 == r5
        assert report.r10 == r10
        assert report.map10 == map10


def test_ranks_invariant_under_monotone_transforms():
    rng = np.random.default_rng(23)
    scores = rng.uniform(0.0, 1.0, size=(8, 12))
    gt = [int(rng.integers(0, 12)) for _ in range(8)]
    base = ranks_reference(scores, gt)
    assert ranks_reference(2.0 * scores + 1.0, gt) == base
    assert ranks_reference(np.exp(scores), gt) == base
    assert report_from_matrix(_matrix(np.exp(scores), gt)).to_json() == \
        report_from_matrix(_matrix(scores, gt)).to_json()


def test_adding_a_distractor_never_raises_recall():
    rng = np.random.default_rng(29)
    scores = rng.normal(size=(10, 8))
    gt = [int(rng.integers(0, 8)) for _ in range(10)]
    before = report_from_matrix(_matrix(scores, gt))
    wider = np.hstack([scores, rng.normal(size=(10, 1))])
    after = report_from_matrix(_matrix(wider, gt))
    assert after.r1 <= before.r1
    assert after.r5 <= before.r5
    assert after.r10 <= before.r10
    assert after.map10 <= before.map10


def test_map10_bounds_relative_to_recall():
    rng = np.random.default_rng(31)
    for _ in range(10):
        scores = rng.normal(size=(12, 15))
        gt = [int(rng.integers(0, 15)) for _ in range(12)]
        report = report_from_matrix(_matrix(scores, gt))
        assert report.r1 <= report.r5 <= report.r10
        assert report.r10 / 10.0 <= report.map10 + 1e-12
        assert report.map10 <= report.r10 + 1e-12


# ---------------------------------------------------------------- score_all


def test_score_all_dot_is_matrix_product():
    rng = np.random.default_rng(2)
    text = rng.normal(size=(4, 6))
    audio = rng.normal(size=(3, 6))
    m = score_all(text, audio, "dot")
    assert np.allclose(m.scores, text @ audio.T)
    assert m.ground_truth == (0, 1, 2, 0)  # placeholder: query q -> clip q mod N


def test_score_all_exp_neg_euclid_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    text = rng.normal(size=(5, 4))
    audio = rng.normal(size=(6, 4))
    m = score_all(text, audio, "exp_neg_euclid")
    for i in range(5):
        for j in range(6):
            expected = np.exp(-np.linalg.norm(text[i] - audio[j]))
            assert m.scores[i, j] == pytest.approx(expected, rel=1e-9)
    assert (m.scores > 0).all() and (m.scores <= 1.0).all()


def test_score_all_validation():
    with pytest.raises(RetrievalError, match="dims differ"):
        score_all(np.zeros((2, 3)), np.zeros((2, 4)), "dot")
    with pytest.raises(RetrievalError, match="2-d"):
        score_all(np.zeros(3), np.zeros((2, 3)), "dot")
    with pytest.raises(RetrievalError, match="unknown scorer"):
        score_all(np.zeros((2, 3)), np.zeros((2, 3)), "cosine")
    assert SCORERS == ("dot", "exp_neg_euclid")


def test_default_scorer_follows_loss():
    assert default_scorer(small_config()) == "dot"
    assert default_scorer(small_config(loss="bce_expdist")) == "exp_neg_euclid"


# ---------------------------------------------------------------- end to end


def _problem(n_clips=4):
    manifest, _, features = synthetic_dataset(n_clips, seed=5)
    table = random_word_table(VOCAB10, 6, seed=7)
    config = small_config()
    params = init_params(config, seed=0)
    return manifest, features, table, config, params


def test_build_score_matrix_shape_and_keys():
    manifest, features, table, config, params = _problem()
    m = build_score_matrix(config, params, manifest, features, word_table=table)
    assert m.scores.shape == (20, 4)
    assert m.ground_truth == tuple(i // 5 for i in range(20))
    # rows follow item order, then caption_index; columns follow item order
    embedder = TextEmbedder(config, params, word_table=table)
    text = np.stack([embedder.embed(r)[0] for item in manifest.items for r in item.captions])
    audio = np.stack([encode_audio(features[item.file_name], config, params)
                      for item in manifest.items])
    assert np.allclose(m.scores, text.astype(np.float64) @ audio.astype(np.float64).T)


def test_evaluate_retrieval_smoke():
    manifest, features, table, config, params = _problem()
    ck = Checkpoint(model=config, params=params, epoch=1,
                    best_validation_map10=0.0)
    report = evaluate_retrieval(ck, manifest, features, word_table=table)
    assert report.queries == 20 and report.audio == 4
    assert 0.0 <= report.map10 <= 1.0


def test_evaluate_retrieval_scorer_override_changes_scores():
    manifest, features, table, config, params = _problem()
    m_dot = build_score_matrix(config, params, manifest, features,
                               word_table=table, scorer="dot")
    m_exp = build_score_matrix(config, params, manifest, features,
                               word_table=table, scorer="exp_neg_euclid")
    assert not np.allclose(m_dot.scores, m_exp.scores)
    assert (m_exp.scores <= 1.0).all()


def test_rank_query_single_clip():
    manifest, features, table, config, params = _problem(n_clips=1)
    ck = Checkpoint(model=config, params=params, epoch=1,
                    best_validation_map10=0.0)
    ranked = rank_query(ck, "w0 w1", manifest, features, top_k=1, word_table=table)
    assert len(ranked) == 1
    assert ranked[0][0] == manifest.items[0].file_name


def test_rank_query_orders_by_score():
    manifest, features, table, config, params = _problem()
    ck = Checkpoint(model=config, params=params, epoch=1,
                    best_validation_map10=0.0)
    ranked = rank_query(ck, "w0 w1 w2", manifest, features, top_k=4, word_table=table)
    assert len(ranked) == 4
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert {name for name, _ in ranked} == set(m.file_name for m in manifest.items)
    top2 = rank_query(ck, "w0 w1 w2", manifest, features, top_k=2, word_table=table)
    assert top2 == ranked[:2]


def test_rank_query_exp_scorer_perfect_match_scores_one():
    # a query vector equal to a clip's embedding has distance 0 to it
    manifest, features, _, _, _ = _problem()
    config = small_config(loss="bce_expdist", text_mode="sentence_table")
    params = init_params(config, seed=0)

    target = manifest.items[2].file_name
    qvec = encode_audio(features[target], config, params)
    ck = Checkpoint(model=config, params=params, epoch=1,
                    best_validation_map10=0.0)
    ranked = rank_query(ck, "", manifest, features, top_k=4, query_vector=qvec)
    assert ranked[0][0] == target
    assert ranked[0][1] == pytest.approx(1.0)


def test_rank_query_errors():
    manifest, features, table, config, params = _problem()
    ck = Checkpoint(model=config, params=params, epoch=1,
                    best_validation_map10=0.0)
    with pytest.raises(RetrievalError, match="top_k"):
        rank_query(ck, "w0", manifest, features, top_k=0, word_table=table)
    with pytest.raises(RetrievalError, match="top_k"):
        rank_query(ck, "w0", manifest, features, top_k=5, word_table=table)
    with pytest.raises(RetrievalError, match="empty after normalization"):
        rank_query(ck, "!!!", manifest, features, top_k=2, word_table=table)
    with pytest.raises(RetrievalError, match="word embedding table"):
        rank_query(ck, "w0", manifest, features, top_k=2)

    sent_config = small_config(text_mode="sentence_table")
    sent_ck = Checkpoint(model=sent_config,
                         params=init_params(sent_config, seed=0), epoch=1,
                         best_validation_map10=0.0)
    with pytest.raises(RetrievalError, match="query vector"):
        rank_query(sent_ck, "w0", manifest, features, top_k=2)
    with pytest.raises(RetrievalError, match="scoring dim"):
        rank_query(sent_ck, "", manifest, features, top_k=2,
                   query_vector=np.zeros(7))
