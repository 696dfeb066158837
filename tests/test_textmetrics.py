"""Caption metric tests: BLEU, ROUGE-L, METEOR-lite, CIDEr-D, SPIDEr."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import audiotext
from audiotext import textmetrics
from audiotext.textmetrics import (
    CaptionEvalItem,
    CaptionEvalSet,
    CorpusScores,
    GramTable,
    MetricError,
    NGramTables,
    _lcs_lengths,
    bleu_corpus,
    build_eval_set,
    cider_d,
    cider_d_per_item,
    evaluate_captions,
    load_candidates,
    load_spice_file,
    meteor_lite,
    rouge_l,
    spider_combine,
)

from helpers import (
    VOCAB10,
    meteor_lite_item,
    toy_metric_corpus,
    write_caption_csv,
    write_candidates_csv,
)
from oracles import (
    _lcs_recursive,
    alignment_reference,
    alignment_stats_reference,
    bleu_corpus_reference,
    bleu_reference,
    cider_d_per_item_reference,
    cider_d_reference,
    gram_positions_reference,
    lcs_length_reference,
    meteor_reference,
    ngram_table_reference,
    ngrams,
    rouge_l_item_reference,
    rouge_l_reference,
)


def _set(*items):
    built = []
    for i, (cand, refs) in enumerate(items):
        built.append(CaptionEvalItem(key=f"item{i}", candidate=tuple(cand),
                                     references=tuple(tuple(r) for r in refs)))
    return CaptionEvalSet(items=tuple(built))


# ---------------------------------------------------------------- n-grams


def test_ngrams_counts_with_multiplicity():
    g1 = ngrams(["a", "b", "a"], 1)
    assert g1.n == 1
    assert g1.counts == {("a",): 2, ("b",): 1}
    g2 = ngrams(["a", "b", "a"], 2)
    assert g2.counts == {("a", "b"): 1, ("b", "a"): 1}
    assert ngrams(["a", "b", "a"], 3).counts == {("a", "b", "a"): 1}


def test_ngrams_short_sequence_is_empty():
    assert ngrams(["a", "b"], 3).counts == {}
    assert ngrams([], 1).counts == {}


def test_ngrams_rejects_bad_order():
    with pytest.raises(MetricError):
        ngrams(["a"], 0)


# ---------------------------------------------------------------- bleu


def test_bleu_single_item_brevity_penalty():
    s = _set((["the", "cat", "sat"], [["the", "cat", "sat", "down"]]))
    scores = bleu_corpus(s)
    # unigram precision 1 with a 3-vs-4 brevity penalty
    assert scores[0] == pytest.approx(math.exp(1.0 - 4.0 / 3.0), rel=1e-12)
    assert scores[0] == pytest.approx(0.7165313105737893, rel=1e-12)


def test_bleu_clipping():
    s = _set((["the", "the", "the"], [["the", "cat"]]))
    scores = bleu_corpus(s)
    # "the" matches at most once; candidate is longer than the reference
    assert scores[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert scores[1] == 0.0  # no bigram match zeroes BLEU_2..4
    assert scores[2] == 0.0 and scores[3] == 0.0


def test_bleu_identity_is_one():
    s = _set(
        (["a", "dog", "barks", "at", "night"], [["a", "dog", "barks", "at", "night"]]),
        (["rain", "falls", "hard", "today", "again"],
         [["rain", "falls", "hard", "today", "again"], ["x", "y"]]),
    )
    assert bleu_corpus(s) == (1.0, 1.0, 1.0, 1.0)


def test_bleu_brevity_tie_prefers_shorter_reference():
    # candidate length 3, references of lengths 2 and 4 are equally close;
    # the shorter one (bp = exp(1 - 2/3) capped at 1) must win
    s = _set((["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]]))
    assert bleu_corpus(s)[0] == 1.0  # bp = min(1, exp(1/3)) = 1


def test_bleu_monotone_in_order():
    rng = np.random.default_rng(0)
    for _ in range(10):
        items = toy_metric_corpus(rng)
        scores = bleu_corpus(_set(*items))
        for k in range(3):
            assert scores[k] >= scores[k + 1] - 1e-12


def test_bleu_empty_candidates_score_zero():
    s = _set(((), [["a", "b"]]))
    assert bleu_corpus(s) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- rouge


def test_rouge_l_hand_value():
    score = rouge_l(_set((["the", "cat", "sat"], [["the", "cat", "on", "the", "mat"]])))
    assert score == pytest.approx(0.47843137254901963, rel=1e-12)


def test_rouge_l_identity_and_disjoint():
    assert rouge_l(_set((["a", "b"], [["a", "b"]]))) == pytest.approx(1.0)
    assert rouge_l(_set((["a", "b"], [["c", "d"]]))) == 0.0
    assert rouge_l(_set(([], [["a"]]))) == 0.0


def test_rouge_l_max_over_references_is_independent():
    # precision comes from one reference, recall from another
    cand = ["a", "b", "c"]
    refs = [["a", "b", "c", "d", "e", "f"], ["a", "b"]]
    # LCS: 3 with ref1 (P=1, R=1/2), 2 with ref2 (P=2/3, R=1)
    p_max, r_max = 1.0, 1.0
    expected = (1 + 1.2**2) * p_max * r_max / (r_max + 1.2**2 * p_max)
    assert rouge_l(_set((cand, refs))) == pytest.approx(expected, rel=1e-12)


def test_rouge_l_duplicate_reference_never_decreases():
    rng = np.random.default_rng(1)
    for _ in range(10):
        items = toy_metric_corpus(rng, n_items=1)
        cand, refs = items[0]
        base = rouge_l(_set((cand, refs)))
        extended = rouge_l(_set((cand, list(refs) + [refs[0]])))
        assert extended >= base - 1e-15


def _random_tokens(rng, vocab, lo, hi):
    return [f"w{k}" for k in rng.integers(0, vocab, size=int(rng.integers(lo, hi + 1)))]


def _alignment_stats(cand, ref):
    # (matches, min chunks) of one pair, read from a one-item eval set's tables
    m, chunks = textmetrics._alignment_stats(_set((cand, [ref])).grams)
    return int(m[0]), int(chunks[0])


def test_lcs_length_matches_recursive_reference():
    # the lane LCS must be exact, also past one 64-bit word, where the add
    # carries from word to word
    rng = np.random.default_rng(7)
    long_a = _random_tokens(rng, 5, 70, 70)
    long_b = _random_tokens(rng, 5, 90, 90)
    pairs = [([], []), ([], ["a"]), (["a"], []), (long_a, long_b), (long_b, long_a),
             (long_a, long_a), (long_a, []), (["x"] * 80, ["x"] * 65),
             # the carry out of word 0 ripples through a word of ones into word 2
             (["x"], ["x"] * 64 + ["y"] * 64 + ["x"])]
    for _ in range(300):
        vocab = int(rng.integers(1, 8))
        pairs.append((_random_tokens(rng, vocab, 0, 20), _random_tokens(rng, vocab, 0, 80)))
    want = [_lcs_recursive(tuple(a), tuple(b)) for a, b in pairs]
    assert [lcs_length_reference(a, b) for a, b in pairs] == want
    # one item per pair: every lane width runs in one call
    assert _lcs_lengths(_set(*((a, [b]) for a, b in pairs)).grams).tolist() == want


def test_rouge_l_equals_reference_exactly():
    # references of 63, 64, 65, 128 and 129 tokens sit at the edges of a
    # lane's words; empty candidates, repeated tokens and pairs sharing no
    # token too; every score is == the per-pair references
    rng = np.random.default_rng(20)
    for trial in range(12):
        vocab = int(rng.integers(1, 6)) if trial % 2 else int(rng.integers(5, 40))
        items = []
        for length in (63, 64, 65, 128, 129):
            cand = _random_tokens(rng, vocab, 0, 140)
            refs = [_random_tokens(rng, vocab, length, length),
                    _random_tokens(rng, vocab, 0, 30)]
            items.append((cand, refs))
        items.append(([], [_random_tokens(rng, vocab, 1, 70)]))
        items.append((["q"] * int(rng.integers(1, 90)), [["q"] * int(rng.integers(1, 130))]))
        items.append((["u", "v"], [["x", "y", "z"], []]))
        items.append((_random_tokens(rng, vocab, 1, 20), [["none"] * 70]))
        for _ in range(20):
            items.append((_random_tokens(rng, vocab, 0, 20),
                          [_random_tokens(rng, vocab, 0, 20) for _ in range(5)]))
        order = rng.permutation(len(items))
        items = [items[k] for k in order]
        s = _set(*items)
        assert rouge_l(s) == rouge_l_reference(items)
        assert rouge_l(s) == sum(rouge_l_item_reference(c, r) for c, r in items) / len(items)


def test_rouge_l_requires_references():
    with pytest.raises(MetricError):
        _set((["a"], []))


# ---------------------------------------------------------------- meteor


def test_meteor_identical_sentences():
    score = meteor_lite_item(["a", "dog", "barks"], [["a", "dog", "barks"]])
    assert score == pytest.approx(1.0 - 0.5 / 27.0, rel=1e-12)
    assert score == pytest.approx(0.9814814814814815, rel=1e-12)


def test_meteor_fully_scrambled_order():
    # all three words match but in three separate chunks
    score = meteor_lite_item(["the", "cat", "sat"], [["the", "sat", "cat"]])
    assert score == pytest.approx(0.5, rel=1e-12)


def test_meteor_no_match_is_zero():
    assert meteor_lite_item(["a"], [["b"]]) == 0.0
    assert meteor_lite_item([], [["b"]]) == 0.0


def test_meteor_prefers_fewer_chunks():
    # the aligner must pick the contiguous "a b" over a split alignment
    score = meteor_lite_item(["a", "b"], [["b", "a", "b"]])
    m, chunks = 2, 1
    precision, recall = 1.0, 2.0 / 3.0
    f_mean = precision * recall / (0.9 * precision + 0.1 * recall)
    assert score == pytest.approx(f_mean * (1.0 - 0.5 * (chunks / m) ** 3), rel=1e-12)


def test_meteor_best_reference_wins():
    rng = np.random.default_rng(2)
    for _ in range(10):
        items = toy_metric_corpus(rng, n_items=1)
        cand, refs = items[0]
        best = max(meteor_lite_item(cand, [r]) for r in refs)
        assert meteor_lite_item(cand, refs) == pytest.approx(best, rel=1e-12)


def test_meteor_duplicate_reference_never_decreases():
    rng = np.random.default_rng(3)
    for _ in range(10):
        items = toy_metric_corpus(rng, n_items=1)
        cand, refs = items[0]
        base = meteor_lite_item(cand, refs)
        extended = meteor_lite_item(cand, list(refs) + [refs[-1]])
        assert extended >= base - 1e-15


def test_alignment_stats_matches_exhaustive_reference():
    # 1-4 word vocabularies make tokens repeat, so the search has to choose
    rng = np.random.default_rng(8)
    for _ in range(400):
        vocab = int(rng.integers(1, 5))
        cand = _random_tokens(rng, vocab, 0, 7)
        ref = _random_tokens(rng, vocab, 0, 7)
        assert _alignment_stats(cand, ref) == alignment_reference(cand, ref), (cand, ref)


def test_alignment_stats_matches_repeated_word_crosswise():
    # "w a" and "w b" are each one chunk only with the two w's swapped
    assert _alignment_stats(["w", "a", "w", "b"], ["w", "b", "x", "w", "a"]) == (4, 2)


def _links_clash(cand, ref):
    # do two shared bigram occurrences give one position two partners?
    partner_of_cand, partner_of_ref = {}, {}
    for i in range(len(cand) - 1):
        for j in range(len(ref) - 1):
            if cand[i:i + 2] == ref[j:j + 2]:
                for a, b in ((i, j), (i + 1, j + 1)):
                    if partner_of_cand.setdefault(a, b) != b or partner_of_ref.setdefault(b, a) != a:
                        return True
    return False


def _counting_search(monkeypatch):
    calls = []
    search = textmetrics._min_chunks_search

    def counted(links, m):
        calls.append(m)
        return search(links, m)

    monkeypatch.setattr(textmetrics, "_min_chunks_search", counted)
    return calls


def test_alignment_stats_matches_search_reference_on_small_vocabularies(monkeypatch):
    # 1-5 word vocabularies repeat tokens, so links often clash; the search
    # must run exactly for the pairs whose links clash
    calls = _counting_search(monkeypatch)
    rng = np.random.default_rng(13)
    clashing = 0
    for _ in range(700):
        vocab = int(rng.integers(1, 6))
        cand = _random_tokens(rng, vocab, 0, 11)
        for _ in range(2):
            ref = _random_tokens(rng, vocab, 0, 11)
            want = alignment_stats_reference(cand, ref)
            del calls[:]
            assert _alignment_stats(cand, ref) == want, (cand, ref)
            clash = _links_clash(cand, ref)
            clashing += clash
            assert len(calls) == (1 if clash and want[0] else 0), (cand, ref)
    assert 300 < clashing < 1100


def _offline_shaped_corpus(rng, n_items, n_words=400, n_refs=5):
    # like the benchmark's eval-captions inputs: Zipf-distributed words,
    # 8-20 token captions, a candidate keeping ~60% of one reference's tokens
    p = 1.0 / np.arange(1, n_words + 1) ** 1.07
    p /= p.sum()

    def tokens(n):
        return [f"w{k}" for k in rng.choice(n_words, size=n, p=p)]

    items = []
    for _ in range(n_items):
        refs = [tokens(int(rng.integers(8, 21))) for _ in range(n_refs)]
        ref = refs[int(rng.integers(0, n_refs))]
        n = int(rng.integers(8, 21))
        fresh, keep = tokens(n), rng.random(n) < 0.6
        cand = [ref[i] if keep[i] and i < len(ref) else fresh[i] for i in range(n)]
        items.append((tuple(cand), tuple(tuple(r) for r in refs)))
    return items


def test_meteor_lite_matches_search_reference_on_offline_shaped_corpus(monkeypatch):
    calls = _counting_search(monkeypatch)
    items = _offline_shaped_corpus(np.random.default_rng(14), 400)
    assert meteor_lite(_set(*items)) == meteor_reference(items, align=alignment_stats_reference)
    # most pairs are answered from their links, some still need the search
    assert 0 < len(calls) < 0.2 * 5 * len(items)


def test_clash_free_pairs_never_reach_the_search(monkeypatch):
    def never(*args):
        raise AssertionError("search reached")

    monkeypatch.setattr(textmetrics, "_min_chunks_search", never)
    clash_free = [
        (["a", "dog", "barks"], ["a", "dog", "barks"]),
        (["the", "cat", "sat"], ["the", "sat", "cat"]),
        (["a", "b"], ["b", "a", "b"]),
        # the crosswise repeated w: links (0, 3) and (2, 0) share no position
        (["w", "a", "w", "b"], ["w", "b", "x", "w", "a"]),
        (["a", "a", "b"], ["a", "b", "a"]),
    ]
    for cand, ref in clash_free:
        assert _alignment_stats(cand, ref) == alignment_stats_reference(cand, ref)
    assert _alignment_stats(["w", "a", "w", "b"], ["w", "b", "x", "w", "a"]) == (4, 2)
    # "w a" twice on each side: each candidate w has two possible partners
    with pytest.raises(AssertionError, match="search reached"):
        _alignment_stats(["w", "a", "w", "a"], ["w", "a", "x", "w", "a"])


def test_repeated_words_answer_fast():
    # fewest chunks is NP-hard; a search over whole alignments takes seconds
    # to minutes on these, one over clashing links milliseconds
    cases = [
        (["a"] * 20, ["a"] * 20, (20, 1)),
        (["a", "b"] * 10, ["a", "b"] * 10, (20, 1)),
        ((["a", "a", "b"] * 7)[:20], (["a", "b", "a"] * 7)[:20], (19, 1)),
    ]
    for cand, ref, want in cases:
        start = time.perf_counter()
        assert _alignment_stats(cand, ref) == want, (cand, ref)
        assert time.perf_counter() - start < 1.0, (cand, ref)


def test_long_one_word_pair_needs_no_search():
    # 249 * 249 links: a clash mask per link would take tens of seconds and
    # hundreds of MB; one full diagonal answers before any mask is built
    start = time.perf_counter()
    assert _alignment_stats(["a"] * 250, ["a"] * 250) == (250, 1)
    assert time.perf_counter() - start < 2.0


def test_link_search_memory_grows_with_positions_times_links():
    # one clash component of L links that the search must walk: one L-bit
    # clash mask held per link would take L^2 / 8 bytes; the masks by
    # position and by diagonal take about positions x L bits
    cand, ref = ["a", "a", "b"] * 40, ["a", "b", "a"] * 40
    links = sum(cand[i:i + 2] == ref[j:j + 2] for i in range(119) for j in range(119))
    assert links == 4720
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert _alignment_stats(cand, ref) == (120, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < links * links / 8
    assert time.perf_counter() - start < 10.0


def _clash_components(cand, ref):
    # connected groups of two or more shared bigram occurrences, joined by
    # pairs that give one position two partners
    links = [(i, j) for i in range(len(cand) - 1) for j in range(len(ref) - 1)
             if cand[i:i + 2] == ref[j:j + 2]]

    def clash(a, b):
        pairs = {a, (a[0] + 1, a[1] + 1), b, (b[0] + 1, b[1] + 1)}
        return len({i for i, _ in pairs}) < len(pairs) or len({j for _, j in pairs}) < len(pairs)

    groups, left = [], set(links)
    while left:
        group, todo = set(), [left.pop()]
        while todo:
            link = todo.pop()
            group.add(link)
            near = {other for other in left if clash(link, other)}
            left -= near
            todo.extend(near)
        groups.append(group)
    return sum(len(group) > 1 for group in groups)


def test_alignment_stats_with_separate_clash_components_matches_exhaustive_reference():
    pairs = [(list("aaaxbbb"), list("aaaybbb")), (list("ababcdc"), list("ababdcd"))]
    rng = np.random.default_rng(21)
    while len(pairs) < 60:
        vocab = int(rng.integers(2, 5))
        cand = _random_tokens(rng, vocab, 5, 7)
        ref = _random_tokens(rng, vocab, 5, 7)
        if _clash_components(cand, ref) >= 2:
            pairs.append((cand, ref))
    for cand, ref in pairs:
        assert _clash_components(cand, ref) >= 2, (cand, ref)
        assert _alignment_stats(cand, ref) == alignment_reference(cand, ref), (cand, ref)


def test_eval_captions_output_does_not_depend_on_hash_seed(tmp_path):
    # the link search walks dicts of links keyed by token pairs, whose order
    # follows the interpreter's string hash seed; its output must not
    rng = np.random.default_rng(22)
    items = _offline_shaped_corpus(rng, 150)
    items += [(tuple((["a", "a", "b"] * 4)[:11]), ((["a", "b", "a"] * 4)[:11],) * 5),
              (("a",) * 9, (("a",) * 9,) * 5)]
    assert sum(_links_clash(cand, ref) for cand, refs in items for ref in refs) > 20
    keys = [f"clip{k:03d}.wav" for k in range(len(items))]
    cands = write_candidates_csv(tmp_path / "cands.csv",
                                 [(k, " ".join(cand)) for k, (cand, _) in zip(keys, items)])
    refs = write_caption_csv(tmp_path / "refs.csv", [(k, [" ".join(r) for r in rs])
                                                     for k, (_, rs) in zip(keys, items)])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(audiotext.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "audiotext.cli", "eval-captions",
                               "--candidates", str(cands), "--references", str(refs)],
                              env=env, capture_output=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == evaluate_captions(cands, refs).to_json() + "\n"


def _recording_builds(monkeypatch):
    built = []
    build = NGramTables._build

    def recorded(tables, n):
        built.append(n)
        return build(tables, n)

    monkeypatch.setattr(NGramTables, "_build", recorded)
    return built


def test_meteor_lite_builds_unigram_and_bigram_tables_only(monkeypatch):
    built = _recording_builds(monkeypatch)
    items = _offline_shaped_corpus(np.random.default_rng(23), 30)
    meteor_lite(_set(*items))
    assert built == [1, 2]


def test_evaluate_captions_builds_each_table_once(tmp_path, monkeypatch):
    built = _recording_builds(monkeypatch)
    during_meteor = []
    meteor = textmetrics.meteor_lite

    def counted(eval_set):
        before = len(built)
        score = meteor(eval_set)
        during_meteor.append(len(built) - before)
        return score

    monkeypatch.setattr(textmetrics, "meteor_lite", counted)
    items = _offline_shaped_corpus(np.random.default_rng(24), 30)
    keys = [f"clip{k:02d}.wav" for k in range(len(items))]
    cands = write_candidates_csv(tmp_path / "cands.csv",
                                 [(k, " ".join(cand)) for k, (cand, _) in zip(keys, items)])
    refs = write_caption_csv(tmp_path / "refs.csv", [(k, [" ".join(r) for r in rs])
                                                     for k, (_, rs) in zip(keys, items)])
    evaluate_captions(cands, refs)
    assert sorted(built) == [1, 2, 3, 4]
    assert during_meteor == [0]


def test_meteor_requires_references():
    with pytest.raises(MetricError):
        meteor_lite_item(["a"], [])


# ---------------------------------------------------------------- cider


def test_cider_two_item_hand_value():
    s = _set(
        (["a", "dog"], [["a", "dog", "barks"]]),
        (["rain", "falls"], [["rain", "falls"]]),
    )
    per_item = cider_d_per_item(s, max_n=1)
    # idf = ln 2 everywhere; cosine = 2/sqrt(6); length penalty exp(-1/72)
    expected = 10.0 * (2.0 / math.sqrt(6.0)) * math.exp(-1.0 / 72.0)
    assert per_item[0] == pytest.approx(expected, rel=1e-12)
    assert per_item[0] == pytest.approx(8.052347389079985, rel=1e-12)
    assert cider_d(s, max_n=1) == pytest.approx(sum(per_item) / 2.0, rel=1e-12)


def test_cider_needs_two_items():
    s = _set((["a"], [["a"]]))
    with pytest.raises(MetricError, match=">= 2 items"):
        cider_d(s)


def test_cider_empty_candidate_scores_zero():
    s = _set(((), [["a", "b"]]), (["c"], [["c"]]))
    assert cider_d_per_item(s)[0] == 0.0


def test_cider_range():
    rng = np.random.default_rng(4)
    for _ in range(10):
        items = toy_metric_corpus(rng)
        scores = cider_d_per_item(_set(*items))
        for s in scores:
            assert 0.0 <= s <= 10.0 + 1e-12


# ---------------------------------------------------------------- invariances


def _rename(items, mapping):
    out = []
    for cand, refs in items:
        out.append((tuple(mapping[t] for t in cand),
                    tuple(tuple(mapping[t] for t in r) for r in refs)))
    return out


def test_metrics_invariant_under_vocabulary_bijection():
    rng = np.random.default_rng(5)
    items = toy_metric_corpus(rng, n_items=5)
    vocab = sorted({t for cand, refs in items for t in cand}
                   | {t for _, refs in items for r in refs for t in r})
    mapping = {t: f"tok_{i}_renamed" for i, t in enumerate(vocab)}
    renamed = _rename(items, mapping)
    assert bleu_corpus(_set(*items)) == bleu_corpus(_set(*renamed))
    assert rouge_l(_set(*items)) == rouge_l(_set(*renamed))
    assert meteor_lite(_set(*items)) == meteor_lite(_set(*renamed))
    assert cider_d_per_item(_set(*items)) == cider_d_per_item(_set(*renamed))


def test_metrics_match_reference_implementations():
    rng = np.random.default_rng(6)
    for _ in range(20):
        items = toy_metric_corpus(rng)
        s = _set(*items)
        got_bleu = bleu_corpus(s)
        want_bleu = bleu_reference(items)
        for g, w in zip(got_bleu, want_bleu):
            assert g == pytest.approx(w, abs=1e-9)
        assert rouge_l(s) == pytest.approx(rouge_l_reference(items), abs=1e-9)
        assert meteor_lite(s) == pytest.approx(meteor_reference(items), abs=1e-9)
        got_cider = cider_d_per_item(s)
        want_cider = cider_d_reference(items)
        for g, w in zip(got_cider, want_cider):
            assert g == pytest.approx(w, abs=1e-9)


def _bitwise_cases():
    """(items, max_n) corpora for the n-gram tables: empty candidates,
    corpora whose candidates are all empty, one- and two-word vocabularies
    that repeat heavily, references shorter than n, and max_n 1..6."""
    rng = np.random.default_rng(12)
    cases = [
        ([((), (("a", "b"),)), ((), (("c",),))], 4),
        ([((), (("a",),)), (("a", "a"), (("a",), ("a", "a", "a")))], 6),
    ]
    for k in range(330):
        vocab = VOCAB10[:(1, 2, 3, 10)[k % 4]]
        items = toy_metric_corpus(rng, n_items=int(rng.integers(2, 8)),
                                  n_refs=int(rng.integers(1, 6)), vocab=vocab,
                                  max_len=int(rng.integers(1, 13)))
        if k % 11 == 0:
            items = [((), refs) for _, refs in items]
        cases.append((items, k % 6 + 1))
    return cases


def test_bleu_and_cider_bitwise_equal_to_dict_bodies():
    for items, max_n in _bitwise_cases():
        s = _set(*items)
        assert bleu_corpus(s, max_n) == bleu_corpus_reference(s, max_n), (items, max_n)
        assert cider_d_per_item(s, max_n) == cider_d_per_item_reference(s, max_n), (items, max_n)
        # orders past max_n are built on demand from the same tables
        assert bleu_corpus(s, 6) == bleu_corpus_reference(s, 6), items


def _assert_tables_equal_reference(items, max_n=6):
    grams = _set(*items).grams
    for n in range(1, max_n + 1):
        got, want = grams.table(n), ngram_table_reference(grams, n)
        assert len(got) == len(want) + 1  # every field but pos
        for field, a, b in zip(GramTable._fields, got, want):
            assert np.array_equal(a, b), (n, field, items)
        assert got.pos.dtype == np.int32, (n, items)
        assert got.pos.tolist() == gram_positions_reference(grams, n), (n, items)


def test_ngram_tables_equal_reference_on_bitwise_cases():
    for items, _ in _bitwise_cases():
        _assert_tables_equal_reference(items)


def test_ngram_tables_equal_reference_on_offline_shaped_corpus():
    _assert_tables_equal_reference(_offline_shaped_corpus(np.random.default_rng(31), 300))


@pytest.mark.parametrize("items", [
    [((), (("a", "b"), ("b",))), (("b", "a"), (("a", "b", "a"),))],
    [(("a", "b"), (("b",), ("a", "b"))), (("c",), (("c", "a"), ("a",)))],
    [(("a",) * 5, (("a",) * 3, ("a",), ("a",) * 7)), (("a", "a"), (("a",) * 4,))],
    [(("a", "b", "a", "b"), (("b", "a", "b"),))],
    [(("a", "b", "c"), (("a", "b", "c"),) * 3), (("a", "b", "c"), (("a", "b", "c"), ("c",)))],
    [((), ((),)), ((), ((), ()))],
], ids=["empty_candidate", "all_shorter_than_n", "one_word_vocabulary",
        "one_item_one_reference", "duplicate_sentences", "no_tokens"])
def test_ngram_tables_equal_reference_on_edge_cases(items):
    _assert_tables_equal_reference(items)


def test_ngram_tables_peak_memory_not_above_reference():
    # orders 1-4 of an offline-shaped corpus (~84k tokens), every table kept
    items = _offline_shaped_corpus(np.random.default_rng(32), 1000)

    def traced_peak(build):
        grams = _set(*items).grams  # interned before the trace starts
        tracemalloc.start()
        try:
            tables = [build(grams, n) for n in range(1, 5)]  # all kept, as in a scoring run
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(NGramTables.table) <= traced_peak(ngram_table_reference)


def test_evaluate_captions_builds_each_order_once_per_call(tmp_path, monkeypatch):
    refs = tmp_path / "refs.csv"
    write_caption_csv(refs, [("a.wav", FIVE), ("b.wav", FIVE[::-1])])
    cands = tmp_path / "cands.csv"
    cands.write_text(f"file_name,caption\na.wav,{FIVE[0]}\nb.wav,{FIVE[3]}\n")
    built = []
    build = textmetrics.NGramTables._build

    def counting(self, n):
        built.append(n)
        return build(self, n)

    monkeypatch.setattr(textmetrics.NGramTables, "_build", counting)
    module_names = set(vars(textmetrics))
    first = evaluate_captions(cands, refs)
    assert built == [1, 2, 3, 4]
    # nothing outlives a call: the second builds every order again
    second = evaluate_captions(cands, refs)
    assert built == [1, 2, 3, 4] * 2
    assert first == second
    assert set(vars(textmetrics)) == module_names


# ---------------------------------------------------------------- spider


def test_spider_combine_examples():
    spice, spider = spider_combine(0.358, {"x": 0.109}, ["x"])
    assert spice == pytest.approx(0.109)
    assert spider == pytest.approx(0.2335)
    assert spider_combine(0.5, None, ["x"]) == (None, None)


def test_spider_combine_is_mean_of_items():
    spice, spider = spider_combine(1.0, {"a": 0.2, "b": 0.4}, ["a", "b"])
    assert spice == pytest.approx(0.3)
    assert spider == pytest.approx(0.65)


def test_spider_combine_missing_keys():
    with pytest.raises(MetricError, match="missing"):
        spider_combine(0.5, {"a": 0.2}, ["a", "b"])


def test_load_spice_file(tmp_path):
    good = tmp_path / "spice.json"
    good.write_text('{"a.wav": 0.25, "b.wav": 0}')
    assert load_spice_file(good) == {"a.wav": 0.25, "b.wav": 0.0}

    bad_syntax = tmp_path / "bad.json"
    bad_syntax.write_text("{not json")
    with pytest.raises(MetricError):
        load_spice_file(bad_syntax)

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(MetricError, match="expected an object"):
        load_spice_file(not_object)

    out_of_range = tmp_path / "range.json"
    out_of_range.write_text('{"a.wav": 1.5}')
    with pytest.raises(MetricError, match="outside"):
        load_spice_file(out_of_range)


# ---------------------------------------------------------------- file joins


def test_load_candidates(tmp_path):
    path = tmp_path / "cands.csv"
    path.write_text("file_name,caption\na.wav,A Dog Barks!\nb.wav,...\n")
    out = load_candidates(path)
    assert out["a.wav"] == ("a", "dog", "barks")
    assert out["b.wav"] == ()  # normalizes to nothing but is kept


def test_load_candidates_errors(tmp_path):
    path = tmp_path / "cands.csv"

    path.write_text("")
    with pytest.raises(MetricError, match="empty file"):
        load_candidates(path)

    path.write_text("clip,text\na.wav,hi\n")
    with pytest.raises(MetricError, match="bad header"):
        load_candidates(path)

    path.write_text("file_name,caption\na.wav,hi,extra\n")
    with pytest.raises(MetricError, match="row 2"):
        load_candidates(path)

    path.write_text("file_name,caption\na.wav,hi\na.wav,again\n")
    with pytest.raises(MetricError, match="duplicate"):
        load_candidates(path)

    path.write_text("file_name,caption\n,hi\n")
    with pytest.raises(MetricError, match="empty file_name"):
        load_candidates(path)

    path.write_text("file_name,caption\n")
    with pytest.raises(MetricError, match="no candidate rows"):
        load_candidates(path)

    path.write_text(f"file_name,caption\na.wav,{'w' * 131_073}\n")
    with pytest.raises(MetricError, match="field larger than field limit"):
        load_candidates(path)


def test_build_eval_set_joins_and_sorts():
    candidates = {"b.wav": ("x",), "a.wav": ("y",)}
    references = {"a.wav": [("y", "z")], "b.wav": [("x",)]}
    s = build_eval_set(candidates, references)
    assert s.keys() == ("a.wav", "b.wav")
    assert s.items[0].candidate == ("y",)


def test_build_eval_set_coverage_errors():
    with pytest.raises(MetricError, match="unknown file_names"):
        build_eval_set({"a.wav": (), "z.wav": ()}, {"a.wav": [("x",)]})
    with pytest.raises(MetricError, match="missing candidates"):
        build_eval_set({"a.wav": ()}, {"a.wav": [("x",)], "b.wav": [("y",)]})


def test_eval_item_validation():
    with pytest.raises(MetricError, match="no references"):
        CaptionEvalItem(key="k", candidate=("a",), references=())
    with pytest.raises(MetricError, match="empty"):
        CaptionEvalSet(items=())


# ---------------------------------------------------------------- end to end


FIVE = [
    "a dog barks loudly outside",
    "rain falls hard on roofs",
    "a man speaks in a hall",
    "birds chirp in the morning",
    "wind blows through the trees",
]


def test_evaluate_captions_end_to_end(tmp_path):
    refs = tmp_path / "refs.csv"
    write_caption_csv(refs, [("a.wav", FIVE), ("b.wav", FIVE[::-1])])
    cands = tmp_path / "cands.csv"
    cands.write_text(
        "file_name,caption\n"
        f"a.wav,{FIVE[0]}\n"
        f"b.wav,{FIVE[1]}\n"
    )
    scores = evaluate_captions(cands, refs)
    assert scores.bleu[0] == pytest.approx(1.0)  # candidates copy a reference
    assert scores.rouge_l == pytest.approx(1.0)
    assert scores.meteor == pytest.approx(1.0 - 0.5 / 125.0, rel=1e-9)
    assert 0.0 <= scores.cider <= 10.0
    assert scores.spice is None and scores.spider is None

    rendered = scores.to_json()
    assert '"BLEU_1":1.0000' in rendered
    assert '"SPICE"' not in rendered


def test_evaluate_captions_with_spice(tmp_path):
    refs = tmp_path / "refs.csv"
    write_caption_csv(refs, [("a.wav", FIVE), ("b.wav", FIVE[::-1])])
    cands = tmp_path / "cands.csv"
    cands.write_text(f"file_name,caption\na.wav,{FIVE[2]}\nb.wav,{FIVE[3]}\n")
    spice = tmp_path / "spice.json"
    spice.write_text('{"a.wav": 0.2, "b.wav": 0.4}')
    scores = evaluate_captions(cands, refs, spice_file=spice)
    assert scores.spice == pytest.approx(0.3)
    assert scores.spider == pytest.approx((0.3 + scores.cider) / 2.0)
    rendered = scores.to_json()
    assert '"SPICE":0.3000' in rendered
    assert '"SPIDEr":' in rendered


def test_corpus_scores_json_layout():
    scores = CorpusScores(bleu=(0.5, 0.25, 0.125, 0.0625), rouge_l=0.3,
                          meteor=0.2, cider=1.5)
    assert scores.to_json() == (
        '{"BLEU_1":0.5000,"BLEU_2":0.2500,"BLEU_3":0.1250,"BLEU_4":0.0625,'
        '"ROUGE_L":0.3000,"METEOR":0.2000,"CIDEr":1.5000}'
    )
