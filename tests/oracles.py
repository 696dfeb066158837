"""Independent brute-force reference implementations used as test oracles.

Everything here is written straight from the documented definitions with
the dumbest workable algorithm (exhaustive enumeration, explicit loops,
rank-by-counting instead of sorting) and shares no code with the
package. Speed is irrelevant; being obviously correct is the point.

Corpus items are plain (candidate_tokens, [reference_tokens, ...]) pairs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# caption metrics


def _grams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu_reference(items, max_n=4):
    """Corpus BLEU_1..max_n: clipped matches and totals summed over items,
    brevity penalty from per-item closest reference length (ties shorter)."""
    clipped = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in items:
        cand_len += len(cand)
        best = None
        for ref in refs:
            if (best is None
                    or abs(len(ref) - len(cand)) < abs(best - len(cand))
                    or (abs(len(ref) - len(cand)) == abs(best - len(cand)) and len(ref) < best)):
                best = len(ref)
        ref_len += best
        for n in range(1, max_n + 1):
            cand_grams = _grams(cand, n)
            for gram in set(cand_grams):
                most = max((_grams(ref, n).count(gram) for ref in refs), default=0)
                clipped[n - 1] += min(cand_grams.count(gram), most)
            total[n - 1] += len(cand_grams)
    if cand_len == 0:
        return (0.0,) * max_n
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    out = []
    for k in range(1, max_n + 1):
        ps = [clipped[n] / total[n] if total[n] > 0 else 0.0 for n in range(k)]
        if any(p == 0.0 for p in ps):
            out.append(0.0)
        else:
            out.append(bp * math.exp(sum(math.log(p) for p in ps) / k))
    return tuple(out)


def _lcs_recursive(a, b):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def rouge_l_reference(items, beta=1.2):
    """Mean LCS F-measure; max precision and max recall over references."""
    scores = []
    for cand, refs in items:
        if not cand:
            scores.append(0.0)
            continue
        p_max = max(_lcs_recursive(tuple(cand), tuple(r)) / len(cand) for r in refs)
        r_max = max(_lcs_recursive(tuple(cand), tuple(r)) / len(r) for r in refs if r)
        denom = r_max + beta * beta * p_max
        scores.append(0.0 if denom == 0.0 else (1.0 + beta * beta) * p_max * r_max / denom)
    return sum(scores) / len(scores)


def lcs_length_reference(a, b):
    """The bit-parallel LCS length `audiotext.textmetrics` ran pair by pair
    on Python ints before it ran all pairs at once on uint64 lanes (Allison
    & Dix 1986; Hyyro 2004): bit j of ``v`` is 0 where the LCS row steps up
    at b[j]; one add per token of a."""
    masks = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_item_reference(candidate, references, beta=1.2):
    """The per-item ROUGE-L body `audiotext.textmetrics.rouge_l` replaced:
    max precision and max recall over references, taken independently, from
    ``lcs_length_reference``; an empty reference gives no recall."""
    if not candidate:
        return 0.0
    lcs = [lcs_length_reference(candidate, ref) for ref in references]
    p_max = max(lcs) / len(candidate)
    r_max = max([n / len(ref) for n, ref in zip(lcs, references) if ref], default=0.0)
    denom = r_max + beta * beta * p_max
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * p_max * r_max / denom


def alignment_reference(cand, ref):
    """(matches, min chunks) by enumerating EVERY maximal one-to-one
    exact-token matching and taking the chunk minimum."""
    words = set(cand) & set(ref)
    if not words:
        return 0, 0
    cand_pos = {w: [i for i, t in enumerate(cand) if t == w] for w in words}
    ref_pos = {w: [j for j, t in enumerate(ref) if t == w] for w in words}
    m = sum(min(len(cand_pos[w]), len(ref_pos[w])) for w in words)
    per_word = []
    for w in sorted(words):
        q = min(len(cand_pos[w]), len(ref_pos[w]))
        options = []
        for cs in itertools.combinations(cand_pos[w], q):
            for rs in itertools.permutations(ref_pos[w], q):
                options.append(tuple(zip(cs, rs)))
        per_word.append(options)
    best = None
    for combo in itertools.product(*per_word):
        pairs = sorted(pair for group in combo for pair in group)
        chunks = 0
        prev_c = prev_r = -2
        for c, r in pairs:
            if not (c == prev_c + 1 and r == prev_r + 1):
                chunks += 1
            prev_c, prev_r = c, r
        if best is None or chunks < best:
            best = chunks
    return m, best


def alignment_stats_reference(candidate, reference):
    """(matches, min chunks) of the optimal exact-token alignment: the body
    ``textmetrics._alignment_stats`` had before bigram links, which runs the
    memoized search ``min_chunks_search_reference`` on every pair.

    The alignment is one-to-one, maximizes the match count (forced to
    sum of per-word min counts), and among maximal alignments
    minimizes the number of chunks (runs contiguous in both
    sentences). Search is memoized over the candidate positions whose
    word can match; a word is matched only while its quota is open and
    skipped only when a later occurrence can still fill it, so every
    path reaches the quota. It is linear when tokens are distinct and
    worst-case exponential only under heavy token repetition.
    """
    ref_counts = Counter(reference)
    quota = {w: min(count, ref_counts[w])
             for w, count in Counter(candidate).items() if w in ref_counts}
    m = sum(quota.values())
    if m == 0:
        return 0, 0
    return m, min_chunks_search_reference(candidate, reference, quota, m)


def min_chunks_search_reference(candidate, reference, quota, m):
    """Min chunks over alignments that fill every word's ``quota``: the body
    ``textmetrics._min_chunks_search`` had before it searched clashing
    links, memoized over the matchable candidate positions. A word is
    matched only while its quota is open and skipped only when a later
    occurrence can still fill it. Worst-case exponential under heavy
    repetition: 20 tokens of one word take seconds."""
    positions = {w: tuple(j for j, t in enumerate(reference) if t == w)
                 for w in quota}
    # per matchable candidate position: its word's reference positions,
    # their mask and quota, the word's occurrences from here on, and
    # whether the next matchable position is the adjacent one
    steps = []
    left: Counter = Counter()
    after = None
    for i in range(len(candidate) - 1, -1, -1):
        w = candidate[i]
        if w in quota:
            left[w] += 1
            js = positions[w]
            steps.append((js, sum(1 << j for j in js), quota[w], left[w], after == i + 1))
            after = i
    steps.reverse()
    memo: dict[tuple[int, int, int], int] = {}

    def rec(k: int, used: int, extend: int) -> int:
        # min chunks of steps[k:], where reference position ``extend``
        # (-1: none) continues the chunk of the previous match
        if k == len(steps):
            return 0
        key = (k, used, extend)
        cached = memo.get(key)
        if cached is not None:
            return cached
        js, mask, q, occurrences, adjacent = steps[k]
        need = q - (used & mask).bit_count()
        # m + 1 chunks: more than any alignment has, so any match beats it
        best = rec(k + 1, used, -1) if occurrences > need else m + 1
        if need:
            for j in js:
                bit = 1 << j
                if not used & bit:
                    sub = rec(k + 1, used | bit, j + 1 if adjacent else -1) + (j != extend)
                    if sub < best:
                        best = sub
        memo[key] = best
        return best

    return rec(0, 0, -1)


def meteor_reference(items, alpha=0.9, beta=3.0, gamma=0.5, align=alignment_reference):
    scores = []
    for cand, refs in items:
        best = 0.0
        for ref in refs:
            m, chunks = align(cand, ref)
            if m == 0:
                continue
            p = m / len(cand)
            r = m / len(ref)
            f = p * r / (alpha * p + (1.0 - alpha) * r)
            best = max(best, f * (1.0 - gamma * (chunks / m) ** beta))
        scores.append(best)
    return sum(scores) / len(scores)


def cider_d_reference(items, max_n=4, sigma=6.0):
    """Per-item CIDEr-D list: tf-idf n-gram vectors (df over items whose
    references contain the gram, floor 1), clipped cosine per reference,
    Gaussian length penalty, x10, mean over refs then over n."""
    num = len(items)
    df = [dict() for _ in range(max_n)]
    for _, refs in items:
        for n in range(1, max_n + 1):
            seen = set()
            for ref in refs:
                seen.update(_grams(ref, n))
            for g in seen:
                df[n - 1][g] = df[n - 1].get(g, 0) + 1

    def tfidf(tokens, n):
        vec = {}
        for g in _grams(tokens, n):
            vec[g] = vec.get(g, 0) + 1
        return {g: c * math.log(num / max(1, df[n - 1].get(g, 0))) for g, c in vec.items()}

    per_item = []
    for cand, refs in items:
        acc = []
        for n in range(1, max_n + 1):
            w_cand = tfidf(cand, n)
            norm_cand = math.sqrt(sum(v * v for v in w_cand.values()))
            sims = []
            for ref in refs:
                w_ref = tfidf(ref, n)
                norm_ref = math.sqrt(sum(v * v for v in w_ref.values()))
                if norm_cand == 0.0 or norm_ref == 0.0:
                    sims.append(0.0)
                    continue
                overlap = sum(min(v, w_ref[g]) * w_ref[g] for g, v in w_cand.items() if g in w_ref)
                delta = len(cand) - len(ref)
                sims.append(overlap / (norm_cand * norm_ref) * math.exp(-(delta * delta) / (2.0 * sigma * sigma)))
            acc.append(sum(sims) / len(sims))
        per_item.append(10.0 * sum(acc) / max_n)
    return per_item


# ---------------------------------------------------------------------------
# caption metrics over dicts of n-gram tuples: the BLEU and CIDEr-D bodies
# the package replaced with its interned n-gram count tables, kept verbatim
# as bitwise references. ``_grams`` above lists the same n-tuples in the
# same order as the ``zip`` they were written against.


@dataclass(frozen=True)
class NGramCounts:
    """Multiset of the n-grams of one token sequence."""

    n: int
    counts: dict


def ngrams(tokens, n):
    """All contiguous n-tuples with multiplicity; empty if the sequence
    is shorter than n."""
    from audiotext.textmetrics import MetricError

    if n < 1:
        raise MetricError(f"n-gram order must be >= 1, got {n}")
    return NGramCounts(n=n, counts=dict(Counter(_grams(tokens, n))))


def bleu_corpus_reference(eval_set, max_n=4):
    """Corpus-level BLEU_1..BLEU_max_n with clipped counts.

    Matches are clipped at the maximum reference count per n-gram and
    summed over items before the ratio is taken. The brevity penalty
    uses, per item, the reference length closest to the candidate's
    (ties to the shorter); any p_n = 0 zeroes BLEU_k for all k >= n.
    """
    clipped = [0] * max_n
    totals = [0] * max_n
    ref_len_sum = 0
    cand_len_sum = 0
    for item in eval_set.items:
        c = len(item.candidate)
        cand_len_sum += c
        ref_len_sum += min((len(r) for r in item.references),
                           key=lambda length: (abs(length - c), length))
        for n in range(1, min(c, max_n) + 1):
            ref_counts = [Counter(_grams(ref, n)) for ref in item.references]
            clipped[n - 1] += sum(min(count, max(r.get(gram, 0) for r in ref_counts))
                                  for gram, count in Counter(_grams(item.candidate, n)).items())
            totals[n - 1] += c - n + 1
    if cand_len_sum == 0:
        return (0.0,) * max_n
    bp = min(1.0, math.exp(1.0 - ref_len_sum / cand_len_sum))
    precisions = [clipped[i] / totals[i] if totals[i] > 0 else 0.0
                  for i in range(max_n)]
    scores = []
    for k in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k))
    return tuple(scores)


def cider_d_per_item_reference(eval_set, max_n=4, sigma=6.0):
    """CIDEr-D score of each item (the corpus score is their mean).

    Document frequency of an n-gram counts the corpus items whose
    references contain it, floored at 1 so candidate-only n-grams stay
    defined; idf = ln(|I| / df).
    """
    from audiotext.textmetrics import MetricError

    num_items = len(eval_set.items)
    if num_items < 2:
        raise MetricError(f"CIDEr-D needs a corpus of >= 2 items, got {num_items}")
    df: list[Counter] = [Counter() for _ in range(max_n)]
    for item in eval_set.items:
        for n in range(1, max_n + 1):
            df[n - 1].update(set().union(*(_grams(ref, n) for ref in item.references)))
    # idf by document frequency: one log per possible df, and no float
    # object per n-gram (df of an unseen n-gram floored at 1)
    idf = [0.0] + [math.log(num_items / k) for k in range(1, num_items + 1)]

    def weights(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], float]:
        table = df[n - 1]
        return {gram: count * idf[table.get(gram, 1)]
                for gram, count in Counter(_grams(tokens, n)).items()}

    scores = []
    for item in eval_set.items:
        per_n = []
        for n in range(1, max_n + 1):
            w_cand = weights(item.candidate, n)
            norm_cand = math.sqrt(sum(v * v for v in w_cand.values()))
            ref_sims = []
            for ref in item.references:
                w_ref = weights(ref, n)
                norm_ref = math.sqrt(sum(v * v for v in w_ref.values()))
                if norm_cand == 0.0 or norm_ref == 0.0:
                    ref_sims.append(0.0)
                    continue
                overlap = sum(min(v, w_ref[g]) * w_ref[g]
                              for g, v in w_cand.items() if g in w_ref)
                delta = len(item.candidate) - len(ref)
                penalty = math.exp(-(delta * delta) / (2.0 * sigma * sigma))
                ref_sims.append(overlap / (norm_cand * norm_ref) * penalty)
            per_n.append(sum(ref_sims) / len(ref_sims))
        scores.append(10.0 * sum(per_n) / max_n)
    return scores


def ngram_table_reference(grams, n):
    """Order n's (sent, count, df, pair_ref, pair_cand) of an NGramTables
    ``grams``, from its token ids alone by three np.unique calls per order.

    Rows are the distinct (sentence, gram) pairs in first-occurrence order;
    df counts the items whose references hold the row's gram; pair_ref and
    pair_cand join each reference row to its item's candidate row of the
    same gram, ordered by candidate row, then count, then reference row.
    """
    tokens = grams.tokens.astype(np.int64)
    sent_of = np.repeat(np.arange(len(grams.lengths)), grams.lengths)
    ends = np.cumsum(grams.lengths)[sent_of]
    starts, ids, size = np.arange(len(tokens)), tokens, int(tokens.max(initial=0)) + 1
    for k in range(2, n + 1):  # order k's gram ids number (next token, order k-1 id)
        keep = starts + k <= ends[starts]
        starts = starts[keep]
        uniq, ids = np.unique(tokens[starts + k - 1] * size + ids[keep], return_inverse=True)
        size = len(uniq)
    sent = sent_of[starts]
    _, first, inverse, count = np.unique(sent * size + ids, return_index=True,
                                         return_inverse=True, return_counts=True)
    first = np.sort(first)
    sent, gram, count = sent[first], ids[first], count[inverse[first]]
    # (item, gram) groups, each headed by its first row: the candidate's, if any
    keys, head, group = np.unique(grams.item[sent] * size + gram, return_index=True,
                                  return_inverse=True)
    ref = sent >= grams.num_items
    held = np.bincount(group[ref], minlength=len(keys)) > 0  # groups with a reference row
    pair_ref = np.flatnonzero(ref & (sent[head[group]] < grams.num_items))
    pair_cand = head[group[pair_ref]]
    order = np.lexsort((count[pair_ref], pair_cand))
    df = np.bincount(keys[held] % size, minlength=size)[gram]
    return sent, count, df, pair_ref[order], pair_cand[order]


# ---------------------------------------------------------------------------
# retrieval metrics


def ranks_reference(scores, ground_truth):
    """1-based rank of each query's true clip under 'descending score,
    ties by ascending index' -- by counting, not sorting."""
    ranks = []
    for qi, truth in enumerate(ground_truth):
        row = scores[qi]
        s = row[truth]
        better = 0
        for j in range(len(row)):
            if row[j] > s or (row[j] == s and j < truth):
                better += 1
        ranks.append(better + 1)
    return ranks


def retrieval_reference(scores, ground_truth):
    """(R1, R5, R10, mAP10) with each recall cutoff clamped to N."""
    ranks = ranks_reference(scores, ground_truth)
    q = len(ranks)
    n = len(scores[0])

    def recall(k):
        k = min(k, n)
        return sum(1 for r in ranks if r <= k) / q

    ap = np.array([1.0 / r if r <= 10 else 0.0 for r in ranks], dtype=np.float64)
    return recall(1), recall(5), recall(10), float(np.mean(ap))


# ---------------------------------------------------------------------------
# audio tower forward


def encode_audio_reference(frames, config, params):
    """Straight-line forward pass of the audio tower, written from the
    layer equations with explicit loops (convolution included)."""
    p = {name: np.asarray(t.data, dtype=np.float64) for name, t in params.items()}
    x = np.asarray(frames, dtype=np.float64)

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    for i, spec in enumerate(config.audio_tower):
        if spec.kind == "dense":
            w, b = p[f"tower{i}.w"], p[f"tower{i}.b"]
            x = np.array([w @ row + b for row in x])
        elif spec.kind == "conv1d":
            kern, bias = p[f"tower{i}.kernels"], p[f"tower{i}.bias"]
            c_out, c_in, width = kern.shape
            half = (width - 1) // 2
            t_len = x.shape[0]
            y = np.zeros((t_len, c_out))
            for t in range(t_len):
                for o in range(c_out):
                    acc = bias[o]
                    for c in range(c_in):
                        for j in range(width):
                            src = t - half + j
                            if 0 <= src < t_len:
                                acc += kern[o, c, j] * x[src, c]
                    y[t, o] = acc
            x = y
        elif spec.kind == "relu":
            x = np.maximum(x, 0.0)
        elif spec.kind == "tanh_act":
            x = np.tanh(x)
        elif spec.kind == "sigmoid_act":
            x = sigmoid(x)
        elif spec.kind == "max_pool_time":
            stride = spec.pool_stride
            y = []
            for lo in range(0, x.shape[0], stride):
                y.append(x[lo : lo + stride].max(axis=0))
            x = np.array(y)
        elif spec.kind == "mean_pool_time":
            stride = spec.pool_stride
            y = []
            for lo in range(0, x.shape[0], stride):
                y.append(x[lo : lo + stride].mean(axis=0))
            x = np.array(y)
        else:
            raise AssertionError(f"reference does not model {spec.kind!r}")

    if config.recurrent_cell == "gru":
        h = np.zeros(config.embed_dim)
        states = []
        for t in range(x.shape[0]):
            z = sigmoid(p["gru.w_z"] @ x[t] + p["gru.u_z"] @ h + p["gru.b_z"])
            r = sigmoid(p["gru.w_r"] @ x[t] + p["gru.u_r"] @ h + p["gru.b_r"])
            h_tilde = np.tanh(p["gru.w_h"] @ x[t] + p["gru.u_h"] @ (r * h) + p["gru.b_h"])
            h = (1.0 - z) * h + z * h_tilde
            states.append(h)
        x = np.array(states)
    elif config.recurrent_cell == "lstm":
        h = np.zeros(config.embed_dim)
        c = np.zeros(config.embed_dim)
        states = []
        for t in range(x.shape[0]):
            i_g = sigmoid(p["lstm.w_i"] @ x[t] + p["lstm.u_i"] @ h + p["lstm.b_i"])
            f_g = sigmoid(p["lstm.w_f"] @ x[t] + p["lstm.u_f"] @ h + p["lstm.b_f"])
            o_g = sigmoid(p["lstm.w_o"] @ x[t] + p["lstm.u_o"] @ h + p["lstm.b_o"])
            g = np.tanh(p["lstm.w_g"] @ x[t] + p["lstm.u_g"] @ h + p["lstm.b_g"])
            c = f_g * c + i_g * g
            h = o_g * np.tanh(c)
            states.append(h)
        x = np.array(states)

    out = x.sum(axis=0) / x.shape[0]
    if config.projection is not None:
        out = p["proj_audio.w"] @ out + p["proj_audio.b"]
        if config.projection.activation == "relu":
            out = np.maximum(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# recurrent cells, one time step at a time
#
# These are the per-step cells the fused sweeps in audiotext.nnet.layers
# replaced. Parameters are a dict of gate-keyed objects with ``.data`` and
# ``.accumulate(grad)`` (the package's Tensor fits); every step_backward
# accumulates the nine (GRU) or twelve (LSTM) parameter gradients with
# per-step outer products.


def _sigmoid_reference(v):
    return 1.0 / (1.0 + np.exp(-v))


class GRUCellReference:
    """z, r = sigmoid(W x + U h + b); h~ = tanh(Wh x + Uh (r*h) + bh);
    h' = (1-z)*h + z*h~."""

    def __init__(self, p):
        self.p = p

    def step(self, x, h):
        p = self.p
        z = _sigmoid_reference(p["w_z"].data @ x + p["u_z"].data @ h + p["b_z"].data)
        r = _sigmoid_reference(p["w_r"].data @ x + p["u_r"].data @ h + p["b_r"].data)
        rh = r * h
        h_tilde = np.tanh(p["w_h"].data @ x + p["u_h"].data @ rh + p["b_h"].data)
        h_new = (1.0 - z) * h + z * h_tilde
        return h_new, (x, h, z, r, rh, h_tilde)

    def step_backward(self, cache, dh_new):
        """Returns (dx, dh_prev); accumulates parameter gradients."""
        x, h, z, r, rh, h_tilde = cache
        p = self.p
        dz_pre = dh_new * (h_tilde - h) * z * (1.0 - z)
        dht_pre = dh_new * z * (1.0 - h_tilde * h_tilde)
        dh_prev = dh_new * (1.0 - z)
        drh = p["u_h"].data.T @ dht_pre
        dr_pre = drh * h * r * (1.0 - r)
        dh_prev = dh_prev + drh * r
        dh_prev = dh_prev + p["u_z"].data.T @ dz_pre + p["u_r"].data.T @ dr_pre
        dx = p["w_z"].data.T @ dz_pre + p["w_r"].data.T @ dr_pre + p["w_h"].data.T @ dht_pre
        p["w_z"].accumulate(np.outer(dz_pre, x))
        p["u_z"].accumulate(np.outer(dz_pre, h))
        p["b_z"].accumulate(dz_pre)
        p["w_r"].accumulate(np.outer(dr_pre, x))
        p["u_r"].accumulate(np.outer(dr_pre, h))
        p["b_r"].accumulate(dr_pre)
        p["w_h"].accumulate(np.outer(dht_pre, x))
        p["u_h"].accumulate(np.outer(dht_pre, rh))
        p["b_h"].accumulate(dht_pre)
        return dx, dh_prev

    def sweep(self, xs):
        hidden = self.p["b_z"].data.shape[0]
        h = np.zeros(hidden)
        states = np.empty((xs.shape[0], hidden))
        caches = []
        for t in range(xs.shape[0]):
            h, cache = self.step(xs[t], h)
            states[t] = h
            caches.append(cache)
        return states, caches

    def sweep_backward(self, caches, dstates):
        dxs = np.empty((dstates.shape[0], self.p["w_z"].data.shape[1]))
        dh = np.zeros(dstates.shape[1])
        for t in range(dstates.shape[0] - 1, -1, -1):
            dxs[t], dh = self.step_backward(caches[t], dstates[t] + dh)
        return dxs


class LSTMCellReference:
    """i, f, o = sigmoid(W x + U h + b); g = tanh(Wg x + Ug h + bg);
    c' = f*c + i*g; h' = o*tanh(c')."""

    def __init__(self, p):
        self.p = p

    def step(self, x, h, c):
        p = self.p
        i = _sigmoid_reference(p["w_i"].data @ x + p["u_i"].data @ h + p["b_i"].data)
        f = _sigmoid_reference(p["w_f"].data @ x + p["u_f"].data @ h + p["b_f"].data)
        o = _sigmoid_reference(p["w_o"].data @ x + p["u_o"].data @ h + p["b_o"].data)
        g = np.tanh(p["w_g"].data @ x + p["u_g"].data @ h + p["b_g"].data)
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        return (h_new, c_new), (x, h, c, i, f, o, g, tanh_c)

    def step_backward(self, cache, dh_new, dc_new):
        """Returns (dx, dh_prev, dc_prev); accumulates parameter gradients."""
        x, h, c, i, f, o, g, tanh_c = cache
        p = self.p
        do_pre = dh_new * tanh_c * o * (1.0 - o)
        dc = dc_new + dh_new * o * (1.0 - tanh_c * tanh_c)
        di_pre = dc * g * i * (1.0 - i)
        df_pre = dc * c * f * (1.0 - f)
        dg_pre = dc * i * (1.0 - g * g)
        dc_prev = dc * f
        dh_prev = (
            p["u_i"].data.T @ di_pre
            + p["u_f"].data.T @ df_pre
            + p["u_o"].data.T @ do_pre
            + p["u_g"].data.T @ dg_pre
        )
        dx = (
            p["w_i"].data.T @ di_pre
            + p["w_f"].data.T @ df_pre
            + p["w_o"].data.T @ do_pre
            + p["w_g"].data.T @ dg_pre
        )
        for name, dpre in (("i", di_pre), ("f", df_pre), ("o", do_pre), ("g", dg_pre)):
            p[f"w_{name}"].accumulate(np.outer(dpre, x))
            p[f"u_{name}"].accumulate(np.outer(dpre, h))
            p[f"b_{name}"].accumulate(dpre)
        return dx, dh_prev, dc_prev

    def sweep(self, xs):
        hidden = self.p["b_i"].data.shape[0]
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        states = np.empty((xs.shape[0], hidden))
        caches = []
        for t in range(xs.shape[0]):
            (h, c), cache = self.step(xs[t], h, c)
            states[t] = h
            caches.append(cache)
        return states, caches

    def sweep_backward(self, caches, dstates):
        dxs = np.empty((dstates.shape[0], self.p["w_i"].data.shape[1]))
        dh = np.zeros(dstates.shape[1])
        dc = np.zeros(dstates.shape[1])
        for t in range(dstates.shape[0] - 1, -1, -1):
            dxs[t], dh, dc = self.step_backward(caches[t], dstates[t] + dh, dc)
        return dxs


# ---------------------------------------------------------------------------
# recurrent cells on row-major gate buffers
#
# The packed sweeps of audiotext.nnet.layers before they stored their
# pre-activations and gates gate-major: here each packed row holds all of a
# step's gates side by side in one (rows, G*H) buffer, so a gate of a step is
# a strided (n, H) view, and the input projection, dW and the input gradient
# are one product each over all the gates. The gate-major sweeps must match
# these bit for bit in float32. They share the package's row layout
# (Packing), which has tests of its own.


def _sigmoid_row_major(x, out=None):
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _stack_row_major(p, kind, gates):
    return np.concatenate([p[f"{kind}_{gate}"].data for gate in gates])


class _RowMajorCell:
    CHUNK_STEPS = 32

    def __init__(self, p):
        self.p = p

    def _start(self, batch):
        ut = np.ascontiguousarray(_stack_row_major(self.p, "u", self.GATES).T)
        state = [np.zeros((batch, ut.shape[0]), dtype=ut.dtype) for _ in self.STATES]
        return (_stack_row_major(self.p, "w", self.GATES).T, _stack_row_major(self.p, "b", self.GATES),
                np.split(ut, len(self.GATES), axis=1), state)

    def sweep(self, seqs):
        from audiotext.nnet.layers import Packing

        pack = Packing([x.shape[0] for x in seqs])
        xs = pack.gather(seqs)
        w_t, b, uts, state = self._start(len(seqs))
        gates = xs @ w_t
        gates += b
        kept = [np.empty((gates.shape[0], s.shape[1]), dtype=gates.dtype) for s in state]
        for lo, n in pack.steps:
            rows = [s[:n] for s in state]
            self.step(gates[lo : lo + n], *rows, uts)
            for k, r in zip(kept, rows):
                k[lo : lo + n] = r
        return pack.unpack(kept[0]), [pack, xs, *kept, gates]

    def mean_states(self, seqs):
        from audiotext.nnet.layers import Packing

        pad = np.zeros((max(x.shape[0] for x in seqs), seqs[0].shape[1]), dtype=seqs[0].dtype)
        seqs = [pad, *seqs]
        pack = Packing([x.shape[0] for x in seqs])
        w_t, b, uts, state = self._start(len(seqs))
        total = np.zeros(state[0].shape)
        chunk = self.CHUNK_STEPS
        buf = np.empty((pack.offs[min(chunk, len(pack.steps))], b.size), b.dtype)
        for first in range(0, len(pack.steps), chunk):
            stop = min(first + chunk, len(pack.steps))
            base = pack.offs[first]
            pre = np.matmul(pack.gather(seqs, first, stop), w_t,
                            out=buf[: pack.offs[stop] - base])
            pre += b
            for lo, n in pack.steps[first:stop]:
                rows = [s[:n] for s in state]
                self.step(pre[lo - base : lo - base + n], *rows, uts)
                total[:n] += rows[0]
        lengths = np.array([x.shape[0] for x in seqs])
        return (total[pack.rank] / lengths[:, None]).astype(state[0].dtype)[1:]

    def sweep_backward(self, cache, dstates):
        pack, xs, *kept, gates = cache
        cache[-1] = None
        u = _stack_row_major(self.p, "u", self.GATES)
        du = np.zeros_like(u)
        carried = [np.zeros((len(pack.rows), u.shape[1]), dtype=gates.dtype) for _ in kept]
        for stop in range(len(pack.steps), 0, -self.CHUNK_STEPS):
            first = max(stop - self.CHUNK_STEPS, 0)
            base, end = pack.offs[first], pack.offs[stop]
            dpre = gates[base:end]
            coefs, du_blocks = self.chunk_backward(
                dpre, *[s[base:end] for s in kept], *[pack.previous(s, first, stop) for s in kept])
            dst = pack.gather(dstates, first, stop)
            for t in range(stop - 1, first - 1, -1):
                lo, n = pack.steps[t]
                at = slice(lo - base, lo - base + n)
                rows = [c[:n] for c in carried]
                self.step_backward(dpre[at], dst[at] + rows[0], *rows, [c[at] for c in coefs], u)
            for block, prev in du_blocks:
                du[block] += dpre[:, block].T @ prev
        for kind, grad in (("w", gates.T @ xs), ("u", du), ("b", gates.sum(axis=0))):
            for gate, part in zip(self.GATES, np.split(grad, len(self.GATES))):
                self.p[f"{kind}_{gate}"].accumulate(part)
        return pack.unpack(gates @ _stack_row_major(self.p, "w", self.GATES))


class RowMajorGRUCell(_RowMajorCell):
    GATES = ("z", "r", "h")
    STATES = ("h",)

    @staticmethod
    def step(pre, h, uts):
        hidden = h.shape[1]
        ut_z, ut_r, ut_h = uts
        zr, h_tilde = pre[:, : 2 * hidden], pre[:, 2 * hidden :]
        z, r = zr[:, :hidden], zr[:, hidden:]
        z += h @ ut_z
        r += h @ ut_r
        _sigmoid_row_major(zr, out=zr)
        h_tilde += (r * h) @ ut_h
        np.tanh(h_tilde, out=h_tilde)
        h[:] = (1.0 - z) * h + z * h_tilde

    @staticmethod
    def chunk_backward(gates, h, h_prev):
        z, r, h_tilde = np.split(gates, 3, axis=1)
        r = r.copy()
        rh_prev = r * h_prev
        coefs = [(h_tilde - h_prev) * z * (1.0 - z), rh_prev * (1.0 - r),
                 z * (1.0 - h_tilde * h_tilde), 1.0 - z, r]
        zr = slice(0, 2 * z.shape[1])
        return coefs, [(zr, h_prev), (slice(zr.stop, None), rh_prev)]

    @staticmethod
    def step_backward(d, dh_t, dh, coefs, u):
        hidden = dh.shape[1]
        coef_z, coef_r, coef_h, coef_keep, r = coefs
        dz, dr, dht = d[:, :hidden], d[:, hidden : 2 * hidden], d[:, 2 * hidden :]
        np.multiply(dh_t, coef_z, out=dz)
        np.multiply(dh_t, coef_h, out=dht)
        drh = dht @ u[2 * hidden :]
        np.multiply(drh, coef_r, out=dr)
        dh[:] = dh_t * coef_keep + drh * r + dz @ u[:hidden] + dr @ u[hidden : 2 * hidden]


class RowMajorLSTMCell(_RowMajorCell):
    GATES = ("i", "f", "o", "g")
    STATES = ("h", "c")

    @staticmethod
    def step(pre, h, c, uts):
        hidden = h.shape[1]
        for k, ut in enumerate(uts):
            pre[:, k * hidden : (k + 1) * hidden] += h @ ut
        ifo, g = pre[:, : 3 * hidden], pre[:, 3 * hidden :]
        _sigmoid_row_major(ifo, out=ifo)
        np.tanh(g, out=g)
        c[:] = ifo[:, hidden : 2 * hidden] * c + ifo[:, :hidden] * g
        h[:] = ifo[:, 2 * hidden :] * np.tanh(c)

    @staticmethod
    def chunk_backward(gates, h, c, h_prev, c_prev):
        i, f, o, g = np.split(gates, 4, axis=1)
        tanh_c = np.tanh(c)
        coef = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                         tanh_c * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        return [coef, o * (1.0 - tanh_c * tanh_c), f.copy()], [(slice(None), h_prev)]

    @staticmethod
    def step_backward(d, dh_t, dh, dc, coefs, u):
        coef, coef_c, f = coefs
        dc += dh_t * coef_c
        d_gates = d.reshape(coef.shape)
        np.multiply(coef, dc[:, None], out=d_gates)
        np.multiply(coef[:, 2], dh_t, out=d_gates[:, 2])
        dc *= f
        dh[:] = d @ u


# ---------------------------------------------------------------------------
# time pools, one window at a time


def max_pool_time_reference(x, stride):
    """Non-overlapping max windows, partial last window kept; returns
    (pooled, argmax) with argmax the earliest maximal frame per window."""
    t, h = x.shape
    t_out = -(-t // stride)
    y = np.empty((t_out, h))
    argmax = np.empty((t_out, h), dtype=np.int64)
    for w in range(t_out):
        lo = w * stride
        hi = min(lo + stride, t)
        block = x[lo:hi]
        idx = block.argmax(axis=0)
        argmax[w] = lo + idx
        y[w] = block[idx, np.arange(h)]
    return y, argmax


def max_pool_time_backward_reference(shape, argmax, dy):
    dx = np.zeros(shape)
    cols = np.arange(shape[1])
    for w in range(dy.shape[0]):
        dx[argmax[w], cols] += dy[w]
    return dx


def mean_pool_time_reference(x, stride):
    """Non-overlapping window means, each divided by its true length."""
    t = x.shape[0]
    t_out = -(-t // stride)
    y = np.empty((t_out, x.shape[1]))
    for w in range(t_out):
        y[w] = x[w * stride : min((w + 1) * stride, t)].mean(axis=0)
    return y


def mean_pool_time_backward_reference(t, stride, dy):
    dx = np.empty((t, dy.shape[1]))
    for w in range(dy.shape[0]):
        lo = w * stride
        hi = min(lo + stride, t)
        dx[lo:hi] = dy[w] / (hi - lo)
    return dx


# ---------------------------------------------------------------------------
# conv, activation and max-pool layers that cache every intermediate
#
# The forward and backward bodies of audiotext.nnet.layers.Conv1d,
# Activation and MaxPoolTime before their caches kept only what backward
# reads: the conv kept its (T, C_in*k) im2col copy, an activation its input
# and output, the max pool an intp flat index per output. Each forward
# returns (y, cache); each backward returns the input gradient, the conv's
# also its kernel and bias gradients. The conv's forward is also the body
# Conv1d.forward had before it built the im2col matrix transposed.


def conv1d_im2col_reference(x, kernels, bias):
    c_out, c_in, k = kernels.shape
    t = x.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((t + 2 * pad, c_in), dtype=x.dtype)
    xp[pad : pad + t] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, c_in)).reshape(t, k, c_in)
    cols = windows.transpose(0, 2, 1).reshape(t, c_in * k)
    y = cols @ kernels.reshape(c_out, c_in * k).T + bias
    return y, (cols, t, pad)


def conv1d_im2col_backward_reference(cache, kernels, dy):
    cols, t, pad = cache
    c_out, c_in, k = kernels.shape
    dkernels = (dy.T @ cols).reshape(c_out, c_in, k)
    dcols = (dy @ kernels.reshape(c_out, c_in * k)).reshape(t, c_in, k)
    dxp = np.zeros((t + 2 * pad, c_in), dtype=dy.dtype)
    for j in range(k):
        dxp[j : j + t] += dcols[:, :, j]
    return dkernels, dy.sum(axis=0), dxp[pad : pad + t]


def activation_reference(kind, x):
    if kind == "relu":
        y = np.maximum(x, 0.0)
    elif kind == "tanh":
        y = np.tanh(x)
    else:  # sigmoid as 0.5 * (1 + tanh(x/2)), in the package's operation order
        y = np.tanh(x * 0.5)
        y += 1.0
        y *= 0.5
    return y, (x, y)


def activation_backward_reference(kind, cache, dy):
    x, y = cache
    if kind == "relu":
        return dy * (x > 0)
    if kind == "tanh":
        return dy * (1.0 - y * y)
    return dy * y * (1.0 - y)


def max_pool_time_flat_index_reference(x, stride):
    t, h = x.shape
    stride = min(stride, t)
    t_out = -(-t // stride)
    padded = np.full((t_out * stride, h), -np.inf, dtype=x.dtype)
    padded[:t] = x
    windows = padded.reshape(t_out, stride, h)
    y = windows[:, 0].copy()
    idx = np.zeros((t_out, h), dtype=np.intp)
    for j in range(1, stride):
        idx[windows[:, j] > y] = j
        np.maximum(y, windows[:, j], out=y)
    argmax = idx + stride * np.arange(t_out)[:, None]
    return y, (x.shape, argmax)


def max_pool_time_flat_index_backward_reference(cache, dy):
    shape, argmax = cache
    dx = np.zeros(shape, dtype=dy.dtype)
    dx[argmax, np.arange(shape[1])] = dy
    return dx


# ---------------------------------------------------------------------------
# the projection head as one body
#
# audiotext.nnet.layers.Projection before it ran Dense and Activation("relu")
# through the layer walk: an affine map and its own relu on one vector. Its
# weight and bias gradients are those of Dense.backward's former vector
# branch: np.outer(dy, x), and dy itself.


def projection_reference(w, b, activation_kind, v):
    pre = v @ w.T + b
    out = np.maximum(pre, 0.0) if activation_kind == "relu" else pre
    return out, (v, pre)


def projection_backward_reference(w, activation_kind, cache, dout):
    """(dW, db, dv) of projection_reference."""
    v, pre = cache
    if activation_kind == "relu":
        dout = dout * (pre > 0)
    return np.outer(dout, v), dout, dout @ w


# ---------------------------------------------------------------------------
# one training batch, one tower pass per pair
#
# The batch step `audiotext.optim._batch_step` replaced: every (clip,
# caption) pair runs the tower forward and backward on its own, so a clip
# used by k pairs is encoded and back-propagated k times. The loss loop,
# its imposter draws and its scorers are the package's own.


def batch_step_reference(batch, features, tower, embedder, config, rng):
    from audiotext.losses import (
        bce_match_grad,
        bce_match_loss,
        dot_score,
        exp_neg_euclid,
        exp_neg_euclid_backward,
        sample_imposters,
        triplet_margin_grads,
        triplet_margin_loss,
    )

    size = len(batch)
    audio = [tower.forward(features[name].frames) for name, _ in batch]
    texts = [embedder.embed(record) for _, record in batch]
    keyed = [(name, record.key) for name, record in batch]
    d_audio = [np.zeros_like(emb) for emb, _ in audio]
    d_text = [np.zeros_like(emb) for emb, _ in texts]
    total = 0.0
    for i in range(size):
        text_imp, audio_imp = sample_imposters(keyed, i, rng)
        a_i = audio[i][0]
        t_i = texts[i][0]
        t_neg = texts[text_imp][0]
        if config.loss == "triplet":
            a_neg = audio[audio_imp][0]
            s_pos = dot_score(a_i, t_i)
            s_neg_text = dot_score(a_i, t_neg)
            s_neg_audio = dot_score(a_neg, t_i)
            total += triplet_margin_loss(s_pos, s_neg_text, s_neg_audio, config.margin)
            d_pos, d_ntext, d_naudio = triplet_margin_grads(
                s_pos, s_neg_text, s_neg_audio, config.margin)
            d_audio[i] += d_pos * t_i + d_ntext * t_neg
            d_text[i] += d_pos * a_i + d_naudio * a_neg
            d_audio[audio_imp] += d_naudio * t_i
            d_text[text_imp] += d_ntext * a_i
        else:
            d_match = exp_neg_euclid(a_i, t_i)
            total += bce_match_loss(d_match, True)
            ga, gt = exp_neg_euclid_backward(a_i, t_i, d_match, bce_match_grad(d_match, True))
            d_audio[i] += ga
            d_text[i] += gt
            d_nomatch = exp_neg_euclid(a_i, t_neg)
            total += bce_match_loss(d_nomatch, False)
            ga, gt = exp_neg_euclid_backward(a_i, t_neg, d_nomatch,
                                             bce_match_grad(d_nomatch, False))
            d_audio[i] += ga
            d_text[text_imp] += gt
    scale = 1.0 / size
    for i in range(size):
        tower.backward(audio[i][1], (d_audio[i] * scale).astype(audio[i][0].dtype))
        embedder.backward(texts[i][1], d_text[i] * scale)
    return total * scale


# ---------------------------------------------------------------------------
# word-vector text table, one float() per value


def load_word_embeddings_reference(path):
    """The line-at-a-time loader `audiotext.corpus.load_word_embeddings`
    replaced; returns (dim, {word: float32 vector}) and raises the
    package's CorpusError with the same messages."""
    from audiotext.corpus import CorpusError

    entries = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise CorpusError(f"{path}: header must be 'count dim', got {header!r}")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise CorpusError(f"{path}: non-integer header {header!r}") from None
        if count < 0 or dim < 1:
            raise CorpusError(f"{path}: invalid header count={count} dim={dim}")
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if word in entries:
                raise CorpusError(f"{path}: line {line_no}: duplicate word {word!r}")
            if len(parts) - 1 != dim:
                raise CorpusError(
                    f"{path}: line {line_no}: {len(parts) - 1} values, expected dim {dim}")
            try:
                with np.errstate(over="ignore"):
                    vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError:
                raise CorpusError(f"{path}: line {line_no}: non-numeric value") from None
            if not np.isfinite(vec).all():  # nan, inf, or beyond float32 range
                raise CorpusError(f"{path}: line {line_no}: non-finite value")
            entries[word] = vec
    if len(entries) != count:
        raise CorpusError(f"{path}: header declares {count} words, found {len(entries)}")
    return dim, entries


# ---------------------------------------------------------------------------
# caption text, one character at a time


def normalize_caption_reference(raw):
    """The rule `audiotext.corpus.normalize_caption` implements: lowercase,
    replace every char outside [a-z0-9'] with a space, split on whitespace."""
    token_chars = set("abcdefghijklmnopqrstuvwxyz0123456789'")
    return "".join(ch if ch in token_chars else " " for ch in raw.lower()).split()


# ---------------------------------------------------------------------------
# audio frontend, whole clip at once


def decode_pcm16_reference(payload, channels):
    """The decode `audiotext.dsp.read_wav` replaced: 16-bit little-endian
    PCM to float64 s/32768, stereo averaged with a per-frame mean."""
    raw = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return raw


def mel_filterbank_reference(sample_rate, n_fft, n_mels, f_min, f_max):
    """The band-by-band loop `audiotext.dsp.mel_filterbank` replaced, on the
    HTK mel scale: the (n_mels, n_fft // 2 + 1) weights, or the index of the
    first band with no positive weight."""
    mel_lo, mel_hi = (2595.0 * np.log10(1.0 + np.float64(f) / 700.0) for f in (f_min, f_max))
    hz = 700.0 * (np.power(10.0, np.linspace(mel_lo, mel_hi, n_mels + 2) / 2595.0) - 1.0)
    bin_freqs = np.arange(n_fft // 2 + 1, dtype=np.float64) * sample_rate / n_fft
    weights = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        rising = (bin_freqs - hz[m]) / (hz[m + 1] - hz[m])
        falling = (hz[m + 2] - bin_freqs) / (hz[m + 2] - hz[m + 1])
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not (weights[m] > 0).any():
            return m
    return weights


def log_mel_reference(samples, sample_rate, weights, win_ms=40.0, hop_ms=20.0):
    """The body `audiotext.dsp.log_mel_features` replaced: every frame
    windowed and transformed in one call. ``weights`` is the
    (n_mels, n_fft // 2 + 1) filterbank; returns float32 log(mel + 1e-10)."""
    win = int(round(sample_rate * win_ms / 1000.0))
    hop = int(round(sample_rate * hop_ms / 1000.0))
    n_fft = 2 * (weights.shape[1] - 1)
    t_frames = (len(samples) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop][:t_frames]
    spectrum = np.fft.rfft(frames * np.hanning(win), n=n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel = power @ weights.T
    return np.log(mel + 1e-10).astype(np.float32)


# ---------------------------------------------------------------------------
# random numbers, one draw at a time


def uniform_reference(gen):
    """The scalar draw ``SplitMix64.uniform`` made before ``uniform_array``
    was the only one: a float64 in [0, 1) from the top 53 bits of the
    generator's next output."""
    return (gen.next_u64() >> 11) * (2.0**-53)
