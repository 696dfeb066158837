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


def meteor_reference(items, alpha=0.9, beta=3.0, gamma=0.5):
    scores = []
    for cand, refs in items:
        best = 0.0
        for ref in refs:
            m, chunks = alignment_reference(cand, ref)
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
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError:
                raise CorpusError(f"{path}: line {line_no}: non-numeric value") from None
            entries[word] = vec
    if len(entries) != count:
        raise CorpusError(f"{path}: header declares {count} words, found {len(entries)}")
    return dim, entries
