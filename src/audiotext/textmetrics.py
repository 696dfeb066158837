"""Caption evaluation metrics: BLEU, ROUGE-L, METEOR-lite, CIDEr-D, SPIDEr.

The conventions follow the MS COCO caption evaluation stack: corpus
BLEU with a closest-reference brevity penalty, ROUGE-L with beta=1.2
and max over references, CIDEr-D with sigma=6 and a x10 scale, SPIDEr
as the SPICE/CIDEr mean (SPICE values are ingested from a file, never
computed). METEOR here matches exact tokens only, with no stemming or
synonym resources, so its absolute values are not comparable to
METEOR scores produced with the full linguistic tables.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, count
from operator import or_
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import load_captions, normalize_caption, open_text, parse_json

_CANDIDATE_HEADER = ["file_name", "caption"]


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class CaptionEvalItem:
    key: str
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.references:
            raise MetricError(f"item {self.key!r} has no references")


@dataclass(frozen=True)
class CaptionEvalSet:
    items: tuple[CaptionEvalItem, ...]

    def __post_init__(self):
        if not self.items:
            raise MetricError("evaluation set is empty")

    def keys(self) -> tuple[str, ...]:
        return tuple(item.key for item in self.items)

    @cached_property
    def grams(self) -> NGramTables:
        """The n-gram tables of BLEU, CIDEr-D and METEOR-lite, kept by this set alone."""
        return NGramTables(self.items)


# One n-gram order of an eval set. Rows (sentence, count, df) run sentence by
# sentence, first occurrence first within one; df counts the items whose
# references hold the row's gram. pair_ref/pair_cand join each reference row
# to its item's candidate row of the same gram, by candidate row, then count.
# pos holds each row's count starts in ``tokens``, ascending, row after row.
GramTable = namedtuple("GramTable", "sent count df pair_ref pair_cand pos")


class NGramTables:
    """An eval set's sentences as interned token ids: sentence i is item i's candidate, then
    come each item's references, whose lengths are ``cand_len`` and ``ref_len``. Order n's
    table is built once, on first use, by one sort of order n-1's gram starts. Token ids follow
    first occurrence; no float sum runs in gram order."""

    def __init__(self, items: Sequence[CaptionEvalItem]):
        sentences = [i.candidate for i in items] + [r for i in items for r in i.references]
        vocab = defaultdict(count().__next__)  # a new token takes the next id
        self.lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        self.tokens = np.fromiter(map(vocab.__getitem__, chain.from_iterable(sentences)),
                                  np.int32, int(self.lengths.sum()))
        self.num_items = len(items)
        self.cand_len, self.ref_len = np.split(self.lengths, [len(items)])
        self.ref_item = np.repeat(np.arange(len(items)), [len(i.references) for i in items])
        self.first_ref = np.flatnonzero(np.diff(self.ref_item, prepend=-1))
        self.tables: list[GramTable] = []
        self.item = np.concatenate([np.arange(len(items)), self.ref_item])
        # order 0: every position starts one empty gram; they run item by item,
        # each item's candidate first, and every sort keeps that within a gram
        self._ends, by_item = np.cumsum(self.lengths), np.argsort(self.item, kind="stable")
        lens, self._seq = self.lengths[by_item], np.arange(len(self.tokens), dtype=np.int32)
        self._seq += np.repeat(self._ends[by_item] - np.cumsum(lens), lens)  # int32, as pos
        self._sent, self._gram = np.repeat(by_item, lens), np.zeros(len(self.tokens), np.int32)

    def table(self, n: int) -> GramTable:
        while len(self.tables) < n:
            self.tables.append(self._build(len(self.tables) + 1))
        return self.tables[n - 1]

    def _build(self, n: int) -> GramTable:
        keep = np.flatnonzero(self._seq < (self._ends - (n - 1))[self._sent])  # n tokens fit
        seq, sent, gram = self._seq[keep], self._sent[keep], self._gram[keep]
        # sorted by (n-th token, place in the order n-1 sort); this key and the pair key
        # below stay under 2^62 for fewer than 2^31 token positions
        bits = len(seq).bit_length()
        key = np.left_shift(self.tokens[n - 1:][seq], bits, dtype=np.int64) | np.arange(len(seq))
        key.sort()
        place, key = key & ((1 << bits) - 1), key >> bits
        seq, sent, split = seq[place], sent[place], _changes(key) | _changes(gram[place])
        self._seq, self._sent, self._gram = seq, sent, np.cumsum(split, dtype=np.int32)
        del keep, key, place, gram  # freed before the table is built: a lower peak
        row = np.flatnonzero(split | _changes(sent))  # (gram, sentence) runs
        counts, sent, gram = np.diff(np.append(row, len(seq))), sent[row], self._gram[row]
        # rows by first occurrence: a scatter over the positions, not a sort
        at = np.full(len(self.tokens), -1)
        at[seq[row]] = np.arange(len(row))
        final = at[np.flatnonzero(at >= 0)]
        del at  # freed before the positions are gathered: a lower peak
        rank, runs = np.empty_like(final), counts[final]
        rank[final] = np.arange(len(row))
        pos = seq[np.repeat(row[final] - np.cumsum(runs) + runs, runs) + np.arange(len(seq))]
        # (item, gram) runs of rows, each headed by its candidate's row, if any;
        # an item's first reference row of a gram counts once towards its df
        cand = sent < self.num_items
        group = split[row] | _changes(self.item[sent])
        counted = np.flatnonzero(~cand & (group | np.roll(cand, 1)))
        df = np.bincount(gram[counted], minlength=len(seq) + 1)[gram]
        # pairs by candidate row (first occurrence), then count, then reference row
        lead = final[:np.count_nonzero(cand)]  # candidates' rows come first
        size = np.diff(np.append(np.flatnonzero(group), len(row)))
        k = size[np.cumsum(group, dtype=np.int32)[lead] - 1] - 1  # the rest of each group
        pair = np.repeat(lead + 1 + k - np.cumsum(k), k) + np.arange(k.sum())
        pair_cand = np.repeat(np.arange(len(lead)), k)
        order = np.argsort(pair_cand * (len(seq) + 1) + counts[pair], kind="stable")
        return GramTable(sent[final], runs, df[final], rank[pair[order]], pair_cand[order], pos)


def _changes(a: np.ndarray) -> np.ndarray:
    """True at each element of ``a`` that differs from the one before, and at the first."""
    return np.append(True, a[1:] != a[:-1])[:len(a)]


@dataclass(frozen=True)
class CorpusScores:
    bleu: tuple[float, ...]
    rouge_l: float
    meteor: float
    cider: float
    spice: Optional[float] = None
    spider: Optional[float] = None

    def to_json(self) -> str:
        parts = [f'"BLEU_{k + 1}":{v:.4f}' for k, v in enumerate(self.bleu)]
        parts.append(f'"ROUGE_L":{self.rouge_l:.4f}')
        parts.append(f'"METEOR":{self.meteor:.4f}')
        parts.append(f'"CIDEr":{self.cider:.4f}')
        if self.spice is not None:
            parts.append(f'"SPICE":{self.spice:.4f}')
        if self.spider is not None:
            parts.append(f'"SPIDEr":{self.spider:.4f}')
        return "{" + ",".join(parts) + "}"


def bleu_corpus(eval_set: CaptionEvalSet, max_n: int = 4) -> tuple[float, ...]:
    """Corpus-level BLEU_1..BLEU_max_n with clipped counts.

    Matches are clipped at the maximum reference count per n-gram and
    summed over items before the ratio is taken. The brevity penalty
    uses, per item, the reference length closest to the candidate's
    (ties to the shorter); any p_n = 0 zeroes BLEU_k for all k >= n.
    """
    grams = eval_set.grams
    cand_len, ref_len = grams.cand_len, grams.ref_len
    cand_len_sum = int(cand_len.sum())
    if cand_len_sum == 0:
        return (0.0,) * max_n
    # per item, the least (distance to the candidate's length, length) of its references
    width = int(ref_len.max()) + 1
    closest = np.minimum.reduceat(np.abs(ref_len - cand_len[grams.ref_item]) * width + ref_len,
                                  grams.first_ref)
    ref_len_sum = int((closest % width).sum())
    precisions = []
    for n in range(1, max_n + 1):
        t = grams.table(n)
        # the last pair of a candidate row holds its largest reference count
        last = np.diff(t.pair_cand, append=-1) != 0
        clipped = int(np.minimum(t.count[t.pair_cand[last]], t.count[t.pair_ref[last]]).sum())
        total = int(np.maximum(cand_len - (n - 1), 0).sum())
        precisions.append(clipped / total if total > 0 else 0.0)
    bp = min(1.0, math.exp(1.0 - ref_len_sum / cand_len_sum))
    return tuple(0.0 if 0.0 in precisions[:k] else
                 bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k)
                 for k in range(1, max_n + 1))


def _lcs_lengths(grams: NGramTables) -> np.ndarray:
    """The LCS length of every (candidate, reference) pair, in reference
    order, by the bit-parallel LCS (Allison & Dix 1986; Hyyro 2004) on all
    pairs at once. Pairs with ceil(L/64) uint64 words per lane (L the
    reference length, at least one word) run together, longest candidate
    first."""
    starts, first_ref = np.cumsum(grams.lengths) - grams.lengths, grams.num_items
    ref_len, cand = grams.ref_len, grams.ref_item
    cand_len = grams.cand_len[cand]
    pad = int(grams.tokens.max(initial=-1)) + 1  # matches no token
    ids = np.append(grams.tokens, pad).astype(np.min_scalar_type(pad))
    words = np.maximum(-(-ref_len // 64), 1)
    lcs = np.zeros(len(ref_len), np.int64)
    for w in np.unique(words).tolist():
        pairs = np.flatnonzero(words == w)
        pairs = pairs[np.argsort(-cand_len[pairs], kind="stable")]
        lcs[pairs] = _lcs_lanes(ids, starts[first_ref + pairs], ref_len[pairs],
                                starts[cand[pairs]], cand_len[pairs], w)
    return lcs


def _lcs_lanes(ids: np.ndarray, ref_start: np.ndarray, ref_len: np.ndarray,
               cand_start: np.ndarray, cand_len: np.ndarray, words: int) -> np.ndarray:
    """LCS lengths of pairs sorted by candidate length, longest first, each
    a lane of ``words`` uint64 words; ``ids[-1]`` pads the references. Bit j
    of a lane is 0 where the LCS row steps up at reference token j. Each
    candidate token is one add, carried from word to word, over the lanes
    of the pairs whose candidates are that long: v = (v + u) | (v - u) with
    u = v & matches, where v - u = v ^ u as u holds only bits of v."""
    n, bits = len(ref_len), 64 * words
    inside = np.arange(bits) < ref_len[:, None]
    refs = np.full((n, bits), ids[-1])
    refs[inside] = ids[(ref_start[:, None] + np.arange(bits))[inside]]
    full = np.packbits(inside, bitorder="little").view("<u8").reshape(n, words)
    v = full.copy()
    for t in range(int(cand_len[0]) if n else 0):
        k = int(np.count_nonzero(cand_len > t))
        matches = refs[:k] == ids[cand_start[:k] + t, None]
        matches = np.packbits(matches, bitorder="little").view("<u8").reshape(k, words)
        carry = np.zeros(k, bool)
        for w in range(words):
            lane, u = v[:k, w], v[:k, w] & matches[:, w]
            total = lane + u
            over = total < u
            total += carry
            carry = over | (carry & (total == 0))
            v[:k, w] = (total | (lane ^ u)) & full[:k, w]
    return ref_len - np.unpackbits(v.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)


def rouge_l(eval_set: CaptionEvalSet, beta: float = 1.2) -> float:
    """Mean over items of the LCS F-measure with beta=1.2: the max precision
    and the max recall over an item's references are taken independently,
    an empty reference giving no recall; an empty candidate scores 0.0."""
    grams = eval_set.grams
    lcs = _lcs_lengths(grams)
    cand_len, ref_len = grams.cand_len, grams.ref_len
    p_max = np.divide(np.maximum.reduceat(lcs, grams.first_ref), cand_len,
                      out=np.zeros(len(cand_len)), where=cand_len > 0)
    recall = np.divide(lcs, ref_len, out=np.zeros(len(lcs)), where=ref_len > 0)
    r_max = np.maximum.reduceat(recall, grams.first_ref)
    denom = r_max + beta * beta * p_max
    scores = np.divide((1.0 + beta * beta) * p_max * r_max, denom,
                       out=np.zeros(len(denom)), where=denom != 0.0)
    return sum(scores.tolist()) / len(eval_set.items)


def _alignment_stats(grams: NGramTables) -> tuple[np.ndarray, np.ndarray]:
    """(matches m, min chunks) of each pair, in reference order, of the optimal
    exact-token alignment: one to one, m the sum of per-word min counts (the
    unigram join), then fewest chunks (runs contiguous in both sentences).
    Chunks are m minus links (candidate i, i+1 on reference j, j+1: a bigram
    join's positions crossed); as a word's quota is the min of its counts,
    any one-to-one partial alignment extends to m matches keeping its links,
    so min chunks = m - L, L the most links one alignment holds: all unless
    two clash (touch a position from two diagonals), when L comes from
    ``_min_chunks_search``."""
    ones, twos, refs = grams.table(1), grams.table(2), grams.num_items
    shared = np.minimum(ones.count[ones.pair_cand], ones.count[ones.pair_ref])
    m = np.bincount(ones.sent[ones.pair_ref], shared, len(grams.item))[refs:].astype(np.int64)
    # the links, pair by pair: a reference row joins one candidate row at most
    cand, ref = twos.pair_cand[np.argsort(twos.pair_ref)], np.sort(twos.pair_ref)
    start, size = np.cumsum(twos.count) - twos.count, twos.count[cand] * twos.count[ref]
    c, r, width, pair = (np.repeat(a, size) for a in
                         (start[cand], start[ref], twos.count[ref], twos.sent[ref] - refs))
    k = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
    i, j = twos.pos[c + k // width], twos.pos[r + k % width]
    # i, i+1, j and j+1 touched from each link's diagonal, keyed by pair; the
    # positions index ``tokens``, so a candidate's never equal a reference's
    links, n, diagonal = np.bincount(pair, minlength=len(m)), len(grams.tokens), np.tile(i - j, 4)
    touched = np.concatenate([i, i + 1, j, j + 1]) + np.tile(pair * n, 4)
    by = np.lexsort((diagonal, touched))
    clash = (np.diff(touched[by]) == 0) & (np.diff(diagonal[by]) != 0)
    chunks, ends = m - links, np.cumsum(links)
    for p in np.unique(touched[by][1:][clash] // n).tolist():
        at = slice(ends[p] - links[p], ends[p])
        chunks[p] = _min_chunks_search(list(zip(i[at].tolist(), j[at].tolist())), int(m[p]))
    return m, chunks


def _bits(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _min_chunks_search(links: list[tuple[int, int]], m: int) -> int:
    """m - L for a pair whose ``links`` clash, L the largest set of links no
    two of which clash: on one diagonal (equal i - j) links never clash, on
    two they clash by sharing a candidate or reference position. Each
    connected group of clashing links gets a branch and bound from a greedy
    set taken diagonal by diagonal, fullest first; a branch takes one link
    of the first free candidate start, or none. Links sharing a start all
    clash, so free links add at most min(distinct candidate starts, distinct
    reference starts), and when one diagonal already holds that many links
    it is the answer, found before any mask is built: a pair of one word
    repeated costs no search. The masks by position and by diagonal hold
    positions x links bits; a link's clash mask is built each time it is
    read, as one held per link would take links^2. Fewest chunks is minimum
    common string partition, NP-hard (Goldstein, Kilman & Zheng 2005): the
    worst case is exponential, e.g. on ``aab...`` against ``aba...``, whose
    fullest diagonal falls one link short of the bound (398 of 399 at 400
    tokens)."""
    fullest = max(Counter(i - j for i, j in links).values())
    if fullest == min(len({i for i, _ in links}), len({j for _, j in links})):
        return m - fullest
    links = sorted(links)  # bit k of a mask is links[k]
    at_i, at_j, on_diagonal = {}, {}, {}  # masks of the links by i, by j, by i - j
    for k, (i, j) in enumerate(links):
        for groups, key in ((at_i, i), (at_j, j), (on_diagonal, i - j)):
            groups[key] = groups.get(key, 0) | 1 << k

    def clash(k: int) -> int:
        i, j = links[k]
        return (at_i.get(i - 1, 0) | at_i[i] | at_i.get(i + 1, 0) | at_j.get(j - 1, 0)
                | at_j[j] | at_j.get(j + 1, 0)) & ~on_diagonal[i - j]

    def most(free: int, size: int, best: int) -> int:
        # the larger of ``best`` and ``size`` plus the most links of ``free``
        bound = size + min(sum(bool(free & g) for g in at_i.values()),
                           sum(bool(free & g) for g in at_j.values()))
        if bound <= best or not free:  # without free links, bound == size
            return max(bound, best)
        group = at_i[links[(free & -free).bit_length() - 1][0]] & free
        for k in _bits(group):
            best = most(free & ~clash(k) & ~group, size + 1, best)
        return most(free & ~group, size, best)

    total, rest = 0, (1 << len(links)) - 1
    while rest:
        component = grow = rest & -rest
        while grow:  # the links that clash with one added last
            grow = reduce(or_, map(clash, _bits(grow))) & ~component
            component |= grow
        rest &= ~component
        seed = 0
        for d in sorted(on_diagonal, key=lambda d: (-(on_diagonal[d] & component).bit_count(), d)):
            for k in _bits(on_diagonal[d] & component):
                seed |= 0 if seed & clash(k) else 1 << k
        total += most(component, 0, seed.bit_count())
    return m - total


def meteor_lite(eval_set: CaptionEvalSet, alpha: float = 0.9, beta: float = 3.0,
                gamma: float = 0.5) -> float:
    """Mean over items of the best exact-match METEOR over each candidate's
    references. ``_alignment_stats`` reads each pair's matches and fewest
    chunks from the joins of ``eval_set.grams``; a pair sharing no bigram has
    m chunks, so the penalty gamma. Only the penalty of a linked pair runs
    per pair; the rest runs on arrays over all pairs."""
    grams = eval_set.grams
    m, chunks = _alignment_stats(grams)
    # an unlinked pair has m chunks, so the penalty gamma; a linked pair's power
    # runs on a scalar, as an array np.power may round otherwise
    penalty, linked = np.full(len(m), gamma), np.flatnonzero(chunks < m)
    penalty[linked] = [gamma * (c / k) ** beta
                       for c, k in zip(chunks[linked].tolist(), m[linked].tolist())]
    scored = np.flatnonzero(m)
    precision = m[scored] / grams.cand_len[grams.ref_item[scored]]
    recall = m[scored] / grams.ref_len[scored]
    f_mean = precision * recall / (alpha * precision + (1.0 - alpha) * recall)
    score = np.zeros(len(m))
    score[scored] = f_mean * (1.0 - penalty[scored])
    best = np.maximum(np.maximum.reduceat(score, grams.first_ref), 0.0)
    return sum(best.tolist()) / len(best)


def cider_d_per_item(eval_set: CaptionEvalSet, max_n: int = 4,
                     sigma: float = 6.0) -> list[float]:
    """CIDEr-D score of each item (the corpus score is their mean).

    Document frequency of an n-gram counts the corpus items whose
    references contain it, floored at 1 so candidate-only n-grams stay
    defined; idf = ln(|I| / df).
    """
    num_items = len(eval_set.items)
    if num_items < 2:
        raise MetricError(f"CIDEr-D needs a corpus of >= 2 items, got {num_items}")
    grams = eval_set.grams
    idf = np.array([0.0] + [math.log(num_items / k) for k in range(1, num_items + 1)])
    penalty = np.array([math.exp(-(d * d) / (2.0 * sigma * sigma))
                        for d in (grams.cand_len[grams.ref_item] - grams.ref_len).tolist()])
    num_refs = np.bincount(grams.ref_item)
    per_item = 0.0
    for n in range(1, max_n + 1):
        t = grams.table(n)
        w = t.count * idf[np.maximum(t.df, 1)]
        # sums run in each sentence's first-occurrence order, as over a dict
        norm = np.sqrt(np.bincount(t.sent, weights=w * w, minlength=len(grams.item)))
        overlap = np.bincount(t.sent[t.pair_ref], minlength=len(grams.item),
                              weights=np.minimum(w[t.pair_cand], w[t.pair_ref]) * w[t.pair_ref])
        norm_cand, norm_ref = norm[grams.ref_item], norm[num_items:]
        # a zero norm scores 0.0: 0.0 overlap over an infinite denominator
        denom = np.where((norm_cand == 0.0) | (norm_ref == 0.0), np.inf, norm_cand * norm_ref)
        sims = overlap[num_items:] / denom * penalty
        per_item = per_item + np.bincount(grams.ref_item, weights=sims) / num_refs
    return (10.0 * per_item / max_n).tolist()


def cider_d(eval_set: CaptionEvalSet, max_n: int = 4, sigma: float = 6.0) -> float:
    per_item = cider_d_per_item(eval_set, max_n=max_n, sigma=sigma)
    return sum(per_item) / len(per_item)


def load_spice_file(path) -> dict[str, float]:
    """JSON object mapping item keys to SPICE values in [0,1]."""
    with open_text(path, MetricError) as f:
        raw = parse_json(f.read(), path, MetricError, "not valid structured text")
    if not isinstance(raw, dict):
        raise MetricError(f"{path}: expected an object of key -> SPICE value")
    out = {}
    for key, value in raw.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0):
            raise MetricError(f"{path}: SPICE value for {key!r} outside [0,1]: {value!r}")
        out[str(key)] = float(value)
    return out


def check_spice_coverage(spice_values: Mapping[str, float], item_keys: Sequence[str]) -> None:
    """Raise MetricError unless every scored key has a SPICE value."""
    missing = [k for k in item_keys if k not in spice_values]
    if missing:
        raise MetricError(f"SPICE values missing for items: {missing}")


def spider_combine(cider: float, spice_values: Optional[Mapping[str, float]],
                   item_keys: Sequence[str]) -> tuple[Optional[float], Optional[float]]:
    """(SPICE, SPIDEr) for the scored items; (None, None) without SPICE data.

    SPICE is the mean of the supplied per-item values over the scored
    keys; SPIDEr = (SPICE + CIDEr) / 2.
    """
    if spice_values is None:
        return None, None
    check_spice_coverage(spice_values, item_keys)
    spice = sum(spice_values[k] for k in item_keys) / len(item_keys)
    return spice, (spice + cider) / 2.0


def load_candidates(path) -> dict[str, tuple[str, ...]]:
    """Candidate caption CSV: header `file_name,caption`, one row per clip.

    Captions are normalized exactly like references; a caption that
    normalizes to nothing is kept as an empty candidate (it scores 0,
    it does not crash).
    """
    with open_text(path, MetricError, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise MetricError(f"{path}: empty file")
        if header != _CANDIDATE_HEADER:
            raise MetricError(f"{path}: bad header {header!r}, want {_CANDIDATE_HEADER!r}")
        out: dict[str, tuple[str, ...]] = {}
        for row_num, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise MetricError(f"{path} row {row_num}: expected 2 columns, got {len(row)}")
            file_name, caption = row
            if not file_name:
                raise MetricError(f"{path} row {row_num}: empty file_name")
            if file_name in out:
                raise MetricError(f"{path} row {row_num}: duplicate file_name {file_name!r}")
            out[file_name] = tuple(normalize_caption(caption))
    if not out:
        raise MetricError(f"{path}: no candidate rows")
    return out


def build_eval_set(candidates: Mapping[str, Sequence[str]],
                   references: Mapping[str, Sequence[Sequence[str]]]) -> CaptionEvalSet:
    """Join candidates to references by file_name; both must cover the
    same clip set. Items are ordered by byte-wise key order."""
    unknown = sorted(set(candidates) - set(references))
    if unknown:
        raise MetricError(f"candidates for unknown file_names: {unknown}")
    missing = sorted(set(references) - set(candidates))
    if missing:
        raise MetricError(f"missing candidates for file_names: {missing}")
    items = tuple(
        CaptionEvalItem(key=key,
                        candidate=tuple(candidates[key]),
                        references=tuple(tuple(r) for r in references[key]))
        for key in sorted(references))
    return CaptionEvalSet(items=items)


def evaluate_captions(candidates_csv, references_csv,
                      spice_file=None) -> CorpusScores:
    """Score a candidate CSV against a reference CSV; all metrics at once."""
    candidates = load_candidates(candidates_csv)
    records = load_captions(references_csv)
    references: dict[str, list[tuple[str, ...]]] = {}
    for record in records:
        references.setdefault(record.file_name, []).append(record.tokens)
    eval_set = build_eval_set(candidates, references)
    spice_values = None
    if spice_file is not None:
        spice_values = load_spice_file(spice_file)
        check_spice_coverage(spice_values, eval_set.keys())
    bleu = bleu_corpus(eval_set)
    cider = cider_d(eval_set)
    spice, spider = spider_combine(cider, spice_values, eval_set.keys())
    return CorpusScores(
        bleu=bleu,
        rouge_l=rouge_l(eval_set),
        meteor=meteor_lite(eval_set),
        cider=cider,
        spice=spice,
        spider=spider,
    )
