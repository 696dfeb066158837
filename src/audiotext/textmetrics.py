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
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
        """The n-gram tables of BLEU and CIDEr-D, kept by this set alone."""
        return NGramTables(self.items)


# One n-gram order of an eval set. Rows (sentence, count, df) run sentence by
# sentence, first occurrence first within one; df counts the items whose
# references hold the row's gram. pair_ref/pair_cand join each reference row
# to its item's candidate row of the same gram, by candidate row, then count.
GramTable = namedtuple("GramTable", "sent count df pair_ref pair_cand")


class NGramTables:
    """An eval set's sentences as interned token ids: sentence i is item i's
    candidate, then come each item's references. Order n's table is built once,
    on first use; its gram ids number the distinct (next token id, order n-1 id)
    pairs. Token ids follow first occurrence; no float sum runs in gram-id order."""

    def __init__(self, items: Sequence[CaptionEvalItem]):
        sentences = [i.candidate for i in items] + [r for i in items for r in i.references]
        tokens = list(chain.from_iterable(sentences))
        vocab = {tok: k for k, tok in enumerate(dict.fromkeys(tokens))}
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        self.num_items = len(items)
        self.ref_item = np.repeat(np.arange(len(items)), [len(i.references) for i in items])
        self.tables: list[GramTable] = []
        self.item = np.concatenate([np.arange(len(items)), self.ref_item])
        self._tokens = np.fromiter(map(vocab.__getitem__, tokens), np.int64, len(tokens))
        self._sent = np.repeat(np.arange(len(sentences)), lengths)
        self._ends = np.cumsum(lengths)[self._sent]
        self._starts, self._ids, self._size = np.arange(len(tokens)), self._tokens, len(vocab)

    def table(self, n: int) -> GramTable:
        while len(self.tables) < n:
            self.tables.append(self._build(len(self.tables) + 1))
        return self.tables[n - 1]

    def _build(self, n: int) -> GramTable:
        if n > 1:
            keep = self._starts + n <= self._ends[self._starts]
            self._starts = self._starts[keep]
            pairs = self._tokens[self._starts + n - 1] * self._size + self._ids[keep]
            uniq, self._ids = np.unique(pairs, return_inverse=True)
            self._size = len(uniq)
        size, sent = self._size, self._sent[self._starts]
        _, first, inverse, count = np.unique(sent * size + self._ids, return_index=True,
                                             return_inverse=True, return_counts=True)
        first = np.sort(first)
        sent, gram, count = sent[first], self._ids[first], count[inverse[first]]
        # (item, gram) groups, each headed by its first row: the candidate's, if any
        keys, head, group = np.unique(self.item[sent] * size + gram, return_index=True,
                                      return_inverse=True)
        ref = sent >= self.num_items
        held = np.bincount(group[ref], minlength=len(keys)) > 0  # groups with a reference row
        pair_ref = np.flatnonzero(ref & (sent[head[group]] < self.num_items))
        pair_cand = head[group[pair_ref]]
        order = np.lexsort((count[pair_ref], pair_cand))
        df = np.bincount(keys[held] % size, minlength=size)[gram]
        return GramTable(sent, count, df, pair_ref[order], pair_cand[order])


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
    cand_lens = [len(item.candidate) for item in eval_set.items]
    cand_len_sum = sum(cand_lens)
    if cand_len_sum == 0:
        return (0.0,) * max_n
    ref_len_sum = sum(min((len(r) for r in item.references),
                          key=lambda length: (abs(length - c), length))
                      for item, c in zip(eval_set.items, cand_lens))
    precisions = []
    for n in range(1, max_n + 1):
        t = eval_set.grams.table(n)
        # the last pair of a candidate row holds its largest reference count
        last = np.diff(t.pair_cand, append=-1) != 0
        clipped = int(np.minimum(t.count[t.pair_cand[last]], t.count[t.pair_ref[last]]).sum())
        total = sum(max(c - n + 1, 0) for c in cand_lens)
        precisions.append(clipped / total if total > 0 else 0.0)
    bp = min(1.0, math.exp(1.0 - ref_len_sum / cand_len_sum))
    scores = []
    for k in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k))
    return tuple(scores)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyro 2004): bit j of
    ``v`` is 0 where the LCS row steps up at b[j]; one add per token of a."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_item(candidate: Sequence[str], references: Sequence[Sequence[str]],
                 beta: float = 1.2) -> float:
    """LCS F-measure of one candidate: max precision and max recall are
    taken over references independently, then combined with beta=1.2."""
    if not references:
        raise MetricError("ROUGE-L needs at least one reference")
    if not candidate:
        return 0.0
    p_max = 0.0
    r_max = 0.0
    for ref in references:
        lcs = _lcs_length(candidate, ref)
        p_max = max(p_max, lcs / len(candidate))
        if ref:
            r_max = max(r_max, lcs / len(ref))
    denom = r_max + beta * beta * p_max
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * p_max * r_max / denom


def rouge_l(eval_set: CaptionEvalSet, beta: float = 1.2) -> float:
    return sum(rouge_l_item(i.candidate, i.references, beta)
               for i in eval_set.items) / len(eval_set.items)


def _candidate_index(candidate: Sequence[str]) -> tuple[Counter, dict]:
    """A candidate's token counts and the start positions of each bigram."""
    starts: dict[tuple[str, str], list[int]] = {}
    for i, gram in enumerate(zip(candidate, candidate[1:])):
        starts.setdefault(gram, []).append(i)
    return Counter(candidate), starts


def _alignment_stats(candidate: Sequence[str], reference: Sequence[str],
                     index: Optional[tuple[Counter, dict]] = None) -> tuple[int, int]:
    """(matches m, min chunks) of the optimal exact-token alignment.

    The alignment is one-to-one, maximizes m (the sum of per-word min
    counts), then minimizes chunks (runs contiguous in both sentences).
    Its chunks are m minus its links (candidate i, i+1 on reference j,
    j+1), and as a word's quota is the min of its two counts, any
    one-to-one partial alignment extends to m matches keeping its links:
    min chunks = m - L, L the most links one alignment holds. Links clash
    only by giving a position two partners, so only pairs with a clash run
    ``_min_chunks_search``. ``index``: ``_candidate_index(candidate)``.
    """
    counts, starts = index or _candidate_index(candidate)
    ref_counts = Counter(reference)
    quota = {w: min(count, ref_counts[w]) for w, count in counts.items() if w in ref_counts}
    m = sum(quota.values())
    if m == 0:
        return 0, 0
    links = [(i, j) for j, gram in enumerate(zip(reference, reference[1:]))
             for i in starts.get(gram, ())]
    pairs = {*links, *((i + 1, j + 1) for i, j in links)}
    if len({i for i, _ in pairs}) == len(pairs) == len({j for _, j in pairs}):
        return m, m - len(links)
    return m, _min_chunks_search(candidate, reference, quota, m)


def _min_chunks_search(candidate: Sequence[str], reference: Sequence[str],
                       quota: Mapping[str, int], m: int) -> int:
    """Min chunks over alignments that fill every word's ``quota``:
    memoized over the matchable candidate positions, a word is matched
    only while its quota is open and skipped only when a later occurrence
    can still fill it. Worst-case exponential under heavy repetition."""
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


def meteor_lite_item(candidate: Sequence[str], references: Sequence[Sequence[str]],
                     alpha: float = 0.9, beta: float = 3.0, gamma: float = 0.5) -> float:
    """Exact-match METEOR of one candidate: best score over references."""
    if not references:
        raise MetricError("METEOR needs at least one reference")
    index = _candidate_index(candidate)
    best = 0.0
    for ref in references:
        m, chunks = _alignment_stats(candidate, ref, index)
        if m == 0:
            continue
        precision = m / len(candidate)
        recall = m / len(ref)
        f_mean = precision * recall / (alpha * precision + (1.0 - alpha) * recall)
        penalty = gamma * (chunks / m) ** beta
        best = max(best, f_mean * (1.0 - penalty))
    return best


def meteor_lite(eval_set: CaptionEvalSet, alpha: float = 0.9, beta: float = 3.0,
                gamma: float = 0.5) -> float:
    return sum(meteor_lite_item(i.candidate, i.references, alpha, beta, gamma)
               for i in eval_set.items) / len(eval_set.items)


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
    penalty = np.array([math.exp(-(d * d) / (2.0 * sigma * sigma)) for item in eval_set.items
                        for d in (len(item.candidate) - len(r) for r in item.references)])
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
        try:
            header = next(reader)
        except StopIteration:
            raise MetricError(f"{path}: empty file") from None
        if header != _CANDIDATE_HEADER:
            raise MetricError(
                f"{path}: bad header {header!r}, want {_CANDIDATE_HEADER!r}")
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
