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
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .corpus import load_captions, normalize_caption, open_text

_CANDIDATE_HEADER = ["file_name", "caption"]


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class NGramCounts:
    """Multiset of the n-grams of one token sequence."""

    n: int
    counts: Mapping[tuple[str, ...], int]


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


def _grams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """The contiguous n-tuples of ``tokens`` in order, built by ``zip`` in C
    (a Counter of them keeps first-occurrence order)."""
    return zip(*(tokens[k:] for k in range(n)))


def ngrams(tokens: Sequence[str], n: int) -> NGramCounts:
    """All contiguous n-tuples with multiplicity; empty if the sequence
    is shorter than n."""
    if n < 1:
        raise MetricError(f"n-gram order must be >= 1, got {n}")
    return NGramCounts(n=n, counts=dict(Counter(_grams(tokens, n))))


def bleu_corpus(eval_set: CaptionEvalSet, max_n: int = 4) -> tuple[float, ...]:
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


def _alignment_stats(candidate: Sequence[str], reference: Sequence[str]) -> tuple[int, int]:
    """(matches, min chunks) of the optimal exact-token alignment.

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

    return m, rec(0, 0, -1)


def meteor_lite_item(candidate: Sequence[str], references: Sequence[Sequence[str]],
                     alpha: float = 0.9, beta: float = 3.0, gamma: float = 0.5) -> float:
    """Exact-match METEOR of one candidate: best score over references."""
    if not references:
        raise MetricError("METEOR needs at least one reference")
    best = 0.0
    for ref in references:
        m, chunks = _alignment_stats(candidate, ref)
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


def cider_d(eval_set: CaptionEvalSet, max_n: int = 4, sigma: float = 6.0) -> float:
    per_item = cider_d_per_item(eval_set, max_n=max_n, sigma=sigma)
    return sum(per_item) / len(per_item)


def load_spice_file(path) -> dict[str, float]:
    """JSON object mapping item keys to SPICE values in [0,1]."""
    with open_text(path, MetricError) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise MetricError(f"{path}: not valid structured text: {e}") from e
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
