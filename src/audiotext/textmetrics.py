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
from typing import Mapping, Optional, Sequence

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


def ngrams(tokens: Sequence[str], n: int) -> NGramCounts:
    """All contiguous n-tuples with multiplicity; empty if the sequence
    is shorter than n."""
    if n < 1:
        raise MetricError(f"n-gram order must be >= 1, got {n}")
    counts = Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return NGramCounts(n=n, counts=dict(counts))


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
        for n in range(1, max_n + 1):
            cand_counts = ngrams(item.candidate, n).counts
            if not cand_counts:
                continue
            max_ref: dict[tuple[str, ...], int] = {}
            for ref in item.references:
                for gram, count in ngrams(ref, n).counts.items():
                    if count > max_ref.get(gram, 0):
                        max_ref[gram] = count
            clipped[n - 1] += sum(min(count, max_ref.get(gram, 0))
                                  for gram, count in cand_counts.items())
            totals[n - 1] += sum(cand_counts.values())
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
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if tok == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


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
    sentences). Search is memoized and pruned; it is linear when
    tokens are distinct and worst-case exponential only under heavy
    token repetition.
    """
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    quota = {w: min(cand_counts[w], ref_counts[w])
             for w in cand_counts if w in ref_counts}
    m = sum(quota.values())
    if m == 0:
        return 0, 0
    positions = {w: tuple(j for j, t in enumerate(reference) if t == w)
                 for w in quota}
    word_mask = {w: sum(1 << j for j in js) for w, js in positions.items()}
    lc = len(candidate)
    # suffix_counts[i][w]: occurrences of w in candidate[i:]
    suffix_counts: list[dict[str, int]] = [dict() for _ in range(lc + 1)]
    for i in range(lc - 1, -1, -1):
        cur = dict(suffix_counts[i + 1])
        w = candidate[i]
        if w in quota:
            cur[w] = cur.get(w, 0) + 1
        suffix_counts[i] = cur
    infinity = m + 1
    memo: dict[tuple[int, int, int], int] = {}

    def rec(i: int, used: int, prev: int) -> int:
        if i == lc:
            return 0 if used.bit_count() == m else infinity
        key = (i, used, prev)
        cached = memo.get(key)
        if cached is not None:
            return cached
        matched = used.bit_count()
        possible = matched
        for w, q in quota.items():
            possible += min(suffix_counts[i].get(w, 0),
                            q - (used & word_mask[w]).bit_count())
        if possible < m:
            memo[key] = infinity
            return infinity
        w = candidate[i]
        best = infinity
        if w in quota:
            for j in positions[w]:
                if used & (1 << j):
                    continue
                cost = 0 if j == prev + 1 and prev >= 0 else 1
                sub = rec(i + 1, used | (1 << j), j)
                if cost + sub < best:
                    best = cost + sub
            # skipping is allowed only when this word has surplus
            # occurrences beyond its remaining quota
            need = quota[w] - (used & word_mask[w]).bit_count()
            if suffix_counts[i].get(w, 0) - 1 >= need:
                best = min(best, rec(i + 1, used, -1))
        else:
            best = rec(i + 1, used, -1)
        memo[key] = best
        return best

    chunks = rec(0, 0, -1)
    if chunks > m:
        raise MetricError("alignment search failed to reach the match quota")
    return m, chunks


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
            seen: set[tuple[str, ...]] = set()
            for ref in item.references:
                seen.update(ngrams(ref, n).counts)
            for gram in seen:
                df[n - 1][gram] += 1

    def weights(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], float]:
        return {gram: count * math.log(num_items / max(1, df[n - 1][gram]))
                for gram, count in ngrams(tokens, n).counts.items()}

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
        if not isinstance(value, (int, float)) or not (0.0 <= value <= 1.0):
            raise MetricError(f"{path}: SPICE value for {key!r} outside [0,1]: {value!r}")
        out[str(key)] = float(value)
    return out


def spider_combine(cider: float, spice_values: Optional[Mapping[str, float]],
                   item_keys: Sequence[str]) -> tuple[Optional[float], Optional[float]]:
    """(SPICE, SPIDEr) for the scored items; (None, None) without SPICE data.

    SPICE is the mean of the supplied per-item values over the scored
    keys; SPIDEr = (SPICE + CIDEr) / 2.
    """
    if spice_values is None:
        return None, None
    missing = [k for k in item_keys if k not in spice_values]
    if missing:
        raise MetricError(f"SPICE values missing for items: {missing}")
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
    bleu = bleu_corpus(eval_set)
    cider = cider_d(eval_set)
    spice_values = load_spice_file(spice_file) if spice_file is not None else None
    spice, spider = spider_combine(cider, spice_values, eval_set.keys())
    return CorpusScores(
        bleu=bleu,
        rouge_l=rouge_l(eval_set),
        meteor=meteor_lite(eval_set),
        cider=cider,
        spice=spice,
        spider=spider,
    )
