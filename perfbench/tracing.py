"""Span tracing from outside the package, for the traced benchmark run.

The tracer replaces each traced public function in every loaded
``audiotext`` module that holds it (callers such as ``optim`` import
``dot_score`` by name, so patching the defining module alone would miss
them), and each traced method on its class. A wrapper records one span
per call: id, name, start, end, parent span and command id. Spans stay
in memory; ``write_spans`` writes them out when the run ends.

Self time of a span is its duration minus the time its direct child
spans cover. Spans nest strictly in this single-threaded program, so
the children's durations can simply be summed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, qualified name): each becomes the per-layer name
# "<module without the audiotext. prefix>.<qualified name>".
LAYER_TARGETS = (
    ("audiotext.nnet.layers", "GRUCell.sweep"),
    ("audiotext.nnet.layers", "GRUCell.sweep_backward"),
    ("audiotext.nnet.layers", "LSTMCell.sweep"),
    ("audiotext.nnet.layers", "Conv1d.forward"),
    ("audiotext.nnet.layers", "Conv1d.backward"),
    ("audiotext.nnet.layers", "MaxPoolTime.forward"),
    ("audiotext.nnet.layers", "MaxPoolTime.backward"),
    ("audiotext.nnet.layers", "Activation.forward"),
    ("audiotext.nnet.layers", "Activation.backward"),
    ("audiotext.nnet.layers", "MeanPoolTime.forward"),
    ("audiotext.nnet.layers", "MeanPoolTime.backward"),
    ("audiotext.nnet.layers", "Projection.forward"),
    ("audiotext.nnet.layers", "Projection.backward"),
    ("audiotext.nnet.model", "AudioTower.forward"),
    ("audiotext.nnet.model", "AudioTower.backward"),
    ("audiotext.nnet.model", "TextEmbedder.embed"),
    ("audiotext.nnet.checkpoint", "load_checkpoint"),
    ("audiotext.corpus", "load_word_embeddings"),
    ("audiotext.corpus", "load_captions"),
    ("audiotext.corpus", "build_manifest"),
    ("audiotext.corpus", "read_fmat"),
    ("audiotext.corpus", "write_fmat"),
    ("audiotext.losses", "dot_score"),
    ("audiotext.losses", "exp_neg_euclid"),
    ("audiotext.losses", "triplet_margin_loss"),
    ("audiotext.losses", "triplet_margin_grads"),
    ("audiotext.losses", "sample_imposters"),
    ("audiotext.optim", "adam_step"),
    ("audiotext.retrieval", "build_score_matrix"),
    ("audiotext.retrieval", "score_all"),
    ("audiotext.retrieval", "report_from_matrix"),
    ("audiotext.retrieval", "rank_query"),
    ("audiotext.dsp", "read_wav"),
    ("audiotext.dsp", "log_mel_features"),
    ("audiotext.textmetrics", "bleu_corpus"),
    ("audiotext.textmetrics", "rouge_l"),
    ("audiotext.textmetrics", "meteor_lite"),
    ("audiotext.textmetrics", "cider_d"),
)
# Command-level entry points: their self time is the glue between the
# layers above (for example the per-anchor loss loop in training), so
# spans here keep the unattributed share of a command small.
ENTRY_TARGETS = (
    ("audiotext.optim", "train"),
    ("audiotext.retrieval", "evaluate_retrieval"),
    ("audiotext.textmetrics", "evaluate_captions"),
)
DERIVED = (
    ("nnet.model.AudioTower.forward.per_clip", "ratio"),
    ("nnet.model.TextEmbedder.embed.oov_tokens", "count"),
    ("losses.triplet_margin_loss.active_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def layer_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('audiotext.')}.{qualname}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, qualname in LAYER_TARGETS:
        base = layer_name(module, qualname)
        units[f"{base}.ms_p50"] = "ms"
        units[f"{base}.calls"] = "count"
        units[f"{base}.self_s"] = "s"
    for module, qualname in ENTRY_TARGETS:
        units[f"{layer_name(module, qualname)}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Records spans around the traced calls while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.commands: list[tuple[int, str]] = []  # (root span id, label)
        self.clip_forwards: dict[tuple, int] = {}
        self.oov_tokens = 0
        self.triplet_calls = 0
        self.triplet_active = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._command: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module, qualname in LAYER_TARGETS + ENTRY_TARGETS:
            self._patch(module, qualname)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, qualname: str) -> None:
        module = importlib.import_module(module_name)
        name = layer_name(module_name, qualname)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "audiotext" or mod_name.startswith("audiotext.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        hook = {
            "nnet.model.AudioTower.forward": self._count_clip,
            "nnet.model.TextEmbedder.embed": self._count_oov,
            "losses.triplet_margin_loss": self._count_hinge,
        }.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._command is None:  # the benchmark's own checks, not a command
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer._command))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters at the traced boundaries ------------------------------

    def _count_clip(self, args, result) -> None:
        frames = args[1]
        key = (frames.shape, hash(frames[:4].tobytes()))
        self.clip_forwards[key] = self.clip_forwards.get(key, 0) + 1

    def _count_oov(self, args, result) -> None:
        embedder, record = args[0], args[1]
        if embedder.word_table is not None:
            self.oov_tokens += sum(tok not in embedder.word_table for tok in record.tokens)

    def _count_hinge(self, args, result) -> None:
        self.triplet_calls += 1
        self.triplet_active += result > 0.0

    # -- commands -----------------------------------------------------

    @contextmanager
    def command(self, label: str):
        """Root span of one CLI command; all spans inside share its id."""
        span_id = self._next_id
        self._next_id += 1
        self._command = span_id
        self.commands.append((span_id, label))
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._command = None
            self.spans.append((span_id, f"cli.{label}", start, end, None, span_id))

    # -- analysis -----------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return {sid: (end - start) - covered.get(sid, 0.0)
                for sid, _, start, end, _, _ in self.spans}

    def per_layer(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric of the spans recorded so far."""
        self_s = self.self_times()
        durations: dict[str, list[float]] = {}
        selfs: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
            selfs[name] = selfs.get(name, 0.0) + self_s[sid]
        out: dict[str, float] = {}
        for module, qualname in LAYER_TARGETS:
            name = layer_name(module, qualname)
            d = durations.get(name, [])
            out[f"{name}.ms_p50"] = 1000.0 * statistics.median(d) if d else 0.0
            out[f"{name}.calls"] = len(d)
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        for module, qualname in ENTRY_TARGETS:
            name = layer_name(module, qualname)
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        forwards = sum(self.clip_forwards.values())
        out["nnet.model.AudioTower.forward.per_clip"] = (
            forwards / len(self.clip_forwards) if self.clip_forwards else 0.0)
        out["nnet.model.TextEmbedder.embed.oov_tokens"] = self.oov_tokens
        out["losses.triplet_margin_loss.active_frac"] = (
            self.triplet_active / self.triplet_calls if self.triplet_calls else 0.0)
        out["trace.unattributed_frac"] = self.unattributed_frac()
        out["trace.overhead_frac"] = overhead_frac
        return out

    def breakdown(self) -> list[dict]:
        """Per command: wall time, self time per span name, unattributed time."""
        self_s = self.self_times()
        by_command: dict[int, dict] = {}
        for span_id, label in self.commands:
            by_command[span_id] = {"command": label, "wall_s": 0.0, "top_level_s": 0.0,
                                   "self_s": {}}
        for sid, name, start, end, parent, command in self.spans:
            entry = by_command[command]
            if sid == command:
                entry["wall_s"] = end - start
                continue
            if parent == command:
                entry["top_level_s"] += end - start
            entry["self_s"][name] = entry["self_s"].get(name, 0.0) + self_s[sid]
        for entry in by_command.values():
            entry["unattributed_s"] = entry["wall_s"] - entry["top_level_s"]
            entry["self_s"] = dict(sorted(entry["self_s"].items(), key=lambda kv: -kv[1]))
        return list(by_command.values())

    def unattributed_frac(self) -> float:
        rows = self.breakdown()
        wall = sum(r["wall_s"] for r in rows)
        return sum(r["unattributed_s"] for r in rows) / wall if wall else 0.0

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
