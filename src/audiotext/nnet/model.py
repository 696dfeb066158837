"""Model configuration, parameter initialization, and the two embedding towers.

The audio tower runs conv stack -> recurrent sweep (zero initial state)
-> full mean-pool over time -> optional projection. The text side is
either a frozen word-vector average (optionally passed through its own
trainable projection) or a frozen caption-level vector used verbatim.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from ..corpus import CaptionEmbeddingTable, CaptionRecord, EmbeddingTable, FeatureSequence
from ..rng import SplitMix64
from .layers import (
    Activation,
    Conv1d,
    Dense,
    GRUCell,
    LSTMCell,
    MaxPoolTime,
    MeanPoolTime,
    NnetError,
    Projection,
    _backward,
    _forward,
)
from .tensor import Params, Tensor


class _Kind(NamedTuple):
    sizes: tuple  # the LayerSpec size fields the kind reads; validate() rejects any other
    params: Callable  # spec -> ((key, shape), ...) of the layer's parameters, in order
    build: Callable  # (spec, *those parameters) -> the layer


def _no_params(spec) -> tuple:
    return ()


# tower layer kind -> _Kind; validate() rejects any other kind
_LAYERS = {
    "dense": _Kind(("in_dim", "out_dim"),
                   lambda s: (("w", (s.out_dim, s.in_dim)), ("b", (s.out_dim,))),
                   lambda s, w, b: Dense(w, b)),
    "conv1d": _Kind(("in_dim", "out_dim", "kernel_width"),
                    lambda s: (("kernels", (s.out_dim, s.in_dim, s.kernel_width)),
                               ("bias", (s.out_dim,))),
                    lambda s, kernels, bias: Conv1d(kernels, bias)),
    "relu": _Kind((), _no_params, lambda s: Activation("relu")),
    "tanh_act": _Kind((), _no_params, lambda s: Activation("tanh")),
    "sigmoid_act": _Kind((), _no_params, lambda s: Activation("sigmoid")),
    "max_pool_time": _Kind(("pool_stride",), _no_params, lambda s: MaxPoolTime(s.pool_stride)),
    "mean_pool_time": _Kind(("pool_stride",), _no_params, lambda s: MeanPoolTime(s.pool_stride)),
}
# recurrent_cell -> cell class; its GATES name the cell's parameters
_CELLS = {"gru": GRUCell, "lstm": LSTMCell}
# Clips per recurrent pass of AudioTower.encode: in a probe, groups of 128
# ran 7% faster than 64, and 64 10% faster than 32, while the transient
# memory of a pass doubled each time (17.5 MiB at 64, H = 300).
_ENCODE_GROUP = 64
# the most elements of a parameter: init_params draws it as one float64 array
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8


def check_field_types(d: Mapping, ints=(), numbers=(), error=NnetError,
                      optional: bool = False) -> None:
    """Raise ``error`` naming the first present field of ``d`` that is not an
    integer (``ints``; a bool is not one) or not a number (``numbers``).
    With ``optional``, a None value passes."""
    for key in (*ints, *numbers):
        value = d.get(key)
        if key not in d or (optional and value is None):
            continue
        if isinstance(value, bool) or not isinstance(value, int if key in ints else (int, float)):
            kind = "an integer" if key in ints else "a number"
            raise error(f"{key}: must be {kind}, got {value!r}")
        if key in numbers and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise error(f"{key}: integer too large for a float")


def reject_unknown(d: Mapping, allowed, message: str, error=NnetError) -> None:
    """Raise ``error`` with ``message`` and the sorted keys of ``d`` not in ``allowed``."""
    unknown = set(d).difference(allowed)
    if unknown:
        raise error(f"{message} {sorted(unknown)}")


@dataclass(frozen=True)
class LayerSpec:
    """One audio-tower layer. Unused size fields stay None."""

    kind: str
    in_dim: Optional[int] = None
    out_dim: Optional[int] = None
    kernel_width: Optional[int] = None
    pool_stride: Optional[int] = None

    def to_dict(self) -> dict:
        return {key: v for key, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        if not isinstance(d, Mapping) or "kind" not in d:
            raise NnetError(f"audio_tower: each layer must be an object with a kind, got {d!r}")
        names = [f.name for f in fields(cls)]
        reject_unknown(d, names, "unknown LayerSpec keys")
        check_field_types(d, ints=names[1:], optional=True)  # every field after kind is a size
        return cls(**d)


@dataclass(frozen=True)
class ProjectionSpec:
    out_dim: int
    activation: str = "relu"  # relu | identity


@dataclass(frozen=True)
class ModelConfig:
    """Full architecture/loss description, validated when built; serialized with checkpoints."""

    feature_dim: int
    audio_tower: tuple[LayerSpec, ...]
    recurrent_cell: str = "gru"  # gru | lstm | none
    embed_dim: int = 300
    projection: Optional[ProjectionSpec] = None
    text_mode: str = "word_average"  # word_average | sentence_table
    loss: str = "triplet"  # triplet | bce_expdist
    margin: float = 1.0
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        self.validate()

    @property
    def scoring_dim(self) -> int:
        """Dimension both towers are compared in."""
        return self.projection.out_dim if self.projection else self.embed_dim

    def validate(self) -> None:
        if self.feature_dim < 1:
            raise NnetError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.embed_dim < 1:
            raise NnetError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.recurrent_cell not in (*_CELLS, "none"):
            raise NnetError(f"recurrent_cell must be gru|lstm|none, got {self.recurrent_cell!r}")
        if self.text_mode not in ("word_average", "sentence_table"):
            raise NnetError(f"text_mode must be word_average|sentence_table, got {self.text_mode!r}")
        if self.loss not in ("triplet", "bce_expdist"):
            raise NnetError(f"loss must be triplet|bce_expdist, got {self.loss!r}")
        for name in ("margin", "lr", "adam_eps"):
            value = getattr(self, name)
            if not value > 0:  # NaN fails too
                raise NnetError(f"{name} must be positive, got {value}")
            if not math.isfinite(value):
                raise NnetError(f"{name} must be finite, got {value}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise NnetError(f"{name} must be in [0, 1), got {getattr(self, name)}")

        cur = self.feature_dim
        for i, spec in enumerate(self.audio_tower):
            if not isinstance(spec.kind, str):
                raise NnetError(f"tower layer {i}: kind: must be a string, got {spec.kind!r}")
            if spec.kind not in _LAYERS:
                raise NnetError(f"tower layer {i}: unknown kind {spec.kind!r}")
            for name in spec.to_dict():  # the non-None fields, in field order
                if name not in ("kind", *_LAYERS[spec.kind].sizes):
                    raise NnetError(f"tower layer {i} ({spec.kind}): unexpected field {name}")
            if spec.kind in ("dense", "conv1d"):
                if not spec.in_dim or not spec.out_dim or spec.in_dim < 1 or spec.out_dim < 1:
                    raise NnetError(f"tower layer {i} ({spec.kind}): in_dim/out_dim required")
                if spec.in_dim != cur:
                    raise NnetError(
                        f"tower layer {i} ({spec.kind}): in_dim {spec.in_dim} != incoming {cur}"
                    )
                if spec.kind == "conv1d":
                    if not spec.kernel_width or spec.kernel_width % 2 == 0:
                        raise NnetError(
                            f"tower layer {i}: kernel_width must be odd, got {spec.kernel_width}"
                        )
                    if spec.kernel_width < 1:
                        raise NnetError(
                            f"tower layer {i}: kernel_width must be >= 1, got {spec.kernel_width}"
                        )
                cur = spec.out_dim
            elif spec.kind == "max_pool_time":
                if not spec.pool_stride or spec.pool_stride < 1:
                    raise NnetError(f"tower layer {i}: max pool needs pool_stride >= 1")
            elif spec.kind == "mean_pool_time":
                if spec.pool_stride is None or spec.pool_stride < 1:
                    # a full (stride 0) mean inside the tower would end the
                    # time axis early; only strided means are allowed here
                    raise NnetError(f"tower layer {i}: in-tower mean pool needs pool_stride >= 1")

        if self.recurrent_cell == "none" and cur != self.embed_dim:
            raise NnetError(
                f"without a recurrent cell the tower output dim ({cur}) must equal "
                f"embed_dim ({self.embed_dim})"
            )
        if self.projection is not None:
            if self.projection.out_dim < 1:
                raise NnetError("projection out_dim must be >= 1")
            if self.projection.activation not in ("relu", "identity"):
                raise NnetError(f"projection activation {self.projection.activation!r}")
            if self.text_mode == "sentence_table":
                # frozen caption vectors are never projected, so a joint
                # projection cannot apply to both towers
                raise NnetError("projection cannot be combined with sentence_table text mode")
        for sizes, name, shape in _sized_shapes(self):
            if math.prod(shape) > _MAX_ELEMENTS:
                raise NnetError(f"{sizes}: too large, {name} would have shape {shape}")

    def tower_output_dim(self) -> int:
        """Channel dim entering the recurrent cell (or the pool when none)."""
        # validate() allows out_dim only on the kinds that set the width
        return next((s.out_dim for s in reversed(self.audio_tower) if s.out_dim is not None),
                    self.feature_dim)

    def to_dict(self) -> dict:
        return {**asdict(self), "audio_tower": [s.to_dict() for s in self.audio_tower]}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        reject_unknown(d, [f.name for f in fields(cls)], "unknown ModelConfig keys")
        if "feature_dim" not in d:
            raise NnetError("ModelConfig requires feature_dim")
        check_field_types(d, ints=("feature_dim", "embed_dim", "seed"),
                          numbers=("margin", "lr", "beta1", "beta2", "adam_eps"))
        d = dict(d)
        tower = d.get("audio_tower", ())
        if not isinstance(tower, (list, tuple)):
            raise NnetError(f"audio_tower: must be a list of layer objects, got {tower!r}")
        d["audio_tower"] = tuple(LayerSpec.from_dict(s) for s in tower)
        proj = d.get("projection")
        if proj is not None:
            if not isinstance(proj, Mapping) or "out_dim" not in proj:
                raise NnetError(f"projection: must be an object with an out_dim, got {proj!r}")
            reject_unknown(proj, [f.name for f in fields(ProjectionSpec)],
                           "unknown projection keys")
            check_field_types(proj, ints=("out_dim",))
            d["projection"] = ProjectionSpec(**proj)
        return cls(**d)


def default_tower(feature_dim: int, channels: tuple[int, int] = (64, 64)) -> tuple[LayerSpec, ...]:
    """Two conv blocks (k=3, same padding, ReLU, max-pool stride 2)."""
    c1, c2 = channels
    return (
        LayerSpec("conv1d", in_dim=feature_dim, out_dim=c1, kernel_width=3),
        LayerSpec("relu"),
        LayerSpec("max_pool_time", pool_stride=2),
        LayerSpec("conv1d", in_dim=c1, out_dim=c2, kernel_width=3),
        LayerSpec("relu"),
        LayerSpec("max_pool_time", pool_stride=2),
    )


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) list; the canonical parameter order."""
    return [(name, shape) for _, name, shape in _sized_shapes(config)]


def _sized_shapes(config: ModelConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(the config fields that size it, name, shape) of each parameter, in order."""
    shapes = [(f"tower layer {i} ({spec.kind}) {'/'.join(_LAYERS[spec.kind].sizes)}", name, shape)
              for i, spec in enumerate(config.audio_tower) for name, shape in _layer_shapes(i, spec)]
    shapes += [("embed_dim", f"{config.recurrent_cell}.{key}", shape)
               for key, shape in _cell_shapes(config)]
    if config.projection is not None:
        head = LayerSpec("dense", in_dim=config.embed_dim, out_dim=config.projection.out_dim)
        sides = ("audio", "text") if config.text_mode == "word_average" else ("audio",)
        shapes += [("projection out_dim", f"proj_{side}.{key}", shape) for side in sides
                   for key, shape in _LAYERS["dense"].params(head)]
    return shapes


def _layer_shapes(i: int, spec: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of tower layer i's parameters, named tower{i}.<key>."""
    return [(f"tower{i}.{key}", shape) for key, shape in _LAYERS[spec.kind].params(spec)]


def _cell_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(key, shape) of each recurrent cell parameter, keyed as the cell names
    them (w_<gate>, u_<gate>, b_<gate>, gate by gate); none without a cell."""
    h, cell = config.embed_dim, _CELLS.get(config.recurrent_cell)
    shapes = (("w", (h, config.tower_output_dim())), ("u", (h, h)), ("b", (h,)))
    return [(f"{kind}_{gate}", shape) for gate in (cell.GATES if cell else ())
            for kind, shape in shapes]


def _xavier_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 3:  # conv kernels (C_out, C_in, k)
        return shape[1] * shape[2], shape[0] * shape[2]
    return shape[1], shape[0]  # (out, in)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> Params:
    """Xavier-uniform weights from a SplitMix64 stream; biases zero.

    Deterministic given (config, seed): parameters are drawn in the
    parameter_shapes() order, elementwise in C order.
    """
    gen = SplitMix64(seed)
    params: Params = {}
    for name, shape in parameter_shapes(config):
        if len(shape) == 1:  # bias
            params[name] = Tensor(np.zeros(shape, dtype=dtype))
            continue
        fan_in, fan_out = _xavier_fans(shape)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        size = int(np.prod(shape))
        draws = gen.uniform_array(size)
        values = (draws * 2.0 - 1.0) * bound
        params[name] = Tensor(values.reshape(shape).astype(dtype))
    return params


class AudioTower:
    """Forward/backward pipeline from a feature matrix to one embedding.

    Three stages: ``layers``, the conv/dense/activation/pool layers of the
    config, run clip by clip; ``cell``, the recurrent cell (None for
    "none"), one packed pass over every clip; ``head``, the full mean pool
    over time and then the projection when configured, clip by clip. The
    per-clip stages go through one layer walk, _forward, and its reverse,
    _backward."""

    def __init__(self, config: ModelConfig, params: Params):
        self.config = config
        # compute dtype follows the parameters; fall back to float32
        self.dtype = next((t.dtype for t in params.values()), np.float32)
        self.layers = []
        for i, spec in enumerate(config.audio_tower):
            layer_params = [params[name] for name, _ in _layer_shapes(i, spec)]
            self.layers.append(_LAYERS[spec.kind].build(spec, *layer_params))
        kind = config.recurrent_cell
        self.cell = (_CELLS[kind]({key: params[f"{kind}.{key}"] for key, _ in _cell_shapes(config)})
                     if kind in _CELLS else None)
        self.head = [MeanPoolTime(0)]
        if config.projection is not None:
            self.head.append(Projection(
                params["proj_audio.w"], params["proj_audio.b"], config.projection.activation))

    def forward(self, frames: np.ndarray):
        """frames (T, F) -> (embedding (scoring_dim,), cache): a batch of one."""
        outs, cache = self.forward_batch([frames])
        return outs[0], cache

    def backward(self, cache, dout: np.ndarray) -> None:
        """Accumulate parameter gradients for one forward's cache. A cache
        serves one backward; with a recurrent cell a second raises NnetError."""
        self.backward_batch(cache, [dout])

    def forward_batch(self, clips):
        """A list of (T_i, F) feature matrices -> (list of embeddings, cache):
        each clip walks the layers, the cell sweeps every clip at once, then
        each clip walks the head; the cache keeps every layer's cache."""
        layer_caches = [[] for _ in clips]
        xs = [_forward(self.layers, self._checked(frames), caches)
              for frames, caches in zip(clips, layer_caches)]
        cell_cache = None
        if self.cell is not None:
            xs, cell_cache = self.cell.sweep(xs)
        head_caches = [[] for _ in xs]
        outs = [_forward(self.head, x, caches) for x, caches in zip(xs, head_caches)]
        return outs, (layer_caches, cell_cache, head_caches)

    def encode(self, clips) -> np.ndarray:
        """A list of N (T_i, F) feature matrices -> (N, scoring_dim)
        embeddings, rows in input order; forward only, so it keeps no cache.
        Clips go longest first in groups of _ENCODE_GROUP: each clip walks
        the layers, then one cache-free recurrent pass per group
        (mean_states) stands for the cell and the head's mean pool; the rest
        of the head runs on each clip's pooled row."""
        clips = [self._checked(frames) for frames in clips]
        pooled = np.empty((len(clips), self.config.embed_dim), dtype=self.dtype)
        # conv and pool layers never shorten a longer clip below a shorter one
        order = sorted(range(len(clips)), key=lambda i: -clips[i].shape[0])
        for start in range(0, len(order), _ENCODE_GROUP):
            group = order[start : start + _ENCODE_GROUP]
            xs = [_forward(self.layers, clips[i]) for i in group]
            pooled[group] = (self.cell.mean_states(xs) if self.cell is not None
                             else [_forward(self.head[:1], x) for x in xs])
        # clip by clip: at another row count a product's rows may round
        # differently, and a clip's embedding must not depend on the others
        return np.array([_forward(self.head[1:], v) for v in pooled],
                        dtype=self.dtype).reshape(len(pooled), self.config.scoring_dim)

    def _checked(self, frames) -> np.ndarray:
        """One clip as a nonempty (T, F) array of the compute dtype."""
        x = np.asarray(frames)
        if x.ndim != 2 or x.shape[0] < 1:
            raise NnetError(f"expected a nonempty (T, F) feature matrix, got shape {x.shape}")
        if x.shape[1] != self.config.feature_dim:
            raise NnetError(f"feature dim {x.shape[1]} does not match config feature_dim "
                            f"{self.config.feature_dim}")
        return x.astype(self.dtype, copy=False)

    def backward_batch(self, cache, douts) -> None:
        """Accumulate parameter gradients, given one gradient per clip: the
        forward walks in reverse. A cache serves one backward; with a
        recurrent cell a second raises NnetError."""
        layer_caches, cell_cache, head_caches = cache
        dxs = [_backward(self.head, caches, dout) for caches, dout in zip(head_caches, douts)]
        if self.cell is not None:
            dxs = self.cell.sweep_backward(cell_cache, dxs)
        for caches, dx in zip(layer_caches, dxs):
            _backward(self.layers, caches, dx)


def encode_audio(features: FeatureSequence | np.ndarray, config: ModelConfig, params: Params) -> np.ndarray:
    """One clip to one embedding (forward only)."""
    frames = features.frames if isinstance(features, FeatureSequence) else features
    return AudioTower(config, params).encode([frames])[0]


class TextEmbedder:
    """Caption text to a fixed-dimension vector.

    word_average: mean of in-vocabulary token vectors, then the text-side
    projection when configured. Captions whose tokens are all
    out-of-vocabulary embed to the zero vector and bump ``oov_captions``.

    sentence_table: the stored caption vector verbatim (frozen; never
    projected, never trained).
    """

    def __init__(
        self,
        config: ModelConfig,
        params: Params,
        word_table: EmbeddingTable | None = None,
        caption_table: CaptionEmbeddingTable | None = None,
    ):
        self.config = config
        self.word_table = word_table
        self.caption_table = caption_table
        self.oov_captions = 0
        self.oov_tokens = 0
        if config.text_mode == "word_average":
            if word_table is None:
                raise NnetError("word_average mode needs an EmbeddingTable")
            if word_table.dim != config.embed_dim:
                raise NnetError(
                    f"word embedding dim {word_table.dim} != config embed_dim {config.embed_dim}"
                )
        else:
            if caption_table is None:
                raise NnetError("sentence_table mode needs a CaptionEmbeddingTable")
            if caption_table.dim != config.scoring_dim:
                raise NnetError(
                    f"caption embedding dim {caption_table.dim} != scoring dim {config.scoring_dim}"
                )
        if config.projection is not None and config.text_mode == "word_average":
            self.proj = Projection(
                params["proj_text.w"], params["proj_text.b"], config.projection.activation
            )
            self.dtype = params["proj_text.w"].dtype
        else:
            self.proj = None
            self.dtype = np.float32

    def embed_tokens(self, tokens) -> tuple[np.ndarray, object]:
        """Mean word vector for a token list (word_average mode only)."""
        if self.config.text_mode != "word_average":
            raise NnetError("embed_tokens is only valid in word_average mode")
        index = self.word_table.index
        rows = [index[tok] for tok in tokens if tok in index]
        self.oov_tokens += len(tokens) - len(rows)
        if rows:
            mean = self.word_table.matrix[rows].mean(axis=0).astype(self.dtype)
        else:
            self.oov_captions += 1
            mean = np.zeros(self.config.embed_dim, dtype=self.dtype)
        return self.proj.forward(mean) if self.proj is not None else (mean, None)

    def embed(self, record: CaptionRecord) -> tuple[np.ndarray, object]:
        """Embed one caption; returns (vector, cache) for backward()."""
        if self.config.text_mode == "sentence_table":
            if record.key not in self.caption_table:
                raise NnetError(f"caption key {record.key!r} missing from sentence table")
            return self.caption_table[record.key].astype(self.dtype), None
        return self.embed_tokens(record.tokens)

    def backward(self, cache, dvec: np.ndarray) -> None:
        """Accumulate text-projection gradients (no-op without projection)."""
        if self.proj is not None and cache is not None:
            self.proj.backward(cache, dvec)
