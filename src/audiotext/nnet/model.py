"""Model configuration, parameter initialization, and the two embedding towers.

The audio tower runs conv stack -> recurrent sweep (zero initial state)
-> full mean-pool over time -> optional projection. The text side is
either a frozen word-vector average (optionally passed through its own
trainable projection) or a frozen caption-level vector used verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional

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
)
from .tensor import Params, Tensor

_TOWER_KINDS = (
    "dense",
    "conv1d",
    "relu",
    "tanh_act",
    "sigmoid_act",
    "max_pool_time",
    "mean_pool_time",
)
_ACT_OF = {"relu": "relu", "tanh_act": "tanh", "sigmoid_act": "sigmoid"}


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


@dataclass(frozen=True)
class LayerSpec:
    """One audio-tower layer. Unused size fields stay None."""

    kind: str
    in_dim: Optional[int] = None
    out_dim: Optional[int] = None
    kernel_width: Optional[int] = None
    pool_stride: Optional[int] = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in ("in_dim", "out_dim", "kernel_width", "pool_stride"):
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        if not isinstance(d, Mapping) or "kind" not in d:
            raise NnetError(f"audio_tower: each layer must be an object with a kind, got {d!r}")
        allowed = {"kind", "in_dim", "out_dim", "kernel_width", "pool_stride"}
        unknown = set(d) - allowed
        if unknown:
            raise NnetError(f"unknown LayerSpec keys {sorted(unknown)}")
        check_field_types(d, ints=("in_dim", "out_dim", "kernel_width", "pool_stride"),
                          optional=True)
        return cls(**d)


@dataclass(frozen=True)
class ProjectionSpec:
    out_dim: int
    activation: str = "relu"  # relu | identity

    def to_dict(self) -> dict:
        return {"out_dim": self.out_dim, "activation": self.activation}


@dataclass(frozen=True)
class ModelConfig:
    """Full architecture/loss description; serialized with checkpoints."""

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

    @property
    def scoring_dim(self) -> int:
        """Dimension both towers are compared in."""
        return self.projection.out_dim if self.projection else self.embed_dim

    def validate(self) -> None:
        if self.feature_dim < 1:
            raise NnetError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.embed_dim < 1:
            raise NnetError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.recurrent_cell not in ("gru", "lstm", "none"):
            raise NnetError(f"recurrent_cell must be gru|lstm|none, got {self.recurrent_cell!r}")
        if self.text_mode not in ("word_average", "sentence_table"):
            raise NnetError(f"text_mode must be word_average|sentence_table, got {self.text_mode!r}")
        if self.loss not in ("triplet", "bce_expdist"):
            raise NnetError(f"loss must be triplet|bce_expdist, got {self.loss!r}")
        if not self.margin > 0:  # NaN fails too
            raise NnetError(f"margin must be positive, got {self.margin}")
        if not self.lr > 0:
            raise NnetError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise NnetError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise NnetError(f"adam_eps must be positive, got {self.adam_eps}")

        cur = self.feature_dim
        for i, spec in enumerate(self.audio_tower):
            if spec.kind not in _TOWER_KINDS:
                raise NnetError(f"tower layer {i}: unknown kind {spec.kind!r}")
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

    def tower_output_dim(self) -> int:
        """Channel dim entering the recurrent cell (or the pool when none)."""
        cur = self.feature_dim
        for spec in self.audio_tower:
            if spec.kind in ("dense", "conv1d"):
                cur = spec.out_dim
        return cur

    def to_dict(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "audio_tower": [s.to_dict() for s in self.audio_tower],
            "recurrent_cell": self.recurrent_cell,
            "embed_dim": self.embed_dim,
            "projection": self.projection.to_dict() if self.projection else None,
            "text_mode": self.text_mode,
            "loss": self.loss,
            "margin": self.margin,
            "seed": self.seed,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise NnetError(f"unknown ModelConfig keys {sorted(unknown)}")
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
            unknown = set(proj) - {"out_dim", "activation"}
            if unknown:
                raise NnetError(f"unknown projection keys {sorted(unknown)}")
            check_field_types(proj, ints=("out_dim",))
            d["projection"] = ProjectionSpec(**proj)
        cfg = cls(**d)
        cfg.validate()
        return cfg


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
    config.validate()
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for i, spec in enumerate(config.audio_tower):
        if spec.kind == "conv1d":
            shapes.append((f"tower{i}.kernels", (spec.out_dim, spec.in_dim, spec.kernel_width)))
            shapes.append((f"tower{i}.bias", (spec.out_dim,)))
        elif spec.kind == "dense":
            shapes.append((f"tower{i}.w", (spec.out_dim, spec.in_dim)))
            shapes.append((f"tower{i}.b", (spec.out_dim,)))
    rec_in = config.tower_output_dim()
    h = config.embed_dim
    if config.recurrent_cell == "gru":
        for gate in GRUCell.GATES:
            shapes.append((f"gru.w_{gate}", (h, rec_in)))
            shapes.append((f"gru.u_{gate}", (h, h)))
            shapes.append((f"gru.b_{gate}", (h,)))
    elif config.recurrent_cell == "lstm":
        for gate in LSTMCell.GATES:
            shapes.append((f"lstm.w_{gate}", (h, rec_in)))
            shapes.append((f"lstm.u_{gate}", (h, h)))
            shapes.append((f"lstm.b_{gate}", (h,)))
    if config.projection is not None:
        d_in = config.embed_dim
        d_out = config.projection.out_dim
        shapes.append(("proj_audio.w", (d_out, d_in)))
        shapes.append(("proj_audio.b", (d_out,)))
        if config.text_mode == "word_average":
            shapes.append(("proj_text.w", (d_out, d_in)))
            shapes.append(("proj_text.b", (d_out,)))
    return shapes


def _xavier_fans(name: str, shape: tuple[int, ...]) -> tuple[int, int]:
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
        fan_in, fan_out = _xavier_fans(name, shape)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        size = int(np.prod(shape))
        draws = gen.uniform_array(size)
        values = (draws * 2.0 - 1.0) * bound
        params[name] = Tensor(values.reshape(shape).astype(dtype))
    return params


class AudioTower:
    """Forward/backward pipeline from a feature matrix to one embedding."""

    def __init__(self, config: ModelConfig, params: Params):
        self.config = config
        self.layers = []
        for i, spec in enumerate(config.audio_tower):
            if spec.kind == "conv1d":
                self.layers.append(Conv1d(params[f"tower{i}.kernels"], params[f"tower{i}.bias"]))
            elif spec.kind == "dense":
                self.layers.append(Dense(params[f"tower{i}.w"], params[f"tower{i}.b"]))
            elif spec.kind in _ACT_OF:
                self.layers.append(Activation(_ACT_OF[spec.kind]))
            elif spec.kind == "max_pool_time":
                self.layers.append(MaxPoolTime(spec.pool_stride))
            elif spec.kind == "mean_pool_time":
                self.layers.append(MeanPoolTime(spec.pool_stride))
            else:  # pragma: no cover - kinds checked in validate()
                raise NnetError(f"unknown tower kind {spec.kind!r}")
        if config.recurrent_cell == "gru":
            self.cell = GRUCell({k: params[f"gru.{k}"] for k in _cell_keys(GRUCell.GATES)})
        elif config.recurrent_cell == "lstm":
            self.cell = LSTMCell({k: params[f"lstm.{k}"] for k in _cell_keys(LSTMCell.GATES)})
        else:
            self.cell = None
        self.pool = MeanPoolTime(0)
        if config.projection is not None:
            self.proj = Projection(
                params["proj_audio.w"], params["proj_audio.b"], config.projection.activation
            )
        else:
            self.proj = None

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
        conv and pool layers clip by clip, one recurrent sweep over every
        clip, then each clip's mean pool and projection."""
        dtype = self.compute_dtype()
        xs, layer_caches = [], []
        for frames in clips:
            x = np.asarray(frames)
            if x.ndim != 2 or x.shape[0] < 1:
                raise NnetError(f"expected a nonempty (T, F) feature matrix, got shape {x.shape}")
            if x.shape[1] != self.config.feature_dim:
                raise NnetError(f"feature dim {x.shape[1]} does not match config feature_dim "
                                f"{self.config.feature_dim}")
            x = x.astype(dtype, copy=False)
            caches = []
            for layer in self.layers:
                x, cache = layer.forward(x)
                caches.append(cache)
            xs.append(x)
            layer_caches.append(caches)
        cell_cache = None
        if self.cell is not None:
            xs, cell_cache = self.cell.sweep(xs)
        outs, head_caches = [], []
        for x in xs:
            pooled, pool_cache = self.pool.forward(x)
            out, proj_cache = pooled, None
            if self.proj is not None:
                out, proj_cache = self.proj.forward(pooled)
            outs.append(out)
            head_caches.append((pool_cache, proj_cache))
        return outs, (layer_caches, cell_cache, head_caches)

    def backward_batch(self, cache, douts) -> None:
        """Accumulate parameter gradients, given one gradient per clip. A cache
        serves one backward; with a recurrent cell a second raises NnetError."""
        layer_caches, cell_cache, head_caches = cache
        dxs = []
        for (pool_cache, proj_cache), dout in zip(head_caches, douts):
            if self.proj is not None:
                dout = self.proj.backward(proj_cache, dout)
            dxs.append(self.pool.backward(pool_cache, dout))
        if self.cell is not None:
            dxs = self.cell.sweep_backward(cell_cache, dxs)
        for caches, dx in zip(layer_caches, dxs):
            for layer, lcache in zip(reversed(self.layers), reversed(caches)):
                dx = layer.backward(lcache, dx)

    def compute_dtype(self):
        # compute dtype follows the parameters; fall back to float32
        for layer in self.layers:
            if isinstance(layer, Conv1d):
                return layer.kernels.dtype
            if isinstance(layer, Dense):
                return layer.w.dtype
        if self.cell is not None:
            return next(iter(self.cell.p.values())).dtype
        if self.proj is not None:
            return self.proj.dense.w.dtype
        return np.float32


def _cell_keys(gates) -> list[str]:
    keys = []
    for gate in gates:
        keys.extend((f"w_{gate}", f"u_{gate}", f"b_{gate}"))
    return keys


def encode_audio(features: FeatureSequence | np.ndarray, config: ModelConfig, params: Params) -> np.ndarray:
    """One clip to one embedding (forward only)."""
    frames = features.frames if isinstance(features, FeatureSequence) else features
    return AudioTower(config, params).forward(frames)[0]


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
        if self.proj is not None:
            out, proj_cache = self.proj.forward(mean)
            return out, proj_cache
        return mean, None

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
