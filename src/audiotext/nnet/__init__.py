"""Minimal differentiable neural core.

Dense, 1-D convolution, GRU/LSTM cells, pooling, and activations with
hand-written reverse-mode gradients; composition is fixed to the audio
tower pipeline (conv stack -> recurrent sweep -> mean pool -> optional
projection) rather than a generic graph. Every backward pass is
certified against central finite differences in 64-bit mode.
"""

from .tensor import Tensor, Params, zero_grads, clone_params
from .layers import (
    Dense,
    Conv1d,
    Activation,
    MaxPoolTime,
    MeanPoolTime,
    GRUCell,
    LSTMCell,
    Projection,
    NnetError,
)
from .model import (
    LayerSpec,
    ProjectionSpec,
    ModelConfig,
    default_tower,
    init_params,
    parameter_shapes,
    AudioTower,
    TextEmbedder,
    encode_audio,
)
from .checkpoint import Checkpoint, save_checkpoint, load_checkpoint

__all__ = [
    "Tensor", "Params", "zero_grads", "clone_params",
    "Dense", "Conv1d", "Activation", "MaxPoolTime", "MeanPoolTime",
    "GRUCell", "LSTMCell", "Projection",
    "NnetError",
    "LayerSpec", "ProjectionSpec", "ModelConfig", "default_tower",
    "init_params", "parameter_shapes", "AudioTower", "TextEmbedder",
    "encode_audio",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
]
