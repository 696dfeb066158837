"""Model checkpoint serialization.

Layout: magic "CKPT", a u32-LE header length, a canonical JSON header,
then each parameter's float32 little-endian buffer concatenated in
header order. The header's parameter list is ordered, so the byte
stream is fully determined by (config, params, epoch, metric). Loading
parses the header's model config once, into ``Checkpoint.model``, and
checks the parameter list against the one it implies. Saving writes the
config's full ``ModelConfig.to_dict()`` form, so a save/load/save round
trip is byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ..corpus import atomic_write, parse_json
from .model import ModelConfig, check_field_types, parameter_shapes
from .tensor import Params, Tensor

_MAGIC = b"CKPT"


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    model: ModelConfig
    params: Params
    epoch: int
    best_validation_map10: float

    @property
    def config(self) -> dict:
        """The model config as the header holds it: ``model.to_dict()``."""
        return self.model.to_dict()


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, config: dict, params: Params, epoch: int,
                    best_validation_map10: float) -> None:
    """Write a checkpoint, its header config in the full ``to_dict()`` form; a
    config or parameter list that ``load_checkpoint`` would refuse raises its
    CheckpointError, and nothing is written."""
    header = {
        "config": config,
        "parameters": [{"name": name, "shape": list(t.data.shape)}
                       for name, t in params.items()],
        "epoch": int(epoch),
        "best_validation_mAP10": float(best_validation_map10),
    }
    config, _ = _check_header(path, header)
    blob = _canonical_json({**header, "config": config.to_dict()})
    with atomic_write(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for t in params.values():
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def _check_header(path, header) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    """An ``epoch`` integer >= 0 and a ``best_validation_mAP10`` number in
    [0, 1], and parameter names, order and shapes exactly
    parameter_shapes(config); returns the config and that list."""
    check_field_types(header, ints=("epoch",), numbers=("best_validation_mAP10",),
                      error=lambda msg: CheckpointError(f"{path}: header {msg}"))
    if header["epoch"] < 0:
        raise CheckpointError(f"{path}: header epoch: must be >= 0, got {header['epoch']!r}")
    if not 0.0 <= header["best_validation_mAP10"] <= 1.0:  # NaN fails both
        raise CheckpointError(f"{path}: header best_validation_mAP10: must be in [0, 1], "
                              f"got {header['best_validation_mAP10']!r}")
    try:
        config = ModelConfig.from_dict(header["config"])
        expected = parameter_shapes(config)
        found = [(entry["name"], entry["shape"]) for entry in header["parameters"]]
        for name, shape in found:  # a bool is not an int here
            if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
                raise ValueError(f"parameter {name!r}: shape must be a list of "
                                 f"non-negative integers, got {shape!r}")
        found = [(name, tuple(shape)) for name, shape in found]
    except (KeyError, TypeError, ValueError) as e:  # ValueError covers NnetError
        raise CheckpointError(f"{path}: invalid config or parameter list: {e}") from e
    found_names = [name for name, _ in found]
    for name, _ in expected:
        if name not in found_names:
            raise CheckpointError(f"{path}: missing parameter {name!r} required by its config")
    if found_names != [name for name, _ in expected]:
        raise CheckpointError(f"{path}: parameter names or order disagree with its config")
    for (name, shape), (_, want) in zip(found, expected):
        if shape != want:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {shape}, config expects {want}")
    return config, expected


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    header = parse_json(raw[8:8 + hlen], path, CheckpointError, "corrupt header")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("config", "parameters", "epoch", "best_validation_mAP10"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    config, expected = _check_header(path, header)
    params: Params = {}
    off = 8 + hlen
    for name, shape in expected:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
        arr = np.frombuffer(raw[off:off + nbytes], dtype="<f4").reshape(shape)
        params[name] = Tensor(arr.copy())
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after payload")
    return Checkpoint(
        model=config,
        params=params,
        epoch=header["epoch"],
        best_validation_map10=float(header["best_validation_mAP10"]),
    )
