"""Model checkpoint serialization.

Layout: magic "CKPT", a u32-LE header length, a canonical JSON header,
then each parameter's float32 little-endian buffer concatenated in
header order. The header's parameter list is ordered, so the byte
stream is fully determined by (config, params, epoch, metric) and a
save/load/save round trip is byte-identical. Loading checks the
parameter list against the one the header's model config implies.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, parameter_shapes
from .tensor import Params, Tensor

_MAGIC = b"CKPT"


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    config: dict
    params: Params
    epoch: int
    best_validation_map10: float


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, config: dict, params: Params, epoch: int,
                    best_validation_map10: float) -> None:
    header = {
        "config": config,
        "parameters": [{"name": name, "shape": list(t.data.shape)}
                       for name, t in params.items()],
        "epoch": int(epoch),
        "best_validation_mAP10": float(best_validation_map10),
    }
    blob = _canonical_json(header)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for t in params.values():
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def _check_parameter_list(path, header) -> list[tuple[str, tuple[int, ...]]]:
    """Names, order and shapes must be exactly parameter_shapes(config);
    returns that list."""
    try:
        expected = parameter_shapes(ModelConfig.from_dict(header["config"]))
        found = [(entry["name"], tuple(int(s) for s in entry["shape"]))
                 for entry in header["parameters"]]
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
    return expected


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    for key in ("config", "parameters", "epoch", "best_validation_mAP10"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    params: Params = {}
    off = 8 + hlen
    for name, shape in _check_parameter_list(path, header):
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
        config=header["config"],
        params=params,
        epoch=int(header["epoch"]),
        best_validation_map10=float(header["best_validation_mAP10"]),
    )
