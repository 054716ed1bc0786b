"""Checkpoint file format.

Layout: 5-byte magic ``CLMK1``, 8-byte little-endian header length, UTF-8
JSON header, then the concatenated little-endian float32 tensor payload.
The header records tensor names, shapes, byte offsets, frozen flags, and an
echo of the training configuration.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from chemlinker.adapternet.model import ModelParams, TrainConfig

MAGIC = b"CLMK1"
_RETIRED_SWITCHES = ("finetune_text", "train_head", "unscaled_attention")


def save_checkpoint(params: ModelParams, path) -> None:
    offset = 0
    entries = []
    blobs = []
    for name in sorted(params.tensors):
        array = np.ascontiguousarray(params.tensors[name], dtype="<f4")
        blob = array.tobytes()
        entries.append({
            "name": name,
            "shape": list(array.shape),
            "offset": offset,
            "frozen": name in params.frozen,
        })
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({
        "dtype": "f4",
        "tensors": entries,
        "config": dataclasses.asdict(params.config),
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; raises ValueError for any file it cannot read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != MAGIC:
        raise ValueError(f"not a checkpoint file (magic {blob[:5]!r})")
    if len(blob) < 13:
        raise ValueError("truncated checkpoint header")
    (header_len,) = struct.unpack_from("<Q", blob, 5)
    if len(blob) < 13 + header_len:
        raise ValueError("truncated checkpoint header")
    header = json.loads(blob[13:13 + header_len].decode("utf-8"))
    try:
        return _params_from(header, memoryview(blob)[13 + header_len:])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"unreadable checkpoint header: {exc!r}") from exc


def _params_from(header: dict, payload) -> ModelParams:
    if header.get("dtype") != "f4":
        raise ValueError("unsupported tensor dtype")
    tensors = {}
    frozen = set()
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        array = np.frombuffer(
            payload, dtype="<f4", count=count, offset=entry["offset"])
        tensors[entry["name"]] = array.reshape(shape).copy()
        if entry["frozen"]:
            frozen.add(entry["name"])
    config = dict(header["config"])
    # Older checkpoints echo three switches that could only be False.
    for key in _RETIRED_SWITCHES:
        if config.pop(key, False) is not False:
            raise ValueError(f"checkpoint trained with {key}, "
                             "which is no longer supported")
    return ModelParams(tensors, frozen, TrainConfig(**config))
