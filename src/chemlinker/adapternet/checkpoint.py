"""Checkpoint file format.

Layout: 5-byte magic ``CLMK2``, 8-byte little-endian header length, UTF-8
JSON header, then the concatenated little-endian float32 tensor payload.
The header records tensor names, shapes and byte offsets, an echo of the
training configuration, and the token lists of the text and molecule
vocabularies (``text_tokens``, ``mol_tokens``), so a checkpoint is the one
file sampling needs. The ``frozen`` flags of earlier files are ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from chemlinker.errors import ShapeError
from chemlinker.adapternet.model import ModelParams, TrainConfig, param_layout
from chemlinker.adapternet.vocab import UNK, Vocab

MAGIC = b"CLMK2"


def save_checkpoint(params: ModelParams, path, text_vocab: Vocab,
                    mol_vocab: Vocab) -> None:
    """Write `params` with the vocabularies whose ids it was trained on;
    raises ValueError for vocabularies `load_checkpoint` would reject."""
    _vocab_from(text_vocab.tokens, params.config.text_vocab, "text")
    _vocab_from(mol_vocab.tokens, params.config.mol_vocab, "molecule")
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
        })
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({
        "dtype": "f4",
        "tensors": entries,
        "config": dataclasses.asdict(params.config),
        "text_tokens": text_vocab.tokens,
        "mol_tokens": mol_vocab.tokens,
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
    if blob[:5] == b"CLMK1":
        raise ValueError("checkpoint format CLMK1 keeps no vocabularies; "
                         "retrain it with this version")
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
    except ShapeError as exc:
        raise ValueError(f"checkpoint config: {exc}") from exc


def _params_from(header: dict, payload) -> ModelParams:
    if header.get("dtype") != "f4":
        raise ValueError("unsupported tensor dtype")
    config = TrainConfig(**header["config"])
    text_vocab = _vocab_from(header["text_tokens"], config.text_vocab, "text")
    mol_vocab = _vocab_from(header["mol_tokens"], config.mol_vocab, "molecule")
    layout = sorted((name, list(shape))
                    for name, (shape, _) in param_layout(config).items())
    if any(d < 0 for _, shape in layout for d in shape):
        raise ValueError("checkpoint config has a negative dimension")
    entries = header["tensors"]
    if [(e["name"], e["shape"]) for e in entries] != layout:
        raise ValueError("checkpoint tensors differ from the layout of its "
                         "config")
    tensors = {name: np.frombuffer(payload, dtype="<f4",
                                   count=math.prod(shape),
                                   offset=e["offset"]).reshape(shape).copy()
               for e, (name, shape) in zip(entries, layout)}
    return ModelParams(tensors, config, text_vocab, mol_vocab)


def _vocab_from(tokens, size: int, kind: str) -> Vocab:
    """The vocabulary that saved `tokens`, rebuilt id for id."""
    if (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and len(set(tokens)) == len(tokens)):
        vocab = Vocab(tokens, with_unk=UNK in tokens)
        if vocab.tokens == tokens and len(vocab) == size:
            return vocab
    raise ValueError(f"checkpoint {kind} vocabulary is not the list of "
                     f"{size} tokens that train saves")
