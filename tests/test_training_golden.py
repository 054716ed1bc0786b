"""Training goldens and the frozen-state cache of `train_adapter`.

The digests were recorded before `train_adapter` cached each example's
frozen text-encoder and decoder states; they pin every tensor and the loss
history bit for bit, so caching (and pruning the tape to what needs a
gradient) must run the same numpy operations on the same inputs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from chemlinker.adapternet import (
    TrainConfig,
    init_model,
    model,
    pretrain_decoder,
    smiles_char_vocab,
    train_adapter,
    training,
    word_vocab,
)
from chemlinker.errors import ChemlinkerError, UnsupportedFeature

CORPUS = (Path(__file__).parent / "fixtures" / "corpus_500.smi"
          ).read_text().split()[:40]


def _pairs():
    texts = ["molecule written as " + " ".join(s) for s in CORPUS]
    tvocab, mvocab = word_vocab(texts), smiles_char_vocab()
    pairs = [([tvocab.bos] + tvocab.encode(t.split()) + [tvocab.eos],
              [mvocab.bos] + mvocab.encode(list(s)) + [mvocab.eos])
             for t, s in zip(texts, CORPUS)]
    return pairs, len(tvocab), len(mvocab)


def _config(seed, steps, batch):
    _, text_vocab, mol_vocab = _pairs()
    return TrainConfig(text_vocab=text_vocab, mol_vocab=mol_vocab,
                       max_text_len=80, warmup_steps=20, seed=seed,
                       max_steps=steps, batch_size=batch)


def _digest(params, history) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    h.update(repr(history).encode())
    return h.hexdigest()


# (seed, steps, batch) -> digest; batch 64 exceeds the 40 pairs.
GOLDEN = {
    (5, 30, 16):
        "6fd9449b403b27d7c7d7718bf66f0f5e83a310fe85a4c07e97f9a37c5543d443",
    (7, 12, 3):
        "84b4cc58d7d793ca70be03ecc47a05b346297f7892cb0c36d3e95285e7de1202",
    (11, 20, 64):
        "500112dfb69139b34bee21da77d61cbcb17e24a922d3e03b18c6e63b295fc4d8",
}
PRETRAINED_GOLDEN = (
    "fa401fc4e2be78584357332f70c3aa15581839f31f50019421b2090345be4672")


@pytest.mark.parametrize("seed,steps,batch", sorted(GOLDEN))
def test_train_adapter_golden(seed, steps, batch):
    cfg = _config(seed, steps, batch)
    params, history = train_adapter(init_model(cfg), _pairs()[0])
    assert len(history) == steps
    assert _digest(params, history) == GOLDEN[seed, steps, batch]


def test_pretrain_then_train_golden():
    pairs = _pairs()[0]
    params = init_model(_config(5, 30, 16))
    pre = pretrain_decoder(params, [m for _, m in pairs], steps=10)
    params, history = train_adapter(params, pairs)
    assert _digest(params, pre + history) == PRETRAINED_GOLDEN


def test_frozen_states_computed_once_per_example(monkeypatch):
    calls = {"encode_text": 0, "decode_mol_states": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(model, name)
        for module in (model, training):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, original))
    pairs = _pairs()[0][:6]
    cfg = _config(3, 10, 4)
    _, history = train_adapter(init_model(cfg), pairs)
    assert len(history) == 10
    assert calls == {"encode_text": 6, "decode_mol_states": 6}


@pytest.mark.parametrize("name", ["mol.0.ffn.w1", "text.embed"])
def test_thawed_encoder_or_decoder_rejected(name):
    pairs = _pairs()[0][:4]
    params = init_model(_config(3, 2, 2))
    params.frozen.discard(name)
    before = params.tensors[name].copy()
    with pytest.raises(UnsupportedFeature, match=name):
        train_adapter(params, pairs)
    assert issubclass(UnsupportedFeature, ChemlinkerError)
    assert np.array_equal(params.tensors[name], before)
