"""Training goldens, the frozen-state cache of `train_adapter`, and the
padded batch losses of adapter training and decoder pretraining checked
against per-example oracles.

The digests pin every tensor and the loss history bit for bit; they were
recorded when each step became one padded graph over the batch (0.3.0), so
a refactor must run the same numpy operations on the same inputs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from chemlinker.adapternet import (
    Tensor,
    TrainConfig,
    init_model,
    model,
    pretrain_decoder,
    smiles_char_vocab,
    train_adapter,
    training,
    word_vocab,
)
from chemlinker.errors import (
    ChemlinkerError,
    EmptyDataset,
    LengthMismatch,
    UnsupportedFeature,
    VocabError,
)
from chemlinker.rng import SplitMix64
from test_adapternet import forward_logits

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
        "996008e200fc6cefc2ef546e19ba180a5b597c0fddf4dd772ed640d23a8c75b8",
    (7, 12, 3):
        "b1522e0f3c308cec70efd6d4f7c0302d2b97ab9a228c6b1a2ac0c83f6aa7676a",
    (11, 20, 64):
        "d34f36b0c8120f5831119c09abd052a530249b26f6cb4347a88536a6219d6d87",
}
# Recorded when pretraining began to run one padded pass per step (0.6.0).
PRETRAINED_GOLDEN = (
    "d6f8d7b7dfdb9fa57da05f2d1ed5e7a2741cdfb06c54a18af4b7734d4684f7bc")


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


@pytest.mark.parametrize("steps,batch,named", [
    (0, 4, "max_steps must be >= 1, not 0"),
    (-2, 4, "max_steps must be >= 1, not -2"),
    (3, 0, "batch_size must be >= 1, not 0")])
def test_train_adapter_rejects_no_steps_or_empty_batches(steps, batch, named):
    """Pretraining shares the batcher and its checks; its `steps` plays the
    part of max_steps."""
    cfg = _config(3, steps, batch)
    with pytest.raises(ValueError, match=named):
        train_adapter(init_model(cfg), _pairs()[0][:4])
    with pytest.raises(ValueError, match=named):
        pretrain_decoder(init_model(cfg), [m for _, m in _pairs()[0][:4]],
                         steps=steps)


@pytest.mark.parametrize("trainer", ["train_adapter", "pretrain_decoder"])
def test_bad_example_drawn_late_moves_no_tensor(trainer):
    """Both trainers check every example before the first step: a molecule
    too long for the positional table, first drawn after step 1, raises
    with every tensor as it was."""
    pairs = _pairs()[0][:20]
    mol = pairs[0][1]
    pairs.append((pairs[0][0], mol[:1] + [mol[1]] * 81 + mol[-1:]))
    params = init_model(_config(2, 30, 4))
    assert len(pairs) - 1 not in next(training._batches(len(pairs), 30, 4, 2))
    before = {n: v.tobytes() for n, v in params.tensors.items()}
    with pytest.raises(VocabError, match="longer than positional table"):
        if trainer == "train_adapter":
            train_adapter(params, pairs)
        else:
            pretrain_decoder(params, [m for _, m in pairs], steps=30, seed=2)
    assert {n: v.tobytes() for n, v in params.tensors.items()} == before


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


# --- the padded batch loss against the per-example oracle --------------------


def _reference_batch_loss(params, batch, tensors):
    """The per-example loss: one `forward_logits` graph per pair, each
    pair's mean token loss, then the mean over the batch."""
    total = None
    for text_ids, mol_ids in batch:
        logits = forward_logits(params, text_ids, mol_ids[:-1],
                                tensors=tensors)
        loss = training.teacher_forced_loss(logits, mol_ids[1:], pad_id=0)
        total = loss if total is None else total + loss
    return total * (1.0 / len(batch))


def _active_params(cfg, dtype):
    """Init weights with the zero-initialized output paths made nonzero, so
    every trainable tensor gets a gradient."""
    params = init_model(cfg)
    rng = np.random.default_rng(8)
    for name in ("adapter.attn.wo", "adapter.ffn.w2"):
        params.tensors[name] = rng.normal(
            scale=0.1, size=params.tensors[name].shape)
    for name in params.tensors:
        params.tensors[name] = params.tensors[name].astype(dtype)
    return params


def _loss_and_grads(loss_fn, params, batch):
    tensors = model.as_tensors(params, grad=True)
    loss = loss_fn(params, batch, tensors)
    loss.backward()
    return float(loss.data), {n: tensors[n].grad
                              for n in params.trainable_names()}


def _first_batch(seed, batch):
    pairs = _pairs()[0]
    return [pairs[i] for i in
            SplitMix64(seed).sample_indices(len(pairs), len(pairs))[:batch]]


def _ragged_batch():
    """Texts and molecules of four different lengths each, long texts
    paired with short molecules."""
    pairs = sorted(_pairs()[0], key=lambda p: len(p[1]))
    picks = [pairs[0], pairs[13], pairs[26], pairs[39]]
    assert len({len(p[1]) for p in picks}) == 4
    return [(text, mol) for (text, _), (_, mol)
            in zip(picks, reversed(picks))]


# Batch 64 over the 40 pairs gives one whole permutation, with no repeats;
# "repeated" repeats examples.
ORACLE_BATCHES = {
    **{f"first-{seed}-{steps}-{batch}":
       (lambda seed=seed, batch=batch: _first_batch(seed, batch))
       for seed, steps, batch in sorted(GOLDEN)},
    "repeated": lambda: [_pairs()[0][i] for i in (3, 17, 3, 8, 17, 3)],
    "ragged": _ragged_batch,
}


@pytest.mark.parametrize("dtype,loss_tol,grad_tol",
                         [(np.float32, 1e-6, 1e-5), (np.float64, 1e-12, 1e-12)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("which", sorted(ORACLE_BATCHES))
def test_batch_loss_matches_per_example_oracle(which, dtype, loss_tol,
                                               grad_tol):
    batch = ORACLE_BATCHES[which]()
    params = _active_params(_config(5, 1, len(batch)), dtype)
    want_loss, want = _loss_and_grads(_reference_batch_loss, params, batch)
    got_loss, got = _loss_and_grads(training.batch_loss, params, batch)
    assert abs(got_loss - want_loss) <= loss_tol
    for name, grad in want.items():
        assert got[name].dtype == dtype, name
        scale = np.abs(grad).max()
        assert scale > 0, name
        assert np.abs(got[name] - grad).max() <= grad_tol * scale, name


# --- padded pretraining against the per-sequence oracle ----------------------


def _reference_decoder_loss(params, sequences, tensors):
    """The per-sequence loss: each sequence's decoder states @ head, its
    mean token loss, then the mean over the batch."""
    total = None
    for mol_ids in sequences:
        S = model.decode_mol_states(tensors, params.config, mol_ids[:-1])
        logits = S @ tensors["head.w"] + tensors["head.b"]
        loss = training.teacher_forced_loss(logits, mol_ids[1:], pad_id=0)
        total = loss if total is None else total + loss
    return total * (1.0 / len(sequences))


@pytest.mark.parametrize("dtype,loss_tol,grad_tol",
                         [(np.float32, 1e-6, 1e-5), (np.float64, 1e-12, 1e-12)],
                         ids=["float32", "float64"])
def test_decoder_loss_matches_per_sequence_oracle(dtype, loss_tol, grad_tol):
    """Five molecules of five lengths, the longest in the middle, so most
    rows of the padded decoder pass hold <pad> after their molecule."""
    mols = sorted((m for _, m in _pairs()[0]), key=len)
    batch = [mols[i] for i in (0, 30, 39, 10, 20)]
    assert len(set(map(len, batch))) == 5
    params = _active_params(_config(5, 1, len(batch)), dtype)
    params.frozen = {n for n in params.frozen
                     if not n.startswith(("mol.", "head."))}
    want_loss, want = _loss_and_grads(_reference_decoder_loss, params, batch)
    got_loss, got = _loss_and_grads(
        lambda p, b, t: training._decoder_loss(t, p.config, b), params, batch)
    assert abs(got_loss - want_loss) <= loss_tol
    for name, grad in want.items():
        if not name.startswith(("mol.", "head.")):
            continue
        assert got[name].dtype == dtype, name
        scale = np.abs(grad).max()
        assert scale > 0, name
        assert np.abs(got[name] - grad).max() <= grad_tol * scale, name


# --- errors at the boundary ----------------------------------------------------

BAD_PAIRS = {
    "bos-only-molecule": (lambda text, mol, cfg: (text, mol[:1]),
                          VocabError),
    "all-pad-target": (lambda text, mol, cfg: (text, [mol[0], 0, 0]),
                       LengthMismatch),
    "text-id-outside-vocab": (
        lambda text, mol, cfg: (text[:-1] + [cfg.text_vocab], mol),
        VocabError),
    "text-too-long": (
        lambda text, mol, cfg: ([text[0]] * (cfg.max_text_len + 1), mol),
        VocabError),
}


@pytest.mark.parametrize("entry", ["train_adapter", "batch_loss"])
@pytest.mark.parametrize("case", sorted(BAD_PAIRS))
def test_bad_pair_raises_the_same_error(case, entry):
    make, error = BAD_PAIRS[case]
    pairs = _pairs()[0][:4]
    cfg = _config(3, 1, 4)
    pairs[2] = make(*pairs[2], cfg)
    params = init_model(cfg)
    with pytest.raises(ChemlinkerError) as caught:
        if entry == "train_adapter":
            train_adapter(params, pairs)
        else:
            training.batch_loss(params, pairs)
    assert type(caught.value) is error


def test_padded_rows_match_lone_logits():
    """An example's rows of the padded batch are its own 2-D logits,
    whatever the other examples are: longer or shorter text and molecule."""
    params = _active_params(_config(5, 1, 4), np.float32)
    cfg, frozen = params.config, params.tensors
    t = model.as_tensors(params)
    pairs = sorted(_pairs()[0], key=lambda p: len(p[1]))
    states = [(model.encode_text(frozen, cfg, text),
               model.decode_mol_states(frozen, cfg, mol[:-1]))
              for text, mol in pairs]
    for e in (0, 20, 39):
        T, S = states[e]
        lone = model.adapter_logits(
            t, cfg.heads, Tensor(S),
            *model.text_keys_values(t, cfg.heads, Tensor(T))).data
        for others in ([], [39], [0, 5], [10, 30, 39]):
            batch = [states[i] for i in others]
            batch.insert(len(others) // 2, states[e])
            padded = model.padded_logits(t, cfg.heads, batch).data
            rows = padded[len(others) // 2, :len(S)]
            assert np.abs(rows - lone).max() <= 1e-6, (e, others)


def test_grad_check_on_ragged_batch():
    """float64 gradients through the 4-D head transposes and the masked
    softmax, with every adapter path active."""
    params = _active_params(_config(5, 1, 4), np.float32)
    assert training.grad_check(params, _ragged_batch(), n_coords=40) < 1e-4


def _tensors_per_step(monkeypatch, train, steps):
    """Tensors built per step by `train()`, which returns its loss history."""
    built = [0]
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    assert len(train()) == steps
    return built[0] / steps


def test_tensors_per_step(monkeypatch):
    """One graph per step: the Tensors a step builds do not grow with the
    batch (627 per step when each example had its own graph)."""
    params = init_model(_config(3, 3, 16))
    per_step = _tensors_per_step(
        monkeypatch, lambda: train_adapter(params, _pairs()[0])[1], 3)
    assert per_step < 100, per_step


def test_tensors_per_pretraining_step(monkeypatch):
    """One padded decoder pass per step (1,853 Tensors per step at batch 16
    when each sequence had its own graph)."""
    params = init_model(_config(3, 3, 16))
    mols = [m for _, m in _pairs()[0]]
    per_step = _tensors_per_step(
        monkeypatch, lambda: pretrain_decoder(params, mols, steps=3), 3)
    assert per_step < 200, per_step


def test_batch_loss_rejects_what_it_cannot_score():
    """A last molecule id outside the vocabulary (an IndexError, or a silent
    wrap when negative, in 0.2.0), an empty batch, and a thawed encoder,
    whose gradient the frozen states would not carry."""
    pairs = _pairs()[0][:2]
    params = init_model(_config(3, 1, 2))
    for last in (params.config.mol_vocab, -1):
        bad = [pairs[0], (pairs[1][0], pairs[1][1][:-1] + [last])]
        with pytest.raises(VocabError):
            training.batch_loss(params, bad)
        with pytest.raises(VocabError):
            train_adapter(params, bad)
    with pytest.raises(EmptyDataset):
        training.batch_loss(params, [])
    params.frozen.discard("text.embed")
    with pytest.raises(UnsupportedFeature, match="text.embed"):
        training.batch_loss(params, pairs)
