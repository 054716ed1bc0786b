"""Training goldens, the frozen-state cache of `train_adapter`, and the
padded batch losses of adapter training and decoder pretraining checked
against per-example oracles.

The digests pin every tensor and the loss history bit for bit; they were
recorded again when the adapter began to fold the text projection into its
key and value weights and the matmul gradient began to copy its transposed
right operand (0.18.0), so a refactor must run the same numpy operations on
the same inputs.
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
        "20631434d69150d62854fd68127a55e644782642f5170f199b7b709dd6e64daf",
    (7, 12, 3):
        "9724e68a13ce38eadd0676013bdbe898d7570368afa495abeff2f28f5600f8c9",
    (11, 20, 64):
        "20a0923f2b23a424311c9c2f600ad77b80df3e5806a17449f7d010e7ae025e96",
}
# Pretraining, then adapter training; recorded again at 0.18.0.
PRETRAINED_GOLDEN = (
    "51510be8f4a05cdf95956eba1b830ebd8509d461023652bd396a5c5029a8cd91")


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


def _counting_stacks(monkeypatch):
    """Patch both frozen encoders to record the shape of each id stack they
    are given; returns {encoder name: [shapes]}."""
    stacks = {"encode_text": [], "decode_mol_states": []}
    for name in stacks:
        original = getattr(model, name)

        def wrapper(t, cfg, ids, name=name, original=original):
            stacks[name].append(np.asarray(ids).shape)
            return original(t, cfg, ids)
        monkeypatch.setattr(training, name, wrapper)
    return stacks


@pytest.mark.parametrize("steps,visits", [(1, 4), (10, 12)])
def test_frozen_states_one_call_per_length_of_visited_examples(
        monkeypatch, steps, visits):
    """With lengths repeated, each encoder runs once per distinct length
    among the examples the walk visits, on a stack of those examples; one
    step at batch 4 over 12 examples encodes its 4 examples and no other."""
    pairs = _pairs()[0][:6] * 2
    cfg = _config(3, steps, 4)
    visited = sorted({i for batch in training._batches(12, steps, 4, 3)
                      for i in batch})
    assert len(visited) == visits
    stacks = _counting_stacks(monkeypatch)
    train_adapter(init_model(cfg), pairs)
    for name, lengths in (
            ("encode_text", [len(pairs[i][0]) for i in visited]),
            ("decode_mol_states", [len(pairs[i][1]) - 1 for i in visited])):
        got = stacks[name]
        assert sorted(n for _, n in got) == sorted(set(lengths)), name
        assert sum(rows for rows, _ in got) == visits, name
        assert sorted(got) == sorted((lengths.count(n), n)
                                     for n in set(lengths)), name


def _random_ids(rng, rows, length, vocab):
    return rng.integers(0, vocab, size=(rows, length)).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("encoder", ["encode_text", "decode_mol_states"])
def test_stacked_rows_equal_lone_rows(encoder, dtype):
    """A (rows, n) id stack gives each row the states of the row alone, to
    the last bit, for lengths around numpy's 8-way pairwise sum and up to
    the positional table (64 text tokens, 80 molecule tokens)."""
    cfg = TrainConfig(text_vocab=30, mol_vocab=43)
    params = _active_params(cfg, dtype)
    encode = getattr(model, encoder)
    vocab, limit = ((cfg.text_vocab, cfg.max_text_len)
                    if encoder == "encode_text"
                    else (cfg.mol_vocab, cfg.max_mol_len))
    rng = np.random.default_rng(11)
    for length in (1, 7, 8, 9, 16, limit):
        for rows in (2, 5, 16):
            stack = _random_ids(rng, rows, length, vocab)
            got = encode(params.tensors, cfg, stack)
            assert got.shape[:2] == (rows, length) and got.dtype == dtype
            for r, ids in enumerate(stack):
                lone = encode(params.tensors, cfg, ids)
                assert got[r].tobytes() == lone.tobytes(), (length, rows, r)


@pytest.mark.parametrize("encoder", ["encode_text", "decode_mol_states"])
def test_stack_raises_what_a_lone_row_raises(encoder):
    """A stack of rows past the positional table, or with an id outside the
    vocabulary, raises the VocabError of one such row alone."""
    cfg = TrainConfig(text_vocab=30, mol_vocab=43)
    params = init_model(cfg)
    encode = getattr(model, encoder)
    vocab, limit = ((cfg.text_vocab, cfg.max_text_len)
                    if encoder == "encode_text"
                    else (cfg.mol_vocab, cfg.max_mol_len))
    rng = np.random.default_rng(12)
    too_long = _random_ids(rng, 3, limit + 1, vocab)
    outside = _random_ids(rng, 3, 9, vocab)
    outside[1][4] = vocab
    for stack in (too_long, outside):
        with pytest.raises(VocabError) as lone:
            encode(params.tensors, cfg, stack[1])
        with pytest.raises(VocabError) as stacked:
            encode(params.tensors, cfg, stack)
        assert str(stacked.value) == str(lone.value)


@pytest.mark.parametrize("which", ["ragged", "repeated"])
def test_batch_loss_of_stacked_states_is_the_lone_loss(which):
    """`batch_loss` computes its states in stacks; its float64 loss and
    gradients are those of one encoder call per example, to the last bit."""
    batch = ORACLE_BATCHES[which]()
    params = _active_params(_config(5, 1, len(batch)), np.float64)
    cfg, frozen = params.config, params.tensors

    def lone_loss(params, batch, tensors):
        states = [(model.encode_text(frozen, cfg, text),
                   model.decode_mol_states(frozen, cfg, mol[:-1]))
                  for text, mol in batch]
        return training._padded_loss(
            model.padded_logits(tensors, cfg.heads, states),
            [training._molecule_row(cfg, mol) for _, mol in batch])

    want_loss, want = _loss_and_grads(lone_loss, params, batch)
    got_loss, got = _loss_and_grads(training.batch_loss, params, batch)
    assert got_loss == want_loss
    for name, grad in want.items():
        assert got[name].tobytes() == grad.tobytes(), name


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
    with every tensor as it was; `train_adapter` names the example."""
    pairs = _pairs()[0][:20]
    mol = pairs[0][1]
    pairs.append((pairs[0][0], mol[:1] + [mol[1]] * 81 + mol[-1:]))
    params = init_model(_config(2, 30, 4))
    assert len(pairs) - 1 not in next(training._batches(len(pairs), 30, 4, 2))
    before = {n: v.tobytes() for n, v in params.tensors.items()}
    with pytest.raises(VocabError, match="molecule sequence of 82 tokens "
                                         "longer than positional table of "
                                         "80") as caught:
        if trainer == "train_adapter":
            train_adapter(params, pairs)
        else:
            pretrain_decoder(params, [m for _, m in pairs], steps=30, seed=2)
    assert {n: v.tobytes() for n, v in params.tensors.items()} == before
    if trainer == "train_adapter":
        assert caught.value.example == len(pairs) - 1


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


def _loss_and_grads(loss_fn, params, batch, trains=model.ADAPTER):
    tensors = model.as_tensors(params, trains)
    loss = loss_fn(params, batch, tensors)
    loss.backward()
    return float(loss.data), {n: t.grad for n, t in tensors.items()
                              if n.startswith(trains)}


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
    want_loss, want = _loss_and_grads(_reference_decoder_loss, params, batch,
                                      training.DECODER)
    got_loss, got = _loss_and_grads(
        lambda p, b, t: training._decoder_loss(
            t, p.config, b, [training._molecule_row(p.config, m) for m in b]),
        params, batch, training.DECODER)
    assert abs(got_loss - want_loss) <= loss_tol
    for name, grad in want.items():
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
    wrap when negative, in 0.2.0) and an empty batch."""
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
