"""Tests for the adapter stack: shapes, attention, losses, gradients, training."""

import json
import math
import struct

import numpy as np
import pytest

from chemlinker.errors import (
    DimensionMismatch,
    EmptyDataset,
    LengthMismatch,
    ShapeError,
    VocabError,
)
from chemlinker.adapternet import (
    Tensor,
    TrainConfig,
    Vocab,
    adapter_attend,
    adapter_ffn,
    batch_loss,
    grad_check,
    init_model,
    load_checkpoint,
    noam_lr,
    pretrain_decoder,
    save_checkpoint,
    smiles_char_vocab,
    teacher_forced_loss,
    train_adapter,
    word_vocab,
)
from chemlinker.adapternet import training
from chemlinker.adapternet.model import (
    ADAPTER,
    adapter_logits,
    as_tensors,
    decode_mol_states,
    encode_text,
    text_keys_values,
)


def forward_logits(params, text_ids, mol_ids, tensors=None) -> Tensor:
    """The full conditional forward of one example, (len(mol_ids),
    mol_vocab) logits: the oracle that the batched decode step and the
    padded training loss are checked against."""
    cfg = params.config
    t = tensors if tensors is not None else as_tensors(params)
    keys_values = text_keys_values(t, cfg.heads, encode_text(t, cfg, text_ids))
    return adapter_logits(t, cfg.heads, decode_mol_states(t, cfg, mol_ids),
                          *keys_values)


def toy_config(**kw):
    defaults = dict(text_vocab=20, mol_vocab=32)
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_vocabs(cfg):
    """A text vocabulary (with <unk>) and a molecule vocabulary of the
    sizes `cfg` names."""
    return (Vocab([f"w{i}" for i in range(cfg.text_vocab - 4)],
                  with_unk=True),
            Vocab([f"m{i}" for i in range(cfg.mol_vocab - 3)]))


def toy_batch():
    return [([1, 4, 5, 2], [1, 6, 7, 8, 9, 2]),
            ([1, 5, 2], [1, 9, 8, 2])]


# --- initialization --------------------------------------------------------------


def test_init_deterministic():
    cfg = toy_config()
    a, b = init_model(cfg), init_model(cfg)
    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_init_shape_errors():
    with pytest.raises(ShapeError):
        init_model(toy_config(heads=3, d_mol=64))
    with pytest.raises(ShapeError):
        init_model(toy_config(warmup_steps=0))
    with pytest.raises(ShapeError):
        init_model(toy_config(heads=0))


def test_default_toy_model_under_1m_params():
    params = init_model(toy_config())
    assert params.count() < 1_000_000


def test_trainable_count_is_adapter_plus_projection():
    params = init_model(toy_config())
    trainable = set(params.trainable_names())
    assert trainable == {n for n in params.tensors
                         if n.startswith(("adapter.", "proj."))}
    cfg = params.config
    expected = (cfg.d_text * cfg.d_mol                    # W_T
                + 4 * cfg.d_mol * cfg.d_mol               # W_Q W_K W_V W_O
                + cfg.d_mol * cfg.d_mol * cfg.ffn_mult * 2
                + cfg.d_mol * cfg.ffn_mult + cfg.d_mol)
    assert params.count(trainable) == expected


# --- adapter attention -----------------------------------------------------------


def _random_states(cfg, m, n, seed=0):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(m, cfg.d_text)).astype(np.float32)
    S = rng.normal(size=(n, cfg.d_mol)).astype(np.float32)
    return T, S


def test_single_text_state_attention():
    params = init_model(toy_config())
    cfg = params.config
    # Give W_O real weights so the value path is observable.
    rng = np.random.default_rng(5)
    params.tensors["adapter.attn.wo"] = rng.normal(
        size=(cfg.d_mol, cfg.d_mol)).astype(np.float32)
    T, S = _random_states(cfg, 1, 6)
    out, weights = adapter_attend(T, S, params)
    assert np.all(weights.data == 1.0)
    value = (T @ params.tensors["proj.w_t"]
             @ params.tensors["adapter.attn.wv"]
             @ params.tensors["adapter.attn.wo"])
    assert np.allclose(out.data, S + value, atol=1e-5)


def test_zero_projection_gives_uniform_attention():
    params = init_model(toy_config())
    params.tensors["proj.w_t"][:] = 0.0
    T, S = _random_states(params.config, 7, 4)
    _, weights = adapter_attend(T, np.zeros_like(S), params)
    assert np.allclose(weights.data, 1.0 / 7, atol=1e-7)


def test_attention_rows_sum_to_one():
    params = init_model(toy_config())
    for seed in range(5):
        T, S = _random_states(params.config, 9, 5, seed)
        _, weights = adapter_attend(T, S, params)
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


def test_untrained_adapter_is_identity():
    params = init_model(toy_config())
    T, S = _random_states(params.config, 6, 4)
    out, _ = adapter_attend(T, S, params)
    tensors = {n: Tensor(v) for n, v in params.tensors.items()}
    final = adapter_ffn(out, tensors)
    assert np.allclose(final.data, S, atol=1e-6)


def test_adapter_dimension_mismatch():
    params = init_model(toy_config())
    with pytest.raises(DimensionMismatch):
        adapter_attend(np.zeros((3, 17)), np.zeros((4, 64)), params)
    with pytest.raises(DimensionMismatch):
        adapter_attend(np.zeros((3, 64)), np.zeros((4, 17)), params)


@pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-6),
                                         (np.float64, 1e-12)])
def test_text_keys_values_fold_the_projection(dtype, bound):
    """T @ (W_T @ W_K) and T @ (W_T @ W_V) are (T @ W_T) @ W_K and
    (T @ W_T) @ W_V up to rounding: the largest difference is within
    `bound` of the largest entry."""
    params = init_model(toy_config())
    cfg = params.config
    t = {n: v.astype(dtype) for n, v in params.tensors.items()}
    T = np.random.default_rng(6).normal(size=(3, 9, cfg.d_text)).astype(dtype)
    projected = T @ t["proj.w_t"]
    for split, w in zip(text_keys_values(t, cfg.heads, T), ("wk", "wv")):
        assert split.dtype == dtype
        joined = split.swapaxes(-3, -2).reshape(projected.shape)
        two_step = projected @ t[f"adapter.attn.{w}"]
        assert (np.abs(joined - two_step).max()
                <= bound * np.abs(two_step).max())


# --- forward pass -----------------------------------------------------------------


def test_logits_shape():
    params = init_model(toy_config())
    logits = forward_logits(params, [1, 4, 5, 2], [1, 6, 7, 8, 9])
    assert logits.shape == (5, 32)


def test_causality_in_mol_positions():
    params = init_model(toy_config())
    text = [1, 4, 5, 2]
    mol = [1, 6, 7, 8, 9, 10]
    base = forward_logits(params, text, mol).data
    for k in range(1, len(mol)):
        perturbed = list(mol)
        perturbed[k] = (perturbed[k] + 1) % 32 or 3
        got = forward_logits(params, text, perturbed).data
        assert np.allclose(got[:k], base[:k], atol=1e-6), k
        assert not np.allclose(got[k:], base[k:]), k


def test_text_tokens_reach_all_positions():
    params = init_model(toy_config())
    # Make the adapter value path active first.
    rng = np.random.default_rng(2)
    params.tensors["adapter.attn.wo"] = rng.normal(
        size=(64, 64)).astype(np.float32) * 0.1
    base = forward_logits(params, [1, 4, 5, 2], [1, 6, 7]).data
    got = forward_logits(params, [1, 7, 5, 2], [1, 6, 7]).data
    assert not np.allclose(got, base)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_stack_on_arrays_matches_tape(dtype):
    """The encoder and decoder on plain arrays give exactly the values of
    the Tensor path, in float32 and in the float64 of `grad_check`."""
    params = init_model(toy_config())
    for name in params.tensors:
        params.tensors[name] = params.tensors[name].astype(dtype)
    cfg, t = params.config, as_tensors(params, ADAPTER)
    text, mol = [1, 4, 5, 6, 7, 2], [1, 6, 7, 8, 9, 10, 11]
    for run in (encode_text, decode_mol_states):
        ids = text if run is encode_text else mol
        plain = run(params.tensors, cfg, ids)
        taped = run(t, cfg, ids)
        assert type(plain) is np.ndarray and isinstance(taped, Tensor)
        assert plain.dtype == dtype
        assert np.array_equal(plain, taped.data)


def test_vocab_errors():
    params = init_model(toy_config())
    with pytest.raises(VocabError):
        forward_logits(params, [1, 99], [1, 6])
    with pytest.raises(VocabError):
        forward_logits(params, [1, 4], [1, 60])


# --- losses ----------------------------------------------------------------------


def test_uniform_logits_loss():
    loss = teacher_forced_loss(np.zeros((4, 32)), [5, 6, 7, 8])
    assert loss == pytest.approx(math.log(32), abs=1e-9)


def test_saturated_logits_loss_near_zero():
    targets = [3, 1, 4]
    logits = np.zeros((3, 32))
    for row, tgt in enumerate(targets):
        logits[row, tgt] = 100.0
    assert teacher_forced_loss(logits, targets) < 1e-6


def test_two_token_hand_example():
    logits = np.array([[1.0, 2.0], [0.5, -0.5]])
    targets = [0, 1]
    expected = -(np.log(np.exp(1) / (np.exp(1) + np.exp(2)))
                 + np.log(np.exp(-0.5) / (np.exp(0.5) + np.exp(-0.5)))) / 2
    assert teacher_forced_loss(logits, targets) == pytest.approx(expected)


def test_pad_positions_excluded():
    logits = np.zeros((3, 8))
    logits[0, 1] = 50.0
    # Positions 1..2 are padding: only position 0 counts.
    assert teacher_forced_loss(logits, [1, 0, 0], pad_id=0) < 1e-6


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        teacher_forced_loss(np.zeros((3, 8)), [1, 2])


# --- schedule and optimization ------------------------------------------------------


def test_noam_reference_values():
    assert noam_lr(4000, 4000, 256) == pytest.approx(9.882117688026186e-4)
    assert noam_lr(1, 4000, 256) == pytest.approx(2.4705294220065464e-7)


def test_noam_rises_then_falls():
    values = [noam_lr(s, 100, 64) for s in range(1, 301)]
    peak = values.index(max(values))
    assert 98 <= peak <= 100
    assert all(values[i] < values[i + 1] for i in range(peak - 1))
    assert all(values[i] > values[i + 1] for i in range(peak + 1, 299))


def test_grad_check_small():
    params = init_model(toy_config())
    assert grad_check(params, toy_batch(), n_coords=40) < 1e-4


def test_grad_check_eps_robust():
    params = init_model(toy_config())
    a = grad_check(params, toy_batch(), eps=1e-5, n_coords=10)
    b = grad_check(params, toy_batch(), eps=2e-5, n_coords=10)
    assert math.isfinite(a) and math.isfinite(b)


def test_frozen_tensors_receive_no_gradient():
    params = init_model(toy_config())
    tensors = {n: Tensor(v, requires_grad=n not in params.frozen)
               for n, v in params.tensors.items()}
    loss = batch_loss(params, toy_batch(), tensors=tensors)
    loss.backward()
    for name in params.frozen:
        assert tensors[name].grad is None, name
    assert tensors["proj.w_t"].grad is not None


def test_only_leaves_keep_gradients():
    """A tensor made by an operation drops its gradient once it has passed
    it on, so the graph never holds every gradient at once."""
    params = init_model(toy_config())
    tensors = as_tensors(params, ADAPTER)
    loss = batch_loss(params, toy_batch(), tensors=tensors)
    loss.backward()
    made, stack, seen = 0, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.parents:
            made += 1
            assert node.grad is None
        stack.extend(node.parents)
    assert made > 10
    for name in params.trainable_names():
        assert tensors[name].grad.shape == params.tensors[name].shape


_MASK = np.array([[0.0, -1e30, 0.0, 0.0]])
# name -> (operation on Tensors, operand shapes); the operands are drawn in
# [0.5, 2) so that rsqrt is defined.
OPERATIONS = {
    "add-broadcast": (lambda a, b: a + b, [(2, 3, 4), (3, 1)]),
    "add-scalar": (lambda a: 2.0 + a, [(3, 4)]),
    "sub-broadcast": (lambda a, b: a - b, [(3, 1), (2, 3, 4)]),
    "mul-broadcast": (lambda a, b: a * b, [(2, 3, 4), (1, 4)]),
    "matmul-batched": (lambda a, b: a @ b, [(2, 3, 4), (4, 5)]),
    "matmul-stacked": (lambda a, b: a @ b, [(2, 3, 4), (2, 4, 5)]),
    "matmul-transposed-view": (lambda a, b: a @ b.swapaxes(-1, -2),
                               [(2, 3, 4), (2, 5, 4)]),
    "swapaxes": (lambda a: a.swapaxes(-3, -1), [(2, 3, 4)]),
    "reshape": (lambda a: a.reshape((3, 4)), [(2, 6)]),
    "tanh": (lambda a: a.tanh(), [(3, 4)]),
    "sum-all": (lambda a: a.sum(), [(3, 4)]),
    "sum-axis": (lambda a: a.sum(axis=1), [(2, 3, 4)]),
    "sum-keepdims": (lambda a: a.sum(axis=-1, keepdims=True), [(2, 3, 4)]),
    "getitem-repeated": (lambda a: a[np.array([1, 3, 1, 1])], [(5, 3)]),
    "rsqrt": (lambda a: a.rsqrt(), [(3, 4)]),
    "softmax-masked": (lambda a: a.softmax(0.7, _MASK), [(2, 3, 4)]),
    "log_softmax": (lambda a: a.log_softmax(), [(3, 4)]),
    "log_softmax-axis0": (lambda a: a.log_softmax(axis=0), [(3, 4)]),
}


@pytest.mark.parametrize("name", OPERATIONS)
def test_operation_gradient_matches_central_differences(name):
    """Each Tensor operation's backward, in float64, against central
    differences of a weighted sum of its output, for every operand."""
    op, shapes = OPERATIONS[name]
    rng = np.random.default_rng(7)
    arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]
    weights = rng.uniform(-1.0, 1.0, size=op(*map(Tensor, arrays)).shape)

    def loss(tensors):
        return (op(*tensors) * Tensor(weights)).sum()

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss(leaves).backward()
    eps = 1e-6
    for leaf, array in zip(leaves, arrays):
        assert leaf.grad.shape == array.shape
        for idx in np.ndindex(array.shape):
            original = array[idx]
            array[idx] = original + eps
            up = float(loss([Tensor(a) for a in arrays]).data)
            array[idx] = original - eps
            down = float(loss([Tensor(a) for a in arrays]).data)
            array[idx] = original
            numeric = (up - down) / (2 * eps)
            assert abs(leaf.grad[idx] - numeric) <= 1e-7 * max(
                1.0, abs(numeric)), (idx, leaf.grad[idx], numeric)


def _no_graph(tensor) -> bool:
    return tensor.parents == () and tensor._grad_fns == ()


def test_nothing_trainable_records_no_graph(monkeypatch):
    """A computation in which no tensor needs a gradient leaves every
    Tensor it returns with no parents and no gradient functions."""
    params = init_model(toy_config())
    rng = np.random.default_rng(3)
    T = rng.standard_normal((4, params.config.d_text))
    S = rng.standard_normal((5, params.config.d_mol))
    assert all(_no_graph(x) for x in adapter_attend(T, S, params))

    losses = []
    original = training._weighted_nll

    def keep_loss(*args):
        losses.append(original(*args))
        return losses[-1]
    monkeypatch.setattr(training, "_weighted_nll", keep_loss)
    logits = rng.standard_normal((3, params.config.mol_vocab))
    assert isinstance(teacher_forced_loss(logits, [1, 2, 3]), float)
    assert len(losses) == 1 and _no_graph(losses[0])

    loss = batch_loss(params, toy_batch(), tensors=as_tensors(params, ()))
    assert _no_graph(loss)


# --- training ---------------------------------------------------------------------


def _training_setup(n_pairs=40, max_steps=80):
    mv = smiles_char_vocab()
    smiles = ["CCO", "CCN", "CCC", "c1ccccc1", "CC(C)O", "CCCl", "C=O",
              "CC(N)C", "COC", "CS"] * 4
    texts = ["molecule written as " + " ".join(s) for s in smiles]
    tv = word_vocab(texts)
    cfg = toy_config(text_vocab=len(tv), mol_vocab=len(mv),
                     max_steps=max_steps, batch_size=8)
    pairs = [([tv.bos] + tv.encode(t.split()) + [tv.eos],
              [mv.bos] + mv.encode(list(s)) + [mv.eos])
             for t, s in zip(texts[:n_pairs], smiles[:n_pairs])]
    return cfg, pairs


def test_training_reduces_loss():
    cfg, pairs = _training_setup()
    params = init_model(cfg)
    params, history = train_adapter(params, pairs)
    assert history[-1] < history[0]


def test_training_is_deterministic():
    cfg, pairs = _training_setup(max_steps=20)
    a, hist_a = train_adapter(init_model(cfg), pairs)
    b, hist_b = train_adapter(init_model(cfg), pairs)
    assert hist_a == hist_b
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_frozen_tensors_unchanged_by_training():
    cfg, pairs = _training_setup(max_steps=30)
    params = init_model(cfg)
    before = {n: params.tensors[n].copy() for n in params.frozen}
    params, _ = train_adapter(params, pairs)
    for name, value in before.items():
        assert np.array_equal(params.tensors[name], value), name


def test_empty_dataset_rejected():
    params = init_model(toy_config())
    with pytest.raises(EmptyDataset):
        train_adapter(params, [])


def test_pretrain_decoder_lowers_loss_and_refreezes():
    """Pretraining moves only the decoder and the head; the roles the names
    give are the same after it."""
    params = init_model(toy_config(warmup_steps=10))
    frozen = set(params.frozen)
    before = {n: v.tobytes() for n, v in params.tensors.items()}
    sequences = [[1, 6, 7, 8, 9, 2], [1, 9, 8, 2], [1, 6, 6, 7, 2]]
    history = pretrain_decoder(params, sequences, steps=30)
    assert len(history) == 30
    assert history[-1] < history[0]
    assert params.frozen == frozen
    moved = {n for n, v in params.tensors.items() if v.tobytes() != before[n]}
    assert moved and all(n.startswith(("mol.", "head.")) for n in moved)

    too_long = [1] + [6] * params.config.max_mol_len + [2]
    with pytest.raises(VocabError):
        pretrain_decoder(params, sequences + [too_long], steps=3)
    assert params.frozen == frozen


# --- checkpoint --------------------------------------------------------------------


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[5:13])
    header = edit(json.loads(blob[13:13 + n]))
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw
                     + blob[13 + n:])


def _with_config(**extra):
    def edit(header):
        header["config"].update(extra)
        return header
    return edit


def _with_shape(name, shape):
    def edit(header):
        for entry in header["tensors"]:
            if entry["name"] == name:
                entry["shape"] = shape
        return header
    return edit


def _without_tensor(name):
    def edit(header):
        header["tensors"] = [e for e in header["tensors"]
                             if e["name"] != name]
        return header
    return edit


def test_checkpoint_round_trip(tmp_path):
    params = init_model(toy_config())
    text_vocab, mol_vocab = toy_vocabs(params.config)
    path = tmp_path / "model.clmk"
    save_checkpoint(params, path, text_vocab, mol_vocab)
    assert path.read_bytes()[:5] == b"CLMK2"
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[5:13])
    assert not any("frozen" in entry
                   for entry in json.loads(blob[13:13 + n])["tensors"])
    loaded = load_checkpoint(path)
    assert loaded.frozen == params.frozen
    assert loaded.config == params.config
    assert loaded.text_vocab.tokens == text_vocab.tokens
    assert loaded.text_vocab.unk == 3
    assert loaded.mol_vocab.tokens == mol_vocab.tokens
    assert loaded.mol_vocab.unk is None
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def test_checkpoint_frozen_flags_are_ignored(tmp_path):
    """A `CLMK2` file written before 0.9.0 carries a `frozen` flag per
    tensor. One that marks an encoder and a decoder tensor trainable still
    loads, and adapter training moves no `text.*`, `mol.*` or `head.*`
    tensor."""
    cfg, pairs = _training_setup(max_steps=10)
    path = tmp_path / "old.clmk"
    save_checkpoint(init_model(cfg), path, *toy_vocabs(cfg))
    thawed = {"text.embed", "mol.0.ffn.w1"}

    def flag(header):
        for entry in header["tensors"]:
            entry["frozen"] = not entry["name"].startswith(
                ("proj.", "adapter.")) and entry["name"] not in thawed
        return header

    _rewrite_header(path, flag)
    params = load_checkpoint(path)
    assert thawed <= params.frozen
    before = {n: v.tobytes() for n, v in params.tensors.items()}
    trained, _ = train_adapter(params, pairs)
    moved = {n for n, v in trained.tensors.items() if v.tobytes() != before[n]}
    assert moved and all(n.startswith(("proj.", "adapter.")) for n in moved)


def test_checkpoint_rejects_vocabulary_of_another_size(tmp_path):
    params = init_model(toy_config())
    text_vocab, mol_vocab = toy_vocabs(params.config)
    path = tmp_path / "model.clmk"
    for vocabs in ((mol_vocab, mol_vocab), (text_vocab, text_vocab)):
        with pytest.raises(ValueError, match="vocabulary is not"):
            save_checkpoint(params, path, *vocabs)
    assert not path.exists()


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.clmk"
    path.write_bytes(b"NOTME" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)

    params = init_model(toy_config())
    save_checkpoint(params, path, *toy_vocabs(params.config))
    good = path.read_bytes()
    (n,) = struct.unpack("<Q", good[5:13])
    for truncated in (good[:9], good[:13 + n // 2]):
        path.write_bytes(truncated)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
    path.write_bytes(b"CLMK1" + good[5:])
    with pytest.raises(ValueError, match="CLMK1 .* retrain"):
        load_checkpoint(path)
    for edit in (_with_config(dropout=0.1),
                 _with_config(layers=5),
                 _with_config(d_mol=-64),
                 _without_tensor("head.b"),
                 _with_shape("mol.pos", [3, 64]),
                 _with_shape("head.b", [-1]),
                 lambda header: [header],
                 lambda header: {**header, "tensors": None},
                 lambda header: {**header, "mol_tokens": None}):
        path.write_bytes(good)
        _rewrite_header(path, edit)
        with pytest.raises(ValueError):
            load_checkpoint(path)
    # A config no model has is named as such, before any layout check.
    for edit, message in ((_with_config(heads=3), "heads must divide"),
                          (_with_config(layers=0), ">= 1 layer")):
        path.write_bytes(good)
        _rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"config: .*{message}"):
            load_checkpoint(path)


# --- vocab -------------------------------------------------------------------------


def test_vocab_round_trip():
    v = Vocab(["x", "y"])
    assert [v.tokens[i] for i in v.encode(["x", "y", "x"])] == ["x", "y", "x"]
    with pytest.raises(VocabError):
        v.encode(["z"])


def test_word_spelling_a_special_token_is_unknown():
    """A description word that spells <eos> or <pad> is not an end of text
    or padding; with no <unk> to map it to, it is an error."""
    text = "a small <eos> alcohol <pad>"
    vocab = word_vocab([text])
    assert vocab.encode(text.split()) == [4, 5, 3, 6, 3]
    assert vocab.unk == 3
    for special in ("<pad>", "<bos>", "<eos>", "<unk>"):
        with pytest.raises(VocabError):
            Vocab(["x", "<unk>"]).encode([special])


def test_smiles_vocab_covers_corpus_characters():
    v = smiles_char_vocab()
    for s in ["CC(=O)Oc1ccccc1C(=O)O", "C[C@H](N)C(=O)O", "C/C=C\\C",
              "[NH4+]", "c1cc2ccccc2cc1"]:
        v.encode(list(s))
