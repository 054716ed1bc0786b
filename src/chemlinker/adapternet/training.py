"""Teacher-forced training of the adapter, Noam schedule, Adam moments, and
finite-difference gradient verification.

`train_adapter` computes the frozen text-encoder and decoder states of the
examples its batch walk visits once per run, before the first step and on
plain arrays, so the tape holds only the adapter, the head and the loss.
`_frozen_states` encodes examples of one length as one stack of at most
`STACK_ROWS` rows, which needs no padding, so each example's states are its
lone call's to the last bit. The states take at most
(max_text_len * d_text + max_mol_len * d_mol) * 4 bytes per distinct example
visited (36 KB at the defaults).

Each step is one graph over the whole batch: the states are padded to the
batch's longest text and molecule, padded text keys are masked out of the
attention, and padded molecule rows weigh 0 in the loss (`padded_logits`).
Each example's target row (`_molecule_row`) is built once per run, and a step
scatters its batch's rows into one weight array. `batch_loss` computes the
states afresh through `_frozen_states` and takes the same padded loss, and
so does `pretrain_decoder`, on one decoder pass over its batch. Both
trainers draw batches from `_batches` and check every example before the
first step, so a bad example moves no weight.
"""

from __future__ import annotations

import numpy as np

from chemlinker.errors import EmptyDataset, LengthMismatch, VocabError
from chemlinker.adapternet.autograd import Tensor
from chemlinker.adapternet.model import (
    ADAPTER,
    ModelParams,
    _check_ids,
    as_tensors,
    decode_mol_states,
    encode_text,
    padded_logits,
)
from chemlinker.rng import SplitMix64

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
ADAPTER_READS = ("proj.", "adapter.", "head.")   # what an adapter step reads
DECODER = ("mol.", "head.")   # what pretraining trains, and all it reads
STACK_ROWS = 64   # rows per frozen-encoder call: bounds its activations


def noam_lr(step: int, warmup: int, d_model: int) -> float:
    """d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1:
        raise ValueError("step starts at 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def teacher_forced_loss(logits, targets, pad_id: int | None = None):
    """Mean token-level cross-entropy; pad-target positions are excluded.

    Returns a scalar Tensor when given a Tensor, else a float.
    """
    as_tensor = isinstance(logits, Tensor)
    logit_t = logits if as_tensor else Tensor(np.asarray(logits))
    targets = list(targets)
    n, vocab = logit_t.shape
    if len(targets) != n:
        raise LengthMismatch(
            f"{len(targets)} targets for {n} logit rows")
    row = _target_row(targets, vocab, pad_id)
    loss = _weighted_nll(logit_t, _target_weights([row], n, vocab)[0])
    return loss if as_tensor else float(loss.data)


def _target_row(targets, vocab: int, pad_id: int | None) -> tuple:
    """(positions, ids) of an example's non-pad targets."""
    targets = np.asarray(targets, dtype=np.int64)
    keep = np.flatnonzero(targets != pad_id) if pad_id is not None \
        else np.arange(len(targets))
    if not keep.size:
        raise LengthMismatch("all target positions are padding")
    if targets.min() < 0 or targets.max() >= vocab:
        raise VocabError(f"target id outside vocabulary of {vocab}")
    return keep, targets[keep]


def _target_weights(rows, length: int, vocab: int) -> np.ndarray:
    """(len(rows), length, vocab) one-hot weights of the target rows
    (`_target_row`): 1 / (n * B) on each of an example's n targets, for B
    examples, so the weighted negative log-likelihood is the mean over the
    batch of each example's mean. Rows past an example's targets weigh 0."""
    counts = [len(positions) for positions, _ in rows]
    examples = np.repeat(np.arange(len(rows)), counts)
    positions = np.concatenate([positions for positions, _ in rows])
    ids = np.concatenate([ids for _, ids in rows])
    weights = np.zeros((len(rows), length, vocab))
    weights[examples, positions, ids] = np.repeat(
        [1.0 / (n * len(rows)) for n in counts], counts)
    return weights


def _weighted_nll(logits, weights: np.ndarray) -> Tensor:
    return (logits.log_softmax(axis=-1) * Tensor(weights)).sum() * -1.0


def _padded_loss(logits, rows) -> Tensor:
    """Mean per-example teacher-forced loss of a batch from its (batch,
    length, mol_vocab) logits of mol_ids[:-1], right-padded, and the target
    rows of its mol_ids[1:]; padded rows weigh 0."""
    _, length, vocab = logits.shape
    return _weighted_nll(logits, _target_weights(rows, length, vocab))


def _molecule_row(cfg, mol_ids) -> tuple:
    """Raise what a step would on the molecule, its inputs mol_ids[:-1] and
    its targets mol_ids[1:]; else return the targets' row."""
    _check_ids(mol_ids[:-1], cfg.mol_vocab, cfg.max_mol_len, "molecule")
    return _target_row(mol_ids[1:], cfg.mol_vocab, pad_id=0)


def _stacked(encode, params: ModelParams, sequences) -> list:
    """encode(tensors, config, ids) of each sequence: one call per stack of
    at most STACK_ROWS sequences of one length, in order of first
    appearance."""
    by_length: dict[int, list] = {}
    for i, ids in enumerate(sequences):
        by_length.setdefault(len(ids), []).append(i)
    out = [None] * len(sequences)
    for group in by_length.values():
        for start in range(0, len(group), STACK_ROWS):
            stack = group[start:start + STACK_ROWS]
            states = encode(params.tensors, params.config,
                            [sequences[i] for i in stack])
            for i, rows in zip(stack, states):
                out[i] = rows
    return out


def _frozen_states(params: ModelParams, pairs) -> list:
    """Each (text_ids, mol_ids) pair's frozen (text states, decoder states
    of mol_ids[:-1]) arrays, computed in equal-length stacks."""
    return list(zip(
        _stacked(encode_text, params, [text for text, _ in pairs]),
        _stacked(decode_mol_states, params, [mol[:-1] for _, mol in pairs])))


def _batches(n: int, steps: int, batch_size: int, seed: int):
    """Checks the counts; then yields `steps` batches lazily, each the next
    batch_size indices (at most n) of a walk over seeded permutations."""
    for name, value in (("max_steps", steps), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, not {value}")
    if not n:
        raise EmptyDataset("training set is empty")

    def walk():
        rng = SplitMix64(seed)
        order: list[int] = []
        for _ in range(steps):
            if len(order) < batch_size:
                order += rng.sample_indices(n, n)
            yield order[:batch_size]
            order = order[batch_size:]

    return walk()


def batch_loss(params: ModelParams, batch, tensors=None) -> Tensor:
    """Mean per-pair teacher-forced loss over (text_ids, mol_ids) pairs.

    mol_ids must include BOS...EOS; inputs are mol_ids[:-1], targets
    mol_ids[1:]. The encoder and decoder run on plain arrays, so only the
    adapter's tensors get a gradient.
    """
    batch = list(batch)
    if not batch:
        raise EmptyDataset("batch is empty")
    t = tensors if tensors is not None else as_tensors(
        params, ADAPTER, ADAPTER_READS)
    cfg = params.config
    states = _frozen_states(params, batch)
    rows = [_molecule_row(cfg, mol_ids) for _, mol_ids in batch]
    return _padded_loss(padded_logits(t, cfg.heads, states), rows)


def _adam(params: ModelParams, cfg, batches, loss_of, trains: tuple,
          reads: tuple) -> list:
    """Adam under the Noam schedule, one step per batch; only the tensors
    whose names start with one of `trains` are updated. `loss_of(tensors,
    batch)` builds the step's loss from the tensors whose names start with
    one of `reads`. Returns the loss of each step."""
    moments = {n: (np.zeros_like(v), np.zeros_like(v))
               for n, v in params.tensors.items() if n.startswith(trains)}
    history = []
    for step, batch in enumerate(batches, start=1):
        tensors = as_tensors(params, trains, reads)
        loss = loss_of(tensors, batch)
        loss.backward()
        history.append(float(loss.data))
        del loss   # frees the step's graph before the next step builds one
        lr = noam_lr(step, cfg.warmup_steps, cfg.d_mol)
        for name, (m, v) in moments.items():
            grad = tensors[name].grad
            if grad is None:
                continue
            m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
            m_hat = m / (1 - ADAM_BETA1 ** step)
            v_hat = v / (1 - ADAM_BETA2 ** step)
            params.tensors[name] -= (
                lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(np.float32)
    return history


def train_adapter(params: ModelParams, dataset, cfg=None):
    """Adam under the Noam schedule; only the projection and the adapter
    (`ADAPTER`) are updated.

    Batches walk seeded permutations of the dataset. Returns
    (params, loss_history). Deterministic given cfg.seed. Every example is
    checked before the first step; an example that fails raises its error
    with the attribute `example`, its index in `dataset`. Only the examples
    the walk visits get frozen states.
    """
    cfg = cfg or params.config
    dataset = list(dataset)
    batches = list(_batches(len(dataset), cfg.max_steps, cfg.batch_size,
                            cfg.seed))
    model_cfg = params.config
    rows = []
    for i, (text_ids, mol_ids) in enumerate(dataset):
        try:
            _check_ids(text_ids, model_cfg.text_vocab, model_cfg.max_text_len,
                       "text")
            rows.append(_molecule_row(model_cfg, mol_ids))
        except (LengthMismatch, VocabError) as exc:
            exc.example = i
            raise
    visited = sorted({i for batch in batches for i in batch})
    states = dict(zip(visited, _frozen_states(
        params, [dataset[i] for i in visited])))

    def loss_of(t, batch):
        return _padded_loss(
            padded_logits(t, model_cfg.heads, [states[i] for i in batch]),
            [rows[i] for i in batch])

    return params, _adam(params, cfg, batches, loss_of, ADAPTER,
                         ADAPTER_READS)


def _decoder_loss(t: dict, cfg, mol_batch, rows) -> Tensor:
    """Mean per-molecule next-token loss of the decoder and head, one pass
    over the batch's mol_ids[:-1] right-padded with <pad> (id 0), against
    the target rows (`_molecule_row`) of its mol_ids[1:]."""
    ids = np.zeros((len(mol_batch), max(map(len, mol_batch)) - 1), np.int64)
    for b, mol_ids in enumerate(mol_batch):
        ids[b, :len(mol_ids) - 1] = mol_ids[:-1]
    return _padded_loss(
        decode_mol_states(t, cfg, ids) @ t["head.w"] + t["head.b"], rows)


def pretrain_decoder(params: ModelParams, mol_sequences, steps: int,
                     seed: int = 0) -> list:
    """Unconditional next-token pretraining of the decoder + head
    (`DECODER`), on `steps` batches drawn as `train_adapter` draws them,
    seeded with `seed`. Nothing else is read or updated."""
    cfg = params.config
    sequences = list(mol_sequences)
    batches = _batches(len(sequences), steps, cfg.batch_size, seed)
    rows = [_molecule_row(cfg, mol_ids) for mol_ids in sequences]
    return _adam(params, cfg, batches, lambda t, batch: _decoder_loss(
        t, cfg, [sequences[i] for i in batch], [rows[i] for i in batch]),
        DECODER, DECODER)


def grad_check(params: ModelParams, batch, eps: float = 1e-5,
               n_coords: int = 60, seed: int = 1) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64. Coordinates are sampled across all trainable tensors.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps must be in [1e-6, 1e-3]")
    work = params.clone()
    for name in work.tensors:
        work.tensors[name] = work.tensors[name].astype(np.float64)

    tensors = as_tensors(work, ADAPTER)
    loss = batch_loss(work, batch, tensors=tensors)
    loss.backward()

    trainable = work.trainable_names()
    sizes = [work.tensors[n].size for n in trainable]
    total = sum(sizes)
    rng = SplitMix64(seed)
    worst = 0.0
    fixed = as_tensors(work, (), ADAPTER_READS)   # same arrays; no graph
    for _ in range(n_coords):
        flat = int(rng.uniform() * total)
        name = None
        for n, size in zip(trainable, sizes):
            if flat < size:
                name = n
                break
            flat -= size
        array = work.tensors[name]
        idx = np.unravel_index(flat, array.shape)
        analytic = float(tensors[name].grad[idx]) \
            if tensors[name].grad is not None else 0.0
        original = array[idx]
        array[idx] = original + eps
        up = float(batch_loss(work, batch, fixed).data)
        array[idx] = original - eps
        down = float(batch_loss(work, batch, fixed).data)
        array[idx] = original
        numeric = (up - down) / (2 * eps)
        denom = max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
