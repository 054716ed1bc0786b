"""Toy text encoder, frozen causal molecule decoder, and the cross-attention
adapter that conditions the decoder on text.

Architecture: pre-layer-norm transformer blocks on both sides. The adapter
sits after the last decoder layer only: text states are projected into the
molecule width by W_T, molecule states act as attention queries, projected
text states are both keys and values, and the result is added residually to
the molecule states (W_O starts at zero so an untrained adapter is a no-op).
A small feed-forward block (second layer also zero-initialized) follows, then
the language-model head. The text encoder, the decoder and the head are
frozen by construction; only the projection and the adapter train.

One model definition serves training and sampling: each forward function
takes the Tensors of `as_tensors` when a gradient is needed, or the plain
arrays of `params.tensors` for the frozen parts, and returns the same kind.
The adapter and decoder functions take any leading batch axes: training
runs them once on a padded batch (`padded_logits`, `decode_ids`), sampling
on a (slots, d) array of one row per slot (`DecodeCache`), one GEMM per weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from chemlinker.errors import DimensionMismatch, ShapeError, VocabError
from chemlinker.adapternet.autograd import Tensor, layer_norm, softmax, tanh


@dataclass
class TrainConfig:
    text_vocab: int
    mol_vocab: int
    d_text: int = 64
    d_mol: int = 64
    layers: int = 2           # transformer blocks per side
    heads: int = 4
    ffn_mult: int = 2
    max_text_len: int = 64
    max_mol_len: int = 80
    warmup_steps: int = 400   # desk-scale default; 4000 at reference scale
    seed: int = 42
    batch_size: int = 16
    max_steps: int = 500


class ModelParams:
    """Named float32 tensors with per-tensor frozen flags; a loaded
    checkpoint also carries the text and molecule vocabularies of its run."""

    def __init__(self, tensors: dict, frozen: set, config: TrainConfig,
                 text_vocab=None, mol_vocab=None):
        self.tensors = tensors
        self.frozen = frozen
        self.config = config
        self.text_vocab = text_vocab
        self.mol_vocab = mol_vocab

    def trainable_names(self) -> list:
        return [n for n in self.tensors if n not in self.frozen]

    def count(self, names=None) -> int:
        names = self.tensors.keys() if names is None else names
        return sum(self.tensors[n].size for n in names)

    def clone(self) -> "ModelParams":
        return ModelParams({n: t.copy() for n, t in self.tensors.items()},
                           set(self.frozen), replace(self.config),
                           self.text_vocab, self.mol_vocab)


def param_layout(cfg: TrainConfig) -> dict:
    """Each tensor's name -> (shape, fill), in `init_model`'s drawing order.
    The fill is "uniform" (scaled by the first dimension), 0.0 or 1.0;
    adapter output paths (W_O, the adapter FFN's second layer) start at 0.
    Raises ShapeError for a config no model has."""
    if cfg.heads < 1 or cfg.d_mol % cfg.heads or cfg.d_text % cfg.heads:
        raise ShapeError("heads must divide d_text and d_mol")
    if cfg.layers < 1 or cfg.text_vocab < 4 or cfg.mol_vocab < 4:
        raise ShapeError("need >= 1 layer and vocabularies incl. specials")
    layout: dict[str, tuple] = {}

    def block(prefix: str, d: int):
        f = d * cfg.ffn_mult
        for w in ("wq", "wk", "wv", "wo"):
            layout[f"{prefix}.attn.{w}"] = ((d, d), "uniform")
        layout[f"{prefix}.ln1.g"] = ((d,), 1.0)
        layout[f"{prefix}.ln1.b"] = ((d,), 0.0)
        layout[f"{prefix}.ffn.w1"] = ((d, f), "uniform")
        layout[f"{prefix}.ffn.b1"] = ((f,), 0.0)
        layout[f"{prefix}.ffn.w2"] = ((f, d), "uniform")
        layout[f"{prefix}.ffn.b2"] = ((d,), 0.0)
        layout[f"{prefix}.ln2.g"] = ((d,), 1.0)
        layout[f"{prefix}.ln2.b"] = ((d,), 0.0)

    layout["text.embed"] = ((cfg.text_vocab, cfg.d_text), "uniform")
    layout["text.pos"] = ((cfg.max_text_len, cfg.d_text), "uniform")
    for i in range(cfg.layers):
        block(f"text.{i}", cfg.d_text)
    layout["mol.embed"] = ((cfg.mol_vocab, cfg.d_mol), "uniform")
    layout["mol.pos"] = ((cfg.max_mol_len, cfg.d_mol), "uniform")
    for i in range(cfg.layers):
        block(f"mol.{i}", cfg.d_mol)

    layout["proj.w_t"] = ((cfg.d_text, cfg.d_mol), "uniform")
    for w in ("wq", "wk", "wv"):
        layout[f"adapter.attn.{w}"] = ((cfg.d_mol, cfg.d_mol), "uniform")
    layout["adapter.attn.wo"] = ((cfg.d_mol, cfg.d_mol), 0.0)
    f = cfg.d_mol * cfg.ffn_mult
    layout["adapter.ffn.w1"] = ((cfg.d_mol, f), "uniform")
    layout["adapter.ffn.b1"] = ((f,), 0.0)
    layout["adapter.ffn.w2"] = ((f, cfg.d_mol), 0.0)
    layout["adapter.ffn.b2"] = ((cfg.d_mol,), 0.0)

    layout["head.w"] = ((cfg.d_mol, cfg.mol_vocab), "uniform")
    layout["head.b"] = ((cfg.mol_vocab,), 0.0)
    return layout


def init_model(cfg: TrainConfig) -> ModelParams:
    """Deterministic scaled-uniform initialization of `param_layout(cfg)`."""
    layout = param_layout(cfg)
    if cfg.warmup_steps < 1:
        raise ShapeError("warmup_steps must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    t: dict[str, np.ndarray] = {}
    for name, (shape, fill) in layout.items():
        if fill == "uniform":
            bound = 1.0 / math.sqrt(shape[0])
            t[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            t[name] = np.full(shape, fill, dtype=np.float32)
    frozen = {n for n in t if n.startswith(("text.", "mol.", "head."))}
    return ModelParams(t, frozen, replace(cfg))


# --- forward pass ----------------------------------------------------------------


def as_tensors(params: ModelParams, grad: bool = False,
               prefixes: tuple | None = None) -> dict:
    """Wrap every tensor, or those whose names start with one of `prefixes`;
    with `grad`, the non-frozen ones record gradients."""
    return {n: Tensor(v, requires_grad=grad and n not in params.frozen)
            for n, v in params.tensors.items()
            if prefixes is None or n.startswith(prefixes)}


def _heads_split(x, heads: int):
    """(..., n, d) -> (..., heads, n, d // heads)."""
    return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-3, -2)


def _heads_join(x):
    """(..., heads, n, d_head) -> (..., n, heads * d_head)."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], -1))


def _attention(q, k, v, wo, mask=None, rows=None):
    """Multi-head attention of per-head queries over per-head keys and
    values, each (..., heads, length, d_head); returns (output, weights
    (..., heads, n, m)). `mask` is added to the scores. A decoding step
    joins the heads into `rows`, (slots, d), so `wo` is one GEMM."""
    weights = softmax(q @ k.swapaxes(-2, -1), 1.0 / math.sqrt(q.shape[-1]),
                      mask)
    out = weights @ v
    out = _heads_join(out) if rows is None else out.reshape(rows)
    return out @ wo, weights


def _layer(t: dict, prefix: str) -> dict:
    """The weights of block `prefix`, by their names after `prefix.`."""
    start = prefix + "."
    return {n[len(start):]: v for n, v in t.items() if n.startswith(start)}


def _block(x, w: dict, heads: int, mask=None, cache=None):
    """Pre-layer-norm transformer block with the weights `w` (`_layer`).
    `cache` is (keys, values, positions, slot indices) of one decoder layer
    for x of one row per slot, (slots, d), so each dense weight is one GEMM
    over the slots: the block stores each slot's key and value at that
    slot's position in the (slots, heads, length, d_head) buffers, and each
    slot's query, (slots, heads, 1, d_head), attends over its own buffer,
    whose keys past the slot's position `mask` removes."""
    h = layer_norm(x, w["ln1.g"], w["ln1.b"])
    q, k, v = h @ w["attn.wq"], h @ w["attn.wk"], h @ w["attn.wv"]
    rows = None if cache is None else x.shape
    if cache is None:
        q, k, v = (_heads_split(a, heads) for a in (q, k, v))
    else:
        keys, values, positions, slots = cache
        q = q.reshape(len(x), heads, 1, -1)
        keys[slots, :, positions] = k.reshape(len(x), heads, -1)
        values[slots, :, positions] = v.reshape(len(x), heads, -1)
        k, v = keys, values
    x = x + _attention(q, k, v, w["attn.wo"], mask, rows)[0]
    h = layer_norm(x, w["ln2.g"], w["ln2.b"])
    ffn = tanh(h @ w["ffn.w1"] + w["ffn.b1"])
    return x + ffn @ w["ffn.w2"] + w["ffn.b2"]


_MASKED = -1e30  # a masked score underflows to weight 0 in float32 and float64


def _causal_mask(n: int) -> np.ndarray:
    return np.triu(np.full((n, n), _MASKED, dtype=np.float32), k=1)


def _check_ids(ids, vocab: int, limit: int, what: str) -> np.ndarray:
    ids = np.asarray(list(ids), dtype=np.int64)
    if ids.size == 0:
        raise VocabError(f"empty {what} sequence")
    if ids.min() < 0 or ids.max() >= vocab:
        raise VocabError(f"{what} token id outside vocabulary of {vocab}")
    if ids.size > limit:
        raise VocabError(f"{what} sequence longer than positional table")
    return ids


def encode_text(t: dict, cfg: TrainConfig, text_ids):
    ids = _check_ids(text_ids, cfg.text_vocab, cfg.max_text_len, "text")
    x = t["text.embed"][ids] + t["text.pos"][np.arange(len(ids))]
    for i in range(cfg.layers):
        x = _block(x, _layer(t, f"text.{i}"), cfg.heads)
    return x


def decode_mol_states(t: dict, cfg: TrainConfig, mol_ids):
    ids = _check_ids(mol_ids, cfg.mol_vocab, cfg.max_mol_len, "molecule")
    return decode_ids(t, cfg, ids)


def decode_ids(t: dict, cfg: TrainConfig, ids: np.ndarray):
    """Decoder states (..., n, d_mol) of checked (..., n) ids; by the causal
    mask, a row right-padded in a batch gets the states of its ids alone."""
    n = ids.shape[-1]
    x = t["mol.embed"][ids] + t["mol.pos"][np.arange(n)]
    mask = _causal_mask(n)
    for i in range(cfg.layers):
        x = _block(x, _layer(t, f"mol.{i}"), cfg.heads, mask)
    return x


def text_keys_values(t: dict, heads: int, T):
    """The adapter's per-head keys and values of the text states T."""
    projected = T @ t["proj.w_t"]
    return tuple(_heads_split(projected @ t[f"adapter.attn.{w}"], heads)
                 for w in ("wk", "wv"))


def _cross_attend(t: dict, heads: int, S, keys, values, mask=None):
    """Molecule states S query the text keys and values; returns (updated S,
    attention weights). `mask` is an additive mask on the text keys."""
    q = _heads_split(S @ t["adapter.attn.wq"], heads)
    out, weights = _attention(q, keys, values, t["adapter.attn.wo"], mask)
    return S + out, weights


def adapter_attend(T_states, S_states, params: ModelParams):
    """Cross-attention update: molecule states query projected text states.

    Takes state arrays and returns Tensors (updated S, attention weights).
    Attention rows always sum to 1; with a single text state every weight
    is exactly 1 and the update is the value projection of that state.
    """
    t = as_tensors(params)
    T, S = Tensor(T_states), Tensor(S_states)
    if T.data.ndim != 2 or S.data.ndim != 2:
        raise DimensionMismatch("adapter expects 2-D state matrices")
    if T.shape[1] != t["proj.w_t"].shape[0]:
        raise DimensionMismatch(
            f"text width {T.shape[1]} != W_T rows {t['proj.w_t'].shape[0]}")
    if S.shape[1] != t["adapter.attn.wq"].shape[0]:
        raise DimensionMismatch(
            f"molecule width {S.shape[1]} != adapter width")
    heads = params.config.heads
    return _cross_attend(t, heads, S, *text_keys_values(t, heads, T))


def adapter_ffn(S, t: dict):
    h = tanh(S @ t["adapter.ffn.w1"] + t["adapter.ffn.b1"])
    return S + h @ t["adapter.ffn.w2"] + t["adapter.ffn.b2"]


def adapter_logits(t: dict, heads: int, S, keys, values, mask=None):
    """Cross-attention, adapter FFN and head on the decoder states S and the
    text keys and values: returns (..., len(S), mol_vocab) logits. `mask`
    is an additive mask on the text keys."""
    S, _ = _cross_attend(t, heads, S, keys, values, mask)
    return adapter_ffn(S, t) @ t["head.w"] + t["head.b"]


def padded_logits(t: dict, heads: int, states) -> Tensor:
    """Adapter logits of a batch in one graph. `states` holds each example's
    frozen (text states, molecule states) arrays. They are padded with zeros
    to the batch's longest, and padded text keys are masked out, so row i of
    example b is that example's own logits row i; rows past an example's
    molecule are padding. Returns (batch, longest molecule, mol_vocab)."""
    text_len = max(len(T) for T, _ in states)
    mol_len = max(len(S) for _, S in states)
    T0, S0 = states[0]
    T = np.zeros((len(states), text_len, T0.shape[1]), T0.dtype)
    S = np.zeros((len(states), mol_len, S0.shape[1]), S0.dtype)
    mask = np.zeros((len(states), 1, 1, text_len), T0.dtype)
    for b, (Tb, Sb) in enumerate(states):
        T[b, :len(Tb)], S[b, :len(Sb)] = Tb, Sb
        mask[b, ..., len(Tb):] = _MASKED
    keys, values = text_keys_values(t, heads, Tensor(T))
    return adapter_logits(t, heads, Tensor(S), keys, values, mask)


# --- cached decoding -------------------------------------------------------------


@dataclass(frozen=True)
class Prompt:
    """What sampling needs of one prompt: the model, and the adapter's keys
    and values of the encoded text, each (heads, text length, d_head)."""

    params: ModelParams
    text_keys: np.ndarray
    text_values: np.ndarray


def prepare_prompt(params: ModelParams, text_ids) -> Prompt:
    """Encode the text and project the adapter's keys and values, once."""
    t, cfg = params.tensors, params.config
    return Prompt(params, *text_keys_values(
        t, cfg.heads, encode_text(t, cfg, text_ids)))


class DecodeCache:
    """Per-layer key/value buffers of the frozen decoder for `slots`
    sequences sampled side by side, each at its own position; `step` feeds
    one token per slot, as one row of a (slots, d) array, and returns each
    slot's next-token logits."""

    def __init__(self, prompt: Prompt, slots: int):
        cfg = prompt.params.config
        self.prompt = prompt
        self.keys = np.zeros((cfg.layers, slots, cfg.heads, cfg.max_mol_len,
                              cfg.d_mol // cfg.heads), prompt.text_keys.dtype)
        self.values = np.zeros_like(self.keys)
        self.positions = np.zeros(slots, dtype=np.int64)
        self._slots = np.arange(slots)
        self._layers = [_layer(prompt.params.tensors, f"mol.{i}")
                        for i in range(cfg.layers)]
        self._mask = _causal_mask(cfg.max_mol_len).astype(self.keys.dtype)

    def restart(self, slot: int) -> None:
        """Start a new sequence in `slot`, at position 0."""
        self.positions[slot] = 0

    def step(self, tokens) -> np.ndarray:
        """(slots, mol_vocab) logits after one token per slot. A slot's row
        matches the last row of the full forward pass (`encode_text`,
        `decode_mol_states`, then `adapter_logits`) on that slot's prefix to
        within float32 rounding, whatever its neighbours hold; a GEMM over
        several slots rounds unlike one slot's one-row products."""
        prompt = self.prompt
        cfg, t = prompt.params.config, prompt.params.tensors
        tokens = np.asarray(tokens, dtype=np.int64)
        n = self.positions
        if tokens.shape != n.shape:
            raise ShapeError(f"need one token for each of {len(n)} slots")
        if tokens.min() < 0 or tokens.max() >= cfg.mol_vocab:
            raise VocabError(
                f"molecule token id outside vocabulary of {cfg.mol_vocab}")
        length = int(n.max()) + 1
        if length > cfg.max_mol_len:
            raise VocabError("molecule sequence longer than positional table")
        x = t["mol.embed"][tokens] + t["mol.pos"][n]
        mask = self._mask[n, :length][:, None, None]
        for i, w in enumerate(self._layers):
            cache = (self.keys[i, ..., :length, :],
                     self.values[i, ..., :length, :], n, self._slots)
            x = _block(x, w, cfg.heads, mask, cache)
        self.positions = n + 1
        return adapter_logits(t, cfg.heads, x, prompt.text_keys,
                              prompt.text_values)

