"""Seeded autoregressive sampling, temperature escalation, and the four-way
candidate filter with exact accounting.

Sampling is continuously batched: SLOTS candidates share each decoder step,
and a slot whose candidate ends (EOS or max_len) takes the next candidate
at once. A `generate_unique_set` call encodes its prompt once, into one
`DecodeCache` that every temperature of the escalation reuses. Each
candidate draws from its own SplitMix64 stream, one uniform per token, so
its string does not depend on its slot or on its neighbours' tokens. Their
positions can still move the last bit of its logits, since a step attends
over the keys up to the furthest slot's position, and so turn a draw that
lies within rounding of a token boundary. Finished candidates are filtered
and counted in candidate order, exactly as a one-at-a-time run over the
same streams would count them, and sampling stops as soon as the target is
reached.

Filter taxonomy (applied in this order, one outcome per candidate):
Invalid (in-alphabet but unparseable, as in "." or "C("),
NaturalLanguage (characters outside the molecular alphabet), Salts
(multiple fragments or a bare charged atom), SingleElement (all heavy
atoms share one element), else Pass. Deduplication
uses the canonical SMILES of parseable candidates and the raw string
otherwise; repeated candidates count as duplicates, not re-filtered.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from chemlinker.errors import (
    DecodeFailure,
    ParseError,
    TargetUnreached,
    VocabError,
)
from chemlinker.adapternet.model import _MASKED, DecodeCache
from chemlinker.adapternet.vocab import SMILES_CHARS, smiles_char_vocab
from chemlinker.molstring import canonical_smiles, decode_selfies, parse_smiles
from chemlinker.rng import SplitMix64

_ALPHABET = frozenset(SMILES_CHARS)
_ALL_BRACKETS = re.compile(r"(\[[^\[\]]*\])+$")
ESCALATION_STEP = 0.5
MAX_TEMPERATURE = 4.5
SLOTS = 16  # candidates that share each decoder step


class FilterOutcome(enum.Enum):
    PASS = "Pass"
    INVALID = "Invalid"
    NATURAL_LANGUAGE = "NaturalLanguage"
    SALTS = "Salts"
    SINGLE_ELEMENT = "SingleElement"


# The GenerationStats field each outcome counts into.
_COUNTERS = {
    FilterOutcome.PASS: "success",
    FilterOutcome.INVALID: "invalid",
    FilterOutcome.NATURAL_LANGUAGE: "nl",
    FilterOutcome.SALTS: "salts",
    FilterOutcome.SINGLE_ELEMENT: "se",
}


@dataclass
class GenerationConfig:
    target_unique: int
    max_len: int = 78
    base_temperature: float = 1.0
    base_seed: int = 42
    per_temperature_cap: int = 1000

    def __post_init__(self):
        if self.target_unique < 1:
            raise ValueError(
                f"target_unique must be >= 1, not {self.target_unique}")
        if not 0 < self.base_temperature <= MAX_TEMPERATURE:
            raise ValueError(
                f"need 0 < base_temperature <= {MAX_TEMPERATURE}")
        if self.per_temperature_cap < 1:
            raise ValueError("per_temperature_cap must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass
class GenerationStats:
    sample: int = 0
    duplicate: int = 0
    unique: int = 0
    invalid: int = 0
    nl: int = 0
    salts: int = 0
    se: int = 0
    success: int = 0

    def record(self, outcome: FilterOutcome | None) -> None:
        """Count one sample: a filter outcome, or None for a duplicate."""
        self.sample += 1
        if outcome is None:
            self.duplicate += 1
            return
        self.unique += 1
        counter = _COUNTERS[outcome]
        setattr(self, counter, getattr(self, counter) + 1)

    @property
    def success_rate(self) -> float:
        return self.success / self.unique if self.unique else 0.0

    def validate(self) -> None:
        if self.sample - self.duplicate != self.unique:
            raise ValueError("sample - duplicate != unique")
        if self.unique != (self.success + self.invalid + self.nl
                           + self.salts + self.se):
            raise ValueError("unique != success + filter rejections")

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "success_rate": self.success_rate})


def sample_tokens(logits, temperature: float, streams) -> np.ndarray:
    """Inverse-CDF multinomial draw of one token per row of the (rows,
    vocab) `logits`; row i consumes exactly one uniform of `streams[i]`."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = np.divide(logits, temperature, dtype=np.float64)
    scaled -= scaled.max(axis=1, keepdims=True)
    probs = np.exp(scaled, out=scaled)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    draws = np.array([rng.uniform() for rng in streams])
    # The count of cumulative sums <= u is searchsorted(side="right").
    return np.minimum((cum <= draws[:, None]).sum(axis=1),
                      probs.shape[1] - 1)


def sample_candidates(cache: DecodeCache, vocab, temperature: float,
                      max_len: int, streams):
    """Yield one string per stream of `streams`, in stream order.

    Each string starts at BOS and stops at EOS or after max_len tokens; its
    k-th token consumes the k-th uniform of its own stream, and `<pad>` and
    `<bos>` are never drawn. The cache's slots share each decoder step, and
    a finished candidate's slot takes the next stream at once. A string
    depends on its stream, not on its slot or its neighbours' tokens; the
    neighbours' positions can move the last bit of its logits (see the
    module docstring). Nothing is drawn while the caller holds a yielded
    string, so a caller that stops iterating stops the draws.
    """
    slots = len(cache.positions)
    queue = enumerate(streams)
    live: dict = {}    # slot -> (candidate index, stream, drawn token ids)
    done: dict = {}    # candidate index -> string, until its turn
    tokens = np.full(slots, vocab.bos)
    turn = 0

    def start(slot):
        candidate = next(queue, None)
        if candidate is not None:
            cache.restart(slot)
            tokens[slot] = vocab.bos
            live[slot] = (*candidate, [])

    for slot in range(slots):
        start(slot)
    while live:
        if len(live) < slots:       # idle slots once the streams run out
            for slot in range(slots):
                if slot not in live:
                    cache.restart(slot)
        logits = cache.step(tokens)
        rows = list(live)
        logits = logits[rows]
        logits[:, (vocab.pad, vocab.bos)] = _MASKED
        drawn_now = sample_tokens(logits, temperature,
                                  [live[slot][1] for slot in rows])
        for slot, token in zip(rows, drawn_now.tolist()):
            index, _, drawn = live[slot]
            tokens[slot] = token
            if token != vocab.eos:
                drawn.append(token)
                if len(drawn) < max_len:
                    continue
            done[index] = "".join(vocab.tokens[t] for t in drawn)
            del live[slot]
            start(slot)
        while turn in done:
            yield done.pop(turn)
            turn += 1


def classify_filter(candidate: str) -> FilterOutcome:
    """One outcome per candidate; see module docstring for the order."""
    return _classify(candidate)[0]


def _classify(candidate: str):
    """(outcome, the parsed or decoded Molecule or None)."""
    mol = None
    bracket_form = bool(_ALL_BRACKETS.fullmatch(candidate))
    try:
        mol = parse_smiles(candidate)
    except ParseError:
        if bracket_form:
            try:
                mol = decode_selfies(candidate)
            except DecodeFailure:
                mol = None
    if mol is None:
        # A pure bracket-token string is a failed SELFIES derivation, not
        # stray natural language, whatever letters the tokens contain.
        if not bracket_form and any(ch not in _ALPHABET for ch in candidate):
            return FilterOutcome.NATURAL_LANGUAGE, None
        return FilterOutcome.INVALID, None
    if len(mol.fragments()) > 1:
        return FilterOutcome.SALTS, mol
    if len(mol.atoms) == 1 and mol.atoms[0].formal_charge != 0:
        return FilterOutcome.SALTS, mol
    if len({a.element for a in mol.atoms}) == 1:
        return FilterOutcome.SINGLE_ELEMENT, mol
    return FilterOutcome.PASS, mol


def escalation_schedule(cfg: GenerationConfig) -> list[float]:
    """base, then 1.5, 2.0, ... up to MAX_TEMPERATURE."""
    temps = [cfg.base_temperature]
    t = 1.5
    while t <= MAX_TEMPERATURE + 1e-9:
        if abs(t - cfg.base_temperature) > 1e-9:
            temps.append(t)
        t += ESCALATION_STEP
    return temps


def generate_unique_set(params, text_ids, cfg: GenerationConfig,
                        generate_fn=None):
    """Sample with temperature escalation until target_unique Pass molecules.

    Returns (list of canonical SMILES in discovery order, GenerationStats).
    Raises TargetUnreached (with partial molecules and stats attached) when
    the schedule is exhausted. Candidate j at temperature index b draws from
    its own stream, `SplitMix64` seeded with the j-th `next_u64()` of
    `SplitMix64(base_seed + b)`, and candidates are counted in that order.
    Tokens are spelled with the model's vocabulary: a loaded checkpoint's
    `params.mol_vocab`, else `smiles_char_vocab()`; one whose size is not
    the config's `mol_vocab` raises VocabError. The prompt is encoded once,
    into one `DecodeCache` of SLOTS slots that every temperature reuses.
    `generate_fn(temperature, rng) -> str` overrides the model-based sampler
    (used for replay and testing); it is called once per candidate with the
    candidate's stream.
    """
    if generate_fn is None:
        if cfg.max_len > params.config.max_mol_len:
            raise VocabError(
                f"max_len {cfg.max_len} exceeds the checkpoint's positional "
                f"table of {params.config.max_mol_len}")
        vocab = (params.mol_vocab if params.mol_vocab is not None
                 else smiles_char_vocab())
        if len(vocab) != params.config.mol_vocab:
            raise VocabError(f"molecule vocabulary of {len(vocab)} tokens "
                             f"for a model of {params.config.mol_vocab}")
        cache = DecodeCache(params, text_ids, SLOTS)

        def candidates(temperature, streams):
            return sample_candidates(cache, vocab, temperature, cfg.max_len,
                                     streams)
    else:
        def candidates(temperature, streams):
            return (generate_fn(temperature, rng) for rng in streams)
    stats = GenerationStats()
    seen: set[str] = set()
    passed: list[str] = []
    memo: dict[str, tuple[str, FilterOutcome]] = {}
    temps = escalation_schedule(cfg)
    for batch_index, temperature in enumerate(temps):
        seeds = SplitMix64(cfg.base_seed + batch_index)
        streams = (SplitMix64(seeds.next_u64())
                   for _ in range(cfg.per_temperature_cap))
        for candidate in candidates(temperature, streams):
            if candidate not in memo:
                # A bracket-token string may parse only as SELFIES.
                outcome, mol = _classify(candidate)
                memo[candidate] = (candidate if mol is None
                                   else canonical_smiles(mol), outcome)
            key, outcome = memo[candidate]
            if key in seen:
                stats.record(None)
                continue
            seen.add(key)
            stats.record(outcome)
            if outcome == FilterOutcome.PASS:
                passed.append(key)
            if len(passed) >= cfg.target_unique:
                stats.validate()
                return passed, stats
    stats.validate()
    error = TargetUnreached(
        f"reached temperature {temps[-1]} with {len(passed)} of "
        f"{cfg.target_unique} unique molecules",
        molecules=passed, stats=stats)
    error.temperatures = temps
    raise error


_OUTCOME_BY_NAME = {o.value: o for o in FilterOutcome}
_OUTCOME_BY_NAME["Duplicate"] = None


def replay_stats(events) -> GenerationStats:
    """Rebuild GenerationStats from an event log of outcome names.

    Events are strings: "Duplicate" or a FilterOutcome value. Identities are
    validated before returning.
    """
    stats = GenerationStats()
    for name in events:
        if name not in _OUTCOME_BY_NAME:
            raise ValueError(f"unknown event {name!r}")
        stats.record(_OUTCOME_BY_NAME[name])
    stats.validate()
    return stats


def load_event_log(path) -> GenerationStats:
    """Read a JSON event-log fixture: {"name": ..., "events": [...]}, whose
    events are outcome names. Raises ValueError naming the file for any
    other shape."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    events = payload.get("events") if isinstance(payload, dict) else None
    if not (isinstance(events, list)
            and all(isinstance(name, str) for name in events)):
        raise ValueError(f"{path}: an event log is a JSON object whose "
                         f"events are a list of outcome names")
    return replay_stats(events)
