"""Seeded autoregressive sampling, temperature escalation, and the four-way
candidate filter with exact accounting.

Filter taxonomy (applied in this order, one outcome per candidate):
Invalid (in-alphabet but unparseable, or no atoms, as in "."),
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
from dataclasses import dataclass

import numpy as np

from chemlinker.errors import DecodeFailure, ParseError, TargetUnreached
from chemlinker.adapternet.model import DecodeCache, Prompt, prepare_prompt
from chemlinker.adapternet.vocab import SMILES_CHARS, smiles_char_vocab
from chemlinker.molstring import canonical_smiles, decode_selfies, parse_smiles
from chemlinker.rng import SplitMix64

_ALPHABET = frozenset(SMILES_CHARS)
_ALL_BRACKETS = re.compile(r"(\[[^\[\]]*\])+$")
ESCALATION_STEP = 0.5
MAX_TEMPERATURE = 4.5


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
        if not 0 < self.base_temperature <= MAX_TEMPERATURE:
            raise ValueError(
                f"need 0 < base_temperature <= {MAX_TEMPERATURE}")
        if self.per_temperature_cap < 1:
            raise ValueError("per_temperature_cap must be >= 1")


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
        return json.dumps({
            "sample": self.sample, "duplicate": self.duplicate,
            "unique": self.unique, "invalid": self.invalid,
            "nl": self.nl, "salts": self.salts, "se": self.se,
            "success": self.success, "success_rate": self.success_rate,
        })


def sample_token(logits, temperature: float, rng: SplitMix64) -> int:
    """Inverse-CDF multinomial draw; consumes exactly one uniform."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, rng.uniform(), side="right")),
               len(probs) - 1)


def generate_one(prompt: Prompt, cfg: GenerationConfig, rng: SplitMix64,
                 vocab, temperature: float | None = None) -> str:
    """Sample one string: BOS start, stop at EOS or max_len tokens."""
    temperature = cfg.base_temperature if temperature is None else temperature
    cache = DecodeCache(prompt)
    token = vocab.bos
    out = []
    for _ in range(cfg.max_len):
        token = sample_token(cache.step(token), temperature, rng)
        if token == vocab.eos:
            break
        out.append(vocab.tokens[token])
    return "".join(out)


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
    if not mol.atoms:
        return FilterOutcome.INVALID, mol
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


def generate_unique_set(params, text_ids, cfg: GenerationConfig, vocab=None,
                        generate_fn=None):
    """Sample with temperature escalation until target_unique Pass molecules.

    Returns (list of canonical SMILES in discovery order, GenerationStats).
    Raises TargetUnreached (with partial molecules and stats attached) when
    the schedule is exhausted. `vocab` defaults to `smiles_char_vocab()`.
    `generate_fn(temperature, rng) -> str` overrides the model-based
    sampler (used for replay and testing).
    """
    if generate_fn is None:
        prompt = prepare_prompt(params, text_ids)
        if vocab is None:
            vocab = smiles_char_vocab()

        def generate_fn(temperature, rng):
            return generate_one(prompt, cfg, rng, vocab, temperature)
    stats = GenerationStats()
    seen: set[str] = set()
    passed: list[str] = []
    memo: dict[str, tuple[str, FilterOutcome, str | None]] = {}
    temps = escalation_schedule(cfg)
    visited: list[float] = []
    for batch_index, temperature in enumerate(temps):
        rng = SplitMix64(cfg.base_seed + batch_index)
        visited.append(temperature)
        for _ in range(cfg.per_temperature_cap):
            candidate = generate_fn(temperature, rng)
            if candidate not in memo:
                # A passing bracket-token string may parse only as SELFIES.
                outcome, mol = _classify(candidate)
                canon = (canonical_smiles(mol)
                         if outcome == FilterOutcome.PASS else None)
                key = canon if canon is not None else candidate
                memo[candidate] = (key, outcome, canon)
            key, outcome, canon = memo[candidate]
            if key in seen:
                stats.record(None)
                continue
            seen.add(key)
            stats.record(outcome)
            if outcome == FilterOutcome.PASS:
                passed.append(canon)
            if len(passed) >= cfg.target_unique:
                stats.validate()
                return passed, stats
    stats.validate()
    error = TargetUnreached(
        f"reached temperature {temps[-1]} with {len(passed)} of "
        f"{cfg.target_unique} unique molecules",
        molecules=passed, stats=stats)
    error.temperatures = visited
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
    """Read a JSON event-log fixture: {"name": ..., "events": [...]}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return replay_stats(payload["events"])
