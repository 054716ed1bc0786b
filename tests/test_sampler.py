"""Tests for sampling, temperature escalation, and candidate filtering."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlinker.errors import TargetUnreached
from chemlinker.adapternet import (
    TrainConfig,
    init_model,
    prepare_prompt,
    smiles_char_vocab,
)
from chemlinker.rng import SplitMix64
from chemlinker.sampler import (
    FilterOutcome,
    GenerationConfig,
    GenerationStats,
    classify_filter,
    escalation_schedule,
    generate_one,
    generate_unique_set,
    load_event_log,
    replay_stats,
    sample_token,
)

FIXTURES = Path(__file__).parent / "fixtures"


# --- sample_token ---------------------------------------------------------------


def test_degenerate_distribution():
    logits = np.full(16, -1e30)
    logits[0] = 10.0
    rng = SplitMix64(0)
    assert all(sample_token(logits, 1.0, rng) == 0 for _ in range(50))


def test_logit_shift_invariance():
    logits = np.array([0.5, 1.5, -1.0, 2.0])
    a = [sample_token(logits, 1.0, SplitMix64(s)) for s in range(200)]
    b = [sample_token(logits + 7.25, 1.0, SplitMix64(s)) for s in range(200)]
    assert a == b


def test_sampling_deterministic_per_seed():
    logits = np.linspace(-1, 1, 24)
    seq1 = [sample_token(logits, 1.3, SplitMix64(42)) for _ in range(20)]
    rng = SplitMix64(42)
    seq2 = [sample_token(logits, 1.3, rng) for _ in range(0)]  # fresh stream
    rng = SplitMix64(42)
    seq2 = [sample_token(logits, 1.3, rng) for _ in range(20)]
    assert len(set(seq1)) == 1          # independent fresh seeds, first draw
    assert seq2[0] == seq1[0]


def test_one_uniform_per_token():
    logits = np.zeros(8)
    rng_a, rng_b = SplitMix64(7), SplitMix64(7)
    for _ in range(10):
        sample_token(logits, 1.0, rng_a)
        rng_b.uniform()
    assert rng_a.state == rng_b.state


def _sample_token_loop(logits, temperature, rng):
    """The inverse-CDF draw as a running sum: the reference for the
    vectorised one."""
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    u = rng.uniform()
    cum = 0.0
    for i, p in enumerate(probs):
        cum += p
        if u < cum:
            return i
    return len(probs) - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=48),
       st.floats(0.05, 5.0), st.integers(0, 2**64 - 1))
def test_sample_token_matches_loop(logits, temperature, seed):
    rng_a, rng_b = SplitMix64(seed), SplitMix64(seed)
    assert (sample_token(np.array(logits), temperature, rng_a)
            == _sample_token_loop(np.array(logits), temperature, rng_b))
    assert rng_a.state == rng_b.state


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        sample_token(np.zeros(4), 0.0, SplitMix64(0))


# --- generate_one ------------------------------------------------------------------


def _model_and_vocab():
    vocab = smiles_char_vocab()
    cfg = TrainConfig(text_vocab=8, mol_vocab=len(vocab))
    return init_model(cfg), vocab


def test_generate_one_bounded_and_deterministic():
    params, vocab = _model_and_vocab()
    gcfg = GenerationConfig(target_unique=1, max_len=12)
    prompt = prepare_prompt(params, [1, 4, 2])
    a = generate_one(prompt, gcfg, SplitMix64(3), vocab)
    b = generate_one(prompt, gcfg, SplitMix64(3), vocab)
    assert a == b
    assert len(a) <= 12


def test_generate_unique_set_defaults_to_smiles_vocab():
    params, vocab = _model_and_vocab()
    gcfg = GenerationConfig(target_unique=2, max_len=12,
                            per_temperature_cap=20)

    def run(**kwargs):
        try:
            molecules, stats = generate_unique_set(params, [1, 4, 2], gcfg,
                                                   **kwargs)
        except TargetUnreached as err:
            molecules, stats = err.molecules, err.stats
        return molecules, stats.to_json()

    assert run() == run(vocab=vocab)


# --- classify_filter ----------------------------------------------------------------


def test_pathological_salt_string():
    assert (classify_filter("[H+].[H+].[H+].CN(C=O)C=O.CI")
            == FilterOutcome.SALTS)


def test_pathological_natural_language_string():
    text = "CN (C)CI via minimal irritation on minimal water condition.CNC"
    assert classify_filter(text) == FilterOutcome.NATURAL_LANGUAGE


def test_single_element_and_pass():
    assert classify_filter("II") == FilterOutcome.SINGLE_ELEMENT
    assert classify_filter("CCO") == FilterOutcome.PASS


def test_invalid_strings():
    assert classify_filter("") == FilterOutcome.INVALID
    assert classify_filter("C(") == FilterOutcome.INVALID
    assert classify_filter("c1ccc1") == FilterOutcome.INVALID


def test_no_atoms_is_invalid():
    assert classify_filter(".") == FilterOutcome.INVALID
    assert classify_filter("..") == FilterOutcome.INVALID


def test_bare_ion_is_salt():
    assert classify_filter("[Na+]") == FilterOutcome.SALTS


def test_selfies_candidates():
    assert classify_filter("[C][C][O]") == FilterOutcome.PASS
    assert classify_filter("[EOS]") == FilterOutcome.INVALID


# --- escalation -------------------------------------------------------------------


def test_schedule_from_base_one():
    cfg = GenerationConfig(target_unique=1)
    assert escalation_schedule(cfg) == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]


def test_schedule_from_base_fifteen():
    cfg = GenerationConfig(target_unique=1, base_temperature=1.5)
    assert escalation_schedule(cfg) == [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]


def test_constant_decoder_exhausts_schedule():
    cfg = GenerationConfig(target_unique=5, per_temperature_cap=10)
    with pytest.raises(TargetUnreached) as exc_info:
        generate_unique_set(None, None, cfg,
                            generate_fn=lambda t, rng: "CCO")
    err = exc_info.value
    assert err.temperatures == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    assert err.molecules == ["CCO"]
    assert err.stats.sample == 80
    assert err.stats.duplicate == 79
    assert err.stats.unique == 1
    err.stats.validate()


def test_generate_unique_set_reaches_target():
    # "CCC" would be SingleElement (all carbon): use heteroatom molecules.
    pool = ["CCO", "CCN", "CCS", "C(", "II", "CC.CC", "CCCl", "CCBr",
            "some words here", "OCC"]

    def fake_generate(temperature, rng):
        return pool[int(rng.uniform() * len(pool))]

    cfg = GenerationConfig(target_unique=5, per_temperature_cap=200)
    molecules, stats = generate_unique_set(None, None, cfg,
                                           generate_fn=fake_generate)
    assert len(molecules) == 5
    assert len(set(molecules)) == 5
    assert all(classify_filter(m) == FilterOutcome.PASS for m in molecules)
    stats.validate()
    # "CCO" and "OCC" share a canonical form: only one success between them.
    assert stats.success == 5


def test_generate_unique_set_deterministic():
    pool = ["CCO", "CCN", "C(", "II"]

    def fake_generate(temperature, rng):
        return pool[int(rng.uniform() * len(pool))]

    cfg = GenerationConfig(target_unique=2, per_temperature_cap=50)
    a = generate_unique_set(None, None, cfg, generate_fn=fake_generate)
    b = generate_unique_set(None, None, cfg, generate_fn=fake_generate)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_empty_molecule_never_returned():
    candidates = iter([".", "..", "CCO", ".", "CCN"])
    cfg = GenerationConfig(target_unique=2, per_temperature_cap=10)
    molecules, stats = generate_unique_set(
        None, None, cfg, generate_fn=lambda t, rng: next(candidates))
    assert molecules == ["CCO", "CCN"]
    assert (stats.sample, stats.duplicate, stats.invalid) == (5, 1, 2)
    stats.validate()


def test_passing_selfies_candidate_is_canonicalized():
    """The SELFIES string [C][O] passes the filter but is not SMILES; the
    filter's decoded molecule is what gets canonicalized."""
    assert classify_filter("[C][O]") == FilterOutcome.PASS
    cfg = GenerationConfig(target_unique=1, per_temperature_cap=3)
    molecules, stats = generate_unique_set(
        None, None, cfg, generate_fn=lambda t, rng: "[C][O]")
    assert molecules == ["CO"]
    assert stats.success == 1


# --- stats -------------------------------------------------------------------------


def test_stats_identities_enforced():
    bad = GenerationStats(sample=5, duplicate=1, unique=3)
    with pytest.raises(ValueError):
        bad.validate()


def test_replay_unknown_event():
    with pytest.raises(ValueError):
        replay_stats(["Pass", "Nonsense"])


def test_table4_molt5_row():
    stats = load_event_log(FIXTURES / "table4_molt5.json")
    assert stats.sample == 260
    assert stats.duplicate == 31
    assert stats.unique == 229
    assert stats.success == 100
    assert stats.invalid == 113
    assert stats.nl == 8
    assert stats.salts == 4
    assert stats.se == 4
    assert round(stats.success_rate * 1000) / 10 == 43.7


def test_table4_chemlml_row():
    stats = load_event_log(FIXTURES / "table4_chemlml.json")
    assert stats.sample == 105
    assert stats.duplicate == 3
    assert stats.unique == 102
    assert stats.success == 100
    assert round(stats.success_rate * 1000) / 10 == 98.0
