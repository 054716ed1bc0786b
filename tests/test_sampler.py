"""Tests for sampling, temperature escalation, and candidate filtering."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlinker.errors import TargetUnreached, VocabError
from chemlinker.adapternet import (
    TrainConfig,
    Vocab,
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
    generate_unique_set,
    load_event_log,
    replay_stats,
    sample_candidates,
    sample_tokens,
)

FIXTURES = Path(__file__).parent / "fixtures"


# --- sample_tokens --------------------------------------------------------------


def test_degenerate_distribution():
    logits = np.full((50, 16), -1e30)
    logits[:, 0] = 10.0
    rng = SplitMix64(0)
    assert not sample_tokens(logits, 1.0, [rng] * 50).any()


def test_logit_shift_invariance():
    logits = np.tile([0.5, 1.5, -1.0, 2.0], (200, 1))
    a = sample_tokens(logits, 1.0, [SplitMix64(s) for s in range(200)])
    b = sample_tokens(logits + 7.25, 1.0,
                      [SplitMix64(s) for s in range(200)])
    assert a.tolist() == b.tolist()


def test_sampling_deterministic_per_seed():
    """A row's token depends only on its row and its stream."""
    logits = np.linspace(-1, 1, 24)
    rows = np.stack([logits, logits[::-1], logits])
    first = sample_tokens(rows, 1.3, [SplitMix64(42), SplitMix64(5),
                                      SplitMix64(42)]).tolist()
    assert first[0] == first[2]
    assert sample_tokens(rows[1:2], 1.3, [SplitMix64(5)]).tolist() \
        == first[1:2]


def test_one_uniform_per_token():
    logits = np.zeros((10, 8))
    rng_a, rng_b = SplitMix64(7), SplitMix64(7)
    sample_tokens(logits, 1.0, [rng_a] * 10)
    for _ in range(10):
        rng_b.uniform()
    assert rng_a.state == rng_b.state


def _sample_token_loop(logits, temperature, rng):
    """The inverse-CDF draw of one row as a running sum: the reference for
    the vectorised one."""
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
@given(st.integers(1, 48).flatmap(lambda width: st.lists(
           st.lists(st.floats(-50, 50), min_size=width, max_size=width),
           min_size=1, max_size=5)),
       st.floats(0.05, 5.0), st.integers(0, 2**64 - 1))
def test_sample_token_matches_loop(rows, temperature, seed):
    streams = [SplitMix64(seed + i) for i in range(len(rows))]
    oracle = [SplitMix64(seed + i) for i in range(len(rows))]
    got = sample_tokens(np.array(rows), temperature, streams).tolist()
    assert got == [_sample_token_loop(np.array(row), temperature, rng)
                   for row, rng in zip(rows, oracle)]
    assert [rng.state for rng in streams] == [rng.state for rng in oracle]


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        sample_tokens(np.zeros((1, 4)), 0.0, [SplitMix64(0)])


# --- sample_candidates -------------------------------------------------------------


def _model_and_vocab():
    vocab = smiles_char_vocab()
    cfg = TrainConfig(text_vocab=8, mol_vocab=len(vocab))
    return init_model(cfg), vocab


def test_sample_candidates_bounded_and_deterministic():
    """The strings come in stream order, and each is the one its stream
    draws alone in the decoder."""
    params, vocab = _model_and_vocab()
    prompt = prepare_prompt(params, [1, 4, 2])

    def sample(seeds):
        return list(sample_candidates(prompt, vocab, 1.0, 12,
                                      (SplitMix64(s) for s in seeds)))

    a = sample(range(40))
    assert a == sample(range(40))
    assert a == [sample([s])[0] for s in range(40)]
    assert all(len(text) <= 12 for text in a)


def test_special_tokens_never_drawn_but_eos_is():
    """`<pad>` and `<bos>` are masked out of every draw, however likely the
    model makes them; `<eos>` is not."""
    params, vocab = _model_and_vocab()
    bias = params.tensors["head.b"]
    bias[[vocab.pad, vocab.bos]] = 50.0
    prompt = prepare_prompt(params, [1, 4, 2])
    texts = list(sample_candidates(prompt, vocab, 1.0, 12,
                                   (SplitMix64(s) for s in range(20))))
    assert texts and not any("<" in text for text in texts)
    bias[vocab.eos] = 60.0
    prompt = prepare_prompt(params, [1, 4, 2])
    assert list(sample_candidates(prompt, vocab, 1.0, 12,
                                  (SplitMix64(s) for s in range(20)))) \
        == [""] * 20


def test_max_len_must_be_positive():
    with pytest.raises(ValueError):
        GenerationConfig(target_unique=1, max_len=0)


@pytest.mark.parametrize("field,value,message", [
    ("base_temperature", 0, "0 < base_temperature <= 4.5"),
    ("base_temperature", 5, "0 < base_temperature <= 4.5"),
    ("per_temperature_cap", 0, "per_temperature_cap must be >= 1"),
])
def test_generation_config_rejects_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        GenerationConfig(target_unique=1, **{field: value})


@pytest.mark.parametrize("target", [0, -1])
def test_target_unique_must_be_positive(target):
    """Rejected in the config, before generate_fn could draw anything."""
    with pytest.raises(ValueError, match=f"target_unique must be >= 1, not "
                                         f"{target}"):
        generate_unique_set(None, None, GenerationConfig(target_unique=target),
                            generate_fn=lambda t, r: "CCO")


def test_generate_unique_set_defaults_to_smiles_vocab():
    """A model from `init_model` carries no vocabulary and samples with
    `smiles_char_vocab()`, as one that carries it does."""
    params, vocab = _model_and_vocab()
    gcfg = GenerationConfig(target_unique=2, max_len=12,
                            per_temperature_cap=20)

    def run(params):
        try:
            molecules, stats = generate_unique_set(params, [1, 4, 2], gcfg)
        except TargetUnreached as err:
            molecules, stats = err.molecules, err.stats
        return molecules, stats.to_json()

    carrying = params.clone()
    carrying.mol_vocab = vocab
    assert params.mol_vocab is None
    assert run(params) == run(carrying)


def test_generate_unique_set_rejects_a_vocabulary_of_another_size():
    """The model's vocabulary must spell every token id it can draw (an
    IndexError for 60 ids over the 43-token SMILES vocabulary in 0.8.0)."""
    gcfg = GenerationConfig(target_unique=2, max_len=12,
                            per_temperature_cap=20)
    params = init_model(TrainConfig(text_vocab=8, mol_vocab=60))
    with pytest.raises(VocabError, match="vocabulary of 43 tokens for a "
                                         "model of 60"):
        generate_unique_set(params, [1, 4, 2], gcfg)
    params, vocab = _model_and_vocab()
    params.mol_vocab = Vocab(vocab.tokens[3:-1])
    with pytest.raises(VocabError, match="of 42 tokens for a model of 43"):
        generate_unique_set(params, [1, 4, 2], gcfg)


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


def test_every_parsed_candidate_is_keyed_by_canonical_smiles():
    """"C(C)" is "CC" spelled again: a duplicate, not a second
    SingleElement."""
    candidates = iter(["CC", "C(C)", "CCO"])
    cfg = GenerationConfig(target_unique=1, per_temperature_cap=10)
    molecules, stats = generate_unique_set(
        None, None, cfg, generate_fn=lambda t, rng: next(candidates))
    assert molecules == ["CCO"]
    assert (stats.se, stats.duplicate) == (1, 1)
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
