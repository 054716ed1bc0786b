"""Golden samples from fixed checkpoints, and the cached decoding step checked
against the full forward pass."""

import hashlib
import json

import numpy as np
import pytest

from chemlinker import sampler
from chemlinker.adapternet import (
    DecodeCache,
    Tensor,
    TrainConfig,
    forward_logits,
    init_model,
    load_checkpoint,
    prepare_prompt,
    pretrain_decoder,
    save_checkpoint,
    smiles_char_vocab,
    train_adapter,
    word_vocab,
)
from chemlinker.errors import TargetUnreached, VocabError
from chemlinker.rng import SplitMix64
from chemlinker.sampler import GenerationConfig, generate_unique_set

PAIRS = [("ethanol a small alcohol", "CCO"),
         ("ethylamine a small amine", "CCN"),
         ("ethanethiol a small thiol", "CCS"),
         ("propanol an alcohol", "CCCO"),
         ("acetic acid a carboxylic acid", "CC(=O)O"),
         ("pyridine an aromatic amine", "c1ccncc1")]
TEXT_VOCAB = word_vocab([text for text, _ in PAIRS])
MOL_VOCAB = smiles_char_vocab()


def _text_ids(text):
    return [TEXT_VOCAB.bos] + TEXT_VOCAB.encode(text.split()) \
        + [TEXT_VOCAB.eos]


def _train(pretrain_steps, warmup_steps):
    """A few adapter steps, after `pretrain_steps` of decoder pretraining."""
    data = [(_text_ids(text), [MOL_VOCAB.bos] + MOL_VOCAB.encode(list(smi))
             + [MOL_VOCAB.eos]) for text, smi in PAIRS]
    cfg = TrainConfig(text_vocab=len(TEXT_VOCAB), mol_vocab=len(MOL_VOCAB),
                      warmup_steps=warmup_steps, batch_size=8, max_steps=4,
                      seed=5)
    params = init_model(cfg)
    if pretrain_steps:
        pretrain_decoder(params, [mol for _, mol in data],
                         steps=pretrain_steps, seed=1)
    params, _ = train_adapter(params, data)
    return params


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """"smiles": a decoder pretrained on the molecules, so most samples are
    short molecules; "noise": an untrained decoder, whose samples run long."""
    out = {}
    for name, pretrain_steps, warmup in (("smiles", 30, 10),
                                         ("noise", 0, 40)):
        path = tmp_path_factory.mktemp("golden") / f"{name}.ckpt"
        save_checkpoint(_train(pretrain_steps, warmup), path)
        params = load_checkpoint(path)
        assert np.abs(params.tensors["adapter.attn.wo"]).max() > 0
        out[name] = params
    return out


# (checkpoint, prompt, GenerationConfig fields, molecules, stats JSON,
# whether TargetUnreached is raised), recorded before generation used the
# decoding cache. A run that exhausts the schedule is pinned by the
# molecules and stats that TargetUnreached carries.
GOLDEN = [
    # target reached at the base temperature
    ("smiles", "ethanol a small alcohol",
     dict(target_unique=3, base_seed=0, per_temperature_cap=8),
     ['CCCO', 'CCO', 'CCN'],
     '{"sample": 4, "duplicate": 1, "unique": 3, '
     '"invalid": 0, "nl": 0, "salts": 0, "se": 0, '
     '"success": 3, "success_rate": 1.0}',
     False),
    # target reached after escalating to the fifth temperature
    ("smiles", "pyridine an aromatic amine",
     dict(target_unique=6, base_seed=6, per_temperature_cap=6),
     ['CCCO', 'CCN', 'CCO', 'CCS', 'CCCS', 'CC(=O)CCO'],
     '{"sample": 30, "duplicate": 19, "unique": 11, '
     '"invalid": 5, "nl": 0, "salts": 0, "se": 0, '
     '"success": 6, "success_rate": 0.5454545454545454}',
     False),
    # schedule exhausted: TargetUnreached with partial molecules
    ("smiles", "acetic acid a carboxylic acid",
     dict(target_unique=10, base_seed=21, per_temperature_cap=3),
     ['CCO', 'CCS', 'CCCS', 'CCCO', 'CCN'],
     '{"sample": 24, "duplicate": 8, "unique": 16, '
     '"invalid": 10, "nl": 1, "salts": 0, "se": 0, '
     '"success": 5, "success_rate": 0.3125}',
     True),
    # a single temperature, the highest
    ("smiles", "propanol an alcohol",
     dict(target_unique=3, base_seed=4, base_temperature=4.5,
          per_temperature_cap=10),
     ['CCS', 'CCN', 'CCCS'],
     '{"sample": 13, "duplicate": 2, "unique": 11, '
     '"invalid": 6, "nl": 2, "salts": 0, "se": 0, '
     '"success": 3, "success_rate": 0.2727272727272727}',
     False),
    # long samples up to max_len from an untrained decoder
    ("noise", "ethanol a small alcohol",
     dict(target_unique=1, base_seed=2, per_temperature_cap=4),
     [],
     '{"sample": 32, "duplicate": 0, "unique": 32, '
     '"invalid": 8, "nl": 24, "salts": 0, "se": 0, '
     '"success": 0, "success_rate": 0.0}',
     True),
]


def _run(params, prompt, fields):
    cfg = GenerationConfig(**fields)
    try:
        molecules, stats = generate_unique_set(params, _text_ids(prompt),
                                               cfg, vocab=MOL_VOCAB)
    except TargetUnreached as err:
        return err.molecules, err.stats.to_json(), True
    return molecules, stats.to_json(), False


@pytest.mark.parametrize(
    "name,prompt,fields,molecules,stats,unreached", GOLDEN,
    ids=["base-temperature", "escalated", "unreached", "hottest", "long"])
def test_golden_samples(checkpoints, name, prompt, fields, molecules, stats,
                        unreached):
    assert _run(checkpoints[name], prompt, fields) == (molecules, stats,
                                                       unreached)


def test_golden_set_covers_escalation_and_unreached():
    escalated = [not unreached and json.loads(stats)["sample"]
                 > fields["per_temperature_cap"]
                 for _, _, fields, _, stats, unreached in GOLDEN]
    assert any(escalated)
    assert any(unreached for *_, unreached in GOLDEN)


# --- the cached decoding step -----------------------------------------------------


@pytest.mark.parametrize("name", ["smiles", "noise"])
def test_step_matches_forward_logits(checkpoints, name):
    """At every prefix length the cached step gives the last row of the full
    forward pass, to within 1e-5 of the logits' scale (1e-5 absolute where
    they are of order one). Bit equality cannot hold: a one-row matmul
    rounds differently from the same row of a full one."""
    params = checkpoints[name]
    text = _text_ids("acetic acid a carboxylic acid")
    limit = params.config.max_mol_len
    drawn = np.random.default_rng(0).integers(3, len(MOL_VOCAB), limit - 1)
    ids = [MOL_VOCAB.bos] + [int(i) for i in drawn]
    cache = DecodeCache(prepare_prompt(params, text))
    for n in range(1, limit + 1):
        got = cache.step(ids[n - 1])
        want = forward_logits(params, text, ids[:n]).data[-1]
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-5 * scale, n
    with pytest.raises(VocabError):
        cache.step(ids[0])
    with pytest.raises(VocabError):
        forward_logits(params, text, ids + ids[:1])
    with pytest.raises(VocabError):
        DecodeCache(cache.prompt).step(len(MOL_VOCAB))


class _CountingRng(SplitMix64):
    draws = 0

    def uniform(self):
        self.draws += 1
        return super().uniform()


def test_one_uniform_per_sampled_token(checkpoints, monkeypatch):
    """EOS and a final token at max_len each cost one uniform."""
    sampled = []

    def recording(logits, temperature, rng):
        sampled.append(real(logits, temperature, rng))
        return sampled[-1]

    real = sampler.sample_token
    monkeypatch.setattr(sampler, "sample_token", recording)
    prompt = prepare_prompt(checkpoints["noise"],
                            _text_ids("ethanol a small alcohol"))
    cfg = GenerationConfig(target_unique=1, max_len=12)
    endings = set()
    for seed in range(12):
        sampled.clear()
        rng = _CountingRng(seed)
        text = sampler.generate_one(prompt, cfg, rng, MOL_VOCAB)
        assert rng.draws == len(sampled)
        ended_at_eos = sampled[-1] == MOL_VOCAB.eos
        assert ended_at_eos or len(sampled) == cfg.max_len
        body = sampled[:-1] if ended_at_eos else sampled
        assert text == "".join(MOL_VOCAB.tokens[t] for t in body)
        endings.add(ended_at_eos)
    assert endings == {True, False}


def test_sampling_builds_no_tensors(checkpoints, monkeypatch):
    built = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    prompt = prepare_prompt(checkpoints["noise"],
                            _text_ids("ethanol a small alcohol"))
    cfg = GenerationConfig(target_unique=1)
    rng = _CountingRng(3)
    for _ in range(4):
        sampler.generate_one(prompt, cfg, rng, MOL_VOCAB)
    assert rng.draws > 4
    assert not built


def test_step_logits_pinned():
    """The cached step's logits, bit for bit, on a checkpoint no training
    step made: init weights with a nonzero adapter output path."""
    cfg = TrainConfig(text_vocab=len(TEXT_VOCAB), mol_vocab=len(MOL_VOCAB),
                      seed=9)
    params = init_model(cfg)
    rng = np.random.default_rng(4)
    for name in ("adapter.attn.wo", "adapter.ffn.w2"):
        params.tensors[name] = rng.normal(
            scale=0.1, size=params.tensors[name].shape).astype(np.float32)
    prompt = prepare_prompt(params, _text_ids("acetic acid a carboxylic acid"))
    digest = hashlib.sha256(prompt.text_keys.tobytes()
                            + prompt.text_values.tobytes())
    cache = DecodeCache(prompt)
    for token in [MOL_VOCAB.bos] + MOL_VOCAB.encode(list("CC(=O)Oc1ccccc1")):
        digest.update(cache.step(token).tobytes())
    assert digest.hexdigest() == (
        "4d68f1d07dabf38a8d900863c1c105084704041f72e27c69cda2c754c4dfe490")
