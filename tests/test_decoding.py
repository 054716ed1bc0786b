"""Golden samples from fixed checkpoints, the batched decoding cache checked
against the full forward pass, and the sampler's use of its streams."""

import gc
import hashlib
import json

import numpy as np
import pytest

from chemlinker import sampler
from chemlinker.adapternet import (
    DecodeCache,
    Tensor,
    TrainConfig,
    init_model,
    load_checkpoint,
    prepare_prompt,
    pretrain_decoder,
    save_checkpoint,
    smiles_char_vocab,
    train_adapter,
    word_vocab,
)
from chemlinker.errors import ShapeError, TargetUnreached, VocabError
from chemlinker.rng import SplitMix64
from chemlinker.sampler import GenerationConfig, generate_unique_set
from test_adapternet import forward_logits

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
        save_checkpoint(_train(pretrain_steps, warmup), path, TEXT_VOCAB,
                        MOL_VOCAB)
        params = load_checkpoint(path)
        assert np.abs(params.tensors["adapter.attn.wo"]).max() > 0
        out[name] = params
    return out


# (checkpoint, prompt, GenerationConfig fields, molecules, stats JSON,
# whether TargetUnreached is raised), recorded when decoder pretraining
# began to run one padded pass per step (0.6.0); the "long" row dates from
# 0.4.0, when candidates began to share decoder steps, each drawing from its
# own stream. A run that exhausts the schedule is pinned by the molecules
# and stats that TargetUnreached carries.
GOLDEN = [
    # target reached at the base temperature
    ("smiles", "ethanol a small alcohol",
     dict(target_unique=3, base_seed=0, per_temperature_cap=8),
     ['CCO', 'CCS', 'CCN'],
     '{"sample": 6, "duplicate": 3, "unique": 3, '
     '"invalid": 0, "nl": 0, "salts": 0, "se": 0, '
     '"success": 3, "success_rate": 1.0}',
     False),
    # escalated through all eight temperatures without reaching the target
    ("smiles", "pyridine an aromatic amine",
     dict(target_unique=6, base_seed=6, per_temperature_cap=8),
     ['CCS', 'CCO', 'CCN'],
     '{"sample": 64, "duplicate": 59, "unique": 5, '
     '"invalid": 2, "nl": 0, "salts": 0, "se": 0, '
     '"success": 3, "success_rate": 0.6}',
     True),
    # target reached after escalating to the fifth temperature
    ("smiles", "pyridine an aromatic amine",
     dict(target_unique=4, base_seed=2, per_temperature_cap=8),
     ['CCS', 'CCN', 'CCO', 'CCCS'],
     '{"sample": 37, "duplicate": 32, "unique": 5, '
     '"invalid": 1, "nl": 0, "salts": 0, "se": 0, '
     '"success": 4, "success_rate": 0.8}',
     False),
    # schedule exhausted: TargetUnreached with partial molecules
    ("smiles", "acetic acid a carboxylic acid",
     dict(target_unique=10, base_seed=21, per_temperature_cap=3),
     ['CCCO', 'CCO', 'CCN', 'CCS'],
     '{"sample": 24, "duplicate": 18, "unique": 6, '
     '"invalid": 2, "nl": 0, "salts": 0, "se": 0, '
     '"success": 4, "success_rate": 0.6666666666666666}',
     True),
    # a single temperature, the highest
    ("smiles", "propanol an alcohol",
     dict(target_unique=3, base_seed=4, base_temperature=4.5,
          per_temperature_cap=10),
     ['CCS', 'CCN', 'CCCO'],
     '{"sample": 5, "duplicate": 2, "unique": 3, '
     '"invalid": 0, "nl": 0, "salts": 0, "se": 0, '
     '"success": 3, "success_rate": 1.0}',
     False),
    # long samples up to max_len from an untrained decoder
    ("noise", "ethanol a small alcohol",
     dict(target_unique=1, base_seed=2, per_temperature_cap=4),
     [],
     '{"sample": 32, "duplicate": 0, "unique": 32, '
     '"invalid": 32, "nl": 0, "salts": 0, "se": 0, '
     '"success": 0, "success_rate": 0.0}',
     True),
]
GOLDEN_IDS = ["base-temperature", "escalated", "escalated-reached",
              "unreached", "hottest", "long"]


def _run(params, prompt, fields):
    cfg = GenerationConfig(**fields)
    try:
        molecules, stats = generate_unique_set(params, _text_ids(prompt),
                                               cfg, vocab=MOL_VOCAB)
    except TargetUnreached as err:
        return err.molecules, err.stats.to_json(), True
    return molecules, stats.to_json(), False


@pytest.mark.parametrize(
    "name,prompt,fields,molecules,stats,unreached", GOLDEN, ids=GOLDEN_IDS)
def test_golden_samples(checkpoints, name, prompt, fields, molecules, stats,
                        unreached):
    assert _run(checkpoints[name], prompt, fields) == (molecules, stats,
                                                       unreached)


def test_golden_set_covers_escalation_and_unreached():
    """Each smiles row shows the case its comment names: (escalated past
    the base temperature, TargetUnreached raised)."""
    shown = {row_id: (json.loads(stats)["sample"]
                      > fields["per_temperature_cap"], unreached)
             for row_id, (_, _, fields, _, stats, unreached)
             in zip(GOLDEN_IDS, GOLDEN)}
    assert shown["base-temperature"] == (False, False)
    assert shown["escalated"] == (True, True)
    assert shown["escalated-reached"] == (True, False)
    assert shown["unreached"][1]


@pytest.mark.parametrize("slots", [1, sampler.SLOTS])
def test_slot_count_changes_no_sample(checkpoints, monkeypatch, slots):
    """One slot is the one-at-a-time run over the same streams: every golden
    row gives the same molecules, stats and outcome at either slot count."""
    monkeypatch.setattr(sampler, "SLOTS", slots)
    for name, prompt, fields, *pinned in GOLDEN:
        assert _run(checkpoints[name], prompt, fields) == tuple(pinned)


def test_max_len_beyond_positional_table(checkpoints, monkeypatch):
    """A max_len the positional table cannot hold fails before any draw;
    the longest it can hold samples to the end of the table."""
    params = checkpoints["noise"]
    limit = params.config.max_mol_len
    made = []

    class Recording(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(sampler, "SplitMix64", Recording)
    text = _text_ids("ethanol a small alcohol")
    with pytest.raises(VocabError):
        generate_unique_set(params, text, GenerationConfig(
            target_unique=1, max_len=limit + 1), vocab=MOL_VOCAB)
    assert not made
    with pytest.raises(TargetUnreached) as exc_info:
        generate_unique_set(params, text, GenerationConfig(
            target_unique=100, max_len=limit, per_temperature_cap=2),
            vocab=MOL_VOCAB)
    assert exc_info.value.stats.sample == 16


# --- the batched decoding cache ---------------------------------------------------


def _run_slots(prompt, plans):
    """Step a cache of len(plans) slots. Slot s runs the (name, ids)
    sequences of plans[s] back to back, restarting between them, and is
    idle, restarted at every step, once they are done. Returns {(name, n):
    [logits after the first n ids, once per run of that prefix]}."""
    cache = DecodeCache(prompt, len(plans))
    queues = [list(plan) for plan in plans]
    running = [None] * len(plans)       # (name, ids, tokens fed so far)
    out: dict = {}
    while True:
        tokens = []
        for slot, queue in enumerate(queues):
            if running[slot] is None or running[slot][2] == len(
                    running[slot][1]):
                running[slot] = (*queue.pop(0), 0) if queue else None
                cache.restart(slot)
            tokens.append(running[slot][1][running[slot][2]]
                          if running[slot] else MOL_VOCAB.bos)
        if not any(running):
            return out
        logits = cache.step(tokens)
        for slot, current in enumerate(running):
            if current is not None:
                name, ids, n = current
                out.setdefault((name, n + 1), []).append(logits[slot])
                running[slot] = (name, ids, n + 1)


@pytest.mark.parametrize("name", ["smiles", "noise"])
def test_step_matches_forward_logits(checkpoints, name):
    """Slots at different positions, one restarted mid-run: at every prefix
    length each slot's logits are the last row of the full forward pass, to
    within 1e-5 of the logits' scale (1e-5 absolute where they are of order
    one), and the same sequence next to other neighbours gives them to
    within 1e-6 of it. Bit equality with the forward pass cannot hold: a
    one-row matmul rounds differently from the same row of a full one."""
    params = checkpoints[name]
    text = _text_ids("acetic acid a carboxylic acid")
    limit = params.config.max_mol_len
    drawn = np.random.default_rng(0).integers(3, len(MOL_VOCAB),
                                              (4, limit - 1))
    seqs = {key: [MOL_VOCAB.bos] + [int(i) for i in row]
            for key, row in zip("ABCD", drawn)}
    A, B, C, D = (seqs[key] for key in "ABCD")
    prompt = prepare_prompt(params, text)
    mixed = _run_slots(prompt, [[("A", A)],
                                [("B", B[:30]), ("C", C[:50])],
                                [("C", C[:15]), ("D", D[:65])]])
    apart = _run_slots(prompt, [[("D", D[:65])], [("C", C[:50])],
                                [("A", A)], [("B", B[:30])]])
    assert mixed.keys() == apart.keys()
    assert ("A", limit) in mixed
    for (key, n), rows in mixed.items():
        want = forward_logits(params, text, seqs[key][:n]).data[-1]
        scale = max(1.0, float(np.abs(want).max()))
        for got in rows + apart[key, n]:
            assert np.abs(got - want).max() <= 1e-5 * scale, (key, n)
        for got in rows:
            assert np.abs(got - apart[key, n][0]).max() <= 1e-6 * scale

    cache = DecodeCache(prompt, 2)
    with pytest.raises(VocabError):
        cache.step([MOL_VOCAB.bos, len(MOL_VOCAB)])
    with pytest.raises(ShapeError):
        cache.step([MOL_VOCAB.bos])
    for token in A:
        cache.step([token, token])
    with pytest.raises(VocabError):
        cache.step([MOL_VOCAB.bos, MOL_VOCAB.bos])
    cache.restart(0)
    with pytest.raises(VocabError):
        cache.step([MOL_VOCAB.bos, MOL_VOCAB.bos])
    with pytest.raises(VocabError):
        forward_logits(params, text, A + A[:1])


@pytest.mark.parametrize("slot", [0, 6, sampler.SLOTS - 1])
def test_step_rows_exact_whatever_the_slot(checkpoints, slot):
    """At sampler.SLOTS slots a sequence's step rows are the same bytes in
    any slot and next to any neighbours, busy, idle or restarted at other
    positions. The step attends over the keys up to the furthest slot's
    position, and summing over more masked keys can move the last bit, so
    here no neighbour runs ahead of the sequence, as when all slots start
    together."""
    params = checkpoints["noise"]
    limit = params.config.max_mol_len
    prompt = prepare_prompt(params, _text_ids("propanol an alcohol"))
    drawn = np.random.default_rng(1).integers(3, len(MOL_VOCAB),
                                              (2 * sampler.SLOTS, limit - 1))
    seqs = [[MOL_VOCAB.bos] + [int(i) for i in row] for row in drawn]
    target = seqs[0]
    alone = [[] for _ in range(sampler.SLOTS)]
    alone[0] = [("T", target)]
    want = _run_slots(prompt, alone)
    # Each busy neighbour restarts after 3 + s tokens with another sequence.
    plans = [[("N", seqs[s + 1][:3 + s]), ("M", seqs[-1 - s])]
             for s in range(sampler.SLOTS)]
    plans[slot] = [("T", target)]
    for s in range(1, sampler.SLOTS, 5):
        if s != slot:
            plans[s] = []           # idle, restarted at every step
    got = _run_slots(prompt, plans)
    for n in range(1, len(target) + 1):
        assert got["T", n][0].tobytes() == want["T", n][0].tobytes(), n


def test_one_uniform_per_sampled_token(checkpoints):
    """Each counted candidate drew one uniform per token, EOS and a final
    token at max_len included, and its string is those tokens. No candidate
    at or past the cap starts. Once the last counted candidate is done, the
    only draws are the rest of that decoder step's, by uncounted candidates,
    and none follows the return."""
    # The schedule runs out with 3 candidates per temperature, fewer than
    # the slots, and some samples end at max_len.
    started, endings, after = _check_draws(checkpoints["noise"], dict(
        target_unique=1, base_seed=2, max_len=12, per_temperature_cap=3))
    assert started == [(b, j) for b in range(8) for j in range(3)]
    assert endings == {True, False}
    assert not after
    # The target is reached while other candidates are still running.
    *_, after = _check_draws(checkpoints["smiles"], dict(
        target_unique=6, base_seed=6, per_temperature_cap=40))
    assert after


def _check_draws(params, fields):
    """Run generate_unique_set with recording streams and check the draws
    of the counted candidates. Returns the (temperature index, candidate
    index) of each started candidate, whether counted candidates ended at
    EOS, and the draws made after the last counted one was done."""
    cfg = GenerationConfig(**fields)
    made, log = [], []
    tokens_of: dict = {}
    strings = []

    class Counting(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed, self.draws = seed, 0
            made.append(self)

        def uniform(self):
            self.draws += 1
            log.append(self)
            return super().uniform()

    def recording_draw(logits, temperature, streams):
        drawn = real_draw(logits, temperature, streams)
        for rng, token in zip(streams, drawn.tolist()):
            tokens_of.setdefault(rng, []).append(token)
        return drawn

    def recording_candidates(*args):
        for text in real_candidates(*args):
            strings.append(text)
            yield text

    real_draw, real_candidates = sampler.sample_tokens, \
        sampler.sample_candidates
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "SplitMix64", Counting)
        patch.setattr(sampler, "sample_tokens", recording_draw)
        patch.setattr(sampler, "sample_candidates", recording_candidates)
        try:
            _, stats = generate_unique_set(
                params, _text_ids("ethanol a small alcohol"), cfg,
                vocab=MOL_VOCAB)
        except TargetUnreached as err:
            stats = err.stats
    returned_at = len(log)
    gc.collect()
    assert len(log) == returned_at

    # Which candidate each stream is: the j-th output of the b-th seeder.
    seeders = {cfg.base_seed + b
               for b in range(len(sampler.escalation_schedule(cfg)))}
    index_of = {}
    for seed in seeders:
        seeds = SplitMix64(seed)
        for j in range(cfg.per_temperature_cap):
            index_of[seeds.next_u64()] = (seed - cfg.base_seed, j)
    assert all(rng.seed in index_of or rng.seed in seeders for rng in made)
    streams = {index_of[rng.seed]: rng for rng in made
               if rng.seed in index_of}
    counted = [streams[b, j] for b, j in sorted(streams)
               if b * cfg.per_temperature_cap + j < stats.sample]
    assert len(counted) == stats.sample == len(strings)
    endings = set()
    for rng, text in zip(counted, strings):
        drawn = tokens_of[rng]
        assert rng.draws == len(drawn)
        ended_at_eos = drawn[-1] == MOL_VOCAB.eos
        assert ended_at_eos or len(drawn) == cfg.max_len
        body = drawn[:-1] if ended_at_eos else drawn
        assert MOL_VOCAB.eos not in body
        assert text == "".join(MOL_VOCAB.tokens[t] for t in body)
        endings.add(ended_at_eos)
    last = max(i for i, rng in enumerate(log) if rng in set(counted))
    after = log[last + 1:]
    assert len(after) == len(set(after)) < sampler.SLOTS
    assert not set(after) & set(counted)
    return sorted(streams), endings, after


def test_sampling_builds_no_tensors(checkpoints, monkeypatch):
    built = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    prompt = prepare_prompt(checkpoints["noise"],
                            _text_ids("ethanol a small alcohol"))
    streams = [SplitMix64(seed) for seed in range(20)]
    samples = list(sampler.sample_candidates(prompt, MOL_VOCAB, 1.0, 78,
                                             streams))
    assert len(samples) == 20
    assert sum(map(len, samples)) > 20
    assert not built


def test_step_logits_pinned():
    """The one-slot cached step's logits, bit for bit, on a checkpoint no
    training step made: init weights with a nonzero adapter output path."""
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
    cache = DecodeCache(prompt, 1)
    for token in [MOL_VOCAB.bos] + MOL_VOCAB.encode(list("CC(=O)Oc1ccccc1")):
        digest.update(cache.step([token])[0].tobytes())
    assert digest.hexdigest() == (
        "4d68f1d07dabf38a8d900863c1c105084704041f72e27c69cda2c754c4dfe490")
