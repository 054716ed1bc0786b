"""The three closed-loop workloads.

Each workload runs in one process and one caller thread and starts an
operation only after the previous one has ended. Operations go through
`chemlinker.cli.main` (the `dataset`, `train`, `generate`, `eval` and
`consensus` subcommands) or the public molstring calls, always looked up
on their module at call time so that a traced run sees them.

A round is a fixed list of operations on fresh inputs made from the
workload seed and the round index; `prepare` writes them (untimed),
`execute` runs and times the operations, `check` verifies the outputs
(untimed). Fresh inputs per round keep a cache inside the program from
turning later rounds into repeats of the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import chemlinker.adapternet
import chemlinker.cli
import chemlinker.molstring
import chemlinker.rng

from bench import checks, gen


class OperationFailed(Exception):
    pass


@dataclass
class Op:
    stage: str
    seconds: float
    items: float          # records, tokens, pairs, molecules, ...
    tokens: int = 0       # sampled by `generate`
    samples: int = 0


@dataclass
class RoundResult:
    ops: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    work: float = 0.0     # the workload's unit of work done in this round
    passing: int = 0      # molecules `generate` returned

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_cli(argv: list) -> tuple[str, str, float]:
    """Run one subcommand in-process; returns (stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = chemlinker.cli.main(argv)
    seconds = perf_counter() - start
    if code != 0:
        raise OperationFailed(f"chemlinker {argv[0]} exited {code}: "
                              f"{err.getvalue().strip()[-300:]}")
    return out.getvalue(), err.getvalue(), seconds


class Workload:
    name = ""
    ops_per_round = 0
    setups = 9            # set-ups per `--trace 0` run; setup_s is their median

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def setup(self) -> None:
        pass

    def execute(self, inputs) -> RoundResult:
        """Run one round. The first operation that fails ends the round;
        it and the operations after it count as failed."""
        result = RoundResult(attempted=self.ops_per_round)
        try:
            self._run(inputs, result)
        except checks.CheckFailed:
            raise
        except Exception as exc:   # noqa: BLE001 - a failed operation
            result.failed = self.ops_per_round - len(result.ops)
            result.outputs["error"] = f"{type(exc).__name__}: {exc}"
        return result

    def finish(self, first_inputs, first_result: RoundResult) -> None:
        """Checks made once per run, after the timed rounds."""

    def stage_metrics(self, rounds: list) -> dict:
        return {}


def _rate(rounds: list, stage: str) -> float:
    ops = [op for r in rounds for op in r.ops if op.stage == stage]
    seconds = sum(op.seconds for op in ops)
    return sum(op.items for op in ops) / seconds if seconds else 0.0


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# --- train -------------------------------------------------------------------------


class Train(Workload):
    """Curate a PubChem-style TSV of corpus-sized molecules, then train the
    adapter for a fixed number of steps at batch 16."""

    name = "train"
    ops_per_round = 2
    KEPT = 40
    PLANT = {"short_description": 2, "drop_phrase": 2, "unparseable": 2,
             "one_to_many": 2, "excluded": 2, "disallowed_element": 2}
    STEPS = 30
    BATCH = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.histories: list = []
        _capture_train_history(self.histories)

    def setup(self) -> None:
        # A short warm-up of both subcommands on a small file.
        rng = random.Random(f"{self.name}/setup")
        inp = gen.curation_input(
            rng, [gen.small_molecule(rng) for _ in range(8)], {}, "w")
        _write(self.path("warm.tsv"), inp.tsv)
        run_cli(["dataset", "--input", self.path("warm.tsv"),
                 "--output", self.path("warm_clean.tsv")])
        run_cli(["train", "--data", self.path("warm_clean.tsv"),
                 "--out", self.path("warm.ckpt"), "--steps", "2"])

    def prepare(self, index):
        rng = self.rng(index)
        inp = gen.curation_input(
            rng, [gen.small_molecule(rng) for _ in range(self.KEPT)],
            self.PLANT, f"r{index}k")
        _write(self.path("raw.tsv"), inp.tsv)
        _write(self.path("exclusion.txt"), inp.exclusion)
        return inp, rng.randrange(1, 10**6)

    def _run(self, inputs, result: RoundResult) -> None:
        inp, train_seed = inputs
        _, _, seconds = run_cli([
            "dataset", "--input", self.path("raw.tsv"),
            "--output", self.path("clean.tsv"),
            "--report", self.path("report.json"),
            "--exclusion", self.path("exclusion.txt")])
        records = len(inp.tsv.splitlines()) - 1
        result.ops.append(Op("curate", seconds, records))
        clean = _read(self.path("clean.tsv"))
        # Teacher-forced targets are the molecule's characters plus EOS;
        # batches cycle through the curated set, so a step of 16 examples
        # carries 16 times the mean target length.
        lengths = [len(line.split("\t")[1]) + 1
                   for line in clean.splitlines()[1:]]
        tokens = self.STEPS * self.BATCH * sum(lengths) / len(lengths)
        del self.histories[:]
        _, _, seconds = run_cli([
            "train", "--data", self.path("clean.tsv"),
            "--out", self.path("model.ckpt"), "--steps", str(self.STEPS),
            "--batch-size", str(self.BATCH), "--seed", str(train_seed)])
        result.ops.append(Op("train", seconds, tokens))
        # Step cost hardly depends on molecule length (the text encoder
        # dominates), so the unit of work is the example, not the token.
        result.work = self.STEPS * self.BATCH
        result.outputs = {
            "report": _read(self.path("report.json")),
            "clean": clean,
            "checkpoint": Path(self.path("model.ckpt")).read_bytes(),
            "history": list(self.histories[-1]) if self.histories else None,
        }

    def check(self, inputs, result: RoundResult) -> None:
        inp, train_seed = inputs
        checks.check_curation(json.loads(result.outputs["report"]),
                              result.outputs["clean"], inp)
        checks.check_loss_trend(result.outputs["history"], self.STEPS)
        trained = chemlinker.adapternet.load_checkpoint(
            self.path("model.ckpt"))
        fresh = chemlinker.adapternet.init_model(trained.config)
        checks.check_frozen(trained, fresh, train_seed, self.STEPS)

    def stage_metrics(self, rounds):
        return {
            "curate_records_per_s": (_rate(rounds, "curate"), "records/s"),
            "train_tokens_per_s": (_rate(rounds, "train"), "tokens/s"),
        }


def _capture_train_history(sink: list) -> None:
    """Keep the loss history `chemlinker train` computes and discards.

    The wrapper looks the training function up on its own module at each
    call, so a tracer installed later still sees the call.
    """
    training = chemlinker.adapternet.training

    def capture(*args, **kwargs):
        params, history = training.train_adapter(*args, **kwargs)
        sink.append(list(history))
        return params, history

    chemlinker.cli.train_adapter = capture


# --- generate ----------------------------------------------------------------------


class Generate(Workload):
    """Sample k unique molecules for held-out prompts from a checkpoint that
    set-up trains with a fixed seed on a fixed corpus."""

    name = "generate"
    PROMPTS = 1
    K = 3
    ops_per_round = PROMPTS
    setups = 3            # each trains a checkpoint for about 5 s
    TRAIN_MOLECULES = 120
    TRAIN_STEPS = 60
    TRAIN_SEED = 7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tokens = [0]
        _count_sampled_tokens(self.tokens)

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/checkpoint")
        inp = gen.curation_input(
            rng, [gen.small_molecule(rng)
                  for _ in range(self.TRAIN_MOLECULES)], {}, "g")
        _write(self.path("corpus.tsv"), inp.tsv)
        run_cli(["dataset", "--input", self.path("corpus.tsv"),
                 "--output", self.path("corpus_clean.tsv")])
        run_cli(["train", "--data", self.path("corpus_clean.tsv"),
                 "--out", self.path("model.ckpt"),
                 "--steps", str(self.TRAIN_STEPS),
                 "--seed", str(self.TRAIN_SEED)])

    def prepare(self, index):
        rng = self.rng(index)
        return [(gen.prompt_for(gen.small_molecule(rng), rng),
                 rng.randrange(1, 10**6)) for _ in range(self.PROMPTS)]

    def _generate(self, prompt: str, seed: int, out: str):
        return run_cli(["generate", "--ckpt", self.path("model.ckpt"),
                        "--text", prompt, "--n", str(self.K),
                        "--seed", str(seed), "--out", out])

    def _run(self, inputs, result: RoundResult) -> None:
        for j, (prompt, seed) in enumerate(inputs):
            before = self.tokens[0]
            stdout, stderr, seconds = self._generate(
                prompt, seed, self.path(f"out{j}.txt"))
            stats = json.loads(stderr.strip().splitlines()[-1])
            tokens = self.tokens[0] - before
            if not tokens:
                raise checks.CheckFailed(
                    "no sampled tokens counted: generate drew no uniform "
                    "from chemlinker.rng.SplitMix64")
            result.ops.append(Op("generate", seconds, self.K, tokens,
                                 stats["sample"]))
            result.work += tokens
            result.passing += self.K
            result.outputs[j] = (stdout, stderr,
                                 _read(self.path(f"out{j}.txt")))

    def check(self, inputs, result: RoundResult) -> None:
        for j in range(len(inputs)):
            stdout, stderr, written = result.outputs[j]
            lines = stdout.split()
            checks.check_generated(
                lines, json.loads(stderr.strip().splitlines()[-1]), self.K,
                chemlinker.molstring.parse_smiles,
                chemlinker.molstring.canonical_smiles)
            if written != "\n".join(lines) + "\n":
                raise checks.CheckFailed("--out file differs from stdout")

    def finish(self, first_inputs, first_result: RoundResult) -> None:
        """A repeat of the run's first prompt with the same seed is
        byte-identical."""
        prompt, seed = first_inputs[0]
        stdout, stderr, _ = self._generate(prompt, seed,
                                           self.path("again.txt"))
        if (stdout, stderr, _read(self.path("again.txt"))) != \
                first_result.outputs[0]:
            raise checks.CheckFailed(
                "generate with the same seed gave different output")

    def stage_metrics(self, rounds):
        ops = [op for r in rounds for op in r.ops]
        seconds = sum(op.seconds for op in ops) or float("inf")
        prompts = len(ops) or 1
        return {
            "generate_tokens_per_s": (
                sum(op.tokens for op in ops) / seconds, "tokens/s"),
            "generate_molecules_per_s": (_rate(rounds, "generate"),
                                         "molecules/s"),
            "samples_per_prompt": (
                sum(op.samples for op in ops) / prompts, "samples"),
            "tokens_per_prompt": (
                sum(op.tokens for op in ops) / prompts, "tokens"),
        }


def _count_sampled_tokens(counter: list) -> None:
    """Count the tokens `generate` samples as SplitMix64 uniform draws: the
    sampler's contract is exactly one uniform per sampled token, and
    nothing else in `generate` draws from it."""
    rng_class = chemlinker.rng.SplitMix64
    uniform = getattr(rng_class.uniform, "_bench_original", rng_class.uniform)

    def counting(self):
        counter[0] += 1
        return uniform(self)

    counting._bench_original = uniform
    rng_class.uniform = counting


# --- evaluate ----------------------------------------------------------------------


class Evaluate(Workload):
    """Score generated against reference molecules, curate and SELFIES
    round-trip the same molecules, and rank a multi-program score table.
    No part touches the neural network."""

    name = "evaluate"
    N_SMALL = 24
    N_LARGE = len(gen.LARGE_TEMPLATES) + 1
    N_INVALID = 3
    PLANT = {"short_description": 1, "drop_phrase": 1, "unparseable": 1,
             "one_to_many": 1, "excluded": 1, "disallowed_element": 1}
    TABLE = 1000
    # dataset, three evals and consensus, plus one round trip per molecule
    ops_per_round = 5 + N_SMALL + N_LARGE

    def setup(self) -> None:
        # A warm-up of every operation on a few small molecules.
        rng = random.Random(f"{self.name}/setup")
        self._run(self._inputs(rng, [gen.small_molecule(rng)
                                     for _ in range(6)], 2, 1, 20, "w"),
                  RoundResult())

    def prepare(self, index):
        rng = self.rng(index)
        molecules = [gen.small_molecule(rng) for _ in range(self.N_SMALL)]
        molecules += gen.large_molecules(rng)
        return self._inputs(rng, molecules, self.N_SMALL, self.N_INVALID,
                            self.TABLE, f"e{index}k", self.PLANT)

    def _inputs(self, rng, molecules, n_small, n_invalid, table, prefix,
                plant=None):
        ev = gen.eval_input(rng, molecules, n_small, n_invalid)
        cur = gen.curation_input(rng, molecules, plant or {}, prefix)
        rows = gen.score_table(rng, table)
        _write(self.path("generated.txt"), "\n".join(ev.generated) + "\n")
        _write(self.path("reference.txt"), "\n".join(ev.reference) + "\n")
        _write(self.path("same.tsv"), "\n".join(ev.same) + "\n")
        _write(self.path("swapped.tsv"), "\n".join(ev.swapped) + "\n")
        _write(self.path("raw.tsv"), cur.tsv)
        _write(self.path("exclusion.txt"), cur.exclusion)
        _write(self.path("scores.csv"), "molecule_id,program,score\n" + "".join(
            f"{m},{p},{v}\n" for m, p, v in rows))
        _write(self.path("directions.json"), json.dumps(gen.PROGRAMS))
        return ev, cur, rows

    def _run(self, inputs, result: RoundResult) -> None:
        ev, cur, rows = inputs
        _, _, seconds = run_cli([
            "dataset", "--input", self.path("raw.tsv"),
            "--output", self.path("clean.tsv"),
            "--report", self.path("report.json"),
            "--exclusion", self.path("exclusion.txt")])
        result.ops.append(Op("curate", seconds, len(cur.tsv.splitlines()) - 1))
        reports = {}
        for key, argv, pairs in (
                ("variant", ["--pred", self.path("generated.txt"),
                             "--ref", self.path("reference.txt")],
                 len(ev.generated)),
                ("same", ["--pred", self.path("same.tsv")], len(ev.same)),
                ("swapped", ["--pred", self.path("swapped.tsv")],
                 len(ev.swapped))):
            stdout, _, seconds = run_cli(["eval"] + argv)
            result.ops.append(Op("eval", seconds, pairs))
            reports[key] = stdout
        round_trips = []
        molstring = chemlinker.molstring
        for index, smiles in ev.originals:
            start = perf_counter()
            tokens = molstring.encode_selfies(molstring.parse_smiles(smiles))
            back = molstring.canonical_smiles(
                molstring.decode_selfies("".join(tokens)))
            result.ops.append(Op("selfies", perf_counter() - start, 1))
            round_trips.append((index, back))
        _, _, seconds = run_cli([
            "consensus", "--scores", self.path("scores.csv"),
            "--dirs", self.path("directions.json"),
            "--out", self.path("ecr.csv")])
        result.ops.append(Op("rank", seconds, len({m for m, _, _ in rows})))
        result.work = len(ev.originals)
        result.outputs = {
            "report": _read(self.path("report.json")),
            "clean": _read(self.path("clean.tsv")),
            "evals": reports,
            "round_trips": round_trips,
            "ecr": _read(self.path("ecr.csv")),
        }

    def check(self, inputs, result: RoundResult) -> None:
        ev, cur, rows = inputs
        out = result.outputs
        curated = checks.check_curation(json.loads(out["report"]),
                                        out["clean"], cur)
        reports = {k: checks.parse_report(v) for k, v in out["evals"].items()}
        checks.check_eval(reports["variant"], reports["same"],
                          reports["swapped"], ev)
        checks.check_selfies(out["round_trips"], curated,
                             dict(enumerate(cur.kept)))
        checks.check_ecr(out["ecr"], rows, gen.PROGRAMS)

    def stage_metrics(self, rounds):
        return {
            "curate_records_per_s": (_rate(rounds, "curate"), "records/s"),
            "eval_pairs_per_s": (_rate(rounds, "eval"), "pairs/s"),
            "selfies_molecules_per_s": (_rate(rounds, "selfies"),
                                        "molecules/s"),
            "rank_molecules_per_s": (_rate(rounds, "rank"), "molecules/s"),
        }


WORKLOADS = {w.name: w for w in (Train, Generate, Evaluate)}
