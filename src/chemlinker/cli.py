"""Command-line entry point binding every module into reproducible runs.

Exit codes: 0 success, 1 domain error (bad molecule, empty table, target
unreached, ...), 2 usage error. Whenever a subcommand writes an output file,
`main` writes a `<output>.manifest.json` RunManifest beside it recording the
subcommand, the full flag configuration, SHA-256 hashes of the inputs, the
seed, the tool version, and the wall time, so identical inputs reproduce
identical outputs verifiably.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from chemlinker import __version__
from chemlinker.errors import (
    ChemlinkerError,
    LengthMismatch,
    ParseError,
    TargetUnreached,
    VocabError,
)
from chemlinker.adapternet import (
    TrainConfig,
    Vocab,
    init_model,
    load_checkpoint,
    save_checkpoint,
    smiles_char_vocab,
    train_adapter,
    word_vocab,
)
from chemlinker.consensus import (
    background_report,
    ecr_scores,
    load_score_table,
    write_ecr_csv,
)
from chemlinker.datasetpipe import (
    PubchemFilterConfig,
    _curate,
    load_split,
    normalize_description,
    sample_subset,
    write_report,
    write_split,
)
from chemlinker.fingerprints import circular_fp, key_fp, path_fp
from chemlinker.metrics import evaluate_pairs, load_pairs_tsv
from chemlinker.molstring import (
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    parse_smiles,
)
from chemlinker.sampler import GenerationConfig, generate_unique_set


# glibc's mallopt parameter M_TOP_PAD (malloc.h) and the padding it keeps.
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 16 << 20


@functools.cache
def _keep_heap_top() -> bool:
    """Ask glibc to keep 16 MiB at the top of the heap when it trims.

    A training step allocates a few MB of arrays and frees them together
    when its graph dies. glibc would give that freed heap top back to the
    system, and the next step would fault every page of it in again: hundreds
    of minor faults per step. With the padding kept, each step reuses the
    pages the previous one freed. Returns whether the setting took; without
    glibc's mallopt it does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, outputs, inputs, seed, started: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    for out in outputs:
        path = Path(str(out) + ".manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


# --- subcommands ------------------------------------------------------------------
# A handler that writes files returns (outputs, inputs, seed) for `main` to
# write their manifests from; the others return None.


def _cmd_canon(args):
    print(canonical_smiles(args.smiles))


def _cmd_selfies_encode(args):
    print("".join(encode_selfies(parse_smiles(args.smiles))))


def _cmd_selfies_decode(args):
    print(canonical_smiles(decode_selfies(args.tokens)))


def _cmd_fp(args):
    mol = parse_smiles(args.smiles).aromatic_form()     # as `eval` scores it
    if args.scheme == "circ":
        fp = circular_fp(mol, radius=args.radius, nbits=args.nbits)
    elif args.scheme == "path":
        fp = path_fp(mol, max_len=args.max_len, nbits=args.nbits)
    else:
        fp = key_fp(mol)
    print(fp.to_hex())


def _cmd_eval(args):
    if args.ref is not None:
        preds = Path(args.pred).read_text(encoding="utf-8").splitlines()
        refs = Path(args.ref).read_text(encoding="utf-8").splitlines()
        if len(preds) != len(refs):
            raise LengthMismatch(
                f"{args.pred} has {len(preds)} lines but {args.ref} has "
                f"{len(refs)}")
        pairs = [(p, r) for p, r in zip(preds, refs) if p or r]
        inputs = [args.pred, args.ref]
    else:
        pairs = load_pairs_tsv(args.pred)
        inputs = [args.pred]
    report = evaluate_pairs(pairs)
    print(report.to_json())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        return [args.out], inputs, None


def _exclusion_entry(path, smiles: str) -> str:
    try:
        return canonical_smiles(smiles)
    except ParseError as exc:
        raise type(exc)(f"{path}: exclusion entry {smiles!r} does not "
                        f"parse: {exc}") from exc


def _cmd_dataset(args):
    records = load_split(args.input)
    exclusion = frozenset()
    if args.exclusion:
        raw = Path(args.exclusion).read_text(encoding="utf-8").split()
        exclusion = frozenset(_exclusion_entry(args.exclusion, s)
                              for s in raw)
    cfg = PubchemFilterConfig(min_words=args.min_words, exclusion=exclusion)
    records, pubchem_report, compat_report = _curate(
        records, cfg, compat=not args.skip_compat)
    records = [type(r)(r.cid, r.smiles, normalize_description(r.description))
               for r in records]
    if args.sample is not None:
        records = sample_subset(records, args.sample, args.seed)
    write_split(records, args.output)
    outputs = [args.output]
    if args.report:
        write_report({"pubchem": pubchem_report, "compat": compat_report,
                      "sampled": args.sample}, args.report)
        outputs.append(args.report)
    inputs = [args.input] + ([args.exclusion] if args.exclusion else [])
    print(f"wrote {len(records)} records to {args.output}")
    return outputs, inputs, args.seed


def _text_ids(vocab: Vocab, text: str, max_text_len: int) -> list[int]:
    """BOS, the first words of `text` that fit the text encoder's positional
    table, EOS."""
    words = text.split()[:max_text_len - 2]
    return [vocab.bos] + vocab.encode(words) + [vocab.eos]


def _training_pairs(records, max_text_len: int):
    texts = [r.description for r in records]
    tvocab = word_vocab(texts)
    mvocab = smiles_char_vocab()
    dataset = []
    for r in records:
        try:
            mol_ids = mvocab.encode(list(r.smiles))
        except VocabError as exc:
            raise VocabError(f"record CID {r.cid}: {exc}") from exc
        dataset.append((_text_ids(tvocab, r.description, max_text_len),
                        [mvocab.bos] + mol_ids + [mvocab.eos]))
    return dataset, tvocab, mvocab


def _cmd_train(args):
    records = load_split(args.data)
    dataset, tvocab, mvocab = _training_pairs(records,
                                              TrainConfig.max_text_len)
    cfg = TrainConfig(text_vocab=len(tvocab), mol_vocab=len(mvocab),
                      max_steps=args.steps, seed=args.seed,
                      batch_size=args.batch_size)
    params = init_model(cfg)
    try:
        params, history = train_adapter(params, dataset, cfg)
    except ChemlinkerError as exc:
        if not hasattr(exc, "example"):
            raise
        raise type(exc)(
            f"record CID {records[exc.example].cid}: {exc}") from exc
    save_checkpoint(params, args.out, tvocab, mvocab)
    print(f"final loss {history[-1]:.4f} after {len(history)} steps; "
          f"checkpoint at {args.out}")
    return [args.out], [args.data], args.seed


def _cmd_generate(args):
    params = load_checkpoint(args.ckpt)
    text_ids = _text_ids(params.text_vocab, args.text,
                         params.config.max_text_len)
    cfg = GenerationConfig(target_unique=args.n, base_seed=args.seed,
                           base_temperature=args.temperature)
    try:
        molecules, stats = generate_unique_set(params, text_ids, cfg)
    except TargetUnreached as exc:
        print(exc.stats.to_json(), file=sys.stderr)
        raise
    for smiles in molecules:
        print(smiles)
    print(stats.to_json(), file=sys.stderr)
    if args.out:
        Path(args.out).write_text("\n".join(molecules) + "\n",
                                  encoding="utf-8")
        return [args.out], [args.ckpt], args.seed


def _score(value) -> bool:
    """A finite number: json.load reads true as a bool, an int subclass,
    and NaN and Infinity as floats."""
    return type(value) is int or (type(value) is float
                                  and math.isfinite(value))


def _scores(value) -> bool:
    return isinstance(value, list) and all(map(_score, value))


def _cmd_consensus(args):
    table = load_score_table(args.scores, args.dirs)
    scores = ecr_scores(table, sigma=args.sigma)
    inputs = [args.scores, args.dirs]
    report = None
    if args.background:
        with open(args.background, encoding="utf-8") as fh:
            fixture = json.load(fh)
        if not (isinstance(fixture, dict)
                and _scores(fixture.get("candidates"))
                and isinstance(fixture.get("backgrounds"), dict)
                and all(map(_scores, fixture["backgrounds"].values()))
                and _score(fixture.get("probe"))):
            raise ValueError(
                "background file must hold a JSON object with candidates "
                "(a score list), backgrounds (named score lists) and probe "
                "(a score)")
        report = background_report(fixture["candidates"],
                                   fixture["backgrounds"], fixture["probe"])
        inputs.append(args.background)
    write_ecr_csv(scores, args.out)
    if report is not None:
        print(report.to_json())
    print(f"wrote {len(scores)} ECR scores to {args.out}")
    return [args.out], inputs, None


# --- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and reused after that.

    Building it costs about a millisecond (nine subparsers, 45 arguments,
    a help formatter for each), which every in-process `main` call would
    otherwise pay before any work; a shell invocation builds it once either
    way. Callers must not change the parser. Each subcommand's handler is
    bound when the parser is built, so replacing a `_cmd_*` function after
    the first build does not take effect.
    """
    parser = argparse.ArgumentParser(
        prog="chemlinker",
        description="Text-conditioned molecule generation toolkit.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("canon", help="canonicalize a SMILES string")
    p.add_argument("smiles")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("selfies-encode", help="SMILES to SELFIES tokens")
    p.add_argument("smiles")
    p.set_defaults(func=_cmd_selfies_encode)

    p = sub.add_parser("selfies-decode", help="SELFIES tokens to SMILES")
    p.add_argument("tokens")
    p.set_defaults(func=_cmd_selfies_decode)

    p = sub.add_parser("fp", help="fingerprint a molecule (hex)")
    p.add_argument("smiles")
    p.add_argument("--scheme", choices=["circ", "path", "keys"],
                   default="circ")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--max-len", type=int, default=7)
    p.add_argument("--nbits", type=int, default=2048)
    p.set_defaults(func=_cmd_fp)

    p = sub.add_parser("eval", help="score generated vs reference molecules")
    p.add_argument("--pred", required=True,
                   help="predictions file (one SMILES per line, or "
                        "generated<TAB>reference rows if --ref is omitted)")
    p.add_argument("--ref", help="reference file, one SMILES per line")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dataset", help="filter and normalize a dataset TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="write per-rule drop counts here")
    p.add_argument("--exclusion", help="file of SMILES to exclude")
    p.add_argument("--min-words", type=int, default=30)
    p.add_argument("--skip-compat", action="store_true")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", help="train the adapter on a dataset TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="sample unique molecules from text")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("consensus", help="exponential consensus ranking")
    p.add_argument("--scores", required=True,
                   help="CSV of molecule_id,program,score rows")
    p.add_argument("--dirs", required=True,
                   help="JSON mapping program -> 'lower'|'higher'")
    p.add_argument("--sigma", type=float)
    p.add_argument("--background",
                   help="JSON with candidates/backgrounds/probe for a "
                        "background comparison report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_consensus)

    return parser


def main(argv=None) -> int:
    _keep_heap_top()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    started = time.monotonic()
    try:
        wrote = args.func(args)
        if wrote is not None:
            _write_manifest(args, *wrote, started)
    except (ChemlinkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
