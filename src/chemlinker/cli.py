"""Command-line entry point binding every module into reproducible runs.

Exit codes: 0 success, 1 domain error (bad molecule, empty table, target
unreached, ...), 2 usage error. Whenever a subcommand writes an output file,
a `<output>.manifest.json` RunManifest is written beside it recording the
subcommand, the full flag configuration, SHA-256 hashes of the inputs, the
seed, the tool version, and the wall time, so identical inputs reproduce
identical outputs verifiably.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from chemlinker import __version__
from chemlinker.errors import ChemlinkerError, LengthMismatch
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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, outputs, inputs, started: float,
                    seed=None) -> None:
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


def _cmd_canon(args, started):
    print(canonical_smiles(args.smiles))


def _cmd_selfies_encode(args, started):
    print("".join(encode_selfies(parse_smiles(args.smiles))))


def _cmd_selfies_decode(args, started):
    print(canonical_smiles(decode_selfies(args.tokens)))


def _cmd_fp(args, started):
    mol = parse_smiles(args.smiles)
    if args.scheme == "circ":
        fp = circular_fp(mol, radius=args.radius, nbits=args.nbits)
    elif args.scheme == "path":
        fp = path_fp(mol, max_len=args.max_len, nbits=args.nbits)
    else:
        fp = key_fp(mol)
    print(fp.to_hex())


def _cmd_eval(args, started):
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
        _write_manifest(args, [args.out], inputs, started)


def _cmd_dataset(args, started):
    records = load_split(args.input)
    exclusion = frozenset()
    if args.exclusion:
        raw = Path(args.exclusion).read_text(encoding="utf-8").split()
        exclusion = frozenset(canonical_smiles(s) for s in raw)
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
    _write_manifest(args, outputs, inputs, started, seed=args.seed)
    print(f"wrote {len(records)} records to {args.output}")


def _text_ids(vocab: Vocab, text: str, max_text_len: int) -> list[int]:
    """BOS, the first words of `text` that fit the text encoder's positional
    table, EOS."""
    words = text.split()[:max_text_len - 2]
    return [vocab.bos] + vocab.encode(words) + [vocab.eos]


def _load_training_pairs(path, max_text_len: int):
    records = load_split(path)
    texts = [r.description for r in records]
    tvocab = word_vocab(texts)
    mvocab = smiles_char_vocab()
    dataset = [(_text_ids(tvocab, r.description, max_text_len),
                [mvocab.bos] + mvocab.encode(list(r.smiles)) + [mvocab.eos])
               for r in records]
    return dataset, tvocab, mvocab


def _cmd_train(args, started):
    dataset, tvocab, mvocab = _load_training_pairs(
        args.data, TrainConfig.max_text_len)
    cfg = TrainConfig(text_vocab=len(tvocab), mol_vocab=len(mvocab),
                      max_steps=args.steps, seed=args.seed,
                      batch_size=args.batch_size)
    params = init_model(cfg)
    params, history = train_adapter(params, dataset, cfg)
    save_checkpoint(params, args.out, tvocab, mvocab)
    _write_manifest(args, [args.out], [args.data], started, seed=args.seed)
    print(f"final loss {history[-1]:.4f} after {len(history)} steps; "
          f"checkpoint at {args.out}")


def _cmd_generate(args, started):
    params = load_checkpoint(args.ckpt)
    text_ids = _text_ids(params.text_vocab, args.text,
                         params.config.max_text_len)
    cfg = GenerationConfig(target_unique=args.n, base_seed=args.seed,
                           base_temperature=args.temperature)
    molecules, stats = generate_unique_set(params, text_ids, cfg,
                                           vocab=params.mol_vocab)
    for smiles in molecules:
        print(smiles)
    if args.out:
        Path(args.out).write_text("\n".join(molecules) + "\n",
                                  encoding="utf-8")
        _write_manifest(args, [args.out], [args.ckpt], started,
                        seed=args.seed)
    print(stats.to_json(), file=sys.stderr)


def _cmd_consensus(args, started):
    table = load_score_table(args.scores, args.dirs)
    scores = ecr_scores(table, sigma=args.sigma)
    write_ecr_csv(scores, args.out)
    outputs = [args.out]
    inputs = [args.scores, args.dirs]
    if args.background:
        with open(args.background, encoding="utf-8") as fh:
            fixture = json.load(fh)
        report = background_report(fixture["candidates"],
                                   fixture["backgrounds"], fixture["probe"])
        print(report.to_json())
        inputs.append(args.background)
    _write_manifest(args, outputs, inputs, started)
    print(f"wrote {len(scores)} ECR scores to {args.out}")


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    started = time.monotonic()
    try:
        args.func(args, started)
    except ChemlinkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
