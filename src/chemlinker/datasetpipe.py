"""Dataset ingestion and curation: TSV loading, description filtering and
normalization, molecule-alphabet compatibility filtering, seeded subsampling.

Filter reports record per-rule drop counts so every curation run is
reproducible and auditable. A curation run parses each record's SMILES
once: the description rules and the compat rules read the same parse, and
the parsed molecule is dropped as soon as its canonical SMILES and compat
verdict are known, so memory grows with the record strings, not with the
molecules.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from chemlinker.errors import (
    DuplicateCid,
    MalformedRow,
    ParseError,
    SampleTooLarge,
    VocabError,
)
from chemlinker.adapternet.vocab import smiles_char_vocab
from chemlinker.molstring import canonical_smiles, parse_smiles
from chemlinker.rng import SplitMix64

MOSES_ELEMENTS = frozenset({"C", "N", "S", "O", "F", "Cl", "Br", "H"})
# PubChem descriptions holding this phrase (in any case) are dropped.
DROP_PHRASE = "natural product"

_HEADER = ("CID", "SMILES", "description")


@dataclass(frozen=True)
class DatasetRecord:
    cid: str
    smiles: str
    description: str


def load_split(path) -> list[DatasetRecord]:
    """Read one `CID<TAB>SMILES<TAB>description` TSV (header required on
    non-empty files). SMILES validity is enforced by the downstream filters,
    not at load time."""
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if line_number == 1:
                if tuple(fields) != _HEADER:
                    raise MalformedRow(
                        f"expected header {_HEADER}", line_number)
                continue
            if len(fields) != 3 or not fields[1] or not fields[2]:
                raise MalformedRow(
                    f"expected 3 non-empty columns, got {len(fields)}",
                    line_number)
            cid, smiles, description = fields
            if cid in seen:
                raise DuplicateCid(f"duplicate CID {cid}")
            seen.add(cid)
            records.append(DatasetRecord(cid, smiles, description))
    return records


def load_chebi20(directory) -> dict:
    """Load the train/validation/test splits present in a directory."""
    directory = Path(directory)
    splits = {}
    for name in ("train", "validation", "test"):
        path = directory / f"{name}.txt"
        if path.exists():
            splits[name] = load_split(path)
    return splits


@dataclass
class PubchemFilterConfig:
    min_words: int = 30                  # keep strictly more than this many
    exclusion: frozenset = frozenset()   # canonical SMILES to remove


def filter_pubchem(records, cfg: PubchemFilterConfig | None = None):
    """Apply the description-curation rules; returns (survivors, report).

    Per-record rules first (word count, phrase, parseability), then the
    one-to-many rule over their survivors, then exclusion-set removal.
    """
    survivors, report, _ = _curate(records, cfg, compat=False)
    return survivors, report


def _curate(records, cfg: PubchemFilterConfig | None, compat: bool):
    """`filter_pubchem`, then with `compat` the compat filter on its
    survivors, from one parse of each record; returns (survivors, pubchem
    report, compat report or None).

    Only strings outlive a record's turn in the per-record pass: its
    canonical SMILES and, with `compat`, its compat verdict.
    """
    cfg = cfg or PubchemFilterConfig()
    vocab = smiles_char_vocab() if compat else None
    report = {"input": len(records), "short_description": 0,
              "drop_phrase": 0, "unparseable": 0, "one_to_many": 0,
              "excluded": 0, "output": 0}
    staged = []
    for rec in records:
        if len(rec.description.split()) <= cfg.min_words:
            report["short_description"] += 1
            continue
        if DROP_PHRASE in rec.description.lower():
            report["drop_phrase"] += 1
            continue
        try:
            mol = parse_smiles(rec.smiles)
            canon = canonical_smiles(mol)
        except ParseError:
            report["unparseable"] += 1
            continue
        staged.append((rec, canon,
                       _compat_verdict(mol, vocab) if compat else None))

    by_description: dict[str, set[str]] = {}
    for rec, canon, _ in staged:
        by_description.setdefault(rec.description, set()).add(canon)
    survivors = []
    for rec, canon, verdict in staged:
        if len(by_description[rec.description]) > 1:
            report["one_to_many"] += 1
            continue
        if canon in cfg.exclusion:
            report["excluded"] += 1
            continue
        survivors.append((rec, verdict))
    report["output"] = len(survivors)
    if not compat:
        return [rec for rec, _ in survivors], report, None
    kept, compat_report = _compat_outcome(survivors)
    return kept, report, compat_report


_TRAILER = re.compile(r"\s*with data available(?=\s*\.?\s*$)")
_SUBJECT = re.compile(r"^(?!This molecule\b)\S.*?\s+(is|are)\s+", re.DOTALL)


def normalize_description(text: str) -> str:
    """Replace the leading name clause with "This molecule" and strip the
    trailing "with data available" phrase. Idempotent."""
    text = _TRAILER.sub("", text)
    match = _SUBJECT.match(text)
    if match:
        text = f"This molecule {match.group(1)} " + text[match.end():]
    return text.strip()


def compat_filter(records):
    """Drop records outside the molecule alphabet; returns (survivors, report).

    Stereo is removed first, then records are dropped if any atom's element
    is outside `MOSES_ELEMENTS` or the rewritten SMILES does not tokenize
    under the molecule vocabulary. Survivors carry the rewritten canonical
    SMILES.
    """
    vocab = smiles_char_vocab()

    def verdict(rec):
        try:
            mol = parse_smiles(rec.smiles)
        except ParseError:
            return "unparseable", None
        return _compat_verdict(mol, vocab)

    return _compat_outcome([(rec, verdict(rec)) for rec in records])


def _compat_verdict(mol, vocab) -> tuple[str | None, str | None]:
    """The compat rules on one parsed molecule: (the rule that drops it,
    None), or (None, its stereo-free canonical SMILES)."""
    if any(a.element not in MOSES_ELEMENTS for a in mol.atoms):
        return "disallowed_element", None
    rewritten = canonical_smiles(mol.strip_stereo())
    try:
        vocab.encode(list(rewritten))
    except VocabError:
        return "untokenizable", None
    return None, rewritten


def _compat_outcome(judged):
    """Survivors and report of the compat filter over (record, verdict)
    pairs; a survivor carries its rewritten SMILES."""
    report = {"input": len(judged), "unparseable": 0,
              "disallowed_element": 0, "untokenizable": 0, "output": 0}
    survivors = []
    for rec, (rule, rewritten) in judged:
        if rule is not None:
            report[rule] += 1
        else:
            survivors.append(
                DatasetRecord(rec.cid, rewritten, rec.description))
    report["output"] = len(survivors)
    return survivors, report


def sample_subset(records, n: int, seed: int):
    """Deterministic sample of n records without replacement (input order)."""
    records = list(records)
    if n > len(records):
        raise SampleTooLarge(f"asked for {n} of {len(records)} records")
    picks = SplitMix64(seed).sample_indices(len(records), n)
    return [records[i] for i in sorted(picks)]


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_split(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_HEADER) + "\n")
        for rec in records:
            fh.write(f"{rec.cid}\t{rec.smiles}\t{rec.description}\n")
