"""Generation-quality metrics over (generated, reference) molecule pairs.

Exact match compares canonical SMILES with stereo retained. The three
fingerprint Tanimoto similarity (FTS) means are computed over the valid
generated molecules only, so adding invalid generations lowers validity
without touching the similarity means.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from chemlinker.errors import InvalidReference, MalformedRow, ParseError
from chemlinker.fingerprints import circular_fp, key_fp, path_fp, tanimoto
from chemlinker.molstring import canonical_smiles, parse_smiles


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics; keys_fts/path_fts/circular_fts are the MACCS-like,
    RDK-like, and Morgan-like similarity columns respectively."""

    n_pairs: int
    n_valid: int
    validity: float
    exact: float
    maccs_fts: float
    rdk_fts: float
    morgan_fts: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def evaluate_pairs(pairs) -> EvalReport:
    """Score (generated, reference) string pairs.

    Every reference must parse (InvalidReference otherwise); generated
    strings may be arbitrary. Means are accumulated in input order. Each
    distinct string is parsed, brought to its `aromatic_form` (the molecule
    `canonical_smiles` writes, so Kekulé and aromatic spellings score
    alike) and canonicalized once. Each distinct canonical string is
    fingerprinted once: fingerprints of the aromatic form do not depend on
    atom order, so every spelling of one molecule shares them.
    """
    pairs = list(pairs)
    n = len(pairs)
    n_valid = 0
    n_exact = 0
    sums = [0.0, 0.0, 0.0]    # keys, path, circular
    # Holding no ParseError keeps the traceback's frames, and with them
    # every parsed molecule, out of a reference cycle.
    parsed = {}               # string -> Molecule, or None if it does not parse
    features = {}             # string -> (canonical, keys, path, circular)
    fingerprints = {}         # canonical -> (keys, path, circular)

    def features_of(smiles):
        if smiles not in features:
            mol = parsed[smiles].aromatic_form()
            canonical = canonical_smiles(mol)
            if canonical not in fingerprints:
                fingerprints[canonical] = (key_fp(mol), path_fp(mol),
                                           circular_fp(mol))
            features[smiles] = (canonical, *fingerprints[canonical])
        return features[smiles]

    for generated, reference in pairs:
        if parsed.get(reference) is None:
            try:
                parsed[reference] = parse_smiles(reference)
            except ParseError as exc:
                raise InvalidReference(
                    f"reference does not parse: {reference!r}") from exc
        if generated not in parsed:
            try:
                parsed[generated] = parse_smiles(generated)
            except ParseError:
                parsed[generated] = None
        if parsed[generated] is None:
            continue
        n_valid += 1
        gen_canonical, *gen_fps = features_of(generated)
        ref_canonical, *ref_fps = features_of(reference)
        if gen_canonical == ref_canonical:
            n_exact += 1
        for k, (gen_fp, ref_fp) in enumerate(zip(gen_fps, ref_fps)):
            sums[k] += tanimoto(gen_fp, ref_fp)
    if n == 0:
        return EvalReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    means = [s / n_valid if n_valid else 0.0 for s in sums]
    return EvalReport(
        n_pairs=n,
        n_valid=n_valid,
        validity=n_valid / n,
        exact=n_exact / n,
        maccs_fts=means[0],
        rdk_fts=means[1],
        morgan_fts=means[2],
    )


def load_pairs_tsv(path) -> list[tuple[str, str]]:
    """Read `generated<TAB>reference` rows; blank lines are skipped."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedRow(
                    f"{path}:{line_number}: expected generated<TAB>reference,"
                    f" got {len(fields)} fields", line_number)
            pairs.append((fields[0], fields[1]))
    return pairs
