"""SMILES/SELFIES parsing, canonicalization, and interconversion."""

from chemlinker.molstring.kekulize import aromatize, kekulize, kekulized
from chemlinker.molstring.model import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
)
from chemlinker.molstring.selfies import (
    EOS,
    decode_selfies,
    encode_selfies,
    split_tokens,
    token_alphabet,
)
from chemlinker.molstring.smiles import parse_smiles
from chemlinker.molstring.write import canonical_smiles, write_smiles


__all__ = [
    "AROMATIC", "DOUBLE", "SINGLE", "TRIPLE",
    "Atom", "Bond", "Molecule", "EOS",
    "aromatize", "kekulize", "kekulized",
    "parse_smiles", "write_smiles", "canonical_smiles",
    "encode_selfies", "decode_selfies", "split_tokens", "token_alphabet",
]
