"""One aromaticity rule for kekulization and perception.

`kekulize` (parsing an aromatic spelling) and `aromatize` (perceiving a
Kekulé graph, as SELFIES decoding does) share one pi count and one 4n+2
test, so a molecule has one canonical string however it is spelled and in
any atom order, and keeps it through a SELFIES round trip.
"""

import random
import time
from pathlib import Path

import pytest

from chemlinker.errors import KekulizationFailure
from chemlinker.molstring import (
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    kekulized,
    parse_smiles,
    write_smiles,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()

# name -> (spellings of one molecule, its canonical string)
SPELLINGS = {
    "tropylium": (["[cH+]1cccccc1", "[CH+]1C=CC=CC=C1"], "c1ccccc[cH+]1"),
    "borepin": (["[bH]1cccccc1", "[BH]1C=CC=CC=C1"], "[bH]1cccccc1"),
    "azulene-cyclohexane": (["C1CCc2cc3cccccc3c2C1",
                             "C3CCC2=CC1=CC=CC=CC1=C2C3"],
                            "c2c1cccccc1c3CCCCc23"),
    "pyrene": (["c1cc2ccc3cccc4ccc(c1)c2c34"], "c1cc4cccc3ccc2cccc1c2c34"),
    "perylene": (["c1cc2cccc3c4cccc5cccc(c(c1)c23)c54"],
                 "c1ccc3c2c(cccc12)c4cccc5cccc3c45"),
    "coronene": (["c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67",
                  "C1=CC2=CC=C3C=CC4=CC=C5C=CC6=CC=C1C7=C2C3=C4C5=C67"],
                 "c1cc7ccc5ccc4ccc3ccc2ccc1c6c2c3c4c5c67"),
    # The sp3 CH2 breaks the middle ring, so the heteroatom or C=C that
    # joins the benzene rings lies on no cycle of the remaining system and
    # stays out of it; benzene + O + benzene is no 14-electron system.
    "xanthene": (["C1c2ccccc2Oc2ccccc12", "C2C1=CC=CC=C1OC3=CC=CC=C23"],
                 "c1cccc3c1Cc2ccccc2O3"),
    "acridan": (["C1c2ccccc2Nc2ccccc12", "C2C1=CC=CC=C1NC3=CC=CC=C23"],
                "c1cccc3c1Cc2ccccc2N3"),
    "dibenzosuberene": (["C1c2ccccc2C=Cc2ccccc12",
                         "C2C1=CC=CC=C1C=CC3=CC=CC=C23"],
                        "C2=Cc1ccccc1Cc3ccccc23"),
    # The radialene Kekulé form puts two double bonds on the four-ring,
    # which joins the two benzene rings and stays single.
    "biphenylene": (["c1ccc2c(c1)-c1ccccc1-2", "C1=CC2=C3C=CC=CC3=C2C=C1"],
                    "c2cccc3-c1ccccc1-c23"),
}


def _spellings(smiles: str) -> list:
    """The molecule, its written Kekulé form, and five seeded atom orders
    of each (the Kekulé bonds follow the order)."""
    m = parse_smiles(smiles)
    forms = [m, parse_smiles(write_smiles(kekulized(m)))]
    rng = random.Random(smiles)
    for _ in range(5):
        perm = list(range(len(m.atoms)))
        rng.shuffle(perm)
        forms += [m.renumbered(perm), kekulized(m.renumbered(perm))]
    return forms


def test_corpus_has_one_string_per_molecule():
    split = [s for s in CORPUS
             if len({canonical_smiles(f) for f in _spellings(s)}) != 1]
    assert split == []


@pytest.mark.parametrize("name", SPELLINGS)
def test_every_spelling_gives_one_string(name):
    spellings, canon = SPELLINGS[name]
    for smiles in spellings:
        assert {canonical_smiles(f) for f in _spellings(smiles)} == {canon}


@pytest.mark.parametrize("name", SPELLINGS)
def test_selfies_round_trip_keeps_the_string(name):
    spellings, canon = SPELLINGS[name]
    for smiles in spellings:
        back = decode_selfies(encode_selfies(parse_smiles(smiles)))
        assert canonical_smiles(back) == canon


def test_decoded_cumulated_ring_stays_kekule():
    """An atom with two double bonds in a ring cannot be aromatic, so the
    decoded ring keeps its Kekulé bonds instead of failing validation."""
    m = decode_selfies("[B+1][=S][=S-1][S-1][=N][C+1][=Ring1][=Branch1]")
    assert canonical_smiles(m) == "[B+]=1=[C+]N=[S-][S-]=S1"


@pytest.mark.parametrize("smiles", ["c1ccccc[cH2]1", "c1cc2cccc2c1",
                                    "C1c2ccccc2oc2ccccc12"],
                         ids=["sp3-atom", "pentalene", "xanthene-aromatic-o"])
def test_aromatic_flag_without_4n2_part_fails(smiles):
    with pytest.raises(KekulizationFailure, match="no 4n\\+2 pi count"):
        parse_smiles(smiles)


def test_4n_macrocycle_fails_in_linear_time():
    """A single ring that fails the whole-system count is its own only
    smallest ring, so it fails without the per-bond ring search."""
    started = time.perf_counter()
    with pytest.raises(KekulizationFailure, match="no 4n\\+2 pi count"):
        parse_smiles("c1" + "c" * 2003 + "1")  # 2,004 atoms
    assert time.perf_counter() - started < 1.0
