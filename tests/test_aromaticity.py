"""One aromaticity rule for kekulization and perception.

`kekulize` (parsing an aromatic spelling) and `aromatize` (perceiving a
Kekulé graph, as SELFIES decoding does) share one pi count and one 4n+2
test, so a molecule has one canonical string however it is spelled and in
any atom order, and keeps it through a SELFIES round trip.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from chemlinker.errors import KekulizationFailure
from chemlinker.molstring import (
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    kekulized,
    parse_smiles,
    write_smiles,
)
from chemlinker.molstring.model import (
    STEREO_DOWN,
    STEREO_UP,
    allowed_valences,
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


# Kekulé graphs in which a smallest 4n+2 ring counts a double bond that
# leaves it for a ring atom outside every accepted ring (the four-ring's
# C=N in the first; the others were decoded from seeded random SELFIES),
# with the canonical string each keeps. Counting that atom 1 would give
# marks `kekulize` rejects, since it counts the atom 0.
DOUBLE_BOND_LEAVES = [
    ("C12=NC=C1NO[C+]2P", "C2=C1C([C+](P)ON1)=N2"),
    ("[CH-]1OC2=P=P12N", "[CH-]1OC2=P=P12N"),
    ("P12=[SH+]=[P+]1B2[PH-]", "B1([PH-])P=2[P+]1=[SH+]2"),
    ("C1=2NP=[BH+][SH-]1=C2", "[BH+]1=PNC2=C=[SH-]12"),
]

# Kekulé graphs whose smallest 4n+2 rings count a double bond joining two
# of them, which marking makes single. Biphenylene's benzenes pair their
# atoms again. In the second, two rings of C, NH, C, C=C and BH are joined
# by two C=C through a middle ring that fails the count; each ring's
# junction carbons sit between NH and BH and cannot pair, so the graph
# stays Kekulé.
DOUBLE_BOND_JOINS_PARTS = [
    ("C1=CC2=C(C=C1)C1=C2C=CC=C1", "c2cccc3-c1ccccc1-c23"),
    ("C1(=C2[BH]C=CC=3N2)NC3C=C[BH]1", "B1C=CC2=C3C=CBC(=C1N2)N3"),
]


@pytest.fixture
def rejected(monkeypatch):
    """Every KekulizationFailure the validator raises during the test."""
    failures = []
    on_same_graph = Molecule.on_same_graph

    def recording(self, atoms, bonds, validate=False):
        try:
            return on_same_graph(self, atoms, bonds, validate)
        except KekulizationFailure as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(Molecule, "on_same_graph", recording)
    return failures


@pytest.mark.parametrize(
    "smiles,canon", DOUBLE_BOND_LEAVES + DOUBLE_BOND_JOINS_PARTS,
    ids=[smiles for smiles, _ in DOUBLE_BOND_LEAVES + DOUBLE_BOND_JOINS_PARTS])
def test_perception_marks_pass_validation(smiles, canon, rejected):
    m = parse_smiles(smiles)
    assert canonical_smiles(m) == canon
    back = decode_selfies(encode_selfies(m))
    assert canonical_smiles(back) == canon
    form = parse_smiles(write_smiles(m.aromatic_form()))
    assert canonical_smiles(form) == canon
    reversed_order = m.renumbered(list(range(len(m.atoms)))[::-1])
    assert canonical_smiles(kekulized(reversed_order)) == canon
    assert rejected == []


# (element, charge) of a random Kekulé graph's atoms; carbon is weighted up
# so that many rings count 4n+2.
KINDS = [("C", 0)] * 8 + [("N", 0)] * 3 + [("B", 0)] * 2 + [
    ("O", 0), ("S", 0), ("P", 0), ("C", 1), ("C", -1), ("N", 1), ("N", -1),
    ("B", -1), ("O", 1), ("S", 1), ("P", 1)]


def _random_kekule_graph(rng):
    """A 4- to 7-ring with one to three rings fused on a bond, joined by
    one or two bonds, or bridges added; random double bonds; and for each
    atom an element and charge that fit its valence."""
    n = rng.randint(4, 7)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(rng.randint(1, 3)):
        size, op = rng.randint(3, 6), rng.random()
        if op < 0.5:
            a, b = rng.choice(sorted(edges))
            chain = [a, *range(n, n + size - 2), b]
        elif op < 0.8:
            chain = [*range(n, n + size), n]
            edges |= {(rng.randrange(n), rng.randrange(n, n + size))
                      for _ in range(rng.randint(1, 2))}
        else:
            chain = rng.sample(range(n), 2)
        n = max(n, max(chain) + 1)
        edges |= set(zip(chain, chain[1:]))
    edges = sorted({(min(e), max(e)) for e in edges if e[0] != e[1]})
    doubled, orders = set(), []
    for a, b in edges:
        double = not {a, b} & doubled and rng.random() < 0.8
        doubled |= {a, b} if double else set()
        orders.append(DOUBLE if double else SINGLE)
    atoms = []
    for i in range(n):
        used = sum(i in e for e in edges) + (i in doubled)
        fits = [(element, charge, min(v for v in valences if v >= used))
                for element, charge in KINDS
                if max(valences := allowed_valences(element, charge)) >= used]
        element, charge, valence = rng.choice(fits)
        atoms.append(Atom(element, False, charge, valence - used))
    return Molecule(atoms, [Bond(a, b, order)
                            for (a, b), order in zip(edges, orders)])


def test_random_kekule_graphs_get_marks_kekulize_accepts(rejected):
    rng = random.Random(12)
    graphs = [_random_kekule_graph(rng) for _ in range(2000)]
    marked = sum(any(a.aromatic for a in m.aromatic_form().atoms)
                 for m in graphs)
    assert marked > 100
    assert rejected == []


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


def test_polyphenyl_perceives_in_linear_time():
    """Each of 1,000 linked benzenes is its own aromatic system, and the
    walks that kekulize and perceive it keep to its own bonds rather than
    the whole 6,000-atom molecule."""
    smiles = "".join(f"c{1 + i % 2}ccc(cc{1 + i % 2})" for i in range(999))
    started = time.perf_counter()
    m = parse_smiles(smiles + "c1ccccc1")
    assert all(a.aromatic for a in m.aromatic_form().atoms)
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("smiles, canon", [
    ("C/1=C/C=C\\C=C1", "c1ccccc1"),
    ("NCN/1NN1", "C(N)n1[nH][nH]1"),
])
def test_aromatic_bonds_drop_directional_marks(smiles, canon):
    """A bond perceived aromatic keeps no `/` or `\\` mark, which would be
    written in place of the aromatic bond and fail to parse."""
    assert canonical_smiles(parse_smiles(smiles)) == canon
    assert canonical_smiles(parse_smiles(canon)) == canon


def test_marked_kekule_ring_bonds_give_canonical_strings_that_parse():
    """Seeded `/` and `\\` marks on single ring bonds of each corpus_500
    molecule's written Kekulé form: each canonical string parses again to
    itself."""
    rng = random.Random(24)
    marked = 0
    for smiles in CORPUS:
        k = kekulized(parse_smiles(smiles))
        ring = k.ring_bonds()
        bonds = [replace(b, stereo=rng.choice((STEREO_UP, STEREO_DOWN)))
                 if i in ring and b.order == SINGLE and rng.random() < 0.5
                 else b for i, b in enumerate(k.bonds)]
        written = write_smiles(k.on_same_graph(k.atoms, bonds))
        canon = canonical_smiles(parse_smiles(written))
        assert canonical_smiles(parse_smiles(canon)) == canon, written
        marked += "/" in written or "\\" in written
    assert marked > 250
