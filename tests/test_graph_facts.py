"""Graph facts of Molecule and the outputs that depend on them.

The corpus digest and the edge-case rows were recorded before the graph
facts (bond index, components, ring bonds, smallest rings, hydrogen rule)
moved onto Molecule; they pin canonical SMILES, SELFIES round trips and all
three fingerprint schemes byte for byte. The canonical columns, and so the
digest, were re-recorded for canonical form v2; the SELFIES and fingerprint
columns did not move.
"""

import hashlib
import random
from pathlib import Path

import pytest

from chemlinker.errors import KekulizationFailure, LexError
from chemlinker.fingerprints import circular_fp, key_fp, path_fp
from chemlinker.molstring import (
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    parse_smiles,
)
from chemlinker.molstring.model import AROMATIC, default_hydrogens

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()
CORPUS_DIGEST = (
    "b12ceccf9528719153463e3e27bb781e7db5598a90f7a40b13d5540291e8f676")


def _row(smiles: str) -> list[str]:
    m = parse_smiles(smiles)
    tokens = "".join(encode_selfies(m.strip_stereo()))
    return [canonical_smiles(m), tokens,
            canonical_smiles(decode_selfies(tokens)),
            circular_fp(m).to_hex(), path_fp(m).to_hex(), key_fp(m).to_hex()]


def test_corpus_golden_digest():
    text = "".join("\t".join(_row(s)) + "\n" for s in CORPUS)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST


# (input, canonical, SELFIES, canonical of the decode, first 16 hex digits of
# the SHA-256 of the tab-joined circular, path and key fingerprint hexes)
EDGE_CASES = [
    ("C1CCC2(CC1)CCCC2", "C1CCCC12CCCCC2",
     "[C][C][C][C][Branch1][Branch1][C][C][Ring1][=Branch1][C][C][C][C]"
     "[Ring1][#Branch1]",
     "C1CCCC12CCCCC2", "49900be6449db3a0"),
    ("c1ccc2cccc2cc1", "c1ccccc2cccc12",
     "[C][=C][C][=C][C][=C][C][=C][Ring1][Branch1][C][=C][Ring1][#Branch2]",
     "c1ccccc2cccc12", "6fb5143d2eaee8ac"),
    ("c1ccc2c(c1)CCC2", "c1cccc2CCCc12",
     "[C][=C][C][=C][C][Branch1][Ring2][=C][Ring1][=Branch1][C][C][C]"
     "[Ring1][=Branch1]",
     "c1cccc2CCCc12", "bc3ec522ce91a423"),
    ("C1CC2CCC1CC2", "C1CC2CCC1CC2",
     "[C][C][C][C][C][C][Ring1][=Branch1][C][C][Ring1][=Branch1]",
     "C1CC2CCC1CC2", "ac2782381976f9ef"),
    ("C1=CC=C2C=CC=CC2=C1", "c1cccc2ccccc12",
     "[C][=C][C][=C][C][=C][C][=C][C][Ring1][=Branch1][=C][Ring1][#Branch2]",
     "c1cccc2ccccc12", "8984cbbedffed102"),
    ("O=C1C=CC(=O)C=C1", "C1=CC(=O)C=CC1=O",
     "[O][=C][C][=C][C][Branch1][C][=O][C][=C][Ring1][#Branch1]",
     "C1=CC(=O)C=CC1=O", "74c5861006c2c016"),
]


@pytest.mark.parametrize("smiles,canon,tokens,decoded,fp_digest", EDGE_CASES)
def test_edge_case_golden(smiles, canon, tokens, decoded, fp_digest):
    row = _row(smiles)
    assert row[:3] == [canon, tokens, decoded]
    fps = "\t".join(row[3:]).encode()
    assert hashlib.sha256(fps).hexdigest()[:16] == fp_digest


def test_antiaromatic_fragment_still_fails():
    with pytest.raises(KekulizationFailure):
        parse_smiles("c1ccc1.c1ccccc1")


def test_ring_bonds_iterative_on_long_chain_and_ring():
    assert parse_smiles("C" * 1200).ring_bonds() == frozenset()
    ring = parse_smiles("C1" + "C" * 1198 + "1")
    assert len(ring.ring_bonds()) == 1199


@pytest.mark.parametrize("smiles", ["C1C1", "C12CC12"])
def test_duplicate_bond_rejected(smiles):
    with pytest.raises(LexError, match="duplicate bond"):
        parse_smiles(smiles)


def test_incident_pairs_bond_indices_with_bonds():
    m = parse_smiles("CC(=O)O")
    for i in range(len(m)):
        assert [b for _, b in m.incident(i)] == list(m.bonds_of(i))
        assert all(m.bonds[k] is b for k, b in m.incident(i))


def test_components_of_whole_molecule_and_of_a_bond_subset():
    m = parse_smiles("c1ccccc1CC.N")
    assert m.fragments() == [list(range(8)), [8]]
    assert m.components() == [(list(range(8)), list(range(8))), ([8], [])]
    ring = sorted(m.ring_bonds())
    assert m.components(ring) == [(list(range(6)), ring)]


def test_ring_facts_are_cached():
    m = parse_smiles("C1CCC2(CC1)CCCC2")
    assert m.ring_bonds() is m.ring_bonds()
    assert m.smallest_rings() is m.smallest_rings()
    assert sorted(len(r) for r in m.smallest_rings()) == [5, 6]


def _bridgeless_by_deletion(m, bonds) -> bool:
    """Every bond's ends stay connected within `bonds` without it."""
    for k in bonds:
        rest = [kk for kk in bonds if kk != k]
        reached, frontier = {m.bonds[k].a}, [m.bonds[k].a]
        while frontier:
            i = frontier.pop()
            for kk in rest:
                if i in (m.bonds[kk].a, m.bonds[kk].b):
                    j = m.bonds[kk].other(i)
                    if j not in reached:
                        reached.add(j)
                        frontier.append(j)
        if m.bonds[k].b not in reached:
            return False
    return True


def test_bridgeless_matches_deletion_oracle():
    rng = random.Random(21)
    seen = set()
    for s in CORPUS:
        m = parse_smiles(s)
        ring = sorted(m.ring_bonds())
        subsets = [bonds for _, bonds in m.components(ring)]
        subsets += [[k for k in ring if rng.random() < 0.8] for _ in range(2)]
        subsets.append([k for k in range(len(m.bonds)) if rng.random() < 0.5])
        for bonds in subsets:
            verdict = m.bridgeless(bonds)
            assert verdict == _bridgeless_by_deletion(m, bonds), (s, bonds)
            seen.add(verdict)
    assert seen == {False, True}


def test_subgraph_forest_is_not_cached():
    m = parse_smiles("C1CCC2(CC1)CCCC2")
    whole = m.dfs_forest()
    assert m.dfs_forest([0, 1])[4] == {0: -1, 1: 0, 2: 1}
    assert m.dfs_forest() is whole
    assert [whole[4][i] for i in range(4)] == [-1, 0, 1, 2]


def test_forest_order_and_order_sums_on_corpus():
    """The walk lists each atom it reaches once, in discovery order, and
    each atom's cached bond-order sum is the sum over its incident bonds."""
    rng = random.Random(23)
    for s in CORPUS:
        m = parse_smiles(s)
        arom = [k for k, b in enumerate(m.bonds) if b.order == AROMATIC]
        subset = [k for k in range(len(m.bonds)) if rng.random() < 0.5]
        for bonds in (None, sorted(m.ring_bonds()), arom, subset):
            order, disc = m.dfs_forest(bonds)[:2]
            assert len(set(order)) == len(order) == len(disc), (s, bonds)
            assert all(disc[i] == t for t, i in enumerate(order)), (s, bonds)
        for i in range(len(m)):
            assert m.base_order_sum(i) == sum(
                1 if b.order == AROMATIC else b.order
                for _, b in m.incident(i)), (s, i)


def test_default_hydrogens():
    assert default_hydrogens("C", 0, False, 1) == 3
    assert default_hydrogens("C", 0, True, 2) == 1
    assert default_hydrogens("S", 0, False, 3) == 1
    assert default_hydrogens("C", 0, False, 5) is None
    assert default_hydrogens("Na", 1, False, 0) is None
