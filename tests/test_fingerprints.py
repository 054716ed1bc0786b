"""Tests for fingerprint schemes, including an independent environment oracle."""

import gc
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemlinker.fingerprints as fingerprints
from chemlinker.errors import SchemeMismatch
from chemlinker.fingerprints import (
    MAX_NBITS,
    KEYS,
    KEYS_NBITS,
    FingerprintBitset,
    _FNV_OFFSET,
    _fold,
    circular_fp,
    fnv1a64,
    key_fp,
    path_fp,
    tanimoto,
)
from chemlinker.metrics import evaluate_pairs
from chemlinker.molstring import (
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    parse_smiles,
)
from chemlinker.molstring.model import ELEMENT_NUMBERS

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()
# corpus_500 holds no negative charge, so these are the only molecules with
# a u32 field of 256 or more (the two's complement of the charge).
CHARGED = ["CC(=O)[O-]", "[NH4+].[Cl-]", "C[N-]C", "[O-][N+](=O)c1ccccc1"]
# Fused and bridged ring systems, crowded branches, many equivalent paths
# (sucrose) and paths much longer than the longest hashed one.
DEEP = ["CC12CCC3c4ccc(O)cc4CCC3C1CCC2O", "CC(C)(C)c1ccc(O)c(C(C)(C)C)c1",
        "OC12CC3CC(CC(C3)C1)C2", "OCC1OC(OC2(CO)OC(CO)C(O)C2O)C(O)C(O)C1O",
        "C" * 40]


# --- independent oracle: brute-force environment enumeration -------------------
#
# Re-derives circular fingerprint bits from scratch: builds each atom-centered
# neighborhood as an explicit nested tuple tree, serializes it with its own
# byte packer, and hashes. Shares only the hash function with the library.


def _oracle_atom_fields(m, i):
    a = m.atoms[i]
    return (ELEMENT_NUMBERS[a.element], a.formal_charge % (1 << 32),
            m.degree(i), m.hydrogen_count(i))


def _oracle_tree(m, i, parent, depth):
    children = []
    if depth > 0:
        for _, b in m.incident(i):
            j = b.other(i)
            if j != parent:
                children.append((b.order, _oracle_tree(m, j, i, depth - 1)))
    return (_oracle_atom_fields(m, i), children)


def _oracle_bytes(tree):
    fields, children = tree
    out = b"".join(v.to_bytes(4, "little") for v in fields)
    rendered = sorted((order, _oracle_bytes(child))
                      for order, child in children)
    for order, blob in rendered:
        out += order.to_bytes(4, "little") + blob
    return out


def oracle_circular_bits(m, radius, nbits):
    bits = set()
    for i in range(len(m.atoms)):
        for r in range(radius + 1):
            blob = _oracle_bytes(_oracle_tree(m, i, None, r))
            bits.add(fnv1a64(blob) % nbits)
    return frozenset(bits)


def test_circular_matches_oracle_on_small_molecules():
    small = [s for s in CORPUS if len(parse_smiles(s).atoms) <= 12][:60]
    assert len(small) >= 20
    for s in (small + CHARGED + DEEP
              + ["C", "c1ccccc1", "CC(N)C(=O)O", "c1cc[nH]c1"]):
        m = parse_smiles(s)
        for radius in range(5):
            for nbits in (7, 64, 2048):
                assert (circular_fp(m, radius, nbits).bits
                        == oracle_circular_bits(m, radius, nbits)), (
                    s, radius, nbits)


# --- independent oracle: brute-force path enumeration --------------------------
#
# Re-derives path fingerprint bits from scratch: enumerates every simple path
# from both of its ends, looks bond orders up by atom pair, packs both
# directions with the oracle's own packer and keeps the smaller one. Shares
# only the hash function with the library.

def _oracle_simple_paths(m, max_len):
    paths = []
    stack = [[i] for i in range(len(m.atoms))]
    while stack:
        path = stack.pop()
        if len(path) > 1:
            paths.append(path)
        if len(path) <= max_len:
            for _, b in m.incident(path[-1]):
                j = b.other(path[-1])
                if j not in path:
                    stack.append(path + [j])
    return paths


def _oracle_pack(m, path, order_of):
    fields = list(_oracle_atom_fields(m, path[0]))
    for a, b in zip(path, path[1:]):
        fields.append(order_of[frozenset((a, b))])
        fields.extend(_oracle_atom_fields(m, b))
    return b"".join(v.to_bytes(4, "little") for v in fields)


def oracle_path_hashes(m, max_len):
    """(bond count, FNV-1a hash) of every path of 1..max_len bonds."""
    order_of = {frozenset((b.a, b.b)): b.order for b in m.bonds}
    out = set()
    for path in _oracle_simple_paths(m, max_len):
        blob = min(_oracle_pack(m, path, order_of),
                   _oracle_pack(m, path[::-1], order_of))
        out.add((len(path) - 1, fnv1a64(blob)))
    return out


def test_path_matches_oracle():
    for s in CORPUS[::12] + CHARGED + DEEP + ["C", "C1CC1", "c1ccccc1", "C#N"]:
        m = parse_smiles(s)
        hashes = oracle_path_hashes(m, 7)
        for max_len in range(1, 8):
            for nbits in (7, 64, 2048):
                want = frozenset(h % nbits for n, h in hashes if n <= max_len)
                assert path_fp(m, max_len, nbits).bits == want, (
                    s, max_len, nbits)


# --- pinned examples -----------------------------------------------------------


def test_methane_single_environment():
    assert len(circular_fp(parse_smiles("C"), radius=0).bits) == 1


def test_benzene_radius1_two_environments():
    assert len(circular_fp(parse_smiles("c1ccccc1"), radius=1).bits) == 2


def test_ethane_single_path():
    assert len(path_fp(parse_smiles("CC"), max_len=7).bits) == 1


def test_ethanol_two_short_paths():
    assert len(path_fp(parse_smiles("CCO"), max_len=1).bits) == 2


# SHA-256 of one line per corpus_500 molecule, in its aromatic form (as
# `eval` scores it): the circular, path and key hexes at their defaults.
FINGERPRINT_HEX_DIGEST = (
    "a0fef673606a262e046ba52f17d0e74e280230833d832192308b75490736f061")


def test_fingerprint_hex_golden_digest():
    lines = []
    for s in CORPUS:
        m = parse_smiles(s).aromatic_form()
        lines.append(f"{circular_fp(m).to_hex()} {path_fp(m).to_hex()} "
                     f"{key_fp(m).to_hex()}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINT_HEX_DIGEST


def test_key_fp_benzene():
    names = [name for name, _ in KEYS]
    bits = key_fp(parse_smiles("c1ccccc1")).bits
    assert names.index("aromatic_ring") in bits
    assert names.index("ring_size_6") in bits
    assert names.index("any_charge") not in bits


def test_key_fp_width_holds_the_key_table():
    assert len(KEYS) <= KEYS_NBITS
    fp = key_fp(parse_smiles("CCO"))
    assert fp.nbits == KEYS_NBITS
    assert fp.to_hex().startswith(f"keys-default-v1/{KEYS_NBITS}:")
    assert max(fp.bits) < len(KEYS)


# --- tanimoto -------------------------------------------------------------------


def _fp(bits, scheme="circular", nbits=2048, params=(2,)):
    return FingerprintBitset(scheme, nbits, frozenset(bits), params)


def test_tanimoto_examples():
    assert tanimoto(_fp({1, 2, 3}), _fp({1, 2, 3})) == 1.0
    assert tanimoto(_fp({1, 2, 3}), _fp({3, 4})) == 0.25
    assert tanimoto(_fp({1, 2}), _fp({3, 4})) == 0.0
    assert tanimoto(_fp(set()), _fp(set())) == 1.0


def test_tanimoto_scheme_mismatch():
    with pytest.raises(SchemeMismatch):
        tanimoto(_fp({1}), _fp({1}, scheme="path", params=(7,)))
    with pytest.raises(SchemeMismatch):
        tanimoto(_fp({1}), _fp({1}, params=(3,)))
    with pytest.raises(SchemeMismatch):
        tanimoto(_fp({1}), _fp({1}, nbits=1024))


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.integers(0, 2047), max_size=64),
       st.frozensets(st.integers(0, 2047), max_size=64))
def test_tanimoto_properties(a, b):
    s = tanimoto(_fp(a), _fp(b))
    assert 0.0 <= s <= 1.0
    assert s == tanimoto(_fp(b), _fp(a))
    assert tanimoto(_fp(a), _fp(a)) == 1.0


# --- invariance and monotonicity -------------------------------------------------


def test_all_schemes_permutation_invariant():
    rng = random.Random(11)
    for s in CORPUS[:30]:
        m = parse_smiles(s)
        ref = (circular_fp(m).bits, path_fp(m).bits, key_fp(m).bits)
        for _ in range(5):
            perm = list(range(len(m.atoms)))
            rng.shuffle(perm)
            mm = m.renumbered(perm)
            assert (circular_fp(mm).bits, path_fp(mm).bits,
                    key_fp(mm).bits) == ref, s


def test_radius_and_length_monotonicity():
    for s in CORPUS[:30]:
        m = parse_smiles(s)
        prev = frozenset()
        for radius in range(4):
            cur = circular_fp(m, radius).bits
            assert prev <= cur
            prev = cur
        prev = frozenset()
        for max_len in range(1, 8):
            cur = path_fp(m, max_len).bits
            assert prev <= cur
            prev = cur


def test_hex_serialization_round_trip_shape():
    fp = circular_fp(parse_smiles("CCO"))
    text = fp.to_hex()
    tag, rest = text.split("/")
    nbits, hexpart = rest.split(":")
    assert tag == "circ2" and int(nbits) == 2048
    raw = bytes.fromhex(hexpart)
    assert len(raw) == 2048 // 8
    decoded = {i * 8 + k for i, byte in enumerate(raw)
               for k in range(8) if byte >> k & 1}
    assert decoded == set(fp.bits)


def test_fnv1a64_reference_vectors():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def _field_strings():
    rng = random.Random(5)
    for n_fields in list(range(6)) + [rng.randrange(6, 60) for _ in range(300)]:
        yield [rng.randrange(256) if rng.random() < 0.7
               else rng.choice([rng.randrange(256, 1 << 32),
                                (-rng.randrange(1, 4)) % (1 << 32)])
               for _ in range(n_fields)]


def test_fieldwise_hash_equals_fnv1a64():
    for fields in _field_strings():
        blob = b"".join(v.to_bytes(4, "little") for v in fields)
        assert _fold(_FNV_OFFSET, fields, (1 << 64) - 1) == fnv1a64(blob), (
            fields)


def test_masked_fold_equals_hash_modulo_power_of_two():
    for fields in _field_strings():
        full = fnv1a64(b"".join(v.to_bytes(4, "little") for v in fields))
        for k in list(range(21)) + [64]:
            mask = (1 << k) - 1
            assert (_fold(_FNV_OFFSET & mask, fields, mask)
                    == full % (1 << k)), (fields, k)


@pytest.mark.parametrize("nbits", [0, -5])
def test_nbits_below_one_rejected(nbits):
    m = parse_smiles("CC")
    with pytest.raises(ValueError):
        circular_fp(m, nbits=nbits)
    with pytest.raises(ValueError):
        path_fp(m, nbits=nbits)


def test_nbits_above_limit_rejected_before_hashing(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("hashed before checking nbits")

    monkeypatch.setattr(fingerprints, "_fold", no_hashing)
    m = parse_smiles("CC")
    for nbits in (MAX_NBITS + 1, 1 << 40, 100_000_000_000):
        with pytest.raises(ValueError, match=str(MAX_NBITS)):
            circular_fp(m, nbits=nbits)
        with pytest.raises(ValueError, match=str(MAX_NBITS)):
            path_fp(m, nbits=nbits)
    monkeypatch.undo()
    text = path_fp(m, nbits=MAX_NBITS).to_hex()
    assert len(text.partition(":")[2]) == MAX_NBITS // 4


ASPIRIN = "CC(=O)Oc1ccccc1C(=O)O"


@pytest.mark.parametrize("call", [
    lambda: canonical_smiles(parse_smiles(ASPIRIN)),
    lambda: decode_selfies(encode_selfies(parse_smiles(ASPIRIN))),
    lambda: circular_fp(parse_smiles(ASPIRIN)),
    lambda: path_fp(parse_smiles(ASPIRIN)),
    lambda: key_fp(parse_smiles(ASPIRIN)),
    lambda: evaluate_pairs([("CCO", "OCC"), ("c1ccccc1O", "c1ccccc1N"),
                            ("CC(=O)O", ASPIRIN), ("C1CC1", "C1CCC1")]),
], ids=["canonical", "selfies", "circular", "path", "key", "evaluate_pairs"])
def test_calls_leave_no_reference_cycles(call):
    """What a call allocates is freed by reference counting when it
    returns, not left for the cyclic garbage collector."""
    call()   # fills the per-process caches first
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
