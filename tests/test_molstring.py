"""Tests for SMILES/SELFIES parsing, canonicalization, and interconversion."""

import inspect
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemlinker.errors import (
    DecodeFailure,
    EmptyInput,
    KekulizationFailure,
    LexError,
    ParseError,
    UnclosedBranch,
    UnclosedRing,
    UnsupportedFeature,
    ValenceViolation,
)
from chemlinker.molstring import (
    AROMATIC,
    SINGLE,
    canonical_smiles,
    decode_selfies,
    encode_selfies,
    parse_smiles,
    split_tokens,
    token_alphabet,
    write_smiles,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()

METHYLPHENOL_TOKENS = (
    "[C][C][=C][C][=C][Branch1][Branch1][C][=C][Ring1][=Branch1][O]"
)


# --- parsing -----------------------------------------------------------------


def test_parse_methylphenol_structure():
    m = parse_smiles("Cc1ccc(O)cc1")
    assert len(m.atoms) == 8
    assert sum(a.aromatic for a in m.atoms) == 6
    assert sum(b.order == AROMATIC for b in m.bonds) == 6
    assert sum(a.element == "O" for a in m.atoms) == 1


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_smiles("")
    with pytest.raises(EmptyInput):
        parse_smiles("   ")


def test_parse_unclosed_branch():
    with pytest.raises(UnclosedBranch):
        parse_smiles("C(")
    with pytest.raises(UnclosedBranch):
        parse_smiles("CC)C")


def test_parse_unclosed_ring():
    with pytest.raises(UnclosedRing):
        parse_smiles("C1CC")


def test_parse_cyclobutadiene_annotation_rejected():
    with pytest.raises(KekulizationFailure):
        parse_smiles("c1ccc1")


def test_parse_valence_violation():
    with pytest.raises(ValenceViolation):
        parse_smiles("C(C)(C)(C)(C)C")
    with pytest.raises(ValenceViolation):
        parse_smiles("O=C=O=C")


def test_parse_lex_errors():
    for bad in ["C*C", "C$", "[Xx]", "C==C", "[C@@H", "%1C", "1CC"]:
        with pytest.raises(LexError):
            parse_smiles(bad)


def test_parse_wildcard_rejected():
    with pytest.raises(ParseError):
        parse_smiles("*CC")


def test_parse_fragments():
    m = parse_smiles("[Na+].[Cl-]")
    assert len(m.fragments()) == 2
    assert m.atoms[0].formal_charge == 1
    assert m.atoms[1].formal_charge == -1


def test_parse_bracket_features():
    m = parse_smiles("[13CH4]")
    a = m.atoms[0]
    assert a.isotope == 13 and a.explicit_h == 4 and a.formal_charge == 0
    m = parse_smiles("[NH4+]")
    assert m.atoms[0].formal_charge == 1
    assert m.hydrogen_count(0) == 4
    m = parse_smiles("[O-2]")
    assert m.atoms[0].formal_charge == -2


def test_parse_percent_ring_closure():
    ring = "C1" + "C" * 10 + "C%11" + "C" * 3 + "CC1CC%11"
    m = parse_smiles(ring)
    assert len(m.ring_bonds()) > 0


def test_implicit_hydrogens_from_valence_table():
    m = parse_smiles("CC(=O)N")
    assert [m.hydrogen_count(i) for i in range(4)] == [3, 0, 0, 2]
    # P and S take the lowest valence state unless bonds force a higher one.
    assert parse_smiles("P").hydrogen_count(0) == 3
    assert parse_smiles("S").hydrogen_count(0) == 2
    assert parse_smiles("OP(O)O").hydrogen_count(1) == 0
    assert parse_smiles("OP(=O)(O)O").hydrogen_count(1) == 0


def test_pyrrole_and_pyridine_hydrogens():
    pyrrole = parse_smiles("c1cc[nH]c1")
    n = next(i for i, a in enumerate(pyrrole.atoms) if a.element == "N")
    assert pyrrole.hydrogen_count(n) == 1
    pyridine = parse_smiles("c1ccncc1")
    n = next(i for i, a in enumerate(pyridine.atoms) if a.element == "N")
    assert pyridine.hydrogen_count(n) == 0


def test_biphenyl_single_linker_bond():
    m = parse_smiles("c1ccccc1c1ccccc1")
    non_ring = [b for k, b in enumerate(m.bonds) if k not in m.ring_bonds()]
    assert len(non_ring) == 1 and non_ring[0].order == SINGLE


# --- canonical writing ---------------------------------------------------------


def test_canonical_equivalent_writings():
    assert canonical_smiles("OCC") == canonical_smiles("CCO") == "CCO"
    assert (canonical_smiles("Cc1ccc(O)cc1")
            == canonical_smiles("Oc1ccc(C)cc1")
            == "Cc1ccc(O)cc1")


def test_canonical_idempotence_on_corpus():
    # The corpus is written in canonical form v1; each string's v2 form is
    # its own canonical form and is reached from any writing of it.
    for s in CORPUS[:100]:
        canon = canonical_smiles(s)
        assert canonical_smiles(canon) == canon
        assert canonical_smiles(write_smiles(parse_smiles(s))) == canon


def test_permutation_invariance():
    rng = random.Random(7)
    for s in ["CC(=O)Oc1ccccc1C(=O)O", "Cc1ccc(O)cc1", "C[C@H](N)C(=O)O"]:
        m = parse_smiles(s)
        base = canonical_smiles(m)
        for _ in range(50):
            perm = list(range(len(m.atoms)))
            rng.shuffle(perm)
            assert canonical_smiles(m.renumbered(perm)) == base


def test_noncanonical_write_reparses_isomorphic():
    for s in CORPUS[:50]:
        m = parse_smiles(s)
        again = parse_smiles(write_smiles(m))
        assert canonical_smiles(again) == canonical_smiles(m)


def test_chirality_survives_canonicalization():
    a = canonical_smiles("N[C@@H](C)C(=O)O")
    b = canonical_smiles("C[C@H](N)C(=O)O")      # same enantiomer
    c = canonical_smiles("C[C@@H](N)C(=O)O")     # the mirror image
    assert a == b
    assert a != c
    assert "@" in a


def test_double_bond_stereo_round_trip():
    cis = canonical_smiles("C/C=C\\C")
    trans = canonical_smiles("C/C=C/C")
    assert cis != trans
    assert canonical_smiles(cis) == cis
    assert canonical_smiles(trans) == trans


# --- stereo stripping -----------------------------------------------------------


def test_strip_stereo_examples():
    m = parse_smiles("C/C=C\\C").strip_stereo()
    assert canonical_smiles(m) == "CC=CC"
    m = parse_smiles("N[C@@H](C)C(=O)O").strip_stereo()
    assert canonical_smiles(m) == "CC(N)C(=O)O"


def test_strip_stereo_identity_without_stereo():
    m = parse_smiles("CC(N)C(=O)O")
    assert canonical_smiles(m.strip_stereo()) == canonical_smiles(m)
    assert not m.has_stereo()


def test_strip_stereo_without_stereo_is_the_molecule():
    """A molecule with nothing to strip is its own stripped form, so the
    two share every cached fact, the canonical string included."""
    m = parse_smiles("CC(N)C(=O)O")
    assert m.strip_stereo() is m
    chiral = parse_smiles("C[C@H](N)C(=O)O")
    stripped = chiral.strip_stereo()
    assert stripped is not chiral
    assert not stripped.has_stereo()
    assert canonical_smiles(stripped) == canonical_smiles(m)


# --- facts computed once per molecule --------------------------------------------


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace `module.name` in every chemlinker module that holds it with a
    wrapper that records each call's positional arguments in the returned
    list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "chemlinker"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_canonical_string_is_written_once_per_molecule(monkeypatch):
    import chemlinker.molstring.write as write_module

    writes = count_calls(monkeypatch, write_module, "write_smiles")
    m = parse_smiles("OC(=O)c1ccccc1")
    first = canonical_smiles(m)
    assert canonical_smiles(m) is first
    assert canonical_smiles(m.strip_stereo()) is first
    assert len(writes) == 1
    assert canonical_smiles("OC(=O)c1ccccc1") == first
    assert len(writes) == 2     # a string is a new molecule


def test_kekule_assignment_is_computed_once_per_molecule(monkeypatch):
    """Parsing validates the parsed molecule's Kekulé assignment, and
    canonicalizing reuses it; only the aromatic form's validation runs a
    second matching."""
    # The package re-exports the function under the module's name.
    kekulize_module = sys.modules["chemlinker.molstring.kekulize"]
    calls = count_calls(monkeypatch, kekulize_module, "kekulize")
    m = parse_smiles("Cc1ccc(O)cc1")
    assert canonical_smiles(m) == "Cc1ccc(O)cc1"
    assert [args[0] for args in calls] == [m, m.aromatic_form()]


# --- SELFIES ------------------------------------------------------------------


def test_paper_token_string_decodes_to_methylphenol():
    m = decode_selfies(METHYLPHENOL_TOKENS)
    assert canonical_smiles(m) == "Cc1ccc(O)cc1"


def test_encode_methylphenol_round_trips():
    tokens = encode_selfies(parse_smiles("Cc1ccc(O)cc1"))
    assert canonical_smiles(decode_selfies(tokens)) == "Cc1ccc(O)cc1"


def test_encode_ethanol():
    assert encode_selfies(parse_smiles("CCO")) == ["[C]", "[C]", "[O]"]


def test_decode_eos_first_fails():
    with pytest.raises(DecodeFailure):
        decode_selfies("[EOS]")
    with pytest.raises(DecodeFailure):
        decode_selfies("")


def test_decode_valence_capping():
    assert canonical_smiles(decode_selfies("[O][#C]")) == "C=O"


def test_decode_truncates_dangling_operators():
    # Branch with no payload and Ring with no partner are dropped.
    assert canonical_smiles(decode_selfies("[C][Branch1]")) == "C"
    assert canonical_smiles(decode_selfies("[C][C][Ring1]")) == "CC"


def test_decode_skips_unknown_tokens():
    assert canonical_smiles(decode_selfies("[C][Unknown][C]")) == "CC"


def test_decode_stops_at_eos():
    assert canonical_smiles(decode_selfies("[C][C][EOS][O]")) == "CC"


def test_encode_rejects_multifragment_and_stereo():
    with pytest.raises(UnsupportedFeature):
        encode_selfies(parse_smiles("CC.CC"))
    with pytest.raises(UnsupportedFeature):
        encode_selfies(parse_smiles("N[C@@H](C)C(=O)O"))


@pytest.mark.parametrize("smiles,n_tokens", [
    ("C" * 1200, 1200),
    ("C1" + "C" * 1198 + "1", 1203),   # 1,199 atoms, [Ring3] and 3 digits
], ids=["chain", "ring"])
def test_encode_selfies_long_chain_and_ring(smiles, n_tokens):
    m = parse_smiles(smiles)
    tokens = encode_selfies(m)
    assert len(tokens) == n_tokens
    back = decode_selfies(tokens)
    # Canonical SMILES of 1,200 atoms takes tens of seconds (branch weights
    # are quadratic), so the round trip compares the graphs and re-encodes.
    assert len(back.atoms) == len(m.atoms)
    assert ({(min(b.a, b.b), max(b.a, b.b), b.order) for b in back.bonds}
            == {(min(b.a, b.b), max(b.a, b.b), b.order) for b in m.bonds})
    assert encode_selfies(back) == tokens


def test_canonical_long_chain_needs_no_recursion():
    """Emission walks the chain with its own stack: 300 atoms fit under a
    recursion limit of 100 frames above the caller's."""
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert canonical_smiles("C" * 300) == "C" * 300
    finally:
        sys.setrecursionlimit(limit)


def test_decode_nested_branches_needs_no_recursion():
    """1,000 nested Branch3 operators decode under a recursion limit of
    100 frames above the caller's."""
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        m = decode_selfies("[C]" + "[Branch3][P][P][P]" * 1000)
    finally:
        sys.setrecursionlimit(limit)
    assert canonical_smiles(m) == "C"


def test_decode_many_ring_tokens_in_linear_time():
    """4,000 Ring1 tokens (each reading the next [C] as its index) that
    repeat the chain bond are skipped by a set lookup, not a scan of every
    bond so far."""
    n = 4000
    started = time.perf_counter()
    m = decode_selfies("[C]" + "[C][Ring1][C]" * n)
    elapsed = time.perf_counter() - started
    assert (len(m.atoms), len(m.bonds)) == (n + 1, n)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_long_aromatic_ring_kekulizes_without_recursion(capsys):
    """A 2,002-atom aromatic ring parses, and `selfies-encode` takes it,
    under the default recursion limit."""
    from chemlinker.cli import main

    ring = "c1" + "c" * 2001 + "1"
    m = parse_smiles(ring)
    assert len(m.atoms) == 2002
    assert main(["selfies-encode", ring]) == 0
    decoded = decode_selfies(capsys.readouterr().out.strip())
    assert len(decoded.atoms) == 2002
    assert all(a.aromatic for a in decoded.atoms)


def test_split_tokens_rejects_plain_text():
    with pytest.raises(DecodeFailure):
        split_tokens("not selfies")


def test_round_trip_full_corpus():
    for s in CORPUS:
        m = parse_smiles(s)
        back = decode_selfies(encode_selfies(m))
        assert canonical_smiles(back) == canonical_smiles(m), s


ALPHABET = token_alphabet()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=40))
def test_random_token_strings_never_yield_invalid_molecules(tokens):
    try:
        m = decode_selfies(tokens)
    except DecodeFailure:
        return
    # Construction re-validates; round-tripping through SMILES must also work.
    parse_smiles(write_smiles(m))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(CORPUS) - 1), st.randoms(use_true_random=False))
def test_random_relabeling_preserves_canonical_string(idx, rng):
    m = parse_smiles(CORPUS[idx])
    perm = list(range(len(m.atoms)))
    rng.shuffle(perm)
    assert canonical_smiles(m.renumbered(perm)) == canonical_smiles(m)
