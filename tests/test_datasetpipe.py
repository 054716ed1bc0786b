"""Tests for dataset loading, curation filters, and seeded subsampling."""

import hashlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chemlinker.errors import (
    DuplicateCid,
    MalformedRow,
    ParseError,
    SampleTooLarge,
)
from chemlinker.datasetpipe import (
    DatasetRecord,
    MOSES_ELEMENTS,
    PubchemFilterConfig,
    compat_filter,
    filter_pubchem,
    load_chebi20,
    load_split,
    normalize_description,
    sample_subset,
    write_split,
)
from chemlinker.cli import main
from chemlinker.molstring import canonical_smiles, parse_smiles
from chemlinker.rng import SplitMix64
from test_molstring import count_calls

FIXTURES = Path(__file__).parent / "fixtures"
PUBCHEM = FIXTURES / "pubchem_20.tsv"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()


# --- loading ----------------------------------------------------------------------


def test_load_fixture():
    records = load_split(PUBCHEM)
    assert len(records) == 20
    assert records[0] == DatasetRecord(
        cid="1000", smiles="CCO", description=records[0].description)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cid\tsmiles\tdesc\n1\tCC\tx\n")
    with pytest.raises(MalformedRow) as exc_info:
        load_split(path)
    assert exc_info.value.line_number == 1


def test_load_reads_header_on_first_non_blank_line(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("\n\nCID\tSMILES\tdescription\n1\tCC\tok\n")
    assert load_split(path) == [DatasetRecord("1", "CC", "ok")]
    path.write_text("\n1\tCC\tok\n")
    with pytest.raises(MalformedRow) as exc_info:
        load_split(path)
    assert exc_info.value.line_number == 2


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("CID\tSMILES\tdescription\n1\tCC\tok\n2\tCC\n")
    with pytest.raises(MalformedRow) as exc_info:
        load_split(path)
    assert exc_info.value.line_number == 3


def test_load_rejects_duplicate_cid(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("CID\tSMILES\tdescription\n1\tCC\ta\n1\tCO\tb\n")
    with pytest.raises(DuplicateCid):
        load_split(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_split(path) == []


def test_load_chebi20_directory(tmp_path):
    (tmp_path / "train.txt").write_text(
        "CID\tSMILES\tdescription\n1\tCC\ta\n")
    (tmp_path / "test.txt").write_text(
        "CID\tSMILES\tdescription\n2\tCO\tb\n")
    splits = load_chebi20(tmp_path)
    assert set(splits) == {"train", "test"}
    assert splits["train"][0].cid == "1"


def test_write_then_load_round_trip(tmp_path):
    records = load_split(PUBCHEM)
    out = tmp_path / "copy.txt"
    write_split(records, out)
    assert load_split(out) == records


# --- filter_pubchem ---------------------------------------------------------------


def test_pubchem_fixture_counts():
    records = load_split(PUBCHEM)
    cfg = PubchemFilterConfig(exclusion=frozenset({"C(O)CO"}))
    survivors, report = filter_pubchem(records, cfg)
    assert len(survivors) == 13
    assert report == {"input": 20, "short_description": 2, "drop_phrase": 2,
                      "unparseable": 0, "one_to_many": 2, "excluded": 1,
                      "output": 13}
    assert [r.cid for r in survivors] == [f"10{k:02d}" for k in range(13)]


def test_word_count_boundary_is_strict():
    exactly_30 = DatasetRecord("1", "CC", " ".join(["word"] * 30))
    thirty_one = DatasetRecord("2", "CO", " ".join(["word"] * 31))
    survivors, report = filter_pubchem([exactly_30, thirty_one])
    assert [r.cid for r in survivors] == ["2"]
    assert report["short_description"] == 1


def test_one_to_many_drops_all_copies():
    desc = " ".join(["word"] * 40)
    records = [DatasetRecord("1", "CCO", desc),
               DatasetRecord("2", "OCC", desc),     # same molecule: kept
               DatasetRecord("3", "CCN", desc + " x")]
    survivors, report = filter_pubchem(records)
    assert {r.cid for r in survivors} == {"1", "2", "3"}
    records[1] = DatasetRecord("2", "CCS", desc)    # now a true conflict
    survivors, report = filter_pubchem(records)
    assert {r.cid for r in survivors} == {"3"}
    assert report["one_to_many"] == 2


# --- normalize_description --------------------------------------------------------


def test_normalize_leading_name():
    text = "4-methylphenol is a cresol with the methyl group at position 4."
    out = normalize_description(text)
    assert out == ("This molecule is a cresol with the methyl group at "
                   "position 4.")


def test_normalize_plural_subject():
    assert normalize_description("Fatty acids are lipids.") \
        == "This molecule are lipids."


def test_normalize_strips_trailer():
    assert normalize_description(
        "Ethanol is a primary alcohol with data available.") \
        == "This molecule is a primary alcohol."


def test_normalize_no_subject_clause():
    assert normalize_description("Used as a solvent.") == "Used as a solvent."


@given(st.text(alphabet="abcdef XYZ.-", min_size=0, max_size=80))
def test_normalize_idempotent(text):
    once = normalize_description(text)
    assert normalize_description(once) == once


def test_normalize_idempotent_on_fixture():
    for rec in load_split(PUBCHEM):
        once = normalize_description(rec.description)
        assert normalize_description(once) == once
        assert not once.startswith(rec.description.split()[0]) \
            or rec.description.startswith("This molecule") \
            or " is " not in rec.description[:80]


# --- compat_filter ----------------------------------------------------------------


def test_compat_filter_elements_and_stereo():
    records = [DatasetRecord("1", "C[C@H](N)C(=O)O", "d"),   # stereo stripped
               DatasetRecord("2", "CC[Si](C)C", "d"),        # Si disallowed
               DatasetRecord("3", "CCI", "d"),               # I not in MOSES
               DatasetRecord("4", "not smiles", "d")]
    survivors, report = compat_filter(records)
    assert [r.cid for r in survivors] == ["1"]
    assert survivors[0].smiles == canonical_smiles("CC(N)C(=O)O")
    assert "@" not in survivors[0].smiles
    assert report == {"input": 4, "unparseable": 1, "disallowed_element": 2,
                      "untokenizable": 0, "output": 1}


def test_compat_filter_keeps_moses_alphabet():
    records = [DatasetRecord(str(i), s, "d") for i, s in
               enumerate(["CCO", "CCN", "CCS", "CCF", "CCCl", "CCBr",
                          "C[NH3+]"])]
    survivors, _ = compat_filter(records)
    assert len(survivors) == 7
    assert MOSES_ELEMENTS == {"C", "N", "S", "O", "F", "Cl", "Br", "H"}


def test_compat_filter_smiles_are_canonical():
    records = [DatasetRecord("1", "OCC", "d")]
    survivors, _ = compat_filter(records)
    assert survivors[0].smiles == "CCO"


# --- sample_subset ----------------------------------------------------------------


def test_sample_subset_deterministic_and_exact():
    records = load_split(PUBCHEM)
    a = sample_subset(records, 5, seed=7)
    b = sample_subset(records, 5, seed=7)
    assert a == b
    assert len(a) == 5
    assert len({r.cid for r in a}) == 5
    assert sample_subset(records, 5, seed=8) != a


def test_sample_subset_full_is_identity():
    records = load_split(PUBCHEM)
    assert sample_subset(records, len(records), seed=3) == records


def test_sample_subset_too_large():
    with pytest.raises(SampleTooLarge):
        sample_subset([DatasetRecord("1", "CC", "d")], 2, seed=0)


def test_sample_indices_range_checked_and_draws_pinned():
    """k outside [0, n] raises; inside it the draws are the ones training
    and pretraining batches were pinned with."""
    for n, k in ((10, -1), (10, 11), (0, 1), (3, -3)):
        with pytest.raises(ValueError, match=f"{k} distinct indices from {n}"):
            SplitMix64(3).sample_indices(n, k)
    assert SplitMix64(3).sample_indices(10, 4) == [1, 7, 6, 3]
    assert SplitMix64(3).sample_indices(10, 10) == [1, 7, 6, 3, 5, 8, 2, 9,
                                                     4, 0]
    assert SplitMix64(3).sample_indices(10, 0) == []
    assert SplitMix64(3).sample_indices(0, 0) == []
    with pytest.raises(ValueError):
        sample_subset([DatasetRecord("1", "CC", "d")], -1, seed=0)


@given(st.integers(0, 2**32), st.integers(0, 10))
def test_sample_subset_preserves_order(seed, n):
    records = [DatasetRecord(str(i), "CC", "d") for i in range(10)]
    picked = sample_subset(records, n, seed)
    ids = [int(r.cid) for r in picked]
    assert ids == sorted(ids)


# --- one curation pass ------------------------------------------------------------

LONG = ("It has been characterized by nuclear magnetic resonance, mass "
        "spectrometry and infrared spectroscopy across several independent "
        "studies, and it serves as a reference substance in a number of "
        "routine laboratory assays.")   # 31 words
SHARED = "One description for two different molecules. " + LONG
# Rows beyond the corpus that each exercise one rule: stereo (kept, and
# written without its marks by the compat filter), one-to-many (also
# across stereoisomers, and not across two spellings of one molecule),
# exclusion, unparseable, disallowed element, and the two description
# rules.
EXTRA = [
    ("C[C@H](N)C(=O)O", None), ("N[C@@H](CS)C(=O)O", None),
    ("F/C=C/F", None), ("C/C=C\\CCO", None), ("Cl[C@H](Br)CC", None),
    ("C[C@@H](O)[Si](C)(C)C", None),
    ("C[C@H](N)O", "Stereo pair. " + SHARED),
    ("C[C@@H](N)O", "Stereo pair. " + SHARED),
    ("CCCCN", SHARED), ("CCCCS", SHARED),
    ("CCO", "Two spellings of one molecule. " + LONG),
    ("OCC", "Two spellings of one molecule. " + LONG),
    ("OCC(O)CO", None), ("C(O)CO", None),
    ("not smiles", None), ("c1ccc1", None), ("C1CC", None),
    ("C(=O)(=O)(=O)C", None),
    ("CC[Si](C)C", None), ("CCI", None), ("CCP", None), ("O=P(O)(O)O", None),
    ("CCO", "Too short to keep."),
    ("CCN", "A natural product found in moss. " + LONG),
]
EXCLUSION = "OCC(O)CO\nOCCO\nC1CCCCC1\n"
# SHA-256 of `dataset`'s output TSV and report on `_curation_input`, with
# the compat filter and with --skip-compat.
CURATION_GOLDEN = {
    (): ("e9f2866a0798334c88dc6641aa41e972813b391babda349f05d54190006ce20e",
         "2ff6045fe6ae4d64570682c1205cf71ad9ce6c2477de226eb3aebc5d5e5b0614"),
    ("--skip-compat",): (
        "92b4a652d1dcb533f2de931ca2c6388c5a7f918d2e46650dc164a4dca8905e2a",
        "4230617d8206251724831b70b70e7cc63ff26c76bebb2991b78296c1c08f361e"),
}


def _curation_input(tmp_path) -> tuple[Path, Path]:
    """corpus_500 under distinct descriptions, then the rows of EXTRA."""
    rows = [(smiles, f"Compound {k} is a corpus molecule. " + LONG)
            for k, smiles in enumerate(CORPUS)]
    rows += [(smiles, desc or f"Extra compound {k} is listed here. " + LONG)
             for k, (smiles, desc) in enumerate(EXTRA)]
    data = tmp_path / "raw.tsv"
    data.write_text("CID\tSMILES\tdescription\n" + "".join(
        f"{10000 + k}\t{smiles}\t{desc}\n"
        for k, (smiles, desc) in enumerate(rows)), encoding="utf-8")
    exclusion = tmp_path / "exclusion.txt"
    exclusion.write_text(EXCLUSION, encoding="utf-8")
    return data, exclusion


def _run_dataset(tmp_path, *flags) -> tuple[bytes, bytes]:
    data, exclusion = _curation_input(tmp_path)
    out, report = tmp_path / "clean.tsv", tmp_path / "report.json"
    assert main(["dataset", "--input", str(data), "--output", str(out),
                 "--report", str(report), "--exclusion", str(exclusion),
                 *flags]) == 0
    return out.read_bytes(), report.read_bytes()


@pytest.mark.parametrize("flags", sorted(CURATION_GOLDEN))
def test_dataset_output_is_pinned(tmp_path, capsys, flags):
    """`dataset` writes the same bytes whatever the curation pass does
    inside; the digests were recorded before the two filters shared one
    parse."""
    out, report = _run_dataset(tmp_path, *flags)
    assert (hashlib.sha256(out).hexdigest(),
            hashlib.sha256(report).hexdigest()) == CURATION_GOLDEN[flags]


@pytest.mark.parametrize("flags", [(), ("--skip-compat",)])
def test_dataset_parses_each_smiles_once(tmp_path, capsys, monkeypatch,
                                         flags):
    """One `dataset` run parses each input SMILES at most once and runs
    the canonical writer once per parsed record, and once more for a record
    with stereo marks and allowed elements, whose stripped form the compat
    filter writes; --skip-compat does no compat work."""
    import chemlinker.molstring.smiles as smiles_module
    import chemlinker.molstring.write as write_module

    data, _ = _curation_input(tmp_path)
    texts = [rec.smiles for rec in load_split(data)
             if len(rec.description.split()) > 30
             and "natural product" not in rec.description.lower()]
    parsed = []
    for text in texts:
        try:
            parsed.append(parse_smiles(text))
        except ParseError:
            pass
    stripped = sum(m.has_stereo() and all(a.element in MOSES_ELEMENTS
                                          for a in m.atoms)
                   for m in parsed)
    parses = count_calls(monkeypatch, smiles_module, "parse_smiles")
    writes = count_calls(monkeypatch, write_module, "write_smiles")
    out = tmp_path / "clean.tsv"
    assert main(["dataset", "--input", str(data), "--output", str(out),
                 *flags]) == 0
    assert Counter(args[0] for args in parses) == Counter(texts)
    assert len(writes) == len(parsed) + (0 if flags else stripped)


def test_stereoisomers_under_one_description_are_one_to_many():
    desc = " ".join(["word"] * 40)
    records = [DatasetRecord("1", "C[C@H](N)O", desc),
               DatasetRecord("2", "C[C@@H](N)O", desc)]
    survivors, report = filter_pubchem(records)
    assert survivors == []
    assert report["one_to_many"] == 2


def test_compat_filter_drops_double_bond_stereo():
    survivors, report = compat_filter([DatasetRecord("1", "F/C=C/F", "d")])
    assert [r.smiles for r in survivors] == [canonical_smiles("FC=CF")]
    assert survivors[0].smiles == "C(F)=CF"
    assert report["output"] == 1
