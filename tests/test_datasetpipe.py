"""Tests for dataset loading, curation filters, and seeded subsampling."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chemlinker.errors import DuplicateCid, MalformedRow, SampleTooLarge
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
from chemlinker.molstring import canonical_smiles
from chemlinker.rng import SplitMix64

FIXTURES = Path(__file__).parent / "fixtures"
PUBCHEM = FIXTURES / "pubchem_20.tsv"


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
