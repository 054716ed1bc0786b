"""Tests for pairwise evaluation metrics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemlinker.metrics as metrics
from chemlinker.errors import InvalidReference, ParseError
from chemlinker.fingerprints import circular_fp, key_fp, path_fp, tanimoto
from chemlinker.metrics import EvalReport, evaluate_pairs
from chemlinker.molstring import canonical_smiles, parse_smiles


def test_exact_match_examples():
    assert evaluate_pairs([("OCC", "CCO")]).exact == 1.0
    assert evaluate_pairs([("CCO", "CCN")]).exact == 0.0
    assert evaluate_pairs([("C(", "CCO")]).exact == 0.0


def test_identity_pairs_score_perfectly():
    report = evaluate_pairs([("CCO", "CCO"), ("c1ccccc1", "c1ccccc1")])
    assert report.validity == 1.0
    assert report.exact == 1.0
    assert report.maccs_fts == report.rdk_fts == report.morgan_fts == 1.0


def test_kekule_and_aromatic_spellings_score_alike():
    report = evaluate_pairs([("C1=CC=CC=C1", "c1ccccc1")])
    assert report.exact == 1.0
    assert report.maccs_fts == report.rdk_fts == report.morgan_fts == 1.0


def test_single_invalid_pair():
    report = evaluate_pairs([("C(", "CCO")])
    assert report.validity == 0.0
    assert report.exact == 0.0
    assert report.n_valid == 0
    assert report.maccs_fts == report.rdk_fts == report.morgan_fts == 0.0


def test_half_valid_pairs():
    report = evaluate_pairs([("CCO", "CCO"), ("C(", "CCO")])
    assert report.validity == 0.5
    assert report.exact == 0.5
    # Similarity means run over the single valid pair only.
    assert report.maccs_fts == report.rdk_fts == report.morgan_fts == 1.0


def test_unparsable_reference_aborts():
    with pytest.raises(InvalidReference):
        evaluate_pairs([("CCO", "C(")])


def test_first_unparseable_reference_raises():
    pairs = [("CCO", "CCO"), ("C(", "CCN"), ("CCO", "C1CC"), ("CCO", "C(")]
    with pytest.raises(InvalidReference, match="C1CC"):
        evaluate_pairs(pairs)


def test_exact_never_exceeds_validity():
    report = evaluate_pairs(
        [("CCO", "CCO"), ("CCN", "CCO"), ("xx", "CCO"), ("OCC", "CCO")])
    assert report.exact <= report.validity
    assert report.exact == 0.5 and report.validity == 0.75


def test_adding_invalid_pairs_keeps_fts_means():
    base = evaluate_pairs([("CCO", "CCN"), ("CCC", "CCO")])
    extended = evaluate_pairs(
        [("CCO", "CCN"), ("C(", "CCO"), ("CCC", "CCO")])
    assert extended.maccs_fts == base.maccs_fts
    assert extended.rdk_fts == base.rdk_fts
    assert extended.morgan_fts == base.morgan_fts
    assert extended.validity < base.validity


def test_report_permutation_invariant():
    pairs = [("CCO", "CCO"), ("CCN", "CCO"), ("C(", "CCO"), ("CCC", "CCN")]
    base = evaluate_pairs(pairs)
    rng = random.Random(3)
    for _ in range(5):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        got = evaluate_pairs(shuffled)
        assert got.n_valid == base.n_valid
        assert got.exact == base.exact
        assert got.validity == base.validity
        assert got.maccs_fts == pytest.approx(base.maccs_fts)
        assert got.rdk_fts == pytest.approx(base.rdk_fts)
        assert got.morgan_fts == pytest.approx(base.morgan_fts)


def test_report_serialization():
    report = evaluate_pairs([("CCO", "CCO")])
    assert '"validity": 1.0' in report.to_json()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(
    [("CCO", "CCO"), ("CCN", "CCO"), ("bogus", "CCO"), ("OCC", "CCO")]),
    max_size=10))
def test_fractions_in_range(pairs):
    report = evaluate_pairs(pairs)
    for value in (report.validity, report.exact, report.maccs_fts,
                  report.rdk_fts, report.morgan_fts):
        assert 0.0 <= value <= 1.0
    assert report.exact <= report.validity


# --- deduplication -----------------------------------------------------------------


def _pair_by_pair(pairs):
    """evaluate_pairs without deduplication: every pair scored from scratch."""
    n_valid = n_exact = 0
    sums = [0.0, 0.0, 0.0]
    for generated, reference in pairs:
        ref = parse_smiles(reference)
        try:
            gen = parse_smiles(generated)
        except ParseError:
            continue
        n_valid += 1
        n_exact += canonical_smiles(gen) == canonical_smiles(ref)
        gen, ref = gen.aromatic_form(), ref.aromatic_form()
        for k, fp in enumerate((key_fp, path_fp, circular_fp)):
            sums[k] += tanimoto(fp(gen), fp(ref))
    means = [s / n_valid if n_valid else 0.0 for s in sums]
    return EvalReport(len(pairs), n_valid, n_valid / len(pairs),
                      n_exact / len(pairs), *means)


REPEATED = [("CCO", "CCO"), ("CCN", "OCC"), ("C(", "CCO"), ("OCC", "CCO"),
            ("c1ccccc1O", "Oc1ccccc1"), ("CCN", "CCO"), ("C(", "CCN"),
            ("CCO", "CCN"), ("c1ccccc1O", "CCO"), ("CCO", "CCO"),
            ("C1=CC=CC=C1O", "CCO")]


def test_deduplicated_report_equals_pair_by_pair():
    rng = random.Random(8)
    for _ in range(20):
        pairs = [rng.choice(REPEATED) for _ in range(rng.randrange(1, 25))]
        assert evaluate_pairs(pairs) == _pair_by_pair(pairs)


def _count_calls(monkeypatch, *names):
    calls = {name: [] for name in names}

    def counting(name, fn):
        def wrapper(arg, *args, **kwargs):
            calls[name].append(arg)
            return fn(arg, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(metrics, name,
                            counting(name, getattr(metrics, name)))
    return calls


def test_each_distinct_string_parsed_once_and_fingerprinted_once_per_molecule(
        monkeypatch):
    calls = _count_calls(monkeypatch, "parse_smiles", "path_fp")
    generations = ["CCO", "CCN", "C(", "OCC", "CCN", "C(", "CCO"]
    report = evaluate_pairs([(g, "c1ccccc1") for g in generations])
    assert report.n_pairs == 7 and report.n_valid == 5
    assert sorted(calls["parse_smiles"]) == sorted({"c1ccccc1", *generations})
    assert len(calls["path_fp"]) == 3   # ethanol, ethylamine, the reference


def test_spellings_of_one_molecule_fingerprinted_once(monkeypatch):
    calls = _count_calls(monkeypatch, "key_fp", "path_fp", "circular_fp")
    spellings = ("C1=CC=CC=C1O", "Oc1ccccc1", "c1ccc(O)cc1")
    pairs = [(g, "Cc1ccccc1O") for g in spellings]
    report = evaluate_pairs(pairs)
    # One call for the three spellings of phenol and one for the reference.
    assert [len(c) for c in calls.values()] == [2, 2, 2]
    monkeypatch.undo()
    assert report.exact == 0.0 and 0.0 < report.rdk_fts < 1.0
    assert report == _pair_by_pair(pairs)
