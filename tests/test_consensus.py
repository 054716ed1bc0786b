"""Tests for exponential consensus ranking and background comparisons."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from chemlinker.errors import EmptySet, EmptyTable
from chemlinker.consensus import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    ScoreTable,
    _program_ranks,
    background_report,
    ecr_scores,
    load_score_table,
    percentile_of,
    rank_molecules,
    write_ecr_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _table(directions, rows):
    table = ScoreTable(directions=dict(directions))
    for mol, program, score in rows:
        table.add(mol, program, score)
    return table


def _hand_example():
    # Ranks under lower-is-better: p1 -> A=1, B=2, C=3; p2 -> B=1, A=2, C=3.
    return _table(
        {"p1": LOWER_IS_BETTER, "p2": LOWER_IS_BETTER},
        [("A", "p1", -9.0), ("B", "p1", -8.0), ("C", "p1", -7.0),
         ("A", "p2", -8.5), ("B", "p2", -9.5), ("C", "p2", -6.0)])


# --- ecr_scores -------------------------------------------------------------------


def test_hand_example_to_1e9():
    scores = ecr_scores(_hand_example(), sigma=1.0)
    expected_ab = math.exp(-1) + math.exp(-2)
    assert abs(scores["A"] - expected_ab) < 1e-9
    assert abs(scores["B"] - expected_ab) < 1e-9
    assert abs(scores["C"] - 2 * math.exp(-3)) < 1e-9
    assert round(expected_ab, 4) == 0.5032
    assert round(2 * math.exp(-3), 4) == 0.0996


def test_program_order_irrelevant():
    a = ecr_scores(_hand_example(), sigma=1.0)
    swapped = _table(
        {"p2": LOWER_IS_BETTER, "p1": LOWER_IS_BETTER},
        [("A", "p2", -8.5), ("B", "p2", -9.5), ("C", "p2", -6.0),
         ("A", "p1", -9.0), ("B", "p1", -8.0), ("C", "p1", -7.0)])
    b = ecr_scores(swapped, sigma=1.0)
    assert a == b


def test_single_program_matches_its_ranking():
    table = _table({"p": HIGHER_IS_BETTER},
                   [("A", "p", 0.9), ("B", "p", 0.1), ("C", "p", 0.5)])
    assert rank_molecules(table, sigma=1.0) == ["A", "C", "B"]


def test_higher_is_better_direction():
    table = _table({"p": HIGHER_IS_BETTER},
                   [("A", "p", 1.0), ("B", "p", 2.0)])
    scores = ecr_scores(table, sigma=1.0)
    assert scores["B"] > scores["A"]


def test_missing_score_gets_worst_rank():
    table = _table({"p1": LOWER_IS_BETTER, "p2": LOWER_IS_BETTER},
                   [("A", "p1", 1.0), ("B", "p1", 2.0), ("C", "p1", 3.0),
                    ("A", "p2", 1.0), ("B", "p2", 2.0)])
    scores = ecr_scores(table, sigma=1.0)
    # C is missing from p2: rank 3 there, same as its p1 rank.
    assert abs(scores["C"] - 2 * math.exp(-3)) < 1e-12


def test_ties_get_average_rank():
    table = _table({"p": LOWER_IS_BETTER},
                   [("A", "p", 1.0), ("B", "p", 1.0), ("C", "p", 2.0)])
    scores = ecr_scores(table, sigma=1.0)
    assert scores["A"] == scores["B"]
    assert abs(scores["A"] - math.exp(-1.5)) < 1e-12


@given(st.permutations(["A", "B", "C", "D"]))
def test_tied_input_order_irrelevant(order):
    values = {"A": 1.0, "B": 1.0, "C": 1.0, "D": 2.0}
    table = _table({"p": LOWER_IS_BETTER},
                   [(m, "p", values[m]) for m in order])
    scores = ecr_scores(table, sigma=1.0)
    assert scores["A"] == scores["B"] == scores["C"]


def _oracle_rank(value, values) -> float:
    """Mean of the 1-based sorted positions that `value` and its ties take."""
    less = sum(1 for v in values if v < value)
    equal = sum(1 for v in values if v == value)
    return less + (equal + 1) / 2


@given(st.lists(st.one_of(st.none(), st.sampled_from(
           [-math.inf, math.inf, -0.0, 0.0, -1.5, 1.5, 2.0, 1e300])),
       min_size=1, max_size=30),
       st.sampled_from([LOWER_IS_BETTER, HIGHER_IS_BETTER]))
def test_program_ranks_match_average_rank_oracle(scores, direction):
    # None marks a molecule the program did not score; "ref" keeps every
    # molecule in the table.
    assume(any(v is not None for v in scores))
    mols = [f"m{i}" for i in range(len(scores))]
    rows = [(m, "ref", 0.0) for m in mols]
    rows += [(m, "p", v) for m, v in zip(mols, scores) if v is not None]
    table = _table({"p": direction, "ref": LOWER_IS_BETTER}, rows)
    sign = 1 if direction == LOWER_IS_BETTER else -1
    keyed = [sign * v for v in scores if v is not None]
    expected = {m: (float(len(mols)) if v is None
                    else _oracle_rank(sign * v, keyed))
                for m, v in zip(mols, scores)}
    assert _program_ranks(table, "p", table.molecules) == expected


@given(st.lists(st.integers(-5000, 5000), min_size=2, max_size=8,
                unique=True),
       st.sampled_from([lambda x: 3 * x + 1, math.exp,
                        lambda x: x ** 3, lambda x: math.atan(x / 10)]))
def test_monotone_transform_invariance(ints, transform):
    # Integer-derived scores keep the transforms strictly monotone in
    # float arithmetic (no collapsing of nearly-equal values).
    values = [i / 100 for i in ints]
    mols = [f"m{i}" for i in range(len(values))]
    raw = _table({"p1": LOWER_IS_BETTER, "p2": HIGHER_IS_BETTER},
                 [(m, p, v) for m, v in zip(mols, values)
                  for p in ("p1", "p2")])
    mapped = _table({"p1": LOWER_IS_BETTER, "p2": HIGHER_IS_BETTER},
                    [(m, p, transform(v)) for m, v in zip(mols, values)
                     for p in ("p1", "p2")])
    a, b = ecr_scores(raw, sigma=2.0), ecr_scores(mapped, sigma=2.0)
    assert all(abs(a[m] - b[m]) < 1e-12 for m in mols)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8, unique=True),
       st.floats(0.5, 20))
def test_sigma_rescales_but_preserves_order_when_complete(values, sigma):
    mols = [f"m{i}" for i in range(len(values))]
    table = _table({"p": LOWER_IS_BETTER},
                   [(m, "p", v) for m, v in zip(mols, values)])
    assert rank_molecules(table, sigma=sigma) == rank_molecules(table,
                                                                sigma=1.0)


def test_nan_score_rejected(tmp_path):
    with pytest.raises(ValueError, match="NaN"):
        ScoreTable(directions={"p": LOWER_IS_BETTER}).add("A", "p", math.nan)
    scores_csv = tmp_path / "s.csv"
    dirs_json = tmp_path / "d.json"
    scores_csv.write_text("molecule_id,program,score\n"
                          "A,p,nan\nB,p,nan\nC,p,nan\n")
    dirs_json.write_text('{"p": "lower"}')
    with pytest.raises(ValueError, match="NaN"):
        load_score_table(scores_csv, dirs_json)


def test_scores_nonnegative_and_default_sigma():
    table = _hand_example()
    scores = ecr_scores(table)          # sigma = max(1, 5% of 3) = 1
    assert all(v >= 0 for v in scores.values())
    assert scores == ecr_scores(table, sigma=1.0)


def test_empty_table_and_bad_sigma():
    with pytest.raises(EmptyTable):
        ecr_scores(ScoreTable(directions={"p": LOWER_IS_BETTER}))
    for sigma in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            ecr_scores(_hand_example(), sigma=sigma)


def test_undeclared_program_rejected():
    table = ScoreTable(directions={"p": LOWER_IS_BETTER})
    with pytest.raises(ValueError):
        table.add("A", "q", 1.0)


# --- background_report ------------------------------------------------------------


def test_probe_equal_to_all_background_is_50th_percentile():
    assert percentile_of(0.4, [0.4, 0.4, 0.4, 0.4]) == 50.0


def test_hand_background_example():
    report = background_report([0.3, 0.4, 0.5], {"bg": [0.1, 0.2]},
                               probe=0.4)
    assert report.candidate_median == 0.4
    assert report.background_medians["bg"] == pytest.approx(0.15)
    assert report.candidate_exceeds["bg"] is True
    assert report.probe_percentiles["bg"] == 100.0


def test_percentile_bounds():
    assert percentile_of(-1.0, [0.0, 1.0]) == 0.0
    assert percentile_of(2.0, [0.0, 1.0]) == 100.0


def test_empty_sets_rejected():
    with pytest.raises(EmptySet):
        background_report([], {"bg": [1.0]}, probe=0.0)
    with pytest.raises(EmptySet):
        background_report([1.0], {"bg": []}, probe=0.0)
    with pytest.raises(EmptySet):
        background_report([1.0], {}, probe=0.0)


def test_impdh_fixture_relationships():
    with open(FIXTURES / "impdh_ecr.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    report = background_report(fixture["candidates"], fixture["backgrounds"],
                               probe=fixture["probe"])
    assert fixture["probe"] == 0.00488
    assert report.candidate_median == 0.00594
    assert report.background_medians["fda"] == 6e-05
    assert fixture["probe"] > report.background_medians["fda"]
    assert report.candidate_exceeds["fda"] is True
    assert report.probe_percentiles["fda"] == 100.0
    payload = json.loads(report.to_json())
    assert payload["candidate_median"] == 0.00594


# --- I/O --------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    scores_csv = tmp_path / "s.csv"
    dirs_json = tmp_path / "d.json"
    scores_csv.write_text(
        "molecule_id,program,score\n"
        "A,p1,-9.0\nB,p1,-8.0\nC,p1,-7.0\n"
        "A,p2,-8.5\nB,p2,-9.5\nC,p2,-6.0\n")
    dirs_json.write_text('{"p1": "lower", "p2": "lower"}')
    table = load_score_table(scores_csv, dirs_json)
    scores = ecr_scores(table, sigma=1.0)
    assert abs(scores["A"] - (math.exp(-1) + math.exp(-2))) < 1e-9

    out = tmp_path / "ecr.csv"
    write_ecr_csv(scores, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "molecule_id,ecr"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["A", "B", "C"]
    assert float(lines[1].split(",")[1]) == scores["A"]


@pytest.mark.parametrize("row", ["B,p", "B,p,-7.5,oops", "B,p,-7.5,"])
def test_row_of_other_than_three_fields_rejected(tmp_path, row):
    scores_csv = tmp_path / "s.csv"
    dirs_json = tmp_path / "d.json"
    scores_csv.write_text(f"molecule_id,program,score\nA,p,1.0\n{row}\n")
    dirs_json.write_text('{"p": "lower"}')
    with pytest.raises(ValueError,
                       match="line 3: expected molecule_id,program,score"):
        load_score_table(scores_csv, dirs_json)


def test_bad_direction_rejected(tmp_path):
    scores_csv = tmp_path / "s.csv"
    dirs_json = tmp_path / "d.json"
    scores_csv.write_text("molecule_id,program,score\nA,p,1.0\n")
    dirs_json.write_text('{"p": "sideways"}')
    with pytest.raises(ValueError):
        load_score_table(scores_csv, dirs_json)
