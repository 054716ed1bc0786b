"""Tests of the benchmark's input generators (no chemlinker needed)."""

import random
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import gen  # noqa: E402

PLANT = {"short_description": 2, "drop_phrase": 3, "unparseable": 2,
         "one_to_many": 2, "excluded": 3, "disallowed_element": 2}


def _curation(seed):
    rng = random.Random(seed)
    kept = [gen.small_molecule(rng) for _ in range(20)]
    return gen.curation_input(rng, kept, PLANT, "t")


def _rows(inp):
    return [line.split("\t") for line in inp.tsv.splitlines()[1:]]


def test_generators_are_deterministic_per_seed():
    assert _curation(5) == _curation(5)
    assert _curation(5).tsv != _curation(6).tsv
    for make in (
            lambda r: gen.eval_input(
                r, [gen.small_molecule(r) for _ in range(8)]
                + gen.large_molecules(r), 8, 2),
            lambda r: gen.score_table(r, 50),
            lambda r: gen.prompt_for(gen.small_molecule(r), r)):
        assert make(random.Random(3)) == make(random.Random(3))
        assert make(random.Random(3)) != make(random.Random(4))


def _unbalanced(smiles):
    digits = Counter(re.findall(r"%\d\d|\d", re.sub(r"\[[^\]]*\]", "",
                                                      smiles)))
    return smiles.count("(") != smiles.count(")") or \
        any(n % 2 for n in digits.values())


def test_planted_drop_counts_match_what_the_generator_says():
    inp = _curation(11)
    rows = _rows(inp)
    descriptions = Counter(text for _, _, text in rows)
    counted = {
        "short_description": sum(len(t.split()) <= 30 for _, _, t in rows),
        "drop_phrase": sum("natural product" in t.lower() for _, _, t in rows),
        "unparseable": sum(_unbalanced(s) for _, s, _ in rows),
        "one_to_many": sum(descriptions[t] > 1 for _, _, t in rows),
        "excluded": len(inp.exclusion.split()),
        "disallowed_element": sum(
            bool({"P", "I"} & set(gen.element_counts(s))) for _, s, _ in rows),
    }
    assert counted == inp.planted
    assert inp.planted == {**PLANT, "one_to_many": 2 * PLANT["one_to_many"]}
    report = gen.expected_report(inp)
    assert report["pubchem"]["input"] == len(rows) == 20 + sum(
        inp.planted.values())
    assert report["compat"]["output"] == len(inp.survivors) == 20
    assert set(inp.kept) == set(inp.survivors)


def test_excluded_molecules_share_no_formula_with_other_records():
    inp = _curation(12)
    excluded = {frozenset(gen.element_counts(s).items())
                for s in inp.exclusion.split()}
    others = [s for cid, s, _ in _rows(inp)
              if frozenset(gen.element_counts(s).items()) in excluded]
    assert len(others) == len(excluded) == PLANT["excluded"]


def test_random_writer_keeps_the_molecule():
    rng = random.Random(7)
    for _ in range(200):
        mol = gen.small_molecule(rng)
        a, b = gen.to_smiles(mol, rng), gen.to_smiles(mol, rng)
        assert gen.element_counts(a) == gen.element_counts(b) == mol.formula()
        assert not _unbalanced(a)
        again = gen.parse_template(a)
        assert sorted(again.atoms) == sorted(mol.atoms)
        assert len(again.bonds) == len(mol.bonds)


def test_eval_input_plants_the_stated_mix():
    rng = random.Random(9)
    molecules = [gen.small_molecule(rng) for _ in range(10)]
    molecules += gen.large_molecules(rng)
    ev = gen.eval_input(rng, molecules, 10, 3)
    assert len(ev.generated) == len(ev.reference)
    assert len(ev.generated) + len(ev.same) == len(molecules)
    assert sum(_unbalanced(g) for g in ev.generated) == ev.n_invalid == 3
    assert len(ev.swapped) == len(ev.generated) - ev.n_invalid
    for row in ev.same:
        a, b = row.split("\t")
        assert gen.element_counts(a) == gen.element_counts(b)
    for row in ev.swapped:   # near variants: one more heavy atom
        ref, variant = row.split("\t")
        assert sum(gen.element_counts(variant).values()) == \
            sum(gen.element_counts(ref).values()) + 1
    assert all(len(s) <= 78 for _, s in ev.originals)
