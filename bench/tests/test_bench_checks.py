"""Every correctness check accepts the program's real output and rejects a
deliberately corrupted copy of it."""

import copy
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import checks, gen  # noqa: E402
from chemlinker import cli, molstring  # noqa: E402
from chemlinker.adapternet import (  # noqa: E402
    TrainConfig, init_model, train_adapter)
from chemlinker.errors import ParseError  # noqa: E402


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(list(argv)) == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def _rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


# --- consensus ---------------------------------------------------------------------


def test_ecr_reference_matches_a_hand_computed_case():
    # Program a (lower is better): m1 1.0, m2 2.0, m3 2.0 -> ranks 1, 2.5, 2.5
    # Program b (higher is better): m1 5, m2 9, m3 missing -> 2, 1, N = 3
    # sigma = max(1, 0.05 * 3) = 1
    rows = [("m1", "a", 1.0), ("m2", "a", 2.0), ("m3", "a", 2.0),
            ("m1", "b", 5.0), ("m2", "b", 9.0)]
    got = checks.ecr_reference(rows, {"a": "lower", "b": "higher"})
    expected = {"m1": math.exp(-1) + math.exp(-2),
                "m2": math.exp(-2.5) + math.exp(-1),
                "m3": math.exp(-2.5) + math.exp(-3)}
    assert got == pytest.approx(expected, abs=1e-15)
    assert got["m1"] == pytest.approx(0.503214724408055, abs=1e-12)
    assert checks.average_ranks([3, 1, 3, 2]) == [3.5, 1.0, 3.5, 2.0]


def test_ecr_check(tmp_path):
    rows = gen.score_table(random.Random(2), 60)
    (tmp_path / "s.csv").write_text("molecule_id,program,score\n" + "".join(
        f"{m},{p},{v}\n" for m, p, v in rows))
    (tmp_path / "d.json").write_text(json.dumps(gen.PROGRAMS))
    _cli("consensus", "--scores", str(tmp_path / "s.csv"),
         "--dirs", str(tmp_path / "d.json"), "--out", str(tmp_path / "e.csv"))
    text = (tmp_path / "e.csv").read_text()
    checks.check_ecr(text, rows, gen.PROGRAMS)
    lines = text.splitlines()
    m, value = lines[5].split(",")
    altered = lines[:5] + [f"{m},{float(value) + 1e-6!r}"] + lines[6:]
    _rejects(checks.check_ecr, "\n".join(altered), rows, gen.PROGRAMS)
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    _rejects(checks.check_ecr, "\n".join(swapped), rows, gen.PROGRAMS)
    _rejects(checks.check_ecr, "\n".join(lines[:-1]), rows, gen.PROGRAMS)


# --- curation ----------------------------------------------------------------------


def test_curation_check(tmp_path):
    rng = random.Random(4)
    inp = gen.curation_input(rng, [gen.small_molecule(rng) for _ in range(8)],
                             {r: 1 for r in gen.PUBCHEM_RULES
                              + ("disallowed_element",)}, "c")
    (tmp_path / "raw.tsv").write_text(inp.tsv)
    (tmp_path / "ex.txt").write_text(inp.exclusion)
    _cli("dataset", "--input", str(tmp_path / "raw.tsv"),
         "--output", str(tmp_path / "clean.tsv"),
         "--report", str(tmp_path / "rep.json"),
         "--exclusion", str(tmp_path / "ex.txt"))
    report = json.loads((tmp_path / "rep.json").read_text())
    clean = (tmp_path / "clean.tsv").read_text()
    curated = checks.check_curation(report, clean, inp)
    assert list(curated) == inp.survivors

    altered = copy.deepcopy(report)
    altered["pubchem"]["excluded"] -= 1
    altered["pubchem"]["output"] += 1
    _rejects(checks.check_curation, altered, clean, inp)
    lines = clean.splitlines()
    cid, smiles, text = lines[1].split("\t")
    mutated = [lines[0], f"{cid}\t{smiles}C\t{text}"] + lines[2:]
    _rejects(checks.check_curation, report, "\n".join(mutated), inp)
    _rejects(checks.check_curation, report, "\n".join(lines[:-1]), inp)
    reordered = [lines[0], lines[2], lines[1]] + lines[3:]
    _rejects(checks.check_curation, report, "\n".join(reordered), inp)


# --- training ----------------------------------------------------------------------


def test_training_checks():
    cfg = TrainConfig(text_vocab=12, mol_vocab=14, max_steps=20, batch_size=4,
                      seed=5)
    dataset = [([4, 5, 6], [4, 5, 6, 7]), ([5, 6], [8, 9, 10]),
               ([6, 7, 8], [11, 12]), ([4, 7], [13, 4, 5])]
    trained, history = train_adapter(init_model(cfg), dataset, cfg)
    checks.check_loss_trend(history, 20)
    checks.check_frozen(trained, init_model(cfg), 5, 20)

    _rejects(checks.check_loss_trend, history[::-1], 20)
    _rejects(checks.check_loss_trend, history[:-1], 20)
    _rejects(checks.check_frozen, trained, init_model(cfg), 6, 20)
    name = sorted(trained.frozen)[0]
    trained.tensors[name] = trained.tensors[name] + 1e-7
    _rejects(checks.check_frozen, trained, init_model(cfg), 5, 20)
    _rejects(checks.check_frozen, init_model(cfg), init_model(cfg), 5, 20)


# --- generation --------------------------------------------------------------------


def test_generation_check():
    lines = [molstring.canonical_smiles(s) for s in ("OCC", "NC", "SCCO")]
    assert lines[0] == "CCO"
    stats = {"sample": 40, "duplicate": 4, "unique": 36, "invalid": 20,
             "nl": 9, "salts": 1, "se": 3, "success": 3,
             "success_rate": 3 / 36}
    args = (molstring.parse_smiles, molstring.canonical_smiles)
    checks.check_generated(lines, stats, 3, *args)
    for last in (lines[1], "OCC", "CCC", "C.O", "C1CC"):
        bad = lines[:2] + [last]
        with pytest.raises((checks.CheckFailed, ParseError)):
            checks.check_generated(bad, stats, 3, *args)
    _rejects(checks.check_generated, lines[:2], stats, 3, *args)
    for key, delta in (("duplicate", 1), ("invalid", 1), ("success", 1),
                       ("success_rate", 0.01)):
        altered = dict(stats, **{key: stats[key] + delta})
        _rejects(checks.check_generated, lines, altered, 3, *args)


# --- evaluation --------------------------------------------------------------------


def test_eval_and_selfies_checks(tmp_path):
    rng = random.Random(8)
    molecules = [gen.small_molecule(rng) for _ in range(8)]
    ev = gen.eval_input(rng, molecules, 8, 2)
    for name, lines in (("g", ev.generated), ("r", ev.reference),
                        ("same", ev.same), ("swap", ev.swapped)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    variant = json.loads(_cli("eval", "--pred", str(tmp_path / "g"),
                              "--ref", str(tmp_path / "r"))[0])
    same = json.loads(_cli("eval", "--pred", str(tmp_path / "same"))[0])
    swapped = json.loads(_cli("eval", "--pred", str(tmp_path / "swap"))[0])
    checks.check_eval(variant, same, swapped, ev)
    for report, key, value in ((variant, "validity", 1.0),
                               (variant, "exact", 0.25),
                               (same, "morgan_fts", 0.99),
                               (same, "exact", 0.5),
                               (swapped, "rdk_fts", swapped["rdk_fts"] + 1e-9)):
        altered = dict(report, **{key: value})
        args = {"variant": variant, "same": same, "swapped": swapped}
        args[[k for k, v in args.items() if v is report][0]] = altered
        _rejects(checks.check_eval, args["variant"], args["same"],
                 args["swapped"], ev)

    curated = {"c0": molstring.canonical_smiles("OCC")}
    checks.check_selfies([(0, "CCO")], curated, {0: "c0"})
    _rejects(checks.check_selfies, [(0, "CCN")], curated, {0: "c0"})
