"""End-to-end tests of the command-line interface and its run manifests."""

import argparse
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import chemlinker
from chemlinker import cli
from chemlinker.adapternet import load_checkpoint
from chemlinker.cli import main
from chemlinker.datasetpipe import load_split

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes and simple wrappers -----------------------------------------------


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "OCC")
    assert code == 0
    assert out.strip() == "CCO"


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "canon", "C(")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("canon", "c1cccc1"), ("canon", "[CH12]"), ("canon", "[C+5]"),
    ("canon", "C=1CCC#1"), ("canon", "C:C"), ("canon", "CC:O"),
    ("canon", "C1:C:C:C:C:C1"), ("selfies-encode", "[Si](C)(C)C"),
    ("selfies-encode", "[13CH4]"), ("selfies-encode", "[O-2]"),
    ("selfies-encode", "[SH4]")])
def test_molecule_error_exits_1_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "canon", "--bogus", "CC")[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


# --- one parser per process -------------------------------------------------------


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    """`main` builds the parser on its first call and reuses it: three calls
    construct one top-level parser and each subparser once."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "canon", "OCC")[:2] == (0, "CCO\n")
    assert run(capsys, "selfies-encode", "CCO")[0] == 0
    assert run(capsys, "eval")[0] == 2
    assert built.count("chemlinker") == 1
    assert len(built) == len(set(built)), built


def test_cli_import_builds_no_parser():
    src = str(Path(chemlinker.__file__).parents[1])
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting_init(parser, *args, **kwargs):\n"
             "    built.append(1)\n"
             "    init(parser, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counting_init\n"
             "from chemlinker import cli\n"
             "print(len(built), cli.build_parser.cache_info().currsize)\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "0"]


def test_usage_error_leaves_the_parser_usable(capsys):
    code, out, err = run(capsys, "eval")
    assert code == 2 and out == ""
    assert "--pred" in err
    assert run(capsys, "canon", "OCC")[:2] == (0, "CCO\n")


@pytest.mark.parametrize("command", [[], ["dataset"]])
def test_help_is_unchanged_by_earlier_calls(capsys, command):
    """`--help` prints the same bytes before and after other calls, and the
    same as a freshly built parser."""
    code, before, _ = run(capsys, *command, "--help")
    assert code == 0
    run(capsys, "canon", "OCC")
    run(capsys, "eval")
    run(capsys, "fp", "CCO", "--scheme", "path")
    code, after, _ = run(capsys, *command, "--help")
    assert code == 0 and after == before
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args([*command, "--help"])
    assert capsys.readouterr().out == before


def test_selfies_round_trip(capsys):
    code, tokens, _ = run(capsys, "selfies-encode", "Cc1ccc(O)cc1")
    assert code == 0
    code, out, _ = run(capsys, "selfies-decode", tokens.strip())
    assert code == 0
    assert out.strip() == "Cc1ccc(O)cc1"


def test_fp_schemes(capsys):
    code, out, _ = run(capsys, "fp", "CCO")
    assert code == 0
    assert out.startswith("circ2/2048:")
    code, out, _ = run(capsys, "fp", "CCO", "--scheme", "keys")
    assert code == 0
    assert out.startswith("keys-default-v1/64:")


@pytest.mark.parametrize("scheme", ["circ", "path", "keys"])
def test_fp_kekule_and_aromatic_spellings_agree(capsys, scheme):
    hexes = set()
    for smiles in ("C1=CC=CC=C1O", "Oc1ccccc1"):
        code, out, _ = run(capsys, "fp", smiles, "--scheme", scheme,
                           "--nbits", "64")
        assert code == 0
        hexes.add(out.strip())
    assert len(hexes) == 1, hexes


@pytest.mark.parametrize("argv", [
    ["fp", "CC", "--scheme", "path", "--nbits", "0"],
    ["fp", "C", "--scheme", "circ", "--nbits", "-5"],
    ["fp", "C", "--nbits", str(1 << 40)],
])
def test_fp_bad_nbits_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# --- eval -------------------------------------------------------------------------


def test_eval_identical_files_all_ones(capsys, tmp_path):
    pred = tmp_path / "a.tsv"
    ref = tmp_path / "b.tsv"
    pred.write_text("CCO\nCCN\nc1ccccc1\n")
    ref.write_text("CCO\nCCN\nc1ccccc1\n")
    code, out, _ = run(capsys, "eval", "--pred", str(pred),
                       "--ref", str(ref))
    assert code == 0
    report = json.loads(out)
    for key in ("validity", "exact", "maccs_fts", "rdk_fts", "morgan_fts"):
        assert report[key] == 1.0


def test_eval_writes_report_and_manifest(capsys, tmp_path):
    pred = tmp_path / "a.tsv"
    pred.write_text("CCO\tCCO\nbad\tCCN\n")
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "eval", "--pred", str(pred),
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["validity"] == 0.5
    manifest = json.loads((tmp_path / "report.json.manifest.json")
                          .read_text())
    assert manifest["subcommand"] == "eval"
    assert str(pred) in manifest["input_hashes"]
    assert manifest["version"]


def test_eval_line_count_mismatch_exits_1(capsys, tmp_path):
    pred = tmp_path / "pred.txt"
    ref = tmp_path / "ref.txt"
    pred.write_text("CCO\nCCN\n")
    ref.write_text("CCO\nCCN\nCCC\n")
    code, out, err = run(capsys, "eval", "--pred", str(pred),
                         "--ref", str(ref))
    assert code == 1 and out == ""
    assert "error:" in err and "2" in err and "3" in err


def test_eval_malformed_row_exits_1(capsys, tmp_path):
    pred = tmp_path / "pairs.tsv"
    pred.write_text("CCO\tCCO\nCCO\tCCN\tCCC\n")
    code, out, err = run(capsys, "eval", "--pred", str(pred))
    assert code == 1 and out == ""
    assert f"{pred}:2" in err


# --- dataset ----------------------------------------------------------------------


def test_dataset_pipeline(capsys, tmp_path):
    out_tsv = tmp_path / "out.tsv"
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "dataset",
                       "--input", str(FIXTURES / "pubchem_20.tsv"),
                       "--output", str(out_tsv),
                       "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["pubchem"]["short_description"] == 2
    assert payload["pubchem"]["drop_phrase"] == 2
    assert payload["pubchem"]["one_to_many"] == 2
    lines = out_tsv.read_text().strip().splitlines()
    assert lines[0] == "CID\tSMILES\tdescription"
    # Descriptions with a leading "<name> is" clause are rewritten; the one
    # fixture record without such a clause is left as-is.
    rewritten = [ln.split("\t")[2].startswith("This molecule")
                 for ln in lines[1:]]
    assert sum(rewritten) == len(rewritten) - 1
    assert (tmp_path / "out.tsv.manifest.json").exists()


def test_dataset_sample_too_large_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "dataset",
                       "--input", str(FIXTURES / "pubchem_20.tsv"),
                       "--output", str(tmp_path / "out.tsv"),
                       "--sample", "999")
    assert code == 1
    assert "error:" in err


def test_dataset_names_the_exclusion_entry_that_does_not_parse(capsys,
                                                             tmp_path):
    exclusion = tmp_path / "ex.txt"
    exclusion.write_text("CCO\nC(\n")
    out_tsv = tmp_path / "out.tsv"
    code, out, err = run(capsys, "dataset",
                         "--input", str(FIXTURES / "pubchem_20.tsv"),
                         "--output", str(out_tsv),
                         "--exclusion", str(exclusion))
    assert code == 1 and out == ""
    assert err == (f"error: {exclusion}: exclusion entry 'C(' does not "
                   f"parse: 1 unclosed '('\n")
    assert not out_tsv.exists()


@pytest.mark.parametrize("sample", ["-1", "-20"])
def test_dataset_negative_sample_exits_1(capsys, tmp_path, sample):
    out_tsv = tmp_path / "out.tsv"
    code, _, err = run(capsys, "dataset",
                       "--input", str(FIXTURES / "pubchem_20.tsv"),
                       "--output", str(out_tsv), "--sample", sample)
    assert code == 1
    assert f"error: cannot draw {sample} distinct indices" in err
    assert not out_tsv.exists()


# --- train / generate -------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    data = tmp_path / "pairs.tsv"
    rows = ["CID\tSMILES\tdescription"]
    for i, smi in enumerate(["CCO", "CCN", "CCS", "CCCO", "CCCN"] * 4):
        rows.append(f"{i}\t{smi}\tmolecule written as "
                    + " ".join(smi))
    data.write_text("\n".join(rows) + "\n")
    return data, tmp_path / "model.ckpt"


def test_train_then_generate(capsys, tiny_checkpoint):
    data, ckpt = tiny_checkpoint
    code, out, _ = run(capsys, "train", "--data", str(data),
                       "--out", str(ckpt), "--steps", "5")
    assert code == 0
    assert "final loss" in out
    # The checkpoint carries its vocabularies: no file beside it but the
    # manifest.
    assert sorted(p.name for p in ckpt.parent.glob(ckpt.name + "*")) == [
        "model.ckpt", "model.ckpt.manifest.json"]

    # Pinned outputs: a refactor must leave the trained tensors and the
    # sampled molecules byte-identical.
    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[5:13])
    assert hashlib.sha256(blob[13 + header_len:]).hexdigest() == (
        "79caf0960f8589077eca1eb08e1af6c4973f76f46badf416f4397402a52a11df")

    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                         "--text", "molecule written as C C O",
                         "--n", "2", "--seed", "7")
    assert code == 0
    molecules = out.strip().splitlines()
    # 0.13.0: the sampled "/OP", which the parser read as OP up to 0.12.0,
    # is no longer SMILES, so the second molecule comes later.
    assert molecules == ["NF", "SI"]
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["success"] == 2

    # Same seed, same molecules: byte-identical reruns.
    code, out2, _ = run(capsys, "generate", "--ckpt", str(ckpt),
                        "--text", "molecule written as C C O",
                        "--n", "2", "--seed", "7")
    assert code == 0
    assert out2 == out


HEAP_PROBE = """
import resource, sys
from chemlinker import cli

data, out = sys.argv[1:]
assert cli._keep_heap_top.cache_info().currsize == 0   # not at import

def train(steps):
    argv = ["train", "--data", data, "--out", out, "--steps", str(steps),
            "--batch-size", "16"]
    assert cli.main(argv) == 0

train(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(100)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap setting is glibc's")
def test_train_steps_reuse_their_heap(tmp_path):
    """A step's arrays (over 128 KiB at 50-word texts and batch 16) are
    freed together at its end. glibc would trim that heap top and the next
    step would fault it back in, about 1,000 minor faults a step; `main`
    keeps it, so 100 steps after a warm-up fault in almost nothing."""
    smiles = (FIXTURES / "corpus_500.smi").read_text().split()[:40]
    rows = ["CID\tSMILES\tdescription"]
    for i, smi in enumerate(smiles):
        words = " ".join(f"w{(7 * i + k) % 90}" for k in range(50))
        rows.append(f"{i}\t{smi}\t{words}")
    data = tmp_path / "records.tsv"
    data.write_text("\n".join(rows) + "\n")
    src = str(Path(chemlinker.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE, str(data),
         str(tmp_path / "model.ckpt")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    faults = int(result.stdout.split()[-1])
    assert faults < 50 * 100, faults


def test_train_names_the_record_that_does_not_fit(capsys, tmp_path,
                                                 tiny_checkpoint):
    """An 85-character SMILES is 86 decoder inputs with BOS, more than the
    molecule positional table's 80: `train` names its CID."""
    smiles = "C" * 40 + "O" * 5 + "C" * 40
    data = tmp_path / "long.tsv"
    data.write_text(tiny_checkpoint[0].read_text()
                    + f"777\t{smiles}\tmolecule written as long\n")
    ckpt = tmp_path / "model.ckpt"
    code, out, err = run(capsys, "train", "--data", str(data),
                         "--out", str(ckpt), "--steps", "1")
    assert code == 1
    assert out == ""
    assert err.strip() == ("error: record CID 777: molecule sequence of 86 "
                           "tokens longer than positional table of 80")
    assert not ckpt.exists()


def test_train_names_the_record_outside_the_vocabulary(capsys, tmp_path,
                                                      tiny_checkpoint):
    """A character outside the molecule vocabulary names its record's CID,
    as a molecule too long for the positional table does."""
    data = tmp_path / "alien.tsv"
    data.write_text(tiny_checkpoint[0].read_text()
                    + "778\tCaC\tmolecule written as C a C\n")
    ckpt = tmp_path / "model.ckpt"
    code, out, err = run(capsys, "train", "--data", str(data),
                         "--out", str(ckpt), "--steps", "1")
    assert code == 1
    assert out == ""
    assert err.strip() == ("error: record CID 778: token 'a' not in "
                           "vocabulary")
    assert not ckpt.exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--steps", "0", "max_steps must be >= 1, not 0"),
    ("--steps", "-3", "max_steps must be >= 1, not -3"),
    ("--batch-size", "0", "batch_size must be >= 1, not 0")])
def test_train_without_steps_or_batch_exits_1(capsys, tmp_path,
                                              tiny_checkpoint, flag, value,
                                              named):
    data, _ = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(capsys, "train", "--data", str(data),
                       "--out", str(ckpt), flag, value)
    assert code == 1
    assert err.strip() == f"error: {named}"
    assert not ckpt.exists()


def test_generate_writes_molecules_and_manifest(capsys, tmp_path,
                                                tiny_checkpoint):
    data, _ = tiny_checkpoint
    ckpt, out_path = tmp_path / "model.ckpt", tmp_path / "molecules.smi"
    assert run(capsys, "train", "--data", str(data), "--out", str(ckpt),
               "--steps", "1")[0] == 0
    code, out, _ = run(capsys, "generate", "--ckpt", str(ckpt),
                       "--text", "molecule written as C C O", "--n", "2",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out
    assert len(out.splitlines()) == 2
    manifest = json.loads((tmp_path / "molecules.smi.manifest.json")
                          .read_text())
    assert manifest["subcommand"] == "generate"
    assert manifest["seed"] == 42
    assert list(manifest["input_hashes"]) == [str(ckpt)]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_generate_nonpositive_n_exits_1(capsys, tmp_path, tiny_checkpoint, n):
    data, _ = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(capsys, "train", "--data", str(data),
                     "--out", str(ckpt), "--steps", "1")
    assert code == 0
    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                         "--text", "molecule written as C C O", "--n", n)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: target_unique must be >= 1, not {n}"


def test_long_description_trains_and_generates(capsys, tmp_path,
                                               tiny_checkpoint):
    """A description longer than the text positional table (64 positions,
    62 words beside BOS and EOS) is cut to fit, in training and in
    generation alike."""
    words = " ".join(f"word{i % 20}" for i in range(66))
    data = tmp_path / "long.tsv"
    data.write_text(tiny_checkpoint[0].read_text() + f"99\tCCO\t{words}\n")
    ckpt = tmp_path / "long.ckpt"
    code, _, err = run(capsys, "train", "--data", str(data),
                       "--out", str(ckpt), "--steps", "5")
    assert code == 0, err
    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                         "--text", words, "--n", "1")
    assert code == 0, err
    assert out.split() == ["C(F)P"]


def _edit_header(blob, edit, magic=b"CLMK2"):
    """`blob` with its JSON header replaced by `edit(header)`."""
    (header_len,) = struct.unpack("<Q", blob[5:13])
    raw = json.dumps(edit(json.loads(blob[13:13 + header_len])))
    raw = raw.encode("utf-8")
    return magic + struct.pack("<Q", len(raw)) + raw + blob[13 + header_len:]


def _set(key, value, section=None):
    def edit(header):
        (header[section] if section else header)[key] = value
        return header
    return edit


def _tensor_shape(name, shape):
    def edit(header):
        for entry in header["tensors"]:
            if entry["name"] == name:
                entry["shape"] = shape
        return header
    return edit


def _drop_tensor(name):
    def edit(header):
        header["tensors"] = [e for e in header["tensors"]
                             if e["name"] != name]
        return header
    return edit


def test_unreadable_checkpoint_exits_1(capsys, tmp_path, tiny_checkpoint):
    """A truncated file, an unknown config key, a config no model has, or
    tensors that differ from the config's layout exit 1 with no
    traceback."""
    data, _ = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(capsys, "train", "--data", str(data),
                     "--out", str(ckpt), "--steps", "1")
    assert code == 0
    blob = ckpt.read_bytes()
    for broken in (blob[:9],
                   _edit_header(blob, _set("dropout", 0.1, "config")),
                   _edit_header(blob, _drop_tensor("head.b")),
                   _edit_header(blob, _set("layers", 5, "config")),
                   _edit_header(blob, _set("heads", 3, "config")),
                   _edit_header(blob, _set("layers", 0, "config")),
                   _edit_header(blob, _tensor_shape("mol.pos", [3, 64])),
                   _edit_header(blob, _tensor_shape("head.b", [-1]))):
        ckpt.write_bytes(broken)
        code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                             "--text", "molecule written as C C O")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def test_generate_without_text_vocabulary_exits_1(capsys, tmp_path,
                                                  tiny_checkpoint):
    """A CLMK1 checkpoint keeps no vocabularies, and text ids mean nothing
    without the one training used: generate asks for a retrain."""
    data, _ = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(capsys, "train", "--data", str(data),
                     "--out", str(ckpt), "--steps", "1")
    assert code == 0

    def old_header(header):
        del header["text_tokens"], header["mol_tokens"]
        return header
    ckpt.write_bytes(_edit_header(ckpt.read_bytes(), old_header, b"CLMK1"))
    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                         "--text", "molecule written as C C O")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "CLMK1" in err and "retrain" in err


TAGGED = "molecule <b> bold alcohol"


@pytest.fixture(scope="module")
def tagged_checkpoint(tmp_path_factory, tiny_checkpoint):
    """A checkpoint trained on descriptions that include the word <b>."""
    tmp_path = tmp_path_factory.mktemp("tagged")
    data = tmp_path / "tagged.tsv"
    data.write_text(tiny_checkpoint[0].read_text() + f"99\tCCO\t{TAGGED}\n")
    ckpt = tmp_path / "tagged.ckpt"
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--steps", "1"]) == 0
    return data, ckpt


def test_reloaded_text_vocabulary_gives_the_training_ids(tagged_checkpoint):
    """A description word that starts with "<" keeps its place, so every
    later word keeps its id (the reloaded ids fell by one in 0.5.0)."""
    data, ckpt = tagged_checkpoint
    dataset, tvocab, mvocab = cli._training_pairs(load_split(data), 64)
    loaded = load_checkpoint(ckpt)
    assert "<b>" in loaded.text_vocab.tokens
    assert loaded.text_vocab.tokens == tvocab.tokens
    assert loaded.mol_vocab.tokens == mvocab.tokens
    assert cli._text_ids(loaded.text_vocab, TAGGED, 64) == dataset[-1][0]


@pytest.mark.parametrize("tokens", ["other-run", "reordered", "no-list",
                                    "wrong-count"])
def test_mismatched_text_vocabulary_exits_1(capsys, tmp_path,
                                            tiny_checkpoint,
                                            tagged_checkpoint, tokens):
    """A header whose text tokens come from another run, or that a
    vocabulary cannot hold in their saved order (pad and bos swapped),
    would shift the text ids; one without a token list holds none; one of
    another length does not fit the text embedding."""
    data, _ = tiny_checkpoint
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(capsys, "train", "--data", str(data),
                     "--out", str(ckpt), "--steps", "1")
    assert code == 0
    saved = load_checkpoint(ckpt).text_vocab.tokens
    if tokens == "other-run":
        edited = load_checkpoint(tagged_checkpoint[1]).text_vocab.tokens
    elif tokens == "reordered":
        edited = [saved[1], saved[0]] + saved[2:]
    elif tokens == "no-list":
        edited = None
    else:
        edited = saved + ["extra"]
    ckpt.write_bytes(_edit_header(ckpt.read_bytes(),
                                  _set("text_tokens", edited)))
    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt),
                         "--text", "molecule written as C C O")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "text vocabulary" in err


# --- consensus --------------------------------------------------------------------


def test_consensus_cli(capsys, tmp_path):
    scores = tmp_path / "s.csv"
    dirs = tmp_path / "d.json"
    out = tmp_path / "ecr.csv"
    scores.write_text("molecule_id,program,score\n"
                      "A,p1,-9.0\nB,p1,-8.0\nC,p1,-7.0\n"
                      "A,p2,-8.5\nB,p2,-9.5\nC,p2,-6.0\n")
    dirs.write_text('{"p1": "lower", "p2": "lower"}')
    code, out_text, _ = run(capsys, "consensus", "--scores", str(scores),
                            "--dirs", str(dirs), "--sigma", "1.0",
                            "--out", str(out),
                            "--background", str(FIXTURES / "impdh_ecr.json"))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "molecule_id,ecr"
    assert len(lines) == 4
    report = json.loads(out_text.strip().splitlines()[0])
    assert report["candidate_median"] == 0.00594
    assert (tmp_path / "ecr.csv.manifest.json").exists()


def test_consensus_empty_table_exits_1(capsys, tmp_path):
    scores = tmp_path / "s.csv"
    dirs = tmp_path / "d.json"
    scores.write_text("molecule_id,program,score\n")
    dirs.write_text('{"p1": "lower"}')
    code, _, err = run(capsys, "consensus", "--scores", str(scores),
                       "--dirs", str(dirs), "--out",
                       str(tmp_path / "o.csv"))
    assert code == 1
    assert "error:" in err


def test_consensus_nan_score_exits_1(capsys, tmp_path):
    scores = tmp_path / "s.csv"
    dirs = tmp_path / "d.json"
    scores.write_text("molecule_id,program,score\nA,p1,nan\nB,p1,nan\n"
                      "C,p1,nan\n")
    dirs.write_text('{"p1": "lower"}')
    code, _, err = run(capsys, "consensus", "--scores", str(scores),
                       "--dirs", str(dirs), "--out",
                       str(tmp_path / "o.csv"))
    assert code == 1
    assert "NaN" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0"])
def test_consensus_nonfinite_or_nonpositive_sigma_exits_1(capsys, tmp_path,
                                                          sigma):
    scores = tmp_path / "s.csv"
    dirs = tmp_path / "d.json"
    scores.write_text("molecule_id,program,score\nA,p1,-9.0\nB,p1,-8.0\n")
    dirs.write_text('{"p1": "lower"}')
    code, _, err = run(capsys, "consensus", "--scores", str(scores),
                       "--dirs", str(dirs), f"--sigma={sigma}", "--out",
                       str(tmp_path / "o.csv"))
    assert code == 1
    assert "error: sigma must be finite and positive" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("rows,dirs,background", [
    ("A,p1,-9.0\nB,p1\n", '{"p1": "lower"}', None),
    ("A,p1,-9.0\nB,p1,-7.5,oops\n", '{"p1": "lower"}', None),
    ("A,p1,-9.0\n", '["p1"]', None),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": {"b": [2.0]}}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}', "[1.0, 2.0]"),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": [2.0], "probe": 1.0}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": {"b": [2.0]}, "probe": "x"}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": 3, "backgrounds": {"b": [2.0]}, "probe": 1.0}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [true, false], "backgrounds": {"b": [1.0]}, '
     '"probe": 1.0}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": {"b": [1.0]}, "probe": true}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": {"b": [NaN, 1.0, 2.0]}, '
     '"probe": 1.0}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [Infinity], "backgrounds": {"b": [1.0]}, '
     '"probe": 1.0}'),
    ("A,p1,-9.0\n", '{"p1": "lower"}',
     '{"candidates": [1.0], "backgrounds": {"b": [1.0]}, "probe": NaN}'),
], ids=["row-without-score", "row-with-extra-field", "directions-list",
        "background-without-probe", "background-list", "backgrounds-list",
        "probe-string", "candidates-number", "candidates-bool", "probe-bool",
        "background-nan", "candidates-infinity", "probe-nan"])
def test_consensus_malformed_input_exits_1(capsys, tmp_path, rows, dirs,
                                           background):
    scores = tmp_path / "s.csv"
    scores.write_text("molecule_id,program,score\n" + rows)
    (tmp_path / "d.json").write_text(dirs)
    argv = ["consensus", "--scores", str(scores), "--dirs",
            str(tmp_path / "d.json"), "--out", str(tmp_path / "o.csv")]
    if background is not None:
        (tmp_path / "bg.json").write_text(background)
        argv += ["--background", str(tmp_path / "bg.json")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the CLI must not
    pull in scipy."""
    src = str(Path(chemlinker.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, chemlinker.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
