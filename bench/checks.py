"""Correctness checks on the program's outputs.

Each check compares an output with facts the benchmark planted or computed
itself (drop counts, formulas, which pairs are one molecule, its own ECR),
or with a property the method must have (symmetry, round trips, frozen
weights). None compares with a stored copy of an earlier output. A failed
check raises `CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import json
import math

from bench import gen


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- curation ----------------------------------------------------------------------


def check_curation(report: dict, clean_tsv: str,
                   inp: gen.CurationInput) -> dict:
    """The report equals the planted per-rule counts, exactly the planted
    survivors remain, in order, each with its own formula and a normalized
    description. Returns survivor CID -> curated SMILES."""
    expected = gen.expected_report(inp)
    _require(report == expected,
             f"curation report {report} != planted {expected}")
    lines = clean_tsv.splitlines()
    _require(lines and lines[0] == "CID\tSMILES\tdescription",
             "curated file lacks its header")
    curated = {}
    for line in lines[1:]:
        cid, smiles, description = line.split("\t")
        curated[cid] = smiles
        _require(gen.element_counts(smiles) == inp.formulas.get(cid),
                 f"curated {cid} {smiles!r} has the wrong formula")
        _require(description.startswith("This molecule "),
                 f"description of {cid} not normalized")
    _require(list(curated) == inp.survivors,
             "curated records differ from the planted survivors")
    return curated


# --- training ----------------------------------------------------------------------


def check_loss_trend(history, steps: int) -> None:
    """Mean loss over the last tenth of steps is below the first tenth."""
    _require(history is not None and len(history) == steps,
             f"expected a loss history of {steps} steps")
    tenth = max(1, steps // 10)
    first = sum(history[:tenth]) / tenth
    last = sum(history[-tenth:]) / tenth
    _require(all(math.isfinite(x) for x in history) and last < first,
             f"loss did not fall: first tenth {first:.4f}, "
             f"last tenth {last:.4f}")


def check_frozen(trained, fresh, seed: int, steps: int) -> None:
    """Frozen tensors are bit-identical to a fresh init with the same seed;
    some trainable tensor moved."""
    _require(trained.config.seed == seed and trained.config.max_steps == steps,
             "checkpoint config does not echo the training flags")
    _require(trained.frozen == fresh.frozen and trained.frozen,
             "frozen tensor set differs from a fresh init")
    for name in sorted(fresh.frozen):
        _require(trained.tensors[name].tobytes() == fresh.tensors[name].tobytes(),
                 f"frozen tensor {name} changed during training")
    moved = [n for n in fresh.tensors if n not in fresh.frozen
             and trained.tensors[n].tobytes() != fresh.tensors[n].tobytes()]
    _require(bool(moved), "no trainable tensor changed")


# --- generation --------------------------------------------------------------------


def check_generated(lines: list, stats: dict, k: int, parse, canonical) -> None:
    """k distinct strings, each parsing to itself canonically, one fragment,
    more than one element; the accounting identities hold."""
    _require(len(lines) == k and len(set(lines)) == k,
             f"expected {k} distinct molecules, got {lines}")
    for smiles in lines:
        parse(smiles)
        _require(canonical(smiles) == smiles,
                 f"{smiles!r} is not its own canonical form")
        _require("." not in smiles, f"{smiles!r} has several fragments")
        _require(len(gen.element_counts(smiles)) > 1,
                 f"{smiles!r} has a single element")
    _require(stats["sample"] - stats["duplicate"] == stats["unique"],
             f"sample - duplicate != unique in {stats}")
    _require(stats["unique"] == stats["success"] + stats["invalid"]
             + stats["nl"] + stats["salts"] + stats["se"],
             f"unique != success + rejections in {stats}")
    _require(stats["success"] == k, f"success != {k} in {stats}")
    _require(stats["success_rate"] == stats["success"] / stats["unique"],
             f"success_rate inconsistent in {stats}")


# --- evaluation --------------------------------------------------------------------

_FTS = ("maccs_fts", "rdk_fts", "morgan_fts")


def check_eval(variant: dict, same: dict, swapped: dict,
               inp: gen.EvalInput) -> None:
    """Validity is the planted share; near variants never match exactly;
    one molecule in two atom orders scores exact 1 and FTS 1; swapping
    generated and reference leaves every FTS mean unchanged."""
    n = len(inp.generated)
    n_valid = n - inp.n_invalid
    _require(variant["n_pairs"] == n and variant["n_valid"] == n_valid
             and variant["validity"] == n_valid / n,
             f"validity {variant['validity']} != planted {n_valid}/{n}")
    _require(variant["exact"] == 0.0, "a near variant matched exactly")
    _require(same["n_pairs"] == len(inp.same) == same["n_valid"],
             "same-molecule pairs lost")
    for key in ("exact",) + _FTS:
        _require(same[key] == 1.0,
                 f"one molecule in two atom orders: {key} {same[key]} != 1")
    _require(swapped["n_pairs"] == n_valid == swapped["n_valid"],
             "swapped pairs lost")
    for key in _FTS:
        _require(abs(swapped[key] - variant[key]) <= 1e-12,
                 f"{key} changed on swapping: {variant[key]} -> "
                 f"{swapped[key]}")


def check_selfies(round_trips: list, curated: dict, cid_of: dict) -> None:
    """Every SELFIES round trip returns the original's canonical string
    (as curation wrote it for the same molecule)."""
    for index, result in round_trips:
        original = curated[cid_of[index]]
        _require(result == original,
                 f"SELFIES round trip of molecule {index}: {result!r} != "
                 f"{original!r}")


# --- consensus ---------------------------------------------------------------------


def average_ranks(values: list) -> list:
    """1-based ranks, ties sharing the mean of the positions they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and \
                values[order[end + 1]] == values[order[start]]:
            end += 1
        for pos in range(start, end + 1):
            ranks[order[pos]] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def ecr_reference(rows: list, directions: dict,
                  sigma: float | None = None) -> dict:
    """ECR(j) = sum_p exp(-rank_p(j) / sigma) / sigma; rank 1 is best,
    ties take average ranks, a molecule a program did not score takes
    rank N (the library size), and sigma defaults to max(1, 0.05 N)."""
    molecules = list(dict.fromkeys(m for m, _, _ in rows))
    n = len(molecules)
    sigma = max(1.0, 0.05 * n) if sigma is None else sigma
    totals = {m: 0.0 for m in molecules}
    for program, direction in directions.items():
        scored = [(m, s if direction == "lower" else -s)
                  for m, p, s in rows if p == program]
        if not scored:
            continue
        ranks = dict(zip((m for m, _ in scored),
                         average_ranks([s for _, s in scored])))
        for m in molecules:
            totals[m] += math.exp(-ranks.get(m, float(n)) / sigma) / sigma
    return totals


def check_ecr(csv_text: str, rows: list, directions: dict) -> None:
    """Every molecule's ECR matches the reference to 1e-9, in descending
    order with ties broken by id."""
    reader = csv.reader(io.StringIO(csv_text))
    _require(next(reader) == ["molecule_id", "ecr"], "ECR header")
    got = [(m, float(v)) for m, v in reader]
    expected = ecr_reference(rows, directions)
    _require(len(got) == len(expected) and
             {m for m, _ in got} == set(expected),
             "ECR output covers other molecules than the table")
    for m, value in got:
        _require(abs(value - expected[m]) <= 1e-9,
                 f"ECR of {m}: {value} != reference {expected[m]}")
    _require(got == sorted(got, key=lambda row: (-row[1], row[0])),
             "ECR rows are not in descending order")


def parse_report(stdout: str) -> dict:
    """The JSON object `chemlinker eval` prints on its last line."""
    return json.loads(stdout.strip().splitlines()[-1])
