"""Exponential consensus ranking (ECR) over multi-program docking scores,
plus background comparison reports.

ECR(j) = sum over programs p of (1/sigma) * exp(-rank_p(j) / sigma), with
rank 1 the best score under each program's declared direction, average ranks
on ties, and molecules missing from a program assigned the worst rank N
(N = library size). sigma defaults to 5% of the library size, floored at 1.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import asdict, dataclass, field

import numpy as np

from chemlinker.errors import EmptySet, EmptyTable

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"


@dataclass
class ScoreTable:
    """Sparse molecule x program score table with per-program directions."""

    directions: dict = field(default_factory=dict)   # program -> direction
    scores: dict = field(default_factory=dict)       # program -> {mol: score}

    def add(self, molecule_id: str, program: str, score: float) -> None:
        if program not in self.directions:
            raise ValueError(f"program {program!r} has no declared direction")
        score = float(score)
        if math.isnan(score):
            raise ValueError(
                f"score of {molecule_id!r} under {program!r} is NaN")
        self.scores.setdefault(program, {})[molecule_id] = score

    @property
    def molecules(self) -> list[str]:
        seen: dict[str, None] = {}
        for per_mol in self.scores.values():
            for mol in per_mol:
                seen.setdefault(mol)
        return list(seen)

    @property
    def programs(self) -> list[str]:
        return [p for p in self.directions if p in self.scores]


def _program_ranks(table: ScoreTable, program: str, molecules) -> dict:
    """Average-tie ranks (1 = best) for one program; missing -> worst rank N."""
    per_mol = table.scores[program]
    scored = [m for m in molecules if m in per_mol]
    values = [per_mol[m] for m in scored]
    if table.directions[program] == HIGHER_IS_BETTER:
        values = [-v for v in values]
    elif table.directions[program] != LOWER_IS_BETTER:
        raise ValueError(
            f"unknown direction {table.directions[program]!r}")
    # Tied values share the mean of their 1-based sorted positions.
    _, tie, count = np.unique(values, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(count) - (count - 1) / 2)[tie]
    out = {m: float(r) for m, r in zip(scored, ranks)}
    worst = float(len(molecules))
    for m in molecules:
        out.setdefault(m, worst)
    return out


def ecr_scores(table: ScoreTable, sigma: float | None = None) -> dict:
    """ECR score per molecule, larger is better. Raises EmptyTable if the
    table holds no scores."""
    molecules = table.molecules
    if not molecules or not table.programs:
        raise EmptyTable("score table has no scores")
    if sigma is None:
        sigma = max(1.0, 0.05 * len(molecules))
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, not {sigma}")
    totals = {m: 0.0 for m in molecules}
    for program in table.programs:
        ranks = _program_ranks(table, program, molecules)
        for m in molecules:
            totals[m] += math.exp(-ranks[m] / sigma) / sigma
    return totals


def rank_molecules(table: ScoreTable, sigma: float | None = None):
    """Molecule ids sorted by descending ECR (ties by id for determinism)."""
    scores = ecr_scores(table, sigma)
    return sorted(scores, key=lambda m: (-scores[m], m))


def percentile_of(value: float, background) -> float:
    """Midpoint-convention percentile of `value` within `background`:
    (count below + half the count equal) / n * 100."""
    background = list(background)
    if not background:
        raise EmptySet("empty background set")
    less = sum(1 for b in background if b < value)
    equal = sum(1 for b in background if b == value)
    return (less + 0.5 * equal) / len(background) * 100.0


@dataclass
class ConsensusReport:
    """Medians per set, probe percentile within each background, and whether
    the candidate median exceeds each background median."""

    candidate_median: float
    background_medians: dict          # name -> median
    probe: float
    probe_percentiles: dict           # name -> midpoint percentile of probe
    candidate_exceeds: dict           # name -> candidate median > background

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def background_report(candidates, backgrounds: dict,
                      probe: float) -> ConsensusReport:
    """Compare candidate scores and a probe score against named background
    score sets; all sets must be non-empty."""
    candidates = list(candidates)
    if not candidates:
        raise EmptySet("empty candidate set")
    if not backgrounds:
        raise EmptySet("no background sets")
    medians, percentiles, exceeds = {}, {}, {}
    cand_median = statistics.median(candidates)
    for name, scores in backgrounds.items():
        scores = list(scores)
        if not scores:
            raise EmptySet(f"empty background set {name!r}")
        medians[name] = statistics.median(scores)
        percentiles[name] = percentile_of(probe, scores)
        exceeds[name] = cand_median > medians[name]
    return ConsensusReport(candidate_median=cand_median,
                           background_medians=medians, probe=probe,
                           probe_percentiles=percentiles,
                           candidate_exceeds=exceeds)


def load_score_table(csv_path, directions_path) -> ScoreTable:
    """Read `molecule_id,program,score` CSV rows plus a JSON sidecar mapping
    each program to "lower" or "higher"."""
    with open(directions_path, encoding="utf-8") as fh:
        directions = json.load(fh)
    if not isinstance(directions, dict):
        raise ValueError(
            "directions file must hold a JSON object of program -> direction")
    for program, direction in directions.items():
        if direction not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
            raise ValueError(
                f"direction for {program!r} must be 'lower' or 'higher'")
    table = ScoreTable(directions=dict(directions))
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["molecule_id", "program", "score"]:
            raise ValueError("expected header molecule_id,program,score")
        for row in reader:
            if not row:
                continue                    # a blank line
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: expected "
                                 "molecule_id,program,score")
            molecule, program, score = row
            table.add(molecule, program, float(score))
    return table


def write_ecr_csv(scores: dict, path) -> None:
    """Write `molecule_id,ecr` rows sorted by descending ECR."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["molecule_id", "ecr"])
        for m in sorted(scores, key=lambda m: (-scores[m], m)):
            writer.writerow([m, repr(scores[m])])
