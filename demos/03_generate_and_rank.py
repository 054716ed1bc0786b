"""Generation pipeline end to end: sample, filter, evaluate, rank.

An untrained model generates noisy strings; the four-way filter (Invalid /
NaturalLanguage / Salts / SingleElement) and temperature escalation still
extract a unique set of valid molecules from it, with exact accounting.
The survivors are then scored against a reference by fingerprint Tanimoto
similarity and combined across two mock scoring programs by exponential
consensus ranking.

Run with: python3 demos/03_generate_and_rank.py   (1.5-2 s on a 2-vCPU host)
"""

from chemlinker.adapternet import TrainConfig, init_model, smiles_char_vocab
from chemlinker.consensus import LOWER_IS_BETTER, ScoreTable, ecr_scores
from chemlinker.errors import TargetUnreached
from chemlinker.fingerprints import circular_fp, tanimoto
from chemlinker.metrics import evaluate_pairs
from chemlinker.molstring import parse_smiles
from chemlinker.sampler import GenerationConfig, generate_unique_set

params = init_model(TrainConfig(text_vocab=8,
                                mol_vocab=len(smiles_char_vocab())))

print("sampling 8 unique valid molecules from an untrained decoder...")
cfg = GenerationConfig(target_unique=8, max_len=12, per_temperature_cap=500)
try:
    molecules, stats = generate_unique_set(params, [1, 4, 2], cfg)
except TargetUnreached as err:
    # An untrained decoder may exhaust the temperature schedule; the
    # exception carries whatever it did find, with consistent accounting.
    print(f"  schedule exhausted at {err.temperatures[-1]}: {err}")
    molecules, stats = err.molecules, err.stats
print(f"  drew {stats.sample} samples, {stats.unique} unique; "
      f"filter kept {stats.success} "
      f"(invalid={stats.invalid}, natural-language={stats.nl}, "
      f"salts={stats.salts}, single-element={stats.se})")
print(f"  success rate {stats.success_rate:.1%}")
for m in molecules:
    print(f"    {m}")

print("\nscoring against a reference (ethanol) by Tanimoto similarity...")
reference = parse_smiles("CCO")
report = evaluate_pairs([(m, "CCO") for m in molecules])
print(f"  validity={report.validity:.2f}  exact={report.exact:.2f}  "
      f"morgan_fts={report.morgan_fts:.3f}")

print("\nconsensus ranking over two mock scoring programs...")
table = ScoreTable(directions={"similarity": LOWER_IS_BETTER,
                               "size_penalty": LOWER_IS_BETTER})
ref_fp = circular_fp(reference)
for m in molecules:
    mol = parse_smiles(m)
    table.add(m, "similarity", -tanimoto(circular_fp(mol), ref_fp))
    table.add(m, "size_penalty", abs(len(mol.atoms) - 3))
scores = ecr_scores(table)
for m in sorted(scores, key=scores.get, reverse=True):
    print(f"  ECR {scores[m]:.4f}  {m}")
