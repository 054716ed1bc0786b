"""Tests of the tracer and of the runner's output format."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import tracing  # noqa: E402
import chemlinker.metrics  # noqa: E402
import chemlinker.molstring  # noqa: E402
from chemlinker.adapternet.autograd import Tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_nested_spans_give_self_time_and_uninstall_restores():
    canonical = chemlinker.molstring.canonical_smiles
    backward = Tensor.backward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chemlinker.molstring.canonical_smiles is not canonical
        chemlinker.metrics.evaluate_pairs([("CCO", "OCC"), ("C1CC", "CC")])
    finally:
        tracer.uninstall()
    assert chemlinker.molstring.canonical_smiles is canonical
    assert chemlinker.metrics.canonical_smiles is canonical
    assert Tensor.backward is backward
    layers = tracer.layers()
    pairs = layers["metrics.evaluate_pairs"]
    assert pairs["calls"] == 1
    assert 0 < pairs["self_s"] < pairs["s"]
    # 4 parses by evaluate_pairs (one fails) and 2 canonical calls on
    # parsed molecules, which do not parse again.
    assert layers["molstring.parse_smiles"]["calls"] == 4
    assert layers["molstring.canonical_smiles"]["calls"] == 2
    assert layers["fingerprints.path_fp"]["calls"] == 2
    parents = {tracer.spans[p][0] for _, _, _, p, _, _ in tracer.spans
               if p >= 0}
    assert parents == {"metrics.evaluate_pairs"}


def test_per_layer_names_and_units_match_the_benchmark_spec():
    metrics = tracing.per_layer_metrics(tracing.Tracer(), 1, 0)
    metrics["trace.overhead_pct"] = {"value": 0.0, "unit": "%"}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}


def test_untraced_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evaluate",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
