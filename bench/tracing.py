"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces the public functions of each chemlinker module,
in every chemlinker module namespace that holds them, with wrappers that
record a span (name, start, end, parent, round, Tensors built). Because
the layers call each other through those module attributes, nested calls
become child spans, and a layer's self time is its busy time minus its
children's.
Nothing under `src/` changes, and `uninstall` puts every attribute back.
Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

# (layer name, module, attribute). A missing attribute is skipped, so a
# refactor that removes a function leaves its metrics at zero rather than
# breaking the run.
TRACED = [
    ("molstring.parse_smiles", "chemlinker.molstring.smiles", "parse_smiles"),
    ("molstring.canonical_smiles", "chemlinker.molstring.write",
     "canonical_smiles"),
    ("molstring.encode_selfies", "chemlinker.molstring.selfies",
     "encode_selfies"),
    ("molstring.decode_selfies", "chemlinker.molstring.selfies",
     "decode_selfies"),
    ("fingerprints.circular_fp", "chemlinker.fingerprints", "circular_fp"),
    ("fingerprints.path_fp", "chemlinker.fingerprints", "path_fp"),
    ("fingerprints.key_fp", "chemlinker.fingerprints", "key_fp"),
    ("metrics.evaluate_pairs", "chemlinker.metrics", "evaluate_pairs"),
    ("datasetpipe.load_split", "chemlinker.datasetpipe", "load_split"),
    ("datasetpipe.filter_pubchem", "chemlinker.datasetpipe", "filter_pubchem"),
    ("datasetpipe.compat_filter", "chemlinker.datasetpipe", "compat_filter"),
    ("adapternet.train_adapter", "chemlinker.adapternet.training",
     "train_adapter"),
    ("adapternet.batch_loss", "chemlinker.adapternet.training", "batch_loss"),
    ("adapternet.backward", "chemlinker.adapternet.autograd",
     "Tensor.backward"),
    ("adapternet.encode_text", "chemlinker.adapternet.model", "encode_text"),
    ("adapternet.forward_logits", "chemlinker.adapternet.model",
     "forward_logits"),
    ("adapternet.save_checkpoint", "chemlinker.adapternet.checkpoint",
     "save_checkpoint"),
    ("adapternet.load_checkpoint", "chemlinker.adapternet.checkpoint",
     "load_checkpoint"),
    ("sampler.generate_one", "chemlinker.sampler", "generate_one"),
    ("sampler.sample_token", "chemlinker.sampler", "sample_token"),
    ("sampler.classify_filter", "chemlinker.sampler", "classify_filter"),
    ("consensus.load_score_table", "chemlinker.consensus", "load_score_table"),
    ("consensus.ecr_scores", "chemlinker.consensus", "ecr_scores"),
    ("cli.main", "chemlinker.cli", "main"),
]

_TENSOR = ("chemlinker.adapternet.autograd", "Tensor")


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, round, tensors]
        self.stack: list = []
        self.round = 0
        self.tensors = 0            # Tensor objects constructed
        self._restore: list = []    # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.round,
                          self.tensors])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[index]
                span[2] = perf_counter()
                span[5] = self.tensors - span[5]
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attribute in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_path, _, leaf = attribute.rpartition(".")
            owner = getattr(module, owner_path, None) if owner_path else None
            original = getattr(owner or module, leaf, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            if owner is not None:
                self._replace(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "chemlinker" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        tensor = getattr(sys.modules.get(_TENSOR[0]), _TENSOR[1], None)
        if tensor is not None:
            init = tensor.__init__

            def counting_init(obj, *args, **kwargs):
                self.tensors += 1
                init(obj, *args, **kwargs)

            self._replace(tensor, "__init__", counting_init)

    def _replace(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # --- aggregation -----------------------------------------------------------

    def layers(self) -> dict:
        """name -> {calls, s, self_s, tensors, durations}."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for span, children in zip(self.spans, child_time):
            name, start, end, _, _, tensors = span
            layer = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "tensors": 0, "durations": []})
            layer["calls"] += 1
            layer["s"] += end - start
            layer["self_s"] += end - start - children
            layer["tensors"] += tensors
            layer["durations"].append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, round_, tensors in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": round_,
                                     "tensors": tensors}) + "\n")


def per_layer_metrics(tracer: Tracer, rounds: int,
                      unique_passing: int) -> dict:
    """The per-layer metrics, normalised per traced round so that runs of
    different speed compare. `unique_passing` is the count of molecules
    `chemlinker generate` returned in the traced rounds."""
    layers = tracer.layers()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "tensors": 0,
             "durations": []}

    def get(name: str) -> dict:
        return layers.get(name, empty)

    def per_round(value: float) -> float:
        return value / rounds

    metrics: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in ("molstring.parse_smiles", "molstring.canonical_smiles",
                 "fingerprints.circular_fp", "fingerprints.path_fp",
                 "fingerprints.key_fp", "adapternet.encode_text",
                 "adapternet.forward_logits", "sampler.generate_one",
                 "sampler.sample_token", "sampler.classify_filter"):
        put(f"{name}.calls", per_round(get(name)["calls"]), "calls/round")
    for name in ("molstring.parse_smiles", "molstring.canonical_smiles",
                 "molstring.encode_selfies", "molstring.decode_selfies",
                 "fingerprints.circular_fp", "fingerprints.path_fp",
                 "fingerprints.key_fp", "datasetpipe.load_split",
                 "adapternet.batch_loss", "adapternet.backward",
                 "adapternet.forward_logits", "adapternet.save_checkpoint",
                 "adapternet.load_checkpoint", "sampler.sample_token",
                 "sampler.classify_filter", "consensus.load_score_table",
                 "consensus.ecr_scores"):
        put(f"{name}.s", per_round(get(name)["s"]), "s/round")
    for name in ("metrics.evaluate_pairs", "datasetpipe.filter_pubchem",
                 "datasetpipe.compat_filter", "cli.main"):
        put(f"{name}.self_s", per_round(get(name)["self_s"]), "s/round")

    canonical = get("molstring.canonical_smiles")["durations"]
    put("molstring.canonical_smiles.p50_ms",
        statistics.median(canonical) * 1e3 if canonical else 0.0, "ms/call")
    put("molstring.canonical_smiles.max_ms",
        max(canonical) * 1e3 if canonical else 0.0, "ms/call")
    forward = get("adapternet.forward_logits")
    put("adapternet.forward_logits.ms_per_call",
        forward["s"] / forward["calls"] * 1e3 if forward["calls"] else 0.0,
        "ms/call")
    # The optimizer is what a train step does besides the tape forward
    # (batch_loss) and backward: the self time of train_adapter.
    put("adapternet.optimizer.s",
        per_round(get("adapternet.train_adapter")["self_s"]), "s/round")
    steps = get("adapternet.backward")["calls"]
    put("adapternet.tensors_per_step",
        get("adapternet.train_adapter")["tensors"] / steps if steps else 0.0,
        "tensors/step")
    samples = get("sampler.generate_one")["calls"]
    put("sampler.unique_passing", per_round(unique_passing), "count/round")
    put("sampler.success_per_sample",
        unique_passing / samples if samples else 0.0, "ratio")
    return metrics
