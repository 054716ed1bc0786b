"""The canonical SMILES search against a plain reference, plus time bounds.

The reference below is the search as it was before the writer kept
per-fragment tables and tried interchangeable hanging groups once: one
breadth-first search per bond for the branch weights, and every tie group
enumerated as all of its permutations on every emission. The writer must
return the same string wherever the reference stays under `_MAX_VARIANTS`.
"""

import random
import time
from itertools import permutations
from pathlib import Path

import pytest

from chemlinker.errors import DecodeFailure
from chemlinker.molstring import (
    canonical_smiles,
    decode_selfies,
    parse_smiles,
    token_alphabet,
    write_smiles,
)
from chemlinker.molstring.model import SINGLE, STEREO_UP
from chemlinker.molstring.write import (
    _BOND_TOKEN,
    _CMP_TABLE,
    _MAX_VARIANTS,
    _atom_token,
    _canonical_ranks,
)

from test_graph_facts import EDGE_CASES

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = (FIXTURES / "corpus_500.smi").read_text().split()

STEREO_INPUTS = [
    "N[C@@H](C)C(=O)O", "C[C@H](N)C(=O)O", "C[C@@H](N)C(=O)O",
    "C/C=C/C", "C/C=C\\C", "F/C=C/C=C/F", "C/C(F)=C(/Cl)C",
    "O[C@]1(C)CCCC[C@H]1N", "C[C@H]1CC[C@@H](C)CC1",
    "OC[C@H]1O[C@@H](O)[C@H](O)[C@@H](O)[C@@H]1O",
    "C[C@](F)(Cl)Br", "[C@@H](F)(Cl)Br", "CC(C)(C)[C@H](N)C(C)(C)C",
    "FC(F)(F)/C=C/C(F)(F)F",
    # Equal hanging groups on a chiral atom, and equal chiral groups: an
    # ordering of either changes the string.
    "C1CC1[C@](C)(CC)CC", "c1ccccc1[C@](O)(C)C",
    "CCC(C)(C[C@@H](O)F)C[C@H](O)F",
    # Tied groups of one refinement rank that differ only in a chiral atom,
    # in a stereo bond inside, or in the stereo bond to their parent.
    "CC(C)(C[C@H](F)O)CC(F)O", "OC(C/C=C\\C)(C/C=C\\C)C/C=C/C",
    "C(\\F)(/F)=C/C",
]
MULTI_FRAGMENT_INPUTS = [
    "[NH4+].[Cl-]", "CC.O", "c1ccccc1.C(F)(F)F", "[Na+].[O-]C(=O)CC(C)(C)C",
    "O.O.CCO",
]
SYMMETRIC_INPUTS = [
    "CC(C)(C)C(C)(C)C", "OC(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
    "C(C1CC1)(C1CC1)(C1CC1)C1CC1", "CC(C)(C1CC1)C1CC1", "C12C3C4C1C5C2C3C45",
]


# --- reference search --------------------------------------------------------


def _ref_write(m, canonical):
    ranks = _canonical_ranks(m) if canonical else list(range(len(m.atoms)))
    parts = []
    for frag in m.fragments():
        if canonical:
            parts.append(_ref_best_fragment_string(m, frag, ranks))
        else:
            parts.append(_ref_emit(m, frag[0], ranks, None, [])[0])
    if canonical:
        parts.sort()
    return ".".join(parts)


def _ref_best_fragment_string(m, frag, ranks):
    weights = _ref_branch_weights(m, frag)
    first = {i: _atom_token(m, i, [])[0] for i in frag}
    low = min(first.values())
    best = best_key = None
    for start in [i for i in frag if first[i] == low]:
        decisions, emitted = [], 0
        while True:
            s, radixes = _ref_emit(m, start, ranks, weights, decisions)
            key = s.translate(_CMP_TABLE)
            if best is None or key < best_key:
                best, best_key = s, key
            emitted += 1
            if emitted > _MAX_VARIANTS:
                break
            decisions = _ref_next_decisions(decisions, radixes)
            if decisions is None:
                break
    return best


def _ref_branch_weights(m, frag):
    weights = {}
    for i in frag:
        for b in m.bonds_of(i):
            j = b.other(i)
            seen = {i, j}
            queue = [j]
            while queue:
                x = queue.pop()
                for nb in m.bonds_of(x):
                    y = nb.other(x)
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            weights[i, j] = len(seen) - 1
    return weights


def _ref_next_decisions(decisions, radixes):
    decisions = decisions + [0] * (len(radixes) - len(decisions))
    for pos in range(len(radixes) - 1, -1, -1):
        decisions[pos] += 1
        if decisions[pos] < radixes[pos]:
            return decisions[:pos + 1] + [0] * (len(radixes) - pos - 1)
        decisions[pos] = 0
    return None


def _ref_emit(m, start, ranks, weights, decisions):
    visited = {start}
    used_bonds = set()
    ring_tokens = {}
    ref_pre, ref_rings, ref_kids = {}, {}, {}
    next_ring = [1]
    radixes = []

    def pick_order(items, keys):
        groups = {}
        for item, key in zip(items, keys):
            groups.setdefault(key, []).append(item)
        ordered = []
        for key in sorted(groups):
            group = groups[key]
            if len(group) > 1:
                perms = list(permutations(range(len(group))))
                slot = len(radixes)
                radixes.append(len(perms))
                choice = decisions[slot] if slot < len(decisions) else 0
                group = [group[p] for p in perms[choice]]
            ordered.extend(group)
        return ordered

    def ring_digit():
        d = next_ring[0]
        next_ring[0] += 1
        return str(d) if d < 10 else f"%{d:02d}"

    def bond_token(bond, from_atom):
        if bond.stereo:
            up = bond.stereo == STEREO_UP
            if bond.a != from_atom:
                up = not up
            return "/" if up else "\\"
        if bond.order == SINGLE and (m.atoms[bond.a].aromatic
                                     and m.atoms[bond.b].aromatic):
            return "-"
        return _BOND_TOKEN[bond.order]

    def close_ring(i, j, b, k):
        used_bonds.add(k)
        digit = ring_digit()
        ring_tokens[j].append(bond_token(b, j) + digit)
        ring_tokens[i].append(digit)
        ref_rings[j].append(i)
        ref_rings[i].append(j)

    def enter(i, parent):
        ring_tokens.setdefault(i, [])
        ref_pre[i], ref_rings[i], ref_kids[i] = [], [], []
        if parent is not None:
            ref_pre[i].append(parent)
        if m.atoms[i].chirality and m.hydrogen_count(i):
            ref_pre[i].append(-1)
        closures, children = [], []
        for k, b in m.incident(i):
            if k in used_bonds:
                continue
            j = b.other(i)
            (closures if j in visited else children).append((b, k, j))
        closures = pick_order(closures, [ranks[c[2]] for c in closures])
        for b, k, j in closures:
            close_ring(i, j, b, k)
        if weights is None:
            child_keys = [ranks[c[2]] for c in children]
        else:
            child_keys = [weights[i, c[2]] for c in children]
        return [i, pick_order(children, child_keys), 0, []]

    stack = [enter(start, None)]
    while True:
        frame = stack[-1]
        i, children, pos, sub_outs = frame
        if pos < len(children):
            frame[2] = pos + 1
            b, k, j = children[pos]
            if k in used_bonds:
                continue
            if j in visited:
                close_ring(i, j, b, k)
                continue
            used_bonds.add(k)
            visited.add(j)
            ref_kids[i].append(j)
            sub_outs.append([("text", bond_token(b, i))])
            stack.append(enter(j, i))
            continue
        stack.pop()
        sub = [("atom", i)]
        for s in sub_outs[:-1]:
            sub += [("text", "(")] + s + [("text", ")")]
        if sub_outs:
            sub += sub_outs[-1]
        if not stack:
            out = sub
            break
        stack[-1][3][-1] += sub

    pieces = []
    for kind, val in out:
        if kind == "text":
            pieces.append(val)
        else:
            ref = ref_pre[val] + ref_rings[val] + ref_kids[val]
            pieces.append(_atom_token(m, val, ref))
            pieces.extend(ring_tokens[val])
    return "".join(pieces), radixes


# --- writer against the reference -------------------------------------------


def _assert_matches_reference(m, label):
    assert canonical_smiles(m) == _ref_write(m, True), label
    assert write_smiles(m, canonical=False) == _ref_write(m, False), label


def _shuffled(m, rng):
    perm = list(range(len(m.atoms)))
    rng.shuffle(perm)
    return m.renumbered(perm)


def test_corpus_matches_reference():
    for smiles in CORPUS:
        _assert_matches_reference(parse_smiles(smiles), smiles)


@pytest.mark.parametrize(
    "smiles", [row[0] for row in EDGE_CASES] + STEREO_INPUTS
    + MULTI_FRAGMENT_INPUTS + SYMMETRIC_INPUTS)
def test_fixed_inputs_match_reference_in_any_atom_order(smiles):
    m = parse_smiles(smiles)
    rng = random.Random(smiles)
    _assert_matches_reference(m, smiles)
    for _ in range(3):
        _assert_matches_reference(_shuffled(m, rng), smiles)


def test_random_selfies_decodes_match_reference():
    alphabet = token_alphabet()
    rng = random.Random(20261018)
    checked = 0
    while checked < 2000:
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 40)))
        try:
            m = decode_selfies(text)
        except DecodeFailure:
            continue
        _assert_matches_reference(_shuffled(m, rng), text)
        checked += 1


# --- adversarial inputs: pinned strings and time bounds ----------------------

# (input, canonical string, seconds allowed). The strings were recorded
# from the reference search; the bounds sit well below its times on these
# inputs (11 s, 0.6 s, 0.6 s, 0.9 s and 8 s on a 2-core x86-64 container).
ADVERSARIAL = [
    ("C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
     "C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F", 1.0),
    ("CC(C)(C)c1cc(cc(c1)C(C)(C)C)C(C)(C)C",
     "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1", 0.3),
    ("c1(C(C)(C)C)cc(C(C)(C)C)cc(C(C)(C)C)c1",
     "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1", 0.3),
    ("CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)O)C)C",
     "C12=CCC3C(C1(C)CCC(O)C2)CCC4(C)C3CCC4C(C)CCCC(C)C", 0.5),
    ("C1=CC2=CC=C3C=CC4=CC=C5C=CC6=CC=C1C7=C2C3=C4C5=C67",
     "C12=C3C4=C5C6=C1C7=CC=C2C=CC3=CC=C4C=CC5=CC=C6C=C7", 5.0),
]


# Emissions per input, recorded before hanging groups were labelled by
# refinement rank. A count that moves means the pruning changed.
EMISSIONS = {
    "CC(C)(C)C(C)(C)C": 4,
    "OC(C(F)(F)F)(C(F)(F)F)C(F)(F)F": 4,
    "C(C1CC1)(C1CC1)(C1CC1)C1CC1": 1536,
    "CC(C)(C1CC1)C1CC1": 40,
    "C12C3C4C1C5C2C3C45": 1344,
    "C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F": 5,
    "CC(C)(C)c1cc(cc(c1)C(C)(C)C)C(C)(C)C": 12,
    "c1(C(C)(C)C)cc(C(C)(C)C)cc(C(C)(C)C)c1": 12,
    "CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)O)C)C": 1169,
    "C1=CC2=CC=C3C=CC4=CC=C5C=CC6=CC=C1C7=C2C3=C4C5=C67": 22488,
}


def test_emission_counts_are_pinned(monkeypatch):
    from chemlinker.molstring import write

    assert set(EMISSIONS) == set(SYMMETRIC_INPUTS) | {a[0] for a in ADVERSARIAL}
    calls = []
    emit = write._emit

    def counting(*args):
        calls.append(None)
        return emit(*args)

    monkeypatch.setattr(write, "_emit", counting)
    counts = {}
    for smiles in EMISSIONS:
        calls.clear()
        canonical_smiles(parse_smiles(smiles))
        counts[smiles] = len(calls)
    assert counts == EMISSIONS


@pytest.mark.parametrize("smiles,canon,seconds", ADVERSARIAL,
                         ids=["tetrakis-cf3", "tri-tert-butylbenzene",
                              "tri-tert-butylbenzene-reordered",
                              "cholesterol", "kekule-coronene"])
def test_adversarial_canonical_golden_and_time(smiles, canon, seconds):
    m = parse_smiles(smiles)
    started = time.perf_counter()
    got = canonical_smiles(m)
    elapsed = time.perf_counter() - started
    assert got == canon
    assert elapsed < seconds, f"took {elapsed:.2f}s"
