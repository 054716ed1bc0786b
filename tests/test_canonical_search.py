"""Canonical form v2 against the v1 search as an equivalence oracle, plus
leaf counts and time bounds.

The reference below is canonical form v1 as it was before the writer kept
per-fragment tables: v1 ranks, one breadth-first search per bond for the
branch weights, every start atom whose token begins with the smallest
character, and every tie group enumerated as all of its permutations on
every emission, keeping the smallest string with "(" sorted last. It no
longer supplies the expected strings. Both forms are complete invariants,
so two inputs get the same v2 string exactly when they get the same
reference string; the reference runs on `m.aromatic_form()`, the molecule
v2 writes, so both see one spelling. The non-canonical writer still
matches the reference byte for byte.
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
from chemlinker.molstring.model import (
    AROMATIC,
    DOUBLE,
    ELEMENT_NUMBERS,
    SINGLE,
    STEREO_UP,
    TRIPLE,
)
from chemlinker.molstring.write import _BOND_TOKEN, _atom_token

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
    # Terminal twins but for a stereo mark on one bond to their parent.
    "C/C(C)=C/F", "CC(/C)=C(/F)C(C)/C=C/F",
]
MULTI_FRAGMENT_INPUTS = [
    "[NH4+].[Cl-]", "CC.O", "c1ccccc1.C(F)(F)F", "[Na+].[O-]C(=O)CC(C)(C)C",
    "O.O.CCO",
]
SYMMETRIC_INPUTS = [
    "CC(C)(C)C(C)(C)C", "OC(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
    "C(C1CC1)(C1CC1)(C1CC1)C1CC1", "CC(C)(C1CC1)C1CC1", "C12C3C4C1C5C2C3C45",
    # adamantane
    "C1C2CC3CC1CC(C2)C3",
]
FIXED_INPUTS = ([row[0] for row in EDGE_CASES] + STEREO_INPUTS
                + MULTI_FRAGMENT_INPUTS + SYMMETRIC_INPUTS)


# --- reference: canonical form v1 ------------------------------------------

# Each start stopped after this many emissions.
_MAX_VARIANTS = 20000
# '(' sorts above every other character, so traversals that defer
# branching win ("CC(N)..." rather than "C(C)(N)...").
_CMP_TABLE = str.maketrans({"(": "\x7f"})


def _canonical_ranks(m):
    """v1 ranks: invariants refined by full re-sorts until stable."""
    ring_flags = m.ring_atom_flags()
    inv = []
    for i, a in enumerate(m.atoms):
        order2 = sum({SINGLE: 2, DOUBLE: 4, TRIPLE: 6, AROMATIC: 3}[b.order]
                     for _, b in m.incident(i))
        inv.append((ELEMENT_NUMBERS[a.element], m.degree(i), order2,
                    a.formal_charge, m.hydrogen_count(i), ring_flags[i],
                    a.aromatic, a.isotope or 0))
    ranks = _ranks_of(inv)
    n_classes = len(set(ranks))
    for _ in range(2 * len(m.atoms) + 1):
        refined = [
            (ranks[i],
             tuple(sorted((b.order, ranks[b.other(i)])
                          for _, b in m.incident(i))))
            for i in range(len(m.atoms))
        ]
        new_ranks = _ranks_of(refined)
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            return new_ranks
        ranks, n_classes = new_ranks, new_classes
    return ranks


def _ranks_of(invariants):
    order = {v: r for r, v in enumerate(sorted(set(invariants)))}
    return [order[v] for v in invariants]


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
        for _, b in m.incident(i):
            j = b.other(i)
            seen = {i, j}
            queue = [j]
            while queue:
                x = queue.pop()
                for _, nb in m.incident(x):
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


# --- v2 against the reference ------------------------------------------------


def _shuffled(m, rng):
    perm = list(range(len(m.atoms)))
    rng.shuffle(perm)
    return m.renumbered(perm)


def _assert_same_classes(mols, labels):
    """v2 and the reference split `mols` into the same classes; each v2
    string is its own canonical form, and the non-canonical writer matches
    the reference."""
    to_ref, to_v2 = {}, {}
    for m, label in zip(mols, labels):
        v2 = canonical_smiles(m)
        ref = _ref_write(m.aromatic_form(), True)
        assert to_ref.setdefault(v2, ref) == ref, label
        assert to_v2.setdefault(ref, v2) == v2, label
        assert canonical_smiles(v2) == v2, label
        assert write_smiles(m) == _ref_write(m, False), label


def test_corpus_matches_reference():
    rng = random.Random(500)
    mols = [parse_smiles(s) for s in CORPUS]
    _assert_same_classes(mols + [_shuffled(m, rng) for m in mols],
                         CORPUS + CORPUS)


@pytest.mark.parametrize("smiles", FIXED_INPUTS)
def test_fixed_inputs_match_reference_in_any_atom_order(smiles):
    m = parse_smiles(smiles)
    rng = random.Random(smiles)
    mols = [m] + [_shuffled(m, rng) for _ in range(4)]
    assert len({canonical_smiles(x) for x in mols}) == 1
    _assert_same_classes(mols, [smiles] * len(mols))


def test_fixed_inputs_are_classed_as_by_reference():
    rng = random.Random(11)
    mols, labels = [], []
    for smiles in FIXED_INPUTS:
        m = parse_smiles(smiles)
        mols += [m, _shuffled(m, rng)]
        labels += [smiles, smiles]
    _assert_same_classes(mols, labels)


def test_random_selfies_decodes_match_reference():
    alphabet = token_alphabet()
    rng = random.Random(20261018)
    mols, labels = [], []
    while len(mols) < 4000:
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 40)))
        try:
            m = decode_selfies(text)
        except DecodeFailure:
            continue
        mols += [m, _shuffled(m, rng)]
        labels += [text, text]
    _assert_same_classes(mols, labels)


def _unpruned_search(root, adj, emit, twin):
    """The smallest string over every leaf of the search tree, twins
    included."""
    from chemlinker.molstring import write

    best, stack = None, [root]
    while stack:
        part = stack.pop()
        t = write._target(part)
        if t is None:
            s = emit(part)[0]
            best = s if best is None or s < best else best
            continue
        stack.extend(write._individualized(part, c, adj)
                     for c in part[0][t:part[3][t]])
    return best


def test_pruning_keeps_the_smallest_leaf(monkeypatch):
    from chemlinker.molstring import write

    # Every fixed input, and the adversarial ones whose whole tree is small.
    inputs = FIXED_INPUTS + [ADVERSARIAL[i][0] for i in (1, 2, 3, 4)]
    pruned = [canonical_smiles(parse_smiles(s)) for s in inputs]
    monkeypatch.setattr(write, "_search", _unpruned_search)
    assert [canonical_smiles(parse_smiles(s)) for s in inputs] == pruned


# --- adversarial inputs: pinned strings and time bounds ----------------------

# (input, canonical string, seconds allowed for each of five atom orders).
# v1 took 11 s, 0.6 s, 0.6 s, 0.9 s, 8 s, 14.7 s, 34.8 s, 3.8 s and 1.9 s
# on these inputs (2-core x86-64 container); v2 takes a few milliseconds
# on the first six and about 0.25 s, 0.05 s and 0.16 s on the last three.
ADVERSARIAL = [
    ("C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
     "C(F)(F)(F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F", 0.1),
    ("CC(C)(C)c1cc(cc(c1)C(C)(C)C)C(C)(C)C",
     "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1", 0.1),
    ("c1(C(C)(C)C)cc(C(C)(C)C)cc(C(C)(C)C)c1",
     "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1", 0.1),
    ("CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)O)C)C",
     "CC12CCC(O)CC1=CCC3C2CCC4(C)C3CCC4C(C)CCCC(C)C", 0.1),
    ("C1=CC2=CC=C3C=CC4=CC=C5C=CC6=CC=C1C7=C2C3=C4C5=C67",
     "c1cc7ccc5ccc4ccc3ccc2ccc1c6c2c3c4c5c67", 0.1),
    ("S(C1CC1)(C1CC1)(C1CC1)(C1CC1)(C1CC1)C1CC1",
     "C1CC1S(C2CC2)(C3CC3)(C4CC4)(C5CC5)C6CC6", 0.1),
    ("c1" + "c" * 2001 + "1", "c1" + "c" * 2001 + "1", 1.0),
    ("C" * 1200, "C" * 1200, 1.0),
    # 300 independent pairs of twin methyls: one search path, not 300^2/2
    # nodes (9.5 s before twins were merged ahead of the search).
    ("C" + "C(C)(C)" * 300 + "C", "C" + "C(C)(C)" * 300 + "C", 1.0),
]
ADVERSARIAL_IDS = ["tetrakis-cf3", "tri-tert-butylbenzene",
                   "tri-tert-butylbenzene-reordered", "cholesterol",
                   "kekule-coronene", "hexacyclopropyl-sulfur", "ring-2002",
                   "chain-1200", "gem-dimethyl-300"]


@pytest.mark.parametrize("smiles,canon,seconds", ADVERSARIAL,
                         ids=ADVERSARIAL_IDS)
def test_adversarial_canonical_golden_and_time(smiles, canon, seconds):
    m = parse_smiles(smiles)
    rng = random.Random(smiles)
    for x in [m] + [_shuffled(m, rng) for _ in range(4)]:
        started = time.perf_counter()
        got = canonical_smiles(x)
        elapsed = time.perf_counter() - started
        assert got == canon
        assert elapsed < seconds, f"took {elapsed:.3f}s"


# Leaves (emissions) per input in the atom order written here. A count that
# moves means the refinement or the pruning changed.
EMISSIONS = {
    "CC(C)(C)C(C)(C)C": 2,
    "OC(C(F)(F)F)(C(F)(F)F)C(F)(F)F": 3,
    "C(C1CC1)(C1CC1)(C1CC1)C1CC1": 7,
    "CC(C)(C1CC1)C1CC1": 4,
    "C12C3C4C1C5C2C3C45": 4,
    "C1C2CC3CC1CC(C2)C3": 4,
    "C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)C(F)(F)F": 4,
    "CC(C)(C)c1cc(cc(c1)C(C)(C)C)C(C)(C)C": 3,
    "c1(C(C)(C)C)cc(C(C)(C)C)cc(C(C)(C)C)c1": 3,
    "CC(C)CCCC(C)C1CCC2C1(CCC3C2CC=C4C3(CCC(C4)O)C)C": 1,
    "C1=CC2=CC=C3C=CC4=CC=C5C=CC6=CC=C1C7=C2C3=C4C5=C67": 3,
    "S(C1CC1)(C1CC1)(C1CC1)(C1CC1)(C1CC1)C1CC1": 10,
    "c1" + "c" * 2001 + "1": 3,
    "C" * 1200: 2,
    "C" + "C(C)(C)" * 300 + "C": 2,
}
# Corpus molecules whose refined ranks are not total, so a search runs.
SEARCHED = 42


def test_emission_counts_are_pinned(monkeypatch):
    from chemlinker.molstring import write

    assert set(EMISSIONS) == set(SYMMETRIC_INPUTS) | {a[0] for a in ADVERSARIAL}
    calls = {"emit": 0, "search": 0}
    emit, search = write._emit, write._search

    def counting_emit(*args):
        calls["emit"] += 1
        return emit(*args)

    def counting_search(*args):
        calls["search"] += 1
        return search(*args)

    monkeypatch.setattr(write, "_emit", counting_emit)
    monkeypatch.setattr(write, "_search", counting_search)
    counts = {}
    for smiles in EMISSIONS:
        calls["emit"] = 0
        canonical_smiles(parse_smiles(smiles))
        counts[smiles] = calls["emit"]
    assert counts == EMISSIONS
    # Where refinement leaves the ranks total, no search runs and each
    # fragment takes exactly one emission.
    searched = 0
    for smiles in CORPUS:
        m = parse_smiles(smiles)
        calls.update(emit=0, search=0)
        canonical_smiles(m)
        if calls["search"]:
            searched += 1
        else:
            assert calls["emit"] == len(m.fragments()), smiles
    assert searched == SEARCHED
