"""SMILES emission and canonicalization.

Canonical form v2 (chemlinker 0.2.0) writes `m.aromatic_form()`, so Kekulé
and aromatic spellings share a string, one fragment at a time:

1. Refine. Atoms start in cells of equal invariants: element, degree,
   bond-order sum (highest first: `C(=O)O`), charge, hydrogens, ring
   membership, aromaticity, isotope. Each splitter cell splits the cells
   whose atoms differ in bond-order-weighted neighbours in it, until the
   partition is equitable. Only cells next to a splitter are looked at,
   and a split cell queues its parts but the largest (Hopcroft), so chains
   and rings refine in linear time. An atom's rank is its cell's start.
2. Search. While a cell holds several atoms, individualization-refinement
   (McKay & Piperno 2014) gives each in turn a cell of its own ahead of the
   rest and refines again, depth first, down to leaves with total ranks;
   the smallest leaf string wins. Two leaves with one string map atom to
   atom by position, an automorphism (stereo included) that merges the
   candidates of each node on the path it fixes into orbits, and only one
   candidate per orbit is explored.
3. Emit. Start at the lowest-ranked atom; lighter branches first (branch
   weight: atoms beyond the bond), ties by rank; ring closures by rank.
   Where refinement alone makes the ranks total, this is the only emission.
"""

from __future__ import annotations

from collections import deque

from chemlinker.molstring.model import (
    AROMATIC,
    CHI_CCW,
    CHI_CW,
    DOUBLE,
    ELEMENT_NUMBERS,
    ORGANIC_SUBSET,
    SINGLE,
    STEREO_UP,
    TRIPLE,
    Molecule,
    default_hydrogens,
)

_BOND_TOKEN = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ""}
_ORDER_SUM = {SINGLE: 2, DOUBLE: 4, TRIPLE: 6, AROMATIC: 3}
# Splitter counts weigh a neighbour by its bond order.
_ORDER_WEIGHT = {SINGLE: 1, DOUBLE: 1 << 12, TRIPLE: 1 << 24, AROMATIC: 1 << 36}


def write_smiles(m: Molecule, canonical: bool = False) -> str:
    """Serialize a Molecule to SMILES.

    With canonical=True the output string is identical for every atom
    ordering of isomorphic inputs; fragments are emitted sorted.
    """
    if not canonical:
        rank = range(len(m.atoms))
        return ".".join(_emit(m, *_tables(m, frag, None), frag[0], rank)[0]
                        for frag in m.fragments())
    return ".".join(sorted(_canonical_fragment(m, frag)
                           for frag in m.fragments()))


def canonical_smiles(text_or_mol) -> str:
    """Canonical SMILES of a molecule or of a SMILES string. The string is
    written once per Molecule and kept on it, so later calls on the same
    molecule (or on its `strip_stereo()` when it has no stereo) return it."""
    from chemlinker.molstring.smiles import parse_smiles

    m = text_or_mol
    m = parse_smiles(m) if isinstance(m, str) else m
    if m._canonical is None:
        object.__setattr__(m, "_canonical",
                           write_smiles(m.aromatic_form(), canonical=True))
    return m._canonical


# --- refinement and search -------------------------------------------------------
# A partition is (lab, where, cell, end): atoms cell by cell, each atom's place
# in lab, each atom's cell start (its rank), each cell's end by its start.


def _canonical_fragment(m: Molecule, frag: list[int]) -> str:
    ring = m.ring_atom_flags()
    inv = {i: (ELEMENT_NUMBERS[m.atoms[i].element], m.degree(i),
               -sum(_ORDER_SUM[b.order] for b in m.bonds_of(i)),
               m.atoms[i].formal_charge, m.hydrogen_count(i), ring[i],
               m.atoms[i].aromatic, m.atoms[i].isotope or 0) for i in frag}
    lab = sorted(frag, key=inv.__getitem__)
    starts = [p for p, i in enumerate(lab)
              if not p or inv[i] != inv[lab[p - 1]]]
    ends = starts[1:] + [len(lab)]
    part = (lab, {i: p for p, i in enumerate(lab)},
            {i: s for s, e in zip(starts, ends) for i in lab[s:e]},
            dict(zip(starts, ends)))
    adj = {i: [(b.other(i), _ORDER_WEIGHT[b.order]) for b in m.bonds_of(i)]
           for i in frag}
    _refine(part, adj, starts)
    tokens, rows = _tables(m, frag, _branch_weights(m, frag))
    # Terminal twins: non-chiral atoms of one token on one non-chiral parent
    # by one bond token (stereo marks included). Swapping two is a known
    # automorphism.
    twin = {i: (r[1], tokens[i], r[3]) for i in frag for r in rows[i][:1]
            if len(rows[i]) == 1 and tokens[i] and tokens[r[1]]}

    def emit(part) -> tuple[str, list[int]]:
        return _emit(m, tokens, rows, part[0][0], part[2])

    if _target(part) is None:
        return emit(part)[0]
    return _search(part, adj, emit, twin)


def _target(part) -> int | None:
    """Start of the first cell of several atoms; None when ranks are total."""
    return min((s for s, e in part[3].items() if e > s + 1), default=None)


def _individualized(part, v: int, adj):
    """Copy of `part` with v alone ahead of the rest of its cell, refined."""
    lab, where, cell, end = (part[0][:], dict(part[1]), dict(part[2]),
                             dict(part[3]))
    s = cell[v]
    u, q = lab[s], where[v]
    lab[s], lab[q], where[v], where[u] = v, u, s, q
    for x in lab[s + 1:end[s]]:
        cell[x] = s + 1
    end[s + 1], end[s] = end[s], s + 1
    _refine((lab, where, cell, end), adj, [s])
    return lab, where, cell, end


def _refine(part, adj, queue: list[int]) -> None:
    """Split cells by weighted neighbour counts in each queued cell."""
    lab, where, cell, end = part
    pending, queue = set(queue), deque(queue)
    while queue:
        w = queue.popleft()
        pending.discard(w)
        counts: dict[int, int] = {}
        for y in lab[w:end[w]]:
            for x, weight in adj[y]:
                counts[x] = counts.get(x, 0) + weight
        touched: dict[int, list[int]] = {}
        for x in counts:
            if end[cell[x]] > cell[x] + 1:
                touched.setdefault(cell[x], []).append(x)
        for s in sorted(touched):
            xs, e = touched[s], end[s]
            if len(xs) == e - s and len({counts[x] for x in xs}) == 1:
                continue
            # Touched atoms move to the tail by count; untouched ones keep s.
            xs.sort(key=counts.__getitem__)
            tail = e - len(xs)
            parts = [s] if tail > s else []
            for p, x in enumerate(xs, tail):
                y, q = lab[p], where[x]
                lab[p], lab[q], where[x], where[y] = x, y, p, q
                if p == tail or counts[x] != counts[xs[p - tail - 1]]:
                    parts.append(p)
                cell[x] = parts[-1]
            for a, b in zip(parts, parts[1:] + [e]):
                end[a] = b
            if s not in pending:
                parts.remove(max(parts, key=lambda a: end[a] - a))
            new = [a for a in parts if a not in pending]
            queue.extend(new)
            pending.update(new)


def _search(root, adj, emit, twin) -> str:
    """Smallest leaf string below `root`, pruned by twins and automorphisms."""
    def node(part, path):   # partition, path, candidates, explored, orbits
        t = _target(part)
        cands, first = part[0][t:part[3][t]], {}
        return part, path, cands, [], {c: first.setdefault(twin[c], c)
                                       for c in cands if c in twin}

    best = None     # (string, atoms in emission order, path)
    stack = [node(root, [])]
    while stack:
        part, path, cands, explored, orbit = stack[-1]
        reps = {_find(orbit, c) for c in explored}
        c = next((c for c in cands if _find(orbit, c) not in reps), None)
        if c is None:
            stack.pop()
            continue
        explored.append(c)
        child = _individualized(part, c, adj)
        if _target(child) is not None:
            stack.append(node(child, path + [c]))
            continue
        leaf = path + [c]
        s, order = emit(child)
        if best is None or s < best[0]:
            best = (s, order, leaf)
        elif s == best[0]:
            gamma = dict(zip(best[1], order))
            fixed = next((n for n, a in enumerate(leaf) if gamma[a] != a),
                         len(leaf))
            for n in stack[:fixed + 1]:
                for x in n[2]:
                    n[4][_find(n[4], x)] = _find(n[4], gamma[x])
            # Where the paths part, gamma maps the explored branch onto
            # this one, so nothing below this one can write another string.
            split = next(n for n, a in enumerate(leaf) if best[2][n] != a)
            if split <= fixed and gamma[best[2][split]] == leaf[split]:
                del stack[split + 1:]
    return best[0]


def _find(parent: dict[int, int], x: int) -> int:
    while parent.get(x, x) != x:
        parent[x] = x = parent.get(parent[x], parent[x])    # path halving
    return x


# --- emission --------------------------------------------------------------------


def _branch_weights(m: Molecule, frag: list[int]) -> dict[tuple[int, int], int]:
    """weights[i, j] = atoms reachable from neighbor j with atom i removed.

    Lighter neighbors first keeps short decorations in branches and lets the
    longest chain run to the end. Read off the depth-first forest: removing
    i leaves each DFS child subtree that cannot reach above i (low >= disc[i])
    as a component of its own, and everything else as one component.
    """
    disc, low, size, tree_bond, kids = m.dfs_forest()
    n = len(frag)
    weights: dict[tuple[int, int], int] = {}
    for i in frag:
        d, children = disc[i], kids[i]
        upper = n - 1 - sum(size[c] for c in children if low[c] >= d)
        for k, bond in m.incident(i):
            j = bond.other(i)
            if disc[j] < d:
                # DFS parent or an ancestor closing a ring: the upper side.
                weights[i, j] = upper
                continue
            side = j
            if tree_bond[j] != k:
                # A descendant closing a ring: the child subtree holding it.
                side = [c for c in children if disc[c] <= disc[j]][-1]
            weights[i, j] = size[side] if low[side] >= d else upper
    return weights


def _bond_token(m: Molecule, bond, from_atom: int) -> str:
    if bond.stereo:
        up = (bond.stereo == STEREO_UP) == (bond.a == from_atom)
        return "/" if up else "\\"
    if bond.order == SINGLE and (m.atoms[bond.a].aromatic
                                 and m.atoms[bond.b].aromatic):
        return "-"
    return _BOND_TOKEN[bond.order]


def _tables(m: Molecule, frag: list[int], weights):
    """Atom tokens (None if chiral: the mark follows the emitted order) and
    rows (bond, neighbour j, token i->j, token j->i, branch weight or 0)."""
    tokens, rows = {}, {}
    for i in frag:
        tokens[i] = None if m.atoms[i].chirality else _atom_token(m, i, [])
        rows[i] = [(k, b.other(i), _bond_token(m, b, i),
                    _bond_token(m, b, b.other(i)),
                    weights[i, b.other(i)] if weights else 0)
                   for k, b in m.incident(i)]
    return tokens, rows


def _emit(m: Molecule, tokens, rows, start: int,
          rank) -> tuple[str, list[int]]:
    """One depth-first emission from `start`: the string, and the atoms in
    the order written. Children go lightest branch first, ties by rank;
    ring closures by rank."""
    head: dict[int, list[str]] = {}     # bond in, atom token, ring tokens
    kids: dict[int, list[int]] = {}     # tree children, in order
    # Neighbours of each chiral atom as a reader meets them before its
    # branches: parent and in-bracket H, then ring partners.
    seen: dict[int, list[int]] = {}
    used: set[int] = set()
    next_ring = 1
    stack = [(start, None, -1, "")]
    while stack:
        i, parent, k, out = stack.pop()
        if i in head:
            continue    # reached first by another path, which closed k
        used.add(k)
        head[i], kids[i] = [out, tokens[i] or ""], []
        if parent is not None:
            kids[parent].append(i)
        if tokens[i] is None:
            seen[i] = ([] if parent is None else [parent]) + [-1] * (
                m.hydrogen_count(i) > 0)
        for k, j, _, back, _ in sorted(
                (r for r in rows[i] if r[1] in head and r[0] not in used),
                key=lambda r: rank[r[1]]):
            used.add(k)
            digit = str(next_ring) if next_ring < 10 else f"%{next_ring:02d}"
            next_ring += 1
            # The opener carries the bond symbol; stereo reads j -> i.
            head[j].append(back + digit)
            head[i].append(digit)
            for a, b in ((i, j), (j, i)):
                if a in seen:
                    seen[a].append(b)
        stack.extend((j, i, k, out) for k, j, out, _, _ in sorted(
            (r for r in rows[i] if r[1] not in head),
            key=lambda r: (r[4], rank[r[1]]), reverse=True))

    parts, todo = [], [start]
    while todo:
        i = todo.pop()
        if isinstance(i, str):
            parts.append(i)
            continue
        if i in seen:
            head[i][1] = _atom_token(m, i, seen[i] + kids[i])
        parts += head[i]
        if kids[i]:
            # Every child but the last goes in a branch.
            todo.append(kids[i][-1])
            for c in reversed(kids[i][:-1]):
                todo += [")", c, "("]
    return "".join(parts), list(head)


# --- atom tokens -----------------------------------------------------------------


def _atom_token(m: Molecule, i: int, emitted_ref: list[int]) -> str:
    atom, h = m.atoms[i], m.hydrogen_count(i)
    symbol = atom.element.lower() if atom.aromatic else atom.element
    charge = atom.formal_charge
    if (atom.element in ORGANIC_SUBSET and not charge and atom.isotope is None
            and not atom.chirality
            and default_hydrogens(atom.element, 0, atom.aromatic,
                                  m.base_order_sum(i)) == h):
        return symbol
    return "".join((
        "[", "" if atom.isotope is None else str(atom.isotope), symbol,
        _emitted_chirality(atom, emitted_ref) if atom.chirality else "",
        "H" * (h > 0) + (str(h) if h > 1 else ""),
        ("+" if charge > 0 else "-") * (charge != 0)
        + (str(abs(charge)) if abs(charge) > 1 else ""), "]"))


def _emitted_chirality(atom, emitted_ref: list[int]) -> str:
    """Chirality mark adjusted to the emission neighbor order."""
    stored = list(atom.chiral_ref)
    if sorted(stored) != sorted(emitted_ref) or len(stored) < 3:
        # Reference order unavailable (synthetic molecule); keep the mark.
        return atom.chirality
    perm = [stored.index(x) for x in emitted_ref]
    if sum(a > b for n, a in enumerate(perm) for b in perm[n + 1:]) % 2 == 0:
        return atom.chirality
    return CHI_CW if atom.chirality == CHI_CCW else CHI_CCW
