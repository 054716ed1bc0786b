"""SMILES emission and canonicalization.

Canonical form: Morgan-style iterative invariant refinement assigns ranks;
remaining ties are broken by emitting every tied traversal and keeping the
lexicographically smallest string, so the output is independent of input
atom order.

The search over tied traversals is an odometer. One emission is a
depth-first walk that orders each atom's ring closures by rank and its
children by branch weight; every run of equal keys it meets is a tie point,
and the decision list picks one ordering at each tie point in the order the
walk meets them (pre-order). The emission reports the number of orderings
(the radix) of every tie point it reached, and the next decision list is
the previous one counted up by one in the last position, with carries, so
every reachable combination is emitted once per start atom.

Each call builds one `_Fragment` table per fragment and drops it
on return: atom and bond tokens, each atom's incident rows pre-sorted by
their keys, branch weights read off the molecule's depth-first forest,
and the orderings of each tie pattern. An emission only filters and
orders rows and writes tokens; chiral atoms alone get their token from
the emitted neighbour order.

Interchangeable hanging groups are tried once. Tied children that hang
off a non-chiral parent by bridges, as trees free of chiral atoms and
stereo bonds, with equal refinement rank and one bond token from the
parent, emit the same set of strings whichever comes first: the ranks are
a stable refinement, so such sides are equal trees of atom and bond tokens
(by induction down the trees), nothing outside a side reads its atoms,
and it takes no ring digit. So a tie group enumerates each distinct
ordering of (rank, bond token) labels once, and of several terminal start
atoms with one label on one non-chiral parent only the first is a start.
The output is the same string the full enumeration picks; sides with a
ring have no label and are still enumerated in every order.

Each start stops after `_MAX_VARIANTS` emissions; past that cap the string
is the smallest of those emitted and may depend on atom order.
"""

from __future__ import annotations

from itertools import permutations

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
_MAX_VARIANTS = 20000
# String comparison for picking the canonical variant: '(' sorts above every
# other character so traversals that defer branching win, giving the familiar
# "CC(N)..." shape instead of "C(C)(N)...".
_CMP_TABLE = str.maketrans({"(": "\x7f"})


def write_smiles(m: Molecule, canonical: bool = False) -> str:
    """Serialize a Molecule to SMILES.

    With canonical=True the output string is identical for every atom
    ordering of isomorphic inputs; fragments are emitted sorted.
    """
    ranks = _canonical_ranks(m) if canonical else list(range(len(m.atoms)))
    parts = []
    for frag in m.fragments():
        if canonical:
            parts.append(_best_fragment_string(m, frag, ranks))
        else:
            parts.append(_emit(_Fragment(m, frag, ranks, None), frag[0],
                               [])[0])
    if canonical:
        parts.sort()
    return ".".join(parts)


def canonical_smiles(text_or_mol) -> str:
    """Canonical SMILES of a molecule or of a SMILES string."""
    from chemlinker.molstring.smiles import parse_smiles

    m = text_or_mol
    if isinstance(m, str):
        m = parse_smiles(m)
    return write_smiles(m, canonical=True)


# --- invariant refinement -----------------------------------------------------


def _canonical_ranks(m: Molecule) -> list[int]:
    ring_flags = m.ring_atom_flags()
    inv = []
    for i, a in enumerate(m.atoms):
        order2 = sum({SINGLE: 2, DOUBLE: 4, TRIPLE: 6, AROMATIC: 3}[b.order]
                     for b in m.bonds_of(i))
        inv.append((ELEMENT_NUMBERS[a.element], m.degree(i), order2,
                    a.formal_charge, m.hydrogen_count(i), ring_flags[i],
                    a.aromatic, a.isotope or 0))
    ranks = _ranks_of(inv)
    n_classes = len(set(ranks))
    for _ in range(2 * len(m.atoms) + 1):
        refined = [
            (ranks[i],
             tuple(sorted((b.order, ranks[b.other(i)]) for b in m.bonds_of(i))))
            for i in range(len(m.atoms))
        ]
        new_ranks = _ranks_of(refined)
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            return new_ranks
        ranks, n_classes = new_ranks, new_classes
    return ranks


def _ranks_of(invariants) -> list[int]:
    order = {v: r for r, v in enumerate(sorted(set(invariants)))}
    return [order[v] for v in invariants]


# --- emission --------------------------------------------------------------------


def _best_fragment_string(m: Molecule, frag: list[int],
                          ranks: list[int]) -> str:
    tab = _Fragment(m, frag, ranks, _branch_weights(m, frag))
    # Only starts whose atom token begins with the smallest character can
    # produce the winning string; the comparison is settled at position 0.
    first = {i: "[" if tab.tokens[i] is None else tab.tokens[i][0]
             for i in frag}
    low = min(first.values())
    best = None
    best_key = None
    hanging_starts = set()
    for start in frag:
        if first[start] != low:
            continue
        if m.degree(start) == 1:
            # Terminal atoms with one label on one non-chiral parent start
            # the same set of strings: keep the first.
            k, parent, _, token = tab.rows[start][0][:4]
            label = tab.label(k, parent, start, token)
            if label is not None:
                if (parent, label) in hanging_starts:
                    continue
                hanging_starts.add((parent, label))
        decisions: list[int] = []
        emitted = 0
        while True:
            s, radixes = _emit(tab, start, decisions)
            key = s.translate(_CMP_TABLE)
            if best is None or key < best_key:
                best, best_key = s, key
            emitted += 1
            if emitted > _MAX_VARIANTS:
                break
            decisions = _next_decisions(decisions, radixes)
            if decisions is None:
                break
    return best


def _branch_weights(m: Molecule, frag: list[int]) -> dict[tuple[int, int], int]:
    """weights[i, j] = atoms reachable from neighbor j with atom i removed.

    Emitting lighter neighbors first keeps short decorations in branches and
    lets the longest chain run to the end of the string.

    Read off the molecule's depth-first forest: removing atom i leaves each
    DFS child subtree that cannot reach above i (low >= disc[i]) as a
    component of its own, and everything else (the part above i and the
    other child subtrees) as one component.
    """
    disc, low, size, tree_bond, kids = m.dfs_forest()
    n = len(frag)
    weights: dict[tuple[int, int], int] = {}
    for i in frag:
        d = disc[i]
        children = kids[i]
        upper = n - 1 - sum(size[c] for c in children if low[c] >= d)
        for k, bond in m.incident(i):
            j = bond.other(i)
            if disc[j] < d:
                # DFS parent or an ancestor closing a ring: the upper side.
                weights[i, j] = upper
                continue
            side = j
            if tree_bond[j] != k:
                # A descendant closing a ring: the child subtree holding it
                # (children are in discovery order).
                side = [c for c in children if disc[c] <= disc[j]][-1]
            weights[i, j] = size[side] if low[side] >= d else upper
    return weights


def _bond_token(m: Molecule, bond, from_atom: int) -> str:
    if bond.stereo:
        up = bond.stereo == STEREO_UP
        if bond.a != from_atom:
            up = not up
        return "/" if up else "\\"
    if bond.order == SINGLE and (m.atoms[bond.a].aromatic
                                 and m.atoms[bond.b].aromatic):
        return "-"
    return _BOND_TOKEN[bond.order]


class _Fragment:
    """What every emission of one fragment reads, built once per call.

    tokens[i]: atom token of i, None for a chiral atom (its mark depends on
    the emitted neighbour order). rows[i]: (bond index, neighbour, token
    i->j, token j->i, key, `label`) per incident bond, sorted by key (branch
    weight, or rank without weights), ties in incident order. ring_rows[i]:
    the ring-bond rows keyed and sorted by neighbour rank, the only rows
    that can close a ring. tied[i] / ring_tied[i]: the rows hold equal keys.
    """

    __slots__ = ("m", "tokens", "rows", "ring_rows", "tied", "ring_tied",
                 "_ring", "_ranks", "_root", "_tree_bond",
                 "_blockers", "_orderings")

    def __init__(self, m: Molecule, frag: list[int], ranks: list[int],
                 weights: dict[tuple[int, int], int] | None):
        self.m = m
        self._ring = m.ring_bonds()
        self._ranks = ranks
        self.tokens = {i: None if m.atoms[i].chirality
                       else _atom_token(m, i, []) for i in frag}
        # _blockers[i]: chiral atoms, and ring or stereo tree bonds, in the
        # DFS subtree of i, its own tree bond included; children first.
        disc, _, _, tree_bond, kids = m.dfs_forest()
        self._root = frag[0]
        self._tree_bond = tree_bond
        self._blockers = {}
        for i in sorted(frag, key=disc.__getitem__, reverse=True):
            k = tree_bond[i]
            self._blockers[i] = (
                bool(m.atoms[i].chirality)
                + (k >= 0 and (k in self._ring or bool(m.bonds[k].stereo)))
                + sum(self._blockers[c] for c in kids[i]))
        self.rows = {}
        self.ring_rows = {}
        self.tied = {}
        self.ring_tied = {}
        for i in frag:
            rows = []
            ring_rows = []
            for k, b in m.incident(i):
                j = b.other(i)
                out, back = _bond_token(m, b, i), _bond_token(m, b, j)
                key = ranks[j] if weights is None else weights[i, j]
                rows.append((k, j, out, back, key, self.label(k, i, j, out)))
                if k in self._ring:
                    ring_rows.append((k, j, out, back, ranks[j], None))
            rows.sort(key=lambda r: r[4])
            ring_rows.sort(key=lambda r: r[4])
            self.rows[i] = rows
            self.tied[i] = len({r[4] for r in rows}) < len(rows)
            if ring_rows:
                self.ring_rows[i] = ring_rows
                self.ring_tied[i] = (len({r[4] for r in ring_rows})
                                     < len(ring_rows))
        self._orderings: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def label(self, k: int, parent: int, child: int,
              token: str) -> tuple[int, str] | None:
        """(rank, bond token) of the side of bond k that holds child.

        None unless parent is not chiral, bond k is a bridge, and that side
        (the DFS subtree of child, or all outside the subtree of parent) has
        no blockers. Equal labels on one parent mean equal trees of atom and
        bond tokens, so the two sides emit the same strings.
        """
        if k in self._ring or self.tokens[parent] is None:
            return None
        if self._tree_bond[child] == k:
            blockers = self._blockers[child] - bool(self.m.bonds[k].stereo)
        else:
            blockers = self._blockers[self._root] - self._blockers[parent]
        return None if blockers else (self._ranks[child], token)

    def orderings(self, labels: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Distinct orderings of a tie group whose members carry `labels`.

        Each ordering lists group positions; members with equal labels keep
        their relative order. With labels 0, 1, ..., g-1 this is every
        permutation, in `itertools.permutations` order.
        """
        found = self._orderings.get(labels)
        if found is None:
            members: dict[int, list[int]] = {}
            for pos, label in enumerate(labels):
                members.setdefault(label, []).append(pos)
            found = []
            for seq in sorted(set(permutations(labels))):
                nxt = {label: iter(pos) for label, pos in members.items()}
                found.append(tuple(next(nxt[label]) for label in seq))
            self._orderings[labels] = found
        return found


def _next_decisions(decisions: list[int], radixes: list[int]):
    decisions = decisions + [0] * (len(radixes) - len(decisions))
    for pos in range(len(radixes) - 1, -1, -1):
        decisions[pos] += 1
        if decisions[pos] < radixes[pos]:
            return decisions[:pos + 1] + [0] * (len(radixes) - pos - 1)
        decisions[pos] = 0
    return None


def _emit(tab: _Fragment, start: int,
          decisions: list[int]) -> tuple[str, list[int]]:
    """One deterministic DFS emission.

    `decisions` selects orderings at tie points in discovery order; the
    radix (number of orderings) of every tie point reached is returned so
    callers can enumerate all variants.
    """
    m, tokens, rows, ring_rows = tab.m, tab.tokens, tab.rows, tab.ring_rows
    radixes: list[int] = []
    visited = {start}
    used: set[int] = set()
    # Neighbor order of each chiral atom as a reader of the output sees
    # it: parent and in-bracket H, then ring-closure partners, then
    # branch children.
    refs: dict[int, tuple[list[int], list[int], list[int]]] = {}
    # An atom's piece is its token (empty for a chiral atom until the end)
    # followed by its ring tokens as they are assigned.
    pieces: list[str] = []
    slot_of: dict[int, int] = {}
    next_ring = 1

    def settle(items: list) -> list:
        """Order runs of equal keys in `items` by the decision odometer."""
        out = []
        lo = 0
        while lo < len(items):
            hi = lo + 1
            while hi < len(items) and items[hi][4] == items[lo][4]:
                hi += 1
            group = items[lo:hi]
            if len(group) > 1:
                # Members with one (rank, bond token) label share the
                # position of that label's first member.
                found = [r[5] for r in group]
                labels = tuple(n if lab is None else found.index(lab)
                               for n, lab in enumerate(found))
                orders = tab.orderings(labels)
                if len(orders) > 1:
                    slot = len(radixes)
                    radixes.append(len(orders))
                    choice = decisions[slot] if slot < len(decisions) else 0
                    group = [group[p] for p in orders[choice]]
            out.extend(group)
            lo = hi
        return out

    # Explicit-stack DFS; atoms are entered, and tie points met, in pre-order.
    # A frame is [atom, ordered children, next child, ref lists or None,
    # piece index of the last descended child's "(" or -1].
    stack: list[list] = []
    i, parent = start, None
    while True:
        slot_of[i] = len(pieces)
        pieces.append(tokens[i] or "")
        ref = None
        if tokens[i] is None:
            ref = refs[i] = ([] if parent is None else [parent], [], [])
            if m.hydrogen_count(i):
                ref[0].append(-1)
        if i in ring_rows:
            closures = [r for r in ring_rows[i]
                        if r[1] in visited and r[0] not in used]
            if tab.ring_tied[i]:
                closures = settle(closures)
            for k, j, _, back, _, _ in closures:
                used.add(k)
                digit = (str(next_ring) if next_ring < 10
                         else f"%{next_ring:02d}")
                next_ring += 1
                # Opener side carries the bond symbol; stereo direction is
                # j -> i.
                pieces[slot_of[j]] += back + digit
                pieces[-1] += digit
                if j in refs:
                    refs[j][1].append(i)
                if ref is not None:
                    ref[1].append(j)
        children = [r for r in rows[i] if r[1] not in visited
                    and r[0] not in used]
        if tab.tied[i] and len(children) > 1:
            # Children group by branch weight only; orderings within a
            # weight class are settled by the string comparison.
            children = settle(children)
        stack.append([i, children, 0, ref, -1])

        # Descend into the next child not reached since, or close frames.
        while stack:
            frame = stack[-1]
            children, pos = frame[1], frame[2]
            while pos < len(children) and children[pos][0] in used:
                pos += 1
            if pos < len(children):
                k, j, out = children[pos][:3]
                frame[2] = pos + 1
                used.add(k)
                visited.add(j)
                if frame[3] is not None:
                    frame[3][2].append(j)
                frame[4] = len(pieces)
                pieces.append("(")
                pieces.append(out)
                i, parent = j, frame[0]
                break
            stack.pop()
            if frame[4] >= 0:
                # The last child runs on unbracketed.
                pieces[frame[4]] = ""
                pieces.pop()
            if stack:
                pieces.append(")")
        else:
            break

    for a, ref in refs.items():
        pieces[slot_of[a]] = (_atom_token(m, a, ref[0] + ref[1] + ref[2])
                              + pieces[slot_of[a]])
    return "".join(pieces), radixes


# --- atom tokens -----------------------------------------------------------------


def _atom_token(m: Molecule, i: int, emitted_ref: list[int]) -> str:
    atom = m.atoms[i]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    h = m.hydrogen_count(i)
    plain_ok = (atom.element in ORGANIC_SUBSET
                and atom.formal_charge == 0
                and atom.isotope is None
                and not atom.chirality
                and default_hydrogens(atom.element, atom.formal_charge,
                                      atom.aromatic, m.base_order_sum(i)) == h)
    if plain_ok:
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality:
        parts.append(_emitted_chirality(atom, emitted_ref))
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    if atom.formal_charge:
        sign = "+" if atom.formal_charge > 0 else "-"
        mag = abs(atom.formal_charge)
        parts.append(sign if mag == 1 else f"{sign}{mag}")
    parts.append("]")
    return "".join(parts)


def _emitted_chirality(atom, emitted_ref: list[int]) -> str:
    """Chirality mark adjusted to the emission neighbor order."""
    stored = list(atom.chiral_ref)
    if sorted(stored) != sorted(emitted_ref) or len(stored) < 3:
        # Reference order unavailable (synthetic molecule); keep the mark.
        return atom.chirality
    if _permutation_parity(stored, emitted_ref) == 0:
        return atom.chirality
    return CHI_CW if atom.chirality == CHI_CCW else CHI_CCW


def _permutation_parity(src: list[int], dst: list[int]) -> int:
    perm = [src.index(x) for x in dst]
    parity = 0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity
