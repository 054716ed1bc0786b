"""SMILES emission and canonicalization.

Canonical form: Morgan-style iterative invariant refinement assigns ranks;
remaining ties are broken by emitting every tied traversal and keeping the
lexicographically smallest string, so the output is independent of input
atom order.
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
            parts.append(_emit(m, frag[0], ranks, None, decisions=[])[0])
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
    weights = _branch_weights(m, frag)
    # Only starts whose atom token begins with the smallest character can
    # produce the winning string; the comparison is settled at position 0.
    first = {i: _atom_token(m, i, [])[0] for i in frag}
    low = min(first.values())
    starts = [i for i in frag if first[i] == low]
    best = None
    best_key = None
    for start in starts:
        # Odometer over tie decisions discovered during emission.
        decisions: list[int] = []
        emitted = 0
        while True:
            s, radixes = _emit(m, start, ranks, weights, decisions)
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
    """
    weights: dict[tuple[int, int], int] = {}
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


def _next_decisions(decisions: list[int], radixes: list[int]):
    decisions = decisions + [0] * (len(radixes) - len(decisions))
    for pos in range(len(radixes) - 1, -1, -1):
        decisions[pos] += 1
        if decisions[pos] < radixes[pos]:
            return decisions[:pos + 1] + [0] * (len(radixes) - pos - 1)
        decisions[pos] = 0
    return None


def _emit(m: Molecule, start: int, ranks: list[int],
          weights: dict[tuple[int, int], int] | None,
          decisions: list[int]) -> tuple[str, list[int]]:
    """One deterministic DFS emission.

    `decisions` selects permutations at rank-tie points in discovery order;
    the radix (number of orderings) of every tie point reached is returned
    so callers can enumerate all variants.
    """
    visited = {start}
    used_bonds: set[int] = set()
    ring_tokens: dict[int, list[str]] = {}   # atom -> closure tokens in order
    # Neighbor order as a reader of the output would see it: parent and
    # in-bracket H, then ring-closure partners, then branch children.
    ref_pre: dict[int, list[int]] = {}
    ref_rings: dict[int, list[int]] = {}
    ref_kids: dict[int, list[int]] = {}
    next_ring = [1]
    radixes: list[int] = []

    def pick_order(items, keys):
        """Order `items` by keys, consulting the decision odometer on ties."""
        groups: dict = {}
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

    def ring_digit() -> str:
        d = next_ring[0]
        next_ring[0] += 1
        return str(d) if d < 10 else f"%{d:02d}"

    def bond_token(bond, from_atom: int) -> str:
        if bond.stereo:
            up = bond.stereo == STEREO_UP
            if bond.a != from_atom:
                up = not up
            return "/" if up else "\\"
        if bond.order == SINGLE and (m.atoms[bond.a].aromatic
                                     and m.atoms[bond.b].aromatic):
            return "-"
        return _BOND_TOKEN[bond.order]

    def close_ring(i: int, j: int, b, k: int) -> None:
        """Record ring bond b between closer i and already-visited opener j."""
        used_bonds.add(k)
        digit = ring_digit()
        # Opener side carries the bond symbol; stereo direction is j -> i.
        ring_tokens[j].append(bond_token(b, j) + digit)
        ring_tokens[i].append(digit)
        ref_rings[j].append(i)
        ref_rings[i].append(j)

    def enter(i: int, parent: int | None) -> list:
        """Frame [atom, ordered children, next child, child outputs] of i."""
        ring_tokens.setdefault(i, [])
        ref_pre[i], ref_rings[i], ref_kids[i] = [], [], []
        if parent is not None:
            ref_pre[i].append(parent)
        atom = m.atoms[i]
        if atom.chirality and m.hydrogen_count(i):
            ref_pre[i].append(-1)
        closures = []
        children = []
        for k, b in m.incident(i):
            if k in used_bonds:
                continue
            j = b.other(i)
            if j in visited:
                closures.append((b, k, j))
            else:
                children.append((b, k, j))
        closures = pick_order(closures, [ranks[c[2]] for c in closures])
        for b, k, j in closures:
            close_ring(i, j, b, k)
        if weights is None:
            child_keys = [ranks[c[2]] for c in children]
        else:
            # Group by branch weight only; orderings within a weight class
            # are enumerated and settled by the string comparison.
            child_keys = [weights[i, c[2]] for c in children]
        return [i, pick_order(children, child_keys), 0, []]

    # Explicit-stack DFS; atoms are entered, and tie points met, in pre-order.
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
                # Reached through an earlier child's subtree: ring closure.
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
