"""Kekulé assignment for aromatic systems and the inverse perception step.

Kekulization places one double bond on every aromatic atom that needs one
(exact backtracking matching on an explicit stack) and then checks the
pi-electron count of each aromatic system against the 4n+2 rule, so
annotations like c1ccc1 are rejected even though a pairing of double bonds
exists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

from chemlinker.errors import KekulizationFailure
from chemlinker.molstring.model import (
    AROMATIC,
    AROMATIC_ELEMENTS,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Molecule,
    allowed_valences,
)

_PI_DONORS = frozenset({"N", "O", "S", "P"})


def _needs_double(m: Molecule, i: int) -> bool:
    atom = m.atoms[i]
    total = m.base_order_sum(i) + m.hydrogen_count(i)
    vals = allowed_valences(atom.element, atom.formal_charge)
    if total in vals:
        return False
    if total + 1 in vals:
        return True
    raise KekulizationFailure(
        f"atom {i} ({atom.element}): no aromatic valence state fits {total}")


def _match(order: list[int], adj: dict[int, list[int]],
           mate: dict[int, int]) -> bool:
    """Backtracking perfect matching over the needy-atom subgraph.

    Pairs the first unpaired atom in `order` with its next unpaired
    neighbour, undoing the last pairing when an atom has none left. A stack
    frame is (atom, its position in `order`, its untried neighbours).
    """
    stack: list[tuple[int, int, Iterator[int]]] = []
    pos = 0
    while True:
        while pos < len(order) and order[pos] in mate:
            pos += 1
        if pos == len(order):
            return True
        stack.append((order[pos], pos, iter(adj.get(order[pos], ()))))
        while stack:
            i, pos, pending = stack[-1]
            j = next((j for j in pending if j not in mate), None)
            if j is not None:
                mate[i], mate[j] = j, i
                break
            stack.pop()
            if stack:
                del mate[mate.pop(stack[-1][0])]
        else:
            return False


def _depth_first(needy: list[int], adj: dict[int, list[int]]) -> list[int]:
    """Needy atoms in depth-first order, lowest index first.

    Pairing along paths strands no atom on a chain or a ring whatever the
    atom order, where plain index order can send `_match` into exponential
    backtracking (a 2,002-atom aromatic ring in random atom order). Where
    index order is already depth-first, as for most parsed SMILES, the
    order and so the matching are unchanged.
    """
    seen: set[int] = set()
    order = []
    for root in needy:
        stack = [root]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            order.append(i)
            stack.extend(sorted((j for j in adj[i] if j not in seen),
                                reverse=True))
    return order


def kekulize(m: Molecule) -> dict[int, int]:
    """Assign single/double orders to aromatic bonds.

    Returns a map bond-index -> SINGLE or DOUBLE covering exactly the
    aromatic bonds. Raises KekulizationFailure when no assignment exists or
    the pi count violates the 4n+2 rule.
    """
    assignment: dict[int, int] = {}
    arom = [k for k, b in enumerate(m.bonds) if b.order == AROMATIC]
    # Systems are checked in order of their first bond; the first that
    # fails names the error.
    for atoms, bonds in sorted(m.components(arom), key=lambda c: c[1][0]):
        needy = [i for i in atoms if _needs_double(m, i)]
        needy_set = set(needy)
        adj: dict[int, list[int]] = {i: [] for i in needy}
        pairable = {}
        for k in bonds:
            a, b = m.bonds[k].a, m.bonds[k].b
            if a in needy_set and b in needy_set:
                adj[a].append(b)
                adj[b].append(a)
                pairable[frozenset((a, b))] = k
        mate: dict[int, int] = {}
        if not _match(_depth_first(needy, adj), adj, mate):
            raise KekulizationFailure(
                "no Kekule assignment for aromatic system "
                f"of {len(atoms)} atoms")
        pi = 0
        for i in atoms:
            if i in mate:
                pi += 1
            elif (m.atoms[i].element in _PI_DONORS
                  or m.atoms[i].formal_charge < 0):
                # Lone-pair donor contributes both electrons; atoms with an
                # exocyclic double bond (and boron) contribute none.
                if not any(b.order in (DOUBLE, TRIPLE) for b in m.bonds_of(i)):
                    pi += 2
        if pi % 4 != 2:
            raise KekulizationFailure(
                f"aromatic system has {pi} pi electrons (needs 4n+2)")
        for k in bonds:
            assignment[k] = SINGLE
        for i, j in mate.items():
            if i < j:
                assignment[pairable[frozenset((i, j))]] = DOUBLE
    return assignment


def kekulized(m: Molecule) -> Molecule:
    """Copy with aromatic flags cleared and explicit alternating bonds."""
    if not any(a.aromatic for a in m.atoms):
        return m
    orders = m.kekule_orders()
    bonds = [replace(b, order=orders[k]) if k in orders else b
             for k, b in enumerate(m.bonds)]
    atoms = [replace(a, aromatic=False, explicit_h=m.hydrogen_count(i))
             if a.aromatic else a
             for i, a in enumerate(m.atoms)]
    return m.on_same_graph(atoms, bonds)


# --- perception (used on SELFIES-decoded Kekule graphs) ---------------------


def _classify_sp2(m: Molecule, i: int, sys_atoms: set[int]) -> int | None:
    """Pi-electron contribution of atom i in a candidate aromatic system.

    None means the atom disqualifies the system (sp3 carbon, triple bond,
    two ring double bonds, unsupported element).
    """
    atom = m.atoms[i]
    if atom.element not in AROMATIC_ELEMENTS:
        return None
    in_sys_dbl = 0
    exo_dbl = False
    for b in m.bonds_of(i):
        if b.order == TRIPLE:
            return None
        if b.order == DOUBLE:
            if b.other(i) in sys_atoms:
                in_sys_dbl += 1
            else:
                exo_dbl = True
    if in_sys_dbl == 1:
        return 1
    if in_sys_dbl > 1:
        return None
    if exo_dbl:
        return 0
    if atom.element in _PI_DONORS or atom.formal_charge < 0:
        return 2
    return None


def aromatize(m: Molecule) -> Molecule:
    """Perceive aromatic rings on a Kekule graph and mark them aromatic.

    Tries whole fused ring systems first (covers azulene-type cases), then
    individual smallest rings (covers partially saturated fused systems).
    Hydrogen counts are frozen on converted atoms so donors like pyrrole
    nitrogen keep their hydrogen.
    """
    ring = m.ring_bonds()
    if not ring:
        return m
    arom_atoms: set[int] = set()
    arom_bonds: set[int] = set()
    # Ring systems (components of the ring-bond subgraph) share no atoms,
    # so a smallest ring lies in the system of any one of its atoms.
    for atoms, sys_bonds in m.components(ring):
        sys_atoms = set(atoms)
        contrib = {i: _classify_sp2(m, i, sys_atoms) for i in atoms}
        if (all(c is not None for c in contrib.values())
                and sum(contrib.values()) % 4 == 2):
            arom_atoms |= sys_atoms
            arom_bonds |= set(sys_bonds)
            continue
        for ring_atoms in m.smallest_rings():
            if ring_atoms[0] not in sys_atoms:
                continue
            cs = [contrib[i] for i in ring_atoms]
            if any(c is None for c in cs) or sum(cs) % 4 != 2:
                continue
            ring_set = set(ring_atoms)
            arom_atoms |= ring_set
            arom_bonds |= {k for k in sys_bonds
                           if m.bonds[k].a in ring_set
                           and m.bonds[k].b in ring_set}
    if not arom_atoms:
        return m

    atoms = [replace(a, aromatic=True, explicit_h=m.hydrogen_count(i))
             if i in arom_atoms else a
             for i, a in enumerate(m.atoms)]
    bonds = [replace(b, order=AROMATIC) if k in arom_bonds else b
             for k, b in enumerate(m.bonds)]
    try:
        return m.on_same_graph(atoms, bonds, validate=True)
    except KekulizationFailure:
        # Perception disagreed with the validator; keep the Kekule form,
        # which is already valid.
        return m
