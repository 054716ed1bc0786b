"""Kekulé assignment for aromatic systems and the inverse perception step.

One rule decides aromaticity both ways: `_pi` counts the pi electrons an
atom gives, and `_huckel` accepts the whole system when it has no bridge,
or else each smallest ring, whose count is 4n+2. Kekulization pairs every
aromatic atom that needs a double bond (exact backtracking matching on an
explicit stack, in depth-first order), then requires the accepted parts to
cover the system: c1ccc1 fails though a pairing exists, and pyrene (16 pi
electrons) passes ring by ring. Perception counts a ring double bond only
while both of its ends are in the system, and keeps a marked system only
where the atoms that counted a double bond still pair up inside it; those
are the two things Kekulization checks beyond the shared count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import replace

from chemlinker.errors import KekulizationFailure
from chemlinker.molstring.model import (
    AROMATIC,
    AROMATIC_ELEMENTS,
    DOUBLE,
    SINGLE,
    STEREO_NONE,
    TRIPLE,
    Molecule,
    allowed_valences,
)

_PI_DONORS = frozenset({"N", "O", "S", "P"})


def _pi(m: Molecule, i: int, system_doubles: int) -> int | None:
    """Pi electrons atom i gives a candidate aromatic system in which it
    has `system_doubles` double bonds; None when it cannot be aromatic."""
    atom = m.atoms[i]
    orders = {b.order for _, b in m.incident(i)}
    if (atom.element not in AROMATIC_ELEMENTS or system_doubles > 1
            or TRIPLE in orders):
        return None
    if system_doubles:
        return 1
    if DOUBLE in orders:
        return 0  # its double bond leaves the system
    if atom.element in _PI_DONORS or atom.formal_charge < 0:
        return 2  # lone pair
    if atom.element == "B" or atom.formal_charge > 0:
        return 0  # empty p orbital
    return None  # sp3


def _huckel(m: Molecule, atoms: list[int], bonds: list[int],
            pi: dict[int, int | None]) -> list:
    """Parts of a candidate system (atom lists) that obey the 4n+2 rule.

    The whole system is the one part when every atom counts, no bond is a
    bridge (ring C=C, xanthene's benzene-O-benzene cut off by its CH2) and
    the pi total is 4n+2. Otherwise each smallest ring whose atoms all
    count and total 4n+2 is a part; a system whose atoms each lie on two
    of its bonds is one ring, so has none. `pi` maps the system's atoms.
    """
    ends = Counter(e for k in bonds for e in (m.bonds[k].a, m.bonds[k].b))
    one_ring = all(ends[i] == 2 for i in atoms)
    if (None not in pi.values() and sum(pi.values()) % 4 == 2
            and (one_ring or m.bridgeless(bonds))):
        return [atoms]
    if one_ring:
        return []
    return [ring for ring in m.smallest_rings()
            if all(pi.get(i) is not None for i in ring)
            and sum(pi[i] for i in ring) % 4 == 2]


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


def _pair(m: Molecule, needy: list[int], bonds) -> dict[int, int] | None:
    """Each atom of `needy` mapped to the bond of `bonds` that pairs it with
    another needy atom, or None when no such perfect matching exists."""
    adj: dict[int, list[int]] = {i: [] for i in needy}
    pairable = {}
    for k in bonds:
        a, b = m.bonds[k].a, m.bonds[k].b
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
            pairable[frozenset((a, b))] = k
    if not all(adj.values()):
        return None  # an atom with no pairable bond, so not in the forest
    # Needy atoms in depth-first order over their pairable bonds, which
    # reach every needy atom: pairing along paths strands no atom on a
    # chain or a ring whatever the atom order, where index order can send
    # `_match` into exponential backtracking (a 2,002-atom aromatic ring in
    # random atom order).
    order = m.dfs_forest(pairable.values())[0]
    mate: dict[int, int] = {}
    if not _match(order, adj, mate):
        return None
    return {i: pairable[frozenset((i, j))] for i, j in mate.items()}


def kekulize(m: Molecule) -> dict[int, int]:
    """Assign single/double orders to aromatic bonds.

    Returns a map bond-index -> SINGLE or DOUBLE covering exactly the
    aromatic bonds. Raises KekulizationFailure when no assignment exists or
    the 4n+2 parts `_huckel` finds do not cover a system; an atom has a
    double bond inside its system exactly when the matching pairs it.
    """
    assignment: dict[int, int] = {}
    arom = [k for k, b in enumerate(m.bonds) if b.order == AROMATIC]
    # Systems are checked in order of their first bond; the first that
    # fails names the error.
    for atoms, bonds in sorted(m.components(arom), key=lambda c: c[1][0]):
        paired = _pair(m, [i for i in atoms if _needs_double(m, i)], bonds)
        if paired is None:
            raise KekulizationFailure(
                "no Kekule assignment for aromatic system "
                f"of {len(atoms)} atoms")
        pi = {i: _pi(m, i, int(i in paired)) for i in atoms}
        if len(set().union(*_huckel(m, atoms, bonds, pi))) < len(atoms):
            raise KekulizationFailure(
                f"aromatic system of {len(atoms)} atoms: no 4n+2 pi count")
        for k in bonds:
            assignment[k] = SINGLE
        for k in paired.values():
            assignment[k] = DOUBLE
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


def aromatize(m: Molecule) -> Molecule:
    """Perceive aromatic systems on a Kekulé graph and mark them aromatic.

    The candidates are the ring bonds between atoms that can be aromatic
    under `_pi`, counting double bonds on ring bonds as the system's; each
    component is judged by `_huckel`, and only bonds inside an accepted
    part are marked (biphenylene's four-ring stays single). This is the
    rule `kekulize` checks, so it gives parsed and SELFIES-decoded graphs
    one aromatic form; `validate=True` checks the marks once more. Hydrogen
    counts are frozen on converted atoms so donors like pyrrole nitrogen
    keep their hydrogen.
    """
    ring = m.ring_bonds()
    # A ring double bond counts toward a system only while both of its ends
    # are in it. Where an accepted atom counted one that leaves the accepted
    # atoms, `kekulize` would count that atom 0, so perception repeats on
    # the accepted atoms alone. A double bond joining two accepted parts is
    # made single below (biphenylene's four-ring), so the atoms that counted
    # one must pair up again inside their marked system; where they cannot,
    # the system is dropped and perception repeats without it.
    inside = {e for k in ring for e in (m.bonds[k].a, m.bonds[k].b)}
    while True:
        doubles = {i: [k for k, b in m.incident(i)
                       if k in ring and b.order == DOUBLE
                       and b.other(i) in inside]
                   for i in inside}
        pi = {i: _pi(m, i, len(ks)) for i, ks in doubles.items()}
        arom_atoms: set[int] = set()
        arom_bonds: set[int] = set()
        for atoms, bonds in m.components(
                [k for k in ring if pi.get(m.bonds[k].a) is not None
                 and pi.get(m.bonds[k].b) is not None]):
            for part in _huckel(m, atoms, bonds, {i: pi[i] for i in atoms}):
                part_atoms = set(part)
                arom_atoms |= part_atoms
                arom_bonds.update(k for k in bonds
                                  if m.bonds[k].a in part_atoms
                                  and m.bonds[k].b in part_atoms)
        dropped: set[int] = set()
        if all(m.bonds[k].other(i) in arom_atoms
               for i in arom_atoms for k in doubles[i]):
            unmarked = {i for i in arom_atoms if set(doubles[i]) - arom_bonds}
            for atoms, bonds in m.components(arom_bonds) if unmarked else ():
                if unmarked.intersection(atoms) and _pair(
                        m, [i for i in atoms if doubles[i]], bonds) is None:
                    dropped.update(atoms)
            if not dropped:
                break
        inside = arom_atoms - dropped
    if not arom_atoms:
        return m

    atoms = [replace(a, aromatic=True, explicit_h=m.hydrogen_count(i))
             if i in arom_atoms else a
             for i, a in enumerate(m.atoms)]
    # A ring bond between two parts (biphenylene's four-ring) is single:
    # its double bond, if any, counted in the parts on either side. An
    # aromatic bond keeps no `/` or `\` mark, which would be written in its
    # place.
    bonds = [replace(b, order=AROMATIC, stereo=STEREO_NONE) if k in arom_bonds
             else replace(b, order=SINGLE) if k in ring
             and b.a in arom_atoms and b.b in arom_atoms
             else b for k, b in enumerate(m.bonds)]
    return m.on_same_graph(atoms, bonds, validate=True)
