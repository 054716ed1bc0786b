"""Molecular graph model: atoms, bonds, valence accounting, ring perception.

Molecule values are immutable to callers; every operation in this package
returns a new Molecule rather than mutating in place. Each graph fact lives
here and nowhere else: the bond index of every incident bond and the
hydrogen counts are built in the constructor; the depth-first forest,
ring bonds, smallest rings, Kekulé assignment, aromatic form and canonical
SMILES are computed once, on first use, and cached on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from chemlinker.errors import ValenceViolation

# Bond orders. AROMATIC is a distinct order, not 1.5: an aromatic bond
# contributes 1 to the base bond-order sum and the extra unit is accounted
# for during kekulization.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

# Allowed valence states, lowest first. P and S take the lowest state
# consistent with their bonds unless the bonds force a higher one.
VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

ORGANIC_SUBSET = frozenset(VALENCES)
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})

# Atomic numbers for bracket-specified elements (fingerprint serialization
# needs a stable element -> number mapping).
ELEMENT_NUMBERS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78, "Au": 79, "Hg": 80,
    "Tl": 81, "Pb": 82, "Bi": 83,
}

# Chirality marks. CCW corresponds to "@", CW to "@@".
CHI_NONE, CHI_CCW, CHI_CW = "", "@", "@@"

# Directional bond marks for double-bond stereo, interpreted in the
# direction bond.a -> bond.b.
STEREO_NONE, STEREO_UP, STEREO_DOWN = "", "up", "down"


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None     # None: compute from the valence table
    isotope: int | None = None
    chirality: str = CHI_NONE
    # Neighbor atom indices in the order that fixes the chirality mark;
    # -1 stands for an implicit hydrogen written inside the bracket.
    chiral_ref: tuple[int, ...] = ()


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: int = SINGLE
    stereo: str = STEREO_NONE

    def other(self, i: int) -> int:
        return self.b if i == self.a else self.a


@lru_cache(maxsize=1024)
def allowed_valences(element: str, charge: int) -> tuple[int, ...]:
    """Valence states for an organic-subset element adjusted for charge.

    Electronegative elements and boron gain a bonding slot per positive
    charge (N+ -> 4, O- -> 1, B- -> 4); carbon loses one per unit of
    charge in either direction (C+ and C- are both trivalent).
    """
    base = VALENCES[element]
    if element == "C":
        vals = tuple(v - abs(charge) for v in base)
    else:
        vals = tuple(v + charge for v in base)
    return tuple(max(v, 0) for v in vals)


@lru_cache(maxsize=1024)
def default_hydrogens(element: str, charge: int, aromatic: bool,
                      bosum: int) -> int | None:
    """Hydrogens the valence table implies for a bracket-free atom.

    `bosum` is the bond-order sum with aromatic bonds counted as single.
    An aromatic atom reserves one bonding slot for the ring double bond it
    may receive during kekulization. None: the element is outside the
    valence table, or no valence state fits the bonds.
    """
    if element not in VALENCES:
        return None
    vals = allowed_valences(element, charge)
    if aromatic:
        return max(0, vals[0] - bosum - 1)
    for v in vals:
        if v >= bosum:
            return v - bosum
    return None


class Molecule:
    """Immutable attributed molecular graph."""

    __slots__ = ("atoms", "bonds", "_adj", "_incident", "_hcounts",
                 "_forest", "_ring_bonds", "_smallest_rings", "_kekule",
                 "_aromatic", "_canonical")

    def __init__(self, atoms, bonds, validate: bool = True):
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "bonds", tuple(bonds))
        incident: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for k, bond in enumerate(self.bonds):
            incident[bond.a].append((k, bond))
            incident[bond.b].append((k, bond))
        object.__setattr__(self, "_incident",
                           tuple(tuple(pairs) for pairs in incident))
        object.__setattr__(self, "_adj", tuple(tuple(b for _, b in pairs)
                                               for pairs in incident))
        object.__setattr__(self, "_forest", None)
        object.__setattr__(self, "_ring_bonds", None)
        object.__setattr__(self, "_smallest_rings", None)
        object.__setattr__(self, "_kekule", None)
        object.__setattr__(self, "_aromatic", None)
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_hcounts", self._compute_hcounts())
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Molecule is immutable")

    # --- structure queries -------------------------------------------------

    def bonds_of(self, i: int) -> tuple[Bond, ...]:
        return self._adj[i]

    def incident(self, i: int) -> tuple[tuple[int, Bond], ...]:
        """(bond index, Bond) pairs of atom i, in `bonds_of` order."""
        return self._incident[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def base_order_sum(self, i: int) -> int:
        """Bond-order sum with aromatic bonds counted as single."""
        return sum(min(b.order, TRIPLE) if b.order != AROMATIC else 1
                   for b in self._adj[i])

    def hydrogen_count(self, i: int) -> int:
        """Total (explicit-in-bracket or implicit) hydrogens on atom i."""
        return self._hcounts[i]

    def components(self, bonds=None) -> list[tuple[list[int], list[int]]]:
        """Connected components as sorted (atom indices, bond indices).

        With `bonds` (bond indices) given, the subgraph of those bonds and
        their end atoms; otherwise the whole molecule, isolated atoms
        included. Components come in order of their smallest atom.
        """
        if bonds is None:
            keep = None
            starts = range(len(self.atoms))
        else:
            keep = set(bonds)
            starts = sorted({i for k in keep
                             for i in (self.bonds[k].a, self.bonds[k].b)})
        seen: set[int] = set()
        comps = []
        for start in starts:
            if start in seen:
                continue
            seen.add(start)
            stack, atoms, comp_bonds = [start], [], set()
            while stack:
                i = stack.pop()
                atoms.append(i)
                for k, b in self._incident[i]:
                    if keep is not None and k not in keep:
                        continue
                    comp_bonds.add(k)
                    j = b.other(i)
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            comps.append((sorted(atoms), sorted(comp_bonds)))
        return comps

    def fragments(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        return [atoms for atoms, _ in self.components()]

    def dfs_forest(self):
        """Iterative DFS, one tree per fragment from its smallest atom.

        Per atom: disc (discovery time), low (earliest disc its subtree
        reaches by one non-tree bond), size (subtree atoms), tree_bond
        (bond from its DFS parent, -1 at a root) and children (in order).
        """
        if self._forest is None:
            n = len(self.atoms)
            disc = [-1] * n
            low = [0] * n
            size = [1] * n
            tree_bond = [-1] * n
            children: list[list[int]] = [[] for _ in range(n)]
            timer = 0
            for root in range(n):
                if disc[root] != -1:
                    continue
                disc[root] = low[root] = timer
                timer += 1
                # (atom, index of the tree bond into it, incident iterator)
                stack = [(root, -1, iter(self._incident[root]))]
                while stack:
                    node, parent_k, pending = stack[-1]
                    for k, bond in pending:
                        if k == parent_k:
                            continue
                        j = bond.other(node)
                        if disc[j] == -1:
                            disc[j] = low[j] = timer
                            timer += 1
                            tree_bond[j] = k
                            children[node].append(j)
                            stack.append((j, k, iter(self._incident[j])))
                            break
                        low[node] = min(low[node], disc[j])
                    else:
                        stack.pop()
                        if stack:
                            up = stack[-1][0]
                            low[up] = min(low[up], low[node])
                            size[up] += size[node]
            object.__setattr__(self, "_forest", (
                tuple(disc), tuple(low), tuple(size), tuple(tree_bond),
                tuple(tuple(c) for c in children)))
        return self._forest

    def ring_bonds(self) -> frozenset[int]:
        """Indices of bonds that lie on a cycle (non-bridge edges).

        A tree bond is a bridge when the subtree below it reaches no
        earlier atom (low equals its own discovery time); every non-tree
        bond closes a cycle.
        """
        if self._ring_bonds is None:
            disc, low, _, tree_bond, _ = self.dfs_forest()
            bridges = {k for k, d, lo in zip(tree_bond, disc, low)
                       if k >= 0 and lo == d}
            object.__setattr__(self, "_ring_bonds",
                               frozenset(range(len(self.bonds))) - bridges)
        return self._ring_bonds

    def ring_atom_flags(self) -> list[bool]:
        flags = [False] * len(self.atoms)
        for k in self.ring_bonds():
            flags[self.bonds[k].a] = True
            flags[self.bonds[k].b] = True
        return flags

    def smallest_rings(self) -> tuple[tuple[int, ...], ...]:
        """Smallest ring through each ring bond, without repeats.

        One BFS per ring bond (a, b), from a to b over the other ring
        bonds; a ring is its atom path from b back to a.
        """
        if self._smallest_rings is None:
            ring = self.ring_bonds()
            rings: list[tuple[int, ...]] = []
            seen_rings: set[frozenset[int]] = set()
            for k in sorted(ring):
                a, b = self.bonds[k].a, self.bonds[k].b
                prev = {a: None}
                queue = [a]
                while queue and b not in prev:
                    nxt = []
                    for i in queue:
                        for kk, bond in self._incident[i]:
                            if kk == k or kk not in ring:
                                continue
                            j = bond.other(i)
                            if j not in prev:
                                prev[j] = i
                                nxt.append(j)
                    queue = nxt
                path = [b]
                while path[-1] != a:
                    path.append(prev[path[-1]])
                if frozenset(path) not in seen_rings:
                    seen_rings.add(frozenset(path))
                    rings.append(tuple(path))
            object.__setattr__(self, "_smallest_rings", tuple(rings))
        return self._smallest_rings

    def kekule_orders(self) -> dict[int, int]:
        """kekulize(self), computed once: SINGLE or DOUBLE for each aromatic
        bond index. Callers must not change the map."""
        if self._kekule is None:
            from chemlinker.molstring.kekulize import kekulize  # cycle guard

            object.__setattr__(self, "_kekule", kekulize(self))
        return self._kekule

    def aromatic_form(self) -> "Molecule":
        """One spelling for Kekulé and aromatic input, computed once:
        aromatize(kekulized(self)).

        Where perception marks nothing, or the validator rejects its marks,
        aromatize returns its Kekulé input unchanged, whose double bonds
        follow the matching kekulize found and so the atom order; the
        molecule itself is kept then. The form is its own aromatic form.
        """
        if self._aromatic is None:
            from chemlinker.molstring.kekulize import aromatize, kekulized

            kek = kekulized(self)
            form = aromatize(kek)
            # False marks a molecule that is its own form, with no
            # reference cycle.
            if form is kek:
                object.__setattr__(self, "_aromatic", False)
            else:
                object.__setattr__(form, "_aromatic", False)
                object.__setattr__(self, "_aromatic", form)
        return self if self._aromatic is False else self._aromatic

    def has_stereo(self) -> bool:
        return (any(a.chirality for a in self.atoms)
                or any(b.stereo for b in self.bonds))

    # --- hydrogen accounting -------------------------------------------------

    def _compute_hcounts(self) -> tuple[int, ...]:
        return tuple(
            a.explicit_h if a.explicit_h is not None
            else default_hydrogens(a.element, a.formal_charge, a.aromatic,
                                   self.base_order_sum(i)) or 0
            for i, a in enumerate(self.atoms))

    # --- validation ------------------------------------------------------------

    def _validate(self) -> None:
        for i, atom in enumerate(self.atoms):
            if not (-4 <= atom.formal_charge <= 4):
                raise ValenceViolation(
                    f"atom {i}: formal charge {atom.formal_charge} out of range")
            if atom.explicit_h is not None and not (0 <= atom.explicit_h <= 9):
                raise ValenceViolation(f"atom {i}: explicit H count out of range")
            if atom.aromatic and atom.element not in AROMATIC_ELEMENTS:
                raise ValenceViolation(
                    f"atom {i}: element {atom.element} cannot be aromatic")
            if atom.element not in ORGANIC_SUBSET:
                # Bracket-specified element outside the valence table:
                # hydrogens are explicit, valence is not checked.
                continue
            bosum = self.base_order_sum(i)
            total = bosum + self.hydrogen_count(i)
            vals = allowed_valences(atom.element, atom.formal_charge)
            if atom.aromatic:
                # Needs either its stated valence or one more unit from a
                # ring double bond; kekulization settles which.
                if total not in vals and total + 1 not in vals:
                    raise ValenceViolation(
                        f"atom {i} ({atom.element}): valence {total} invalid")
                n_arom = sum(1 for b in self._adj[i] if b.order == AROMATIC)
                if n_arom < 2:
                    raise ValenceViolation(
                        f"atom {i}: aromatic atom outside an aromatic ring")
            else:
                if total not in vals:
                    raise ValenceViolation(
                        f"atom {i} ({atom.element}): valence {total} invalid")
        for bond in self.bonds:
            if bond.a == bond.b:
                raise ValenceViolation("self-bond")
            if bond.order == AROMATIC:
                if not (self.atoms[bond.a].aromatic
                        and self.atoms[bond.b].aromatic):
                    raise ValenceViolation(
                        "aromatic bond between non-aromatic atoms")
        if any(a.aromatic for a in self.atoms):
            self.kekule_orders()  # raises KekulizationFailure if inconsistent

    # --- transforms ---------------------------------------------------------

    def on_same_graph(self, atoms, bonds, validate: bool = False) -> "Molecule":
        """A molecule with new atom and bond attributes on this one's graph
        (every bond joins the same two atoms); the depth-first forest, ring
        bonds and smallest rings carry over instead of being recomputed."""
        m = Molecule(atoms, bonds, validate=False)
        for name in ("_forest", "_ring_bonds", "_smallest_rings"):
            object.__setattr__(m, name, getattr(self, name))
        if validate:
            m._validate()
        return m

    def strip_stereo(self) -> "Molecule":
        """Copy with all chirality marks and bond stereo removed; the
        molecule itself, with every cached fact, when it has none."""
        if not self.has_stereo():
            return self
        atoms = [replace(a, chirality=CHI_NONE, chiral_ref=()) for a in self.atoms]
        bonds = [replace(b, stereo=STEREO_NONE) for b in self.bonds]
        return self.on_same_graph(atoms, bonds)

    def renumbered(self, perm: list[int]) -> "Molecule":
        """Copy with atom i moved to position perm[i].

        Chirality reference lists keep their order with indices renamed, so
        the stereo meaning is preserved.
        """
        inv = [0] * len(perm)
        for old, new in enumerate(perm):
            inv[new] = old
        atoms = []
        for new in range(len(perm)):
            a = self.atoms[inv[new]]
            ref = tuple(perm[x] if x >= 0 else -1 for x in a.chiral_ref)
            atoms.append(replace(a, chiral_ref=ref))
        bonds = [replace(b, a=perm[b.a], b=perm[b.b]) for b in self.bonds]
        return Molecule(atoms, bonds, validate=False)

    # --- comparisons ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"Molecule({len(self.atoms)} atoms, {len(self.bonds)} bonds)"
