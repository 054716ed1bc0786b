"""SMILES parsing.

Supported feature set: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I
and their aromatic lowercase forms), bracket atoms with isotope, charge,
explicit hydrogens and @/@@ chirality, ring closures including %nn, branch
parentheses, /-\\ double-bond stereo marks, and dot-separated fragments.
Wildcards, reaction arrows, and quadruple bonds are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from chemlinker.errors import (
    EmptyInput,
    LexError,
    UnclosedBranch,
    UnclosedRing,
)
from chemlinker.molstring.model import (
    AROMATIC,
    CHI_CCW,
    CHI_CW,
    CHI_NONE,
    DOUBLE,
    ELEMENT_NUMBERS,
    ORGANIC_SUBSET,
    SINGLE,
    STEREO_DOWN,
    STEREO_NONE,
    STEREO_UP,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
)

_TWO_LETTER_ORGANIC = ("Cl", "Br")
_AROMATIC_ORGANIC = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}
_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


@dataclass
class _PendingRing:
    atom: int
    order: int | None       # bond order stated at the opening digit
    stereo: str
    ref_slot: int            # position reserved in the opener's chiral_ref


class _Builder:
    """Accumulates atoms/bonds and per-atom chirality reference order."""

    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.refs: list[list[int]] = []   # ordered neighbor lists
        self.bonded: set[tuple[int, int]] = set()   # (low, high) atom pairs

    def add_atom(self, atom: Atom) -> int:
        self.atoms.append(atom)
        self.refs.append([])
        return len(self.atoms) - 1

    def order_of(self, written: int | None, a: int, b: int) -> int:
        """A bond's order as written; unwritten, aromatic between two
        aromatic atoms and single otherwise."""
        if written is not None:
            return written
        both_aromatic = self.atoms[a].aromatic and self.atoms[b].aromatic
        return AROMATIC if both_aromatic else SINGLE

    def add_bond(self, a: int, b: int, order: int, stereo: str,
                 a_slot: int | None = None) -> None:
        if a == b:
            raise LexError("ring bond to the same atom")
        pair = (min(a, b), max(a, b))
        if pair in self.bonded:
            raise LexError("duplicate bond between atoms")
        self.bonded.add(pair)
        self.bonds.append(Bond(a=a, b=b, order=order, stereo=stereo))
        if a_slot is None:
            self.refs[a].append(b)
        else:
            self.refs[a][a_slot] = b
        self.refs[b].append(a)


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a validated Molecule.

    Raises a ParseError subclass on malformed input, valence violations, or
    aromatic annotations with no Kekule assignment.
    """
    if not text or not text.strip():
        raise EmptyInput("empty SMILES input")
    text = text.strip()

    builder = _Builder()
    prev: int | None = None            # previous atom index
    pending_order: int | None = None   # bond symbol awaiting its atom
    pending_stereo: str = STEREO_NONE
    branch_stack: list[int] = []
    open_rings: dict[int, _PendingRing] = {}

    pos = 0
    n = len(text)

    def take_atom() -> tuple[Atom, int]:
        nonlocal pos
        ch = text[pos]
        if ch == "[":
            return _parse_bracket_atom(text, pos)
        two = text[pos:pos + 2]
        if two in _TWO_LETTER_ORGANIC:
            pos += 2
            return Atom(element=two), pos
        if ch in ORGANIC_SUBSET:
            pos += 1
            return Atom(element=ch), pos
        if ch in _AROMATIC_ORGANIC:
            pos += 1
            return Atom(element=_AROMATIC_ORGANIC[ch], aromatic=True), pos
        raise LexError(f"unexpected character {ch!r} at position {pos}")

    def connect(new_idx: int) -> None:
        nonlocal pending_order, pending_stereo
        if prev is not None:
            builder.add_bond(prev, new_idx,
                             builder.order_of(pending_order, prev, new_idx),
                             pending_stereo)
        pending_order = None
        pending_stereo = STEREO_NONE

    while pos < n:
        ch = text[pos]
        if ch in _BOND_CHARS:
            if pending_order is not None:
                raise LexError(f"two bond symbols in a row at position {pos}")
            pending_order = _BOND_CHARS[ch]
            pos += 1
        elif ch == "/":
            pending_order = SINGLE
            pending_stereo = STEREO_UP
            pos += 1
        elif ch == "\\":
            pending_order = SINGLE
            pending_stereo = STEREO_DOWN
            pos += 1
        elif ch == "(":
            if prev is None:
                raise LexError("branch before any atom")
            branch_stack.append(prev)
            pos += 1
        elif ch == ")":
            if not branch_stack:
                raise UnclosedBranch("unmatched ')'")
            prev = branch_stack.pop()
            pos += 1
        elif ch == ".":
            if pending_order is not None:
                raise LexError("bond symbol before fragment separator")
            prev = None
            pos += 1
        elif ch.isdigit() or ch == "%":
            if prev is None:
                raise LexError("ring closure before any atom")
            if ch == "%":
                if pos + 2 >= n or not text[pos + 1:pos + 3].isdigit():
                    raise LexError("%% ring closure needs two digits")
                ring_id = int(text[pos + 1:pos + 3])
                pos += 3
            else:
                ring_id = int(ch)
                pos += 1
            if ring_id in open_rings:
                opened = open_rings.pop(ring_id)
                order = _resolve_ring_order(opened.order, pending_order,
                                            builder, opened.atom, prev)
                stereo = pending_stereo or opened.stereo
                builder.add_bond(opened.atom, prev, order, stereo,
                                 a_slot=opened.ref_slot)
            else:
                builder.refs[prev].append(-2)   # placeholder, filled on close
                open_rings[ring_id] = _PendingRing(
                    atom=prev, order=pending_order, stereo=pending_stereo,
                    ref_slot=len(builder.refs[prev]) - 1)
            pending_order = None
            pending_stereo = STEREO_NONE
        else:
            atom, pos = take_atom()
            idx = builder.add_atom(atom)
            connect(idx)
            if atom.explicit_h and atom.chirality:
                # The in-bracket hydrogen occupies the reference slot right
                # after the preceding atom.
                builder.refs[idx].append(-1)
            prev = idx

    if branch_stack:
        raise UnclosedBranch(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnclosedRing(f"unclosed ring closure(s): {sorted(open_rings)}")
    if pending_order is not None:
        raise LexError("dangling bond symbol at end of input")

    atoms = [replace(a, chiral_ref=tuple(builder.refs[i])) if a.chirality
             else a for i, a in enumerate(builder.atoms)]
    bonds = builder.bonds
    if not any(b.order == AROMATIC for b in bonds):
        return Molecule(atoms, bonds)
    # An aromatic bond between two aromatic atoms outside any ring
    # (biphenyl-style) is a plain single bond; between aliphatic atoms it
    # stays aromatic, which validation rejects.
    probe = Molecule(atoms, bonds, validate=False)
    ring = probe.ring_bonds()
    bonds = [replace(b, order=SINGLE)
             if b.order == AROMATIC and k not in ring
             and atoms[b.a].aromatic and atoms[b.b].aromatic else b
             for k, b in enumerate(bonds)]
    return probe.on_same_graph(atoms, bonds, validate=True)


def _resolve_ring_order(opened: int | None, closing: int | None,
                        builder: _Builder, a: int, b: int) -> int:
    if opened is not None and closing is not None and opened != closing:
        raise LexError("conflicting bond orders on ring closure")
    return builder.order_of(opened if opened is not None else closing, a, b)


def _parse_bracket_atom(text: str, pos: int) -> tuple[Atom, int]:
    """Parse '[...]' starting at pos; returns (Atom, position after ']')."""
    end = text.find("]", pos)
    if end == -1:
        raise LexError("unclosed bracket atom")
    body = text[pos + 1:end]
    i = 0
    isotope = None
    start = i
    while i < len(body) and body[i].isdigit():
        i += 1
    if i > start:
        isotope = int(body[start:i])
        if isotope == 0:
            raise LexError("isotope must be positive")
    if i >= len(body):
        raise LexError("bracket atom without element symbol")
    aromatic = False
    if body[i].islower():
        sym = body[i]
        if sym not in _AROMATIC_ORGANIC:
            raise LexError(f"unknown aromatic symbol {sym!r}")
        element = _AROMATIC_ORGANIC[sym]
        aromatic = True
        i += 1
    else:
        if i + 1 < len(body) and body[i + 1].islower() \
                and body[i:i + 2] in ELEMENT_NUMBERS:
            element = body[i:i + 2]
            i += 2
        else:
            element = body[i]
            i += 1
        if element not in ELEMENT_NUMBERS:
            raise LexError(f"unknown element symbol {element!r}")
    chirality = CHI_NONE
    if body[i:i + 2] == "@@":
        chirality = CHI_CW
        i += 2
    elif body[i:i + 1] == "@":
        chirality = CHI_CCW
        i += 1
    explicit_h = 0
    if body[i:i + 1] == "H":
        i += 1
        start = i
        while i < len(body) and body[i].isdigit():
            i += 1
        explicit_h = int(body[start:i]) if i > start else 1
    charge = 0
    if body[i:i + 1] in ("+", "-"):
        sign = 1 if body[i] == "+" else -1
        i += 1
        start = i
        while i < len(body) and body[i].isdigit():
            i += 1
        if i > start:
            charge = sign * int(body[start:i])
        else:
            magnitude = 1
            while body[i:i + 1] == body[start - 1]:
                magnitude += 1
                i += 1
            charge = sign * magnitude
    if i != len(body):
        raise LexError(f"unexpected bracket content {body[i:]!r}")
    atom = Atom(element=element, aromatic=aromatic, formal_charge=charge,
                explicit_h=explicit_h, isotope=isotope, chirality=chirality)
    return atom, end + 1
