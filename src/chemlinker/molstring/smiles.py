"""SMILES parsing.

Supported feature set: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I
and their aromatic lowercase forms), bracket atoms with isotope, charge,
explicit hydrogens and @/@@ chirality, ring closures including %nn, branch
parentheses, /-\\ double-bond stereo marks, and dot-separated fragments.
Wildcards, reaction arrows, and quadruple bonds are rejected.

The grammar is data: `_TOKEN` splits a string into the kinds atom, ring,
bond, open, close and dot, and `_FOLLOWS` names the kinds each kind may
follow, and which may end a string; a string starts as a fragment does,
after a dot. A bond is kept pending: the token after it must be an atom or
a ring bond, and follows the kind before the bond. So a string is a chain
of atoms, each followed by its ring bonds and then its branches; a branch
holds a chain led by at most one bond or dot; and a dot joins two chains.
Strings that the OpenSMILES grammar does not derive raise LexError rather
than being repaired:
- a bond or dot at either end: `=C`, `/C`, `.C`, `C.`;
- two dots or two bonds in a row: `C..C`, `C=/C`;
- a bond after a dot, or before a branch or its end: `C.=C`, `C=(C)C`,
  `C(C=)C`;
- an empty or doubled branch: `C()C`, `C(=)C`, `C((C))`, and a dot that
  ends one: `C(C.)C`;
- a ring bond after a parenthesis: `C1CC(1)`, `C(C)1CC1`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from chemlinker.errors import (
    EmptyInput,
    LexError,
    UnclosedBranch,
    UnclosedRing,
)
from chemlinker.molstring.model import (
    AROMATIC,
    CHI_NONE,
    DOUBLE,
    ELEMENT_NUMBERS,
    SINGLE,
    STEREO_DOWN,
    STEREO_NONE,
    STEREO_UP,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
)

_TOKEN = re.compile(
    r"(?P<atom>Cl|Br|[BCNOPSFI]|[bcnops]|\[(?P<bracket>[^\]]*)\])"
    r"|(?P<ring>[0-9]|%[0-9]{2})|(?P<bond>[-=#:/\\])"
    r"|(?P<open>\()|(?P<close>\))|(?P<dot>\.)")
# The kinds a token of each kind may follow; "end" lists those a string may
# end with. A bond joins the token after it, which must be an atom or a ring.
_FOLLOWS = {
    "atom": {"atom", "ring", "open", "close", "dot"},
    "bond": {"atom", "ring", "open", "close"},
    "ring": {"atom", "ring"},
    "open": {"atom", "ring", "close"},
    "close": {"atom", "ring", "close"},
    "dot": {"atom", "ring", "open", "close"},
    "end": {"atom", "ring", "close"},
}
# Atoms are immutable, so every organic-subset token of a kind shares one.
_ORGANIC = {sym: Atom(element=sym.capitalize(), aromatic=sym.islower())
            for sym in ("Cl", "Br", *"BCNOPSFI", *"bcnops")}
_BONDS = {"-": (SINGLE, STEREO_NONE), "=": (DOUBLE, STEREO_NONE),
          "#": (TRIPLE, STEREO_NONE), ":": (AROMATIC, STEREO_NONE),
          "/": (SINGLE, STEREO_UP), "\\": (SINGLE, STEREO_DOWN)}
_BRACKET = re.compile(
    r"(?P<isotope>[0-9]+)?(?P<element>[A-Z][a-z]?|[bcnops])"
    r"(?P<chirality>@@?)?(?P<h>H[0-9]*)?(?P<charge>[+-][0-9]+|\++|-+)?")


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
    kind = "dot"                       # last kind but a bond; starts as '.'
    bond: tuple[int, str] | None = None   # bond awaiting its atom or ring
    branch_stack: list[int] = []
    open_rings: dict[int, _PendingRing] = {}

    pos = 0
    while pos < len(text):
        token = _TOKEN.match(text, pos)
        if token is None:
            raise LexError(f"unexpected character {text[pos]!r} "
                           f"at position {pos}")
        new = token.lastgroup
        if kind not in _FOLLOWS[new] or bond and new not in ("atom", "ring"):
            raise LexError(f"unexpected {token[0]!r} at position {pos}")
        pos = token.end()
        if new == "bond":
            bond = _BONDS[token[0]]
            continue
        order, stereo = bond or (None, STEREO_NONE)
        if new == "atom":
            atom = _ORGANIC.get(token[0]) or _bracket_atom(token["bracket"])
            idx = builder.add_atom(atom)
            if kind != "dot":   # an atom after a dot starts a fragment
                builder.add_bond(prev, idx, builder.order_of(order, prev, idx),
                                 stereo)
            if atom.explicit_h and atom.chirality:
                # The in-bracket hydrogen occupies the reference slot right
                # after the preceding atom.
                builder.refs[idx].append(-1)
            prev = idx
        elif new == "ring":
            ring_id = int(token[0].lstrip("%"))
            opened = open_rings.pop(ring_id, None)
            if opened is None:
                builder.refs[prev].append(-2)   # placeholder, filled on close
                open_rings[ring_id] = _PendingRing(
                    atom=prev, order=order, stereo=stereo,
                    ref_slot=len(builder.refs[prev]) - 1)
            elif None not in (order, opened.order) and order != opened.order:
                raise LexError("conflicting bond orders on ring closure")
            else:
                written = order if opened.order is None else opened.order
                builder.add_bond(opened.atom, prev,
                                 builder.order_of(written, opened.atom, prev),
                                 stereo or opened.stereo,
                                 a_slot=opened.ref_slot)
        elif new == "open":
            branch_stack.append(prev)
        elif new == "close":
            if not branch_stack:
                raise UnclosedBranch("unmatched ')'")
            prev = branch_stack.pop()
        kind, bond = new, None

    if branch_stack:
        raise UnclosedBranch(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnclosedRing(f"unclosed ring closure(s): {sorted(open_rings)}")
    if kind not in _FOLLOWS["end"] or bond:
        raise LexError(f"unexpected end after {text[-1]!r}")

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


def _bracket_atom(body: str) -> Atom:
    """The atom of a bracket token's body, the text between '[' and ']'."""
    m = _BRACKET.fullmatch(body)
    if m is None or m["element"].capitalize() not in ELEMENT_NUMBERS:
        raise LexError(f"unknown bracket atom [{body}]")
    isotope, h, charge = m["isotope"], m["h"], m["charge"] or "0"
    if isotope and not int(isotope):
        raise LexError("isotope must be positive")
    if not charge[-1].isdigit():   # '+', '--', ...: one unit per sign
        charge = charge[0] + str(len(charge))
    return Atom(element=m["element"].capitalize(),
                aromatic=m["element"].islower(), formal_charge=int(charge),
                explicit_h=int(h[1:] or 1) if h else 0,
                isotope=int(isotope) if isotope else None,
                chirality=m["chirality"] or CHI_NONE)
