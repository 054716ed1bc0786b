"""SELFIES-style robust molecular token strings.

The dialect is a derivation-state machine over the package valence table.
One token table, built from that valence table, gives every token its
meaning; `token_alphabet()` lists its tokens, the decoder looks each token
up in it, and the encoder spells through its inverse. Branch and Ring
operators read base-16 index tokens (one per Branch1/Ring1, two per
Branch2/Ring2, three per Branch3/Ring3); bond orders are capped to the
remaining valence of both endpoints, dangling branch/ring payloads are
truncated, and unknown tokens are skipped, so any token string containing
at least one derivable atom decodes to a valence-valid molecule.

Stereo is not supported: callers strip stereo before encoding. Aromatic
rings are encoded in Kekule form and re-perceived after decoding.
"""

from __future__ import annotations

import re

from chemlinker.errors import DecodeFailure, UnsupportedFeature
from chemlinker.molstring.kekulize import aromatize, kekulized
from chemlinker.molstring.model import (
    DOUBLE,
    SINGLE,
    TRIPLE,
    VALENCES,
    Atom,
    Bond,
    Molecule,
    allowed_valences,
    default_hydrogens,
)

EOS = "[EOS]"

# Index tokens: position in this list is the base-16 digit value.
INDEX_ALPHABET = (
    "[C]", "[Ring1]", "[Ring2]",
    "[Branch1]", "[=Branch1]", "[#Branch1]",
    "[Branch2]", "[=Branch2]", "[#Branch2]",
    "[O]", "[N]", "[=N]", "[=C]", "[#C]", "[S]", "[P]",
)
_INDEX_VALUE = {tok: v for v, tok in enumerate(INDEX_ALPHABET)}

_TOKEN_RE = re.compile(r"\[[^\[\]]*\]")


def _token_table() -> dict[str, tuple]:
    orders = {"": SINGLE, "=": DOUBLE, "#": TRIPLE}
    table = {}
    for el in VALENCES:
        for prefix, order in orders.items():
            for charge, spelt in ((0, ""), (1, "+1"), (-1, "-1")):
                table[f"[{prefix}{el}{spelt}]"] = (
                    "atom", order, el, charge,
                    max(allowed_valences(el, charge)))
    for kind in ("Branch", "Ring"):
        for prefix, order in orders.items():
            for size in (1, 2, 3):
                table[f"[{prefix}{kind}{size}]"] = (kind, order, size, 0, 0)
    return table


# Every token the decoder gives meaning to, mapped to (kind, bond order,
# element or index-digit count, charge, capacity): kind is "atom", "Branch"
# or "Ring", and capacity is an atom's highest valence. [EOS] ends the
# derivation and any other token is skipped. The encoder spells a meaning
# (the first four fields) through the inverse.
_TOKENS = _token_table()
_SPELLING = {meaning[:4]: tok for tok, meaning in _TOKENS.items()}


def token_alphabet() -> list[str]:
    """Every token the decoder gives meaning to, then [EOS]."""
    return [*_TOKENS, EOS]


def split_tokens(text: str) -> list[str]:
    """Split a concatenated bracket-token string into tokens."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DecodeFailure(f"not a bracket token string: {text!r}")
    return tokens


# --- decoding ----------------------------------------------------------------


def decode_selfies(tokens) -> Molecule:
    """Decode a token string (list of tokens or concatenated string).

    Raises DecodeFailure only when no atom can be derived; every other
    input decodes to a valence-valid Molecule.

    The main chain is derived from all tokens, branches included. A branch
    is derived in place with its own (limit, previous atom, pending bond
    order) and the outer chain resumes after its payload; the suspended
    chains sit on an explicit stack, so branch nesting depth is not bounded
    by the interpreter's recursion limit.
    """
    if isinstance(tokens, str):
        tokens = split_tokens(tokens)
    tokens = list(tokens)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    capacity: list[int] = []
    bonded: set[tuple[int, int]] = set()   # (low, high) atom pairs
    pos, limit = 0, len(tokens)
    prev: int | None = None
    pending = SINGLE
    # (limit, prev, pending, resume position) of each suspended chain
    suspended: list[tuple[int, int | None, int, int]] = []
    while True:
        if pos >= limit:
            if not suspended:
                break
            limit, prev, pending, pos = suspended.pop()
            continue
        tok = tokens[pos]
        pos += 1
        meaning = _TOKENS.get(tok)
        if meaning is None:
            if tok == EOS:
                break
            continue   # unknown token: skipped by policy
        kind, order, what, charge, cap = meaning
        if kind == "atom":
            requested = max(pending, order)
            pending = SINGLE
            idx = len(atoms)
            if prev is None:
                capacity.append(cap)
            else:
                order = min(requested, capacity[prev], cap)
                if order <= 0:
                    # Previous atom is saturated: this derivation level
                    # cannot continue.
                    pos = limit
                    continue
                capacity.append(cap - order)
                bonds.append(Bond(a=prev, b=idx, order=order))
                bonded.add((prev, idx))
                capacity[prev] -= order
            atoms.append(Atom(element=what, formal_charge=charge))
            prev = idx
            continue
        q = 0   # the index the operator reads from its `what` digit tokens
        for _ in range(what):
            digit = 0
            if pos < limit:
                digit = _INDEX_VALUE.get(tokens[pos], 0)
                pos += 1
            q = q * 16 + digit
        if kind == "Branch":
            length = min(q + 1, limit - pos)
            if prev is not None and capacity[prev] >= 2:
                suspended.append((limit, prev, pending, pos + length))
                limit = pos + length
                pending = order
            else:
                pos += length
        elif prev is not None:   # a Ring bond back from the previous atom
            target = max(0, prev - q - 1)
            if target == prev or (target, prev) in bonded:
                continue
            order = min(order, capacity[prev], capacity[target])
            if order > 0:
                bonds.append(Bond(a=target, b=prev, order=order))
                bonded.add((target, prev))
                capacity[prev] -= order
                capacity[target] -= order
    if not atoms:
        raise DecodeFailure("no atoms derivable from token string")
    return aromatize(Molecule(atoms, bonds))


# --- encoding -----------------------------------------------------------------


def encode_selfies(m: Molecule) -> list[str]:
    """Encode a single-fragment, stereo-free molecule as SELFIES tokens."""
    if len(m.fragments()) != 1:
        raise UnsupportedFeature("SELFIES encoding requires a single fragment")
    if m.has_stereo():
        raise UnsupportedFeature("strip stereo before SELFIES encoding")
    mk = kekulized(m)
    for i, atom in enumerate(mk.atoms):
        if atom.element not in VALENCES:
            raise UnsupportedFeature(
                f"element {atom.element} outside the SELFIES alphabet")
        if atom.isotope is not None:
            raise UnsupportedFeature("isotopes not representable in SELFIES")
        if abs(atom.formal_charge) > 1:
            raise UnsupportedFeature("charges beyond +/-1 not representable")
        default_h = default_hydrogens(atom.element, atom.formal_charge,
                                      False, mk.base_order_sum(i))
        if atom.explicit_h is not None and atom.explicit_h != default_h:
            raise UnsupportedFeature(
                "non-default hydrogen count not representable in SELFIES")

    preorder, disc, _, _, tree_bond, kids = mk.dfs_forest()

    def index_tokens(value: int) -> tuple[int, list[str]]:
        """Returns (operator size, index token list) for value."""
        digits = []
        v = value
        while v:
            digits.append(v % 16)
            v //= 16
        digits = digits[::-1] or [0]
        size = len(digits)
        if size > 3:
            raise UnsupportedFeature("molecule too large for Ring3/Branch3")
        return size, [INDEX_ALPHABET[d] for d in digits]

    # Atoms are written in DFS pre-order (position = disc). A child's disc
    # is larger than its parent's, so walking the atoms from the last
    # discovered assembles every subtree before the atom it hangs off.
    subtrees: dict[int, list[str]] = {}
    for i in reversed(preorder):
        atom = mk.atoms[i]
        order = mk.bonds[tree_bond[i]].order if tree_bond[i] >= 0 else SINGLE
        tokens = [_SPELLING["atom", order, atom.element, atom.formal_charge]]
        closures = [(disc[b.other(i)], b) for k, b in mk.incident(i)
                    if k != tree_bond[i] and disc[b.other(i)] < disc[i]]
        for d, b in sorted(closures, key=lambda c: c[0]):
            size, idx = index_tokens(disc[i] - d - 1)
            tokens.append(_SPELLING["Ring", b.order, size, 0])
            tokens.extend(idx)
        # Every subtree but the last is a branch; the last continues the chain.
        *branches, chain = [subtrees.pop(j) for j in kids[i]] or [[]]
        for sub in branches:
            size, idx = index_tokens(len(sub) - 1)
            tokens.append(_SPELLING["Branch", SINGLE, size, 0])
            tokens.extend(idx)
            tokens.extend(sub)
        tokens.extend(chain)
        subtrees[i] = tokens
    return subtrees[0]
