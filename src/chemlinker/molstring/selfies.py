"""SELFIES-style robust molecular token strings.

The dialect is a derivation-state machine over the package valence table.
Branch and Ring operators read base-16 index tokens (one per Branch1/Ring1,
two per Branch2/Ring2, three per Branch3/Ring3); bond orders are capped to
the remaining valence of both endpoints, dangling branch/ring payloads are
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

_ORDER_PREFIX = {"": SINGLE, "=": DOUBLE, "#": TRIPLE}
_PREFIX_OF = {SINGLE: "", DOUBLE: "=", TRIPLE: "#"}

_ATOM_RE = re.compile(
    r"\[(?P<prefix>[=#]?)(?P<element>B|C|N|O|P|S|F|Cl|Br|I)"
    r"(?P<charge>[+-]1)?\]")
_BRANCH_RE = re.compile(r"\[(?P<prefix>[=#]?)Branch(?P<size>[123])\]")
_RING_RE = re.compile(r"\[(?P<prefix>[=#]?)Ring(?P<size>[123])\]")
_TOKEN_RE = re.compile(r"\[[^\[\]]*\]")


def token_alphabet() -> list[str]:
    """Every token the decoder gives meaning to."""
    tokens = []
    for el in VALENCES:
        for prefix in ("", "=", "#"):
            for charge in ("", "+1", "-1"):
                tokens.append(f"[{prefix}{el}{charge}]")
    for kind in ("Branch", "Ring"):
        for prefix in ("", "=", "#"):
            for size in "123":
                tokens.append(f"[{prefix}{kind}{size}]")
    tokens.append(EOS)
    return tokens


def split_tokens(text: str) -> list[str]:
    """Split a concatenated bracket-token string into tokens."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise DecodeFailure(f"not a bracket token string: {text!r}")
    return tokens


def _capacity(element: str, charge: int) -> int:
    return max(allowed_valences(element, charge))


# --- decoding ----------------------------------------------------------------


class _Deriver:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.capacity: list[int] = []
        self.bonded: set[tuple[int, int]] = set()   # (low, high) atom pairs
        self.stopped = False

    def derive(self) -> None:
        """Derive the main chain from all tokens, branches included.

        A branch is derived in place with its own (limit, previous atom,
        pending bond order) and the outer chain resumes after its payload;
        the suspended chains sit on an explicit stack, so branch nesting
        depth is not bounded by the interpreter's recursion limit.
        """
        pos, limit = 0, len(self.tokens)
        prev: int | None = None
        pending = SINGLE
        # (limit, prev, pending, resume position) of each suspended chain
        suspended: list[tuple[int, int | None, int, int]] = []
        while True:
            if pos >= limit or self.stopped:
                if not suspended:
                    return
                limit, prev, pending, pos = suspended.pop()
                continue
            tok = self.tokens[pos]
            if tok == EOS:
                self.stopped = True
                continue
            m = _ATOM_RE.fullmatch(tok)
            if m:
                pos += 1
                charge = int(m.group("charge") or 0)
                requested = max(pending, _ORDER_PREFIX[m.group("prefix")])
                pending = SINGLE
                cap = _capacity(m.group("element"), charge)
                if prev is not None:
                    order = min(requested, self.capacity[prev], cap)
                    if order <= 0:
                        # Previous atom is saturated: this derivation level
                        # cannot continue.
                        pos = limit
                        continue
                else:
                    order = 0
                idx = len(self.atoms)
                self.atoms.append(Atom(element=m.group("element"),
                                       formal_charge=charge))
                self.capacity.append(cap - order)
                if prev is not None:
                    self.bonds.append(Bond(a=prev, b=idx, order=order))
                    self.bonded.add((prev, idx))
                    self.capacity[prev] -= order
                prev = idx
                continue
            m = _BRANCH_RE.fullmatch(tok)
            if m:
                pos += 1
                q, pos = self._read_index(pos, int(m.group("size")), limit)
                length = min(q + 1, limit - pos)
                if prev is not None and self.capacity[prev] >= 2:
                    suspended.append((limit, prev, pending, pos + length))
                    limit = pos + length
                    pending = _ORDER_PREFIX[m.group("prefix")]
                else:
                    pos += length
                continue
            m = _RING_RE.fullmatch(tok)
            if m:
                pos += 1
                q, pos = self._read_index(pos, int(m.group("size")), limit)
                if prev is not None:
                    self._close_ring(prev, q + 1,
                                     _ORDER_PREFIX[m.group("prefix")])
                continue
            pos += 1   # unknown token: skipped by policy

    def _read_index(self, pos: int, n_digits: int,
                    limit: int) -> tuple[int, int]:
        value = 0
        for _ in range(n_digits):
            digit = 0
            if pos < limit:
                digit = _INDEX_VALUE.get(self.tokens[pos], 0)
                pos += 1
            value = value * 16 + digit
        return value, pos

    def _close_ring(self, cur: int, distance: int, order: int) -> None:
        target = max(0, cur - distance)
        if target == cur:
            return
        if (target, cur) in self.bonded:
            return
        order = min(order, self.capacity[cur], self.capacity[target])
        if order <= 0:
            return
        self.bonds.append(Bond(a=target, b=cur, order=order))
        self.bonded.add((target, cur))
        self.capacity[cur] -= order
        self.capacity[target] -= order


def decode_selfies(tokens) -> Molecule:
    """Decode a token string (list of tokens or concatenated string).

    Raises DecodeFailure only when no atom can be derived; every other
    input decodes to a valence-valid Molecule.
    """
    if isinstance(tokens, str):
        tokens = split_tokens(tokens)
    deriver = _Deriver(list(tokens))
    deriver.derive()
    if not deriver.atoms:
        raise DecodeFailure("no atoms derivable from token string")
    mol = Molecule(deriver.atoms, deriver.bonds)
    return aromatize(mol)


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

    def atom_token(i: int) -> str:
        atom = mk.atoms[i]
        order = mk.bonds[tree_bond[i]].order if tree_bond[i] >= 0 else SINGLE
        charge = ""
        if atom.formal_charge:
            charge = f"{'+' if atom.formal_charge > 0 else '-'}1"
        return f"[{_PREFIX_OF[order]}{atom.element}{charge}]"

    def index_tokens(value: int) -> tuple[str, list[str]]:
        """Returns (operator size char, index token list) for value."""
        digits = []
        v = value
        while v:
            digits.append(v % 16)
            v //= 16
        digits = digits[::-1] or [0]
        size = len(digits)
        if size > 3:
            raise UnsupportedFeature("molecule too large for Ring3/Branch3")
        return str(size), [INDEX_ALPHABET[d] for d in digits]

    # Atoms are written in DFS pre-order (position = disc). A child's disc
    # is larger than its parent's, so walking the atoms from the last
    # discovered assembles every subtree before the atom it hangs off.
    subtrees: dict[int, list[str]] = {}
    for i in reversed(preorder):
        tokens = [atom_token(i)]
        closures = [(disc[b.other(i)], b) for k, b in mk.incident(i)
                    if k != tree_bond[i] and disc[b.other(i)] < disc[i]]
        for d, b in sorted(closures, key=lambda c: c[0]):
            size, idx = index_tokens(disc[i] - d - 1)
            tokens.append(f"[{_PREFIX_OF[b.order]}Ring{size}]")
            tokens.extend(idx)
        # Every subtree but the last is a branch; the last continues the chain.
        *branches, chain = [subtrees.pop(j) for j in kids[i]] or [[]]
        for sub in branches:
            size, idx = index_tokens(len(sub) - 1)
            tokens.append(f"[Branch{size}]")
            tokens.extend(idx)
            tokens.extend(sub)
        tokens.extend(chain)
        subtrees[i] = tokens
    return subtrees[0]
