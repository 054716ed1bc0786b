"""Molecular fingerprints: circular environments, linear paths, structural keys.

Hashing is bit-exact and language-neutral. Every environment or path is
serialized to a byte string made of little-endian u32 fields — per atom:
element number, formal charge (two's complement), heavy-atom degree,
hydrogen count; bond orders interleaved along the traversal — then hashed
with 64-bit FNV-1a; the bit index is the hash modulo the bit width.
Children of a circular environment are ordered by (bond order, serialized
child bytes), and each undirected path is hashed in the smaller of its two
byte directions, which makes every scheme invariant under atom relabeling.
The hash is folded a field at a time, and a path's hash is carried down the
walk one step at a time. For a power-of-two width the fold keeps only the
low bits the bit index needs; any other width keeps all 64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from chemlinker.errors import SchemeMismatch
from chemlinker.molstring.model import (
    AROMATIC,
    DOUBLE,
    ELEMENT_NUMBERS,
    TRIPLE,
    Molecule,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1
_FNV_PRIME4 = pow(_FNV_PRIME, 4, 1 << 64)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def _u32(value: int) -> bytes:
    return struct.pack("<I", value & 0xFFFFFFFF)


def _atom_fields(m: Molecule, i: int) -> tuple:
    a = m.atoms[i]
    return (ELEMENT_NUMBERS[a.element], a.formal_charge & 0xFFFFFFFF,
            m.degree(i), m.hydrogen_count(i))


@dataclass(frozen=True)
class FingerprintBitset:
    """Bit vector plus the scheme metadata that makes it comparable."""

    scheme: str                 # "circular" | "path" | "keys"
    nbits: int
    bits: frozenset
    params: tuple

    def to_hex(self) -> str:
        """Serialize as `<tag>/<nbits>:<hex>`; bit i lives at byte i>>3, bit i&7."""
        buf = bytearray((self.nbits + 7) // 8)
        for bit in self.bits:
            buf[bit >> 3] |= 1 << (bit & 7)
        return f"{self._tag()}/{self.nbits}:{bytes(buf).hex()}"

    def _tag(self) -> str:
        if self.scheme == "circular":
            return f"circ{self.params[0]}"
        if self.scheme == "path":
            return f"path{self.params[0]}"
        return f"keys-{self.params[0]}"


MAX_NBITS = 1 << 16


def _check_nbits(nbits: int) -> None:
    if not 1 <= nbits <= MAX_NBITS:
        raise ValueError(f"nbits must be in [1, {MAX_NBITS}]")


def _mask(nbits: int) -> int:
    """The bits of FNV-1a state that decide `hash % nbits`.

    The low k bits of a product depend only on the low k bits of its
    factors, so a width of 2**k needs only k bits of state.
    """
    return nbits - 1 if nbits & (nbits - 1) == 0 else _U64


def _fold(h: int, fields, mask: int) -> int:
    """Continue FNV-1a state `h` over little-endian u32 `fields`, under `mask`.

    A field below 256 is one byte and three zero bytes, and XOR with zero
    changes nothing, so it costs one XOR and one multiply by P**4.
    """
    prime, prime4 = _FNV_PRIME & mask, _FNV_PRIME4 & mask
    for value in fields:
        if value < 256:
            h = ((h ^ value) * prime4) & mask
        else:
            for shift in (0, 8, 16, 24):
                h = ((h ^ (value >> shift & 0xFF)) * prime) & mask
    return h


def _bits(strings, nbits: int) -> frozenset:
    mask = _mask(nbits)
    start = _FNV_OFFSET & mask
    return frozenset(
        _fold(start, struct.unpack(f"<{len(s) >> 2}I", s), mask) % nbits
        for s in strings)


def circular_fp(m: Molecule, radius: int = 2,
                nbits: int = 2048) -> FingerprintBitset:
    """Hash every atom-centered environment of radius 0..radius."""
    if not 0 <= radius <= 4:
        raise ValueError("radius must be in [0, 4]")
    _check_nbits(nbits)
    atom = [struct.pack("<4I", *_atom_fields(m, i))
            for i in range(len(m.atoms))]
    built = {}

    def environment(i: int, parent: int | None, depth: int) -> bytes:
        """Serialized rooted environment tree; no immediate backtracking."""
        key = (i, parent, depth)
        out = built.get(key)
        if out is None:
            out = atom[i]
            if depth:
                branches = sorted((b.order, environment(j, i, depth - 1))
                                  for _, b in m.incident(i)
                                  if (j := b.other(i)) != parent)
                for order, child in branches:
                    out += _u32(order) + child
            built[key] = out
        return out

    strings = {environment(i, None, r)
               for i in range(len(m.atoms)) for r in range(radius + 1)}
    return FingerprintBitset("circular", nbits, _bits(strings, nbits),
                             (radius,))


def path_fp(m: Molecule, max_len: int = 7,
            nbits: int = 2048) -> FingerprintBitset:
    """Hash all simple linear bond paths of length 1..max_len."""
    if not 1 <= max_len <= 7:
        raise ValueError("max_len must be in [1, 7]")
    _check_nbits(nbits)
    mask = _mask(nbits)
    fields = [_atom_fields(m, i) for i in range(len(m.atoms))]
    atom = [struct.pack("<4I", *f) for f in fields]
    # Per neighbour j of atom i: the fields a step to j folds into the
    # forward hash, and the bytes it appends to the forward string and
    # prepends to the reverse one.
    steps = [[] for _ in m.atoms]
    for b in m.bonds:
        order = _u32(b.order)
        for i, j in ((b.a, b.b), (b.b, b.a)):
            steps[i].append((j, (b.order, *fields[j]),
                             order + atom[j], atom[j] + order))
    bits = set()

    def extend(path: list[int], h: int, forward: bytes,
               reverse: bytes) -> None:
        more = len(path) < max_len
        for j, step, ahead, behind in steps[path[-1]]:
            if j in path:
                continue
            g = _fold(h, step, mask)
            fwd = forward + ahead
            rev = behind + reverse
            # Each undirected path is walked from both ends, so this sets
            # the bit of its smaller spelling (a palindrome's twice).
            if fwd <= rev:
                bits.add(g % nbits)
            if more:
                path.append(j)
                extend(path, g, fwd, rev)
                path.pop()

    start = _FNV_OFFSET & mask
    for i in range(len(m.atoms)):
        extend([i], _fold(start, fields[i], mask), atom[i], atom[i])
    return FingerprintBitset("path", nbits, frozenset(bits), (max_len,))


# --- structural keys -----------------------------------------------------------


@dataclass(frozen=True)
class KeySet:
    """Ordered list of named structural predicates over a Molecule."""

    keyset_id: str
    keys: tuple          # of (name, predicate)

    def __len__(self) -> int:
        return len(self.keys)


def _count(m: Molecule, element: str) -> int:
    return sum(a.element == element for a in m.atoms)


def _has_bond(m: Molecule, order: int, elems: set | None = None) -> bool:
    for b in m.bonds:
        if b.order != order:
            continue
        if elems is None:
            return True
        if {m.atoms[b.a].element, m.atoms[b.b].element} == elems:
            return True
    return False


def _ring_elements(m: Molecule) -> set:
    return {a.element for a, ring in zip(m.atoms, m.ring_atom_flags()) if ring}


def default_keyset() -> KeySet:
    """The shipped ~40-predicate structural key set (id ``default-v1``)."""
    halogens = ("F", "Cl", "Br", "I")
    keys = []

    for el in ("C", "N", "O", "S", "P", "B", "F", "Cl", "Br", "I"):
        keys.append((f"has_{el}", lambda m, el=el: _count(m, el) > 0))
    keys.append(("n_ge2", lambda m: _count(m, "N") >= 2))
    keys.append(("o_ge2", lambda m: _count(m, "O") >= 2))
    keys.append(("o_ge3", lambda m: _count(m, "O") >= 3))
    keys.append(("halogen_ge2",
                 lambda m: sum(_count(m, h) for h in halogens) >= 2))
    keys.append(("heteroatom_present",
                 lambda m: any(a.element != "C" for a in m.atoms)))

    keys.append(("has_ring", lambda m: bool(m.ring_bonds())))
    keys.append(("ring_count_ge2", lambda m: len(m.smallest_rings()) >= 2))
    for size in (3, 4, 5, 6, 7):
        keys.append((f"ring_size_{size}",
                     lambda m, size=size: any(len(r) == size
                                              for r in m.smallest_rings())))
    keys.append(("aromatic_ring",
                 lambda m: any(b.order == AROMATIC for b in m.bonds)))
    keys.append(("aromatic_n",
                 lambda m: any(a.aromatic and a.element == "N"
                               for a in m.atoms)))
    keys.append(("aromatic_heteroatom",
                 lambda m: any(a.aromatic and a.element != "C"
                               for a in m.atoms)))
    for el in ("N", "O", "S"):
        keys.append((f"{el.lower()}_in_ring",
                     lambda m, el=el: el in _ring_elements(m)))
    keys.append(("heteroatom_in_ring",
                 lambda m: bool(_ring_elements(m) - {"C"})))

    keys.append(("positive_charge",
                 lambda m: any(a.formal_charge > 0 for a in m.atoms)))
    keys.append(("negative_charge",
                 lambda m: any(a.formal_charge < 0 for a in m.atoms)))
    keys.append(("any_charge",
                 lambda m: any(a.formal_charge for a in m.atoms)))

    keys.append(("double_bond", lambda m: _has_bond(m, DOUBLE)))
    keys.append(("triple_bond", lambda m: _has_bond(m, TRIPLE)))
    keys.append(("carbonyl", lambda m: _has_bond(m, DOUBLE, {"C", "O"})))
    keys.append(("c_eq_n", lambda m: _has_bond(m, DOUBLE, {"C", "N"})))
    keys.append(("s_eq_o", lambda m: _has_bond(m, DOUBLE, {"S", "O"})))
    keys.append(("hydroxyl",
                 lambda m: any(a.element == "O" and m.hydrogen_count(i) >= 1
                               and m.degree(i) == 1
                               for i, a in enumerate(m.atoms))))
    keys.append(("primary_or_secondary_amine",
                 lambda m: any(a.element == "N" and not a.aromatic
                               and m.hydrogen_count(i) >= 1
                               for i, a in enumerate(m.atoms))))
    keys.append(("quaternary_center",
                 lambda m: any(m.degree(i) >= 4
                               for i in range(len(m.atoms)))))
    keys.append(("branch_points_ge2",
                 lambda m: sum(m.degree(i) >= 3
                               for i in range(len(m.atoms))) >= 2))
    keys.append(("size_ge10", lambda m: len(m.atoms) >= 10))
    keys.append(("size_ge20", lambda m: len(m.atoms) >= 20))
    keys.append(("multi_fragment", lambda m: len(m.fragments()) > 1))

    return KeySet("default-v1", tuple(keys))


_DEFAULT_KEYSET = None


def key_fp(m: Molecule, keys: KeySet | None = None) -> FingerprintBitset:
    """Evaluate every predicate; bit k is set iff predicate k holds."""
    global _DEFAULT_KEYSET
    if keys is None:
        if _DEFAULT_KEYSET is None:
            _DEFAULT_KEYSET = default_keyset()
        keys = _DEFAULT_KEYSET
    nbits = 64
    while nbits < len(keys):
        nbits *= 2
    bits = frozenset(k for k, (_, pred) in enumerate(keys.keys) if pred(m))
    return FingerprintBitset("keys", nbits, bits, (keys.keyset_id,))


def tanimoto(a: FingerprintBitset, b: FingerprintBitset) -> float:
    """|a AND b| / |a OR b|; 1.0 when both bitsets are empty."""
    if (a.scheme, a.params, a.nbits) != (b.scheme, b.params, b.nbits):
        raise SchemeMismatch(
            f"cannot compare {a._tag()}/{a.nbits} with {b._tag()}/{b.nbits}")
    union = len(a.bits | b.bits)
    if union == 0:
        return 1.0
    return len(a.bits & b.bits) / union
