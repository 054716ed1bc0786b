"""Seeded input generators for the benchmark.

Every function takes a `random.Random` (or a seed) from the caller, so the
same workload seed always yields the same files and strings. Nothing here
calls chemlinker: molecules are built as small graphs from the benchmark's
own building blocks, valence-correct by construction, and written as SMILES
in a random atom order by the writer below. That keeps the inputs, and the
facts the checks rely on (planted drops, formulas, which pairs are the same
molecule), independent of the program under test.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field

AROMATIC_BOND = 4
_DEFAULT_VALENCE = {"B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2,
                    "F": 1, "Cl": 1, "Br": 1, "I": 1}
_TOKEN = re.compile(r"\[[^\]]+\]|Br|Cl|[BCNOPSFIbcnops]|[-=#]|[()]|%\d\d|\d")
_BOND_SYMBOL = {"-": 1, "=": 2, "#": 3}
_ELEMENT_IN_BRACKET = re.compile(r"\[\d*([A-Z][a-z]?|[a-z])")


def element_of(token: str) -> str:
    """Element symbol of an atom token ('c' -> 'C', '[nH]' -> 'N')."""
    if token.startswith("["):
        token = _ELEMENT_IN_BRACKET.match(token).group(1)
    return token[0].upper() + token[1:]


def element_counts(smiles: str) -> Counter:
    """Heavy-atom element counts read from a SMILES string's atom tokens.

    Used by the checks to confirm that a string the program wrote is the
    molecule that went in, without asking the program.
    """
    counts: Counter = Counter()
    for token in _TOKEN.findall(smiles):
        if token[0].isalpha() or token.startswith("["):
            element = element_of(token)
            if element != "H":
                counts[element] += 1
    return counts


@dataclass
class Mol:
    """Atom tokens plus (i, j, order) bonds; order 4 is aromatic."""

    atoms: list = field(default_factory=list)
    bonds: list = field(default_factory=list)

    def add(self, token: str, attach: int | None = None,
            order: int = 1) -> int:
        self.atoms.append(token)
        index = len(self.atoms) - 1
        if attach is not None:
            self.bonds.append((attach, index, order))
        return index

    def free_valence(self, i: int) -> int:
        token = self.atoms[i]
        if token.startswith("["):
            return 0
        used = sum(1 if o == AROMATIC_BOND else o
                   for a, b, o in self.bonds if i in (a, b))
        if token.islower():
            return {"c": 3, "n": 2}.get(token, 0) - used
        return _DEFAULT_VALENCE[token] - used

    def graft(self, other: "Mol", at: int, order: int = 1) -> None:
        """Bond atom 0 of `other` to atom `at` of this molecule."""
        offset = len(self.atoms)
        self.atoms += other.atoms
        self.bonds += [(a + offset, b + offset, o) for a, b, o in other.bonds]
        self.bonds.append((at, offset, order))

    def copy(self) -> "Mol":
        return Mol(list(self.atoms), list(self.bonds))

    def formula(self) -> Counter:
        return Counter(element_of(t) for t in self.atoms)


def parse_template(smiles: str) -> Mol:
    """Read the benchmark's own building-block SMILES (no stereo, no dots)."""
    mol = Mol()
    prev = None
    pending = None
    stack: list[int] = []
    rings: dict[str, tuple[int, int | None]] = {}
    for token in _TOKEN.findall(smiles):
        if token in _BOND_SYMBOL:
            pending = _BOND_SYMBOL[token]
        elif token == "(":
            stack.append(prev)
        elif token == ")":
            prev = stack.pop()
        elif token[0].isdigit() or token[0] == "%":
            if token in rings:
                other, order = rings.pop(token)
                order = order or pending or _implicit(mol, other, prev)
                mol.bonds.append((other, prev, order))
            else:
                rings[token] = (prev, pending)
            pending = None
        else:
            index = mol.add(token)
            if prev is not None:
                mol.bonds.append(
                    (prev, index, pending or _implicit(mol, prev, index)))
            prev = index
            pending = None
    if rings or stack or "".join(_TOKEN.findall(smiles)) != smiles:
        raise ValueError(f"bad template {smiles!r}")
    return mol


def _implicit(mol: Mol, i: int, j: int) -> int:
    aromatic = _is_aromatic(mol.atoms[i]) and _is_aromatic(mol.atoms[j])
    return AROMATIC_BOND if aromatic else 1


def _is_aromatic(token: str) -> bool:
    return token[1].islower() if token.startswith("[") else token.islower()


def to_smiles(mol: Mol, rng: random.Random) -> str:
    """Write `mol` as SMILES from a random start atom, visiting neighbours
    in random order, so each call gives a random valid atom order."""
    n = len(mol.atoms)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b, _) in enumerate(mol.bonds):
        adj[a].append((b, k))
        adj[b].append((a, k))
    for neighbours in adj:
        rng.shuffle(neighbours)
    start = rng.randrange(n)
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ring_bonds: list[list[int]] = [[] for _ in range(n)]
    seen = [False] * n
    seen[start] = True
    used = set()
    # Iterative DFS: (atom, neighbour cursor).
    stack = [(start, iter(adj[start]))]
    while stack:
        i, it = stack[-1]
        step = next(it, None)
        if step is None:
            stack.pop()
            continue
        j, k = step
        if k in used:
            continue
        used.add(k)
        if seen[j]:
            ring_bonds[j].append(k)   # opened at the ancestor...
            ring_bonds[i].append(k)   # ...closed here
            continue
        seen[j] = True
        children[i].append((j, k))
        stack.append((j, iter(adj[j])))

    out: list[str] = []
    digits: dict[int, int] = {}
    free_digits = list(range(1, 100))

    def bond_text(k: int) -> str:
        a, b, order = mol.bonds[k]
        if order == 1:
            return "-" if _is_aromatic(mol.atoms[a]) and \
                _is_aromatic(mol.atoms[b]) else ""
        return {2: "=", 3: "#", AROMATIC_BOND: ""}[order]

    def digit_text(d: int) -> str:
        return str(d) if d < 10 else f"%{d}"

    # Emission in the same preorder as the DFS, again without recursion.
    todo: list = [(start, None)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        i, k_in = item
        if k_in is not None:
            out.append(bond_text(k_in))
        out.append(mol.atoms[i])
        closing = [k for k in ring_bonds[i] if k in digits]
        freed = [digits.pop(k) for k in closing]
        out += [digit_text(d) for d in freed]
        for k in ring_bonds[i]:
            if k not in closing:
                digits[k] = min(free_digits)
                free_digits.remove(digits[k])
                out.append(bond_text(k) + digit_text(digits[k]))
        # A digit closed here is reused from the next atom on, never
        # closed and reopened on one atom.
        free_digits += freed
        kids = children[i]
        for idx in range(len(kids) - 1, -1, -1):
            j, k = kids[idx]
            if idx < len(kids) - 1:
                todo.append(")")
                todo.append((j, k))
                todo.append("(")
            else:
                todo.append((j, k))
    return "".join(out)


# --- molecule families -----------------------------------------------------------

RING_TEMPLATES = [
    "c1ccccc1", "c1ccncc1", "c1ccsc1", "c1ccoc1", "c1cc[nH]c1",
    "C1CCCCC1", "C1CCNCC1", "C1CCOC1", "C1CC1", "C1CCCC1",
    "c1ccc2ccccc2c1", "C1CCC2CCCCC2C1",
]
_CHAIN_ATOMS = ["C", "C", "C", "C", "C", "N", "O", "S"]
_GROUPS = ["C(=O)O", "C(=O)N", "C#N", "F", "Cl", "Br", "OC", "N(C)C"]

# Larger, ring-rich or moderately symmetric molecules: a steroid core
# (estradiol), a di-tert-butyl phenol, adamantanol and a sugar, plus the
# long diesters built by `long_diester`. Each costs the program 20-300 ms to
# canonicalize, against about 3 ms for a corpus-sized molecule.
LARGE_TEMPLATES = [
    "CC12CCC3c4ccc(O)cc4CCC3C1CCC2O",
    "CC(C)(C)c1ccc(O)c(C(C)(C)C)c1",
    "OC12CC3CC(CC(C3)C1)C2",
    "OCC1OC(OC2(CO)OC(CO)C(O)C2O)C(O)C(O)C1O",
]


def _attach_points(mol: Mol, need: int = 1) -> list[int]:
    return [i for i in range(len(mol.atoms)) if mol.free_valence(i) >= need]


def _chain(rng: random.Random, length: int) -> Mol:
    mol = Mol()
    prev = None
    for _ in range(length):
        token = rng.choice(_CHAIN_ATOMS)
        order = 1
        if prev is not None and token == "C" and mol.atoms[prev] == "C":
            roll = rng.random()
            if roll < 0.04 and mol.free_valence(prev) >= 3:
                order = 3
            elif roll < 0.16 and mol.free_valence(prev) >= 2:
                order = 2
        if prev is not None and mol.free_valence(prev) < order:
            break
        prev = mol.add(token, prev, order)
    return mol


def _graft_somewhere(rng: random.Random, mol: Mol, part: Mol) -> bool:
    points = _attach_points(mol)
    if not points or part.free_valence(0) < 1:
        return False
    mol.graft(part, rng.choice(points))
    return True


def small_molecule(rng: random.Random) -> Mol:
    """A corpus-sized molecule: 1-20 heavy atoms, at most one ring system."""
    mol = _chain(rng, rng.randint(1, 6))
    if rng.random() < 0.6:
        _graft_somewhere(rng, mol, parse_template(rng.choice(RING_TEMPLATES)))
    if rng.random() < 0.35:
        _graft_somewhere(rng, mol, _chain(rng, rng.randint(1, 4)))
    if rng.random() < 0.3:
        _graft_somewhere(rng, mol, parse_template(rng.choice(_GROUPS)))
    return mol


def long_diester(rng: random.Random) -> Mol:
    """Two fatty chains on an ethylene glycol diester, at most 78 characters."""
    left = rng.randint(8, 24)
    right = rng.randint(8, 56 - left)
    return parse_template("C" * left + "C(=O)OCCOC(=O)" + "C" * right)


def large_molecules(rng: random.Random) -> list[Mol]:
    """One of each large family, in a fixed order."""
    return [parse_template(t) for t in LARGE_TEMPLATES] + [long_diester(rng)]


def with_extra_atom(rng: random.Random, mol: Mol) -> Mol:
    """A near variant: one more heavy atom, so its formula always differs."""
    variant = mol.copy()
    points = _attach_points(variant)
    if not points:
        raise ValueError("molecule has no free valence")
    variant.add(rng.choice(["C", "O", "N"]), rng.choice(points))
    return variant


def has_free_valence(mol: Mol) -> bool:
    return bool(_attach_points(mol))


# --- descriptions ------------------------------------------------------------------

_FILLER = ("it has been characterized by nuclear magnetic resonance and mass "
           "spectrometry in several independent laboratory studies and serves "
           "as a reference structure for method development").split()


def _feature_words(mol: Mol) -> list[str]:
    formula = mol.formula()
    size = len(mol.atoms)
    words = ["small" if size < 8 else "medium" if size < 16 else "large"]
    words.append("aromatic" if any(_is_aromatic(t) for t in mol.atoms)
                 else "aliphatic")
    rings = len(mol.bonds) - len(mol.atoms) + 1
    words += ["acyclic"] if rings == 0 else ["cyclic", f"with{min(rings, 4)}rings"]
    for element, word in (("N", "nitrogen"), ("O", "oxygen"), ("S", "sulfur"),
                          ("F", "fluoro"), ("Cl", "chloro"), ("Br", "bromo")):
        if formula[element]:
            words.append(word)
    if any(o == 2 for _, _, o in mol.bonds):
        words.append("unsaturated")
    return words


def describe(mol: Mol, tag: str, rng: random.Random, words: int) -> str:
    """A description of exactly `words` words that mentions `tag` once.

    Half start with a name clause ("Compound <tag> is ...") that curation
    rewrites to "This molecule is ...", the rest start with that phrase.
    """
    features = _feature_words(mol)
    if rng.random() < 0.5:
        head = ["Compound", tag, "is", "a"]
    else:
        head = ["This", "molecule", "is", "a", tag]
    body = features + ["compound"]
    tail = list(_FILLER)
    text = head + body
    while len(text) < words:
        text.append(tail[(len(text) - len(head) - len(body)) % len(tail)])
    return " ".join(text[:words])


PROMPT_WORDS = 36


def prompt_for(mol: Mol, rng: random.Random) -> str:
    """The text a user gives `chemlinker generate` for a wanted molecule:
    its feature words, then the filler from a random word, 36 words in all
    (prompt length sets the cost of every sampled token)."""
    words = ["This", "molecule", "is", "a"] + _feature_words(mol) + \
        ["compound"]
    start = rng.randrange(len(_FILLER))
    filler = (_FILLER * 3)[start:]
    return " ".join(words + filler[:PROMPT_WORDS - len(words)])


# --- curation input (`chemlinker dataset`) -----------------------------------------

# Drop rules the generator plants, keyed as in the curation report.
PUBCHEM_RULES = ("short_description", "drop_phrase", "unparseable",
                 "one_to_many", "excluded")


@dataclass
class CurationInput:
    tsv: str
    exclusion: str
    planted: dict          # rule -> records planted to be dropped by it
    survivors: list        # CIDs that must survive, in file order
    formulas: dict         # survivor CID -> heavy-atom element counts
    kept: list             # CID of each `kept` molecule, in the order given


def _broken(rng: random.Random, smiles: str) -> str:
    """A string that cannot parse: an unclosed ring bond or branch."""
    return smiles + "1" if rng.random() < 0.5 else "C(" + smiles


def curation_input(rng: random.Random, kept: list, plant: dict,
                   prefix: str, words=(34, 56)) -> CurationInput:
    """A `CID<TAB>SMILES<TAB>description` file with planted drops.

    `kept` molecules survive every rule. `plant` gives per-rule counts for
    short_description, drop_phrase, unparseable, excluded and
    disallowed_element (records) and one_to_many (pairs of records sharing
    one description over two molecules of different formula).
    """
    rows = []   # (cid, smiles, description, fate)
    serial = iter(range(10**6))

    def tag() -> str:
        return f"{prefix}{next(serial)}"

    def long_words() -> int:
        return rng.randint(*words)

    kept_cids = []
    for mol in kept:
        t = tag()
        kept_cids.append(t)
        rows.append((t, to_smiles(mol, rng), describe(mol, t, rng,
                                                      long_words()), mol))
    for _ in range(plant.get("short_description", 0)):
        mol, t = small_molecule(rng), tag()
        rows.append((t, to_smiles(mol, rng), describe(mol, t, rng,
                                                      rng.randint(6, 30)),
                     "short_description"))
    for _ in range(plant.get("drop_phrase", 0)):
        mol, t = small_molecule(rng), tag()
        text = describe(mol, t, rng, long_words() - 4).split()
        cut = rng.randint(4, len(text))
        text[cut:cut] = ["isolated", "as", "a", rng.choice(
            ["natural product", "Natural Product", "natural Product"])]
        rows.append((t, to_smiles(mol, rng), " ".join(text), "drop_phrase"))
    for _ in range(plant.get("unparseable", 0)):
        mol, t = small_molecule(rng), tag()
        rows.append((t, _broken(rng, to_smiles(mol, rng)),
                     describe(mol, t, rng, long_words()), "unparseable"))
    for _ in range(plant.get("one_to_many", 0)):
        mol = small_molecule(rng)
        while not has_free_valence(mol):
            mol = small_molecule(rng)
        t = tag()
        text = describe(mol, t, rng, long_words())
        for member in (mol, with_extra_atom(rng, mol)):
            rows.append((tag(), to_smiles(member, rng), text, "one_to_many"))
    for _ in range(plant.get("disallowed_element", 0)):
        mol = small_molecule(rng)
        while not has_free_valence(mol):
            mol = small_molecule(rng)
        mol.add(rng.choice(["P", "I"]), rng.choice(_attach_points(mol)))
        t = tag()
        rows.append((t, to_smiles(mol, rng), describe(mol, t, rng,
                                                      long_words()),
                     "disallowed_element"))
    # Excluded molecules have a formula no other record has, so nothing
    # else in the file can share their canonical form.
    taken = {frozenset(_formula_of(r).items()) for r in rows}
    exclusion = []
    for _ in range(plant.get("excluded", 0)):
        mol = small_molecule(rng)
        while frozenset(mol.formula().items()) in taken:
            mol = small_molecule(rng)
        taken.add(frozenset(mol.formula().items()))
        t = tag()
        rows.append((t, to_smiles(mol, rng), describe(mol, t, rng,
                                                      long_words()),
                     "excluded"))
        exclusion.append(to_smiles(mol, rng))
    rng.shuffle(rows)

    planted = {rule: sum(1 for r in rows if r[3] == rule)
               for rule in PUBCHEM_RULES + ("disallowed_element",)}
    lines = ["CID\tSMILES\tdescription"]
    lines += [f"{cid}\t{smi}\t{text}" for cid, smi, text, _ in rows]
    kept_rows = [r for r in rows if isinstance(r[3], Mol)]
    return CurationInput(
        tsv="\n".join(lines) + "\n",
        exclusion="\n".join(exclusion) + "\n",
        planted=planted,
        survivors=[r[0] for r in kept_rows],
        formulas={r[0]: r[3].formula() for r in kept_rows},
        kept=kept_cids)


def _formula_of(row) -> Counter:
    fate = row[3]
    if isinstance(fate, Mol):
        return fate.formula()
    return element_counts(row[1])


def expected_report(inp: CurationInput) -> dict:
    """The report `chemlinker dataset --report` must write for `inp`."""
    p = inp.planted
    total = len(inp.tsv.splitlines()) - 1
    pubchem_out = total - sum(p[r] for r in PUBCHEM_RULES)
    return {
        "pubchem": {"input": total, **{r: p[r] for r in PUBCHEM_RULES},
                    "output": pubchem_out},
        "compat": {"input": pubchem_out, "unparseable": 0,
                   "disallowed_element": p["disallowed_element"],
                   "untokenizable": 0,
                   "output": pubchem_out - p["disallowed_element"]},
        "sampled": None,
    }


# --- evaluation pairs (`chemlinker eval`) ------------------------------------------


@dataclass
class EvalInput:
    generated: list        # --pred lines: near variants or unparseable strings
    reference: list        # --ref lines
    n_invalid: int         # planted unparseable generated strings
    same: list             # "a<TAB>b" rows: one molecule in two atom orders
    swapped: list          # "reference<TAB>generated" rows of the valid pairs
    originals: list        # (molecule index, SMILES) for every molecule


def eval_input(rng: random.Random, molecules: list, n_small: int,
               n_invalid: int) -> EvalInput:
    """Split the molecules between two pair sets, the same way every seed.

    Half the corpus-sized molecules (the first `n_small`) and the large
    molecules at even positions after them are references against a near
    variant with one more atom; `n_invalid` of those corpus-sized ones get
    an unparseable generated string instead. The other molecules are paired
    with themselves in a second atom order.
    """
    small = list(range(n_small))
    rng.shuffle(small)
    half = n_small // 2
    variant_side = small[:half] + [i for i in range(n_small, len(molecules))
                                   if (i - n_small) % 2 == 0]
    invalid = set(small[:n_invalid])
    generated, reference, same, swapped, originals = [], [], [], [], []
    for i, mol in enumerate(molecules):
        first = to_smiles(mol, rng)
        originals.append((i, first))
        if i in variant_side and (i in invalid or has_free_valence(mol)):
            if i in invalid:
                gen = _broken(rng, to_smiles(mol, rng))
            else:
                gen = to_smiles(with_extra_atom(rng, mol), rng)
                swapped.append(f"{first}\t{gen}")
            generated.append(gen)
            reference.append(first)
        else:
            same.append(f"{first}\t{to_smiles(mol, rng)}")
    return EvalInput(generated, reference, len(invalid), same, swapped,
                     originals)


# --- score table (`chemlinker consensus`) ------------------------------------------

PROGRAMS = {"vina": "lower", "glide": "lower", "dock6": "lower",
            "gold": "higher", "plp": "higher"}


def score_table(rng: random.Random, n_molecules: int,
                missing: float = 0.08) -> list:
    """(molecule_id, program, score) rows. Scores carry one decimal, so
    programs tie; each program misses about `missing` of the molecules,
    and every molecule keeps at least one score."""
    rows = []
    for m in range(n_molecules):
        mol_id = f"mol{m:05d}"
        present = [p for p in PROGRAMS if rng.random() >= missing]
        if not present:
            present = [rng.choice(list(PROGRAMS))]
        for program in present:
            centre = -8.0 if PROGRAMS[program] == "lower" else 60.0
            spread = 1.5 if PROGRAMS[program] == "lower" else 12.0
            rows.append((mol_id, program,
                         round(rng.gauss(centre, spread), 1)))
    rng.shuffle(rows)
    return rows
