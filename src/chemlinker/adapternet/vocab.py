"""Token vocabularies for the text encoder and the molecule decoder."""

from __future__ import annotations

from chemlinker.errors import VocabError

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)

# Character alphabet covering the supported SMILES feature set.
SMILES_CHARS = tuple(
    "BCNOPSFIbcnops" "lr"        # element letters (Cl/Br via l, r)
    "0123456789%()[]@+-=#/\\." "H"
)


class Vocab:
    """Ordered token table with reserved pad/bos/eos (+ optional unk)."""

    def __init__(self, tokens, with_unk: bool = False):
        specials = [PAD, BOS, EOS] + ([UNK] if with_unk else [])
        self.tokens = specials + [t for t in tokens if t not in SPECIALS]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabError("duplicate tokens in vocabulary")
        self.pad = self.index[PAD]
        self.bos = self.index[BOS]
        self.eos = self.index[EOS]
        self.unk = self.index.get(UNK)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        """Ids of input tokens. A token that spells a special one is not
        that special: it is unknown, like any token outside the table."""
        ids = []
        for t in tokens:
            i = self.unk if t in SPECIALS else self.index.get(t, self.unk)
            if i is None:
                raise VocabError(f"token {t!r} not in vocabulary")
            ids.append(i)
        return ids

    def decode(self, ids) -> list[str]:
        out = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise VocabError(f"token id {i} out of range")
            out.append(self.tokens[i])
        return out


def smiles_char_vocab() -> Vocab:
    """Character-level vocabulary over the supported SMILES alphabet."""
    return Vocab(SMILES_CHARS)


def word_vocab(texts, with_unk: bool = True) -> Vocab:
    """Whitespace word-level vocabulary built from a text corpus."""
    seen: dict[str, None] = {}
    for text in texts:
        for word in text.split():
            seen.setdefault(word, None)
    return Vocab(list(seen), with_unk=with_unk)
