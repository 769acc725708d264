"""Word-level tokenizer and vocabulary.

Text splits into word tokens (alphanumeric runs) and single punctuation
characters. Four reserved surfaces occupy fixed low ids and tokenize
atomically, so detokenize followed by tokenize reproduces the exact id
sequence for any vocabulary surface form.

check_ids is the one token-id rule of the package: ids are ints in [0, V).
decode applies it, and so does every backbone op, the embedder and prompt
training, each with its model's vocabulary size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

# Reserved markers first so they survive a detokenize/tokenize round trip.
_TOKEN_RE = re.compile(r"<pad>|<bos>|<eos>|<unk>|\w+|[^\w\s]")

# Punctuation that attaches to the preceding token when rendering text.
_TIGHT = {".", ",", "!", "?", ";", ":"}


def split_text(text: str) -> list[str]:
    """Split text into surface tokens without consulting any vocabulary."""
    return _TOKEN_RE.findall(text)


def _is_int_type(kind: type) -> bool:
    return kind is int or issubclass(kind, np.integer)  # bool is a subclass of int


def check_ids(ids, size: int) -> np.ndarray:
    """ids as an intp array; ValidationError naming the first id that is not an int in [0, size).

    Python ints and NumPy integers pass; a bool, float or string does not,
    and an int too large for intp (2**70) is caught before it can raise
    OverflowError. Emptiness is each caller's rule: the backbone's sample
    packs an empty token row at its first step.
    """
    ids = list(ids)
    # one C-level pass over the ids; the per-id scans run only on failure
    if not all(map(_is_int_type, set(map(type, ids)))):
        bad = next(i for i in ids if not _is_int_type(type(i)))
        raise ValidationError(f"token id {bad!r} is not an int")
    try:
        arr = np.array(ids, dtype=np.intp)
    except OverflowError:
        arr = None
    if arr is None or (arr.size and (arr.min() < 0 or arr.max() >= size)):
        bad = next(i for i in ids if not 0 <= i < size)
        raise ValidationError(f"token id {bad} out of vocabulary range")
    return arr


@dataclass
class Vocabulary:
    """Immutable token table. tokens[i] is the surface form of id i."""

    tokens: list[str]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if list(self.tokens[: len(RESERVED)]) != list(RESERVED):
            raise ValidationError("vocabulary must start with the reserved tokens")
        self._index = {}
        for i, tok in enumerate(self.tokens):
            if tok in self._index:
                raise ValidationError(f"duplicate token surface {tok!r}")
            self._index[tok] = i

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        """Tokenize text to ids; unknown surfaces map to UNK."""
        return [self._index.get(tok, UNK) for tok in split_text(text)]

    def decode(self, ids: list[int]) -> str:
        """Render ids as text. PAD/BOS/EOS are dropped; UNK keeps its marker."""
        parts = []
        for i in check_ids(ids, len(self.tokens)).tolist():
            tok = self.tokens[i]
            if tok in ("<pad>", "<bos>", "<eos>"):
                continue
            if parts and tok in _TIGHT:
                parts[-1] += tok
            else:
                parts.append(tok)
        return " ".join(parts)


def build_vocab(texts: list[str], max_size: int = 512) -> Vocabulary:
    """Build a frequency-capped vocabulary from raw texts.

    Keeps the most frequent surfaces (ties broken alphabetically) under
    max_size including the reserved ids.
    """
    if max_size <= len(RESERVED):
        raise ValidationError("max_size leaves no room for real tokens")
    counts: dict[str, int] = {}
    for text in texts:
        for tok in split_text(text):
            if tok in RESERVED:
                continue
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - len(RESERVED)]]
    return Vocabulary(list(RESERVED) + kept)
