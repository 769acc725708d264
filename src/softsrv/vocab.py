"""Word-level tokenizer and vocabulary.

Text splits into word tokens (alphanumeric runs) and single punctuation
characters. Four reserved surfaces occupy fixed low ids and tokenize
atomically, so detokenize followed by tokenize reproduces the exact id
sequence for any vocabulary surface form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

    def token_for(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValidationError(f"token id {token_id} out of range")
        return self.tokens[token_id]

    def encode(self, text: str) -> list[int]:
        """Tokenize text to ids; unknown surfaces map to UNK."""
        return [self._index.get(tok, UNK) for tok in split_text(text)]

    def decode(self, ids: list[int]) -> str:
        """Render ids as text. PAD/BOS/EOS are dropped; UNK keeps its marker."""
        parts = []
        for i in ids:
            tok = self.token_for(int(i))
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
