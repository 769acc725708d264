"""Synthetic-example records and their line-delimited serialization.

One JSON object per line, keys sorted, UTF-8, embedded newlines escaped by
JSON itself. Records carry detokenized text plus provenance; token ids are
re-derivable because the tokenizer's render/split pair is stable for every
vocabulary surface form. SyntheticRecord holds the one validator of every
field, types included: read_records only parses a line, checks that it is
an object with every field, and constructs the record from it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import RecordFormatError, ValidationError

METHOD_TAGS = ("SS_NP", "SS_MP", "SS_MC", "PT", "PT_SR")


@dataclass
class SyntheticRecord:
    question: str
    seed_index: int
    method_tag: str
    answer: str | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.question, str) or not self.question:
            raise ValidationError("record question must be a nonempty string")
        if self.answer is not None and not isinstance(self.answer, str):
            raise ValidationError("record answer must be a string or None")
        if type(self.seed_index) is not int or self.seed_index < 0:  # bool is a subclass of int
            raise ValidationError("record seed_index must be an int >= 0")
        if self.method_tag not in METHOD_TAGS:
            raise ValidationError(f"unknown method_tag {self.method_tag!r}")
        if not isinstance(self.provenance, dict):
            raise ValidationError("record provenance must be a dict")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)


def write_records(path: str | Path, records: list[SyntheticRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_records(path: str | Path) -> list[SyntheticRecord]:
    """Parse a record file; any malformed line reports its 1-based number."""
    names = [f.name for f in fields(SyntheticRecord)]
    out: list[SyntheticRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordFormatError(f"invalid JSON ({exc.msg})", lineno) from exc
            if not isinstance(obj, dict):
                raise RecordFormatError("record is not an object", lineno)
            missing = set(names) - set(obj)
            if missing:
                raise RecordFormatError(f"missing fields {sorted(missing)}", lineno)
            try:
                out.append(SyntheticRecord(**{name: obj[name] for name in names}))
            except ValidationError as exc:
                raise RecordFormatError(str(exc), lineno) from exc
    return out
