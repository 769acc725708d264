"""Context vectors from a small frozen embedding model.

A sequence's context vector is the mean of the embedder's token-embedding
rows over the sequence, truncated to the first d_e coordinates. Deliberately
lossy: token order never enters, and truncation discards tail dimensions.
The embedder is a separate tiny backbone, pretrained then frozen; only its
embedding table participates here. Its layers are pretrained all the
same: tok_emb gets its shape from next-token gradients sent through them.
"""

from __future__ import annotations

import numpy as np

from .backbone import BackboneModel
from .errors import ValidationError
from .vocab import check_ids


def embed_sequence(embedder: BackboneModel, ids, d_e: int) -> np.ndarray:
    """Mean-pooled token embedding of a sequence, shape (d_e,)."""
    if not embedder.frozen:
        raise ValidationError("embedder must be frozen")
    ids = check_ids(ids, embedder.vocab_size)
    if not len(ids):
        raise ValidationError("cannot embed an empty sequence")
    if not 0 < d_e <= embedder.d:
        raise ValidationError(f"d_e={d_e} outside (0, {embedder.d}]")
    # the sum-then-divide that ndarray.mean performs, without its call overhead
    pooled = np.add.reduce(embedder.weights["tok_emb"][ids], axis=0) / len(ids)
    return pooled[:d_e].astype(np.float64)

