"""
Training a contextual soft prompt against the frozen model
==========================================================

The trainable object is a small parameterized map from a context vector to
a prompt matrix. The decoder and the sequence embedder stay frozen; only
the map's parameters move. This script trains the per-column MLP variant
and watches the reconstruction loss fall.
"""

from softsrv import (
    BackboneConfig,
    build_vocab,
    builtin_grammar,
    checksum,
    embed_sequence,
    init_params,
    make_toy_corpus,
    materialize,
    pretrain_backbone,
    train,
)

train_fold, _ = make_toy_corpus(builtin_grammar("arithmetic"), 80, seed=11)
texts = [ex.question for ex in train_fold] + [ex.answer for ex in train_fold]
vocab = build_vocab(texts)
seqs = [vocab.encode(t) for t in texts]

backbone, _ = pretrain_backbone(
    seqs, vocab, BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=64, max_seq=96),
    steps=400, lr=1e-3, seed=12,
)
# the embedder is a separate frozen model; the mean of its token-embedding
# rows over a seed sequence, truncated to d_e dims, summarizes that sequence
embedder, _ = pretrain_backbone(
    seqs, vocab, BackboneConfig(d=16, n_layers=1, n_heads=1, ffn_dim=32, max_seq=96),
    steps=100, lr=1e-3, seed=13,
)

dataset = [vocab.encode(ex.question) for ex in train_fold]
params = init_params("ss_mc", backbone, t=8, d_e=16, seed=14, mlp_hidden=32)

before = checksum(backbone)
params, trace = train(backbone, embedder, dataset, params, steps=300, lr=5e-3, seed=15, batch_size=8)
print(f"loss: first 20 mean {sum(trace.losses[:20]) / 20:.3f}, "
      f"last 20 mean {sum(trace.losses[-20:]) / 20:.3f}")
assert checksum(backbone) == before  # training touched nothing but params

# the trained map turns any context vector into a (d, t) prompt matrix
z = embed_sequence(embedder, dataset[0], d_e=16)
prompt = materialize(params, z)
print("prompt matrix shape:", prompt.shape)
