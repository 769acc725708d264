"""
The three prompt parameterizations, side by side
================================================

ss_np: one direct prompt matrix, blind to context.
ss_mp: softmax-gated mixture of k basis matrices.
ss_mc: one small MLP per prompt column.

At init the contextual variants are deliberately context-insensitive
(uniform gate, zero final MLP weights); training is what teaches them to
use the context. Greedy sampling makes the difference visible: the direct
variant produces one output no matter the seed, the MLP variant varies.
"""

import numpy as np

from softsrv import (
    BackboneConfig,
    build_vocab,
    builtin_grammar,
    generate_questions,
    init_params,
    make_toy_corpus,
    materialize,
    pretrain_backbone,
    train,
)

train_fold, _ = make_toy_corpus(builtin_grammar("arithmetic"), 100, seed=21)
texts = [ex.question for ex in train_fold] + [ex.answer for ex in train_fold]
vocab = build_vocab(texts)
seqs = [vocab.encode(t) for t in texts]

backbone, _ = pretrain_backbone(
    seqs, vocab, BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=64, max_seq=96),
    steps=500, lr=1e-3, seed=22,
)
embedder, _ = pretrain_backbone(
    seqs, vocab, BackboneConfig(d=16, n_layers=1, n_heads=1, ffn_dim=32, max_seq=96),
    steps=100, lr=1e-3, seed=23,
)

# show the init-time insensitivity: two very different contexts, same prompt
for variant in ("ss_np", "ss_mp", "ss_mc"):
    params = init_params(variant, backbone, t=6, d_e=16, seed=24, mlp_hidden=24)
    z_a = np.zeros(16)
    z_b = np.ones(16) * 3.0
    a = materialize(params, None if variant == "ss_np" else z_a)
    b = materialize(params, None if variant == "ss_np" else z_b)
    print(f"{variant}: prompts identical at init -> {np.array_equal(a, b)}")

# train ss_np and ss_mc, then count distinct greedy outputs over 20 contexts
dataset = [vocab.encode(ex.question) for ex in train_fold]
for variant in ("ss_np", "ss_mc"):
    params = init_params(variant, backbone, t=6, d_e=16, seed=26, mlp_hidden=24)
    trained, _ = train(backbone, None if variant == "ss_np" else embedder, dataset, params,
                       steps=250, lr=5e-3, seed=25, batch_size=8)
    records = generate_questions(
        backbone, None if variant == "ss_np" else embedder, trained,
        dataset[:20], n_raw=20, temperature=0.0, seed=27, max_len=32,
    )
    distinct = len({r.question for r in records})
    print(f"{variant}: {distinct} distinct greedy outputs over 20 contexts")
