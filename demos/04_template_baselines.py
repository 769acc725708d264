"""
Template baselines: prompt-template and self-refinement
=======================================================

The baselines skip soft prompts entirely. A fixed instruction template gets
a seed example spliced into its [[EXAMPLE]] slot, the model continues it,
and the continuation is split into candidate questions. The self-refinement
variant critiques and rewrites each candidate until a stop phrase appears
or the round budget runs out.
"""

from softsrv import (
    BackboneConfig,
    build_vocab,
    builtin_grammar,
    load_builtin_templates,
    make_toy_corpus,
    pretrain_backbone,
    pt_generate,
    ptsr_generate,
    render,
    split_questions,
)

templates = load_builtin_templates("arithmetic")
print("template kinds:", sorted(templates))
print()
print(render(templates["question"], "Ava has 2 apples and buys 3 more.")[:200])
print()

# the splitter understands "Question N:" markers, with or without a
# "Passage and" prefix, and caps at ten candidates
blob = "Question 1: one thing? Question 2: another thing? Question 3:"
print("split ->", split_questions(blob))

train_fold, _ = make_toy_corpus(builtin_grammar("arithmetic"), 60, seed=31)
texts = [ex.question for ex in train_fold] + [ex.answer for ex in train_fold]
template_text = " ".join(t.body for t in templates.values())
vocab = build_vocab(texts + [template_text])
seqs = [vocab.encode(t) for t in texts]
backbone, _ = pretrain_backbone(
    seqs, vocab, BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=64, max_seq=192),
    steps=300, lr=1e-3, seed=32,
)

seeds = [ex.question for ex in train_fold[:10]]
records = pt_generate(backbone, templates, seeds, n_raw=6, temperature=2.0, seed=33, max_new=96)
for r in records[:3]:
    print(f"[{r.method_tag}] {r.question[:70]}")

refined = ptsr_generate(
    backbone, templates, seeds, n_raw=4,
    temperature=2.0, seed=34, max_new=24, max_rounds=2,
)
for r in refined:
    print(f"[{r.method_tag}] rounds={r.provenance['rounds']} "
          f"accepted={r.provenance['accepted']} {r.question[:50]}")
