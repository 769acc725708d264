"""
The whole experiment in one call
================================

run_experiment executes every stage: corpus, frozen-model pretraining,
soft-prompt training, question and answer generation, diversity
subsampling, decontamination, distribution scoring, and the student proxy.
Artifacts land in the run directory; rerunning resumes from whatever
already exists, byte for byte.

This demo shrinks every knob so the full pipeline finishes in seconds.
The real desk preset is `softsrv run --preset desk` (minutes).
"""

import tempfile
from pathlib import Path

from softsrv import preset_config, run_experiment

cfg = preset_config("desk")
cfg.corpus.n_examples = 30
cfg.corpus.n_aux = 10
cfg.corpus.n_generic = 20
cfg.backbone.d = 16
cfg.backbone.n_layers = 1
cfg.backbone.n_heads = 2
cfg.backbone.ffn_dim = 32
cfg.backbone.max_seq = 96
cfg.backbone.pretrain_steps = 40
cfg.embedder.d = 8
cfg.embedder.n_layers = 1
cfg.embedder.n_heads = 1
cfg.embedder.ffn_dim = 16
cfg.embedder.d_e = 8
cfg.embedder.pretrain_steps = 10
cfg.softsrv.t = 4
cfg.softsrv.mlp_hidden = 16
cfg.trainer.steps = 15
cfg.trainer.batch_size = 4
cfg.generation.n_raw = 10
cfg.generation.max_new_tokens = 16
cfg.postprocess.n_select = 6
cfg.postprocess.svd_dims = 3
cfg.postprocess.kmeans_k = 3
cfg.mauve.k = 4
cfg.student.d = 16
cfg.student.n_layers = 1
cfg.student.n_heads = 2
cfg.student.ffn_dim = 32
cfg.student.pretrain_steps = 20
cfg.student.finetune_steps = 10

out = Path(tempfile.mkdtemp(prefix="softsrv_demo_"))
summary = run_experiment(cfg, out)
print(summary)

print("artifacts:")
for p in sorted(out.iterdir()):
    print(f"  {p.name:22s} {p.stat().st_size:8d} bytes")
