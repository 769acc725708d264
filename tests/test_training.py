"""Soft-prompt training loop: exactness, immutability, memory, persistence."""

import tracemalloc

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, checksum, init_backbone, freeze, causal_loss, train_full_weights
from softsrv.checkpoint import read_checkpoint, write_checkpoint
from softsrv.errors import CheckpointFormatError, ValidationError
from softsrv.optim import init_adam
from softsrv.prompts import init_params, materialize, param_arrays
from softsrv.training import TrainConfig, load_params, save_params, train
from softsrv.vocab import EOS, build_vocab


@pytest.fixture(scope="module")
def setup():
    vocab = build_vocab(["cat dog bird fish goat lion wolf bear"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq=48)
    backbone = freeze(init_backbone(cfg, vocab, 5, zero_residual=False))
    emb_cfg = BackboneConfig(d=6, n_layers=1, n_heads=1, ffn_dim=8, max_seq=48)
    embedder = freeze(init_backbone(emb_cfg, vocab, 6))
    dataset = [vocab.encode(t) for t in ("cat dog bird", "fish goat", "lion wolf bear cat")]
    return backbone, embedder, dataset


def test_unfrozen_backbone_rejected(setup):
    _, embedder, dataset = setup
    vocab_small = build_vocab(["cat dog"])
    live = init_backbone(BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq=48), vocab_small, 7)
    params = init_params("ss_np", live, t=2, d_e=4, seed=0)
    with pytest.raises(ValidationError):
        train(live, None, [[4]], params, TrainConfig(steps=1))


def test_contextual_variant_requires_distinct_frozen_embedder(setup):
    backbone, _, dataset = setup
    params = init_params("ss_mp", backbone, t=2, d_e=4, seed=0)
    with pytest.raises(ValidationError):
        train(backbone, None, dataset, params, TrainConfig(steps=1))
    with pytest.raises(ValidationError):
        train(backbone, backbone, dataset, params, TrainConfig(steps=1))


def test_zero_steps_returns_bit_identical_copy(setup):
    backbone, embedder, dataset = setup
    params = init_params("ss_mc", backbone, t=3, d_e=6, seed=1, mlp_hidden=4)
    out, trace = train(backbone, embedder, dataset, params, TrainConfig(steps=0))
    assert out is not params
    for (_, a), (_, b) in zip(param_arrays(params), param_arrays(out)):
        np.testing.assert_array_equal(a, b)
    assert trace.losses == []


def test_input_params_never_mutated(setup):
    backbone, embedder, dataset = setup
    params = init_params("ss_np", backbone, t=3, d_e=6, seed=2)
    before = params.prompt.copy()
    train(backbone, embedder, dataset, params, TrainConfig(steps=5, seed=3))
    np.testing.assert_array_equal(params.prompt, before)


def test_first_step_is_exactly_one_adam_update(setup):
    backbone, embedder, dataset = setup
    from softsrv.backbone import batch_loss_and_grads
    from softsrv.optim import adam_step, clip_global_norm
    from softsrv.prompts import param_grad, zeros_like_params

    params = init_params("ss_np", backbone, t=2, d_e=6, seed=4)
    cfg = TrainConfig(steps=1, lr=0.05, batch_size=2, seed=9)
    trained, trace = train(backbone, embedder, dataset, params, cfg)

    # replay by hand: same batch order, same gradient, same update
    rng = np.random.default_rng(9)
    batch = [int(i) for i in rng.permutation(len(dataset))][:2]
    targets = [dataset[i] + [EOS] for i in batch]
    prefixes = [materialize(params).T for _ in batch]
    _, _, pg, _ = batch_loss_and_grads(backbone, prefixes, targets, want_prefix_grads=True)
    acc = zeros_like_params(params)
    acc_arrays = dict(param_arrays(acc))
    for bi in range(2):
        g = param_grad(params, None, pg[bi].T)
        acc_arrays["prompt"] += g.prompt / 2
    clip_global_norm(acc_arrays, 1.0)
    adam = init_adam(acc_arrays)
    delta = {"prompt": np.zeros_like(params.prompt)}  # the update, added to zeros
    adam_step(adam, delta, acc_arrays, 0.05, (0.9, 0.999), 1e-8)
    np.testing.assert_allclose(trained.prompt, params.prompt + delta["prompt"], rtol=1e-12)


def test_training_is_deterministic(setup):
    backbone, embedder, dataset = setup
    runs = []
    for _ in range(2):
        params = init_params("ss_mp", backbone, t=2, d_e=6, seed=5, k=2)
        out, trace = train(backbone, embedder, dataset, params, TrainConfig(steps=20, seed=6))
        runs.append((out, trace.losses))
    assert runs[0][1] == runs[1][1]
    for (_, a), (_, b) in zip(param_arrays(runs[0][0]), param_arrays(runs[1][0])):
        np.testing.assert_array_equal(a, b)


def test_loss_descends_while_memorizing(tiny_backbone):
    # a pretrained backbone gives the prefix real leverage; memorizing two
    # short sequences should cut the loss deeply and fast
    vocab = tiny_backbone.vocab
    dataset = [vocab.encode("How many apples"), vocab.encode("There are 7")]
    params = init_params("ss_np", tiny_backbone, t=6, d_e=6, seed=7)
    out, trace = train(
        tiny_backbone, None, dataset, params,
        TrainConfig(steps=200, lr=0.05, batch_size=2, seed=8),
    )
    head = float(np.mean(trace.losses[:10]))
    tail = float(np.mean(trace.losses[-10:]))
    # at this scale the prompt saturates early; require a clear drop, well
    # above step-to-step noise (the deep-descent bar lives in acceptance)
    assert tail < head - 0.2
    # the trained prompt scores its targets better than the initial one
    tgt = dataset[0] + [EOS]
    assert causal_loss(tiny_backbone, materialize(out), tgt) < causal_loss(
        tiny_backbone, materialize(params), tgt
    )


def test_backbone_pretraining_peak_memory_at_desk_shape(tiny_folds, tiny_vocab):
    # desk backbone shape (d64/L4, ffn 256), batch 8, 30 steps. Each norm
    # caches only (x, s), the backward pass frees each layer's cache as it
    # consumes it, and the loss temporaries die before it starts: about
    # 15.3 MB traced. Caching each norm's xhat and output, keeping every
    # layer to the end of the backward pass and a second logits-sized
    # buffer for dlogits read 19.4 MB
    vocab = tiny_vocab
    model = init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256), vocab, 1)
    sequences = [vocab.encode(ex.question + " " + ex.answer) for ex in tiny_folds[0]]
    tracemalloc.start()
    try:
        train_full_weights(model, sequences, steps=30, lr=1e-3, seed=2, batch_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17e6, peak


def test_ss_mc_training_peak_memory_at_desk_shape(tiny_folds, tiny_vocab):
    # desk shapes: backbone d64/L4, embedder d32 with d_e 32, t=16 columns of
    # 128x3 MLPs (about 3.7 MB per copy of the parameters), batch 8. The loop
    # holds a working copy, two Adam moments and one generation of gradients
    # (about 20.5 MB traced). A second generation of gradients and of Adam
    # updates alive at once, with a backward cache that keeps what no
    # requested gradient reads, took about 36 MB
    vocab = tiny_vocab
    backbone = freeze(init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256), vocab, 1))
    embedder = freeze(init_backbone(BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128), vocab, 2))
    dataset = [vocab.encode(ex.question) for ex in tiny_folds[0]]
    params = init_params("ss_mc", backbone, t=16, d_e=32, seed=3)
    tracemalloc.start()
    try:
        train(backbone, embedder, dataset, params, TrainConfig(steps=4, batch_size=8, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


def test_ss_mc_training_with_inline_params_keeps_one_copy_of_the_prompt(tiny_folds, tiny_vocab):
    # the desk shapes above, with init_params(...) passed inline as the
    # pipeline does and traced from before it runs: train drops its
    # reference to the input once its working copy exists, so the input's
    # 3.7 MB is freed before the first step. Keeping the input alive, with
    # an MLP forward run twice per step, read 26.6 MB
    vocab = tiny_vocab
    backbone = freeze(init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256), vocab, 1))
    embedder = freeze(init_backbone(BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128), vocab, 2))
    dataset = [vocab.encode(ex.question) for ex in tiny_folds[0]]
    tracemalloc.start()
    try:
        train(backbone, embedder, dataset, init_params("ss_mc", backbone, t=16, d_e=32, seed=3),
              TrainConfig(steps=4, batch_size=8, seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, peak


def test_backbone_and_embedder_unchanged_by_training(setup):
    backbone, embedder, dataset = setup
    before = (checksum(backbone), checksum(embedder))
    params = init_params("ss_mc", backbone, t=2, d_e=6, seed=9, mlp_hidden=4)
    train(backbone, embedder, dataset, params, TrainConfig(steps=25, seed=10))
    assert (checksum(backbone), checksum(embedder)) == before


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_params_round_trip_through_checkpoint(setup, tmp_path, variant):
    backbone, _, _ = setup
    params = init_params(variant, backbone, t=3, d_e=6, seed=11, k=3, mlp_hidden=4)
    path = tmp_path / f"{variant}.ckpt"
    save_params(path, params)
    loaded = load_params(path, backbone)
    assert loaded.variant == params.variant
    assert (loaded.d, loaded.t, loaded.d_e) == (params.d, params.t, params.d_e)
    for (na, a), (nb, b) in zip(param_arrays(params), param_arrays(loaded)):
        assert na == nb
        np.testing.assert_array_equal(a, b)


_DROP = object()


@pytest.mark.parametrize("variant, patch", [
    ("ss_np", {"variant": _DROP}),
    ("ss_np", {"variant": 3}),
    ("ss_np", {"d": _DROP}),
    ("ss_np", {"d": "8"}),
    ("ss_np", {"d": 8.0}),
    ("ss_np", {"t": True}),
    ("ss_np", {"t": 0}),
    ("ss_np", {"d_e": _DROP}),
    ("ss_np", {"d_e": None}),
    ("ss_mp", {"k": _DROP}),
    ("ss_mp", {"k": 0}),
    ("ss_mp", {"k": "2"}),
    ("ss_mp", {"k": 2.0}),
    ("ss_mc", {"layer_sizes": _DROP}),
    ("ss_mc", {"layer_sizes": []}),
    ("ss_mc", {"layer_sizes": "4x6"}),
    ("ss_mc", {"layer_sizes": [[4, 6], [4]]}),
    ("ss_mc", {"layer_sizes": [[4, 6], [4, "4"]]}),
    ("ss_mc", {"layer_sizes": [[4, 6], 4]}),
    ("ss_np", None),  # meta is not an object at all
])
def test_malformed_params_meta_rejected(setup, tmp_path, variant, patch):
    backbone, _, _ = setup
    path = tmp_path / "p.ckpt"
    save_params(path, init_params(variant, backbone, t=2, d_e=6, seed=14, k=2, mlp_hidden=4))
    kind, meta, tensors = read_checkpoint(path)
    if patch is None:
        meta = [meta]
    else:
        for key, value in patch.items():
            if value is _DROP:
                del meta[key]
            else:
                meta[key] = value
    write_checkpoint(path, kind, meta, tensors)
    with pytest.raises(CheckpointFormatError):
        load_params(path)


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_well_formed_params_meta_rewritten_still_loads(setup, tmp_path, variant):
    # the control for the malformed metas above: the same rewrite with the
    # meta left as saved loads
    backbone, _, _ = setup
    path = tmp_path / "p.ckpt"
    save_params(path, init_params(variant, backbone, t=2, d_e=6, seed=14, k=2, mlp_hidden=4))
    write_checkpoint(path, *read_checkpoint(path))
    assert load_params(path, backbone).variant == variant


def test_truncated_params_checkpoint_rejected(setup, tmp_path):
    backbone, _, _ = setup
    params = init_params("ss_np", backbone, t=2, d_e=6, seed=12)
    path = tmp_path / "p.ckpt"
    save_params(path, params)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CheckpointFormatError):
        load_params(path, backbone)


def test_width_mismatch_on_load_rejected(setup, tmp_path):
    backbone, _, _ = setup
    params = init_params("ss_np", backbone, t=2, d_e=6, seed=13)
    path = tmp_path / "p.ckpt"
    save_params(path, params)
    other_vocab = build_vocab(["cat dog"])
    wide = freeze(init_backbone(BackboneConfig(d=16, n_layers=1, n_heads=2, ffn_dim=8, max_seq=48), other_vocab, 1))
    with pytest.raises(ValidationError):
        load_params(path, wide)
