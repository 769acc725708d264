"""Soft-prompt training loop: exactness, immutability, memory, persistence."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import live_backbone

import softsrv.backbone
import softsrv.training
from softsrv.backbone import (
    BackboneConfig, BackboneModel, batch_loss_and_grads, checksum, clone_unfrozen, forward_logits, freeze,
    init_backbone, load_backbone, save_backbone, train_full_weights,
)
from softsrv.checkpoint import read_checkpoint, write_checkpoint
from softsrv.errors import CapacityError, CheckpointFormatError, ValidationError
from softsrv.optim import HELPER_BATCH, adam_step, batch_schedule, clip_global_norm, init_adam
from softsrv.embedder import embed_sequence
from softsrv.prompts import init_params, materialize, param_grad, param_stacks, params_meta, zero_params
from softsrv.training import load_params, save_params, train
from softsrv.vocab import EOS, build_vocab


@pytest.fixture(scope="module")
def setup():
    vocab = build_vocab(["cat dog bird fish goat lion wolf bear"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq=48)
    backbone = freeze(live_backbone(cfg, vocab, 5))
    emb_cfg = BackboneConfig(d=6, n_layers=1, n_heads=1, ffn_dim=8, max_seq=48)
    embedder = freeze(init_backbone(emb_cfg, vocab, 6))
    dataset = [vocab.encode(t) for t in ("cat dog bird", "fish goat", "lion wolf bear cat")]
    return backbone, embedder, dataset


@pytest.fixture(scope="module")
def twins(setup):
    """The setup's backbone shape in float32, and its float64 twin holding the same weights cast up."""
    backbone, _, _ = setup
    fast = freeze(live_backbone(replace(backbone.config, dtype="float32"), backbone.vocab, 5))
    exact = freeze(BackboneModel(backbone.config, backbone.vocab,
                                 {k: w.astype(np.float64) for k, w in fast.weights.items()}))
    return fast, exact


def test_unfrozen_backbone_rejected(setup):
    _, embedder, dataset = setup
    vocab_small = build_vocab(["cat dog"])
    live = init_backbone(BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq=48), vocab_small, 7)
    params = init_params("ss_np", live, t=2, d_e=4, seed=0)
    with pytest.raises(ValidationError):
        train(live, None, [[4]], params, steps=1, lr=1e-3, seed=0)


def test_contextual_variant_requires_distinct_frozen_embedder(setup):
    backbone, embedder, dataset = setup
    params = init_params("ss_mp", backbone, t=2, d_e=4, seed=0)
    with pytest.raises(ValidationError):
        train(backbone, None, dataset, params, steps=1, lr=1e-3, seed=0)
    with pytest.raises(ValidationError):
        train(backbone, backbone, dataset, params, steps=1, lr=1e-3, seed=0)
    with pytest.raises(ValidationError, match="embedder must be frozen"):
        train(backbone, clone_unfrozen(embedder), dataset, params, steps=1, lr=1e-3, seed=0)


def _count_steps(monkeypatch, module) -> list:
    """Replace module.batch_loss_and_grads by a counting shim; the list grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return batch_loss_and_grads(*args, **kwargs)

    monkeypatch.setattr(module, "batch_loss_and_grads", counting)
    return calls


@pytest.mark.parametrize("bad, error, match", [
    ([4, -1, 5], ValidationError, "token id -1 out of vocabulary range"),
    ([4, 10**3, 5], ValidationError, "token id 1000 out of vocabulary range"),
    ([4, 2**70, 5], ValidationError, rf"token id {2**70} out of vocabulary range"),
    # 47 tokens: 2 prompt columns + 47 + EOS, or BOS + 47 + EOS, rows past 48
    ([4] * 47, CapacityError, r"sequence length (50|49) exceeds capacity 48"),
], ids=["-1", "1000", "2**70", "capacity"])
def test_both_training_loops_check_every_sequence_before_the_first_step(setup, monkeypatch, bad, error, match):
    # the bad sequence is one that a one-step schedule of HELPER_BATCH examples
    # never samples, so the dataset holds more than HELPER_BATCH sequences
    backbone, _, dataset = setup
    data = (dataset * 3)[:HELPER_BATCH + 1] + [bad]
    seed = next(s for s in range(100) if len(data) - 1 not in batch_schedule(len(data), 1, HELPER_BATCH, s)[0])
    for module, run in (
        (softsrv.training, lambda: train(backbone, None, data, init_params("ss_np", backbone, t=2, d_e=6, seed=0),
                                         steps=1, lr=1e-3, seed=seed, batch_size=HELPER_BATCH)),
        (softsrv.backbone, lambda: train_full_weights(clone_unfrozen(backbone), data, steps=1, lr=1e-3, seed=seed)),
    ):
        steps = _count_steps(monkeypatch, module)
        with pytest.raises(error, match=match):
            run()
        assert steps == []


def test_every_entry_point_holds_a_prompt_to_the_backbone_by_one_rule(setup, twins, tmp_path):
    backbone, _, dataset = setup
    max_seq = backbone.config.max_seq
    narrow = init_params("ss_np", backbone, t=2, d_e=6, seed=0)
    save_params(tmp_path / "p.ckpt", narrow)
    other = freeze(init_backbone(BackboneConfig(d=4, n_layers=1, n_heads=1, ffn_dim=8, max_seq=max_seq),
                                 backbone.vocab, 1))
    for run in (
        lambda: init_params("ss_np", backbone, t=max_seq, d_e=6, seed=0),
        lambda: init_params("ss_np", backbone, t=0, d_e=6, seed=0),
        lambda: train(other, None, dataset, narrow, steps=1, lr=1e-3, seed=0),
        lambda: train(twins[0], None, dataset, narrow, steps=1, lr=1e-3, seed=0),  # float64 params
        lambda: load_params(tmp_path / "p.ckpt", other),
        lambda: forward_logits(backbone, np.zeros((backbone.d + 1, 2)), [4]),
        lambda: forward_logits(backbone, np.zeros((backbone.d, max_seq)), [4]),
    ):
        with pytest.raises(ValidationError, match="does not fit the backbone"):
            run()


def test_zero_steps_returns_bit_identical_copy(setup):
    backbone, embedder, dataset = setup
    params = init_params("ss_mc", backbone, t=3, d_e=6, seed=1, mlp_hidden=4)
    out, trace = train(backbone, embedder, dataset, params, steps=0, lr=1e-3, seed=0)
    assert out is not params
    for (_, a), (_, b) in zip(param_stacks(params), param_stacks(out)):
        np.testing.assert_array_equal(a, b)
    assert trace.losses == []


def test_input_params_never_mutated(setup):
    backbone, embedder, dataset = setup
    params = init_params("ss_np", backbone, t=3, d_e=6, seed=2)
    before = params.prompt.copy()
    train(backbone, embedder, dataset, params, steps=5, lr=1e-3, seed=3)
    np.testing.assert_array_equal(params.prompt, before)


def test_first_step_is_exactly_one_adam_update(setup):
    backbone, embedder, dataset = setup
    from softsrv.prompts import param_grad, zeros_like_params

    params = init_params("ss_np", backbone, t=2, d_e=6, seed=4)
    trained, trace = train(backbone, embedder, dataset, params, steps=1, lr=0.05, seed=9, batch_size=2)

    # replay by hand: same batch order, same gradient, same update
    rng = np.random.default_rng(9)
    batch = [int(i) for i in rng.permutation(len(dataset))][:2]
    targets = [dataset[i] + [EOS] for i in batch]
    prefixes = [materialize(params).T for _ in batch]
    _, _, pg, _ = batch_loss_and_grads(backbone, prefixes, targets, want_prefix_grads=True)
    acc = zeros_like_params(params)
    acc_arrays = dict(param_stacks(acc))
    for bi in range(2):
        g = param_grad(params, None, pg[bi].T)
        acc_arrays["prompt"] += g.prompt / 2
    clip_global_norm(acc_arrays)
    adam = init_adam(acc_arrays)
    delta = {"prompt": np.zeros_like(params.prompt)}  # the update, added to zeros
    adam_step(adam, delta, acc_arrays, 0.05)
    np.testing.assert_allclose(trained.prompt, params.prompt + delta["prompt"], rtol=1e-12)


def test_training_is_deterministic(setup):
    backbone, embedder, dataset = setup
    runs = []
    for _ in range(2):
        params = init_params("ss_mp", backbone, t=2, d_e=6, seed=5, k=2)
        out, trace = train(backbone, embedder, dataset, params, steps=20, lr=1e-3, seed=6)
        runs.append((out, trace.losses))
    assert runs[0][1] == runs[1][1]
    for (_, a), (_, b) in zip(param_stacks(runs[0][0]), param_stacks(runs[1][0])):
        np.testing.assert_array_equal(a, b)


def test_loss_descends_while_memorizing(tiny_backbone):
    # a pretrained backbone gives the prefix real leverage; memorizing two
    # short sequences should cut the loss deeply and fast
    vocab = tiny_backbone.vocab
    dataset = [vocab.encode("How many apples"), vocab.encode("There are 7")]
    params = init_params("ss_np", tiny_backbone, t=6, d_e=6, seed=7)
    out, trace = train(
        tiny_backbone, None, dataset, params,
        steps=200, lr=0.05, seed=8, batch_size=2,
    )
    head = float(np.mean(trace.losses[:10]))
    tail = float(np.mean(trace.losses[-10:]))
    # at this scale the prompt saturates early; require a clear drop, well
    # above step-to-step noise (the deep-descent bar lives in acceptance)
    assert tail < head - 0.2
    # the trained prompt scores its targets better than the initial one
    tgt = dataset[0] + [EOS]

    def loss(p):
        return batch_loss_and_grads(tiny_backbone, [materialize(p).T], [tgt])[0]

    assert loss(out) < loss(params)


@pytest.mark.parametrize("dtype, bound", [("float64", 15e6), ("float32", 7.5e6)], ids=["float64", "float32"])
def test_backbone_pretraining_peak_memory_at_desk_shape(tiny_folds, tiny_vocab, dtype, bound):
    # desk backbone shape (d64/L4, ffn 256), batch 8, 30 steps. Each norm
    # caches only (x, s), the backward pass frees each layer's cache as it
    # consumes it, the loss temporaries die before it starts, and a step's
    # weight gradients die once Adam has applied them: about 13.3 MB
    # traced. Keeping one step's gradients alive through the next read
    # 15.3 MB; caching each norm's xhat and output, keeping every layer to
    # the end of the backward pass and a second logits-sized buffer for
    # dlogits read 19.4 MB on top of that. float32 traces 6.7 MB; leaving
    # only dq and dk float64 in _backward read 7.8 MB
    vocab = tiny_vocab
    model = init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256, dtype=dtype), vocab, 1)
    sequences = [vocab.encode(ex.question + " " + ex.answer) for ex in tiny_folds[0]]
    tracemalloc.start()
    try:
        train_full_weights(model, sequences, steps=30, lr=1e-3, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_full_weight_training_keeps_one_gradient_generation(setup, monkeypatch):
    # every weight gradient a step gets back is dead before the next step
    # asks for its own
    backbone, _, dataset = setup
    model = clone_unfrozen(backbone)
    refs: list[weakref.ref] = []
    real = softsrv.backbone.batch_loss_and_grads

    def tracked(*args, **kwargs):
        alive = sum(ref() is not None for ref in refs)
        assert alive == 0, f"{alive} gradient arrays of an earlier step are alive"
        out = real(*args, **kwargs)
        refs.extend(weakref.ref(g) for g in out[3].values())
        return out

    monkeypatch.setattr(softsrv.backbone, "batch_loss_and_grads", tracked)
    train_full_weights(model, dataset, steps=5, lr=1e-3, seed=1)
    assert len(refs) == 5 * len(model.weights)


def test_full_weight_training_rejects_a_non_positive_lr(setup):
    backbone, _, dataset = setup
    model = clone_unfrozen(backbone)
    for lr in (0.0, -1e-3):
        with pytest.raises(ValidationError, match="lr"):
            train_full_weights(model, dataset, steps=1, lr=lr, seed=1)


@pytest.mark.parametrize("steps, batch_size, lr", [(-3, 8, 1e-3), (1, 0, 1e-3), (1, 8, 0.0),
                                                    (1, 8, float("inf")), (1, 8, float("nan"))])
def test_both_training_loops_reject_a_bad_schedule(setup, steps, batch_size, lr):
    # a zero batch used to fail mid-step on an empty reduction, negative
    # steps trained nothing and returned as if done, and an infinite lr left
    # non-finite parameters after the first step
    # (train_full_weights draws HELPER_BATCH, so only train takes a batch size)
    backbone, embedder, dataset = setup
    if batch_size == HELPER_BATCH:
        with pytest.raises(ValidationError, match="steps >= 0, batch_size >= 1 and lr > 0"):
            train_full_weights(clone_unfrozen(backbone), dataset, steps=steps, lr=lr, seed=1)
    with pytest.raises(ValidationError, match="steps >= 0, batch_size >= 1 and lr > 0"):
        train(backbone, embedder, dataset, init_params("ss_np", backbone, t=2, d_e=6, seed=0),
              steps=steps, lr=lr, seed=1, batch_size=batch_size)


@pytest.mark.parametrize("dtype, bound", [("float64", 30e6), ("float32", 13e6)], ids=["float64", "float32"])
def test_ss_mc_training_peak_memory_at_desk_shape(tiny_folds, tiny_vocab, dtype, bound):
    # desk shapes: backbone d64/L4, embedder d32 with d_e 32, t=16 columns of
    # 128x3 MLPs (about 3.7 MB per copy of float64 parameters), batch 8. The
    # loop holds a working copy, two Adam moments and one generation of
    # gradients (20.48 MB traced on a float64 backbone). A second generation
    # of gradients and of Adam updates alive at once, with a backward cache
    # that keeps what no requested gradient reads, took about 36 MB. On a
    # float32 backbone the prompt arrays take its dtype and the run reads
    # 10.41 MB; float64 prompt arrays against it read 16.40 MB
    vocab = tiny_vocab
    backbone_cfg = BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256, dtype=dtype)
    backbone = freeze(init_backbone(backbone_cfg, vocab, 1))
    embedder = freeze(init_backbone(BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128), vocab, 2))
    dataset = [vocab.encode(ex.question) for ex in tiny_folds[0]]
    params = init_params("ss_mc", backbone, t=16, d_e=32, seed=3)
    tracemalloc.start()
    try:
        train(backbone, embedder, dataset, params, steps=4, lr=1e-3, seed=4, batch_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("dtype, bound", [("float64", 22e6), ("float32", 11.3e6)], ids=["float64", "float32"])
def test_ss_mc_training_with_inline_params_keeps_one_copy_of_the_prompt(tiny_folds, tiny_vocab, dtype, bound):
    # the desk shapes above, with init_params(...) passed inline as the
    # pipeline does and traced from before it runs: train drops its
    # reference to the input once its working copy exists, so the input is
    # freed before the first step. float64 read 20.47 MB and 24.2 MB for a
    # caller that keeps the input alive; float32 read 10.41 MB and 12.27 MB
    # kept alive, and 16.40 MB with float64 prompt arrays. Each bound sits
    # below both of its failures
    vocab = tiny_vocab
    backbone_cfg = BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256, dtype=dtype)
    backbone = freeze(init_backbone(backbone_cfg, vocab, 1))
    embedder = freeze(init_backbone(BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128), vocab, 2))
    dataset = [vocab.encode(ex.question) for ex in tiny_folds[0]]
    tracemalloc.start()
    try:
        train(backbone, embedder, dataset, init_params("ss_mc", backbone, t=16, d_e=32, seed=3),
              steps=4, lr=1e-3, seed=4, batch_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_trace_records_each_steps_loss_and_pre_clip_gradient_norm(setup):
    # one step of train, redone by hand from its batch schedule
    backbone, _, dataset = setup
    params = init_params("ss_np", backbone, t=2, d_e=6, seed=0)
    _, trace = train(backbone, None, dataset, params, steps=1, lr=1e-3, seed=3, batch_size=2)
    batch = batch_schedule(len(dataset), 1, 2, 3)[0]
    z = np.zeros((len(batch), 6))
    prompts = materialize(params, z)
    loss, _, prefix_grads, _ = batch_loss_and_grads(
        backbone, prompts.transpose(0, 2, 1), [dataset[i] + [EOS] for i in batch], want_prefix_grads=True)
    grads = param_grad(params, z, prefix_grads.transpose(0, 2, 1) / len(batch))
    assert trace.losses == [loss]
    assert trace.grad_norms == [clip_global_norm(dict(param_stacks(grads)))]


@pytest.mark.parametrize("variant", ["ss_mp", "ss_mc"])
def test_one_stack_gradient_dict_feeds_the_clip_and_adam(setup, monkeypatch, variant):
    # each step clips one dict, named by param_stacks, hands that same dict
    # to Adam and records the norm the clip returned
    backbone, embedder, dataset = setup
    params = init_params(variant, backbone, t=2, d_e=6, seed=7, k=2, mlp_hidden=4)
    clipped, norms, stepped = [], [], []

    def clip_spy(grads):
        clipped.append(grads)
        norms.append(clip_global_norm(grads))
        return norms[-1]

    def adam_spy(state, stacks, grads, lr):
        stepped.append(grads)
        adam_step(state, stacks, grads, lr)

    monkeypatch.setattr(softsrv.training, "clip_global_norm", clip_spy)
    monkeypatch.setattr(softsrv.training, "adam_step", adam_spy)
    _, trace = train(backbone, embedder, dataset, params, steps=3, lr=1e-3, seed=3, batch_size=2)
    assert len(stepped) == 3 and trace.grad_norms == norms
    assert all(c is s for c, s in zip(clipped, stepped))
    assert all(list(grads) == [name for name, _ in param_stacks(params)] for grads in stepped)


# the test below measured, for ss_np / ss_mp / ss_mc, the worst per-step
# loss at 5.2e-8 / 3.9e-8 / 3.6e-8 relative and the final prompts at
# 1.8e-7 / 1.5e-7 / 1.9e-7 norm-wise; each bound leaves a factor of 20 or more
ORACLE_LOSS_RTOL = 1e-6
ORACLE_PROMPT_RTOL = 1e-5


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_float32_prompt_training_matches_its_float64_twin(setup, twins, variant):
    # the oracle for a prompt that trains in its backbone's float32: the
    # same steps on the float64 twin, from the float32 starting values cast
    # up, with the same data and seed
    _, embedder, dataset = setup
    fast, exact = twins
    narrow = init_params(variant, fast, t=3, d_e=6, seed=7, k=2, mlp_hidden=4)
    wide = zero_params(**{**params_meta(narrow), "dtype": "float64"})
    for (_, a), (_, b) in zip(param_stacks(wide), param_stacks(narrow)):
        a[...] = b
    (got, got_trace), (want, want_trace) = (
        train(model, embedder, dataset, params, steps=8, lr=1e-2, seed=3, batch_size=2)
        for model, params in ((fast, narrow), (exact, wide)))
    np.testing.assert_allclose(got_trace.losses, want_trace.losses, rtol=ORACLE_LOSS_RTOL)
    z = np.stack([embed_sequence(embedder, ids, 6) for ids in dataset])
    got_prompts, want_prompts = materialize(got, z), materialize(want, z)
    assert (got_prompts.dtype, want_prompts.dtype) == (np.float32, np.float64)
    err = np.linalg.norm(got_prompts - want_prompts) / np.linalg.norm(want_prompts)
    assert err <= ORACLE_PROMPT_RTOL, err


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_prompt_training_keeps_its_backbones_dtype(setup, twins, monkeypatch, variant, dtype):
    # every prompt-sized array of a step holds the backbone's dtype; a numpy
    # float64 scalar in the chain, as np.sqrt(dh) once was in _backward,
    # would promote a float32 one
    _, embedder, dataset = setup
    backbone = twins[0] if dtype == "float32" else twins[1]
    seen: dict[str, np.ndarray] = {}

    def materialize_spy(params, z, acts):
        seen["prompts"] = materialize(params, z, acts)
        return seen["prompts"]

    def clip_spy(grads):
        seen.update((f"clip.{k}", g) for k, g in grads.items())
        return clip_global_norm(grads)

    def adam_spy(state, stacks, grads, lr):
        adam_step(state, stacks, grads, lr)
        seen.update((f"adam.{k}", g) for k, g in grads.items())
        seen.update((f"m.{k}", m) for k, m in state.m.items())
        seen.update((f"v.{k}", v) for k, v in state.v.items())

    monkeypatch.setattr(softsrv.training, "materialize", materialize_spy)
    monkeypatch.setattr(softsrv.training, "clip_global_norm", clip_spy)
    monkeypatch.setattr(softsrv.training, "adam_step", adam_spy)
    trained, _ = train(backbone, embedder, dataset, init_params(variant, backbone, t=3, d_e=6, seed=7, k=2,
                                                                mlp_hidden=4),
                       steps=1, lr=1e-3, seed=3, batch_size=2)
    names = [name for name, _ in param_stacks(trained)]
    seen.update((f"param.{name}", a) for name, a in param_stacks(trained))
    z = np.stack([embed_sequence(embedder, ids, 6) for ids in dataset])
    seen["materialized"] = materialize(trained, z)
    assert sorted(seen) == sorted(["prompts", "materialized"] + [f"{kind}.{name}" for name in names
                                                                 for kind in ("clip", "adam", "m", "v", "param")])
    assert {name: a.dtype.name for name, a in seen.items() if a.dtype != dtype} == {}


def test_full_weight_trace_records_a_norm_per_step(setup):
    backbone, _, dataset = setup
    model = clone_unfrozen(backbone)
    trace = train_full_weights(model, dataset, steps=5, lr=1e-3, seed=2)
    assert len(trace.losses) == len(trace.grad_norms) == 5
    assert all(np.isfinite(n) and n > 0 for n in trace.grad_norms)


def test_backbone_and_embedder_unchanged_by_training(setup):
    backbone, embedder, dataset = setup
    before = (checksum(backbone), checksum(embedder))
    params = init_params("ss_mc", backbone, t=2, d_e=6, seed=9, mlp_hidden=4)
    train(backbone, embedder, dataset, params, steps=25, lr=1e-3, seed=10)
    assert (checksum(backbone), checksum(embedder)) == before


def test_backbone_load_reads_without_a_whole_file_buffer(tiny_vocab, tmp_path):
    # a desk-shape backbone (d64, L4, ffn 256, max_seq 256) in float64,
    # about 1.7 MB of weights. read_checkpoint streams each tensor from the
    # file into the array load_backbone declared for it; holding the file's
    # bytes while copying out of them peaked at about twice the tensor bytes
    backbone = init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256), tiny_vocab, 1)
    path = tmp_path / "backbone.ckpt"
    save_backbone(path, backbone)
    tracemalloc.start()
    try:
        loaded = load_backbone(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensor_bytes = sum(arr.nbytes for arr in loaded.weights.values())
    assert tensor_bytes > 1.5e6
    assert peak < 1.3 * tensor_bytes, (peak, tensor_bytes)
    assert checksum(loaded) == checksum(backbone)


@pytest.mark.parametrize("module, load", [(softsrv.backbone, "load_backbone"), (softsrv.training, "load_params")],
                         ids=["load_backbone", "load_params"])
def test_each_loader_reads_through_read_checkpoint_once(setup, tmp_path, monkeypatch, module, load):
    # the one reader, looked up in the loader's own module, where the
    # benchmark's tracer wraps it
    backbone, _, _ = setup
    path = tmp_path / "x.ckpt"
    if load == "load_backbone":
        save_backbone(path, backbone)
    else:
        save_params(path, init_params("ss_mc", backbone, t=2, d_e=6, seed=14, mlp_hidden=4))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return read_checkpoint(*args, **kwargs)

    monkeypatch.setattr(module, "read_checkpoint", counting)
    getattr(module, load)(path)
    assert calls == ["backbone" if load == "load_backbone" else "softsrv_params"]


def test_params_load_holds_one_copy_of_the_parameters(tiny_vocab, tmp_path):
    # the same desk ss_mc checkpoint: load_params checks the header against
    # the zero_params layout, then reads each payload straight into its
    # view. Reading every tensor first and copying it into the layout
    # peaked at about twice the tensor bytes (7.49 MB for 3.72 MB)
    backbone = init_backbone(BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256), tiny_vocab, 1)
    path = tmp_path / "params.ckpt"
    saved = init_params("ss_mc", backbone, t=16, d_e=32, seed=3)
    save_params(path, saved)
    tracemalloc.start()
    try:
        loaded = load_params(path, backbone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensor_bytes = sum(arr.nbytes for _, arr in param_stacks(loaded))
    assert tensor_bytes > 3e6
    assert peak < 1.2 * tensor_bytes, (peak, tensor_bytes)
    for (_, a), (_, b) in zip(param_stacks(saved), param_stacks(loaded)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_params_round_trip_through_checkpoint(setup, tmp_path, variant):
    backbone, _, _ = setup
    params = init_params(variant, backbone, t=3, d_e=6, seed=11, k=3, mlp_hidden=4)
    path = tmp_path / f"{variant}.ckpt"
    save_params(path, params)
    loaded = load_params(path, backbone)
    assert loaded.variant == params.variant
    assert (loaded.d, loaded.t, loaded.d_e) == (params.d, params.t, params.d_e)
    for (na, a), (nb, b) in zip(param_stacks(params), param_stacks(loaded)):
        assert na == nb
        np.testing.assert_array_equal(a, b)



@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_checkpoint_tensors_are_the_param_stacks(setup, tmp_path, variant):
    backbone, _, _ = setup
    params = init_params(variant, backbone, t=3, d_e=6, seed=11, k=3, mlp_hidden=4)
    path = tmp_path / f"{variant}.ckpt"
    save_params(path, params)
    declared = {f"param.{name}": np.empty_like(arr) for name, arr in param_stacks(params)}
    # read_checkpoint rejects a header whose tensors are not exactly the declared ones
    tensors = read_checkpoint(path, "softsrv_params", lambda meta: (declared, declared))
    for name, arr in param_stacks(params):
        np.testing.assert_array_equal(tensors[f"param.{name}"], arr)


def test_per_column_checkpoint_rejected(setup, tmp_path):
    # the layout that named each MLP column's layers (col{j}_w{li}, col{j}_b{li});
    # load_params reads only the stacks, so a run directory written in it
    # fails its train stage until params.ckpt is rebuilt
    backbone, _, _ = setup
    params = init_params("ss_mc", backbone, t=2, d_e=6, seed=14, mlp_hidden=4)
    columns = {f"param.col{j}_{name}": stack[j] for name, stack in param_stacks(params) for j in range(params.t)}
    path = tmp_path / "p.ckpt"
    write_checkpoint(path, "softsrv_params", params_meta(params), columns)
    with pytest.raises(CheckpointFormatError, match="checkpoint tensor set mismatch"):
        load_params(path, backbone)


_DROP = object()


def _saved_params(setup, path, variant):
    """Saved params' meta and tensors, rebuilt from the params saved."""
    params = init_params(variant, setup[0], t=2, d_e=6, seed=14, k=2, mlp_hidden=4)
    save_params(path, params)
    return params_meta(params), {f"param.{name}": arr for name, arr in param_stacks(params)}


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
    ("ss_mc", {"mlp_hidden": _DROP}),
    ("ss_mc", {"mlp_hidden": "4"}),
    ("ss_mc", {"mlp_hidden": 4.0}),
    ("ss_mc", {"mlp_hidden": True}),
    ("ss_mc", {"mlp_hidden": 0}),
    ("ss_mc", {"mlp_layers": 1}),
    ("ss_np", None),  # meta is not an object at all
    # "param." keys patch the tensors: each must be exactly the one the meta declares
    ("ss_np", {"param.prompt": np.zeros((5, 3))}),
    # a tensor of another dtype than the meta's
    ("ss_np", {"param.prompt": np.zeros((8, 2), dtype=np.float32)}),
    ("ss_np", {"param.extra": np.zeros(2)}),
    ("ss_np", {"param.prompt": _DROP}),
    # one MLP layer, and its tensors agree with the meta
    ("ss_mc", {"mlp_layers": 1, "param.w0": np.zeros((2, 8, 6)), "param.b0": np.zeros((2, 8)),
               "param.w1": _DROP, "param.b1": _DROP, "param.w2": _DROP, "param.b2": _DROP}),
    # the meta's dtype is missing or not one a backbone computes in, or its tensors are not of it
    ("ss_np", {"dtype": _DROP}),
    ("ss_np", {"dtype": "float16"}),
    ("ss_np", {"dtype": ["float64"]}),
    ("ss_mc", {"dtype": "float32"}),
])
def test_malformed_params_meta_rejected(setup, tmp_path, variant, patch):
    path = tmp_path / "p.ckpt"
    meta, tensors = _saved_params(setup, path, variant)
    if patch is None:
        meta = [meta]
    else:
        for key, value in patch.items():
            target = tensors if key.startswith("param.") else meta
            if value is _DROP:
                del target[key]
            else:
                target[key] = value
    write_checkpoint(path, "softsrv_params", meta, tensors)
    with pytest.raises(CheckpointFormatError):
        load_params(path)


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_well_formed_params_meta_rewritten_still_loads(setup, tmp_path, variant):
    # the control for the malformed metas above: the same rewrite with the
    # meta left as saved writes the saved file's very bytes, and loads
    path = tmp_path / "p.ckpt"
    meta, tensors = _saved_params(setup, path, variant)
    saved = path.read_bytes()
    write_checkpoint(path, "softsrv_params", meta, tensors)
    assert path.read_bytes() == saved
    assert load_params(path, setup[0]).variant == variant


def test_params_of_another_dtype_than_the_backbone_rejected_on_load(twins, tmp_path):
    # each twin loads its own params and rejects the other's, so a float64
    # params.ckpt left in a run directory whose backbone is float32 fails
    # its train stage until it is rebuilt
    path = tmp_path / "p.ckpt"
    for model, other in (twins, twins[::-1]):
        params = init_params("ss_mc", model, t=2, d_e=6, seed=14, mlp_hidden=4)
        save_params(path, params)
        loaded = load_params(path, model)
        for (_, a), (_, b) in zip(param_stacks(params), param_stacks(loaded)):
            assert a.dtype == b.dtype == model.config.dtype
            np.testing.assert_array_equal(a, b)
        with pytest.raises(CheckpointFormatError, match=f"params are {model.config.dtype}"):
            load_params(path, other)


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
