"""Checkpoint container: byte stability, round trips, malformed input."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, init_backbone, load_backbone, save_backbone
from softsrv.checkpoint import _MAGIC, read_checkpoint, write_checkpoint
from softsrv.errors import CheckpointFormatError
from softsrv.vocab import build_vocab


def _tensors():
    return {
        "weights": np.arange(12, dtype=np.float64).reshape(3, 4),
        "bias": np.array([1.5, -2.5]),
        "steps": np.array([7], dtype=np.float32),
    }


def _declared(tensors):
    """A layout declaring an empty array of each written tensor's shape and dtype; reads return (meta, arrays)."""
    def layout(meta):
        arrays = {name: np.empty(arr.shape, arr.dtype) for name, arr in tensors.items()}
        return (meta, arrays), arrays
    return layout


def _read(path, tensors, kind="demo"):
    return read_checkpoint(path, kind, _declared(tensors))


def test_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, "demo", {"note": "x"}, _tensors())
    meta, tensors = _read(path, _tensors())
    assert meta == {"note": "x"}
    for name, arr in _tensors().items():
        np.testing.assert_array_equal(tensors[name], arr)
        assert tensors[name].dtype == arr.dtype


def test_writes_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(a, "demo", {"k": 1}, _tensors())
    write_checkpoint(b, "demo", {"k": 1}, _tensors())
    assert a.read_bytes() == b.read_bytes()


def test_tensor_order_does_not_matter(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tensors = _tensors()
    write_checkpoint(a, "demo", {}, tensors)
    write_checkpoint(b, "demo", {}, dict(reversed(list(tensors.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, "demo", {}, _tensors())
    with pytest.raises(CheckpointFormatError):
        _read(path, _tensors(), kind="other")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError):
        _read(path, _tensors())


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, "demo", {}, _tensors())
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CheckpointFormatError):
        _read(path, _tensors())


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, "demo", {}, _tensors())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointFormatError):
        _read(path, _tensors())


def test_noncontiguous_input_round_trips(tmp_path):
    path = tmp_path / "model.ckpt"
    base = np.arange(16, dtype=np.float64).reshape(4, 4)
    write_checkpoint(path, "demo", {}, {"t": base.T})
    _, tensors = _read(path, {"t": base.T})
    np.testing.assert_array_equal(tensors["t"], base.T)


def test_read_arrays_are_writable_and_own_their_data(tmp_path):
    # loaded weights are trained in place, so they must not be views of the
    # file's bytes
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, "demo", {}, _tensors())
    _, tensors = _read(path, _tensors())
    for name, arr in tensors.items():
        assert arr.flags.writeable and arr.flags.owndata, name
        arr += 1
        np.testing.assert_array_equal(arr, _tensors()[name] + 1)


def test_zero_d_tensor_keeps_its_shape(tmp_path):
    path = tmp_path / "scalar.ckpt"
    scalars = {"lr": np.array(3.5), "step": np.array(7, dtype=np.float32)}
    write_checkpoint(path, "demo", {}, scalars)
    _, tensors = _read(path, scalars)
    for name, value, dtype in (("lr", 3.5, np.float64), ("step", 7, np.float32)):
        assert tensors[name].shape == ()
        assert tensors[name].dtype == dtype
        assert tensors[name] == value


def _raw_checkpoint(header, payload: bytes = b"") -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return _MAGIC + struct.pack(">Q", len(blob)) + blob + payload


def _entry(name="a", dtype="float64", shape=(1,)):
    return {"name": name, "dtype": dtype, "shape": list(shape)}


def _header_never_passes(meta):
    raise AssertionError("the header was not rejected before its meta reached the layout")


@pytest.mark.parametrize("header,payload", [
    ([], b""),
    ("header", b""),
    ({"kind": "demo", "tensors": "abc"}, b""),
    ({"kind": "demo", "tensors": {"a": _entry()}}, bytes(8)),
    ({"kind": "demo", "tensors": ["a"]}, bytes(8)),
    ({"kind": "demo", "tensors": [{"dtype": "float64", "shape": [1]}]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(name=7)]}, bytes(8)),
    ({"kind": "demo", "tensors": [{"name": "a", "dtype": "float64"}]}, bytes(8)),
    ({"kind": "demo", "tensors": [{"name": "a", "shape": [1]}]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(dtype=["float64"])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(dtype="float16")]}, bytes(2)),
    ({"kind": "demo", "tensors": [{**_entry(), "shape": 1}]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(shape=[1.5])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(shape=["1"])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(shape=[True])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(shape=[-1, -1])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(shape=[2**62, 4])]}, bytes(8)),
    ({"kind": "demo", "tensors": [_entry(), _entry()]}, bytes(16)),
], ids=[
    "list-header", "string-header", "tensors-string", "tensors-object", "entry-string",
    "no-name", "int-name", "no-shape", "no-dtype", "list-dtype", "unknown-dtype", "int-shape",
    "float-dim", "string-dim", "bool-dim", "negative-dims", "huge-dims", "duplicate-name",
])
def test_malformed_header_rejected(tmp_path, header, payload):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_raw_checkpoint(header, payload))
    with pytest.raises(CheckpointFormatError):
        read_checkpoint(path, "demo", _header_never_passes)


def test_int64_entry_rejected_as_an_unsupported_dtype(tmp_path):
    # nothing in the package stores integers, so the container has no integer dtype
    path = tmp_path / "int.ckpt"
    path.write_bytes(_raw_checkpoint({"kind": "demo", "tensors": [_entry(dtype="int64")]}, bytes(8)))
    with pytest.raises(CheckpointFormatError, match="unsupported dtype int64 for tensor 'a'"):
        read_checkpoint(path, "demo", _header_never_passes)
    with pytest.raises(CheckpointFormatError, match="unsupported dtype int64 for tensor 'a'"):
        write_checkpoint(path, "demo", {}, {"a": np.array([7], dtype=np.int64)})


def test_hand_built_header_reads(tmp_path):
    # the malformed cases above differ from this one only in their header
    path = tmp_path / "good.ckpt"
    payload = np.array([1.5, -2.0]).astype("<f8").tobytes()
    path.write_bytes(_raw_checkpoint({"kind": "demo", "tensors": [_entry(shape=(2,))]}, payload))
    meta, tensors = _read(path, {"a": np.zeros(2)})
    assert meta == {}
    np.testing.assert_array_equal(tensors["a"], [1.5, -2.0])


def _patch(key, value):
    def edit(meta, tensors):
        meta["config"][key] = value
    return edit


# each edit turns a saved backbone's (meta, tensors) into a malformed one
_BACKBONE_EDITS = {
    "no-config": lambda meta, tensors: meta.pop("config"),
    "no-tokens": lambda meta, tensors: meta.pop("tokens"),
    "list-config": lambda meta, tensors: meta.update(config=[8, 1, 2, 12, 16, "float64"]),
    "extra-config-key": _patch("bias", 1),
    "missing-config-key": lambda meta, tensors: meta["config"].pop("ffn_dim"),
    "string-d": _patch("d", "8"),
    "bool-layers": _patch("n_layers", True),
    "zero-heads": _patch("n_heads", 0),
    "indivisible-heads": _patch("n_heads", 3),
    "unknown-dtype": _patch("dtype", "float16"),
    "string-tokens": lambda meta, tensors: meta.update(tokens="abc"),
    "no-reserved-tokens": lambda meta, tensors: meta.update(tokens=meta["tokens"][4:]),
    "missing-tensor": lambda meta, tensors: tensors.pop("head_b"),
    "extra-tensor": lambda meta, tensors: tensors.update(extra=np.zeros(2)),
    "wrong-shape-w1": lambda meta, tensors: tensors.update({"layers.0.w1": np.zeros((13, 8))}),
    "float32-tok-emb": lambda meta, tensors: tensors.update(tok_emb=tensors["tok_emb"].astype(np.float32)),
}


def _saved_backbone(path):
    """A saved backbone, and the meta and tensors it was saved with, rebuilt from the model."""
    vocab = build_vocab(["alpha beta gamma delta"])
    model = init_backbone(BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=12, max_seq=16), vocab, 3)
    save_backbone(path, model)
    meta = {"config": asdict(model.config), "frozen": model.frozen, "tokens": list(model.vocab.tokens)}
    return model, meta, dict(model.weights)


@pytest.mark.parametrize("edit", sorted(_BACKBONE_EDITS) + ["list-meta"])
def test_malformed_backbone_checkpoint_rejected(tmp_path, edit):
    path = tmp_path / "b.ckpt"
    _, meta, tensors = _saved_backbone(path)
    if edit == "list-meta":
        meta = [meta]
    else:
        _BACKBONE_EDITS[edit](meta, tensors)
    write_checkpoint(path, "backbone", meta, tensors)
    with pytest.raises(CheckpointFormatError):
        load_backbone(path)


def test_well_formed_backbone_checkpoint_rewritten_still_loads(tmp_path):
    # the control for the malformed cases above: the same rewrite, no edit,
    # writes the saved file's very bytes
    path = tmp_path / "b.ckpt"
    model, meta, tensors = _saved_backbone(path)
    saved = path.read_bytes()
    write_checkpoint(path, "backbone", meta, tensors)
    assert path.read_bytes() == saved
    loaded = load_backbone(path)
    assert loaded.config == model.config and loaded.vocab.tokens == model.vocab.tokens
    assert sorted(loaded.weights) == sorted(model.weights)
    for name, arr in model.weights.items():
        np.testing.assert_array_equal(loaded.weights[name], arr)
