"""Config resolution: presets, INI round trips, overrides, validation."""

import re
from dataclasses import fields

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig
from softsrv.config import (
    VARIANTS,
    ExperimentConfig,
    load_config,
    override_master_seed,
    preset_config,
    save_config,
    to_ini_text,
)
from softsrv.errors import ConfigError


def test_desk_preset_is_the_dataclass_defaults():
    cfg = preset_config("desk")
    assert cfg.preset == "desk"
    assert cfg.softsrv.t == 16
    assert cfg.trainer.steps == 2000
    assert cfg.trainer.lr == 1e-3
    assert cfg.trainer.batch_size == 8
    assert cfg.backbone.d == 64
    assert cfg.generation.method == "ss_mc"
    assert cfg.paths.out_dir == "runs/desk"


def test_paper_preset_pins_the_large_scale_recipe():
    cfg = preset_config("paper")
    assert cfg.preset == "paper"
    assert cfg.softsrv.t == 128
    assert cfg.trainer.steps == 20000
    assert cfg.trainer.lr == 5e-6
    assert cfg.postprocess.kmeans_k == 700
    assert cfg.postprocess.svd_dims == 100
    assert cfg.postprocess.decontam_n == 13
    assert cfg.mauve.k == 32
    assert cfg.generation.n_raw == 100000
    assert cfg.postprocess.n_select == 50000
    cfg.validate()


def test_presets_pin_width_steps_and_lr():
    cfg = preset_config("paper")
    assert (cfg.softsrv.t, cfg.trainer.steps, cfg.trainer.lr, cfg.trainer.batch_size) == (128, 20000, 5e-6, 8)
    cfg = preset_config("desk")
    assert (cfg.softsrv.t, cfg.trainer.steps, cfg.trainer.lr, cfg.trainer.batch_size) == (16, 2000, 1e-3, 8)
    with pytest.raises(ConfigError):
        preset_config("giant")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("galactic")


def test_ini_round_trip_preserves_every_field(tmp_path):
    cfg = preset_config("paper")
    cfg.trainer.lr = 3.5e-5
    cfg.generation.method = "ptsr"
    cfg.seeds.train = 777
    path = tmp_path / "exp.ini"
    save_config(str(path), cfg)
    loaded = load_config(str(path))
    assert to_ini_text(loaded) == to_ini_text(cfg)
    assert loaded.trainer.lr == 3.5e-5
    assert loaded.generation.method == "ptsr"
    assert loaded.seeds.train == 777
    assert loaded.preset == "paper"  # [meta] preset survives the trip


def test_explicit_preset_argument_beats_the_file(tmp_path):
    path = tmp_path / "exp.ini"
    save_config(str(path), preset_config("paper"))
    loaded = load_config(str(path), preset="paper")
    assert loaded.softsrv.t == 128
    # same file, forced onto desk defaults first: file values still win
    forced = load_config(str(path), preset="desk")
    assert forced.softsrv.t == 128  # the file pins t explicitly


def test_partial_file_keeps_preset_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[trainer]\nsteps = 17\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.trainer.steps == 17
    assert cfg.trainer.lr == 1e-3
    assert cfg.softsrv.t == 16


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[warpdrive]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[trainer]\nmomentum = 0.9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad_key))



@pytest.mark.parametrize("text", ["[meta]\nprest = paper\n", "[meta]\npreset = paper\nseed = 3\n"],
                         ids=["prest", "seed"])
def test_unknown_meta_key_rejected(tmp_path, text):
    # [meta] knows only preset: a misspelt one must not load the desk preset quietly
    path = tmp_path / "m.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key meta."):
        load_config(str(path))

def test_bad_value_coercion_reports_the_field(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[trainer]\nsteps = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="trainer.steps"):
        load_config(str(path))


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/experiment.ini")


def test_master_seed_override_spreads_fixed_offsets():
    cfg = override_master_seed(preset_config("desk"), 1000)
    assert cfg.seeds.corpus == 1001
    assert cfg.seeds.backbone == 1002
    assert cfg.seeds.embedder == 1003
    assert cfg.seeds.train == 1004
    assert cfg.seeds.generate == 1005
    assert cfg.seeds.answers == 1006
    assert cfg.seeds.postprocess == 1007
    assert cfg.seeds.mauve == 1008
    assert cfg.seeds.student == 1009


def test_validate_rejects_bad_combinations():
    cfg = ExperimentConfig()
    cfg.generation.method = "osmosis"
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.softsrv.t = 300
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.corpus.grammar = "calculus"
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.paths.out_dir = ""
    with pytest.raises(ConfigError):
        cfg.validate()



@pytest.mark.parametrize("section, key, value", [
    ("seeds", "train", True),
    ("generation", "n_raw", 2.5),
    ("postprocess", "kmeans_k", 3.0),
    ("generation", "max_new_tokens", True),
    ("trainer", "steps", 10.0),
    ("softsrv", "t", "8"),
])
def test_int_fields_hold_plain_ints(section, key, value):
    # a bool or float would pass the bounds, then fail mid-stage (range(2.5))
    # or fingerprint differently from the int it stands for
    cfg = ExperimentConfig()
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an int"):
        cfg.validate()


@pytest.mark.parametrize("section, key, value", [
    ("trainer", "lr", 1),
    ("trainer", "lr", True),
    ("trainer", "lr", np.float64(1e-3)),
    ("trainer", "lr", 0),
    ("trainer", "lr", "1e-3"),
])
def test_float_fields_hold_plain_floats(section, key, value):
    # lr = 1 would save as "lr = 1" and reload as 1.0, so the config and its
    # own saved file would give different config text and fingerprints
    cfg = ExperimentConfig()
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ConfigError, match=f"{section}.{key} must be a float"):
        cfg.validate()


def test_an_accepted_config_reloads_to_its_own_text(tmp_path):
    # every float field at a whole-number value, which str() writes as "1.0"
    cfg = preset_config("desk")
    for section in (getattr(cfg, f.name) for f in fields(cfg) if f.name != "preset"):
        for f in fields(section):
            if type(f.default) is float:
                setattr(section, f.name, 1.0)
    path = tmp_path / "exp.ini"
    save_config(str(path), cfg.validate())
    assert to_ini_text(load_config(str(path))) == to_ini_text(cfg)


@pytest.mark.parametrize("section, key, value", [
    # trainer.lr is the one optimizer setting; inf passed a positivity test,
    # ran both pretrains and then gave a nan loss at the second train step
    ("trainer", "lr", "0"),
    ("trainer", "lr", "-1e-3"),
    ("trainer", "lr", "nan"),
    ("trainer", "lr", "inf"),
    # optim declares the clip norm, Adam's betas and eps, and the helper
    # models' lr, so the keys that once set them are unknown keys now,
    # rejected whatever the value
    ("trainer", "grad_clip", "-1"),
    ("trainer", "grad_clip", "0"),
    ("backbone", "pretrain_lr", "0"),
    ("backbone", "pretrain_lr", "-1e-3"),
    ("embedder", "pretrain_lr", "-1e-3"),
    ("student", "pretrain_lr", "0"),
    ("student", "finetune_lr", "-1e-3"),
    ("student", "finetune_lr", "nan"),
    ("trainer", "beta1", "1"),
    ("trainer", "beta1", "-0.1"),
    ("trainer", "beta2", "1.5"),
    ("trainer", "eps", "0"),
    ("trainer", "eps", "-1e-8"),
])
def test_optimizer_settings_that_train_the_wrong_way_rejected(tmp_path, section, key, value):
    path = tmp_path / "opt.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    live = hasattr(getattr(ExperimentConfig(), section), key)
    match = f"{section}.{key} must be finite and positive" if live else f"unknown key {section}.{key}"
    with pytest.raises(ConfigError, match=match):
        load_config(str(path))


@pytest.mark.parametrize("section, key", [
    ("backbone", "pretrain_steps"), ("embedder", "pretrain_steps"), ("student", "pretrain_steps"),
    ("student", "finetune_steps"), ("trainer", "steps"),
])
def test_negative_step_counts_rejected(tmp_path, section, key):
    path = tmp_path / "steps.ini"
    path.write_text(f"[{section}]\n{key} = -3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{section}.{key} must be >= 0"):
        load_config(str(path))


@pytest.mark.parametrize("section, key", [("trainer", "batch_size")])
def test_empty_batches_rejected(tmp_path, section, key):
    path = tmp_path / "batch.ini"
    path.write_text(f"[{section}]\n{key} = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{section}.{key} must be >= 1"):
        load_config(str(path))


def test_zero_step_counts_load(tmp_path):
    # the control for the two tests above: zero steps train nothing, legally
    path = tmp_path / "zero.ini"
    path.write_text("[backbone]\npretrain_steps = 0\n[embedder]\npretrain_steps = 0\n"
                    "[student]\npretrain_steps = 0\nfinetune_steps = 0\n[trainer]\nsteps = 0\nbatch_size = 1\n",
                    encoding="utf-8")
    cfg = load_config(str(path))
    assert (cfg.backbone.pretrain_steps, cfg.trainer.steps, cfg.trainer.batch_size) == (0, 0, 1)


@pytest.mark.parametrize("section, key, lo", [
    ("corpus", "n_examples", 2), ("corpus", "n_aux", 2), ("corpus", "n_generic", 1),
    ("generation", "n_raw", 1), ("generation", "max_new_tokens", 1), ("generation", "ptsr_max_rounds", 1),
    ("postprocess", "n_select", 1), ("postprocess", "svd_dims", 1), ("postprocess", "kmeans_k", 1),
    ("postprocess", "kmeans_batch", 1), ("postprocess", "kmeans_iterations", 0),
    ("postprocess", "decontam_n", 1), ("mauve", "k", 1),
    ("backbone", "vocab_size", 5), ("seeds", "corpus", 0), ("seeds", "student", 0),
])
def test_counts_below_what_their_stage_accepts_rejected(tmp_path, section, key, lo):
    # each of these used to load and fail only once its stage ran
    path = tmp_path / "count.ini"
    path.write_text(f"[{section}]\n{key} = {lo - 1}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{section}.{key} must be >= {lo}"):
        load_config(str(path))
    path.write_text(f"[{section}]\n{key} = {lo}\n", encoding="utf-8")
    assert getattr(getattr(load_config(str(path)), section), key) == lo


@pytest.mark.parametrize("method, key, value, match", [
    ("ss_mp", "k", "0", "the mixture needs an int k >= 1"),
    ("ss_mc", "mlp_layers", "1", "layer_sizes must be two or more"),
    ("ss_mc", "mlp_layers", "0", "layer_sizes must be two or more"),
    ("ss_mc", "mlp_hidden", "0", "layer_sizes must be two or more"),
])
def test_soft_prompt_layouts_fail_when_the_config_loads(tmp_path, method, key, value, match):
    # these used to load, then fail in the params stage after both pretrains
    path = tmp_path / "layout.ini"
    path.write_text(f"[generation]\nmethod = {method}\n[softsrv]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"\[softsrv\] {method}: {match}"):
        load_config(str(path))


def test_soft_prompt_layout_is_checked_only_for_the_variant_that_reads_it(tmp_path):
    # the control for the test above: k is the mixture's, the MLP sizes ss_mc's
    path = tmp_path / "layout.ini"
    path.write_text("[generation]\nmethod = ss_mc\n[softsrv]\nk = 0\nmlp_layers = 2\n", encoding="utf-8")
    assert load_config(str(path)).softsrv.mlp_layers == 2
    for method in ("ss_np", "pt", "ptsr"):
        path.write_text(f"[generation]\nmethod = {method}\n[softsrv]\nk = 0\nmlp_layers = 1\n",
                        encoding="utf-8")
        assert load_config(str(path)).generation.method == method


@pytest.mark.parametrize("method", ["ss_np", "ss_mp", "ss_mc", "pt", "ptsr"])
def test_a_question_decode_must_fit_the_backbone_when_the_config_loads(tmp_path, method):
    # an ss_* question decodes max_new_tokens after the t-wide prompt, so one
    # token more used to pass both pretrains and the train stage, then fail in
    # generate; the template methods read no t, and their decodes depend on text length
    path = tmp_path / "fit.ini"
    for max_new, fits in ((256 - 200, True), (256 - 200 + 1, method not in VARIANTS)):
        path.write_text(f"[generation]\nmethod = {method}\nmax_new_tokens = {max_new}\n[softsrv]\nt = 200\n",
                        encoding="utf-8")
        if fits:
            assert load_config(str(path)).generation.max_new_tokens == max_new
        else:
            with pytest.raises(ConfigError, match=re.escape("softsrv.t + generation.max_new_tokens must be "
                                                            "<= backbone.max_seq, got 200 + 57 > 256")):
                load_config(str(path))


@pytest.mark.parametrize("method", ["ss_np", "ss_mp", "ss_mc", "pt", "ptsr"])
def test_a_student_example_must_fit_the_backbone_when_the_config_loads(tmp_path, method):
    # the student fine-tunes on BOS + question + answer + EOS, each text up to
    # max_new_tokens long; one token more used to run every stage and fail in
    # the last, or in answers once an answer decode outgrew max_seq
    path = tmp_path / "fit.ini"
    path.write_text(f"[generation]\nmethod = {method}\nmax_new_tokens = 127\n", encoding="utf-8")
    assert load_config(str(path)).generation.max_new_tokens == 127
    path.write_text(f"[generation]\nmethod = {method}\nmax_new_tokens = 128\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape("2 * generation.max_new_tokens + 2 must be <= "
                                                    "backbone.max_seq, got 2 * 128 + 2 > 256")):
        load_config(str(path))


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_only_the_generator_computes_in_float32(preset):
    cfg = preset_config(preset)
    dtypes = {section: cfg.model_config(section).dtype for section in ("backbone", "embedder", "student")}
    assert dtypes == {"backbone": "float32", "embedder": "float64", "student": "float64"}
    assert BackboneConfig().dtype == "float64"  # what the finite-difference fixtures build


@pytest.mark.parametrize("section, key, value, match", [
    ("embedder", "d_e", "64", "embedder.d_e must be in"),
    ("embedder", "d_e", "0", "embedder.d_e must be in"),
    ("embedder", "n_heads", "3", r"\[embedder\]: d must divide evenly into heads"),
    ("backbone", "dtype", "float16", r"\[backbone\]: unsupported dtype"),
    ("student", "d", "0", r"\[student\]: sizes must be ints >= 1"),
])
def test_model_settings_fail_when_the_config_loads(tmp_path, section, key, value, match):
    # each of these used to fail only once its stage ran
    path = tmp_path / "model.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_config(str(path))


def test_optimizer_boundary_values_load(tmp_path):
    # the control for the cases above: the smallest valid settings load
    path = tmp_path / "opt.ini"
    path.write_text("[trainer]\nlr = 1e-12\n", encoding="utf-8")
    assert load_config(str(path)).trainer.lr == 1e-12


def test_serialization_is_byte_stable():
    assert to_ini_text(preset_config("desk")) == to_ini_text(preset_config("desk"))
    a = preset_config("paper")
    b = preset_config("paper")
    b.trainer.lr = 5e-6  # same value, set explicitly
    assert to_ini_text(a) == to_ini_text(b)
