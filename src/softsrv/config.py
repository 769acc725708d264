"""Experiment configuration: dataclass sections, named presets, INI round trip.

The file format is key-value-with-sections text (configparser syntax). A
config always starts from a named preset and applies overrides on top;
every seed is explicit, and the fully resolved config serializes into
reports for provenance. Only [trainer] sets a learning rate and batch
size; optim declares the rest of the recipe (the helper models' lr and
batch size among it), generation and templates the sampling temperatures,
mauve.DEFAULT_C and DEFAULT_GRID MAUVE's c and lambda grid, and templates
the PT-SR stop word. Unknown sections, unknown keys ([meta] knows only
preset), unparsable values and an int or float field holding another type
raise ConfigError, as do a learning rate that is not finite and positive,
negative steps or seeds, an empty batch, a count below what its stage
accepts, any model section that BackboneConfig rejects, any soft-prompt
layout that prompts.zero_params rejects, a soft-prompt question decode
longer than backbone.max_seq and a student example (BOS, question, answer
and EOS: 2 * generation.max_new_tokens + 2 tokens) longer than it, so they
fail before any stage.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields

from .backbone import BackboneConfig
from .errors import ConfigError, ValidationError
from .prompts import mlp_layer_sizes, zero_params
from .vocab import RESERVED

VARIANTS = ("ss_np", "ss_mp", "ss_mc")
METHODS = VARIANTS + ("pt", "ptsr")


@dataclass
class CorpusSection:
    grammar: str = "arithmetic"
    n_examples: int = 400
    n_aux: int = 200
    n_generic: int = 300


@dataclass
class BackboneSection:
    d: int = 64
    n_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 256
    max_seq: int = 256
    vocab_size: int = 512
    dtype: str = "float32"  # the frozen generator's compute; see the backbone module docstring
    pretrain_steps: int = 2000


@dataclass
class EmbedderSection:
    d: int = 32
    n_layers: int = 2
    n_heads: int = 2
    ffn_dim: int = 128
    d_e: int = 32
    pretrain_steps: int = 800


@dataclass
class SoftSRVSection:
    t: int = 16
    k: int = 2
    mlp_hidden: int = 128
    mlp_layers: int = 3


@dataclass
class TrainerSection:
    steps: int = 2000
    lr: float = 1e-3
    batch_size: int = 8


@dataclass
class GenerationSection:
    method: str = "ss_mc"
    n_raw: int = 2000
    max_new_tokens: int = 48
    pt_template: str = "diversified"  # or "undiversified"
    ptsr_max_rounds: int = 3


@dataclass
class PostprocessSection:
    n_select: int = 500
    svd_dims: int = 16
    kmeans_k: int = 32
    kmeans_batch: int = 64
    kmeans_iterations: int = 50
    decontam_n: int = 13


@dataclass
class MauveSection:
    k: int = 32


@dataclass
class StudentSection:
    d: int = 32
    n_layers: int = 2
    n_heads: int = 2
    ffn_dim: int = 128
    pretrain_steps: int = 800
    finetune_steps: int = 500


@dataclass
class SeedsSection:
    corpus: int = 101
    backbone: int = 102
    embedder: int = 103
    train: int = 104
    generate: int = 105
    answers: int = 106
    postprocess: int = 107
    mauve: int = 108
    student: int = 109


@dataclass
class PathsSection:
    out_dir: str = "runs/desk"


@dataclass
class ExperimentConfig:
    preset: str = "desk"
    corpus: CorpusSection = field(default_factory=CorpusSection)
    backbone: BackboneSection = field(default_factory=BackboneSection)
    embedder: EmbedderSection = field(default_factory=EmbedderSection)
    softsrv: SoftSRVSection = field(default_factory=SoftSRVSection)
    trainer: TrainerSection = field(default_factory=TrainerSection)
    generation: GenerationSection = field(default_factory=GenerationSection)
    postprocess: PostprocessSection = field(default_factory=PostprocessSection)
    mauve: MauveSection = field(default_factory=MauveSection)
    student: StudentSection = field(default_factory=StudentSection)
    seeds: SeedsSection = field(default_factory=SeedsSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def validate(self) -> "ExperimentConfig":
        for section in _SECTION_ORDER:  # an int field holds a plain int, a float field a plain float
            target = getattr(self, section)
            for f in fields(target):
                value, kind = getattr(target, f.name), type(f.default)
                if kind in (int, float) and type(value) is not kind:
                    raise ConfigError(f"{section}.{f.name} must be {'an int' if kind is int else 'a float'}, "
                                      f"got {value!r}")
        if self.generation.method not in METHODS:
            raise ConfigError(f"generation.method must be one of {METHODS}")
        if self.corpus.grammar not in ("arithmetic", "truefalse"):
            raise ConfigError("corpus.grammar must be 'arithmetic' or 'truefalse'")
        if self.generation.pt_template not in ("diversified", "undiversified"):
            raise ConfigError("generation.pt_template must be 'diversified' or 'undiversified'")
        if not self.paths.out_dir:
            raise ConfigError("paths.out_dir is required")
        if self.softsrv.t >= self.backbone.max_seq:
            raise ConfigError("softsrv.t must be smaller than backbone.max_seq")
        if not 0 < self.trainer.lr < float("inf"):
            raise ConfigError(f"trainer.lr must be finite and positive, got {self.trainer.lr}")
        # zero steps train nothing, which is legal; an empty batch or count is not, a train/test
        # split needs two examples, a vocabulary one real token
        for key, lo in (("backbone.pretrain_steps", 0), ("embedder.pretrain_steps", 0),
                        ("student.pretrain_steps", 0), ("student.finetune_steps", 0), ("trainer.steps", 0),
                        ("trainer.batch_size", 1), ("backbone.vocab_size", len(RESERVED) + 1),
                        *((f"seeds.{f.name}", 0) for f in fields(SeedsSection)),
                        ("corpus.n_examples", 2), ("corpus.n_aux", 2), ("corpus.n_generic", 1),
                        ("generation.n_raw", 1), ("generation.max_new_tokens", 1),
                        ("generation.ptsr_max_rounds", 1), ("postprocess.n_select", 1),
                        ("postprocess.svd_dims", 1), ("postprocess.kmeans_k", 1), ("postprocess.kmeans_batch", 1),
                        ("postprocess.kmeans_iterations", 0), ("postprocess.decontam_n", 1), ("mauve.k", 1)):
            if not self._value(key) >= lo:
                raise ConfigError(f"{key} must be >= {lo}, got {self._value(key)}")
        e = self.embedder
        if not 0 < e.d_e <= e.d:  # embed_sequence's bounds
            raise ConfigError(f"embedder.d_e must be in [1, embedder.d = {e.d}], got {e.d_e}")
        for section in ("backbone", "embedder", "student"):
            try:
                self.model_config(section)
            except ValidationError as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
        # every method's student fine-tunes on BOS + question + answer + EOS, each text up to
        # max_new_tokens long (an ss_* answer also decodes after its question)
        m = self.generation.max_new_tokens
        if 2 * m + 2 > self.backbone.max_seq:
            raise ConfigError(f"2 * generation.max_new_tokens + 2 must be <= backbone.max_seq, got "
                              f"2 * {m} + 2 > {self.backbone.max_seq}")
        method, s = self.generation.method, self.softsrv
        if method in VARIANTS:  # a question decodes max_new_tokens after the t-wide prompt
            if s.t + self.generation.max_new_tokens > self.backbone.max_seq:
                raise ConfigError(f"softsrv.t + generation.max_new_tokens must be <= backbone.max_seq, got "
                                  f"{s.t} + {self.generation.max_new_tokens} > {self.backbone.max_seq}")
            try:  # the layout init_params will build, checked by its one check
                zero_params(method, self.backbone.d, s.t, e.d_e, self.backbone.dtype, s.k,
                            mlp_layer_sizes(e.d_e, self.backbone.d, s.mlp_hidden, s.mlp_layers))
            except ValidationError as exc:
                raise ConfigError(f"[softsrv] {method}: {exc}") from exc
        return self

    def model_config(self, section: str) -> BackboneConfig:
        """The [backbone], [embedder] or [student] BackboneConfig; all share backbone.max_seq."""
        s = getattr(self, section)
        return BackboneConfig(d=s.d, n_layers=s.n_layers, n_heads=s.n_heads, ffn_dim=s.ffn_dim,
                              max_seq=self.backbone.max_seq, dtype=getattr(s, "dtype", "float64"))

    def _value(self, key: str):
        section, name = key.split(".")
        return getattr(getattr(self, section), name)


# Named presets. "desk" is the dataclass defaults; "paper" mirrors the
# large-scale recipe (prompt width 128, 20K steps at lr 5e-6, 700-cluster
# k-means over 100 SVD dims, 13-gram decontamination, 32-cluster mauve).
def preset_config(name: str) -> ExperimentConfig:
    if name == "desk":
        return ExperimentConfig()
    if name == "paper":
        cfg = ExperimentConfig(preset="paper")
        cfg.softsrv.t = 128
        cfg.trainer.steps = 20000
        cfg.trainer.lr = 5e-6
        cfg.generation.n_raw = 100000
        cfg.postprocess.n_select = 50000
        cfg.postprocess.kmeans_k = 700
        cfg.postprocess.svd_dims = 100
        cfg.postprocess.decontam_n = 13
        cfg.mauve.k = 32
        cfg.paths.out_dir = "runs/paper"
        return cfg
    raise ConfigError(f"unknown preset {name!r}")


_SECTION_ORDER = tuple(f.name for f in fields(ExperimentConfig) if f.name != "preset")


def _coerce(section: str, key: str, raw: str, current):
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def apply_overrides(cfg: ExperimentConfig, parser: configparser.ConfigParser) -> ExperimentConfig:
    for section in parser.sections():
        if section == "meta":
            for key in parser.options(section):
                if key != "preset":
                    raise ConfigError(f"unknown key meta.{key}")
            continue
        if section not in _SECTION_ORDER:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(cfg, section)
        known = {f.name for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(section, key, raw, getattr(target, key)))
    return cfg


def load_config(path: str, preset: str | None = None) -> ExperimentConfig:
    """Resolve preset then file overrides. The file may name its own preset
    in [meta] preset=...; an explicit argument wins."""
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file not found: {path}")
    name = preset or parser.get("meta", "preset", fallback="desk")
    cfg = preset_config(name)
    cfg.preset = name
    return apply_overrides(cfg, parser).validate()


def override_master_seed(cfg: ExperimentConfig, master: int) -> ExperimentConfig:
    """Replace every stage seed with master + its 1-based position in SeedsSection."""
    for offset, f in enumerate(fields(SeedsSection), start=1):
        setattr(cfg.seeds, f.name, int(master) + offset)
    return cfg


def to_ini_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization: fixed section and key order; str of a float is its repr."""
    buf = io.StringIO()
    buf.write("[meta]\n")
    buf.write(f"preset = {cfg.preset}\n\n")
    for section in _SECTION_ORDER:
        buf.write(f"[{section}]\n")
        target = getattr(cfg, section)
        for f in fields(target):
            buf.write(f"{f.name} = {getattr(target, f.name)}\n")
        buf.write("\n")
    return buf.getvalue()


def save_config(path: str, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_ini_text(cfg))
