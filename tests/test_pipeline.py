"""Staged experiment runner on a deliberately tiny configuration."""

import os
import shutil
import time
from dataclasses import fields
from pathlib import Path

import pytest

from softsrv import pipeline, templates
from softsrv.backbone import BackboneModel, checksum
from softsrv.config import preset_config
from softsrv.errors import CapacityError, ConfigError, StageError
from softsrv.pipeline import STAGE_EXIT_CODES, STAGE_TABLE, STAGES, Pipeline, run_experiment
from softsrv.prompts import param_stacks
from softsrv.records import read_records
from softsrv.training import load_params


def mini_config(method="ss_np"):
    cfg = preset_config("desk")
    cfg.corpus.n_examples = 30
    cfg.corpus.n_aux = 10
    cfg.corpus.n_generic = 20
    cfg.backbone.d = 16
    cfg.backbone.n_layers = 1
    cfg.backbone.n_heads = 2
    cfg.backbone.ffn_dim = 32
    cfg.backbone.max_seq = 96
    cfg.backbone.vocab_size = 256
    cfg.backbone.pretrain_steps = 30
    cfg.embedder.d = 8
    cfg.embedder.n_layers = 1
    cfg.embedder.n_heads = 1
    cfg.embedder.ffn_dim = 16
    cfg.embedder.d_e = 8
    cfg.embedder.pretrain_steps = 10
    cfg.softsrv.t = 4
    cfg.softsrv.mlp_hidden = 16
    cfg.trainer.steps = 12
    cfg.trainer.batch_size = 4
    cfg.generation.method = method
    cfg.generation.n_raw = 10
    cfg.generation.max_new_tokens = 16
    cfg.postprocess.n_select = 6
    cfg.postprocess.svd_dims = 3
    cfg.postprocess.kmeans_k = 3
    cfg.postprocess.kmeans_iterations = 10
    cfg.mauve.k = 4
    cfg.student.d = 16
    cfg.student.n_layers = 1
    cfg.student.n_heads = 2
    cfg.student.ffn_dim = 32
    cfg.student.pretrain_steps = 20
    cfg.student.finetune_steps = 10
    return cfg


ARTIFACTS = [
    "config.ini", "corpus.json", "backbone.ckpt", "backbone_trace.tsv",
    "embedder.ckpt", "student_base.ckpt", "params.ckpt", "train_trace.tsv",
    "questions.jsonl", "answered.jsonl", "selected.jsonl", "final.jsonl",
    "mauve_report.txt", "student_report.txt", "summary.txt", "fingerprints.tsv",
]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    summary = run_experiment(mini_config(), str(out))
    return out, summary


def test_stage_names_and_exit_codes_are_stable():
    assert STAGES == (
        "corpus", "backbone", "embedder", "train", "generate",
        "answers", "postprocess", "mauve", "student", "summary",
    )
    assert STAGE_EXIT_CODES["corpus"] == 10
    assert STAGE_EXIT_CODES["summary"] == 19


def test_every_artifact_is_written(finished_run):
    out, _ = finished_run
    for name in ARTIFACTS:
        assert (out / name).exists(), name


def test_summary_carries_the_headline_metrics(finished_run):
    _, summary = finished_run
    assert summary.startswith("experiment summary")
    for key in ("mauve_score", "student_ppl_ratio", "final_records", "method\tss_np"):
        assert key in summary, key


def test_records_files_are_well_formed(finished_run):
    out, _ = finished_run
    questions = read_records(out / "questions.jsonl")
    answered = read_records(out / "answered.jsonl")
    final = read_records(out / "final.jsonl")
    assert len(questions) == 10
    assert len(answered) == 10
    assert all(r.method_tag == "SS_NP" for r in questions)
    assert all(r.answer is not None for r in answered)
    assert 0 < len(final) <= 6


def test_rerun_into_same_directory_is_byte_identical(finished_run, tmp_path):
    out, _ = finished_run
    probe = tmp_path / "again"
    shutil.copytree(out, probe)
    # wipe everything, rerun from nothing in the same directory
    for name in ARTIFACTS:
        (probe / name).unlink()
    run_experiment(mini_config(), str(probe))
    for name in ARTIFACTS:
        assert (probe / name).read_bytes() == (out / name).read_bytes(), name


def test_resume_reuses_existing_stage_artifacts(finished_run, tmp_path):
    out, _ = finished_run
    probe = tmp_path / "resume"
    shutil.copytree(out, probe)
    (probe / "summary.txt").unlink()
    (probe / "mauve_report.txt").unlink()
    (probe / "final.jsonl").unlink()
    # poison the training checkpoint's mtime marker: resume must not retrain
    marker = (probe / "params.ckpt").read_bytes()
    summary = run_experiment(mini_config(), str(probe))
    assert (probe / "params.ckpt").read_bytes() == marker
    assert summary == (out / "summary.txt").read_text(encoding="utf-8")
    assert (probe / "mauve_report.txt").read_bytes() == (out / "mauve_report.txt").read_bytes()


def _copy_run(src, dst):
    shutil.copytree(src, dst)
    return dst


def test_method_switch_in_one_directory_rebuilds_the_prompt_and_records(finished_run, tmp_path):
    probe = _copy_run(finished_run[0], tmp_path / "switch")
    summary = run_experiment(mini_config("ss_mc"), str(probe))
    assert load_params(probe / "params.ckpt").variant == "ss_mc"
    assert all(r.method_tag == "SS_MC" for r in read_records(probe / "questions.jsonl"))
    assert all(r.method_tag == "SS_MC" for r in read_records(probe / "final.jsonl"))
    assert "method\tss_mc" in summary


def test_rebuilding_a_stage_drops_the_records_downstream_of_it(finished_run, tmp_path):
    out, _ = finished_run
    probe = _copy_run(out, tmp_path / "retrain")
    # as `softsrv train --method ss_mc` run in a finished ss_np directory
    Pipeline(mini_config("ss_mc"), probe).ensure_params()
    assert load_params(probe / "params.ckpt").variant == "ss_mc"
    run_experiment(mini_config(), str(probe))
    assert load_params(probe / "params.ckpt").variant == "ss_np"
    for name in ARTIFACTS:
        assert (probe / name).read_bytes() == (out / name).read_bytes(), name


def _must_not_run(*args, **kwargs):
    raise AssertionError("a stage was rebuilt")


def test_rebuild_under_the_recorded_fingerprint_keeps_downstream_records(finished_run, tmp_path, monkeypatch):
    out, _ = finished_run
    probe = _copy_run(out, tmp_path / "same")
    (probe / "final.jsonl").unlink()
    (probe / "summary.txt").unlink()
    # postprocess is rebuilt byte for byte, so mauve and the student stay current
    monkeypatch.setattr(pipeline, "mauve_score", _must_not_run)
    monkeypatch.setattr(pipeline, "evaluate_student", _must_not_run)
    run_experiment(mini_config(), str(probe))
    for name in ARTIFACTS:
        assert (probe / name).read_bytes() == (out / name).read_bytes(), name


def test_rebuild_over_an_unrecorded_artifact_drops_downstream_records(finished_run, tmp_path, monkeypatch):
    probe = _copy_run(finished_run[0], tmp_path / "unrecorded")
    (probe / "params.ckpt").unlink()
    real_save = pipeline.save_params

    def crash_after_saving(path, params):
        real_save(path, params)
        raise OSError("simulated crash before the record")

    monkeypatch.setattr(pipeline, "save_params", crash_after_saving)
    with pytest.raises(StageError):
        Pipeline(mini_config(), probe).ensure_params()
    monkeypatch.undo()
    # params.ckpt exists without a record, so rebuilding it may replace what
    # the questions and everything after them were built on
    Pipeline(mini_config("ss_mc"), probe).ensure_params()
    recorded = (probe / "fingerprints.tsv").read_text(encoding="utf-8")
    keys = {line.split("\t")[0] for line in recorded.splitlines()}
    assert keys == {"corpus", "backbone", "embedder", "student_base", "params"}


def test_stage_by_stage_commands_leave_a_directory_run_reuses(finished_run, tmp_path, monkeypatch):
    out, _ = finished_run
    probe = tmp_path / "staged"
    # as `softsrv train`, `generate`, `postprocess`, `mauve` without `pretrain`:
    # mauve builds the embedder last, after stages that declare it upstream
    staged = Pipeline(mini_config(), probe)
    staged.ensure_params()
    staged.ensure_questions()
    staged.ensure_postprocess()
    staged.ensure_mauve()
    for name in ("train", "generate_questions", "generate_answers", "diverse_subsample", "mauve_score"):
        monkeypatch.setattr(pipeline, name, _must_not_run)
    run_experiment(mini_config(), str(probe))
    for name in ARTIFACTS:
        assert (probe / name).read_bytes() == (out / name).read_bytes(), name


@pytest.fixture(scope="module")
def finished_ptsr_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_ptsr")
    run_experiment(mini_config("ptsr"), str(out))
    return out


def test_template_run_records_every_stage_it_built(finished_ptsr_run):
    recorded = (finished_ptsr_run / "fingerprints.tsv").read_text(encoding="utf-8")
    keys = {line.split("\t")[0] for line in recorded.splitlines()}
    assert keys == set(pipeline.STAGE_TABLE) - {"params"}


def test_mauve_change_on_a_template_run_keeps_its_questions(finished_ptsr_run, tmp_path, monkeypatch):
    probe = _copy_run(finished_ptsr_run, tmp_path / "mauve_k")
    for name in ("pretrain_backbone", "ptsr_generate", "pt_generate_answers", "evaluate_student"):
        monkeypatch.setattr(pipeline, name, _must_not_run)
    cfg = mini_config("ptsr")
    cfg.mauve.k = 2
    run_experiment(cfg, str(probe))
    assert "k\t2" in (probe / "mauve_report.txt").read_text(encoding="utf-8").splitlines()
    for name in ("questions.jsonl", "answered.jsonl", "final.jsonl", "student_report.txt"):
        assert (probe / name).read_bytes() == (finished_ptsr_run / name).read_bytes(), name


@pytest.mark.parametrize("start", ["empty", "regenerating"])
def test_interrupted_build_is_redone_in_full(finished_run, tmp_path, monkeypatch, start):
    out, _ = finished_run
    probe = tmp_path / "crash"
    if start == "regenerating":
        # a finished run whose questions and everything after them were deleted to be redone
        _copy_run(out, probe)
        for name in ("questions.jsonl", "answered.jsonl", "selected.jsonl", "contaminated.jsonl",
                     "final.jsonl", "mauve_report.txt", "student_report.txt", "summary.txt"):
            (probe / name).unlink()
    real_write = pipeline.write_records

    def crash_after_four(path, records):
        real_write(path, records[:4])
        raise OSError("simulated crash mid-write")

    monkeypatch.setattr(pipeline, "write_records", crash_after_four)
    with pytest.raises(StageError) as err:
        run_experiment(mini_config(), str(probe))
    assert err.value.stage == "generate"
    assert len(read_records(probe / "questions.jsonl")) == 4
    monkeypatch.undo()
    run_experiment(mini_config(), str(probe))
    for name in ARTIFACTS:
        assert (probe / name).read_bytes() == (out / name).read_bytes(), name


# one key read by each stage, in table order, then the method itself
CONFIG_CHANGES = [
    ("corpus", "n_generic", 24),
    ("backbone", "pretrain_steps", 25),
    ("embedder", "pretrain_steps", 8),
    ("student", "pretrain_steps", 15),
    ("trainer", "steps", 8),
    ("seeds", "generate", 205),
    ("seeds", "answers", 206),
    ("postprocess", "n_select", 5),
    ("mauve", "k", 3),
    ("student", "finetune_steps", 6),
    ("paths", "out_dir", "runs/elsewhere"),
    ("generation", "method", "ss_mc"),
]


@pytest.mark.parametrize(
    "section,key,value", CONFIG_CHANGES, ids=[f"{s}.{k}" for s, k, _ in CONFIG_CHANGES]
)
def test_resume_after_a_config_change_matches_a_fresh_run(finished_run, tmp_path, section, key, value):
    cfg = mini_config()
    setattr(getattr(cfg, section), key, value)
    resumed = _copy_run(finished_run[0], tmp_path / "resumed")
    run_experiment(cfg, str(resumed))
    fresh = tmp_path / "fresh"
    run_experiment(cfg, str(fresh))
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in resumed.iterdir())
    for name in names:
        assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), name


def test_mauve_change_reuses_the_frozen_models_and_the_prompt(finished_run, tmp_path, monkeypatch):
    probe = _copy_run(finished_run[0], tmp_path / "mauve_k")
    kept = {name: (probe / name).read_bytes() for name in ("backbone.ckpt", "params.ckpt")}

    def must_not_run(*args, **kwargs):
        raise AssertionError("an upstream stage was rebuilt")

    monkeypatch.setattr(pipeline, "pretrain_backbone", must_not_run)
    monkeypatch.setattr(pipeline, "train", must_not_run)
    cfg = mini_config()
    cfg.mauve.k = 2
    run_experiment(cfg, str(probe))
    for name, data in kept.items():
        assert (probe / name).read_bytes() == data, name
    assert "k\t2" in (probe / "mauve_report.txt").read_text(encoding="utf-8").splitlines()


# the softsrv.pipeline globals perfbench/tracing.py replaces with timing shims
WRAPPED_NAMES = (
    "train", "pretrain_backbone", "embed_sequence",
    "generate_questions", "generate_answers", "ptsr_generate", "pt_generate_answers",
    "diverse_subsample", "decontaminate_report", "mauve_score",
    "write_records", "read_records",
)


def test_stages_look_up_wrapped_names_at_call_time(tmp_path, monkeypatch):
    calls = dict.fromkeys(WRAPPED_NAMES, 0)

    def counting(name, original):
        def shim(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return shim

    for name in WRAPPED_NAMES:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    run_experiment(mini_config("ss_np"), str(tmp_path / "ss_np"))
    run_experiment(mini_config("ptsr"), str(tmp_path / "ptsr"))
    assert all(calls.values()), calls
    # a resumed summary loads questions, answers and final records through the shim
    calls["read_records"] = 0
    (tmp_path / "ss_np" / "summary.txt").unlink()
    run_experiment(mini_config("ss_np"), str(tmp_path / "ss_np"))
    assert calls["read_records"] == 4


def _comparable(value):
    """A stage value in a form that == compares exactly: models and prompts by their tensor bytes."""
    if isinstance(value, BackboneModel):
        return value.config, value.vocab.tokens, value.frozen, checksum(value)
    if hasattr(value, "variant"):
        return value.variant, value.d, value.t, value.d_e, [(n, a.tobytes()) for n, a in param_stacks(value)]
    return value


def test_fresh_and_resumed_pipelines_hold_the_same_stage_values(tmp_path):
    cfg = mini_config("ss_mc")
    fresh = Pipeline(cfg, tmp_path / "run")
    fresh.run_all()
    resumed = Pipeline(cfg, tmp_path / "run")
    differ = [key for key in STAGE_TABLE if _comparable(fresh._get(key)) != _comparable(resumed._get(key))]
    assert differ == []


def test_template_method_skips_soft_prompt_stages(tmp_path):
    out = tmp_path / "pt"
    summary = run_experiment(mini_config("pt"), str(out))
    assert not (out / "params.ckpt").exists()
    assert not (out / "train_trace.tsv").exists()
    records = read_records(out / "questions.jsonl")
    assert all(r.method_tag == "PT" for r in records)
    assert "method\tpt" in summary


def test_refinement_method_runs_end_to_end(tmp_path):
    out = tmp_path / "ptsr"
    cfg = mini_config("ptsr")
    cfg.generation.ptsr_max_rounds = 2
    run_experiment(cfg, str(out))
    records = read_records(out / "questions.jsonl")
    assert all(r.method_tag == "PT_SR" for r in records)
    assert all("rounds" in r.provenance for r in records)


@pytest.mark.parametrize("method, kind, max_new", [
    pytest.param("pt", "question", 39, id="pt-question"),
    pytest.param("ptsr", "critique", 47, id="ptsr-critique"),
])
def test_template_contexts_past_capacity_fail_before_any_decode(tmp_path, monkeypatch, method, kind, max_new):
    # both pass the student-example rule, 2 * max_new + 2 <= 96. A question
    # decodes its max_new tokens after the rendered template and seed text
    # (up to 60 tokens in the first n_raw seeds), so the pt case fails in
    # generate, though the answer template's worst case, 18 + 2 * 39, fits.
    # A critique decodes after its 17-token template and a question of up to
    # max_new tokens, which no corpus changes, so the config fails to load
    cfg = mini_config(method)
    cfg.generation.max_new_tokens = max_new
    calls = []
    decode = templates.continue_tokens

    def counting(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(templates, "continue_tokens", counting)
    if method == "pt":
        with pytest.raises(StageError) as err:
            run_experiment(cfg, str(tmp_path / method))
        assert (err.value.stage, STAGE_EXIT_CODES[err.value.stage]) == ("generate", 14)
        assert isinstance(err.value.cause, CapacityError)
        message = str(err.value.cause)
    else:
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, str(tmp_path / method))
        assert not (tmp_path / method).exists()
        message = str(err.value)
    assert f"the {kind} template's context" in message
    assert calls == []


def test_stage_failures_carry_the_stage_name(tmp_path):
    cfg = mini_config()
    cfg.mauve.k = 10**6  # cannot exceed the number of embedded points
    with pytest.raises(StageError) as err:
        run_experiment(cfg, str(tmp_path / "bad"))
    assert err.value.stage == "mauve"
    assert STAGE_EXIT_CODES[err.value.stage] == 17


class _ReadLog:
    """A config, or one of its sections, that logs each field read as "section.field"."""

    def __init__(self, target, reads: set, section: str = ""):
        self._target, self._reads, self._section = target, reads, section

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if self._section:
            self._reads.add(f"{self._section}.{name}")
            return value
        if callable(value):  # a config method such as model_config reads through the log too
            return getattr(type(self._target), name).__get__(self)
        return _ReadLog(value, self._reads, name)


def _settable_fields() -> set[str]:
    cfg = preset_config("desk")
    return {f"{section.name}.{f.name}" for section in fields(cfg) if section.name != "preset"
            for f in fields(getattr(cfg, section.name))}


def _declared_fields(keys: str) -> set[str]:
    declared = set()
    for key in keys.split():
        section, _, names = key.partition(".")
        names = names.split(",") if names else [f.name for f in fields(getattr(preset_config("desk"), section))]
        declared |= {f"{section}.{n}" for n in names}
    return declared


def test_stage_builds_read_only_the_config_their_rows_declare(tmp_path):
    # the resume rule's "never less": a build that read a field its row
    # leaves out would be reused after that field changed. Every stage is
    # rebuilt in table order on a finished run, so its upstream stages are
    # already memoized and their builds and the fingerprints, which read the
    # whole config, are not charged to it; summary's "*" is exempt
    read_anywhere = set()
    for method in ("ss_np", "ss_mp", "ss_mc", "pt", "ptsr"):
        cfg = mini_config(method)
        out = tmp_path / method
        run_experiment(cfg, str(out))
        pipe = Pipeline(cfg, out)
        for key, stage in STAGE_TABLE.items():
            if stage.keys == "*" or (key == "params" and method not in ("ss_np", "ss_mp", "ss_mc")):
                continue
            reads: set[str] = set()
            pipe.cfg = _ReadLog(cfg, reads)
            try:
                getattr(pipe, "_build_" + key)(*[out / name for name in stage.artifacts.split()])
            finally:
                pipe.cfg = cfg
            assert reads <= _declared_fields(stage.keys), (method, key, sorted(reads - _declared_fields(stage.keys)))
            read_anywhere |= reads
            pipe._get(key)  # the rebuilt artifacts are current: this only loads them
    assert _settable_fields() - read_anywhere == {"paths.out_dir"}


def test_every_setting_is_declared_by_a_stage_row():
    # the resume rule's other half: with the test above, a new key can neither
    # sit in no row nor change results without rebuilding the stage that reads
    # it; summary's "*" only embeds the config text
    declared = set().union(*(_declared_fields(stage.keys) for stage in STAGE_TABLE.values() if stage.keys != "*"))
    assert _settable_fields() - declared == {"paths.out_dir"}


def test_stage_builds_ask_only_for_the_stages_their_rows_declare(tmp_path, monkeypatch):
    # an undeclared upstream read would leave a stage's fingerprint current
    # after the stage it read changed; a read made while an upstream stage
    # builds is charged to that stage, and summary, which reads every stage
    # it reports on, is exempt
    building: list[str] = []
    asked = {key: set() for key in STAGE_TABLE}
    get = Pipeline._get

    def spy_get(self, key):
        if building:
            asked[building[-1]].add(key)
        return get(self, key)

    def spy_build(key, build):
        def shim(self, *paths):
            building.append(key)
            try:
                return build(self, *paths)
            finally:
                building.pop()
        return shim

    monkeypatch.setattr(Pipeline, "_get", spy_get)
    for key in STAGE_TABLE:
        monkeypatch.setattr(Pipeline, "_build_" + key, spy_build(key, getattr(Pipeline, "_build_" + key)))
    for method in ("ss_np", "ss_mp", "ss_mc", "pt", "ptsr"):
        run_experiment(mini_config(method), str(tmp_path / method))
    undeclared = {key: sorted(asked[key] - set(stage.upstream.split()))
                  for key, stage in STAGE_TABLE.items() if key != "summary"}
    assert not any(undeclared.values()), undeclared
    assert asked["params"] == {"corpus", "backbone", "embedder"}  # the spy saw the builds' reads


def test_undiversified_pt_template_renders_its_own_question_template(tmp_path, monkeypatch):
    rendered = []
    render = templates.render

    def spy(template, text):
        rendered.append(template.body)
        return render(template, text)

    cfg = mini_config("pt")
    cfg.generation.pt_template = "undiversified"
    pipe = Pipeline(cfg, tmp_path / "pt")  # its config check renders the answer template
    monkeypatch.setattr(templates, "render", spy)
    pipe.ensure_questions()
    builtin = templates.load_builtin_templates(cfg.corpus.grammar)
    assert rendered and set(rendered) == {builtin["question_undiversified"].body}


def test_trace_files_carry_the_pre_clip_gradient_norm(finished_run):
    out, summary = finished_run
    for name in ("backbone_trace.tsv", "embedder_trace.tsv", "student_base_trace.tsv", "train_trace.tsv"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step\tloss\tgrad_norm", name
        rows = [line.split("\t") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows))) and rows, name
        assert all(float(r[2]) > 0 for r in rows), name
    # the summary still averages the loss column
    losses = pipeline._read_trace_losses(out / "train_trace.tsv")
    assert len(losses) == 12
    assert f"train_loss_last100\t{sum(losses) / len(losses):.10g}" in summary


def test_config_dump_matches_resolved_settings(finished_run):
    out, _ = finished_run
    text = (out / "config.ini").read_text(encoding="utf-8")
    assert "[trainer]" in text
    assert "steps = 12" in text
    # the dump records the config as resolved; the directory argument to
    # run_experiment does not mutate it
    assert "out_dir = runs/desk" in text


def test_pipeline_object_exposes_stage_methods(tmp_path):
    cfg = mini_config()
    pipe = Pipeline(cfg, str(tmp_path / "stages"))
    data = pipe.ensure_corpus()
    assert set(data) >= {"grammar", "train", "test", "aux", "generic"}
    assert len(data["train"]) == 27
    assert len(data["test"]) == 3


@pytest.mark.skipif(
    not os.environ.get("SOFTSRV_RUN_FULL"),
    reason="full desk run takes minutes; set SOFTSRV_RUN_FULL=1 to include it",
)
def test_full_desk_run_fits_the_ten_minute_budget(tmp_path):
    started = time.perf_counter()
    summary = run_experiment(preset_config("desk"), str(tmp_path / "desk"))
    elapsed = time.perf_counter() - started
    assert "mauve_score" in summary
    assert "student_success\tTrue" in summary
    assert elapsed <= 600.0, f"desk run took {elapsed:.0f}s"
