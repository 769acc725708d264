"""CLI harness: argument handling, exit codes, stage wiring."""

import json

import pytest

from softsrv.cli import main
from softsrv.config import preset_config, save_config, to_ini_text
from softsrv.records import read_records

from test_pipeline import mini_config


@pytest.fixture(scope="module")
def mini_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.ini"
    save_config(str(path), mini_config())
    return str(path)


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "ghost.ini"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[generation]\nmethod = osmosis\n", encoding="utf-8")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_model_config_error_exits_two_before_any_stage_runs(tmp_path, capsys):
    # embedder.d_e > embedder.d used to fail after the backbone pretrain, with exit 12
    cfg = mini_config()
    cfg.embedder.d_e = 64
    path = tmp_path / "wide.ini"
    save_config(str(path), cfg)
    out = tmp_path / "o"
    code = main(["pretrain", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "embedder.d_e" in capsys.readouterr().err
    assert not (out / "backbone.ckpt").exists()


@pytest.mark.parametrize("method, section, key, value", [
    ("ss_mp", "softsrv", "k", 0), ("ss_mc", "softsrv", "mlp_layers", 1), ("ss_np", "postprocess", "n_select", 0),
    ("ss_np", "backbone", "vocab_size", 4), ("ss_np", "generation", "max_new_tokens", 96 - 4 + 1),
    ("ss_np", "trainer", "lr", float("inf")), ("ss_np", "generation", "max_new_tokens", 48),
    ("ss_np", "postprocess", "kmeans_batch", -1),
])
def test_settings_a_stage_would_reject_exit_two_before_any_stage_runs(tmp_path, capsys, method, section, key,
                                                                       value):
    # these used to load, then exit 11, 13, 14 or 16 in the stage that read them; an infinite
    # lr and a question decode past max_seq failed only after both pretrains, a student
    # example past max_seq (2 * 48 + 2 > 96) in the last stage
    cfg = mini_config(method)
    setattr(getattr(cfg, section), key, value)
    path = tmp_path / "bad.ini"
    save_config(str(path), cfg)
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "backbone.ckpt").exists()


@pytest.mark.parametrize("section, line", [
    ("trainer", "grad_clip = 1.0"), ("generation", "ptsr_stop_text = Stop"),
    ("backbone", "pretrain_lr = 0.001"), ("backbone", "pretrain_batch = 8"),
    ("embedder", "pretrain_lr = 0.001"), ("embedder", "pretrain_batch = 8"),
    ("student", "pretrain_lr = 0.001"), ("student", "pretrain_batch = 8"),
    ("student", "finetune_lr = 0.001"), ("student", "finetune_batch = 8"), ("mauve", "c = 5.0"),
    ("trainer", "beta1 = 0.9"), ("trainer", "beta2 = 0.999"), ("trainer", "eps = 1e-08"),
    ("generation", "question_temperature = 1.0"), ("generation", "answer_temperature = 1.0"),
    ("generation", "pt_temperature = 2.0"), ("mauve", "grid_size = 101"),
])
def test_a_removed_key_exits_two_before_any_stage_runs(tmp_path, capsys, section, line):
    # optim declares Adam, the clip norm and the helper models' lr and batch
    # size, generation and templates the sampling temperatures, templates the
    # stop word, and mauve MAUVE's c and lambda grid; a file that still sets
    # one, even to the value the code uses, names an unknown key
    text = to_ini_text(mini_config("ptsr")).replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    path = tmp_path / "old.ini"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    key = line.split(" = ")[0]
    assert f"unknown key {section}.{key}" in capsys.readouterr().err
    assert not (out / "backbone.ckpt").exists()


def test_unknown_method_flag_is_rejected_by_argparse(mini_ini, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--config", mini_ini, "--out", str(tmp_path / "o"), "--method", "osmosis"])
    assert err.value.code == 2


def test_stage_failure_maps_to_stage_exit_code(tmp_path, capsys):
    cfg = mini_config()
    cfg.mauve.k = 10**6
    path = tmp_path / "broken.ini"
    save_config(str(path), cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 17  # mauve stage
    assert "stage 'mauve'" in capsys.readouterr().err


def test_run_prints_the_summary(mini_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--config", mini_ini, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("experiment summary")
    assert "mauve_score" in text
    assert (out / "summary.txt").read_text(encoding="utf-8") == text


def test_staged_commands_share_artifacts(mini_ini, tmp_path, capsys):
    out = str(tmp_path / "staged")
    assert main(["pretrain", "--config", mini_ini, "--out", out]) == 0
    assert main(["train", "--config", mini_ini, "--out", out]) == 0
    assert main(["generate", "--config", mini_ini, "--out", out]) == 0
    assert main(["postprocess", "--config", mini_ini, "--out", out]) == 0
    assert main(["mauve", "--config", mini_ini, "--out", out]) == 0
    assert main(["student-eval", "--config", mini_ini, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "answered records" in text
    assert "mauve_score" in text
    assert "student_ppl_ratio" in text


def test_method_flag_overrides_the_config(mini_ini, tmp_path):
    out = tmp_path / "pt"
    code = main(["generate", "--config", mini_ini, "--out", str(out), "--method", "pt"])
    assert code == 0
    records = read_records(out / "questions.jsonl")
    assert all(r.method_tag == "PT" for r in records)


def test_standalone_mauve_scores_two_files(mini_ini, tmp_path, capsys):
    out = str(tmp_path / "m")
    assert main(["pretrain", "--config", mini_ini, "--out", out]) == 0
    capsys.readouterr()
    gen = tmp_path / "gen.txt"
    ref = tmp_path / "ref.txt"
    gen.write_text("Ava has 3 apples.\nBen has 4 pears.\n\n", encoding="utf-8")
    ref.write_text("Ava has 3 apples.\nBen has 4 pears.\n", encoding="utf-8")
    cfg = mini_config()
    cfg.mauve.k = 2
    path = tmp_path / "m.ini"
    save_config(str(path), cfg)
    code = main([
        "mauve", "--config", str(path), "--out", out,
        "--gen", str(gen), "--ref", str(ref),
    ])
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    key, value = first.split("\t")
    assert key == "mauve_score"
    assert float(value) == pytest.approx(1.0, abs=1e-6)  # identical files


def test_standalone_mauve_of_a_run_prints_its_report(mini_ini, tmp_path, capsys):
    # the CLI and the pipeline score the same two text lists the same way
    out = tmp_path / "run"
    assert main(["run", "--config", mini_ini, "--out", str(out)]) == 0
    corpus = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    ref = tmp_path / "ref.txt"
    ref.write_text("".join(ex["question"] + "\n" for ex in corpus["test"]), encoding="utf-8")
    capsys.readouterr()
    code = main(["mauve", "--config", mini_ini, "--out", str(out),
                 "--gen", str(out / "final.jsonl"), "--ref", str(ref)])
    assert code == 0
    assert capsys.readouterr().out == (out / "mauve_report.txt").read_text(encoding="utf-8")


def test_standalone_mauve_requires_both_files(mini_ini, tmp_path, capsys):
    out = str(tmp_path / "m2")
    assert main(["pretrain", "--config", mini_ini, "--out", out]) == 0
    code = main(["mauve", "--config", mini_ini, "--out", out, "--gen", "only.txt"])
    assert code == 2
    assert "--gen and --ref" in capsys.readouterr().err


@pytest.mark.parametrize("empty", ["gen", "ref"])
def test_standalone_mauve_rejects_an_empty_file(mini_ini, tmp_path, capsys, empty):
    paths = {side: tmp_path / f"{side}.txt" for side in ("gen", "ref")}
    for side, path in paths.items():
        path.write_text("\n\n" if side == empty else "Ava has 3 apples.\n", encoding="utf-8")
    code = main(["mauve", "--config", mini_ini, "--out", str(tmp_path / "m"),
                 "--gen", str(paths["gen"]), "--ref", str(paths["ref"])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_negative_master_seed_exits_two_before_any_stage_runs(mini_ini, tmp_path, capsys):
    # it used to reach the corpus stage and exit 10 there
    out = tmp_path / "o"
    code = main(["pretrain", "--config", mini_ini, "--out", str(out), "--seed", "-20"])
    assert code == 2
    assert "seeds.corpus must be >= 0" in capsys.readouterr().err
    assert not (out / "backbone.ckpt").exists()


def test_seed_flag_rewrites_stage_seeds(tmp_path):
    out = tmp_path / "seeded"
    cfg = mini_config()
    path = tmp_path / "s.ini"
    save_config(str(path), cfg)
    code = main(["pretrain", "--config", str(path), "--out", str(out), "--seed", "5000"])
    assert code == 0
    text = (out / "config.ini").read_text(encoding="utf-8")
    assert "corpus = 5001" in text
    assert "student = 5009" in text
