"""Acceptance gate.

One test per criterion, numbered, so `pytest -v` prints exactly one
PASS/FAIL line for each. Bodies also print the measured numbers (shown
with -s or on failure). The desk-scale fixtures in conftest.py are the
stages of one desk Pipeline, built once per session and shared; seeds,
decode length, MAUVE's k and the student's fine-tuning steps come from
that pipeline's config, the sampling temperatures from generation and
the student's lr and batch size from optim, as the pipeline takes them. Budget checks read the wall
time recorded at build.
"""

import shutil
import time

import numpy as np
import pytest

from conftest import live_backbone
from test_pipeline import mini_config

from softsrv.backbone import BackboneConfig, batch_loss_and_grads, checksum
from softsrv.cli import main as cli_main
from softsrv.config import preset_config, save_config
from softsrv.embedder import embed_sequence
from softsrv.generation import ANSWER_TEMPERATURE, QUESTION_TEMPERATURE, generate_answers, generate_questions
from softsrv.mauve import DEFAULT_GRID, QuantizedPair, _LAM_EDGE, divergence_curve, mauve_score
from softsrv.pipeline import Pipeline
from softsrv.postprocess import ClusterAssignment, decontaminate, dedup_exact, round_robin_subsample
from softsrv.prompts import init_params, materialize, param_grad, param_stacks
from softsrv.student import evaluate_student
from softsrv.vocab import build_vocab

FD_STEP = 1e-5
REL_TOL = 1e-4
FLOOR = 1e-6


def report(criterion, ok, text):
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({text})")
    assert ok, f"criterion {criterion:02d}: {text}"


# ---------------------------------------------------------------------------
# 1. analytic gradients through the whole chain match central differences


def test_criterion_01_gradient_suite_matches_finite_differences():
    started = time.perf_counter()
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta"])
    cfg = BackboneConfig(d=8, n_layers=2, n_heads=2, ffn_dim=12, max_seq=24)
    model = live_backbone(cfg, vocab, 41)
    assert model.weights["tok_emb"].dtype == np.float64
    rng = np.random.default_rng(42)
    target = [4, 5, 6, 7]
    worst = 0.0
    for variant in ("ss_np", "ss_mp", "ss_mc"):
        params = init_params(variant, model, t=4, d_e=4, seed=43, k=2, mlp_hidden=6)
        z = None if variant == "ss_np" else rng.standard_normal(4)

        def loss():
            return batch_loss_and_grads(model, [materialize(params, z).T], [target])[0]

        _, _, prefix_grads, _ = batch_loss_and_grads(model, [materialize(params, z).T], [target],
                                                     want_prefix_grads=True)
        upstream = prefix_grads[0].T
        analytic = dict(param_stacks(param_grad(params, z, upstream)))
        for name, arr in param_stacks(params):
            flat = arr.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + FD_STEP
                hi = loss()
                flat[i] = keep - FD_STEP
                lo = loss()
                flat[i] = keep
                numeric = (hi - lo) / (2 * FD_STEP)
                a = float(analytic[name].ravel()[i])
                if max(abs(a), abs(numeric)) <= FLOOR:
                    continue
                rel = abs(a - numeric) / max(abs(a), abs(numeric))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(1, worst < REL_TOL and elapsed < 30.0,
           f"max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. the frozen models never change


def test_criterion_02_frozen_weights_unchanged_by_training(
    desk_pipeline, desk_backbone, desk_embedder, desk_trained
):
    # a fresh Pipeline on the same directory reads the models back as built
    built = Pipeline(desk_pipeline.cfg, desk_pipeline.out)
    backbone_ok = checksum(desk_backbone) == checksum(built.ensure_backbone())
    embedder_ok = checksum(desk_embedder) == checksum(built.ensure_embedder())
    report(2, backbone_ok and embedder_ok,
           f"backbone {'==' if backbone_ok else '!='} build checksum, "
           f"embedder {'==' if embedder_ok else '!='} build checksum")


# ---------------------------------------------------------------------------
# 3. every variant's loss drops at least 30% at desk scale


def test_criterion_03_training_descends_within_budget(desk_trained):
    parts = []
    ok = True
    for variant, (_, trace, elapsed) in desk_trained.items():
        head = float(np.mean(trace.losses[:100]))
        tail = float(np.mean(trace.losses[-100:]))
        drop = 1.0 - tail / head
        ok = ok and drop >= 0.30 and elapsed <= 180.0
        parts.append(f"{variant} {drop:.0%} in {elapsed:.0f}s")
    report(3, ok, "; ".join(parts) + "; bars: >=30%, <=180s")


# ---------------------------------------------------------------------------
# 4. contextual prompts react to their context, the direct prompt cannot


def test_criterion_04_context_sensitivity_ordering(
    desk_pipeline, desk_backbone, desk_embedder, desk_trained, desk_question_ids
):
    cfg = desk_pipeline.cfg
    seeds = desk_question_ids[:80]

    def distinct(variant):
        params = desk_trained[variant][0]
        embedder = None if variant == "ss_np" else desk_embedder
        records = generate_questions(
            desk_backbone, embedder, params, seeds,
            n_raw=80, temperature=0.0, seed=cfg.seeds.generate, max_len=cfg.generation.max_new_tokens,
        )
        return len({r.question for r in records})

    np_distinct = distinct("ss_np")
    mc_distinct = distinct("ss_mc")
    ok = np_distinct == 1 and mc_distinct >= 40
    report(4, ok, f"greedy distinct over 80 contexts: ss_np {np_distinct} (must be 1), "
                  f"ss_mc {mc_distinct} (must be >= 40)")


# ---------------------------------------------------------------------------
# 5. similarity score behaves like one


def test_criterion_05_mauve_properties():
    rng = np.random.default_rng(51)
    cloud = rng.standard_normal((50, 8))
    self_score = mauve_score(cloud, cloud.copy(), k=8, seed=52).score

    far_a = rng.standard_normal((40, 4))
    far_b = rng.standard_normal((40, 4)) + 500.0
    far_score = mauve_score(far_a, far_b, k=8, seed=53).score

    ref = rng.standard_normal((60, 4))
    base = rng.standard_normal((60, 4))
    scores = [
        mauve_score(base + off, ref, k=8, seed=54).score
        for off in (0.0, 1.0, 2.0, 4.0, 8.0)
    ]
    monotone = all(b <= a + 0.02 for a, b in zip(scores, scores[1:]))

    pair = QuantizedPair(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    grid = np.linspace(_LAM_EDGE, 1 - _LAM_EDGE, DEFAULT_GRID)
    closed_form = max(
        max(abs(x - (1 - lam) ** 5), abs(y - lam**5))
        for lam, (x, y) in zip(grid, divergence_curve(pair))
    )

    ok = self_score >= 0.99 and far_score <= 0.05 and monotone and closed_form < 1e-10
    report(5, ok, f"self {self_score:.3f} >= 0.99, far {far_score:.3f} <= 0.05, "
                  f"monotone {monotone}, closed-form err {closed_form:.1e} < 1e-10")


# ---------------------------------------------------------------------------
# 6. synthetic questions sit closer to the target fold than random tokens


def test_criterion_06_mauve_beats_random_baseline(
    desk_pipeline, desk_backbone, desk_embedder, desk_trained, desk_folds, desk_vocab, desk_question_ids
):
    cfg = desk_pipeline.cfg
    test_fold = desk_folds[1]
    d_e = cfg.embedder.d_e
    params = desk_trained["ss_mc"][0]
    ref_cloud = np.stack(
        [embed_sequence(desk_embedder, desk_vocab.encode(ex.question), d_e) for ex in test_fold]
    )
    gaps = []
    for gen_seed in (cfg.seeds.generate, cfg.seeds.generate + 100, cfg.seeds.generate + 200):
        records = generate_questions(
            desk_backbone, desk_embedder, params, desk_question_ids,
            n_raw=100, temperature=QUESTION_TEMPERATURE, seed=gen_seed,
            max_len=cfg.generation.max_new_tokens,
        )
        gen_cloud = np.stack(
            [embed_sequence(desk_embedder, desk_vocab.encode(r.question), d_e) for r in records]
        )
        rng = np.random.default_rng(gen_seed)
        noise_cloud = np.stack([
            embed_sequence(
                desk_embedder,
                rng.integers(0, len(desk_vocab), size=int(rng.integers(10, 21))).tolist(),
                d_e,
            )
            for _ in range(100)
        ])
        synth = mauve_score(gen_cloud, ref_cloud, k=cfg.mauve.k, seed=cfg.seeds.mauve).score
        noise = mauve_score(noise_cloud, ref_cloud, k=cfg.mauve.k, seed=cfg.seeds.mauve).score
        gaps.append(synth - noise)
    passes = sum(g >= 0.2 for g in gaps)
    report(6, passes >= 2, "gaps " + ", ".join(f"{g:+.3f}" for g in gaps)
           + f"; {passes}/3 seeds cleared the 0.2 bar (need 2)")


# ---------------------------------------------------------------------------
# 7. subsampling and decontamination against brute-force oracles


def test_criterion_07_postprocess_oracles():
    rng = np.random.default_rng(71)
    # dedup vs the insertion-ordered set
    words = ["fox", "owl", "elm", "oak", "ash"]
    docs = [" ".join(rng.choice(words, size=3)) for _ in range(200)]
    dedup_ok = [docs[i] for i in dedup_exact(docs)] == list(dict.fromkeys(docs))

    # round-robin balance on 100 random assignments: clusters that still
    # had members left must hold within one pick of each other
    balance_ok = True
    for trial in range(100):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, 7))
        labels = rng.integers(0, k, size=n)
        n_s = int(rng.integers(1, n + 1))
        assignment = ClusterAssignment(labels=labels, centroids=np.zeros((k, 2)))
        picked = round_robin_subsample(assignment, n_s, seed=trial)
        counts = {c: 0 for c in range(k)}
        for i in picked:
            counts[int(labels[i])] += 1
        open_counts = [
            counts[c] for c in range(k)
            if counts[c] < int(np.sum(labels == c))
        ]
        if open_counts and max(open_counts) - min(open_counts) > 1:
            balance_ok = False
            break

    # decontamination vs a nested-loop window scan over 200 candidates
    pool = "ga re mi fa so la ti do".split()
    refs = [" ".join(rng.choice(pool, size=12)) for _ in range(20)]
    cands = [" ".join(rng.choice(pool, size=int(rng.integers(8, 16)))) for _ in range(180)]
    cands += [refs[i % 20] + " extra" for i in range(20)]  # planted overlaps
    n_gram = 4

    def brute_force_hits(candidate):
        c = candidate.split()
        for ref in refs:
            r = ref.split()
            for i in range(len(c) - n_gram + 1):
                for j in range(len(r) - n_gram + 1):
                    if c[i:i + n_gram] == r[j:j + n_gram]:
                        return True
        return False

    kept, removed = decontaminate(cands, refs, n=n_gram)
    want_removed = [c for c in cands if brute_force_hits(c)]
    want_kept = [c for c in cands if not brute_force_hits(c)]
    decontam_ok = kept == want_kept and removed == want_removed

    # the 12-vs-13 boundary under the pipeline default n=13
    thirteen = "one two three four five six seven eight nine ten eleven twelve thirteen"
    twelve = " ".join(thirteen.split()[:12])
    _, hit = decontaminate(["pad " + thirteen], [thirteen], n=13)
    safe, _ = decontaminate([twelve], [thirteen], n=13)
    boundary_ok = len(hit) == 1 and safe == [twelve]

    ok = dedup_ok and balance_ok and decontam_ok and boundary_ok
    report(7, ok, f"dedup {dedup_ok}, balance(100 trials) {balance_ok}, "
                  f"decontam(200 docs) {decontam_ok}, 12-vs-13 boundary {boundary_ok}")


# ---------------------------------------------------------------------------
# 8. the student proxy actually learns from the synthetic set


def test_criterion_08_student_improves_on_synthetic_data(
    desk_pipeline, desk_backbone, desk_embedder, desk_trained, desk_folds, desk_vocab,
    desk_student_base, desk_question_ids,
):
    started = time.perf_counter()
    cfg = desk_pipeline.cfg
    g, s = cfg.generation, cfg.student
    test_fold = desk_folds[1]
    params = desk_trained["ss_mc"][0]
    questions = generate_questions(
        desk_backbone, desk_embedder, params, desk_question_ids,
        n_raw=100, temperature=QUESTION_TEMPERATURE, seed=cfg.seeds.generate, max_len=g.max_new_tokens,
    )
    records = generate_answers(
        desk_backbone, questions, temperature=ANSWER_TEMPERATURE, seed=cfg.seeds.answers,
        max_new=g.max_new_tokens,
    )
    eval_ids = [desk_vocab.encode(ex.question + " " + ex.answer) for ex in test_fold]
    ratios = []
    for ft_seed in (cfg.seeds.student, cfg.seeds.student + 100, cfg.seeds.student + 200):
        result = evaluate_student(desk_student_base, records, eval_ids, "ss_mc", s.finetune_steps, ft_seed)
        ratios.append(result.ratio)
    elapsed = time.perf_counter() - started
    passes = sum(r <= 0.8 for r in ratios)
    report(8, passes >= 2 and elapsed <= 300.0,
           "ppl ratios " + ", ".join(f"{r:.3f}" for r in ratios)
           + f"; {passes}/3 seeds <= 0.8 (need 2); {elapsed:.0f}s <= 300s")


# ---------------------------------------------------------------------------
# 9. identical invocations, identical bytes


def test_criterion_09_end_to_end_determinism(tmp_path):
    ini = tmp_path / "exp.ini"
    save_config(str(ini), mini_config())
    out = tmp_path / "run"
    assert cli_main(["run", "--config", str(ini), "--out", str(out)]) == 0
    first = (out / "summary.txt").read_bytes()
    shutil.rmtree(out)
    assert cli_main(["run", "--config", str(ini), "--out", str(out)]) == 0
    second = (out / "summary.txt").read_bytes()
    report(9, first == second,
           f"two runs, {len(first)} summary bytes, identical={first == second}")


# ---------------------------------------------------------------------------
# 10. the large-scale recipe stays visible in the config


def test_criterion_10_paper_preset_parity():
    cfg = preset_config("paper")
    pins = {
        "softsrv.t": (cfg.softsrv.t, 128),
        "trainer.steps": (cfg.trainer.steps, 20000),
        "trainer.lr": (cfg.trainer.lr, 5e-6),
        "postprocess.kmeans_k": (cfg.postprocess.kmeans_k, 700),
        "postprocess.svd_dims": (cfg.postprocess.svd_dims, 100),
        "postprocess.decontam_n": (cfg.postprocess.decontam_n, 13),
        "mauve.k": (cfg.mauve.k, 32),
    }
    bad = [f"{key}={got}!={want}" for key, (got, want) in pins.items() if got != want]
    report(10, not bad, "all seven pins exact" if not bad else "; ".join(bad))
