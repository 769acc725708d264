"""Soft-prompt record generation: cycling, determinism, provenance."""

import numpy as np
import pytest

from softsrv.errors import ValidationError
from softsrv.generation import generate_answers, generate_questions, record_stream
from softsrv.prompts import init_params
from softsrv.training import train


@pytest.fixture(scope="module")
def trained(tiny_backbone, tiny_embedder, tiny_folds):
    train_fold = tiny_folds[0]
    dataset = [tiny_backbone.vocab.encode(ex.question) for ex in train_fold[:12]]
    out = {}
    for variant in ("ss_np", "ss_mc"):
        p0 = init_params(variant, tiny_backbone, t=4, d_e=6, seed=31, mlp_hidden=8)
        params, _ = train(
            tiny_backbone, None if variant == "ss_np" else tiny_embedder,
            dataset, p0, steps=60, lr=0.02, seed=32,
        )
        out[variant] = params
    return out, dataset


def test_record_streams_are_disjoint_across_methods_and_indices():
    a = np.random.default_rng(record_stream(7, "SS_NP", 0)).random(4)
    b = np.random.default_rng(record_stream(7, "SS_MP", 0)).random(4)
    c = np.random.default_rng(record_stream(7, "SS_NP", 1)).random(4)
    d = np.random.default_rng(record_stream(8, "SS_NP", 0)).random(4)
    rows = [a, b, c, d]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(rows[i], rows[j])


def test_generation_cycles_seed_examples_round_robin(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    records = generate_questions(
        tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:5],
        n_raw=12, temperature=1.0, seed=41, max_len=12,
    )
    assert [r.seed_index for r in records] == [i % 5 for i in range(12)]
    assert all(r.method_tag == "SS_MC" for r in records)


def test_generation_is_deterministic_and_seed_sensitive(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    def run(seed):
        recs = generate_questions(
            tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:4],
            n_raw=8, temperature=1.0, seed=seed, max_len=12,
        )
        return [r.question for r in recs]
    assert run(5) == run(5)
    assert run(5) != run(6)


def test_every_record_has_nonempty_question(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    records = generate_questions(
        tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:4],
        n_raw=20, temperature=1.5, seed=43, max_len=8,
    )
    assert len(records) == 20
    assert all(r.question for r in records)


def test_non_contextual_variant_needs_no_embedder(tiny_backbone, trained):
    params_by_variant, dataset = trained
    records = generate_questions(
        tiny_backbone, None, params_by_variant["ss_np"], dataset[:3],
        n_raw=6, temperature=0.0, seed=44, max_len=10,
    )
    # one shared prompt and greedy decoding: all six outputs identical
    assert len({r.question for r in records}) == 1


def test_question_provenance_records_stream_identity(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    records = generate_questions(
        tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:3],
        n_raw=5, temperature=0.7, seed=45, max_len=10,
    )
    for j, r in enumerate(records):
        assert r.provenance["master_seed"] == 45
        assert r.provenance["index"] == j
        assert r.provenance["temperature"] == 0.7


def test_generate_answers_preserves_questions_and_adds_answers(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    questions = generate_questions(
        tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:4],
        n_raw=6, temperature=1.0, seed=46, max_len=10,
    )
    answered = generate_answers(tiny_backbone, questions, temperature=1.0, seed=47, max_new=8)
    assert [r.question for r in answered] == [r.question for r in questions]
    for r in answered:
        assert r.answer is not None
        assert r.provenance["answer_seed"] == 47
    again = generate_answers(tiny_backbone, questions, temperature=1.0, seed=47, max_new=8)
    assert [r.answer for r in again] == [r.answer for r in answered]


def test_empty_inputs_rejected(tiny_backbone, tiny_embedder, trained):
    params_by_variant, dataset = trained
    with pytest.raises(ValidationError):
        generate_questions(tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], [], 4,
                           temperature=1.0, seed=0, max_len=64)
    with pytest.raises(ValidationError):
        generate_questions(tiny_backbone, tiny_embedder, params_by_variant["ss_mc"], dataset[:2], 0,
                           temperature=1.0, seed=0, max_len=64)
