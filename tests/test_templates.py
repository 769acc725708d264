"""Template baselines: rendering, splitting, refinement control flow."""

import pytest

import softsrv.generation
import softsrv.templates
from softsrv.errors import CapacityError, ValidationError
from softsrv.records import SyntheticRecord
from softsrv.templates import (
    PLACEHOLDER,
    STOP_TEXT,
    PromptTemplate,
    load_builtin_templates,
    pt_generate,
    pt_generate_answers,
    ptsr_generate,
    render,
    split_questions,
)


def test_placeholder_must_appear_exactly_once():
    with pytest.raises(ValidationError):
        PromptTemplate(body="no slot here")
    with pytest.raises(ValidationError):
        PromptTemplate(body=f"{PLACEHOLDER} and {PLACEHOLDER}")


def test_render_substitutes_the_example():
    tpl = PromptTemplate(body=f"Example: {PLACEHOLDER}\nQuestion 1:")
    assert render(tpl, "2+2?") == "Example: 2+2?\nQuestion 1:"


def test_builtin_domains_ship_all_kinds():
    for domain in ("arithmetic", "truefalse"):
        templates = load_builtin_templates(domain)
        assert set(templates) == {"question", "question_undiversified", "answer", "critique", "refine"}
    with pytest.raises(ValidationError):
        load_builtin_templates("chemistry")


def test_split_on_numbered_markers():
    text = "Question 1: What is 2+2?\nQuestion 2: What is 3+3?"
    assert split_questions(text) == ["What is 2+2?", "What is 3+3?"]


def test_split_handles_passage_prefix_variant():
    text = "Passage and Question 1: A fox. Is it fast?\nPassage and Question 2: A crab. Is it slow?"
    assert split_questions(text) == ["A fox. Is it fast?", "A crab. Is it slow?"]


def test_split_without_markers_returns_whole_text():
    assert split_questions("  just some text  ") == ["just some text"]


def test_split_caps_the_question_count():
    text = "".join(f"Question {i}: q{i}\n" for i in range(1, 15))
    assert len(split_questions(text)) == 10


def test_split_drops_empty_segments():
    assert split_questions("Question 1:   \nQuestion 2: real") == ["real"]


def test_split_of_blank_text_is_empty():
    assert split_questions("   ") == []


def test_pt_generate_counts_and_tags(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    seeds = ["Ben has 2 apples and buys 3 more. How many apples does Ben have now?"]
    records = pt_generate(tiny_backbone, templates, seeds, 6, temperature=2.0, seed=3, max_new=24)
    assert len(records) == 6
    assert all(r.method_tag == "PT" for r in records)
    assert all(r.question for r in records)
    assert all(r.provenance["master_seed"] == 3 for r in records)
    assert [r.provenance["visit"] for r in records] == sorted(r.provenance["visit"] for r in records)


def test_pt_generate_is_deterministic(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    seeds = ["Ben has 2 apples and buys 3 more. How many apples does Ben have now?"]
    a = pt_generate(tiny_backbone, templates, seeds, 4, temperature=2.0, seed=5, max_new=16)
    b = pt_generate(tiny_backbone, templates, seeds, 4, temperature=2.0, seed=5, max_new=16)
    assert [r.question for r in a] == [r.question for r in b]


def test_pt_and_ptsr_draw_different_streams(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    seeds = ["Ben has 2 apples and buys 3 more. How many apples does Ben have now?"]
    pt = pt_generate(tiny_backbone, templates, seeds, 4, temperature=2.0, seed=5, max_new=16)
    sr = ptsr_generate(tiny_backbone, templates, seeds, 4, temperature=2.0, seed=5, max_new=16)
    assert [r.question for r in pt] != [r.question for r in sr]


def test_ptsr_rejects_no_rounds(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    with pytest.raises(ValidationError, match="max_rounds"):
        ptsr_generate(tiny_backbone, templates, ["seed q"], 1, temperature=2.0, seed=0, max_new=96, max_rounds=0)


@pytest.mark.parametrize("domain", ["arithmetic", "truefalse"])
def test_every_refine_template_asks_for_the_stop_word(domain):
    # ptsr_generate accepts a question when the refine output begins with
    # STOP_TEXT, so the template must tell the model to say exactly that
    body = load_builtin_templates(domain)["refine"].body
    assert f"say {STOP_TEXT}." in body


def test_ptsr_tags_and_round_accounting(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    seeds = ["Mara picked 4 pears and Ben picked 5. How many pears did they pick together?"]
    records = ptsr_generate(tiny_backbone, templates, seeds, 5, temperature=2.0, seed=7, max_new=16, max_rounds=2)
    assert len(records) == 5
    for r in records:
        assert r.method_tag == "PT_SR"
        assert 1 <= r.provenance["rounds"] <= 2
        assert isinstance(r.provenance["accepted"], bool)


def test_ptsr_accepts_immediately_on_stop(tiny_backbone, monkeypatch):
    # critique that opens with the stop token ends refinement after round 1
    import softsrv.templates as mod

    def fake_continuation(model, prompt_text, max_new, temperature, stream):
        return "Stop right there"

    monkeypatch.setattr(mod, "_continuation_text", fake_continuation)
    templates = load_builtin_templates("arithmetic")
    records = ptsr_generate(tiny_backbone, templates, ["seed q"], 2, temperature=2.0, seed=1, max_new=12,
                            max_rounds=3)
    for r in records:
        assert r.provenance["rounds"] == 1
        assert r.provenance["accepted"] is True


def test_ptsr_never_stop_runs_all_rounds_and_keeps_last_rewrite(tiny_backbone, monkeypatch):
    import softsrv.templates as mod

    calls = {"n": 0}

    def fake_continuation(model, prompt_text, max_new, temperature, stream):
        calls["n"] += 1
        if "[[" in prompt_text:
            pytest.fail("placeholder leaked into a rendered prompt")
        return f"rewrite {calls['n']}"

    monkeypatch.setattr(mod, "_continuation_text", fake_continuation)
    templates = load_builtin_templates("arithmetic")
    records = ptsr_generate(tiny_backbone, templates, ["seed q"], 1, temperature=2.0, seed=1, max_new=12,
                            max_rounds=3)
    assert records[0].provenance["rounds"] == 3
    assert records[0].provenance["accepted"] is False
    # per round one critique and one refine call; the PT phase is real sampling
    assert records[0].question.startswith("rewrite")


def test_pt_generate_answers_attaches_text(tiny_backbone):
    templates = load_builtin_templates("arithmetic")
    seeds = ["Ben has 2 apples and buys 3 more. How many apples does Ben have now?"]
    questions = pt_generate(tiny_backbone, templates, seeds, 3, temperature=2.0, seed=9, max_new=12)
    answered = pt_generate_answers(tiny_backbone, templates, questions, temperature=2.0, seed=10, max_new=12)
    assert len(answered) == 3
    for q, a in zip(questions, answered):
        assert a.question == q.question
        assert a.answer is not None
        assert a.provenance["answer_seed"] == 10


def test_template_contexts_past_capacity_fail_before_any_decode(tiny_backbone, monkeypatch):
    # tiny_backbone holds 96 tokens; each context is checked with its max_new
    # before the first token is drawn
    for module in (softsrv.templates, softsrv.generation):
        monkeypatch.setattr(module, "continue_tokens", lambda *args: pytest.fail("decoded past capacity"))
    templates = load_builtin_templates("arithmetic")
    with pytest.raises(CapacityError, match="the question template's context of 121 tokens plus 12 new tokens"):
        pt_generate(tiny_backbone, templates, ["two apples " * 40], 1, temperature=2.0, seed=1, max_new=12)
    # worst cases: a critique context of 17 + 30 tokens fits with 30 more, a refine context of 44 + 62 does not
    with pytest.raises(CapacityError, match="the refine template's context of 106 tokens plus 30 new tokens"):
        ptsr_generate(tiny_backbone, templates, ["seed q"], 1, temperature=2.0, seed=1, max_new=30)
    long_question = SyntheticRecord(question="apples " * 80, seed_index=0, method_tag="PT")
    with pytest.raises(CapacityError, match="the answer template's context of 98 tokens plus 12 new tokens"):
        pt_generate_answers(tiny_backbone, templates, [long_question], temperature=2.0, seed=1, max_new=12)
