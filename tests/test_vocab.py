"""Tokenizer and vocabulary behavior."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from softsrv.errors import ValidationError
from softsrv.vocab import BOS, EOS, PAD, RESERVED, UNK, Vocabulary, build_vocab, split_text


def test_reserved_ids_are_pinned():
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    v = build_vocab(["a b c"])
    assert v.tokens[:4] == list(RESERVED)


def test_split_keeps_words_and_punctuation():
    assert split_text("Mara has 5 apples, right?") == ["Mara", "has", "5", "apples", ",", "right", "?"]


def test_split_treats_marker_tokens_atomically():
    assert split_text("a <eos> b") == ["a", "<eos>", "b"]


def test_build_vocab_ranks_by_frequency_then_alphabetically():
    v = build_vocab(["b b b a a c", "a c"])
    # a and b both appear 3 times; alphabetical order breaks the tie
    assert v.tokens[4:] == ["a", "b", "c"]


def test_build_vocab_respects_max_size():
    texts = [" ".join(f"w{i}" for i in range(50))]
    v = build_vocab(texts, max_size=10)
    assert len(v) == 10
    with pytest.raises(ValidationError):
        build_vocab(texts, max_size=4)


def test_encode_decode_round_trip():
    v = build_vocab(["Lena buys 7 pears. How many now?"])
    text = "Lena buys 7 pears. How many now?"
    assert v.decode(v.encode(text)) == text


def test_unknown_tokens_map_to_unk():
    v = build_vocab(["a b"])
    ids = v.encode("a zebra")
    assert ids[1] == UNK
    assert v.decode(ids) == "a <unk>"


def test_decode_drops_structural_markers():
    v = build_vocab(["a b"])
    (a,) = v.encode("a")
    assert v.decode([BOS, a, EOS, PAD]) == "a"


def test_decode_attaches_tight_punctuation():
    v = build_vocab(["a , b . c ?"])
    ids = v.encode("a, b. c?")
    assert v.decode(ids) == "a, b. c?"


def test_decode_holds_ids_to_the_one_id_rule():
    v = build_vocab(["a b"])
    assert v.decode([np.int64(4), np.int32(5)]) == "a b"
    for bad, message in (
        (4.9, "token id 4.9 is not an int"),
        ("4", "token id '4' is not an int"),
        (True, "token id True is not an int"),
        (len(v), f"token id {len(v)} out of vocabulary range"),
        (-1, "token id -1 out of vocabulary range"),
    ):
        with pytest.raises(ValidationError, match=message):
            v.decode([4, bad])


def test_duplicate_surfaces_rejected():
    with pytest.raises(ValidationError):
        Vocabulary(tokens=list(RESERVED) + ["x", "x"])


@given(st.lists(st.sampled_from("abc xyz 12 , .".split()), min_size=1, max_size=20))
def test_round_trip_is_stable_after_one_pass(parts):
    v = build_vocab(["abc xyz 12 , . extra words"])
    text = " ".join(parts)
    once = v.decode(v.encode(text))
    twice = v.decode(v.encode(once))
    assert once == twice
