"""The shared fixtures are the pipeline's own stages, not a copy of its recipe."""

from conftest import tiny_config

from softsrv.config import preset_config
from softsrv.pipeline import Pipeline


def test_fixture_vocabularies_are_what_the_pipeline_builds(tmp_path, desk_vocab, tiny_vocab):
    # corpus and vocabulary only: no model is trained
    for name, cfg, vocab in (("desk", preset_config("desk"), desk_vocab), ("tiny", tiny_config(), tiny_vocab)):
        assert vocab.tokens == Pipeline(cfg, tmp_path / name).vocabulary().tokens, name
