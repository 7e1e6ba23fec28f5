"""Coherence state vocabulary."""

from repro.coherence.states import CacheState


class TestCacheState:
    def test_writers(self):
        assert CacheState.M.is_writer
        assert CacheState.E.is_writer
        assert CacheState.ME.is_writer
        assert not CacheState.S.is_writer
        assert not CacheState.I.is_writer
        assert not CacheState.I_MIG.is_writer

    def test_valid_copies(self):
        assert CacheState.S.is_valid_copy
        assert CacheState.ME.is_valid_copy
        assert not CacheState.I.is_valid_copy
        assert not CacheState.I_MIG.is_valid_copy
