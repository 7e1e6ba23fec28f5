"""Coherence state vocabulary and Fig. 9 encodings."""

import pytest

from repro.coherence.states import (
    CacheState,
    MemBit,
    encode_device_state,
    encode_local_state,
)


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


class TestLocalEncoding:
    """Upper table of Fig. 9."""

    def test_i_plus_bit_is_i_mig(self):
        assert (
            encode_local_state(CacheState.I, MemBit.MIGRATED)
            is CacheState.I_MIG
        )

    def test_i_without_bit_is_i(self):
        assert encode_local_state(CacheState.I, MemBit.HOME) is CacheState.I

    def test_me_requires_bit(self):
        assert (
            encode_local_state(CacheState.ME, MemBit.MIGRATED)
            is CacheState.ME
        )
        with pytest.raises(ValueError):
            encode_local_state(CacheState.ME, MemBit.HOME)

    def test_msi_pass_through(self):
        for state in (CacheState.M, CacheState.S):
            assert encode_local_state(state, MemBit.HOME) is state


class TestDeviceEncoding:
    """Lower table of Fig. 9."""

    def test_i_plus_bit_is_i_mig(self):
        assert (
            encode_device_state(CacheState.I, MemBit.MIGRATED)
            is CacheState.I_MIG
        )

    def test_device_never_holds_me(self):
        with pytest.raises(ValueError):
            encode_device_state(CacheState.ME, MemBit.MIGRATED)

    def test_msi_pass_through(self):
        for state in (CacheState.M, CacheState.S, CacheState.I):
            assert encode_device_state(state, MemBit.HOME) is state
