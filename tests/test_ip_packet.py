"""IPv4 packet serialization and header operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.addr import ip_to_int
from repro.ip.packet import HEADER_WORDS_IPV4, IPv4Packet

addr = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestSynthesize:
    def test_minimum_packet(self):
        pkt = IPv4Packet.synthesize(src=1, dst=2, size_bytes=20)
        assert pkt.total_words == HEADER_WORDS_IPV4
        assert pkt.payload == ()
        assert pkt.checksum_ok()

    def test_sizes(self):
        for size in (64, 128, 1024):
            pkt = IPv4Packet.synthesize(1, 2, size)
            assert pkt.total_length == size
            assert pkt.total_words == size // 4

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet.synthesize(1, 2, 16)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet.synthesize(1, 2, 65)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet.synthesize(1, 2, 65540)

    def test_payload_deterministic_per_ident(self):
        a = IPv4Packet.synthesize(1, 2, 256, ident=5)
        b = IPv4Packet.synthesize(1, 2, 256, ident=5)
        c = IPv4Packet.synthesize(1, 2, 256, ident=6)
        assert a.payload == b.payload
        assert a.payload != c.payload

    @pytest.mark.parametrize("size", [20, 24, 64, 576, 1500, 65532])
    @pytest.mark.parametrize("ident", [0, 1, 0xFFFF, 0x10000, 2**32 + 7])
    def test_payload_words_closed_form(self, size, ident):
        """Word i is (ident * 2654435761 + i * 0x9E3779B9) mod 2**32 from
        the unmasked ident, as plain Python ints."""
        pkt = IPv4Packet.synthesize(1, 2, size, ident=ident)
        assert pkt.payload == tuple(
            (ident * 2654435761 + i * 0x9E3779B9) % 2**32
            for i in range(size // 4 - HEADER_WORDS_IPV4)
        )
        assert all(type(word) is int for word in pkt.payload)
        assert pkt.ident == ident & 0xFFFF


class TestRoundtrip:
    def test_words_roundtrip(self):
        pkt = IPv4Packet.synthesize(
            src=ip_to_int("10.1.2.3"), dst=ip_to_int("4.5.6.7"), size_bytes=512, ident=77
        )
        again = IPv4Packet.from_words(pkt.to_words())
        assert again.src == pkt.src
        assert again.dst == pkt.dst
        assert again.ident == 77
        assert again.payload == pkt.payload
        assert again.checksum_ok()

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet.from_words([0x45000014])

    def test_wrong_version_rejected(self):
        pkt = IPv4Packet.synthesize(1, 2, 20)
        words = pkt.to_words()
        words[0] = (6 << 28) | (words[0] & 0x0FFFFFFF)
        with pytest.raises(ValueError):
            IPv4Packet.from_words(words)

    def test_length_mismatch_rejected(self):
        pkt = IPv4Packet.synthesize(1, 2, 64)
        with pytest.raises(ValueError):
            IPv4Packet.from_words(pkt.to_words()[:-1])

    @given(src=addr, dst=addr, ident=st.integers(0, 0xFFFF),
           ttl=st.integers(1, 255), nwords=st.integers(0, 64))
    @settings(max_examples=100)
    def test_roundtrip_property(self, src, dst, ident, ttl, nwords):
        pkt = IPv4Packet.synthesize(
            src=src, dst=dst, size_bytes=20 + 4 * nwords, ident=ident, ttl=ttl
        )
        again = IPv4Packet.from_words(pkt.to_words())
        assert (again.src, again.dst, again.ttl, again.ident) == (src, dst, ttl, ident)
        assert again.payload == pkt.payload


class TestHeaderOps:
    def test_checksum_detects_corruption(self):
        pkt = IPv4Packet.synthesize(1, 2, 64)
        pkt.ttl ^= 0xFF
        assert not pkt.checksum_ok()

    def test_decrement_ttl_keeps_checksum_valid(self):
        pkt = IPv4Packet.synthesize(1, 2, 64, ttl=64)
        for expected in range(63, 0, -1):
            pkt.decrement_ttl()
            assert pkt.ttl == expected
            assert pkt.checksum_ok()

    def test_decrement_at_zero_rejected(self):
        pkt = IPv4Packet.synthesize(1, 2, 64, ttl=0)
        with pytest.raises(ValueError):
            pkt.decrement_ttl()

    def test_copy_is_independent(self):
        pkt = IPv4Packet.synthesize(1, 2, 64)
        dup = pkt.copy()
        dup.decrement_ttl()
        assert pkt.ttl == dup.ttl + 1
