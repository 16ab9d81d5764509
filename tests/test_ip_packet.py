"""IPv4 packet serialization and header operations."""

import dataclasses
import pickle
from collections import abc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ip.addr import ip_to_int
from repro.ip.checksum import internet_checksum, verify_checksum
from repro.ip.packet import HEADER_WORDS_IPV4, IPv4Packet

addr = st.integers(min_value=0, max_value=0xFFFFFFFF)
#: A header field, in or out of its range (a negative or wide value too).
field = st.one_of(st.integers(0, 0xFF), st.integers(-(2**20), 2**40))


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

    @given(src=addr, dst=addr, ident=st.integers(0, 2**40),
           ttl=st.integers(0, 255), nwords=st.integers(0, 0xFFFF // 4 - 5))
    @example(src=0xFFFFFFFF, dst=0xFFFFFFFF, ident=48090, ttl=255, nwords=0)
    @settings(max_examples=200)
    def test_checksum_matches_the_halfword_sum(self, src, dst, ident, ttl, nwords):
        """The in-place sum equals fill_checksum's; the explicit example's
        sum needs the second carry fold."""
        pkt = IPv4Packet.synthesize(src, dst, 20 + 4 * nwords, ident=ident, ttl=ttl)
        assert pkt.checksum == internet_checksum(
            pkt.header_halfwords(zero_checksum=True)
        )
        assert pkt.checksum_ok()

    @pytest.mark.parametrize("ttl", [-1, 256])
    def test_ttl_out_of_range_rejected(self, ttl):
        with pytest.raises(ValueError):
            IPv4Packet.synthesize(1, 2, 64, ttl=ttl)


def closed_form(ident, size):
    return tuple(
        (ident * 2654435761 + i * 0x9E3779B9) % 2**32
        for i in range(size // 4 - HEADER_WORDS_IPV4)
    )


class TestPayloadWords:
    """``synthesize`` stores its payload as a sequence built on first read;
    everywhere it is read it must behave as the tuple of its words."""

    @pytest.fixture
    def unbuildable(self, monkeypatch):
        """Make building any synthesized payload's words fail."""
        from repro.ip import packet

        def refuse(self):
            raise AssertionError("payload words were built")

        monkeypatch.setattr(packet._PayloadWords, "words", refuse)

    def test_lengths_leave_words_unbuilt(self, unbuildable):
        pkt = IPv4Packet.synthesize(1, 2, 576, ident=9)
        assert len(pkt.payload) == 576 // 4 - HEADER_WORDS_IPV4
        assert pkt.total_words == 576 // 4
        assert pkt.total_length == 576
        assert pkt.checksum_ok()
        pkt.decrement_ttl()
        assert pkt.checksum_ok()

    def test_router_run_leaves_words_unbuilt(self, unbuildable):
        from repro import SimConfig, WorkloadSpec, run_config

        r = run_config(SimConfig(fidelity="router", ports=4, seed=3),
                       WorkloadSpec(traffic="imix", packets=200))
        assert r.delivered_packets >= 200

    @pytest.mark.parametrize("size", [20, 64, 1500])
    def test_behaves_as_its_tuple(self, size):
        pkt = IPv4Packet.synthesize(1, 2, size, ident=77)
        words = closed_form(77, size)
        assert pkt.payload == words and words == pkt.payload
        assert not pkt.payload != words and not words != pkt.payload
        assert hash(pkt.payload) == hash(words)
        assert repr(pkt.payload) == repr(words)
        assert tuple(pkt.payload) == words
        assert list(pkt.payload) == list(words)
        assert pkt.payload[1:3] == words[1:3]
        if words:
            assert pkt.payload[-1] == words[-1]
            assert words[0] in pkt.payload
        assert pkt.payload != list(words)  # as a tuple is unequal to a list
        assert isinstance(pkt.payload, abc.Sequence)
        assert all(type(w) is int for w in pkt.payload)

    def test_two_payloads_compare_by_words(self):
        a = IPv4Packet.synthesize(1, 2, 256, ident=5).payload
        b = IPv4Packet.synthesize(3, 4, 256, ident=5).payload
        c = IPv4Packet.synthesize(1, 2, 256, ident=6).payload
        short = IPv4Packet.synthesize(1, 2, 252, ident=5).payload
        assert a == b and b == a
        assert a != c and a != short
        assert len({a, b, closed_form(5, 256)}) == 1

    def test_pickle_replace_and_copy(self):
        pkt = IPv4Packet.synthesize(10, 20, 1024, ident=123)
        again = pickle.loads(pickle.dumps(pkt))
        assert again == pkt
        assert again.payload == closed_form(123, 1024)
        assert dataclasses.replace(pkt, ttl=9).payload == pkt.payload
        dup = pkt.copy()
        assert dup == pkt and dup.payload == closed_form(123, 1024)

    def test_words_roundtrip_equals_the_packet(self):
        pkt = IPv4Packet.synthesize(0x0A000001, 0xC0A80001, 512, ident=2**20 + 3)
        again = IPv4Packet.from_words(pkt.to_words())
        assert type(again.payload) is tuple
        assert again.payload == pkt.payload
        assert again == pkt and pkt == again


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

    @given(
        src=st.one_of(addr, field),
        dst=st.one_of(addr, field),
        ident=field,
        ttl=field,
        protocol=field,
        tos=field,
        flags=field,
        frag_offset=field,
        checksum=st.one_of(st.integers(0, 0xFFFF), field, st.none()),
        nwords=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_checksum_ok_is_the_halfword_list_check(
        self, src, dst, ident, ttl, protocol, tos, flags, frag_offset, checksum,
        nwords,
    ):
        pkt = IPv4Packet(
            src=src, dst=dst, ttl=ttl, protocol=protocol, ident=ident, tos=tos,
            flags=flags, frag_offset=frag_offset, payload=(0,) * nwords,
        )
        total = sum(pkt.header_halfwords(zero_checksum=True))
        if checksum is None and total >= 0:
            # The checksum the list form accepts, even for out-of-range
            # fields, so a wrong in-place sum or fold cannot pass as False.
            while total > 0xFFFF:
                total = (total & 0xFFFF) + (total >> 16)
            pkt.checksum = ~total & 0xFFFF
            assert verify_checksum(pkt.header_halfwords())
        elif checksum is not None:
            pkt.checksum = checksum
        assert pkt.checksum_ok() == verify_checksum(pkt.header_halfwords())

    @given(
        src=addr,
        dst=addr,
        ident=st.integers(0, 0xFFFF),
        ttl=st.integers(0, 0xFF),
        protocol=st.integers(0, 0xFF),
        tos=st.integers(0, 0xFF),
        flags=st.integers(0, 7),
        frag_offset=st.integers(0, 0x1FFF),
        nwords=st.integers(0, 40),
        bit=st.one_of(st.none(), st.integers(0, 31)),
    )
    @settings(max_examples=200, deadline=None)
    def test_checksum_ok_catches_a_flipped_dst_bit(
        self, src, dst, ident, ttl, protocol, tos, flags, frag_offset, nwords, bit
    ):
        """A valid header, then what the ``corrupt`` fault does to it in flight."""
        pkt = IPv4Packet(
            src=src, dst=dst, ttl=ttl, protocol=protocol, ident=ident, tos=tos,
            flags=flags, frag_offset=frag_offset, payload=(0,) * nwords,
        ).fill_checksum()
        if bit is not None:
            pkt.dst ^= 1 << bit
        assert pkt.checksum_ok() == verify_checksum(pkt.header_halfwords())
        assert pkt.checksum_ok() == (bit is None)
