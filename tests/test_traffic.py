"""Traffic generation: patterns, sizes, arrivals, the packet factory."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.seeds import spec_seed
from repro.ip.addr import ADDR_BITS
from repro.ip.packet import IPv4Packet
from repro.traffic.build import fabric_source
from repro.traffic.model import _BLOCK, SpecModel
from repro.traffic.rng import (
    draw_float,
    draw_int,
    draw_u64,
    geometric_length,
    pareto_length,
)
from repro.traffic.sizes import BimodalSizes, FixedSize, IMix, UniformSizes
from repro.traffic.spec import (
    ARRIVAL_KINDS,
    PATTERN_KINDS,
    SIZE_KINDS,
    ArrivalSpec,
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    spec_from_legacy,
)
from repro.traffic.workload import PacketFactory


def _model(arrivals=ArrivalSpec(), pattern=PatternSpec(kind="uniform"), seed=0):
    """A 4-port counter-based model of a synthetic spec."""
    return SpecModel(TrafficSpec(pattern=pattern, arrivals=arrivals), n=4, seed=seed)


class TestPatterns:
    def test_fixed_permutation(self):
        m = _model(pattern=PatternSpec(kind="permutation", shift=3))
        assert [m.next_packet(i)[0] for i in range(4)] == [3, 0, 1, 2]
        assert m.deterministic

    def test_shift_constructor(self):
        m = _model(pattern=PatternSpec(kind="permutation", shift=2))
        assert [m.next_packet(i)[0] for i in range(4)] == [2, 3, 0, 1]

    def test_uniform_exclude_self(self):
        m = _model(pattern=PatternSpec(kind="uniform", exclude_self=True))
        for port in range(4):
            for _ in range(200):
                assert m.next_packet(port)[0] != port

    def test_uniform_covers_all_destinations(self):
        m = _model(pattern=PatternSpec(kind="uniform", exclude_self=False))
        seen = {m.next_packet(1)[0] for _ in range(300)}
        assert seen == {0, 1, 2, 3}

    def test_hotspot_bias(self):
        m = _model(pattern=PatternSpec(kind="hotspot", hot_port=2, p_hot=0.8),
                   seed=1)
        hits = sum(m.next_packet(0)[0] == 2 for _ in range(1000))
        assert hits > 700

    def test_hotspot_validation(self):
        with pytest.raises(ValueError, match="hot_port 9 out of range"):
            _model(pattern=PatternSpec(kind="hotspot", hot_port=9))
        with pytest.raises(ValueError):
            PatternSpec(kind="hotspot", p_hot=1.5)

    def test_bursty_produces_runs(self):
        m = _model(pattern=PatternSpec(kind="bursty", mean_burst=16.0), seed=2)
        dests = [m.next_packet(0)[0] for _ in range(400)]
        repeats = sum(a == b for a, b in zip(dests, dests[1:]))
        assert repeats > 300  # long runs dominate

    def test_bursty_never_self_when_excluded(self):
        m = _model(pattern=PatternSpec(kind="bursty", exclude_self=True), seed=2)
        assert all(m.next_packet(3)[0] != 3 for _ in range(300))


class TestSizes:
    def test_fixed(self):
        s = FixedSize(512)
        assert s.next_size() == 512
        assert s.mean() == 512

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            FixedSize(65)
        with pytest.raises(ValueError):
            FixedSize(8)

    def test_imix_values_and_mean(self):
        rng = np.random.default_rng(0)
        s = IMix(rng)
        draws = [s.next_size() for _ in range(500)]
        assert set(draws) <= set(IMix.SIZES)
        assert abs(np.mean(draws) - s.mean()) < 60

    def test_uniform_sizes_bounds(self):
        rng = np.random.default_rng(0)
        s = UniformSizes(rng, 64, 256)
        for _ in range(200):
            v = s.next_size()
            assert 64 <= v <= 256 and v % 4 == 0

    def test_uniform_sizes_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UniformSizes(rng, 256, 64)

    def test_bimodal(self):
        rng = np.random.default_rng(0)
        s = BimodalSizes(rng, 64, 1024, p_small=0.5)
        draws = {s.next_size() for _ in range(100)}
        assert draws == {64, 1024}


class TestArrivals:
    """Stochastic arrivals are :class:`SpecModel`'s counter-based draws,
    selected by an :class:`ArrivalSpec`; a poll offers a packet when
    ``next_packet`` returns one."""

    def test_bernoulli_rate(self):
        m = _model(ArrivalSpec(kind="bernoulli", p=0.3))
        rate = np.mean([m.next_packet(0) is not None for _ in range(4000)])
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bernoulli", p=1.5)

    def test_bernoulli_is_counter_replayable(self):
        a = _model(ArrivalSpec(kind="bernoulli", p=0.4), seed=7)
        head = [a.next_packet(1) for _ in range(50)]
        # Replaying from scratch reproduces the same draws.
        c = _model(ArrivalSpec(kind="bernoulli", p=0.4), seed=7)
        assert [c.next_packet(1) for _ in range(50)] == head

    def test_bernoulli_ports_independent(self):
        a = _model(ArrivalSpec(kind="bernoulli", p=0.5), seed=3)
        p0 = [a.next_packet(0) for _ in range(200)]
        b = _model(ArrivalSpec(kind="bernoulli", p=0.5), seed=3)
        # Interleaving draws on another port must not perturb port 0.
        p0_interleaved = []
        for _ in range(200):
            b.next_packet(1)
            p0_interleaved.append(b.next_packet(0))
        assert p0 == p0_interleaved

    def test_onoff_load_and_gaps(self):
        a = _model(ArrivalSpec(kind="onoff", mean_on=8.0, mean_off=8.0), seed=1)
        assert a.load == pytest.approx(0.5)
        draws = [a.next_packet(0) is not None for _ in range(4000)]
        rate = np.mean(draws)
        assert 0.3 < rate < 0.7
        # On-off must produce runs of idle polls, unlike Bernoulli(0.5).
        longest_gap = cur = 0
        for d in draws:
            cur = 0 if d else cur + 1
            longest_gap = max(longest_gap, cur)
        assert longest_gap >= 8

    def test_onoff_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="onoff", mean_on=0.5)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="onoff", heavy=True, alpha=1.0)


class TestWorkload:
    def test_next_packet(self):
        spec = spec_from_legacy(pattern="permutation", packet_bytes=256, shift=1)
        assert SpecModel(spec, n=4).next_packet(0) == (1, 256)

    def test_fabric_source_converts_to_words(self):
        spec = spec_from_legacy(pattern="permutation", packet_bytes=256, shift=1)
        src = fabric_source(spec, SimConfig(ports=4))
        assert src(2) == (3, 64)
        assert src.deterministic
        # Sizes the model draws per packet convert per packet.
        src = fabric_source(TrafficSpec(sizes=SizeSpec(kind="imix")),
                            SimConfig(ports=4))
        assert src(2) == (0, 16)

    def test_no_arrival_is_none(self):
        spec = TrafficSpec(arrivals=ArrivalSpec(kind="bernoulli", p=0.0))
        assert SpecModel(spec, n=4).next_packet(0) is None
        assert fabric_source(spec, SimConfig(ports=4))(0) is None


class TestPacketFactory:
    def test_addresses_resolve_to_intended_port(self):
        """The minted destination address must LPM back to the intended
        output through the uniform-split table -- the end-to-end wiring
        of traffic intent and route lookup."""
        from repro.ip.lookup import RoutingTable

        factory = PacketFactory(4, 3)
        table = RoutingTable.uniform_split(4)
        for out_port in range(4):
            for _ in range(25):
                pkt = factory.make(0, out_port, 128)
                assert table.lookup(pkt.dst) == out_port
                assert pkt.checksum_ok()

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PacketFactory(3, 0)

    @pytest.mark.parametrize("rng", ["Generator", "BitGenerator"])
    def test_generator_rejected(self, rng):
        gen = np.random.default_rng(0)
        with pytest.raises(TypeError, match="draws its address words ahead"):
            PacketFactory(4, gen if rng == "Generator" else gen.bit_generator)

    def test_idents_unique(self):
        f = PacketFactory(4, 0)
        idents = {f.make(0, 1, 64).ident for _ in range(200)}
        assert len(idents) == 200

    def test_from_workload(self):
        f = PacketFactory(4, 0)
        spec = spec_from_legacy(pattern="permutation", packet_bytes=128)
        pkt = f.from_workload(SpecModel(spec, n=4), 1)
        assert pkt.output_port == 3
        assert pkt.total_length == 128

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
    def test_seeded_factory_mints_the_shared_generators_packets(self, n, seed):
        """The factory draws its address words in blocks; a reference
        that draws two integers per packet from ``default_rng(seed)``
        mints the same packets, field for field, across several block
        refills and every size class."""
        owned = PacketFactory(n, seed)
        shared = _PerPacketFactory(n, seed)
        sizes = (20, 24, 64, 576, 1024, 1500, 65532)
        for i in range(1100):
            args = (i % n, (i * 5 + 3) % n, sizes[i % len(sizes)])
            a, b = owned.make(*args), shared.make(*args)
            assert (a.src, a.dst, a.ident, a.checksum, a.total_length) == (
                b.src, b.dst, b.ident, b.checksum, b.total_length
            )
            if i % 50 == 0:
                assert tuple(a.payload) == tuple(b.payload)
            assert a.input_port == b.input_port and a.output_port == b.output_port

    @given(
        n=st.sampled_from([2, 4, 8, 16]),
        seed=st.integers(0, 2**64 - 1),
        words=st.lists(st.integers(5, 0xFFFF // 4), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeded_factory_matches_shared_property(self, n, seed, words):
        owned = PacketFactory(n, seed)
        shared = _PerPacketFactory(n, seed)
        for i, w in enumerate(words):
            a = owned.make(0, i % n, 4 * w)
            b = shared.make(0, i % n, 4 * w)
            assert a == b


class _PerPacketFactory:
    """:class:`PacketFactory`'s addresses drawn the plain way: two
    ``integers`` calls a packet on ``default_rng(seed)``, the host bits
    of the destination's block and then the source."""

    def __init__(self, n, seed):
        self.rng = np.random.default_rng(seed)
        self.host_bits = ADDR_BITS - (n.bit_length() - 1)
        self.ident = 0

    def make(self, input_port, output_port, size_bytes):
        host = int(self.rng.integers(0, 1 << self.host_bits))
        src = int(self.rng.integers(0, 1 << ADDR_BITS))
        self.ident += 1
        pkt = IPv4Packet.synthesize(
            src, output_port << self.host_bits | host, size_bytes, self.ident
        )
        pkt.input_port = input_port
        pkt.output_port = output_port
        return pkt


# ---------------------------------------------------------------------------
# SpecModel draws what the one-line counter functions give.
# ---------------------------------------------------------------------------
class _DrawReference:
    """:class:`SpecModel`'s contract spelled out poll by poll with
    ``draw_u64`` / ``draw_float`` / ``draw_int``: stream ``port * 8 +
    sub``, one counter per port per draw family (the burst and pattern
    streams share the pattern counter)."""

    def __init__(self, spec, n, seed, gate_arrivals):
        self.spec, self.n, self.seed = spec, n, spec_seed(seed)
        self.gate = gate_arrivals and spec.arrivals.kind != "saturated"
        self.used = {}
        self.offered = [0] * n
        self.cur = [None] * n
        self.on = [False] * n
        self.left = [0] * n

    def _k(self, port, family):
        k = self.used.get((port, family), 0)
        self.used[port, family] = k + 1
        return k

    def _float(self, port, sub, family):
        return draw_float(self.seed, port * 8 + sub, self._k(port, family))

    def _int(self, port, sub, family, n):
        return draw_int(self.seed, port * 8 + sub, self._k(port, family), n)

    def _uniform(self, port, exclude_self):
        if not exclude_self:
            return self._int(port, 0, "pattern", self.n)
        d = draw_u64(self.seed, port * 8, self._k(port, "pattern")) % (self.n - 1)
        return d if d < port else d + 1

    def _offers(self, port):
        a = self.spec.arrivals
        if a.kind == "bernoulli":
            return self._float(port, 2, "arrival") < a.p
        while self.left[port] == 0:  # onoff: a duration draw per flip
            self.on[port] = not self.on[port]
            mean = a.mean_on if self.on[port] else a.mean_off
            u = self._float(port, 3, "duration")
            self.left[port] = (pareto_length(u, mean, a.alpha) if a.heavy
                               else geometric_length(u, mean))
        self.left[port] -= 1
        if not self.on[port]:
            return False
        return a.p >= 1.0 or self._float(port, 2, "arrival") < a.p

    def _dest(self, port):
        p = self.spec.pattern
        if p.kind == "permutation":
            return (port + p.shift) % self.n
        if p.kind == "uniform":
            return self._uniform(port, p.exclude_self)
        if p.kind == "hotspot":  # one draw when hot, two when it spills
            hot = p.hot_port
            if p.drift_packets:
                hot = (hot + self.offered[port] // p.drift_packets) % self.n
            if self._float(port, 0, "pattern") < p.p_hot:
                return hot
            return self._int(port, 0, "pattern", self.n)
        # bursty: a burst draw while a train runs, a uniform one per train
        if (self.cur[port] is None
                or self._float(port, 4, "pattern") < 1.0 / p.mean_burst):
            self.cur[port] = self._uniform(port, p.exclude_self)
        return self.cur[port]

    def _size(self, port):
        s = self.spec.sizes
        if s.kind == "fixed":
            return s.bytes
        if s.kind == "imix":
            u = self._float(port, 1, "size") * sum(s.IMIX_WEIGHTS)
            acc = 0.0
            for size, w in zip(s.IMIX_SIZES, s.IMIX_WEIGHTS):
                acc += w
                if u < acc:
                    return size
            return s.IMIX_SIZES[-1]
        if s.kind == "uniform":
            span = s.hi // 4 - s.lo // 4 + 1
            return (s.lo // 4 + self._int(port, 1, "size", span)) * 4
        return s.small if self._float(port, 1, "size") < s.p_small else s.large

    def next_packet(self, port):
        if self.gate and not self._offers(port):
            return None
        dest, size = self._dest(port), self._size(port)
        self.offered[port] += 1
        return dest, size


@st.composite
def _spec_for_kinds(draw, pattern, sizes, arrivals):
    """``(spec, ports)`` with every parameter of the three kinds drawn."""
    n = draw(st.integers(2, 64))
    nbytes = st.integers(5, 400).map(lambda words: 4 * words)
    unit = st.floats(0.0, 1.0)
    lo, hi = sorted((draw(nbytes), draw(nbytes)))
    spec = TrafficSpec(
        pattern=PatternSpec(
            kind=pattern, shift=draw(st.integers(0, 2 * n)),
            exclude_self=draw(st.booleans()),
            hot_port=draw(st.integers(0, n - 1)), p_hot=draw(unit),
            drift_packets=draw(st.integers(0, 5)),
            mean_burst=draw(st.floats(1.0, 12.0)),
        ),
        sizes=SizeSpec(
            kind=sizes, bytes=draw(nbytes), lo=lo, hi=hi,
            small=draw(nbytes), large=draw(nbytes), p_small=draw(unit),
        ),
        arrivals=ArrivalSpec(
            kind=arrivals, p=draw(st.sampled_from([1.0, 0.0]) | unit),
            mean_on=draw(st.floats(1.0, 20.0)),
            mean_off=draw(st.floats(1.0, 20.0)),
            heavy=draw(st.booleans()), alpha=draw(st.floats(1.05, 3.0)),
        ),
    )
    return spec, n


class TestSpecModelDraws:
    @pytest.mark.parametrize("arrivals", ARRIVAL_KINDS)
    @pytest.mark.parametrize("sizes", SIZE_KINDS)
    @pytest.mark.parametrize("pattern", PATTERN_KINDS)
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1),
           gate=st.booleans(), order=st.randoms(use_true_random=False))
    @settings(max_examples=6, deadline=None)
    def test_polls_match_the_counter_draws(self, pattern, sizes, arrivals,
                                           data, seed, gate, order):
        spec, n = data.draw(_spec_for_kinds(pattern, sizes, arrivals))
        model = SpecModel(spec, n, seed=seed, gate_arrivals=gate)
        ref = _DrawReference(spec, n, seed, gate)
        for _ in range(240):
            port = order.randrange(n)
            assert model.next_packet(port) == ref.next_packet(port)


class TestBlockDraws:
    """Uniform destinations come a block of :data:`_BLOCK` at a time, and
    a bursty train skips its pattern values from the same block: ports
    0 and n - 1 each poll past two refills, interleaved with random
    ports, and every packet (and every fabric poll, in words) equals
    the per-call counter draws."""

    @pytest.mark.parametrize("sizes", ["fixed", "imix"])
    @pytest.mark.parametrize("pattern", ["uniform", "bursty"])
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**64 - 1),
           exclude_self=st.booleans(), mean_burst=st.floats(1.0, 12.0),
           order_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_polls_past_two_refills_match_the_counter_draws(
            self, pattern, sizes, n, seed, exclude_self, mean_burst, order_seed):
        spec = TrafficSpec(
            pattern=PatternSpec(kind=pattern, exclude_self=exclude_self,
                                mean_burst=mean_burst),
            sizes=SizeSpec(kind=sizes, bytes=256),
        )
        model = SpecModel(spec, n, seed=seed)
        fabric = fabric_source(spec, SimConfig(ports=n, seed=seed))
        ref = _DrawReference(spec, n, seed, gate_arrivals=True)
        fabric_ref = _DrawReference(spec, n, seed, gate_arrivals=True)
        order = random.Random(order_seed)
        polls = [0, n - 1] * (2 * _BLOCK + 1)
        polls += [order.randrange(n) for _ in range(200)]
        order.shuffle(polls)
        for port in polls:
            assert model.next_packet(port) == ref.next_packet(port)
            dest, nbytes = fabric_ref.next_packet(port)
            assert fabric(port) == (dest, nbytes // 4)

