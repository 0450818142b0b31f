"""Set-associative cache behaviour."""

import pytest

from repro.mem.cache import Cache, CacheConfig, CacheStats


def make_cache(size=1024, assoc=2, line=64):
    return Cache(CacheConfig(name="T", size_bytes=size, assoc=assoc,
                             line_bytes=line))


def test_geometry():
    cache = make_cache(size=1024, assoc=2, line=64)
    assert cache.config.n_sets == 8


def test_bad_line_size_rejected():
    with pytest.raises(ValueError):
        Cache(CacheConfig(name="T", size_bytes=1024, assoc=2, line_bytes=48))


def test_cold_miss_then_hit():
    cache = make_cache()
    assert cache.access(0, False) is False
    cache.fill(0)
    assert cache.access(0, False) is True
    assert cache.stats.demand_accesses == 2
    assert cache.stats.demand_misses == 1


def test_same_line_hits():
    cache = make_cache(line=64)
    cache.fill(0)
    assert cache.access(63, False) is True
    assert cache.access(64, False) is False


def test_lru_eviction_order():
    cache = make_cache(size=128, assoc=2, line=64)  # 1 set, 2 ways
    cache.fill(0)          # line 0
    cache.fill(64)         # line 1
    cache.access(0, False)         # touch line 0 -> line 1 becomes LRU
    cache.fill(128)        # evicts line 1
    assert cache.contains(0)
    assert not cache.contains(64)
    assert cache.contains(128)


def test_dirty_eviction_reports_writeback():
    cache = make_cache(size=128, assoc=2, line=64)
    cache.fill(0, is_write=True)
    cache.fill(64)
    victim = cache.fill(128)
    assert victim == 0
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = make_cache(size=128, assoc=2, line=64)
    cache.fill(0)
    cache.fill(64)
    victim = cache.fill(128)
    assert victim is None
    assert cache.stats.writebacks == 0


def test_write_hit_marks_dirty():
    cache = make_cache(size=128, assoc=2, line=64)
    cache.fill(0)
    cache.access(0, is_write=True)
    cache.fill(64)
    assert cache.fill(128) == 0   # dirty writeback


def test_prefetch_accounting():
    cache = make_cache()
    cache.fill(0, prefetched=True)
    assert cache.stats.prefetch_fills == 1
    cache.access(0, False)
    assert cache.stats.prefetch_hits == 1
    # Second demand hit no longer counts as a prefetch hit.
    cache.access(0, False)
    assert cache.stats.prefetch_hits == 1


def test_miss_rate():
    cache = make_cache()
    assert cache.stats.miss_rate == 0.0
    cache.access(0, False)
    cache.fill(0)
    cache.access(0, False)
    assert cache.stats.miss_rate == pytest.approx(0.5)


def test_set_occupancy_and_residency():
    cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
    cache.fill(0)
    cache.fill(64)
    occupancy = cache.set_occupancy()
    assert sum(occupancy) == 2
    assert cache.resident_lines() == {0, 1}


def test_invalidate_all():
    cache = make_cache()
    cache.fill(0)
    cache.invalidate_all()
    assert not cache.contains(0)


# --------------------------------------------------------------------------
# Demand vs prefetch accounting invariants
# --------------------------------------------------------------------------


def test_prefetch_fills_never_count_as_demand_misses():
    """The regression the split fixes: a burst of prefetch fills with no
    matching demand accesses must leave the demand counters untouched,
    so ``hits`` stays well-defined (it used to be able to go negative if
    any fill path was ever counted as a miss)."""
    cache = make_cache()
    for index in range(8):
        cache.fill(index * 64, prefetched=True)
    assert cache.stats.prefetch_fills == 8
    assert cache.stats.demand_accesses == 0
    assert cache.stats.demand_misses == 0
    assert cache.stats.hits == 0
    cache.stats.validate()


def test_hits_raises_on_corrupt_accounting():
    stats = CacheStats(demand_accesses=1, demand_misses=3)
    with pytest.raises(ValueError, match="demand misses exceed"):
        _ = stats.hits
    with pytest.raises(ValueError, match="more demand misses"):
        stats.validate()


def test_validate_rejects_impossible_prefetch_hits():
    stats = CacheStats(demand_accesses=5, demand_misses=0,
                       prefetch_fills=1, prefetch_hits=2)
    with pytest.raises(ValueError, match="prefetch hits than prefetch"):
        stats.validate()
    stats = CacheStats(demand_accesses=1, demand_misses=0,
                       prefetch_fills=9, prefetch_hits=2)
    with pytest.raises(ValueError, match="prefetch hits than demand"):
        stats.validate()
    with pytest.raises(ValueError, match="negative"):
        CacheStats(demand_accesses=-1).validate()


def test_demand_and_prefetch_counters_split():
    cache = make_cache()
    cache.access(0, False)
    cache.fill(0)
    cache.fill(64, prefetched=True)
    cache.access(0, False)
    assert cache.stats.demand_accesses == 2
    assert cache.stats.demand_misses == 1
    assert cache.stats.prefetch_fills == 1
    assert cache.stats.hits == 1
    cache.stats.validate()


def test_mixed_demand_prefetch_stream_invariants_hold():
    """A randomized-ish interleaving keeps every invariant intact and
    the populations disjoint: demand + prefetch never double-count."""
    cache = make_cache(size=256, assoc=2, line=64)
    addresses = [0, 64, 128, 192, 0, 256, 64, 320, 128, 0]
    for step, address in enumerate(addresses):
        if step % 3 == 2:
            cache.fill(address, prefetched=True)
        else:
            if not cache.access(address, is_write=(step % 2 == 0)):
                cache.fill(address, is_write=(step % 2 == 0))
        cache.stats.validate()
    stats = cache.stats
    assert stats.demand_accesses == 7   # 10 steps minus 3 prefetch fills
    assert stats.hits + stats.demand_misses == stats.demand_accesses
