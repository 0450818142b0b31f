"""Multi-level hierarchy latencies and prefetch interaction."""

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy


def make_hierarchy(l1_prefetch=False, l2_prefetch=False):
    config = HierarchyConfig(
        il1=CacheConfig(name="IL1", size_bytes=1024, assoc=2, hit_latency=1),
        dl1=CacheConfig(name="DL1", size_bytes=1024, assoc=2, hit_latency=2),
        l2=CacheConfig(name="L2", size_bytes=8192, assoc=2, hit_latency=12),
        dram_latency=100,
        enable_l1_prefetcher=l1_prefetch,
        enable_l2_prefetcher=l2_prefetch,
    )
    return MemoryHierarchy(config)


def test_cold_data_access_goes_to_dram():
    hierarchy = make_hierarchy()
    assert hierarchy.data_latency(0, 0x1000, False) == 2 + 12 + 100
    assert hierarchy.dram_accesses == 1


def test_l1_hit_after_fill():
    hierarchy = make_hierarchy()
    hierarchy.data_latency(0, 0x1000, False)
    assert hierarchy.data_latency(0, 0x1000, False) == 2


def test_l2_hit_after_l1_eviction():
    hierarchy = make_hierarchy()
    hierarchy.data_latency(0, 0x1000, False)
    # Evict 0x1000 from the tiny DL1 by filling its set.
    for way in range(1, 20):
        hierarchy.data_latency(0, 0x1000 + way * 1024, False)
    # Might or might not still be in the 8KB L2; at minimum latencies add.
    assert hierarchy.data_latency(0, 0x1000, False) >= 2 + 12


def test_instruction_path_uses_il1():
    hierarchy = make_hierarchy()
    assert hierarchy.fetch_latency(0) == 1 + 12 + 100
    assert hierarchy.fetch_latency(0) == 0      # an IL1 hit adds nothing
    assert hierarchy.il1.stats.demand_accesses == 2
    assert hierarchy.dl1.stats.demand_accesses == 0


def test_stride_prefetcher_hides_future_misses():
    with_prefetch = make_hierarchy(l1_prefetch=True)
    without = make_hierarchy(l1_prefetch=False)
    pc = 0x44
    stride = 64
    for index in range(32):
        with_prefetch.data_latency(pc, 0x8000 + index * stride, False)
        without.data_latency(pc, 0x8000 + index * stride, False)
    assert (with_prefetch.dl1.stats.demand_misses
            < without.dl1.stats.demand_misses)


def test_miss_rates_reporting():
    hierarchy = make_hierarchy()
    hierarchy.data_latency(0, 0, False)
    rates = hierarchy.miss_rates()
    assert set(rates) == {"IL1", "DL1", "L2"}
    assert rates["DL1"] == 1.0


def test_reset_stats():
    hierarchy = make_hierarchy()
    hierarchy.data_latency(0, 0, False)
    hierarchy.reset_stats()
    assert hierarchy.dl1.stats.demand_accesses == 0
    assert hierarchy.dram_accesses == 0


def test_reset_stats_starts_a_clean_prefetch_epoch():
    """Warmup-then-measure: a line prefetched before reset_stats() must
    not count as a prefetch hit in the new epoch (whose fill count is
    zero), so the epoch invariants hold on a healthy cache."""
    hierarchy = make_hierarchy()
    hierarchy.dl1.fill(0x4000, prefetched=True)
    hierarchy.reset_stats()
    # The line is still resident.
    assert hierarchy.data_latency(0, 0x4000, False) == 2
    stats = hierarchy.dl1.stats
    assert stats.prefetch_hits == 0
    assert stats.prefetch_fills == 0
    stats.validate()                        # must not raise


def test_invariants_hold_under_heavy_prefetch_traffic():
    """Both prefetchers on, strided and irregular traffic: every level's
    demand/prefetch accounting stays disjoint and non-negative."""
    hierarchy = make_hierarchy(l1_prefetch=True, l2_prefetch=True)
    for index in range(64):
        hierarchy.data_latency(0x44, 0x8000 + index * 64, False)
        hierarchy.data_latency(0x48, 0x20000 + (index * 7919) % 4096,
                              index % 2 == 0)
        hierarchy.fetch_latency(index * 4 % 512)
    for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2):
        cache.stats.validate()
        assert cache.stats.hits >= 0
        assert (cache.stats.hits + cache.stats.demand_misses
                == cache.stats.demand_accesses)
    # Prefetch fills happened and were never booked as demand misses.
    assert hierarchy.dl1.stats.prefetch_fills > 0
    assert hierarchy.l2.stats.prefetch_fills > 0


def test_full_simulation_cache_accounting_validates(fast_config):
    """End-to-end: a real workload through the whole machine leaves
    every cache level with coherent demand/prefetch counters."""
    from repro.core.engine import simulate
    from repro.uarch.pipeline import OutOfOrderPipeline
    from repro.workloads.microbench import MicrobenchSpec, compile_microbench

    program = compile_microbench(
        MicrobenchSpec("ones", w=2, iters=2), "sempe").program
    report = simulate(program, defense="sempe", config=fast_config)
    assert report.pipeline.dl1_accesses >= report.pipeline.dl1_misses
    pipeline = OutOfOrderPipeline(fast_config, sempe=True)
    from repro.arch.executor import Executor

    executor = Executor(program, sempe=True)
    pipeline.run_chunks(executor.run_chunks(
        line_bytes=fast_config.hierarchy.il1.line_bytes))
    for cache in (pipeline.hierarchy.il1, pipeline.hierarchy.dl1,
                  pipeline.hierarchy.l2):
        cache.stats.validate()
