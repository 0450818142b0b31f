"""Multi-level cache hierarchy with latency accounting.

Models the Table II memory system: split IL1/DL1, unified L2, DRAM behind
it, a stride prefetcher training on DL1 accesses and a stream prefetcher
training on L2 misses.  The hierarchy returns an access latency in cycles;
the out-of-order pipeline uses it as the load-to-use latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.cache import Cache, CacheConfig
from repro.mem.prefetch import StridePrefetcher, StreamPrefetcher


@dataclass
class HierarchyConfig:
    """Geometry and latencies for the whole memory system (Table II)."""

    il1: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="IL1", size_bytes=16 * 1024, assoc=2, hit_latency=1))
    dl1: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="DL1", size_bytes=32 * 1024, assoc=2, hit_latency=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=256 * 1024, assoc=2, hit_latency=12))
    dram_latency: int = 160
    enable_l1_prefetcher: bool = True
    enable_l2_prefetcher: bool = True


@dataclass
class AccessResult:
    """Outcome of one demand access."""

    latency: int
    l1_hit: bool
    l2_hit: bool


class MemoryHierarchy:
    """IL1 + DL1 + unified L2 + DRAM with prefetchers."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.il1 = Cache(self.config.il1)
        self.dl1 = Cache(self.config.dl1)
        self.l2 = Cache(self.config.l2)
        self.stride_prefetcher = StridePrefetcher(
            line_bytes=self.config.dl1.line_bytes)
        self.stream_prefetcher = StreamPrefetcher(
            line_bytes=self.config.l2.line_bytes)
        self.dram_accesses = 0
        # Latencies and switches hoisted off the per-access path.
        self._l1i_latency = self.config.il1.hit_latency
        self._l1d_latency = self.config.dl1.hit_latency
        self._l2_latency = self.config.l2.hit_latency
        self._dram_latency = self.config.dram_latency
        self._l1_prefetch = self.config.enable_l1_prefetcher
        self._l2_prefetch = self.config.enable_l2_prefetcher

    # -- demand paths ----------------------------------------------------------

    def access_instruction(self, address: int) -> AccessResult:
        """Instruction fetch through IL1 -> L2 -> DRAM."""
        latency = self._l1i_latency
        if self.il1.access(address, is_write=False):
            return AccessResult(latency, l1_hit=True, l2_hit=False)
        l2_hit = self._l2_demand(address, is_write=False)
        latency += self._l2_latency
        if not l2_hit:
            latency += self._dram_latency
        self.il1.fill(address)
        return AccessResult(latency, l1_hit=False, l2_hit=l2_hit)

    def access_data(self, pc: int, address: int, is_write: bool) -> AccessResult:
        """Data access through DL1 -> L2 -> DRAM, training the stride
        prefetcher on every access."""
        if self._l1_prefetch:
            for prefetch_address in self.stride_prefetcher.observe(pc, address):
                self._prefetch_into_dl1(prefetch_address)

        latency = self._l1d_latency
        if self.dl1.access(address, is_write):
            return AccessResult(latency, l1_hit=True, l2_hit=False)
        l2_hit = self._l2_demand(address, is_write=False)
        latency += self._l2_latency
        if not l2_hit:
            latency += self._dram_latency
        self.dl1.fill(address, is_write=is_write)
        return AccessResult(latency, l1_hit=False, l2_hit=l2_hit)

    # -- fast-path variants ------------------------------------------------------
    #
    # Same cache side effects as the access_* methods, but they return a
    # bare latency int instead of allocating an AccessResult.  The fast
    # engine's inner loop calls these; the reference engine keeps the
    # object-returning methods, so the parity suite covers both.

    def fetch_latency(self, address: int) -> int:
        """Instruction fetch; returns 0 on an IL1 hit, else the full
        miss latency (what the pipeline adds to the fetch cycle)."""
        if self.il1.access(address, False):
            return 0
        latency = self._l1i_latency + self._l2_latency
        if not self._l2_demand(address, is_write=False):
            latency += self._dram_latency
        self.il1.fill(address)
        return latency

    def data_latency(self, pc: int, address: int, is_write: bool) -> int:
        """Data access; returns the load-to-use latency in cycles."""
        if self._l1_prefetch:
            for prefetch_address in self.stride_prefetcher.observe(pc, address):
                self._prefetch_into_dl1(prefetch_address)

        if self.dl1.access(address, is_write):
            return self._l1d_latency
        latency = self._l1d_latency + self._l2_latency
        if not self._l2_demand(address, is_write=False):
            latency += self._dram_latency
        self.dl1.fill(address, is_write=is_write)
        return latency

    # -- internals ---------------------------------------------------------------

    def _l2_demand(self, address: int, is_write: bool) -> bool:
        hit = self.l2.access(address, is_write)
        if not hit:
            self.dram_accesses += 1
            if self._l2_prefetch:
                for prefetch_address in self.stream_prefetcher.observe_miss(address):
                    if not self.l2.contains(prefetch_address):
                        self.l2.fill(prefetch_address, prefetched=True)
            self.l2.fill(address, is_write=is_write)
        return hit

    def _prefetch_into_dl1(self, address: int) -> None:
        if self.dl1.contains(address):
            return
        # The prefetch pulls the line through the L2 as well.
        if not self.l2.contains(address):
            self.l2.fill(address, prefetched=True)
        self.dl1.fill(address, prefetched=True)

    # -- reporting --------------------------------------------------------------

    def miss_rates(self) -> dict[str, float]:
        return {
            "IL1": self.il1.stats.miss_rate,
            "DL1": self.dl1.stats.miss_rate,
            "L2": self.l2.stats.miss_rate,
        }

    def reset_stats(self) -> None:
        # Cache.reset_stats (not stats.reset) so resident prefetched
        # flags restart with the counters — see its docstring.
        self.il1.reset_stats()
        self.dl1.reset_stats()
        self.l2.reset_stats()
        self.dram_accesses = 0
