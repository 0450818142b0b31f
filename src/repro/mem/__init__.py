"""Memory-system substrate: flat backing memory, caches, prefetchers,
the cache hierarchy used by the timing model, and the SeMPE ScratchPad
Memory (SPM).
"""

from repro.mem.memory import FlatMemory
from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.mem.prefetch import StridePrefetcher, StreamPrefetcher
from repro.mem.hierarchy import MemoryHierarchy, HierarchyConfig
from repro.mem.scratchpad import ScratchpadMemory

__all__ = [
    "FlatMemory",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "StridePrefetcher",
    "StreamPrefetcher",
    "MemoryHierarchy",
    "HierarchyConfig",
    "ScratchpadMemory",
]
