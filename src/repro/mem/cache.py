"""Set-associative write-back, write-allocate cache with LRU replacement.

The timing model only needs hit/miss decisions, writeback counts, and
occupancy behaviour; cached data values live in the functional simulator's
:class:`repro.mem.memory.FlatMemory`, so lines here are tags only.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level.

    Two per-level defense knobs (see :mod:`repro.defenses.builtin`):

    ``protected_ways``
        Way-partitioning (CAT/DAWG-style).  When non-zero, the victim's
        fills are confined to this many reserved ways per set — reduced
        effective associativity is the performance cost — and the
        attacker-facing views (:meth:`Cache.attacker_occupancy`,
        :meth:`Cache.attacker_resident_lines`) expose only the shared
        partition, which the victim never touches.

    ``index_key``
        Keyed set-index permutation (CEASER-style).  When non-zero, the
        set index is a keyed mix of the line address instead of its low
        bits — conflict patterns change, which is the performance cost —
        and the attacker-facing views collapse: without the key the
        attacker cannot build eviction sets within one rekeying period,
        so a single run resolves no per-set occupancy.
    """

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2
    protected_ways: int = 0
    index_key: int = 0

    @property
    def n_sets(self) -> int:
        n = self.size_bytes // (self.assoc * self.line_bytes)
        if n <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return n


@dataclass
class CacheStats:
    """Per-cache counters, split explicitly into demand and prefetch.

    ``demand_accesses``/``demand_misses`` count only program-issued
    accesses (:meth:`Cache.access`); prefetcher-installed lines are
    tracked separately in ``prefetch_fills``.  Keeping the populations
    disjoint is what makes ``hits`` well-defined: a prefetch fill can
    never be recorded as a demand miss without a matching demand access,
    so ``demand_accesses - demand_misses`` cannot go negative.  The
    :meth:`validate` invariants are asserted by the tier-1 memory tests
    after every workload they run.

    ``accesses``/``misses``/``prefetches`` remain as read-only aliases
    for the pre-split field names.
    """

    demand_accesses: int = 0
    demand_misses: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0   # demand hits on prefetched lines

    @property
    def accesses(self) -> int:
        return self.demand_accesses

    @property
    def misses(self) -> int:
        return self.demand_misses

    @property
    def prefetches(self) -> int:
        return self.prefetch_fills

    @property
    def hits(self) -> int:
        hits = self.demand_accesses - self.demand_misses
        if hits < 0:
            raise ValueError(
                f"cache accounting corrupt: {self.demand_misses} demand "
                f"misses exceed {self.demand_accesses} demand accesses "
                "(a non-demand fill was counted as a miss?)")
        return hits

    @property
    def miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def validate(self) -> None:
        """Raise ``ValueError`` if any accounting invariant is broken."""
        for name in ("demand_accesses", "demand_misses", "writebacks",
                     "prefetch_fills", "prefetch_hits"):
            if getattr(self, name) < 0:
                raise ValueError(f"cache counter {name} is negative")
        if self.demand_misses > self.demand_accesses:
            raise ValueError(
                "more demand misses than demand accesses "
                f"({self.demand_misses} > {self.demand_accesses})")
        if self.prefetch_hits > self.prefetch_fills:
            raise ValueError(
                "more prefetch hits than prefetch fills "
                f"({self.prefetch_hits} > {self.prefetch_fills})")
        if self.prefetch_hits > self.demand_accesses:
            raise ValueError(
                "more prefetch hits than demand accesses "
                f"({self.prefetch_hits} > {self.demand_accesses})")

    def reset(self) -> None:
        self.demand_accesses = 0
        self.demand_misses = 0
        self.writebacks = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0


class _Line:
    __slots__ = ("tag", "dirty", "prefetched")

    def __init__(self, tag: int, dirty: bool, prefetched: bool) -> None:
        self.tag = tag
        self.dirty = dirty
        self.prefetched = prefetched


class Cache:
    """One level of tag-only set-associative cache.

    Each set is an ordered dict from tag to :class:`_Line`; ordering
    encodes recency (last item = most recently used).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._sets: list[dict[int, _Line]] = [
            {} for _ in range(config.n_sets)
        ]
        self._line_shift = config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != config.line_bytes:
            raise ValueError("line size must be a power of two")
        if not 0 <= config.protected_ways <= config.assoc:
            raise ValueError(
                f"{config.name}: protected_ways={config.protected_ways} "
                f"must be between 0 and assoc={config.assoc}")
        # Way partitioning confines the victim to the reserved ways.
        self._fill_assoc = config.protected_ways or config.assoc
        # Geometry hoisted off the per-access path (the config is fixed
        # for the cache's lifetime).
        self._n_sets = config.n_sets
        self._index_key = config.index_key

    # -- address mapping ----------------------------------------------------

    def line_address(self, address: int) -> int:
        return address >> self._line_shift

    def set_index(self, line_address: int) -> int:
        key = self._index_key
        if key:
            mixed = ((line_address ^ key) * 0x9E3779B97F4A7C15) \
                & 0xFFFFFFFFFFFFFFFF
            return (mixed >> 17) % self._n_sets
        return line_address % self._n_sets

    def _set_of(self, line_address: int) -> dict[int, _Line]:
        if self._index_key:
            return self._sets[self.set_index(line_address)]
        return self._sets[line_address % self._n_sets]

    # -- operations ------------------------------------------------------------

    def access(self, address: int, is_write: bool) -> bool:
        """Demand access.  Returns True on hit.

        On a miss the caller is responsible for filling (after fetching
        from the next level) via :meth:`fill`.
        """
        stats = self.stats
        stats.demand_accesses += 1
        line_address = address >> self._line_shift
        if self._index_key:
            cache_set = self._sets[self.set_index(line_address)]
        else:
            cache_set = self._sets[line_address % self._n_sets]
        # LRU bump: re-inserting moves the line to the most-recent end.
        line = cache_set.pop(line_address, None)
        if line is None:
            stats.demand_misses += 1
            return False
        cache_set[line_address] = line
        if line.prefetched:
            stats.prefetch_hits += 1
            line.prefetched = False
        if is_write:
            line.dirty = True
        return True

    def fill(self, address: int, is_write: bool = False,
             prefetched: bool = False) -> int | None:
        """Install the line containing *address*.

        Returns the byte address of an evicted dirty line (for writeback
        accounting) or ``None``.
        """
        line_address = address >> self._line_shift
        cache_set = self._set_of(line_address)
        victim_address = None
        if line_address in cache_set:
            line = cache_set.pop(line_address)
            line.dirty = line.dirty or is_write
            line.prefetched = line.prefetched and prefetched
            cache_set[line_address] = line
            return None
        if len(cache_set) >= self._fill_assoc:
            victim_tag, victim = next(iter(cache_set.items()))
            del cache_set[victim_tag]
            if victim.dirty:
                self.stats.writebacks += 1
                victim_address = victim_tag << self._line_shift
        cache_set[line_address] = _Line(line_address, is_write, prefetched)
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim_address

    def contains(self, address: int) -> bool:
        """Non-updating lookup (used by observers / prefetchers)."""
        line_address = address >> self._line_shift
        return line_address in self._set_of(line_address)

    def reset_stats(self) -> None:
        """Start a new measurement epoch.

        Clears the counters *and* the resident lines' prefetched flags:
        a line prefetched before the reset must not produce a
        ``prefetch_hits`` increment in the new epoch (whose
        ``prefetch_fills`` is zero), or the epoch's invariants —
        ``prefetch_hits <= prefetch_fills`` — would break on a healthy
        cache.  Always reset through this method, not ``stats.reset()``
        directly, so counters and flags restart together.
        """
        self.stats.reset()
        for cache_set in self._sets:
            for line in cache_set.values():
                line.prefetched = False

    def invalidate_all(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> set[int]:
        """Set of resident line addresses (for cache-channel observers)."""
        resident: set[int] = set()
        for cache_set in self._sets:
            resident.update(cache_set.keys())
        return resident

    def set_occupancy(self) -> list[int]:
        """Number of valid lines per set (the machine's ground truth)."""
        return [len(cache_set) for cache_set in self._sets]

    # -- attacker-facing views ----------------------------------------------
    #
    # What a prime-and-probe adversary actually resolves, per the
    # configured defense.  Undefended caches expose the full per-set
    # footprint; a partitioned cache exposes only the shared ways (which
    # the victim never fills); a randomized cache exposes nothing
    # set-resolved within one rekeying period.

    def attacker_occupancy(self) -> list[int]:
        """Per-set victim footprint as the adversary measures it."""
        if self.config.protected_ways:
            # The victim lives entirely in the reserved partition; the
            # shared ways the attacker primes are never evicted.
            return [0] * self._n_sets
        if self.config.index_key:
            # No eviction sets without the key: no per-set resolution.
            return []
        return self.set_occupancy()

    def attacker_resident_lines(self) -> set[int]:
        """Residency as the adversary can enumerate it (for the
        cache-state channel digest)."""
        if self.config.protected_ways or self.config.index_key:
            return set()
        return self.resident_lines()
