"""Hardware prefetchers: stride (L1 data) and stream (L2), per Table II.

Both produce candidate prefetch line addresses that the hierarchy installs
into the corresponding cache.  They are intentionally simple but stateful,
so that dual-path execution produces the cross-path prefetching effect the
paper observes (one path warming lines for the other).
"""

from __future__ import annotations

from dataclasses import dataclass

# What an observation that triggers nothing returns: one shared empty
# tuple, so the per-access training step allocates nothing.
_NO_PREFETCH: tuple[int, ...] = ()


@dataclass(slots=True)
class _StrideEntry:
    last_address: int
    stride: int
    confidence: int


class StridePrefetcher:
    """PC-indexed stride prefetcher (used at the DL1 in the paper).

    Tracks per-PC access strides; after two consecutive accesses with the
    same stride it prefetches ``degree`` lines ahead.
    """

    def __init__(self, table_size: int = 64, degree: int = 2,
                 line_bytes: int = 64) -> None:
        self.table_size = table_size
        self.degree = degree
        self.line_bytes = line_bytes
        self._table: dict[int, _StrideEntry] = {}

    def observe(self, pc: int, address: int) -> tuple[int, ...]:
        """Record a demand access; return byte addresses to prefetch
        (never a negative one)."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                # FIFO eviction of the oldest trained PC.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _StrideEntry(address, 0, 0)
            return _NO_PREFETCH
        stride = address - entry.last_address
        entry.last_address = address
        if stride and stride == entry.stride:
            if entry.confidence < 3:
                entry.confidence += 1
        else:
            if entry.confidence:
                entry.confidence -= 1
            entry.stride = stride
        # entry.stride == stride on both branches.
        if stride and entry.confidence >= 2:
            return _ahead(address, stride, self.degree)
        return _NO_PREFETCH

    def reset(self) -> None:
        self._table.clear()


class StreamPrefetcher:
    """Next-line stream prefetcher (used at the L2 in the paper).

    Detects monotone streams of miss line-addresses and prefetches the
    next ``degree`` sequential lines of an established stream.
    """

    def __init__(self, n_streams: int = 8, degree: int = 4,
                 line_bytes: int = 64) -> None:
        self.n_streams = n_streams
        self.degree = degree
        self.line_bytes = line_bytes
        # Each stream: [last_line, direction, confidence]
        self._streams: list[list[int]] = []

    def observe_miss(self, address: int) -> tuple[int, ...]:
        """Record a demand miss; return byte addresses to prefetch
        (never a negative one)."""
        line = address // self.line_bytes
        for stream in self._streams:
            last_line, direction, confidence = stream
            delta = line - last_line
            if delta == 0:
                return _NO_PREFETCH
            if abs(delta) <= 2 and (direction == 0 or (delta > 0) == (direction > 0)):
                stream[0] = line
                stream[1] = 1 if delta > 0 else -1
                stream[2] = min(confidence + 1, 4)
                if stream[2] >= 2:
                    return _ahead(line * self.line_bytes,
                                  stream[1] * self.line_bytes, self.degree)
                return _NO_PREFETCH
        self._streams.append([line, 0, 0])
        if len(self._streams) > self.n_streams:
            self._streams.pop(0)
        return _NO_PREFETCH

    def reset(self) -> None:
        self._streams.clear()


def _ahead(address: int, stride: int, degree: int) -> tuple[int, ...]:
    """The next *degree* addresses of a stride, dropping negative ones."""
    return tuple(address + stride * step for step in range(1, degree + 1)
                 if address + stride * step >= 0)
