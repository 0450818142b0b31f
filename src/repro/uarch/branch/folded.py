"""Global branch history with incrementally folded views (TAGE/ITTAGE).

A tagged component of history length ``L`` hashes the newest ``L``
history bits down to a ``w``-bit index or tag by XOR-ing their ``w``-bit
chunks together.  Recomputing that fold costs ``L / w`` steps per
component per lookup; Seznec and Michaud ("A case for (partially)
TAgged GEometric history length branch prediction", JILP 2006) keep it
in a circular shift register instead, updated in O(1) per branch: shift
the fold left by one, insert the new bit, cancel the bit that just left
the ``L``-bit window (it sits at position ``L % w`` after the shift),
and wrap the bit shifted out at the top back to position 0.  The result
is exactly the from-scratch fold.

Packed layout.  Every component's register is a lane of one Python
int, so a push is the same twenty-odd whole-int shift/XOR/mask steps for any
number of components, not one Python iteration per component and per
width:

* ``index`` holds every index fold and ``tag`` every tag fold; a
  ``w``-bit lane has one spare bit above it, where the bit shifted out
  at the top waits to be wrapped back to the lane's bit 0.
* ``_lines`` holds one delay line per component: component ``c``'s
  newest ``L_c`` history bits, in a lane that starts at ``start_c``.
  After the shift, the bit that leaves the window sits one past the
  lane, at ``take_c = start_c + L_c``.
* Placement rule: component ``c``'s index lane starts at
  ``take_c - L_c % w_index`` and its tag lane at ``take_c - L_c % w_tag``,
  so ``take_c`` is exactly where both folds take the outgoing bit in.
  One mask then lifts every component's outgoing bit out of ``_lines``
  and one XOR cancels it in each fold.  ``take_c`` is the smallest
  position at which no delay line, index lane or tag lane overlaps the
  previous component's.

A lookup uses the same lanes: XOR-ing a value copied into every lane
(``(value & mask) * lane_ones``) combines it with every fold at once,
after which each component needs one shift and one mask.
"""

from __future__ import annotations


class FoldedHistory:
    """A ``history_bits``-bit global history plus its packed folds.

    ``widths`` is ``(index width, tag width)``.  ``value`` holds the
    history itself, newest bit at position 0.  ``index_shifts[c]`` and
    ``tag_shifts[c]`` are the lane positions of component ``c``'s folds
    in the packed ``index`` and ``tag`` ints, and ``index_ones`` /
    ``tag_ones`` have bit 0 of every lane set.  :meth:`folds` unpacks
    the lanes (for tests).
    """

    __slots__ = ("value", "index", "tag", "_lines", "index_shifts",
                 "tag_shifts", "index_ones", "tag_ones", "_line_ones",
                 "_take", "_index_bits", "_tag_bits", "_index_lanes",
                 "_tag_lanes", "_mask")

    def __init__(self, history_bits: int, lengths: list[int],
                 widths: tuple[int, int]) -> None:
        if not all(0 < length <= history_bits for length in lengths):
            raise ValueError(
                f"fold lengths {lengths} must lie in 1..{history_bits}")
        index_bits, tag_bits = widths
        index_shifts, tag_shifts, starts, takes = [], [], [], []
        line_free = index_free = tag_free = 0   # first unused bit
        for length in lengths:
            take = max(line_free + length,
                       index_free + length % index_bits,
                       tag_free + length % tag_bits)
            starts.append(take - length)
            takes.append(take)
            index_shifts.append(take - length % index_bits)
            tag_shifts.append(take - length % tag_bits)
            line_free = take + 1
            index_free = index_shifts[-1] + index_bits + 1
            tag_free = tag_shifts[-1] + tag_bits + 1
        self.index_shifts = tuple(index_shifts)
        self.tag_shifts = tuple(tag_shifts)
        self.index_ones = sum(1 << shift for shift in index_shifts)
        self.tag_ones = sum(1 << shift for shift in tag_shifts)
        self._line_ones = sum(1 << start for start in starts)
        self._take = sum(1 << take for take in takes)
        self._index_bits = index_bits
        self._tag_bits = tag_bits
        self._index_lanes = self.index_ones * ((1 << index_bits) - 1)
        self._tag_lanes = self.tag_ones * ((1 << tag_bits) - 1)
        self._mask = (1 << history_bits) - 1
        self.clear()

    def push(self, bit: int) -> None:
        """Shift *bit* (0 or 1) into the history and every fold."""
        if bit:
            lines = (self._lines << 1) | self._line_ones
            index = (self.index << 1) | self.index_ones
            tag = (self.tag << 1) | self.tag_ones
            self.value = ((self.value << 1) | 1) & self._mask
        else:
            lines = self._lines << 1
            index = self.index << 1
            tag = self.tag << 1
            self.value = (self.value << 1) & self._mask
        leaving = lines & self._take
        self._lines = lines ^ leaving
        index ^= leaving
        self.index = (index ^ ((index >> self._index_bits)
                               & self.index_ones)) & self._index_lanes
        tag ^= leaving
        self.tag = (tag ^ ((tag >> self._tag_bits)
                           & self.tag_ones)) & self._tag_lanes

    def folds(self) -> tuple[list[int], list[int]]:
        """Every component's (index folds, tag folds), unpacked."""
        index_mask = (1 << self._index_bits) - 1
        tag_mask = (1 << self._tag_bits) - 1
        return ([(self.index >> shift) & index_mask
                 for shift in self.index_shifts],
                [(self.tag >> shift) & tag_mask
                 for shift in self.tag_shifts])

    def clear(self) -> None:
        self.value = self.index = self.tag = self._lines = 0
