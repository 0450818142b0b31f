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
"""

from __future__ import annotations


class FoldedHistory:
    """A ``history_bits``-bit global history plus its folds.

    ``folds[w][c]`` is the fold of the newest ``lengths[c]`` bits to
    ``widths[w]`` bits.  The fold lists are updated in place, so a
    predictor may keep references to them.  ``value`` holds the history
    itself, newest bit at position 0.
    """

    __slots__ = ("value", "folds", "_mask", "_taps")

    def __init__(self, history_bits: int, lengths: list[int],
                 widths: tuple[int, ...]) -> None:
        if not all(0 < length <= history_bits for length in lengths):
            raise ValueError(
                f"fold lengths {lengths} must lie in 1..{history_bits}")
        self.value = 0
        self.folds = tuple([0] * len(lengths) for _ in widths)
        self._mask = (1 << history_bits) - 1
        # One tap per fold: (fold list, component, width, width mask,
        # position of the outgoing history bit, where it lands).
        self._taps = tuple(
            (folds, component, width, (1 << width) - 1, length - 1,
             length % width)
            for folds, width in zip(self.folds, widths)
            for component, length in enumerate(lengths))

    def push(self, bit: int) -> None:
        """Shift *bit* (0 or 1) into the history and every fold."""
        history = self.value
        for folds, component, width, mask, top, landing in self._taps:
            folded = ((folds[component] << 1) | bit) \
                ^ (((history >> top) & 1) << landing)
            folds[component] = (folded ^ (folded >> width)) & mask
        self.value = ((history << 1) | bit) & self._mask

    def clear(self) -> None:
        self.value = 0
        for folds in self.folds:
            folds[:] = [0] * len(folds)
