"""ITTAGE-style indirect-target predictor (~6 KB per Table II).

Predicts the *target address* of indirect jumps (JALR) rather than a
taken/not-taken bit.  Structure mirrors TAGE: a PC-indexed base target
table plus tagged components indexed by folded global path history
(kept incrementally, see :mod:`repro.uarch.branch.folded`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.branch.folded import FoldedHistory


@dataclass
class _IttageEntry:
    tag: int = 0
    target: int = 0
    confidence: int = 0   # 2-bit
    useful: int = 0


class Ittage:
    """Indirect-target predictor with TAGE-style tagged components."""

    name = "ittage"

    def __init__(
        self,
        n_components: int = 4,
        base_bits: int = 9,
        tagged_bits: int = 7,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 64,
    ) -> None:
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_bits = tag_bits
        self.n_components = n_components
        self._base: list[int] = [0] * self.base_size
        self._tables = [
            [_IttageEntry() for _ in range(self.tagged_size)]
            for _ in range(n_components)
        ]
        ratio = (max_history / min_history) ** (1 / max(n_components - 1, 1))
        self.history_lengths = [
            int(round(min_history * ratio ** index)) for index in range(n_components)
        ]
        self._history = history = FoldedHistory(
            max_history, self.history_lengths, (tagged_bits, tag_bits))
        # Component c's index salt (c), packed into the index lanes.
        self._salts = sum(
            (component & (self.tagged_size - 1)) << shift
            for component, shift in enumerate(history.index_shifts))
        self.lookups = 0
        self.mispredicts = 0
        self._last: tuple | None = None

    def predict(self, pc: int) -> int:
        """Predicted target address (0 = no prediction)."""
        self.lookups += 1
        history = self._history
        index_mask = self.tagged_size - 1
        tag_mask = (1 << self.tag_bits) - 1
        indices = history.index ^ self._salts \
            ^ (((pc ^ (pc >> 3)) & index_mask) * history.index_ones)
        tag_hashes = (history.tag << 1) ^ ((pc & tag_mask) * history.tag_ones)
        slots = [(indices >> shift) & index_mask
                 for shift in history.index_shifts]
        tags = [(tag_hashes >> shift) & tag_mask
                for shift in history.tag_shifts]
        provider = -1
        provider_entry = None
        for component in range(self.n_components - 1, -1, -1):
            entry = self._tables[component][slots[component]]
            if entry.tag == tags[component]:
                provider = component
                provider_entry = entry
                break
        if provider_entry is not None:
            prediction = provider_entry.target
        else:
            prediction = self._base[pc & (self.base_size - 1)]
        self._last = (pc, provider, provider_entry, prediction, slots, tags)
        return prediction

    def update(self, pc: int, target: int) -> bool:
        """Update with the real target; returns True on mispredict."""
        if self._last is None or self._last[0] != pc:
            self.predict(pc)
            self.lookups -= 1
        _, provider, provider_entry, prediction, slots, tags = self._last
        self._last = None
        mispredicted = prediction != target
        if mispredicted:
            self.mispredicts += 1

        if provider_entry is not None:
            if provider_entry.target == target:
                provider_entry.confidence = min(provider_entry.confidence + 1, 3)
                provider_entry.useful = min(provider_entry.useful + 1, 3)
            else:
                if provider_entry.confidence > 0:
                    provider_entry.confidence -= 1
                else:
                    provider_entry.target = target
        else:
            self._base[pc & (self.base_size - 1)] = target

        if mispredicted and provider < self.n_components - 1:
            for component in range(provider + 1, self.n_components):
                entry = self._tables[component][slots[component]]
                if entry.useful == 0:
                    entry.tag = tags[component]
                    entry.target = target
                    entry.confidence = 0
                    break
                entry.useful = max(entry.useful - 1, 0)

        # Fold several target-address bits into one path-history bit so
        # that targets differing only in high bits are distinguishable.
        folded_target = target ^ (target >> 4) ^ (target >> 8) ^ (target >> 12)
        path_bit = (folded_target ^ pc) & 1
        self._history.push(path_bit)
        return mispredicted

    def state_digest(self) -> int:
        tagged = tuple(
            (entry.tag, entry.target, entry.confidence, entry.useful)
            for table in self._tables
            for entry in table
        )
        return hash((tuple(self._base), tagged, self._history.value))

    def reset(self) -> None:
        self._base = [0] * self.base_size
        for table in self._tables:
            for entry in table:
                entry.tag = entry.target = entry.confidence = entry.useful = 0
        self._history.clear()
        self.lookups = 0
        self.mispredicts = 0
        self._last = None
