"""TAGE conditional branch predictor (Seznec), sized ~31 KB per Table II.

This is a faithful-in-structure, compact-in-detail TAGE: a bimodal base
predictor plus N tagged components with geometrically increasing history
lengths.  Prediction comes from the longest-history component whose tag
matches; allocation on mispredictions picks a longer-history entry with
the useful bit clear.  The ``use_alt_on_new`` heuristic and the useful-bit
aging are implemented; (the full TAGE's loop predictor and statistical
corrector are omitted — they matter for SPEC-level accuracy, not for the
branch-channel behaviour studied here).
"""

from __future__ import annotations

from repro.uarch.branch.base import BranchPredictor
from repro.uarch.branch.folded import FoldedHistory


class Tage(BranchPredictor):
    """TAGE with a bimodal base and ``n_components`` tagged tables.

    The tagged tables are flat int lists — tags, signed 3-bit counters
    (-4..3, >=0 means taken) and 2-bit useful counters — with component
    ``c``'s entry ``i`` at slot ``c * tagged_size + i``.  The global
    history and its per-component index and tag folds live in a
    :class:`~repro.uarch.branch.folded.FoldedHistory`.
    """

    name = "tage"

    def __init__(
        self,
        n_components: int = 6,
        base_bits: int = 12,
        tagged_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
    ) -> None:
        super().__init__()
        self.n_components = n_components
        self.base_size = 1 << base_bits
        self.tagged_size = 1 << tagged_bits
        self.tag_bits = tag_bits
        self._base = [2] * self.base_size  # 2-bit counters

        # Geometric history lengths.
        self.history_lengths = []
        ratio = (max_history / min_history) ** (1 / max(n_components - 1, 1))
        length = float(min_history)
        for _ in range(n_components):
            self.history_lengths.append(int(round(length)))
            length *= ratio

        slots = n_components * self.tagged_size
        self._tags = [0] * slots
        self._counters = [0] * slots
        self._useful = [0] * slots
        self._history = FoldedHistory(max_history, self.history_lengths,
                                      (tagged_bits, tag_bits))
        self._index_folds, self._tag_folds = self._history.folds
        # Per component: first slot, index salt.
        self._offsets = tuple(component * self.tagged_size
                              for component in range(n_components))
        self._salts = tuple(component << 3 for component in range(n_components))
        self._use_alt_on_new = 8   # 4-bit counter, >=8 favours alt
        self._allocation_tick = 0

        # Per-prediction scratch (filled by predict, used by update).
        self._last: tuple | None = None

    # -- interface ------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        index_mask = self.tagged_size - 1
        hashed = pc ^ (pc >> 4)
        slots = [offset + ((hashed ^ fold ^ salt) & index_mask)
                 for offset, fold, salt in zip(self._offsets,
                                               self._index_folds,
                                               self._salts)]
        tag_mask = (1 << self.tag_bits) - 1
        tag_base = pc ^ (pc >> 7)
        tags = [(tag_base ^ (fold << 1)) & tag_mask
                for fold in self._tag_folds]

        table_tags = self._tags
        provider = alt = -1
        for component in range(self.n_components - 1, -1, -1):
            if table_tags[slots[component]] == tags[component]:
                if provider < 0:
                    provider = component
                else:
                    alt = component
                    break

        counters = self._counters
        base_prediction = self._base[pc & (self.base_size - 1)] >= 2
        alt_prediction = (
            counters[slots[alt]] >= 0 if alt >= 0 else base_prediction
        )
        if provider >= 0:
            slot = slots[provider]
            counter = counters[slot]
            new_entry = self._useful[slot] == 0 and counter in (-1, 0)
            if new_entry and self._use_alt_on_new >= 8:
                prediction = alt_prediction
            else:
                prediction = counter >= 0
        else:
            prediction = base_prediction

        self._last = (pc, provider, slots, tags, alt_prediction, prediction)
        return prediction

    def update(self, pc: int, taken: bool) -> None:
        if self._last is None or self._last[0] != pc:
            self.predict(pc)
        _, provider, slots, tags, alt_prediction, prediction = self._last
        self._last = None

        if provider >= 0:
            slot = slots[provider]
            counters = self._counters
            useful = self._useful
            counter = counters[slot]
            # use_alt_on_new bookkeeping.
            if useful[slot] == 0 and counter in (-1, 0) \
                    and (counter >= 0) != alt_prediction:
                if alt_prediction == taken:
                    self._use_alt_on_new = min(self._use_alt_on_new + 1, 15)
                else:
                    self._use_alt_on_new = max(self._use_alt_on_new - 1, 0)
            # Update the provider.
            if taken:
                counters[slot] = min(counter + 1, 3)
            else:
                counters[slot] = max(counter - 1, -4)
            if prediction == taken and alt_prediction != taken:
                useful[slot] = min(useful[slot] + 1, 3)
        else:
            index = pc & (self.base_size - 1)
            if taken:
                self._base[index] = min(self._base[index] + 1, 3)
            else:
                self._base[index] = max(self._base[index] - 1, 0)

        # Allocate on misprediction in a longer-history component.
        if prediction != taken and provider < self.n_components - 1:
            self._allocate(taken, provider, slots, tags)

        # Useful-bit aging.
        self._allocation_tick += 1
        if self._allocation_tick % 262144 == 0:
            self._useful = [useful >> 1 for useful in self._useful]

        self._history.push(1 if taken else 0)

    def _allocate(self, taken: bool, provider: int, slots: list[int],
                  tags: list[int]) -> None:
        useful = self._useful
        for component in range(provider + 1, self.n_components):
            slot = slots[component]
            if useful[slot] == 0:
                self._tags[slot] = tags[component]
                self._counters[slot] = 0 if taken else -1
                return
        # No free entry: decay useful bits on the candidates.
        for component in range(provider + 1, self.n_components):
            slot = slots[component]
            if useful[slot]:
                useful[slot] -= 1

    def state_digest(self) -> int:
        tagged = tuple(zip(self._tags, self._counters, self._useful))
        return hash((tuple(self._base), tagged, self._history.value,
                     self._use_alt_on_new))

    def reset(self) -> None:
        slots = len(self._tags)
        self._base = [2] * self.base_size
        self._tags = [0] * slots
        self._counters = [0] * slots
        self._useful = [0] * slots
        self._history.clear()
        self._use_alt_on_new = 8
        self._allocation_tick = 0
        self._last = None

    def storage_bits(self) -> int:
        """Approximate hardware budget (to check the ~31 KB target)."""
        base_bits = 2 * self.base_size
        entry_bits = self.tag_bits + 3 + 2
        tagged_bits = self.n_components * self.tagged_size * entry_bits
        return base_bits + tagged_bits
