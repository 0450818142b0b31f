"""TAGE conditional branch predictor (Seznec), the model's only one.

Table II specifies a 31 KB TAGE; this geometry stores about 11.5 KB
(:meth:`Tage.storage_bits`).

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

from dataclasses import dataclass

from repro.uarch.branch.folded import FoldedHistory


@dataclass
class PredictorStats:
    """Lookup/mispredict counters."""

    lookups: int = 0
    mispredicts: int = 0

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class Tage:
    """TAGE with a bimodal base and ``n_components`` tagged tables.

    :meth:`predict` then :meth:`update` with the real outcome;
    :meth:`resolve` does both for one branch and counts it in
    :attr:`stats`, and is all the timing pipeline calls.  The
    attacker-visible state is fingerprinted by :meth:`state_digest`,
    which the branch-predictor side-channel observer reads: SeMPE claims
    sJMPs never touch the predictor, so the digest must be independent
    of secrets.

    The tagged tables are flat int lists — tags, signed 3-bit counters
    (-4..3, >=0 means taken) and 2-bit useful counters — with component
    ``c``'s entry ``i`` at slot ``c * tagged_size + i``.  The global
    history and its per-component index and tag folds live in a
    :class:`~repro.uarch.branch.folded.FoldedHistory`, packed one lane
    per component, so a lookup hashes every component with one XOR per
    int and then needs one shift and one mask per component.

    The TAGE rules exist once: :meth:`_lookup` (provider, alternate,
    prediction) and :meth:`_train` (counters, allocation, history).
    :meth:`resolve` runs both for one branch; :meth:`predict` and
    :meth:`update` are the same two halves called apart.
    """

    def __init__(
        self,
        n_components: int = 6,
        base_bits: int = 12,
        tagged_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
    ) -> None:
        self.stats = PredictorStats()
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
        self._history = history = FoldedHistory(
            max_history, self.history_lengths, (tagged_bits, tag_bits))
        self._index_mask = self.tagged_size - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._base_mask = self.base_size - 1
        # Per component: (component, first slot, index lane shift, tag
        # lane shift) in the packed folds.  _lanes_up runs from the
        # shortest history, _lanes (the lookup order) from the longest.
        self._lanes_up = tuple(
            (component, component * self.tagged_size,
             history.index_shifts[component], history.tag_shifts[component])
            for component in range(n_components))
        self._lanes = self._lanes_up[::-1]
        # Component c's index salt (c << 3), packed into the index lanes.
        self._salts = sum(
            ((component << 3) & self._index_mask) << shift
            for component, shift in enumerate(history.index_shifts))
        self._use_alt_on_new = 8   # 4-bit counter, >=8 favours alt
        self._allocation_tick = 0

        # Lookup scratch, written by _lookup and read by _train: the
        # packed index and tag hashes (the allocator re-reads the lanes
        # it needs), the provider and its slot, and both predictions.
        # _lookup_pc is the pc a predict() left them for, or None.
        self._indices = self._tag_hashes = 0
        self._provider = self._provider_slot = -1
        self._alt_prediction = self._prediction = False
        self._lookup_pc: int | None = None

    # -- interface ------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        prediction = self._lookup(pc)
        self._lookup_pc = pc
        return prediction

    def update(self, pc: int, taken: bool) -> None:
        if self._lookup_pc != pc:
            self._lookup(pc)
        self._train(pc, taken)

    def resolve(self, pc: int, taken: bool) -> bool:
        """Predict *pc*, train on *taken* and count the lookup; return
        whether the prediction was wrong.  The same as
        ``record(predict(pc), taken)`` with ``update(pc, taken)`` in
        between, in one lookup."""
        mispredicted = self._lookup(pc) != taken
        self._train(pc, taken)
        stats = self.stats
        stats.lookups += 1
        if mispredicted:
            stats.mispredicts += 1
        return mispredicted

    def record(self, predicted: bool, taken: bool) -> bool:
        """Count a lookup in :attr:`stats`; return the mispredict flag."""
        self.stats.lookups += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.stats.mispredicts += 1
        return mispredicted

    # -- the TAGE rules -------------------------------------------------------

    def _lookup(self, pc: int) -> bool:
        """Find the provider and alternate for *pc*; return the prediction."""
        history = self._history
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        # Every component's index and tag hash in one XOR each.
        self._indices = indices = history.index ^ self._salts \
            ^ (((pc ^ (pc >> 4)) & index_mask) * history.index_ones)
        self._tag_hashes = tag_hashes = (history.tag << 1) \
            ^ (((pc ^ (pc >> 7)) & tag_mask) * history.tag_ones)

        table_tags = self._tags
        provider = -1
        alt_slot = -1
        for component, first, index_shift, tag_shift in self._lanes:
            slot = first + ((indices >> index_shift) & index_mask)
            if table_tags[slot] == (tag_hashes >> tag_shift) & tag_mask:
                if provider < 0:
                    provider = component
                    provider_slot = slot
                else:
                    alt_slot = slot
                    break

        base_prediction = self._base[pc & self._base_mask] >= 2
        if provider >= 0:
            counters = self._counters
            alt_prediction = (
                counters[alt_slot] >= 0 if alt_slot >= 0 else base_prediction
            )
            counter = counters[provider_slot]
            if self._use_alt_on_new >= 8 and counter in (-1, 0) \
                    and self._useful[provider_slot] == 0:
                prediction = alt_prediction
            else:
                prediction = counter >= 0
            self._provider_slot = provider_slot
        else:
            alt_prediction = prediction = base_prediction

        self._provider = provider
        self._alt_prediction = alt_prediction
        self._prediction = prediction
        return prediction

    def _train(self, pc: int, taken: bool) -> None:
        """Train on *taken* from the last lookup, then push the outcome."""
        self._lookup_pc = None
        provider = self._provider
        alt_prediction = self._alt_prediction
        prediction = self._prediction

        if provider >= 0:
            slot = self._provider_slot
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
                if counter < 3:
                    counters[slot] = counter + 1
            elif counter > -4:
                counters[slot] = counter - 1
            if prediction == taken and alt_prediction != taken \
                    and useful[slot] < 3:
                useful[slot] += 1
        else:
            base = self._base
            index = pc & self._base_mask
            counter = base[index]
            if taken:
                if counter < 3:
                    base[index] = counter + 1
            elif counter:
                base[index] = counter - 1

        # Allocate on misprediction in a longer-history component.
        if prediction != taken and provider < self.n_components - 1:
            self._allocate(taken, provider)

        # Useful-bit aging.
        self._allocation_tick += 1
        if self._allocation_tick % 262144 == 0:
            self._useful = [useful >> 1 for useful in self._useful]

        self._history.push(1 if taken else 0)

    def _allocate(self, taken: bool, provider: int) -> None:
        # Candidates: every component longer than the provider, shortest
        # history first, at the slots the last lookup hashed to.
        index_mask = self._index_mask
        indices = self._indices
        useful = self._useful
        slots = [(first + ((indices >> index_shift) & index_mask), tag_shift)
                 for _, first, index_shift, tag_shift
                 in self._lanes_up[provider + 1:]]
        for slot, tag_shift in slots:
            if useful[slot] == 0:
                self._tags[slot] = (self._tag_hashes >> tag_shift) \
                    & self._tag_mask
                self._counters[slot] = 0 if taken else -1
                return
        # No free entry: decay useful bits on the candidates.
        for slot, _ in slots:
            if useful[slot]:
                useful[slot] -= 1

    def state_digest(self) -> int:
        """Deterministic fingerprint of all predictor state."""
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
        self._lookup_pc = None

    def storage_bits(self) -> int:
        """Approximate hardware budget (Table II's row prints it)."""
        base_bits = 2 * self.base_size
        entry_bits = self.tag_bits + 3 + 2
        tagged_bits = self.n_components * self.tagged_size * entry_bits
        return base_bits + tagged_bits
