"""Predictor interface and trivial predictors."""

from __future__ import annotations

from dataclasses import dataclass


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


class BranchPredictor:
    """Interface: predict, then update with the real outcome.

    :meth:`resolve` does both for one branch and counts it in
    :attr:`stats`; the timing pipeline calls only that.

    The attacker-visible internal state can be fingerprinted with
    :meth:`state_digest`, used by the branch-predictor side-channel
    observer: SeMPE claims sJMPs never touch the predictor, so the digest
    must be independent of secrets.
    """

    name = "base"

    def __init__(self) -> None:
        self.stats = PredictorStats()

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError

    def resolve(self, pc: int, taken: bool) -> bool:
        """Predict *pc*, train on *taken* and record the lookup.

        Returns whether the prediction was wrong.  Equivalent to
        ``record(predict(pc), taken)`` with ``update(pc, taken)`` in
        between; a predictor may override it with a single pass.
        """
        predicted = self.predict(pc)
        self.update(pc, taken)
        return self.record(predicted, taken)

    def record(self, predicted: bool, taken: bool) -> bool:
        """Bookkeeping helper: count a lookup, return mispredict flag."""
        self.stats.lookups += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.stats.mispredicts += 1
        return mispredicted

    def state_digest(self) -> int:
        """Deterministic fingerprint of all predictor state."""
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class AlwaysTaken(BranchPredictor):
    """Static predict-taken."""

    name = "always-taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def state_digest(self) -> int:
        return 0

    def reset(self) -> None:
        pass


class AlwaysNotTaken(BranchPredictor):
    """Static predict-not-taken."""

    name = "always-not-taken"

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass

    def state_digest(self) -> int:
        return 0

    def reset(self) -> None:
        pass
